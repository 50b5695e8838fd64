//! Cluster-scale traffic evaluation: baseline vs. Memento fleets under
//! the same open-loop traffic, at several load levels.
//!
//! This is the experiment the paper's platform-scale motivation (§2) asks
//! for but single-machine runs cannot answer: with millions of sub-second
//! invocations arriving over a fleet, what happens to **tail latency**
//! (p50/p95/p99, queue wait included) and to the **fleet memory
//! footprint** (warm pools pinned across nodes)? Both fleets are offered
//! byte-identical arrival sequences; only the machine architecture under
//! the containers differs.
//!
//! Load levels are expressed as a fraction of the *baseline* fleet's warm
//! service capacity, so "1.15×" means traffic the baseline provably cannot
//! sustain — queues grow until the bounded admission rejects — while the
//! faster Memento containers keep the same offered load just inside
//! capacity.
//!
//! The default mix is deliberately idle-heavy (data-processing, platform,
//! and Go workloads whose warm pools dominate fleet memory): that is the
//! regime the paper's motivation describes, where most of a fleet's
//! resident frames belong to containers waiting warm, and where Memento's
//! parked containers — pool reserve shed back to the OS, only page tables
//! and live heap pinned — hold several-fold fewer frames than a software
//! allocator's cached free lists.
//!
//! The per-(workload, config) service costs come from
//! [`memento_cluster::calibrate`]d real-machine profiles, memoized in the
//! context ([`EvalContext::profiles`]) so the region study reuses them;
//! calibrations and the per-(config, load) fleet simulations fan out
//! across `--jobs` worker threads like every other experiment, and
//! results are slotted by shard index so tables are byte-identical at any
//! job count.

use crate::context::{ConfigKind, EvalContext};
use crate::error::ExperimentError;
use crate::table::Table;
use memento_cluster::{
    generate_arrivals, simulate, ArrivalConfig, ClusterConfig, Engine, KeepAlive, Placement,
    ProfileTable, ServiceProfile, WorkloadMix,
};
use memento_system::stats;
use std::fmt;

/// Cycles per microsecond at the simulated core frequency.
pub(crate) fn cycles_per_us() -> f64 {
    stats::CORE_FREQ_HZ / 1e6
}

/// Mean warm service time of `profiles`, in cycles.
pub(crate) fn mean_warm_cycles(profiles: &[ServiceProfile]) -> f64 {
    profiles.iter().map(|p| p.warm_cycles as f64).sum::<f64>() / profiles.len().max(1) as f64
}

/// Fleet shape and traffic knobs for the cluster experiment.
#[derive(Clone, Copy, Debug)]
pub struct ClusterParams {
    /// Nodes in the fleet.
    pub nodes: usize,
    /// Bounded per-node queue depth.
    pub queue_capacity: usize,
    /// Invocations offered per (config, load) run.
    pub invocations: u64,
    /// Arrival-process seed (shared by both fleets at each load).
    pub seed: u64,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            nodes: 8,
            queue_capacity: 32,
            invocations: 3_000,
            seed: 7,
        }
    }
}

/// One fleet's outcome at one load level.
#[derive(Clone, Debug)]
pub struct FleetSummary {
    /// Invocations served to completion.
    pub completed: u64,
    /// Arrivals rejected at admission (bounded queues).
    pub rejected: u64,
    /// Cold starts paid.
    pub cold_starts: u64,
    /// Warm starts served from the keep-alive pool.
    pub warm_starts: u64,
    /// Median end-to-end latency (queue wait + service), µs.
    pub p50_us: f64,
    /// 95th-percentile latency, µs.
    pub p95_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Peak fleet memory footprint, MB.
    pub peak_mb: f64,
    /// Drain-time conservation audits passed.
    pub clean: bool,
}

/// Baseline vs. Memento at one load level.
#[derive(Clone, Debug)]
pub struct LoadRow {
    /// Load label ("0.5×" …), relative to baseline fleet capacity.
    pub label: String,
    /// Offered load as a fraction of baseline warm-service capacity.
    pub utilization: f64,
    /// Mean inter-arrival gap, µs.
    pub interarrival_us: f64,
    /// Baseline fleet outcome.
    pub baseline: FleetSummary,
    /// Memento fleet outcome.
    pub memento: FleetSummary,
}

/// The cluster evaluation across all load levels.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Fleet shape used.
    pub params: ClusterParams,
    /// Workload names in the mix.
    pub workloads: Vec<String>,
    /// One row per load level, lowest load first.
    pub rows: Vec<LoadRow>,
}

impl ClusterReport {
    /// The highest-load row — the headline operating point.
    pub fn peak_load(&self) -> &LoadRow {
        self.rows.last().expect("report always has load rows")
    }
}

/// Load levels as fractions of baseline fleet capacity. The top level
/// saturates the baseline while Memento's faster warm path keeps the same
/// traffic just under its own capacity.
const LOAD_LEVELS: [(&str, f64); 3] = [("0.5×", 0.5), ("0.9×", 0.9), ("1.15×", 1.15)];

fn summarize(result: &memento_cluster::ClusterResult) -> FleetSummary {
    let (p50, p95, p99) = result.latency_percentiles();
    FleetSummary {
        completed: result.completed,
        rejected: result.rejected,
        cold_starts: result.cold_starts,
        warm_starts: result.warm_starts,
        p50_us: p50 as f64 / cycles_per_us(),
        p95_us: p95 as f64 / cycles_per_us(),
        p99_us: p99 as f64 / cycles_per_us(),
        peak_mb: result.peak_fleet_frames as f64 * 4096.0 / (1024.0 * 1024.0),
        clean: result.is_clean(),
    }
}

/// Runs the cluster evaluation over the workloads `names` at the
/// context's scale, on its worker pool.
pub fn run(
    ctx: &mut EvalContext,
    names: &[&str],
    params: ClusterParams,
) -> Result<ClusterReport, ExperimentError> {
    let specs = ctx.try_workloads(names)?;
    let workloads: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let mix = WorkloadMix::uniform(specs.clone())?;

    // Per-(config, workload) service profiles calibrated from real
    // machines (memoized; each fresh calibration is one shard).
    let profiles = ctx.profiles(&[ConfigKind::Baseline, ConfigKind::Memento], &specs);
    let (base_profiles, mem_profiles) = profiles.split_at(specs.len());
    let base_table = ProfileTable::from_profiles(base_profiles.to_vec());
    let mem_table = ProfileTable::from_profiles(mem_profiles.to_vec());

    // Baseline fleet capacity sets the load scale: with `nodes` servers
    // and mean warm service time S, saturation is one arrival every
    // S / nodes cycles.
    let mean_service = mean_warm_cycles(base_profiles);
    let keep_alive = KeepAlive::Fixed((mean_service * 20.0) as u64);

    // Both configs at a load see the same arrival sequence, so generate
    // it once per load here rather than once per (load, config) shard —
    // arrival synthesis is a deterministic function of (seed, load) and
    // re-deriving it inside each shard doubled that work.
    let arrival_sets = LOAD_LEVELS
        .iter()
        .map(|&(_, utilization)| {
            let arrival = ArrivalConfig {
                seed: params.seed,
                count: params.invocations,
                mean_interarrival_cycles: mean_service / (params.nodes as f64 * utilization),
            };
            generate_arrivals(&arrival, &mix)
        })
        .collect::<Result<Vec<_>, _>>()?;

    // One shard per (load, config) fleet run.
    let sim_points: Vec<(usize, bool)> = (0..LOAD_LEVELS.len())
        .flat_map(|li| [(li, false), (li, true)])
        .collect();
    let sim_results = ctx.map(&sim_points, |&(li, memento)| {
        let cluster = ClusterConfig {
            nodes: params.nodes,
            queue_capacity: params.queue_capacity,
            cores_per_node: 1,
            placement: Placement::LeastLoaded,
            keep_alive,
            cold_start: memento_cluster::ColdStart::Boot,
            reclamation: memento_cluster::Reclamation::None,
            autoscaler: memento_cluster::Autoscaler::None,
            record_timeline: false,
        };
        let table = if memento { &mem_table } else { &base_table };
        let result = simulate(
            Engine::Profiled(table.clone()),
            &cluster,
            &mix,
            &arrival_sets[li],
        )?;
        Ok::<FleetSummary, ExperimentError>(summarize(&result))
    });

    let mut summaries = Vec::with_capacity(sim_results.len());
    for r in sim_results {
        summaries.push(r?);
    }
    let rows = LOAD_LEVELS
        .iter()
        .enumerate()
        .map(|(li, (label, utilization))| LoadRow {
            label: (*label).to_owned(),
            utilization: *utilization,
            interarrival_us: mean_service / (params.nodes as f64 * utilization) / cycles_per_us(),
            baseline: summaries[2 * li].clone(),
            memento: summaries[2 * li + 1].clone(),
        })
        .collect();
    Ok(ClusterReport {
        params,
        workloads,
        rows,
    })
}

/// The default cluster mix: the idle-heavy slice of the suite
/// (data-processing, platform, and Go workloads) whose warm pools
/// dominate a fleet's resident memory.
pub const DEFAULT_MIX: [&str; 8] = ["html", "US", "CM", "MI", "Redis", "Silo", "SQLite3", "up"];

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Cluster traffic: {} nodes, queue depth {}, {} invocations/run, mix [{}]",
            self.params.nodes,
            self.params.queue_capacity,
            self.params.invocations,
            self.workloads.join(", ")
        )?;
        writeln!(
            f,
            "(open-loop Poisson arrivals; load relative to baseline fleet capacity; \
             latency includes queue wait)"
        )?;
        let mut t = Table::new(vec![
            "load", "config", "p50 µs", "p95 µs", "p99 µs", "peak MB", "cold", "warm", "rejected",
        ]);
        for row in &self.rows {
            for (config, s) in [("baseline", &row.baseline), ("memento", &row.memento)] {
                t.row(vec![
                    format!("{} ({:.1} µs)", row.label, row.interarrival_us),
                    config.to_owned(),
                    format!("{:.1}", s.p50_us),
                    format!("{:.1}", s.p95_us),
                    format!("{:.1}", s.p99_us),
                    format!("{:.2}", s.peak_mb),
                    s.cold_starts.to_string(),
                    s.warm_starts.to_string(),
                    s.rejected.to_string(),
                ]);
            }
        }
        write!(f, "{t}")?;
        let peak = self.peak_load();
        write!(
            f,
            "\nat {} load: p99 {:.1} µs -> {:.1} µs ({:.2}x), peak footprint {:.2} MB -> {:.2} MB ({:.2}x)",
            peak.label,
            peak.baseline.p99_us,
            peak.memento.p99_us,
            peak.baseline.p99_us / peak.memento.p99_us.max(1e-9),
            peak.baseline.peak_mb,
            peak.memento.peak_mb,
            peak.memento.peak_mb / peak.baseline.peak_mb.max(1e-9),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_report() -> ClusterReport {
        // The exact default configuration, scaled down 8× so the
        // acceptance assertions exercise what the shipped experiment
        // reports.
        let mut ctx = EvalContext::scaled(8).with_jobs(2);
        run(&mut ctx, &DEFAULT_MIX, ClusterParams::default()).expect("known workloads")
    }

    #[test]
    fn memento_wins_tail_latency_and_footprint_at_peak_load() {
        let report = quick_report();
        assert_eq!(report.rows.len(), 3, "three load levels");
        for row in &report.rows {
            assert!(row.baseline.clean && row.memento.clean, "audits must pass");
            assert!(row.baseline.completed > 0 && row.memento.completed > 0);
        }
        let peak = report.peak_load();
        assert!(
            peak.memento.p99_us < peak.baseline.p99_us,
            "memento p99 {:.1} must beat baseline {:.1} at {} load",
            peak.memento.p99_us,
            peak.baseline.p99_us,
            peak.label
        );
        assert!(
            peak.memento.peak_mb < peak.baseline.peak_mb,
            "memento peak footprint {:.2} MB must beat baseline {:.2} MB",
            peak.memento.peak_mb,
            peak.baseline.peak_mb
        );
        assert!(report.to_string().contains("p99"));
    }

    #[test]
    fn tail_latency_grows_with_load() {
        let report = quick_report();
        let p99s: Vec<f64> = report.rows.iter().map(|r| r.baseline.p99_us).collect();
        assert!(
            p99s[0] <= p99s[2],
            "baseline p99 must not shrink as offered load grows: {p99s:?}"
        );
    }

    #[test]
    fn report_is_byte_identical_across_job_counts() {
        // The hoisted arrival sets and slot-ordered shard results must
        // make the rendered table independent of worker-thread count.
        let params = ClusterParams {
            invocations: 800,
            ..ClusterParams::default()
        };
        let renders: Vec<String> = [1, 2, 5]
            .iter()
            .map(|&jobs| {
                run(
                    &mut EvalContext::scaled(16).with_jobs(jobs),
                    &["aes", "html"],
                    params,
                )
                .expect("known workloads")
                .to_string()
            })
            .collect();
        assert_eq!(renders[0], renders[1], "jobs=1 vs jobs=2");
        assert_eq!(renders[0], renders[2], "jobs=1 vs jobs=5");
    }

    #[test]
    fn unknown_workload_is_a_typed_error() {
        let mut ctx = EvalContext::scaled(8).with_jobs(1);
        let err = run(&mut ctx, &["ghost"], ClusterParams::default()).expect_err("must fail");
        assert_eq!(err, ExperimentError::UnknownWorkload("ghost".into()));
    }
}
