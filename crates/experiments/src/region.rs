//! Region-scale policy-matrix study: placement, keep-alive, cold-start,
//! reclamation, and autoscaling policies crossed over bursty arrival
//! traces, for baseline vs. Memento fleets.
//!
//! The cluster experiment (§ [`crate::cluster`]) answers "what does the
//! same fixed fleet do under more load"; this study answers the region
//! operator's question: **which policy bundle sits on the tail-latency /
//! peak-footprint Pareto front once traffic stops being a flat Poisson
//! stream?** Five bundles build on each other:
//!
//! 1. `fixed-fleet` — the PR-8 status quo: fixed TTL keep-alive, full
//!    cold boots, no reclamation, a static fleet.
//! 2. `autoscale` — a target-utilization node autoscaler (cold spin-up
//!    delay, scale-down drain) over the same policies.
//! 3. `+snapshot` — REAP-style snapshot restores replace cold boots:
//!    the restore replays the calibrated stable-working-set prefetch,
//!    landing strictly between a warm hit and a cold boot.
//! 4. `+squeeze` — Squeezy-style pressure-driven reclamation: when the
//!    fleet footprint crosses a watermark, idle-warm containers are
//!    squeezed to their unreclaimable floor; the next warm start pays a
//!    re-fault cost (hardware pool re-grant for Memento, demand faults
//!    for the baseline — the paper's cost edge at region scale).
//! 5. `kiss` — KiSS-style size-aware keep-alive on top of bundle 4:
//!    big idle footprints expire sooner than small ones under a shared
//!    frame-cycle budget.
//! 6. `park-to-pm` (opt-in via [`RegionParams::park_to_pm`]) — idle
//!    containers checkpoint their Memento state to persistent memory and
//!    shed their entire DRAM footprint; a warm hit replays the sealed
//!    image (Memento) or demand-refaults the working set (baseline,
//!    which persists an empty image). Off by default so the five-bundle
//!    matrix — and the golden snapshot pinned to it — is unchanged.
//!
//! Each bundle runs under a flat Poisson trace and a flash-crowd-on-
//! diurnal trace (Lewis–Shedler thinning, byte-deterministic), for both
//! machine architectures, via calibrated Profiled-engine fleets. Every
//! (trace, config) group gets a Pareto front minimizing (p99 latency,
//! peak footprint); the headline is whether a Memento point with
//! reclamation enabled sits on or inside the baseline front under the
//! bursty trace.

use crate::cluster::{cycles_per_us, mean_warm_cycles};
use crate::context::{ConfigKind, EvalContext};
use crate::error::ExperimentError;
use crate::table::Table;
use memento_cluster::{
    generate_trace, simulate, Arrival, ArrivalConfig, ArrivalTrace, Autoscaler, AutoscalerConfig,
    ClusterConfig, ColdStart, DiurnalTrace, EmpiricalTrace, Engine, FlashCrowd, KeepAlive,
    Placement, ProfileTable, Reclamation, ServiceProfile, UniformTrace, WorkloadMix,
};
use std::fmt;

/// Region shape and traffic knobs.
#[derive(Clone, Copy, Debug)]
pub struct RegionParams {
    /// Nodes committed at t = 0 (autoscaled bundles float between
    /// `min_nodes` and `max_nodes` around this).
    pub nodes: usize,
    /// Autoscaler floor.
    pub min_nodes: usize,
    /// Autoscaler ceiling.
    pub max_nodes: usize,
    /// Bounded per-node admission queue depth.
    pub queue_capacity: usize,
    /// Invocations offered per cell run.
    pub invocations: u64,
    /// Arrival-process seed (shared by every cell).
    pub seed: u64,
    /// Include the sixth `park-to-pm` bundle. Off by default: the
    /// five-bundle matrix (and every golden capture of it) is reproduced
    /// byte-for-byte when this is false.
    pub park_to_pm: bool,
    /// Replay the checked-in Azure-style day curve instead of the
    /// synthetic diurnal base under the bursty trace (satellite of the
    /// PR 9 "Azure-trace replay" follow-on). Off by default for the same
    /// golden-stability reason.
    pub empirical_trace: bool,
}

impl RegionParams {
    /// The default matrix at a context's scale: invocations scale down
    /// with the divisor (floor 10 000), so the full evaluation offers the
    /// headline million-invocation matrix while smoke runs stay in CI
    /// budget.
    pub fn at_scale(scale_divisor: u64) -> Self {
        let default = RegionParams::default();
        RegionParams {
            invocations: (default.invocations / scale_divisor.max(1)).max(10_000),
            ..default
        }
    }
}

impl Default for RegionParams {
    fn default() -> Self {
        RegionParams {
            nodes: 8,
            min_nodes: 2,
            max_nodes: 16,
            queue_capacity: 32,
            invocations: 1_000_000,
            seed: 7,
            park_to_pm: false,
            empirical_trace: false,
        }
    }
}

/// One (trace, policy, config) cell of the matrix.
#[derive(Clone, Debug)]
pub struct RegionRow {
    /// Trace label ("uniform" / "flash").
    pub trace: String,
    /// Policy-bundle label.
    pub policy: String,
    /// "baseline" or "memento".
    pub config: String,
    /// True when the bundle squeezes under pressure.
    pub reclaims: bool,
    /// Median end-to-end latency (queue wait + service), µs.
    pub p50_us: f64,
    /// 95th-percentile latency, µs.
    pub p95_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Peak fleet memory footprint, MB.
    pub peak_mb: f64,
    /// Invocations served to completion.
    pub completed: u64,
    /// Arrivals rejected at admission.
    pub rejected: u64,
    /// Snapshot restores served.
    pub restores: u64,
    /// Containers squeezed by pressure reclamation.
    pub squeezed: u64,
    /// Idle containers checkpointed to persistent memory (0 unless the
    /// `park-to-pm` bundle is enabled).
    pub pm_parks: u64,
    /// Warm starts served by replaying a PM image (0 unless the
    /// `park-to-pm` bundle is enabled).
    pub pm_restores: u64,
    /// Most nodes ever committed at once.
    pub peak_nodes: u64,
    /// Drain-time conservation + lifecycle audits passed.
    pub clean: bool,
    /// Non-dominated within its (trace, config) group on
    /// (p99, peak footprint).
    pub on_front: bool,
}

/// The region evaluation across the whole matrix.
#[derive(Clone, Debug)]
pub struct RegionReport {
    /// Region shape used.
    pub params: RegionParams,
    /// Workload names in the mix.
    pub workloads: Vec<String>,
    /// One row per cell: trace-major, then policy, then config.
    pub rows: Vec<RegionRow>,
    /// Headline: under the bursty trace, some Memento point with
    /// reclamation enabled is on or inside the baseline Pareto front.
    pub memento_on_flash_front: bool,
}

impl RegionReport {
    /// Rows on their group's Pareto front, in matrix order.
    pub fn front_rows(&self) -> Vec<&RegionRow> {
        self.rows.iter().filter(|r| r.on_front).collect()
    }
}

/// `a` dominates `b` when it is no worse on both objectives and strictly
/// better on at least one (both minimized).
fn dominates(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

/// Marks the non-dominated members of `points` (minimizing both axes).
fn pareto_front(points: &[(f64, f64)]) -> Vec<bool> {
    points
        .iter()
        .map(|&p| !points.iter().any(|&q| dominates(q, p)))
        .collect()
}

/// Policy bundles in presentation order. Each closure derives the cell's
/// dynamic policies from the calibrated mean service time, the mix's
/// summed idle footprint, and the worst cold boot in the table.
struct Bundle {
    label: &'static str,
    reclaims: bool,
}

const BUNDLES: [Bundle; 5] = [
    Bundle {
        label: "fixed-fleet",
        reclaims: false,
    },
    Bundle {
        label: "autoscale",
        reclaims: false,
    },
    Bundle {
        label: "+snapshot",
        reclaims: false,
    },
    Bundle {
        label: "+squeeze",
        reclaims: true,
    },
    Bundle {
        label: "kiss",
        reclaims: true,
    },
];

/// The opt-in sixth bundle: snapshot cold starts and autoscaling like
/// bundle 3, but idle containers park to persistent memory instead of
/// holding a DRAM warm pool. It does not squeeze (`reclaims: false`) —
/// parking sheds the whole idle footprint, so there is nothing left for
/// a watermark pass to take.
const PM_BUNDLE: Bundle = Bundle {
    label: "park-to-pm",
    reclaims: false,
};

/// The bundle list for a run: the five-bundle PR 9 matrix, plus
/// `park-to-pm` when opted in.
fn bundles(params: &RegionParams) -> Vec<&'static Bundle> {
    let mut all: Vec<&'static Bundle> = BUNDLES.iter().collect();
    if params.park_to_pm {
        all.push(&PM_BUNDLE);
    }
    all
}

/// Derived per-config knobs every bundle shares.
struct Knobs {
    fixed_ttl: u64,
    size_aware: KeepAlive,
    watermark: u64,
    autoscaler: AutoscalerConfig,
    /// Park-to-PM retention TTL. Parked images cost no DRAM, so they can
    /// be retained far longer than a DRAM warm pool before eviction pays.
    pm_ttl: u64,
}

fn knobs(params: &RegionParams, profiles: &[ServiceProfile]) -> Knobs {
    let service_sum: u64 = profiles.iter().map(|p| p.warm_cycles).sum();
    let mean_service = service_sum as f64 / profiles.len().max(1) as f64;
    let fixed_ttl = (mean_service * 20.0) as u64;
    let idle_sum: u64 = profiles.iter().map(|p| p.idle_frames).sum();
    // Median idle footprint sets the size-aware budget so a typical
    // container's TTL matches the fixed policy; clamp keeps outliers
    // within 8x either way.
    let mut idles: Vec<u64> = profiles.iter().map(|p| p.idle_frames).collect();
    idles.sort_unstable();
    let median_idle = idles[idles.len() / 2].max(1);
    let max_cold = profiles.iter().map(|p| p.cold_cycles).max().unwrap_or(1);
    Knobs {
        fixed_ttl,
        size_aware: KeepAlive::SizeAware {
            budget_frame_cycles: fixed_ttl * median_idle,
            min_cycles: (fixed_ttl / 8).max(1),
            max_cycles: fixed_ttl * 8,
        },
        // Half the fully-scaled fleet's worst-case warm pool: pressure
        // the fleet actually reaches under bursts, far above any single
        // node's floor.
        watermark: (params.max_nodes as u64 * idle_sum) / 2,
        autoscaler: AutoscalerConfig {
            interval_cycles: (mean_service * 4.0) as u64,
            target_load_pct: 70,
            min_nodes: params.min_nodes,
            max_nodes: params.max_nodes,
            spinup_cycles: 8 * max_cold,
        },
        pm_ttl: fixed_ttl * 8,
    }
}

fn cell_config(params: &RegionParams, k: &Knobs, bundle: &Bundle) -> ClusterConfig {
    let autoscaled = bundle.label != "fixed-fleet";
    ClusterConfig {
        nodes: params.nodes,
        queue_capacity: params.queue_capacity,
        cores_per_node: 1,
        placement: Placement::LeastLoaded,
        keep_alive: match bundle.label {
            "kiss" => k.size_aware,
            "park-to-pm" => KeepAlive::ParkToPM {
                ttl_cycles: k.pm_ttl,
            },
            _ => KeepAlive::Fixed(k.fixed_ttl),
        },
        cold_start: if matches!(bundle.label, "fixed-fleet" | "autoscale") {
            ColdStart::Boot
        } else {
            ColdStart::Snapshot
        },
        reclamation: if bundle.reclaims {
            Reclamation::Squeeze {
                watermark_frames: k.watermark,
            }
        } else {
            Reclamation::None
        },
        autoscaler: if autoscaled {
            Autoscaler::TargetUtilization(k.autoscaler)
        } else {
            Autoscaler::None
        },
        record_timeline: false,
    }
}

fn summarize(
    trace: &str,
    policy: &str,
    config: &str,
    reclaims: bool,
    result: &memento_cluster::ClusterResult,
) -> RegionRow {
    let (p50, p95, p99) = result.latency_percentiles();
    RegionRow {
        trace: trace.to_owned(),
        policy: policy.to_owned(),
        config: config.to_owned(),
        reclaims,
        p50_us: p50 as f64 / cycles_per_us(),
        p95_us: p95 as f64 / cycles_per_us(),
        p99_us: p99 as f64 / cycles_per_us(),
        peak_mb: result.peak_fleet_frames as f64 * 4096.0 / (1024.0 * 1024.0),
        completed: result.completed,
        rejected: result.rejected,
        restores: result.restores,
        squeezed: result.squeezed,
        pm_parks: result.pm_parks,
        pm_restores: result.pm_restores,
        peak_nodes: result.peak_active_nodes,
        clean: result.is_clean(),
        on_front: false,
    }
}

/// Runs the region matrix over the workloads `names` at the context's
/// scale, on its worker pool.
pub fn run(
    ctx: &mut EvalContext,
    names: &[&str],
    params: RegionParams,
) -> Result<RegionReport, ExperimentError> {
    let specs = ctx.try_workloads(names)?;
    let workloads: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let mix = WorkloadMix::uniform(specs.clone())?;

    // Per-(config, workload) profiles from the context's calibration memo:
    // the cluster study over the same mix has usually filled it already.
    let profiles = ctx.profiles(&[ConfigKind::Baseline, ConfigKind::Memento], &specs);
    let (base_profiles, mem_profiles) = profiles.split_at(specs.len());
    let tables = [
        (
            "baseline",
            knobs(&params, base_profiles),
            ProfileTable::from_profiles(base_profiles.to_vec()),
        ),
        (
            "memento",
            knobs(&params, mem_profiles),
            ProfileTable::from_profiles(mem_profiles.to_vec()),
        ),
    ];

    // Offered load is 0.9x the *baseline* fixed fleet's warm capacity —
    // the same scale the cluster study uses — so the diurnal trough
    // breathes easily and the flash bursts genuinely overload.
    let mean_service = mean_warm_cycles(base_profiles);
    let arrival = ArrivalConfig {
        seed: params.seed,
        count: params.invocations,
        mean_interarrival_cycles: mean_service / (params.nodes as f64 * 0.9),
    };
    // The bursty trace: flash crowds over a day curve — the synthetic
    // triangle-wave diurnal by default, or the checked-in Azure-style
    // hourly table when `empirical_trace` is set.
    let day_cycles = (mean_service * 20_000.0) as u64;
    let period_cycles = (mean_service * 2_000.0) as u64;
    let burst_cycles = (mean_service * 200.0) as u64;
    let (bursty_label, bursty): (&str, Box<dyn ArrivalTrace>) = if params.empirical_trace {
        (
            "azure",
            Box::new(FlashCrowd {
                base: EmpiricalTrace::azure_day(day_cycles),
                period_cycles,
                burst_cycles,
                multiplier: 3,
            }),
        )
    } else {
        (
            "flash",
            Box::new(FlashCrowd {
                base: DiurnalTrace {
                    day_cycles,
                    trough_ppm: 250_000,
                    peak_ppm: 1_000_000,
                },
                period_cycles,
                burst_cycles,
                multiplier: 3,
            }),
        )
    };
    let traces: [(&str, &dyn ArrivalTrace); 2] =
        [("uniform", &UniformTrace), (bursty_label, bursty.as_ref())];
    let arrival_sets: Vec<(&str, Vec<Arrival>)> = traces
        .iter()
        .map(|(label, trace)| Ok((*label, generate_trace(&arrival, &mix, *trace)?)))
        .collect::<Result<_, ExperimentError>>()?;

    // One shard per (trace, bundle, config) cell, trace-major so rows
    // land in presentation order.
    let run_bundles = bundles(&params);
    let configs = tables.len();
    let cell_points: Vec<(usize, usize, usize)> = (0..arrival_sets.len())
        .flat_map(|ti| {
            (0..run_bundles.len()).flat_map(move |bi| (0..configs).map(move |ci| (ti, bi, ci)))
        })
        .collect();
    let cell_results = ctx.map(&cell_points, |&(ti, bi, ci)| {
        let (trace_label, arrivals) = &arrival_sets[ti];
        let bundle = run_bundles[bi];
        let (config_label, k, table) = &tables[ci];
        let cfg = cell_config(&params, k, bundle);
        let result = simulate(Engine::Profiled(table.clone()), &cfg, &mix, arrivals)?;
        Ok::<RegionRow, ExperimentError>(summarize(
            trace_label,
            bundle.label,
            config_label,
            bundle.reclaims,
            &result,
        ))
    });
    let mut rows = Vec::with_capacity(cell_results.len());
    for r in cell_results {
        rows.push(r?);
    }

    // Pareto fronts per (trace, config) group, minimizing (p99, peak).
    for (trace_label, _) in &arrival_sets {
        for (config_label, _, _) in &tables {
            let idx: Vec<usize> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| r.trace == *trace_label && r.config == *config_label)
                .map(|(i, _)| i)
                .collect();
            let pts: Vec<(f64, f64)> = idx
                .iter()
                .map(|&i| (rows[i].p99_us, rows[i].peak_mb))
                .collect();
            for (&i, on) in idx.iter().zip(pareto_front(&pts)) {
                rows[i].on_front = on;
            }
        }
    }

    // Headline acceptance: a footprint-shedding Memento point (squeeze,
    // KiSS, or park-to-PM) under the bursty trace that no baseline point
    // (any policy) dominates.
    let baseline_flash: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.trace == bursty_label && r.config == "baseline")
        .map(|r| (r.p99_us, r.peak_mb))
        .collect();
    let memento_on_flash_front = rows
        .iter()
        .filter(|r| {
            r.trace == bursty_label
                && r.config == "memento"
                && (r.reclaims || r.policy == PM_BUNDLE.label)
        })
        .any(|r| {
            !baseline_flash
                .iter()
                .any(|&b| dominates(b, (r.p99_us, r.peak_mb)))
        });

    Ok(RegionReport {
        params,
        workloads,
        rows,
        memento_on_flash_front,
    })
}

/// The default region mix: the same idle-heavy slice the cluster study
/// uses, so the two extensions read against each other.
pub const DEFAULT_MIX: [&str; 8] = crate::cluster::DEFAULT_MIX;

impl fmt::Display for RegionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Region policy matrix: {} nodes ({}..{} autoscaled), queue depth {}, \
             {} invocations/cell, mix [{}]",
            self.params.nodes,
            self.params.min_nodes,
            self.params.max_nodes,
            self.params.queue_capacity,
            self.params.invocations,
            self.workloads.join(", ")
        )?;
        writeln!(
            f,
            "(open-loop traces via thinning; latency includes queue wait; \
             * marks the (trace, config) Pareto front on p99 x peak footprint)"
        )?;
        // PM columns appear only when the park-to-pm bundle ran, so the
        // five-bundle table renders byte-identically to its PR 9 form.
        let with_pm = self.rows.iter().any(|r| r.pm_parks > 0);
        let mut headers = vec![
            "trace", "policy", "config", "p50 µs", "p95 µs", "p99 µs", "peak MB", "restores",
            "squeezed",
        ];
        if with_pm {
            headers.push("pm parks");
        }
        headers.extend(["peak nodes", "rejected"]);
        let mut t = Table::new(headers);
        for row in &self.rows {
            let mut cells = vec![
                row.trace.clone(),
                format!("{}{}", row.policy, if row.on_front { " *" } else { "" }),
                row.config.clone(),
                format!("{:.1}", row.p50_us),
                format!("{:.1}", row.p95_us),
                format!("{:.1}", row.p99_us),
                format!("{:.2}", row.peak_mb),
                row.restores.to_string(),
                row.squeezed.to_string(),
            ];
            if with_pm {
                cells.push(row.pm_parks.to_string());
            }
            cells.extend([row.peak_nodes.to_string(), row.rejected.to_string()]);
            t.row(cells);
        }
        write!(f, "{t}")?;
        let bursty = self
            .rows
            .iter()
            .map(|r| r.trace.as_str())
            .find(|t| *t != "uniform")
            .unwrap_or("flash");
        write!(
            f,
            "\nunder the {bursty} trace, a reclaiming memento point {} the baseline Pareto front",
            if self.memento_on_flash_front {
                "sits on or inside"
            } else {
                "is dominated by"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> RegionParams {
        RegionParams {
            invocations: 12_000,
            ..RegionParams::default()
        }
    }

    fn quick_report() -> RegionReport {
        let mut ctx = EvalContext::scaled(16).with_jobs(2);
        run(&mut ctx, &DEFAULT_MIX, quick_params()).expect("known workloads")
    }

    #[test]
    fn pareto_front_marks_exactly_the_non_dominated() {
        let pts = [(1.0, 9.0), (2.0, 2.0), (3.0, 3.0), (9.0, 1.0), (2.0, 2.0)];
        assert_eq!(
            pareto_front(&pts),
            vec![true, true, false, true, true],
            "duplicates of a front point stay on the front"
        );
        assert!(dominates((1.0, 1.0), (1.0, 2.0)));
        assert!(
            !dominates((1.0, 1.0), (1.0, 1.0)),
            "equal points never dominate"
        );
    }

    #[test]
    fn matrix_covers_every_cell_and_audits_clean() {
        let report = quick_report();
        assert_eq!(
            report.rows.len(),
            2 * BUNDLES.len() * 2,
            "2 traces x {} bundles x 2 configs",
            BUNDLES.len()
        );
        for row in &report.rows {
            assert!(
                row.clean,
                "{}/{}/{} audits must pass",
                row.trace, row.policy, row.config
            );
            assert!(
                row.completed > 0,
                "{}/{}/{}",
                row.trace,
                row.policy,
                row.config
            );
            match row.policy {
                ref p if p == "fixed-fleet" || p == "autoscale" => {
                    assert_eq!(row.restores, 0, "boot bundles never restore")
                }
                _ => assert!(row.restores > 0, "snapshot bundles must restore"),
            }
            if !row.reclaims {
                assert_eq!(row.squeezed, 0, "no watermark, no squeezes");
            }
            if row.policy == "fixed-fleet" {
                assert_eq!(row.peak_nodes, report.params.nodes as u64);
            }
        }
        // Every (trace, config) group has a non-empty front.
        for trace in ["uniform", "flash"] {
            for config in ["baseline", "memento"] {
                assert!(
                    report
                        .rows
                        .iter()
                        .any(|r| r.trace == trace && r.config == config && r.on_front),
                    "{trace}/{config} front must be non-empty"
                );
            }
        }
    }

    #[test]
    fn memento_reclaimer_reaches_the_flash_pareto_front() {
        // The acceptance headline at test scale: under the bursty trace
        // some reclaiming Memento bundle must be undominated by every
        // baseline policy — the parked-container squeeze path holds
        // fewer frames at comparable tail latency.
        let report = quick_report();
        assert!(
            report.memento_on_flash_front,
            "a reclaiming memento point must reach the baseline front:\n{report}"
        );
        assert!(report.to_string().contains("sits on or inside"));
    }

    #[test]
    fn report_is_byte_identical_across_job_counts() {
        // Full feature surface on: the sixth bundle and the empirical
        // trace must shard exactly like the PR 9 matrix.
        let renders: Vec<String> = [1, 3, 7]
            .iter()
            .map(|&jobs| {
                run(
                    &mut EvalContext::scaled(32).with_jobs(jobs),
                    &["aes", "html", "Redis"],
                    RegionParams {
                        invocations: 6_000,
                        park_to_pm: true,
                        empirical_trace: true,
                        ..RegionParams::default()
                    },
                )
                .expect("known workloads")
                .to_string()
            })
            .collect();
        assert_eq!(renders[0], renders[1], "jobs=1 vs jobs=3");
        assert_eq!(renders[0], renders[2], "jobs=1 vs jobs=7");
    }

    #[test]
    fn park_to_pm_bundle_extends_the_matrix_and_sheds_footprint() {
        let report = run(
            &mut EvalContext::scaled(32).with_jobs(2),
            &["aes", "html", "Redis"],
            RegionParams {
                invocations: 8_000,
                park_to_pm: true,
                ..RegionParams::default()
            },
        )
        .expect("known workloads");
        assert_eq!(
            report.rows.len(),
            2 * (BUNDLES.len() + 1) * 2,
            "2 traces x 6 bundles x 2 configs"
        );
        let rendered = report.to_string();
        assert!(
            rendered.contains("pm parks"),
            "PM column appears: {rendered}"
        );
        for row in report.rows.iter().filter(|r| r.policy == "park-to-pm") {
            assert!(row.clean, "{}/{} audits must pass", row.trace, row.config);
            assert!(row.pm_parks > 0, "{}/{} must park", row.trace, row.config);
            assert!(
                row.pm_restores > 0,
                "{}/{} must serve warm hits from PM",
                row.trace,
                row.config
            );
            assert_eq!(row.squeezed, 0, "parking leaves nothing to squeeze");
            assert!(row.restores > 0, "cold paths still snapshot-restore");
        }
        // Under the steady trace — where the peak is set by the warm pool,
        // not by burst-concurrent actives — parking the idle pool must
        // beat the keep-warm snapshot bundle on peak footprint.
        for config in ["baseline", "memento"] {
            let peak_of = |policy: &str| {
                report
                    .rows
                    .iter()
                    .find(|r| r.trace == "uniform" && r.config == config && r.policy == policy)
                    .map(|r| r.peak_mb)
                    .expect("cell exists")
            };
            assert!(
                peak_of("park-to-pm") < peak_of("+snapshot"),
                "uniform/{config}: parked fleet must hold fewer frames"
            );
        }
        // With baseline park-to-pm points in play the headline must still
        // hold: some footprint-shedding memento point stays undominated.
        assert!(
            report.memento_on_flash_front,
            "memento must keep its place on the bursty front:\n{report}"
        );
        // No six-bundle row perturbs the original five-bundle numbers:
        // re-running without the flag reproduces the PR 9 table verbatim.
        let five = run(
            &mut EvalContext::scaled(32).with_jobs(2),
            &["aes", "html", "Redis"],
            RegionParams {
                invocations: 8_000,
                ..RegionParams::default()
            },
        )
        .expect("known workloads");
        assert!(!five.to_string().contains("park-to-pm"));
        assert!(!five.to_string().contains("pm parks"));
        for (a, b) in five
            .rows
            .iter()
            .zip(report.rows.iter().filter(|r| r.policy != "park-to-pm"))
        {
            assert_eq!(a.policy, b.policy);
            assert_eq!((a.p99_us, a.peak_mb), (b.p99_us, b.peak_mb));
            assert_eq!(a.completed, b.completed);
        }
    }

    #[test]
    fn empirical_trace_flag_replays_the_azure_day_curve() {
        let report = run(
            &mut EvalContext::scaled(32).with_jobs(2),
            &["aes", "html"],
            RegionParams {
                invocations: 6_000,
                empirical_trace: true,
                ..RegionParams::default()
            },
        )
        .expect("known workloads");
        assert!(
            report.rows.iter().any(|r| r.trace == "azure"),
            "bursty rows must carry the azure label"
        );
        assert!(
            report.rows.iter().all(|r| r.trace != "flash"),
            "the synthetic diurnal base is replaced, not added"
        );
        assert!(report.to_string().contains("under the azure trace"));
        for row in &report.rows {
            assert!(row.clean, "{}/{} audits", row.trace, row.policy);
        }
    }

    #[test]
    fn unknown_workload_is_a_typed_error() {
        let mut ctx = EvalContext::scaled(8).with_jobs(1);
        let err = run(&mut ctx, &["ghost"], quick_params()).expect_err("must fail");
        assert_eq!(err, ExperimentError::UnknownWorkload("ghost".into()));
    }

    #[test]
    fn cluster_and_region_share_one_calibration_per_profile() {
        use crate::cluster::{self, ClusterParams};
        let mut ctx = EvalContext::scaled(32).with_jobs(2);
        let params = ClusterParams {
            invocations: 400,
            ..ClusterParams::default()
        };
        cluster::run(&mut ctx, &cluster::DEFAULT_MIX, params).expect("known workloads");
        assert_eq!(ctx.calibrations(), 2 * DEFAULT_MIX.len());
        let shards = ctx.timing().shards.len();
        let report = run(&mut ctx, &DEFAULT_MIX, quick_params()).expect("known workloads");
        assert_eq!(
            ctx.calibrations(),
            16,
            "region reuses the cluster study's 16 (config, workload) profiles"
        );
        assert_eq!(
            ctx.timing().shards.len() - shards,
            report.rows.len(),
            "region ran its cells and no calibration"
        );
    }
}
