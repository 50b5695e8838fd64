//! Multi-core contention: one machine, a batch of invocations distributed
//! across its cores by the deterministic work-stealing scheduler
//! ([`Machine::run_scheduled`]), all sharing the LLC (fair-share
//! eviction), the DRAM controller (queueing delay), and Memento's
//! memory-controller page allocator; HOTs, TLBs, and page walkers are
//! per-core.
//!
//! The paper evaluates multi-tenancy through time-sharing (§6.6) and
//! argues the multi-core design in §4; this experiment extends the
//! evaluation to true in-machine parallelism and checks that per-function
//! speedups survive cache/bandwidth contention. The batch oversubscribes
//! the cores (about two invocations per core), so the scheduler's steal
//! path runs in the default study, and the seeded victim selection makes
//! the whole table one deterministic point: byte-identical at any `--jobs`
//! and across repeated runs.

use crate::context::EvalContext;
use crate::error::ExperimentError;
use crate::table::{f3, Table};
use memento_system::{stats, Machine, SchedStats, SystemConfig};
use memento_workloads::spec::WorkloadSpec;
use std::fmt;

/// Victim-selection seed for both scheduled trials: fixed so the
/// experiment is one deterministic point, not a distribution.
const SCHED_SEED: u64 = 0x5EED;

/// One workload's contention row.
#[derive(Clone, Debug, PartialEq)]
pub struct MulticoreRow {
    /// Workload name.
    pub name: String,
    /// Memento-over-baseline speedup with the function running alone.
    pub solo: f64,
    /// Memento-over-baseline speedup under scheduled co-location.
    pub colocated: f64,
    /// Contention cost under Memento: co-located cycles over solo cycles
    /// (above 1 when sharing the LLC/DRAM cost this function something;
    /// occasionally just below 1 when a sibling's recycled frames warm
    /// the page pool).
    pub slowdown: f64,
}

/// Result of the contention experiment.
#[derive(Clone, Debug)]
pub struct MulticoreResult {
    /// Cores on each scheduled machine (about half the invocation count,
    /// so the batch oversubscribes the machine).
    pub cores: usize,
    /// Per-workload rows.
    pub rows: Vec<MulticoreRow>,
    /// Geometric mean of co-located speedups.
    pub colocated_avg: f64,
    /// Geometric mean of solo speedups for the same set.
    pub solo_avg: f64,
    /// Geometric mean of the per-function contention slowdowns.
    pub slowdown_avg: f64,
    /// Work-stealing counters from the Memento trial.
    pub sched: SchedStats,
    /// Memory-controller queueing cycles the Memento trial paid.
    pub dram_queue_cycles: u64,
}

/// The default four-function contention mix.
pub const DEFAULT_MIX: [&str; 4] = ["html", "US", "bfs-go", "jl"];

/// Work-stealing-schedules `names` over half as many cores on one shared
/// machine, under baseline and Memento, and compares per-function speedups
/// against their solo runs. The study builds whole machines rather than
/// reading the memo, so it runs at half the context's size
/// ([`crate::context::HALF_SIZE_DIVISOR`]); simulations fan out over the
/// context's worker pool. Unknown names fail with
/// [`ExperimentError::UnknownWorkload`] before any simulation starts.
pub fn run(ctx: &mut EvalContext, names: &[&str]) -> Result<MulticoreResult, ExperimentError> {
    let specs: Vec<WorkloadSpec> = ctx.try_half_size_workloads(names)?;
    // Half as many cores as invocations (floor two once there are two):
    // the batch oversubscribes the machine, so the steal path genuinely
    // runs, and at least two invocations contend whenever two exist.
    let cores = if specs.len() < 2 {
        1
    } else {
        specs.len().div_ceil(2).max(2)
    };

    // Each scheduled trial is one whole-machine simulation, so the two
    // trials are the two big shards; the per-spec solo runs fan out beside
    // them. Determinism across `jobs` is structural: every shard is a
    // sequential simulation, and the steal interleaving is fixed by
    // `SCHED_SEED`, not by worker threads.
    let trial_cfgs = [
        SystemConfig::baseline().with_cores(cores),
        SystemConfig::memento().with_cores(cores),
    ];
    let mut trials = ctx.map(&trial_cfgs, |cfg| {
        let mut machine = Machine::new(cfg.clone());
        let (runs, sched) = machine.run_scheduled(&specs, SCHED_SEED);
        (runs, sched, machine.mem_stats().dram_queue_cycles)
    });
    let (mem_runs, sched, dram_queue_cycles) = trials.pop().expect("memento trial");
    let (base_runs, _, _) = trials.pop().expect("baseline trial");

    let solo_points: Vec<(SystemConfig, WorkloadSpec)> = specs
        .iter()
        .flat_map(|spec| {
            [SystemConfig::baseline(), SystemConfig::memento()].map(|cfg| (cfg, spec.clone()))
        })
        .collect();
    let solo = ctx.map(&solo_points, |(cfg, spec)| {
        Machine::new(cfg.clone()).run(spec)
    });

    let mut rows = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let (solo_base, solo_mem) = (&solo[2 * i], &solo[2 * i + 1]);
        rows.push(MulticoreRow {
            name: spec.name.clone(),
            solo: stats::speedup(solo_base, solo_mem),
            // Per-function cycle ledgers are per-run even under sharing.
            colocated: base_runs[i].total_cycles().raw() as f64
                / mem_runs[i].total_cycles().raw().max(1) as f64,
            slowdown: mem_runs[i].total_cycles().raw() as f64
                / solo_mem.total_cycles().raw().max(1) as f64,
        });
    }
    let solo: Vec<f64> = rows.iter().map(|r| r.solo).collect();
    let colo: Vec<f64> = rows.iter().map(|r| r.colocated).collect();
    let slow: Vec<f64> = rows.iter().map(|r| r.slowdown).collect();
    Ok(MulticoreResult {
        cores,
        solo_avg: stats::geomean(&solo),
        colocated_avg: stats::geomean(&colo),
        slowdown_avg: stats::geomean(&slow),
        rows,
        sched,
        dram_queue_cycles,
    })
}

impl fmt::Display for MulticoreResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Multi-core contention ({} invocations work-stealing-scheduled over {} cores, \
             shared LLC/DRAM)",
            self.rows.len(),
            self.cores
        )?;
        let mut t = Table::new(vec!["workload", "solo", "co-located", "slowdown"]);
        for row in &self.rows {
            t.row(vec![
                row.name.clone(),
                f3(row.solo),
                f3(row.colocated),
                f3(row.slowdown),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "geomean: solo {:.3} vs co-located {:.3} (contention slowdown {:.3})",
            self.solo_avg, self.colocated_avg, self.slowdown_avg
        )?;
        let mut c = Table::new(vec!["core", "invocations", "cycles"]);
        for (core, (jobs, cycles)) in self
            .sched
            .per_core_jobs
            .iter()
            .zip(&self.sched.per_core_cycles)
            .enumerate()
        {
            c.row(vec![core.to_string(), jobs.to_string(), cycles.to_string()]);
        }
        writeln!(f, "{c}")?;
        write!(
            f,
            "memento trial: {} steal(s), {} DRAM queueing cycles",
            self.sched.steals, self.dram_queue_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_is_a_typed_error() {
        let err = run(&mut EvalContext::scaled(4), &["aes", "definitely-not-real"])
            .expect_err("must fail");
        assert_eq!(
            err,
            ExperimentError::UnknownWorkload("definitely-not-real".into())
        );
    }

    #[test]
    fn colocation_preserves_wins_under_contention() {
        let result = run(&mut EvalContext::scaled(4), &["aes", "jl"]).expect("known workloads");
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.cores, 2, "two invocations get two contending cores");
        for row in &result.rows {
            assert!(row.solo > 1.0, "{} solo {}", row.name, row.solo);
            assert!(
                row.colocated > 1.0,
                "{} co-located {}",
                row.name,
                row.colocated
            );
            assert!(
                row.slowdown.is_finite() && row.slowdown > 0.0,
                "{} slowdown {}",
                row.name,
                row.slowdown
            );
        }
        assert_eq!(
            result.sched.per_core_jobs.iter().sum::<u64>(),
            2,
            "every invocation ran exactly once"
        );
        assert!(
            result.dram_queue_cycles > 0,
            "two co-resident cores must pay memory-controller queueing"
        );
        assert!(result.to_string().contains("contention"));
    }

    #[test]
    fn oversubscribed_batch_engages_the_scheduler() {
        // Four invocations on two cores: the short pair's core drains its
        // deque and steals from the long pair's backlog.
        let result =
            run(&mut EvalContext::scaled(4), &["aes", "jl", "aes", "jl"]).expect("known workloads");
        assert_eq!(result.cores, 2);
        assert_eq!(result.sched.per_core_jobs.iter().sum::<u64>(), 4);
        assert!(
            result.sched.per_core_cycles.iter().all(|&c| c > 0),
            "no core starves: {:?}",
            result.sched.per_core_cycles
        );
    }
}
