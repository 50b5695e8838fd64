//! Experiment-facing front of the fixed-size worker pool
//! ([`memento_simcore::pool`]): order-preserving parallel map plus the
//! wall-clock instrumentation layered on top.
//!
//! Determinism contract: [`map_ordered`] returns results in input order no
//! matter how many workers run or how the OS schedules them — workers pull
//! work from a shared index and send `(index, result)` back, and results
//! are slotted by index. Combined with the stable plan from
//! [`crate::sharding`], a parallel sweep is byte-identical to a serial one;
//! only the wall-clock (reported via [`RunnerTiming`], outside the result
//! tables) differs.

use memento_obs::MetricsRegistry;
use std::time::{Duration, Instant};

// The pool itself lives in `memento_simcore::pool`, next to the other
// dependency-free simulation primitives; the experiments-facing names are
// re-exported here unchanged.
pub use memento_simcore::pool::{effective_jobs, map_ordered, JOBS_ENV};

/// Timing of one executed shard (one simulation point).
#[derive(Clone, Debug)]
pub struct ShardTiming {
    /// Human-readable shard key (`workload/config`).
    pub key: String,
    /// Wall-clock the shard's worker spent on it.
    pub wall: Duration,
    /// Simulated cycles the shard produced.
    pub sim_cycles: u64,
}

/// Timing summary of a parallel sweep. Reported *next to* — never inside —
/// the deterministic result tables, since wall-clock varies run to run.
#[derive(Clone, Debug, Default)]
pub struct RunnerTiming {
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall-clock of the sweep (includes scheduling).
    pub wall: Duration,
    /// Per-shard timings, in plan order.
    pub shards: Vec<ShardTiming>,
}

impl RunnerTiming {
    /// Merges another sweep's timing into this harness-level total. The
    /// largest jobs value wins the label; walls and shards accumulate.
    pub fn merge(&mut self, other: &RunnerTiming) {
        self.jobs = self.jobs.max(other.jobs);
        self.wall += other.wall;
        self.shards.extend(other.shards.iter().cloned());
    }

    /// Sum of per-shard walls — the serial-equivalent work content. On an
    /// oversubscribed machine this includes time shards spent descheduled,
    /// so `shard_time / wall` measures *concurrency*, not core speedup.
    pub fn shard_time(&self) -> Duration {
        self.shards.iter().map(|s| s.wall).sum()
    }

    /// Simulation points completed per wall-clock second.
    pub fn points_per_sec(&self) -> f64 {
        self.shards.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Total simulated cycles produced per wall-clock second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        let cycles: u64 = self.shards.iter().map(|s| s.sim_cycles).sum();
        cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// The slowest shard, if any ran.
    pub fn slowest(&self) -> Option<&ShardTiming> {
        self.shards.iter().max_by_key(|s| s.wall)
    }
}

impl std::fmt::Display for RunnerTiming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Harness timing — {} shard(s) on {} worker(s)",
            self.shards.len(),
            self.jobs.max(1)
        )?;
        writeln!(f, "wall-clock:     {:.3} s", self.wall.as_secs_f64())?;
        writeln!(
            f,
            "shard time:     {:.3} s ({:.2}x concurrency)",
            self.shard_time().as_secs_f64(),
            self.shard_time().as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
        )?;
        writeln!(f, "points/sec:     {:.2}", self.points_per_sec())?;
        writeln!(f, "sim cycles/sec: {:.3e}", self.sim_cycles_per_sec())?;
        match self.slowest() {
            Some(s) => write!(
                f,
                "slowest shard:  {} ({:.3} s)",
                s.key,
                s.wall.as_secs_f64()
            ),
            None => write!(f, "slowest shard:  n/a"),
        }
    }
}

/// Runs `f` over `items` like [`map_ordered`] while timing each shard and
/// the sweep; `key` labels each shard for the report. The result carries
/// simulated cycles extracted by `cycles`.
pub fn map_timed<T, R, F, K, C>(
    jobs: usize,
    items: &[T],
    f: F,
    key: K,
    cycles: C,
) -> (Vec<R>, RunnerTiming)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    K: Fn(&T) -> String,
    C: Fn(&R) -> u64,
{
    let start = Instant::now();
    let timed = map_ordered(jobs, items, |item| {
        let t0 = Instant::now();
        let r = f(item);
        (r, t0.elapsed())
    });
    let wall = start.elapsed();
    let mut results = Vec::with_capacity(timed.len());
    let mut shards = Vec::with_capacity(timed.len());
    for (item, (r, shard_wall)) in items.iter().zip(timed) {
        shards.push(ShardTiming {
            key: key(item),
            wall: shard_wall,
            sim_cycles: cycles(&r),
        });
        results.push(r);
    }
    (results, RunnerTiming { jobs, wall, shards })
}

/// Folds per-shard metric registries into one harness-level registry, in
/// plan order.
///
/// Shards see different value ranges, so their histograms come back with
/// *different bucket-vector lengths* — in particular the tail shard of an
/// uneven split (item count not divisible by `--jobs`) is shorter than the
/// full shards. The fold delegates to [`MetricsRegistry::merge`], which
/// resizes before adding; an earlier zip-based merge truncated at the
/// shorter bucket vector and silently dropped every high bucket the tail
/// shard had not touched. `merge_metrics_keeps_uneven_tail_shard_buckets`
/// fails on that implementation.
pub fn merge_metrics(shards: &[MetricsRegistry]) -> MetricsRegistry {
    let mut total = MetricsRegistry::default();
    for shard in shards {
        total.merge(shard);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_summary_accounts_all_shards() {
        let items = vec![1u64, 2, 3];
        let (out, timing) = map_timed(2, &items, |x| x * 100, |x| format!("shard-{x}"), |r| *r);
        assert_eq!(out, vec![100, 200, 300]);
        assert_eq!(timing.shards.len(), 3);
        assert_eq!(timing.shards[0].key, "shard-1");
        assert!(timing.points_per_sec() > 0.0);
        assert!(timing.sim_cycles_per_sec() > 0.0);
        let text = timing.to_string();
        assert!(text.contains("Harness timing"));
        assert!(text.contains("points/sec"));
    }

    /// Five events sharded across two workers split 3/2: the tail shard
    /// only ever sees small values, so its histogram bucket vector is
    /// shorter than the main shard's. Every sample — including the main
    /// shard's high buckets — must survive the harness merge regardless of
    /// fold direction (the old zip-based merge dropped them whenever the
    /// event count was not divisible by the job count).
    #[test]
    fn merge_metrics_keeps_uneven_tail_shard_buckets() {
        let values: [u64; 5] = [3, 700, 90_000, 1, 2];
        let shard_stats = |chunk: &[u64]| {
            let mut reg = MetricsRegistry::new();
            for v in chunk {
                reg.observe("walk.latency", *v);
                reg.add("events", 1);
            }
            reg
        };
        // jobs=2 over 5 items: main shard gets 3 events, tail shard 2.
        let shards: Vec<MetricsRegistry> = values.chunks(3).map(shard_stats).collect();
        assert_eq!(shards.len(), 2);
        let main_len = shards[0]
            .hist("walk.latency")
            .expect("main")
            .buckets()
            .len();
        let tail_len = shards[1]
            .hist("walk.latency")
            .expect("tail")
            .buckets()
            .len();
        assert!(tail_len < main_len, "tail shard must be the short one");

        for order in [vec![0usize, 1], vec![1, 0]] {
            let picked: Vec<MetricsRegistry> = order.iter().map(|i| shards[*i].clone()).collect();
            let total = merge_metrics(&picked);
            assert_eq!(total.counter("events"), 5);
            let h = total.hist("walk.latency").expect("merged histogram");
            assert_eq!(h.count(), 5, "no sample may be dropped (order {order:?})");
            assert_eq!(h.sum(), values.iter().sum::<u64>());
            assert_eq!(h.buckets().len(), main_len, "high buckets preserved");
        }
    }
}
