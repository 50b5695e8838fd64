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

use std::time::{Duration, Instant};

// The pool itself lives in `memento_simcore::pool`, next to the other
// dependency-free simulation primitives; the experiments-facing names are
// re-exported here unchanged.
pub use memento_simcore::pool::{effective_jobs, map_ordered, JOBS_ENV};

/// Wall-clock of one study or one shard (one work item of a sweep).
#[derive(Clone, Debug)]
pub struct Timed {
    /// Study label (`Fig. 8`, `region`) or shard label (`workload/config`,
    /// `study[index]`).
    pub label: String,
    /// Wall-clock spent on it (a study's includes its sweeps).
    pub wall: Duration,
}

/// Timing of an evaluation. Reported *next to* — never inside — the
/// deterministic result tables, since wall-clock varies run to run.
#[derive(Clone, Debug, Default)]
pub struct RunnerTiming {
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall-clock: the sum of the top-level studies.
    pub wall: Duration,
    /// Per-shard timings, in execution order.
    pub shards: Vec<Timed>,
    /// Top-level studies, in execution order.
    pub studies: Vec<Timed>,
}

impl RunnerTiming {
    /// Sum of per-shard walls — the serial-equivalent work content. On an
    /// oversubscribed machine this includes time shards spent descheduled,
    /// so `shard_time / wall` measures *concurrency*, not core speedup.
    pub fn shard_time(&self) -> Duration {
        self.shards.iter().map(|s| s.wall).sum()
    }

    /// Shards completed per wall-clock second.
    pub fn points_per_sec(&self) -> f64 {
        self.shards.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

impl std::fmt::Display for RunnerTiming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let wall = self.wall.as_secs_f64().max(1e-9);
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
            self.shard_time().as_secs_f64() / wall
        )?;
        write!(f, "points/sec:     {:.2}", self.points_per_sec())?;
        let mut studies: Vec<&Timed> = self.studies.iter().collect();
        studies.sort_by_key(|s| std::cmp::Reverse(s.wall));
        if !studies.is_empty() {
            write!(f, "\nstudies by wall-clock:")?;
        }
        for s in studies {
            write!(
                f,
                "\n  {:<28} {:>8.3} s  {:>5.1}%",
                s.label,
                s.wall.as_secs_f64(),
                100.0 * s.wall.as_secs_f64() / wall
            )?;
        }
        let mut slowest: Vec<&Timed> = self.shards.iter().collect();
        slowest.sort_by_key(|s| std::cmp::Reverse(s.wall));
        if !slowest.is_empty() {
            write!(f, "\ntop shards by wall-clock:")?;
        }
        for s in slowest.iter().take(5) {
            write!(f, "\n  {:<28} {:>8.3} s", s.label, s.wall.as_secs_f64())?;
        }
        Ok(())
    }
}

/// Runs `f`, pairing its result with the wall-clock it took.
#[expect(
    clippy::disallowed_methods,
    reason = "the harness timer; host time is reported apart from the tables"
)]
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Runs `f` over `items` like [`map_ordered`], pairing each result with
/// the wall-clock its worker spent on it.
pub fn map_timed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<(R, Duration)>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_ordered(jobs, items, |item| timed(|| f(item)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_summary_accounts_all_shards() {
        let items = vec![1u64, 2, 3];
        let timed = map_timed(2, &items, |x| x * 100);
        let out: Vec<u64> = timed.iter().map(|(r, _)| *r).collect();
        assert_eq!(out, vec![100, 200, 300]);
        let timing = RunnerTiming {
            jobs: 2,
            wall: Duration::from_millis(10),
            shards: items
                .iter()
                .zip(&timed)
                .map(|(x, (_, wall))| Timed {
                    label: format!("shard-{x}"),
                    wall: *wall,
                })
                .collect(),
            studies: vec![Timed {
                label: "study".into(),
                wall: Duration::from_millis(10),
            }],
        };
        assert_eq!(timing.shards.len(), 3);
        assert!(timing.points_per_sec() > 0.0);
        let text = timing.to_string();
        assert!(text.contains("Harness timing"));
        assert!(text.contains("points/sec"));
        assert!(text.contains("study") && text.contains("100.0%"), "{text}");
        assert!(text.contains("shard-1"));
    }
}
