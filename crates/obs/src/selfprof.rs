//! Self-profiling of the *simulator's own* hot loops, in wall-clock time.
//!
//! Everything else in this crate measures the simulated machine on the
//! simulated clock. This module points the instrumentation at ourselves:
//! how much real time do the cluster event loop and its drain take? The
//! repo benchmark (`perfbench`) enables it around a traced run and
//! reports per-span totals as `selfprof.*` rows, so a perf regression
//! names the hot loop that regressed instead of just the end-to-end wall
//! time.
//!
//! # Determinism
//!
//! Wall-clock reads are banned in simulator code because they leak into
//! result tables. Self-profiling is the sanctioned exception, kept safe by
//! construction rather than by discipline:
//!
//! - **Off by default, globally.** Until [`enable`] is called, [`span`]
//!   returns a no-op guard after one relaxed atomic load — no `Instant`
//!   is ever read, so ordinary runs stay lint-clean in behaviour as well
//!   as in text.
//! - **Write-only with respect to the simulation.** Spans accumulate into
//!   a process-global table that nothing in any simulator crate reads
//!   back; results can't depend on timing because timing is unobservable
//!   from inside the run.
//! - **Reported next to, never inside, result tables** — the same rule
//!   the experiments runner follows ([`take_report`] is called by the
//!   harness after the deterministic output is complete).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
// Wall-clock reads are sanctioned per call site below (each carries its
// own waiver): self-profiling measures the simulator itself; it is
// disabled by default and its output never enters result tables.
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn table() -> &'static Mutex<BTreeMap<String, SpanStats>> {
    static TABLE: OnceLock<Mutex<BTreeMap<String, SpanStats>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Accumulated wall-clock statistics for one named span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Times the span was entered.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub total_ns: u128,
}

/// Turns self-profiling on process-wide. Call from a harness, never from
/// simulator code.
pub fn enable() {
    // Relaxed: a standalone flag, no data is published with it.
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns self-profiling off again (guards already open still record).
pub fn disable() {
    // Relaxed: a standalone flag, no data is published with it.
    ENABLED.store(false, Ordering::Relaxed);
}

/// True when spans are currently being recorded.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a named span. The returned guard records elapsed wall time into
/// the global table when dropped; when profiling is disabled this is one
/// atomic load and no clock read.
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "the self-profiler times the host; it is off unless a harness enables it"
)]
pub fn span(name: &'static str) -> SpanGuard {
    if ENABLED.load(Ordering::Relaxed) {
        SpanGuard {
            name,
            started: Some(Instant::now()),
        }
    } else {
        SpanGuard {
            name,
            started: None,
        }
    }
}

/// Drop guard for one [`span`] entry.
#[must_use = "a span guard records on drop; binding it to _ ends it immediately"]
pub struct SpanGuard {
    name: &'static str,
    started: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        let elapsed = started.elapsed().as_nanos();
        let mut t = table().lock().expect("selfprof table lock");
        let stats = t.entry(self.name.to_owned()).or_default();
        stats.calls += 1;
        stats.total_ns += elapsed;
    }
}

/// Drains and returns the accumulated span table (name → stats), leaving
/// it empty for the next measurement window.
pub fn take_report() -> BTreeMap<String, SpanStats> {
    let mut t = table().lock().expect("selfprof table lock");
    std::mem::take(&mut *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The table and the enabled flag are process-global, so the tests
    // below run as one serialized scenario to avoid cross-test bleed.
    #[test]
    fn disabled_spans_record_nothing_and_enabled_spans_accumulate() {
        disable();
        let _ = take_report();
        {
            let _g = span("selfprof.test.off");
        }
        assert!(
            take_report().is_empty(),
            "disabled spans must not touch the table"
        );

        enable();
        assert!(is_enabled());
        {
            let _g = span("selfprof.test.on");
            let _h = span("selfprof.test.on"); // nested same-name call
        }
        {
            let _g = span("selfprof.test.other");
        }
        disable();
        let report = take_report();
        assert_eq!(report["selfprof.test.on"].calls, 2);
        assert_eq!(report["selfprof.test.other"].calls, 1);
        // take_report drained the table.
        assert!(take_report().is_empty());
    }
}
