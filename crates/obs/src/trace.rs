//! Cycle-attributed span tracing with Chrome/Perfetto `trace_event` export.
//!
//! The tracer keeps one simulated clock per core. Every *charge span*
//! advances its core's clock by exactly the cycles charged to the run's
//! [`memento_simcore::cycles::CycleAccount`], so the trace reconciles with
//! the reported cycle totals by construction. *Phase spans* (`begin`/`end`)
//! overlay coarse scopes (e.g. `gc`) without advancing the clock; they nest
//! above the charge spans in the Perfetto flame view.
//!
//! Time unit: the exported `ts`/`dur` fields are **simulated cycles**, not
//! microseconds — Perfetto will label them "µs", so read 1 µs as 1 cycle
//! (at the simulated 3 GHz, 3000 displayed µs = 1 real µs).

use memento_simcore::cycles::Cycles;
use memento_simcore::json::Value;
use std::collections::BTreeMap;

/// A completed charge span (leaf attribution; clock-advancing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ChargeSpan {
    name: &'static str,
    core: usize,
    start: u64,
    dur: u64,
}

/// A completed phase span (scoped overlay; non-advancing).
#[derive(Clone, Debug, PartialEq, Eq)]
struct PhaseSpan {
    name: String,
    core: usize,
    start: u64,
    dur: u64,
}

/// A still-open phase span.
#[derive(Clone, Debug, PartialEq, Eq)]
struct OpenSpan {
    name: String,
    core: usize,
    start: u64,
}

/// A Perfetto counter-track sample (`ph: "C"`).
#[derive(Clone, Debug, PartialEq, Eq)]
struct CounterSample {
    name: &'static str,
    core: usize,
    at: u64,
    value: u64,
}

/// Records spans against the simulated clock and exports Perfetto JSON.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    clocks: Vec<u64>,
    charges: Vec<ChargeSpan>,
    /// Index of the last charge span per core (for coalescing).
    last_charge: Vec<Option<usize>>,
    phases: Vec<PhaseSpan>,
    open: Vec<OpenSpan>,
    counters: Vec<CounterSample>,
}

impl Tracer {
    /// A tracer with one track per core.
    pub fn new(cores: usize) -> Self {
        Tracer {
            clocks: vec![0; cores],
            last_charge: vec![None; cores],
            ..Self::default()
        }
    }

    /// The simulated now on `core` (total cycles charged on that track).
    pub fn now(&self, core: usize) -> u64 {
        self.clocks[core]
    }

    /// Records a charge span of `cycles` on `core`, advancing its clock.
    /// Zero-cycle charges are dropped; adjacent same-name spans coalesce
    /// into one (attribution totals are unchanged either way).
    pub fn span(&mut self, core: usize, name: &'static str, cycles: Cycles) {
        let dur = cycles.raw();
        if dur == 0 {
            return;
        }
        let start = self.clocks[core];
        self.clocks[core] = start + dur;
        if let Some(i) = self.last_charge[core] {
            let prev = &mut self.charges[i];
            if prev.name == name && prev.start + prev.dur == start {
                prev.dur += dur;
                return;
            }
        }
        self.last_charge[core] = Some(self.charges.len());
        self.charges.push(ChargeSpan {
            name,
            core,
            start,
            dur,
        });
    }

    /// Opens a scoped phase span on `core` at the current simulated time.
    pub fn begin(&mut self, core: usize, name: impl Into<String>) {
        self.open.push(OpenSpan {
            name: name.into(),
            core,
            start: self.clocks[core],
        });
    }

    /// Closes the innermost open phase span on `core`.
    ///
    /// # Panics
    ///
    /// Panics when no phase span is open on `core` (unbalanced `end`).
    pub fn end(&mut self, core: usize) {
        let idx = self
            .open
            .iter()
            .rposition(|s| s.core == core)
            // lint:allow(panic-in-lib): unmatched end() is an instrumentation bug worth a loud stop
            .unwrap_or_else(|| panic!("tracer: end() on core {core} with no open span"));
        let span = self.open.remove(idx);
        self.phases.push(PhaseSpan {
            dur: self.clocks[core] - span.start,
            name: span.name,
            core: span.core,
            start: span.start,
        });
    }

    /// Records a counter-track sample at the current simulated time.
    pub fn sample(&mut self, core: usize, name: &'static str, value: u64) {
        self.counters.push(CounterSample {
            name,
            core,
            at: self.clocks[core],
            value,
        });
    }

    /// Names of the currently open phase spans, outermost first.
    pub fn open_spans(&self) -> Vec<String> {
        self.open.iter().map(|s| s.name.clone()).collect()
    }

    /// Asserts that every phase span was closed.
    ///
    /// # Panics
    ///
    /// Panics with the open-span stack in the message when a span was left
    /// open at run end — a dangling span means some phase's cycles would be
    /// silently unattributed.
    pub fn assert_closed(&self) {
        if !self.open.is_empty() {
            // lint:allow(panic-in-lib): documented contract check; a dangling span hides cycles
            panic!(
                "tracer: span(s) left open at run end: [{}]",
                self.open_spans().join(" > ")
            );
        }
    }

    /// Total cycles recorded in charge spans per label — reconciles exactly
    /// with the cycle account the instrumented machine maintains.
    pub fn charge_totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for c in &self.charges {
            *totals.entry(c.name).or_insert(0) += c.dur;
        }
        totals
    }

    /// Total cycles recorded across all charge spans and cores.
    pub fn total_charged(&self) -> u64 {
        self.charges.iter().map(|c| c.dur).sum()
    }

    /// A flame-style breakdown table: per-label cycle totals with share
    /// bars, sorted by descending total.
    pub fn flame_table(&self) -> String {
        use std::fmt::Write as _;
        let totals = self.charge_totals();
        let all: u64 = totals.values().sum::<u64>().max(1);
        let mut rows: Vec<(&str, u64)> = totals.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let mut out = String::new();
        let _ = writeln!(out, "{:<12} {:>14} {:>7}", "phase", "cycles", "share");
        for (name, cycles) in rows {
            let share = cycles as f64 / all as f64;
            let bar = "#".repeat((share * 40.0).ceil() as usize);
            let _ = writeln!(
                out,
                "{name:<12} {cycles:>14} {:>6.1}%  {bar}",
                share * 100.0
            );
        }
        out
    }

    /// Exports the trace as a Chrome/Perfetto `trace_event` JSON document
    /// (object form: `{"traceEvents": [...]}`), loadable in
    /// `ui.perfetto.dev`. One thread track per core; `ts`/`dur` are
    /// simulated cycles.
    pub fn to_json(&self) -> Value {
        let mut events: Vec<Value> = Vec::new();
        let meta = |name: &str, tid: usize, label: String| {
            let mut e = Value::object();
            let mut args = Value::object();
            args.set("name", label.as_str());
            e.set("ph", "M")
                .set("name", name)
                .set("pid", 0.0)
                .set("tid", tid as f64)
                .set("args", args);
            e
        };
        events.push(meta("process_name", 0, "memento-sim".to_owned()));
        for core in 0..self.clocks.len() {
            events.push(meta("thread_name", core, format!("core {core}")));
        }
        for p in &self.phases {
            let mut e = Value::object();
            e.set("ph", "X")
                .set("cat", "phase")
                .set("name", p.name.as_str())
                .set("pid", 0.0)
                .set("tid", p.core as f64)
                .set("ts", p.start as f64)
                .set("dur", p.dur as f64);
            events.push(e);
        }
        for c in &self.charges {
            let mut e = Value::object();
            e.set("ph", "X")
                .set("cat", "charge")
                .set("name", c.name)
                .set("pid", 0.0)
                .set("tid", c.core as f64)
                .set("ts", c.start as f64)
                .set("dur", c.dur as f64);
            events.push(e);
        }
        for s in &self.counters {
            let mut args = Value::object();
            args.set("value", s.value as f64);
            let mut e = Value::object();
            e.set("ph", "C")
                .set("name", s.name)
                .set("pid", 0.0)
                .set("tid", s.core as f64)
                .set("ts", s.at as f64)
                .set("args", args);
            events.push(e);
        }
        let mut doc = Value::object();
        doc.set("traceEvents", Value::Array(events))
            .set("displayTimeUnit", "ns");
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_advance_the_simulated_clock() {
        let mut t = Tracer::new(2);
        t.span(0, "user", Cycles::new(100));
        t.span(1, "mm", Cycles::new(30));
        t.span(0, "kernel", Cycles::new(50));
        assert_eq!(t.now(0), 150);
        assert_eq!(t.now(1), 30);
        assert_eq!(t.total_charged(), 180);
        let totals = t.charge_totals();
        assert_eq!(totals.get("user"), Some(&100));
        assert_eq!(totals.get("kernel"), Some(&50));
        assert_eq!(totals.get("mm"), Some(&30));
    }

    #[test]
    fn adjacent_same_label_spans_coalesce() {
        let mut t = Tracer::new(1);
        for _ in 0..1000 {
            t.span(0, "user", Cycles::new(3));
        }
        assert_eq!(t.charges.len(), 1, "contiguous same-label spans merge");
        assert_eq!(t.total_charged(), 3000);
        t.span(0, "mm", Cycles::new(1));
        t.span(0, "user", Cycles::new(2));
        assert_eq!(t.charges.len(), 3, "label change breaks the merge run");
        assert_eq!(t.total_charged(), 3003);
    }

    #[test]
    fn zero_cycle_charges_are_dropped() {
        let mut t = Tracer::new(1);
        t.span(0, "walk", Cycles::ZERO);
        assert_eq!(t.now(0), 0);
        assert!(t.charges.is_empty());
    }

    #[test]
    fn phase_spans_nest_and_balance() {
        let mut t = Tracer::new(1);
        t.begin(0, "gc");
        t.span(0, "mm", Cycles::new(40));
        t.begin(0, "sweep");
        t.span(0, "hot_miss", Cycles::new(10));
        t.end(0);
        t.end(0);
        t.assert_closed();
        assert_eq!(t.phases.len(), 2);
        // Inner closed first, covering only its own window.
        assert_eq!(t.phases[0].name, "sweep");
        assert_eq!(t.phases[0].start, 40);
        assert_eq!(t.phases[0].dur, 10);
        assert_eq!(t.phases[1].name, "gc");
        assert_eq!(t.phases[1].dur, 50);
    }

    #[test]
    #[should_panic(expected = "span(s) left open at run end: [gc > sweep]")]
    fn open_span_at_end_panics_with_stack() {
        let mut t = Tracer::new(1);
        t.begin(0, "gc");
        t.begin(0, "sweep");
        t.assert_closed();
    }

    #[test]
    #[should_panic(expected = "no open span")]
    fn unbalanced_end_panics() {
        let mut t = Tracer::new(1);
        t.end(0);
    }

    #[test]
    fn json_is_valid_and_carries_tracks() {
        let mut t = Tracer::new(2);
        t.span(0, "user", Cycles::new(5));
        t.begin(1, "gc");
        t.span(1, "mm", Cycles::new(7));
        t.end(1);
        t.sample(0, "live_bytes", 4096);
        let doc = t.to_json();
        let text = doc.to_pretty();
        let parsed = memento_simcore::json::parse(&text).expect("trace JSON parses");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        // 1 process meta + 2 thread metas + 1 phase + 2 charges... actually
        // 1 charge per core here, 1 counter.
        assert!(events.len() >= 6);
        let phases: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("phase"))
            .collect();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].get("tid").and_then(|v| v.as_u64()), Some(1));
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 1);
    }

    #[test]
    fn flame_table_sorts_by_share() {
        let mut t = Tracer::new(1);
        t.span(0, "user", Cycles::new(900));
        t.span(0, "mm", Cycles::new(100));
        let table = t.flame_table();
        let user_at = table.find("user").expect("user row");
        let mm_at = table.find("mm").expect("mm row");
        assert!(user_at < mm_at, "larger share first:\n{table}");
        assert!(table.contains("90.0%"));
    }
}
