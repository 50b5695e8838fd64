//! Differential tests of the machine's event driver against the loops it
//! replaced, kept here as oracles:
//!
//! - the per-event scheduler loop, which acquires jobs, recounts the
//!   active cores and picks the lowest-clock core before every event
//!   (vs. [`Machine::run_batch`]'s horizon driver);
//! - the serial loop, which starts the run and steps every event on
//!   core 0 (vs. [`Machine::run_trace`]'s one-job batch);
//! - the per-line Touch loop, which takes the full demand path, the region
//!   check and a `locate` for every cache line (vs. span Touches).
//!
//! Seeded batches and cold runs on every design must give the same run
//! statistics, scheduler counters, TLB, walker and memory-system counters,
//! demand-latency histogram, sanitizer report and, when traced, the same
//! trace and metrics.
//!
//! A machine with both device-event consumers on (tracer and sanitizer)
//! must also match, consumer by consumer, the machines with one of them.

use super::*;
use crate::config::SystemConfig;
use crate::WarmContainer;
use memento_cache::MemSystemStats;
use memento_obs::MetricsRegistry;
use memento_vm::tlb::TlbStats;
use memento_vm::walker::WalkerStats;
use memento_workloads::suite;

impl Machine {
    /// The per-line Touch loop [`Machine::touch_span`] replaced: every
    /// line of `[start, end]` takes the full path and locates itself.
    pub(super) fn touch_per_line(
        &mut self,
        run: &mut FunctionRun,
        core: usize,
        start: VirtAddr,
        end: VirtAddr,
        write: bool,
    ) {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let mut line = start.line_base();
        while line <= end {
            let loc = run.mproc.as_ref().and_then(|mp| mp.region().locate(line));
            self.data_access(run, core, line, kind, loc);
            line = line.add(CACHE_LINE_SIZE as u64);
        }
    }

    /// The per-event loop [`Machine::run_batch`] replaced, with the
    /// scheduler's original lowest-clock scan for the next core.
    fn run_scheduled_per_event(
        &mut self,
        specs: &[WorkloadSpec],
        seed: u64,
    ) -> (Vec<RunStats>, SchedStats) {
        let traces = traces_for(specs);
        let traces = traces.iter().map(|t| &**t).collect();
        let mut batch = Batch::new(specs, traces, self.cfg.cores(), seed);
        while !batch.sched.all_done() {
            batch.sched.acquire_jobs();
            self.mem_sys
                .set_active_cores(batch.sched.active_cores().max(1));
            let sched = &batch.sched;
            let core = (0..self.cfg.cores())
                .filter(|&c| sched.current(c).is_some())
                .min_by_key(|&c| sched.clock(c))
                .expect("undone work has a runnable core");
            let job = batch.sched.current(core).expect("running core has a job");
            self.step_job(&mut batch, core, job);
        }
        self.finish_batch(batch)
    }

    /// The serial loop [`Machine::run_trace`] replaced: start the run,
    /// then step every event on core 0. It collects whatever state the
    /// last event left, so `trace` must end with `Exit`.
    fn run_trace_serial(&mut self, spec: &WorkloadSpec, trace: &Trace) -> RunStats {
        let mut run = self.start(spec);
        for event in &trace.events {
            self.step_on(&mut run, event, 0);
        }
        self.collect(&run)
    }
}

/// Everything the two drivers must agree on.
struct Outcome {
    runs: Vec<String>,
    sched: SchedStats,
    tlbs: Vec<(TlbStats, Log2Hist)>,
    walkers: Vec<(WalkerStats, Log2Hist)>,
    mem: MemSystemStats,
    demand_latency: Log2Hist,
    trace: Option<String>,
    metrics: Option<MetricsRegistry>,
    sanitizer: Option<String>,
}

fn scheduled(cfg: &SystemConfig, specs: &[WorkloadSpec], seed: u64, oracle: bool) -> Outcome {
    let mut machine = Machine::new(cfg.clone());
    let (runs, sched) = if oracle {
        machine.per_line_touch = true;
        machine.run_scheduled_per_event(specs, seed)
    } else {
        machine.run_scheduled(specs, seed)
    };
    Outcome {
        sched,
        ..outcome(&machine, &runs)
    }
}

/// A plain cold run of `spec` through the batch driver or, as the
/// `oracle`, through the serial loop.
fn cold(cfg: &SystemConfig, spec: &WorkloadSpec, oracle: bool) -> Outcome {
    let mut machine = Machine::new(cfg.clone());
    let trace = generate(spec);
    let run = if oracle {
        machine.run_trace_serial(spec, &trace)
    } else {
        machine.run_trace(spec, &trace)
    };
    outcome(&machine, &[run])
}

/// The machine's state after `runs`, with no scheduler counters.
fn outcome(machine: &Machine, runs: &[RunStats]) -> Outcome {
    Outcome {
        runs: runs.iter().map(|r| format!("{r:?}")).collect(),
        sched: SchedStats::default(),
        tlbs: machine
            .tlbs
            .iter()
            .map(|t| (t.stats(), t.hit_latency()))
            .collect(),
        walkers: machine
            .walkers
            .iter()
            .map(|w| (w.stats(), w.depth_hist().clone()))
            .collect(),
        mem: machine.mem_sys.stats(),
        demand_latency: machine.mem_sys.demand_latency(),
        trace: machine
            .observability()
            .map(|o| o.tracer().to_json().to_string()),
        metrics: machine.observability().map(|o| o.metrics().clone()),
        sanitizer: machine.sanitizer_report().map(|r| format!("{r:?}")),
    }
}

fn spec(name: &str, instructions: u64) -> WorkloadSpec {
    let mut s = suite::by_name(name).expect("workload exists");
    s.total_instructions = instructions;
    s
}

/// Python with multi-page tensors, C++ media buffers, Go (deferred frees,
/// GC sweeps) and a small-object Python function: spans of one line, of
/// many lines, and across pages, on both allocation paths.
fn batch() -> Vec<WorkloadSpec> {
    vec![
        spec("ir", 120_000),
        spec("CM", 60_000),
        spec("aes-go", 80_000),
        spec("html", 100_000),
    ]
}

fn designs() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("baseline", SystemConfig::baseline()),
        ("memento", SystemConfig::memento()),
        ("iso-storage", SystemConfig::iso_storage()),
        ("ideal-mallacc", SystemConfig::ideal_mallacc()),
        ("sanitized", SystemConfig::memento_sanitized()),
        (
            "sanitized+traced",
            SystemConfig::memento_sanitized().traced_in_memory(),
        ),
        ("traced", SystemConfig::memento().traced_in_memory()),
        (
            "traced-baseline",
            SystemConfig::baseline().traced_in_memory(),
        ),
    ]
}

/// Asserts field by field, so a failure names what diverged.
fn assert_same(new: &Outcome, old: &Outcome, what: &str) {
    assert_eq!(new.sched, old.sched, "{what}: scheduler counters");
    assert_eq!(new.runs.len(), old.runs.len(), "{what}: jobs");
    for (i, (a, b)) in new.runs.iter().zip(&old.runs).enumerate() {
        assert_eq!(a, b, "{what}: job {i} statistics");
    }
    assert_eq!(new.tlbs, old.tlbs, "{what}: TLBs");
    assert_eq!(new.walkers, old.walkers, "{what}: walkers");
    assert_eq!(new.mem, old.mem, "{what}: memory system");
    assert_eq!(
        new.demand_latency, old.demand_latency,
        "{what}: demand latency"
    );
    assert!(new.trace == old.trace, "{what}: traces differ");
    assert_eq!(new.metrics, old.metrics, "{what}: metrics");
    assert_eq!(new.sanitizer, old.sanitizer, "{what}: sanitizer report");
}

#[test]
fn scheduled_batches_match_the_per_event_and_per_line_oracles() {
    let specs = batch();
    let long_touch = |s: &WorkloadSpec| {
        generate(s)
            .events
            .iter()
            .any(|e| matches!(e, Event::Touch { len, .. } if *len as usize > 2 * PAGE_SIZE))
    };
    assert!(specs.iter().any(long_touch), "some span crosses pages");
    for (name, design) in designs() {
        for cores in 1..=3 {
            let cfg = design.clone().with_cores(cores);
            let seed = 0x5eed ^ (cores as u64) << 8;
            let new = scheduled(&cfg, &specs, seed, false);
            let old = scheduled(&cfg, &specs, seed, true);
            assert_same(&new, &old, &format!("{name} on {cores} cores"));
            assert!(new.trace.is_some() == name.contains("traced"));
            assert!(new.sanitizer.is_some() == name.starts_with("sanitized"));
        }
    }
}

#[test]
fn cold_runs_match_the_serial_oracle() {
    // One job on a multi-core machine still runs on core 0 alone, so
    // every contention mechanism stays inert there too.
    for (name, design) in designs() {
        for cores in [1, 2] {
            let cfg = design.clone().with_cores(cores);
            for spec in batch() {
                let new = cold(&cfg, &spec, false);
                let old = cold(&cfg, &spec, true);
                assert_same(
                    &new,
                    &old,
                    &format!("{name}, {} on {cores} cores", spec.name),
                );
            }
        }
    }
}

#[test]
fn warm_invocations_match_the_per_line_oracle() {
    // The serial and warm entry points step through the same Touch path;
    // `run_invocations` also frees leftovers from the object table at
    // every invocation boundary.
    for (name, cfg) in designs() {
        for spec in [spec("ir", 60_000), spec("aes-go", 60_000)] {
            let run = |oracle: bool| {
                let mut machine = Machine::new(cfg.clone());
                machine.per_line_touch = oracle;
                let warm = machine.run_invocations(&spec, 3);
                let mut out: Vec<String> =
                    warm.invocations.iter().map(|r| format!("{r:?}")).collect();
                out.push(format!("{:?}", warm.steady));
                out.push(format!("{:?}", machine.mem_sys.stats()));
                out.push(format!("{:?}", machine.mem_sys.demand_latency()));
                out
            };
            assert_eq!(run(false), run(true), "{name}: {}", spec.name);
        }
    }
}

/// Warm runs under `cfg`: three invocations of html, bfs-go and Redis,
/// then an html container taken through a keep-alive park and a
/// park-to-PM round trip before its next invocation.
fn warm_outcomes(cfg: &SystemConfig) -> Vec<Outcome> {
    let mut out = Vec::new();
    for name in ["html", "bfs-go", "Redis"] {
        let mut machine = Machine::new(cfg.clone());
        let warm = machine.run_invocations(&spec(name, 60_000), 3);
        let mut runs = warm.invocations;
        runs.push(warm.steady);
        out.push(outcome(&machine, &runs));
    }
    let (mut container, cold) = WarmContainer::cold_start(cfg.clone(), &spec("html", 60_000));
    let shed = container.park();
    let persist = container.park_to_pm(7);
    let restore = container.restore_from_pm();
    let warm = container.invoke();
    let mut last = outcome(container.machine(), &[cold, warm]);
    last.runs
        .push(format!("shed {shed}, persist {persist}, restore {restore}"));
    out.push(last);
    out
}

#[test]
fn sanitized_traced_machine_matches_each_consumer_alone() {
    // Device events are the one drain with two consumers. With both on,
    // the tracer and the sanitizer each see what they see alone, and
    // neither changes what the machine computes.
    let plain = warm_outcomes(&SystemConfig::memento());
    let traced = warm_outcomes(&SystemConfig::memento().traced_in_memory());
    let sanitized = warm_outcomes(&SystemConfig::memento_sanitized());
    let both = warm_outcomes(&SystemConfig::memento_sanitized().traced_in_memory());
    for (i, b) in both.iter().enumerate() {
        assert_eq!(b.runs, plain[i].runs, "case {i}: statistics");
        assert_eq!(b.mem, plain[i].mem, "case {i}: memory system");
        assert!(b.trace.is_some(), "case {i}: traced");
        assert!(b.trace == traced[i].trace, "case {i}: traces differ");
        assert_eq!(b.metrics, traced[i].metrics, "case {i}: metrics");
        assert!(b.sanitizer.is_some(), "case {i}: sanitized");
        assert_eq!(b.sanitizer, sanitized[i].sanitizer, "case {i}: sanitizer");
    }
    let pm = both
        .last()
        .and_then(|o| o.metrics.as_ref())
        .expect("traced");
    assert_eq!(
        pm.counter("device.pm_parks"),
        1,
        "the park reached the tracer"
    );
    assert_eq!(pm.counter("device.pm_restores"), 1);
}
