//! The two kinds of run and the result line they print: end-to-end
//! metrics with tracing off, or per-layer metrics from a traced run.

use crate::hostspeed::HostSpeed;
use crate::layers::{self, SHARES};
use crate::probes::{self, median};
use crate::scenario::{self, Inputs, Rep, Setup, Size, Workload, CONFIGS, FLEET_MIX};
use crate::{count, Counts};
use memento_simcore::json::Value;
use std::time::{Duration, Instant};

/// Set-ups a run makes at least; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Host time a run spends on set-ups at least.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Timed repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("inv_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_p50_speedup", "x"),
    ("sim_p99_speedup", "x"),
    ("sim_peak_frames_ratio", "x"),
];

/// Exact counts the traced run reports per config.
const COUNTS: [&str; 22] = [
    "cluster.completed",
    "cluster.cold_starts",
    "cluster.warm_starts",
    "cluster.expired",
    "cluster.restores",
    "cluster.squeezed",
    "cluster.pm_parks",
    "cluster.scale_ups",
    "cluster.rejected",
    "cache.l1d.accesses",
    "cache.llc.misses",
    "cache.dram.lines",
    "cache.dram_queue_cycles",
    "cache.bypassed_fills",
    "vm.tlb.misses",
    "vm.walks",
    "kernel.page_faults",
    "core.hot.alloc_misses",
    "core.obj.allocs",
    "core.page.frames_recycled",
    "softalloc.allocs",
    "system.sched.steals",
];

/// Useful outcomes over attempts: (name, numerator, denominator).
const RATIOS: [(&str, &str, &str); 3] = [
    (
        "cluster.warm_ratio",
        "cluster.warm_starts",
        "cluster.completed",
    ),
    (
        "core.hot.alloc_hit_ratio",
        "core.hot.alloc_hits",
        "core.obj.allocs",
    ),
    (
        "cache.llc.hit_ratio",
        "cache.llc.hits",
        "cache.llc.accesses",
    ),
];

/// Host-cost probes, in report order.
const PROBES: [&str; 16] = [
    "workloads.generate_ns_per_event",
    "cache.l1_hit_ns",
    "cache.llc_miss_ns",
    "cache.shared_llc_miss_ns",
    "vm.tlb_hit_ns",
    "vm.tlb_miss_walk_ns",
    "kernel.demand_fault_ns",
    "kernel.buddy_pair_ns",
    "core.obj_hit_pair_ns",
    "core.obj_miss_alloc_ns",
    "softalloc.py_pair_ns",
    "softalloc.je_pair_ns",
    "softalloc.go_pair_ns",
    "cluster.event_heap_pair_ns",
    "pmem.park_ns",
    "pmem.recover_ns",
];

/// Boundary spans timed from this benchmark's own calls, and the
/// simulator's in-program self-profile spans.
const SPANS: [&str; 6] = [
    "span.calibrate_s",
    "span.arrivals_s",
    "span.simulate_s",
    "span.run_scheduled_s",
    "selfprof.cluster.sim.run_s",
    "selfprof.cluster.sim.finish_s",
];

/// Every per-layer metric and its unit, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = PROBES.iter().map(|p| (p.to_string(), "ns")).collect();
    for w in FLEET_MIX {
        for cfg in CONFIGS {
            v.push((format!("system.cold_start_us.{w}.{cfg}"), "us"));
            v.push((format!("system.invoke_us.{w}.{cfg}"), "us"));
        }
    }
    for name in COUNTS {
        for cfg in CONFIGS {
            v.push((format!("{name}.{cfg}"), "count"));
        }
    }
    for (name, _, _) in RATIOS {
        for cfg in CONFIGS {
            v.push((format!("{name}.{cfg}"), "ratio"));
        }
    }
    v.extend(SHARES.iter().map(|s| (format!("host_share.{s}"), "s")));
    v.extend(SPANS.iter().map(|s| (s.to_string(), "s")));
    v.push(("trace.wall_s".into(), "s"));
    v.push(("trace.overhead_frac".into(), "ratio"));
    v.push(("host.slowdown".into(), "x"));
    v
}

/// One run's result.
pub struct Outcome {
    /// Every check held.
    pub correct: bool,
    /// Simulated invocations submitted.
    pub attempted: u64,
    /// Simulated invocations of runs that errored or failed an audit.
    pub failed: u64,
    /// Metric name → value (units come from the name lists).
    pub metrics: Counts,
    /// The simulated-output digest every repetition agreed on.
    pub digest: u64,
    /// Checks that did not hold.
    pub problems: Vec<String>,
}

impl Outcome {
    fn new(reps: &[&Rep]) -> Outcome {
        let digest = reps.first().map_or(0, |r| r.digest);
        let mut problems: Vec<String> = reps.iter().flat_map(|r| r.problems.clone()).collect();
        if reps.iter().any(|r| r.digest != digest) {
            problems.push("repetitions of one seed disagree on the simulated digest".into());
        }
        let failed = reps.iter().map(|r| r.failed).sum::<u64>();
        Outcome {
            correct: problems.is_empty() && failed == 0,
            attempted: reps.iter().map(|r| r.submitted).sum(),
            failed,
            metrics: Counts::new(),
            digest,
            problems,
        }
    }

    /// The result line: one JSON object with `names` as its metrics.
    pub fn to_json(&self, names: &[(String, &str)]) -> String {
        let mut metrics = Value::object();
        for (name, unit) in names {
            let mut m = Value::object();
            m.set("value", self.metrics.get(name).copied().unwrap_or(0.0));
            m.set("unit", *unit);
            metrics.set(name, m);
        }
        let mut out = Value::object();
        out.set("correct", self.correct);
        out.set("attempted", self.attempted as f64);
        out.set("failed", self.failed as f64);
        out.set("metrics", metrics);
        out.to_string()
    }
}

/// Runs set-up at least [`SETUP_REPS`] times and for at least
/// [`SETUP_BUDGET`]; returns the last set-up and the median set-up
/// seconds, scaled to the nominal host by the reference samples `host`
/// takes between set-ups. The budget gives a set-up of microseconds
/// enough samples for a steady median.
pub fn set_up(w: Workload, seed: u64, size: &Size, host: &mut HostSpeed) -> (Setup, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_REPS || start.elapsed() < SETUP_BUDGET {
        // Free the previous inputs first, so peak memory holds one copy.
        drop(last.take());
        let t = Instant::now();
        let s = scenario::setup(w, seed, size);
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
        host.sample_if_due();
    }
    let slowdown = host.close_window();
    (last.expect("at least one set-up"), median(times) / slowdown)
}

fn quantile(sorted: &[u64], q: f64) -> f64 {
    memento_obs::percentile::nearest_rank_sorted(sorted, q) as f64
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run: timed repetitions for `seconds` (at least
/// [`MIN_REPS`]; no repetition starts that the previous one's length says
/// would end past the budget), tracing off. Reports the median
/// repetition rate. Each repetition's rate is scaled to the nominal host
/// by the median of the reference samples taken between its simulator
/// calls and at its two ends.
pub fn end_to_end(w: Workload, seed: u64, seconds: u64, size: &Size) -> Outcome {
    let mut host = HostSpeed::new();
    let (setup, setup_s) = set_up(w, seed, size, &mut host);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut rates = Vec::new();
    let mut last = Duration::ZERO;
    while reps.len() < MIN_REPS || start.elapsed() + last <= budget {
        let t = Instant::now();
        let mut rep = scenario::run(&setup.inputs, false, &mut || host.sample_if_due());
        rates.push(rep.completed as f64 / rep.wall_s.max(1e-9) * host.close_window());
        last = t.elapsed();
        if !reps.is_empty() {
            // Only the first repetition's simulated outputs are reported;
            // later ones are checked through their digest. Dropping their
            // latencies keeps peak memory independent of the rep count.
            rep.latencies = Default::default();
        }
        reps.push(rep);
    }
    let mut out = Outcome::new(&reps.iter().collect::<Vec<_>>());
    let rate = median(rates);
    let first = &reps[0];
    let [base, mem] = &first.latencies;
    let m = &mut out.metrics;
    m.insert("inv_per_s".into(), rate);
    m.insert("setup_s".into(), setup_s);
    m.insert("peak_rss_mb".into(), peak_rss_mb());
    m.insert(
        "sim_p50_speedup".into(),
        quantile(base, 0.50) / quantile(mem, 0.50).max(1.0),
    );
    m.insert(
        "sim_p99_speedup".into(),
        quantile(base, 0.99) / quantile(mem, 0.99).max(1.0),
    );
    m.insert(
        "sim_peak_frames_ratio".into(),
        first.peak_frames[1] as f64 / first.peak_frames[0].max(1) as f64,
    );
    out
}

/// The per-layer run: one untraced and one traced repetition (their
/// difference is the tracing overhead, and they must agree on every
/// simulated output), the host-cost probes, the container replay, and
/// the attribution of the traced wall time.
pub fn per_layer(w: Workload, seed: u64, size: &Size) -> Outcome {
    let mut host = HostSpeed::new();
    let (setup, _) = set_up(w, seed, size, &mut host);
    let untraced = scenario::run(&setup.inputs, false, &mut || host.sample_if_due());
    memento_obs::selfprof::enable();
    let traced = scenario::run(&setup.inputs, true, &mut || host.sample_if_due());
    memento_obs::selfprof::disable();
    let slowdown = host.close_window();
    let spans = memento_obs::selfprof::take_report();
    let span_s = |name: &str| spans.get(name).map_or(0.0, |s| s.total_ns as f64 * 1e-9);

    let mut out = Outcome::new(&[&untraced, &traced]);
    let probes = probes::measure_all();
    let replays = layers::replay(size.measured_scale);

    let mut counts = traced.counts.clone();
    let measured = matches!(&setup.inputs, Inputs::Fleet(f) if f.measured);
    let machine_s = if measured {
        let (predicted, machine_s) = layers::predict(&setup.inputs, &traced.counts, &replays);
        counts.extend(predicted);
        Some(machine_s)
    } else {
        counts.extend(layers::batch_events(&setup.inputs));
        None
    };
    // Hits are what the ratios need; the counts carry accesses and misses.
    for cfg in CONFIGS {
        let get = |n: &str| count(&counts, n, cfg);
        let llc_hits = get("cache.llc.accesses") - get("cache.llc.misses");
        let hot_hits = get("core.obj.allocs") - get("core.hot.alloc_misses");
        counts.insert(format!("cache.llc.hits.{cfg}"), llc_hits);
        counts.insert(format!("core.hot.alloc_hits.{cfg}"), hot_hits);
    }
    let cluster_s = match &setup.inputs {
        Inputs::Fleet(f) if f.measured => scenario::profiled_twin(f),
        Inputs::Fleet(_) => span_s("cluster.sim.run") + span_s("cluster.sim.finish"),
        Inputs::Batch(_) => 0.0,
    };
    let shares = layers::attribute(w, traced.wall_s, &counts, &probes, machine_s, cluster_s);

    let m = &mut out.metrics;
    for (name, p) in &probes {
        m.insert(name.to_string(), p.ns);
    }
    for r in &replays {
        let cfg = CONFIGS[r.config];
        m.insert(
            format!("system.cold_start_us.{}.{cfg}", r.workload),
            r.cold_us,
        );
        m.insert(
            format!("system.invoke_us.{}.{cfg}", r.workload),
            r.invoke_us,
        );
    }
    for name in COUNTS {
        for cfg in CONFIGS {
            m.insert(format!("{name}.{cfg}"), count(&counts, name, cfg));
        }
    }
    for (name, num, den) in RATIOS {
        for cfg in CONFIGS {
            let d = count(&counts, den, cfg);
            let ratio = if d > 0.0 {
                count(&counts, num, cfg) / d
            } else {
                0.0
            };
            m.insert(format!("{name}.{cfg}"), ratio);
        }
    }
    for (name, s) in shares {
        m.insert(format!("host_share.{name}"), s);
    }
    let batch = matches!(setup.inputs, Inputs::Batch(_));
    m.insert("span.calibrate_s".into(), setup.calibrate_s);
    m.insert("span.arrivals_s".into(), setup.arrivals_s);
    m.insert(
        "span.simulate_s".into(),
        if batch { 0.0 } else { traced.wall_s },
    );
    m.insert(
        "span.run_scheduled_s".into(),
        if batch { traced.wall_s } else { 0.0 },
    );
    m.insert(
        "selfprof.cluster.sim.run_s".into(),
        span_s("cluster.sim.run"),
    );
    m.insert(
        "selfprof.cluster.sim.finish_s".into(),
        span_s("cluster.sim.finish"),
    );
    m.insert("trace.wall_s".into(), traced.wall_s);
    m.insert(
        "trace.overhead_frac".into(),
        traced.wall_s / untraced.wall_s.max(1e-9) - 1.0,
    );
    m.insert("host.slowdown".into(), slowdown);
    out
}
