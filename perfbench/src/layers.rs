//! Per-layer attribution of host time: counts from the layers' exported
//! statistics times marginal probe costs, plus a container replay that
//! predicts the machine layers' counts inside Measured fleets (whose
//! machines the cluster engine does not expose).

use crate::probes::{median, Probe, Probes};
use crate::scenario::{specs, system_config, Inputs, Workload, CONFIGS, FLEET_MIX};
use crate::{count, Counts};
use memento_system::{Machine, RunStats, WarmContainer};
use memento_workloads::{AllocatorKind, WorkloadSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// Cold starts per replayed (workload, config); the median is reported.
const COLD_STARTS: usize = 3;

/// Warm invocations per replayed container; the median is reported.
const WARM_ROUNDS: usize = 20;

/// The host-share rows, in report order; they sum to the traced wall time.
pub const SHARES: [&str; 9] = [
    "workloads",
    "system",
    "core",
    "cache",
    "vm",
    "kernel",
    "softalloc",
    "cluster",
    "residual",
];

/// The software allocator family a spec runs on, as the probe names it.
pub fn soft_kind(spec: &WorkloadSpec) -> &'static str {
    match spec.allocator {
        AllocatorKind::PyMalloc | AllocatorKind::PyMallocTuned { .. } => "py",
        AllocatorKind::JeMalloc { .. } => "je",
        AllocatorKind::GoAlloc => "go",
    }
}

/// Adds one run's layer counts, times `weight`, to `counts`. Names carry
/// no config suffix; `kind` also files the allocations under their
/// allocator family for attribution.
pub fn add_run(counts: &mut Counts, s: &RunStats, kind: &str, weight: f64) {
    let soft = s.soft.map(|x| x.fast_allocs + x.slow_allocs).unwrap_or(0);
    let rows = [
        (
            "cache.l1d.accesses",
            s.mem.l1d.demand.hits + s.mem.l1d.demand.misses,
        ),
        (
            "cache.l1i.accesses",
            s.mem.l1i.demand.hits + s.mem.l1i.demand.misses,
        ),
        (
            "cache.llc.accesses",
            s.mem.llc.demand.hits + s.mem.llc.demand.misses,
        ),
        ("cache.llc.misses", s.mem.llc.demand.misses),
        (
            "cache.dram.lines",
            s.mem.dram.read_lines + s.mem.dram.write_lines,
        ),
        ("cache.dram_queue_cycles", s.mem.dram_queue_cycles),
        ("cache.bypassed_fills", s.mem.bypassed_fills),
        ("kernel.page_faults", s.kernel.page_faults),
        ("softalloc.allocs", soft),
        ("core.obj.allocs", s.obj.map(|o| o.allocs).unwrap_or(0)),
        (
            "core.hot.alloc_misses",
            s.hot.map(|h| h.alloc.misses).unwrap_or(0),
        ),
        (
            "core.page.frames_recycled",
            s.page.map(|p| p.frames_recycled).unwrap_or(0),
        ),
    ];
    for (name, v) in rows {
        *counts.entry(name.to_owned()).or_default() += weight * v as f64;
    }
    *counts
        .entry(format!("softalloc.allocs_{kind}"))
        .or_default() += weight * soft as f64;
}

/// One replayed (workload, config) container of the `measured_fleet` mix.
pub struct Replay {
    /// Workload name.
    pub workload: String,
    /// Index into [`CONFIGS`].
    pub config: usize,
    /// Host microseconds of `WarmContainer::cold_start`.
    pub cold_us: f64,
    /// Median host microseconds of a back-to-back `WarmContainer::invoke`.
    pub invoke_us: f64,
    /// Trace events a cold start generates.
    pub events: f64,
    /// Layer counts of the cold start.
    pub cold: Counts,
    /// Layer counts of one warm invocation (mean).
    pub warm: Counts,
}

/// Replays every container of the `measured_fleet` mix at `scale`, timing
/// each call and recording its layer counts. TLB and walk counts come
/// from a traced machine's registry, which the machine fills at run end,
/// so they are spread evenly over the invocations of that run.
pub fn replay(scale: u64) -> Vec<Replay> {
    let mut out = Vec::new();
    for spec in specs(&FLEET_MIX, scale) {
        let kind = soft_kind(&spec);
        let events = memento_workloads::generate(&spec).events.len() as f64;
        for c in 0..2 {
            let mut cold_times = Vec::new();
            let mut booted = None;
            for _ in 0..COLD_STARTS {
                drop(booted.take());
                let t = Instant::now();
                booted = Some(WarmContainer::cold_start(system_config(c), &spec));
                cold_times.push(t.elapsed().as_secs_f64() * 1e6);
            }
            let (mut container, cold_stats) = booted.expect("at least one cold start");
            let mut cold = Counts::new();
            add_run(&mut cold, &cold_stats, kind, 1.0);
            let mut invoke = Vec::new();
            let mut warm = Counts::new();
            for _ in 0..WARM_ROUNDS {
                let t = Instant::now();
                let stats = container.invoke();
                invoke.push(t.elapsed().as_secs_f64() * 1e6);
                add_run(&mut warm, &stats, kind, 1.0 / WARM_ROUNDS as f64);
            }
            let mut traced = Machine::new(system_config(c).traced_in_memory());
            traced.run_invocations(&spec, WARM_ROUNDS + 1);
            let registry = traced.observability().expect("traced machine").metrics();
            let per_inv = 1.0 / (WARM_ROUNDS + 1) as f64;
            let tlb = [
                (
                    "vm.tlb.lookups",
                    registry.counter("tlb.l1.hits") + registry.counter("tlb.l1.misses"),
                ),
                ("vm.tlb.misses", registry.counter("tlb.l2.misses")),
                (
                    "vm.walks",
                    registry.counter("walk.completed") + registry.counter("walk.faulted"),
                ),
            ];
            for (name, v) in tlb {
                for counts in [&mut cold, &mut warm] {
                    counts.insert(name.to_owned(), v as f64 * per_inv);
                }
            }
            out.push(Replay {
                workload: spec.name.clone(),
                config: c,
                cold_us: median(cold_times),
                invoke_us: median(invoke),
                events,
                cold,
                warm,
            });
        }
    }
    out
}

/// What a Measured fleet's machine layers did, predicted from the replay:
/// each arrival of workload `w` is a cold start with the fleet's cold
/// share and a warm invocation otherwise. Returns the counts (config-suffixed)
/// and the predicted machine host seconds.
pub fn predict(inputs: &Inputs, cluster: &Counts, replays: &[Replay]) -> (Counts, f64) {
    let mut counts = Counts::new();
    let mut machine_s = 0.0;
    let Inputs::Fleet(f) = inputs else {
        return (counts, machine_s);
    };
    let mut per_workload = vec![0u64; f.mix.len()];
    for cell in &f.cells {
        for a in &cell.arrivals {
            per_workload[a.workload] += 1;
        }
    }
    for (c, cfg) in CONFIGS.iter().enumerate() {
        let cold_share = count(cluster, "cluster.cold_starts", cfg)
            / count(cluster, "cluster.completed", cfg).max(1.0);
        for (w, spec) in f.mix.specs().iter().enumerate() {
            let Some(r) = replays
                .iter()
                .find(|r| r.workload == spec.name && r.config == c)
            else {
                continue;
            };
            let n_cold = per_workload[w] as f64 * cold_share;
            let n_warm = per_workload[w] as f64 - n_cold;
            for (src, n) in [(&r.cold, n_cold), (&r.warm, n_warm)] {
                for (name, v) in src {
                    *counts.entry(format!("{name}.{cfg}")).or_default() += n * v;
                }
            }
            *counts.entry(format!("workloads.events.{cfg}")).or_default() += n_cold * r.events;
            machine_s += (n_cold * r.cold_us + n_warm * r.invoke_us) * 1e-6;
        }
    }
    (counts, machine_s)
}

/// Trace events the batches generate (one trace per job), per config.
pub fn batch_events(inputs: &Inputs) -> Counts {
    let mut counts = Counts::new();
    let Inputs::Batch(batches) = inputs else {
        return counts;
    };
    let mut memo: BTreeMap<String, f64> = BTreeMap::new();
    let mut events = 0.0;
    for job in batches.iter().flat_map(|b| &b.jobs) {
        events += *memo
            .entry(job.name.clone())
            .or_insert_with(|| memento_workloads::generate(job).events.len() as f64);
    }
    for cfg in CONFIGS {
        counts.insert(format!("workloads.events.{cfg}"), events);
    }
    counts
}

/// Host ns of `p` net of the cache accesses and TLB lookups it made.
fn marginal(p: Probe, l1_ns: f64, tlb_ns: f64) -> f64 {
    p.ns - p.accesses * l1_ns - p.lookups * tlb_ns
}

/// Splits `wall_s` over [`SHARES`]. `counts` are the workload's layer
/// counts; `machine_s` is the replay's predicted machine time (Measured
/// fleets), which bounds the system crate's own share; `cluster_s` is
/// the cluster engine's measured time. `residual` is what no probe or
/// span explains, reported as measured.
pub fn attribute(
    w: Workload,
    wall_s: f64,
    counts: &Counts,
    probes: &Probes,
    machine_s: Option<f64>,
    cluster_s: f64,
) -> Vec<(&'static str, f64)> {
    let p = |name: &str| probes.get(name).copied().unwrap_or_default();
    let n = |name: &str| {
        CONFIGS
            .iter()
            .map(|cfg| count(counts, name, cfg))
            .sum::<f64>()
    };
    let l1 = p("cache.l1_hit_ns").ns;
    let tlb = p("vm.tlb_hit_ns").ns;
    let llc_miss = if w == Workload::ColocatedBatch {
        p("cache.shared_llc_miss_ns").ns
    } else {
        p("cache.llc_miss_ns").ns
    };
    let hit_pair = marginal(p("core.obj_hit_pair_ns"), l1, tlb);
    let ns = [
        n("workloads.events") * p("workloads.generate_ns_per_event").ns,
        (n("core.obj.allocs") * hit_pair)
            + n("core.hot.alloc_misses")
                * (marginal(p("core.obj_miss_alloc_ns"), l1, tlb) - hit_pair),
        (n("cache.l1d.accesses") + n("cache.l1i.accesses")) * l1
            + n("cache.llc.misses") * (llc_miss - l1),
        n("vm.tlb.lookups") * tlb + n("vm.walks") * marginal(p("vm.tlb_miss_walk_ns"), l1, tlb),
        n("kernel.page_faults") * marginal(p("kernel.demand_fault_ns"), l1, tlb),
        ["py", "je", "go"]
            .iter()
            .map(|k| {
                n(&format!("softalloc.allocs_{k}"))
                    * marginal(p(&format!("softalloc.{k}_pair_ns")), l1, tlb)
            })
            .sum(),
    ];
    let [workloads, core, cache, vm, kernel, softalloc] = ns.map(|x| x * 1e-9);
    let below = workloads + core + cache + vm + kernel + softalloc;
    let system = machine_s.map_or(0.0, |m| m - below);
    let residual = wall_s - below - system - cluster_s;
    vec![
        ("workloads", workloads),
        ("system", system),
        ("core", core),
        ("cache", cache),
        ("vm", vm),
        ("kernel", kernel),
        ("softalloc", softalloc),
        ("cluster", cluster_s),
        ("residual", residual),
    ]
}
