//! The four benchmark workloads. Each is split into a set-up step, which
//! builds every input from the seed (spec scaling, calibration, arrival
//! and job generation), and a repetition, which drives the simulator's
//! public entry points over those inputs. Set-up is timed as `setup_s`;
//! repetitions are the timed phase.

use crate::digest::Fnv;
use crate::layers::soft_kind;
use crate::Counts;
use memento_cluster::{
    calibrate, generate_arrivals, generate_trace, simulate, Arrival, ArrivalConfig, Autoscaler,
    AutoscalerConfig, ClusterConfig, ClusterResult, ColdStart, DiurnalTrace, EmpiricalTrace,
    Engine, FlashCrowd, KeepAlive, Placement, ProfileTable, Reclamation, ServiceProfile,
    WorkloadMix,
};
use memento_system::{Machine, RunStats, SystemConfig};
use memento_workloads::{suite, WorkloadSpec};
use std::time::Instant;

/// Config labels, in the order every per-config array uses.
pub const CONFIGS: [&str; 2] = ["baseline", "memento"];

/// The system configuration behind `CONFIGS[c]`.
pub fn system_config(c: usize) -> SystemConfig {
    if c == 0 {
        SystemConfig::baseline()
    } else {
        SystemConfig::memento()
    }
}

/// The function mix of `measured_fleet`: Python, C++ and Go allocators,
/// working sets from a few KiB (`aes`) to a data-processing heap (`Redis`).
pub const FLEET_MIX: [&str; 6] = ["html", "aes", "CM", "Redis", "SQLite3", "up"];
/// The function mix of `colocated_batch`.
const BATCH_MIX: [&str; 4] = ["html", "jl", "aes", "bfs-go"];
/// The mix of `profiled_fleet`: the full-evaluation cluster sweep's eight.
const PROFILED_MIX: [&str; 8] = ["html", "US", "CM", "MI", "Redis", "Silo", "SQLite3", "up"];
/// The mix of both `elastic_region` cells.
const REGION_MIX: [&str; 4] = ["html", "US", "Redis", "SQLite3"];
/// The `profiled_fleet` load ladder, as offered utilisation of the fleet.
const LOADS: [f64; 3] = [0.5, 0.9, 1.15];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A fixed fleet on the Measured engine (live machines per container).
    MeasuredFleet,
    /// Batches of invocations work-stealing-scheduled on a 2-core machine.
    ColocatedBatch,
    /// The fixed-fleet Profiled engine over a load ladder.
    ProfiledFleet,
    /// Autoscaled region cells: squeeze/snapshot and park-to-PM.
    ElasticRegion,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::MeasuredFleet,
        Workload::ColocatedBatch,
        Workload::ProfiledFleet,
        Workload::ElasticRegion,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MeasuredFleet => "measured_fleet",
            Workload::ColocatedBatch => "colocated_batch",
            Workload::ProfiledFleet => "profiled_fleet",
            Workload::ElasticRegion => "elastic_region",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much simulated work the workloads carry. [`Size::full`] is the
/// benchmark; tests run [`Size::small`] so they stay quick in debug builds.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Instruction divisor for `measured_fleet` (and its replay).
    pub measured_scale: u64,
    /// Instruction divisor for `colocated_batch`.
    pub batch_scale: u64,
    /// Arrivals per `measured_fleet` fleet.
    pub fleet_arrivals: u64,
    /// Independently seeded `measured_fleet` fleets.
    pub fleets: u64,
    /// `colocated_batch` batches per config.
    pub batches: usize,
    /// Jobs per batch.
    pub batch_jobs: usize,
    /// Instruction divisor for the Profiled workloads' calibration.
    pub profiled_scale: u64,
    /// Arrivals per `profiled_fleet` cell.
    pub profiled_arrivals: u64,
    /// Arrivals per `elastic_region` trace.
    pub region_arrivals: u64,
    /// Independently seeded traces per `elastic_region` policy cell.
    pub region_traces: u64,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Size {
        Size {
            measured_scale: 32,
            fleet_arrivals: 1_200,
            fleets: 4,
            batch_scale: 8,
            batches: 6,
            // Odd, so one core's deque runs dry first and steals.
            batch_jobs: 9,
            profiled_scale: 64,
            profiled_arrivals: 1_000_000,
            region_arrivals: 100_000,
            region_traces: 4,
        }
    }

    /// A size small enough for debug-build tests.
    pub fn small() -> Size {
        Size {
            measured_scale: 64,
            fleet_arrivals: 60,
            fleets: 1,
            batch_scale: 64,
            batches: 2,
            batch_jobs: 4,
            profiled_scale: 256,
            profiled_arrivals: 4_000,
            region_arrivals: 4_000,
            region_traces: 1,
        }
    }
}

/// Workload specs by name, with instruction counts divided by `scale`.
pub fn specs(names: &[&str], scale: u64) -> Vec<WorkloadSpec> {
    names
        .iter()
        .map(|n| {
            let mut s = suite::by_name(n).expect("pinned workload names exist");
            s.total_instructions /= scale;
            s
        })
        .collect()
}

/// One fleet run: a cluster config over a pre-drawn arrival sequence,
/// simulated once per config.
pub struct FleetCell {
    /// Cluster shape and policies.
    pub cfg: ClusterConfig,
    /// The arrivals both configs see.
    pub arrivals: Vec<Arrival>,
    /// Whether this cell must park containers to PM.
    pub expects_pm: bool,
}

/// Inputs of the fleet workloads.
pub struct FleetInputs {
    /// The function mix.
    pub mix: WorkloadMix,
    /// Whether containers run live machines (`Engine::Measured`).
    pub measured: bool,
    /// Calibrated profiles per config.
    pub tables: [ProfileTable; 2],
    /// The cells, each simulated for both configs.
    pub cells: Vec<FleetCell>,
}

/// One `colocated_batch` batch: the jobs and the scheduler seed.
pub struct Batch {
    /// Jobs in dispatch order.
    pub jobs: Vec<WorkloadSpec>,
    /// Work-stealing victim-selection seed.
    pub sched_seed: u64,
}

/// A workload's generated inputs.
pub enum Inputs {
    /// `measured_fleet`, `profiled_fleet`, `elastic_region`.
    Fleet(FleetInputs),
    /// `colocated_batch`.
    Batch(Vec<Batch>),
}

/// Set-up output: the inputs plus where set-up time went.
pub struct Setup {
    /// The generated inputs.
    pub inputs: Inputs,
    /// Host seconds in `calibrate`.
    pub calibrate_s: f64,
    /// Host seconds in arrival/trace or job generation.
    pub arrivals_s: f64,
}

/// SplitMix64: derives independent sub-seeds (arrival, scheduler, job
/// draw) from the one workload seed.
fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn calibrate_all(specs: &[WorkloadSpec], warm_samples: usize) -> [Vec<ServiceProfile>; 2] {
    [0, 1].map(|c| {
        specs
            .iter()
            .map(|s| calibrate(&system_config(c), s, warm_samples))
            .collect()
    })
}

fn mean_warm(profiles: &[ServiceProfile]) -> f64 {
    profiles.iter().map(|p| p.warm_cycles as f64).sum::<f64>() / profiles.len() as f64
}

fn fixed_fleet(nodes: usize, keep_alive: KeepAlive) -> ClusterConfig {
    ClusterConfig {
        nodes,
        queue_capacity: 32,
        cores_per_node: 1,
        placement: Placement::LeastLoaded,
        keep_alive,
        cold_start: ColdStart::Boot,
        reclamation: Reclamation::None,
        autoscaler: Autoscaler::None,
        record_timeline: false,
    }
}

/// `len` mix indices in `0..k`, each equally often (±1), in an order
/// shuffled by `seed`.
fn balanced(seed: u64, len: usize, k: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..len).map(|i| i % k).collect();
    let mut x = seed;
    for i in (1..len).rev() {
        x = split_seed(x, i as u64);
        v.swap(i, (x % (i as u64 + 1)) as usize);
    }
    v
}

/// Gives every workload of the mix the same share of `arrivals`, in a
/// seeded order. The generator samples each arrival's workload
/// independently, so at a thousand arrivals the composition alone would
/// move host time and the simulated speedups from seed to seed; balancing
/// leaves the seed to decide arrival times and order only.
fn balance(mut arrivals: Vec<Arrival>, mix: &WorkloadMix, seed: u64) -> Vec<Arrival> {
    let order = balanced(seed, arrivals.len(), mix.len());
    for (a, w) in arrivals.iter_mut().zip(order) {
        a.workload = w;
    }
    arrivals
}

fn poisson(seed: u64, count: u64, mean_interarrival: f64, mix: &WorkloadMix) -> Vec<Arrival> {
    let cfg = ArrivalConfig {
        seed,
        count,
        mean_interarrival_cycles: mean_interarrival,
    };
    let arrivals = generate_arrivals(&cfg, mix).expect("positive arrival rate");
    balance(arrivals, mix, split_seed(seed, 4))
}

/// Builds a workload's inputs from `seed`.
pub fn setup(w: Workload, seed: u64, size: &Size) -> Setup {
    let t_cal = Instant::now();
    match w {
        Workload::MeasuredFleet => {
            let specs = specs(&FLEET_MIX, size.measured_scale);
            let profiles = calibrate_all(&specs, 1);
            let mean = mean_warm(&profiles[0]);
            let calibrate_s = t_cal.elapsed().as_secs_f64();
            let t_arr = Instant::now();
            let mix = WorkloadMix::uniform(specs).expect("non-empty mix");
            // Four nodes at 60 % load; a keep-alive of ten mean services
            // leaves roughly one start in ten cold.
            let cfg = fixed_fleet(4, KeepAlive::Fixed((mean * 10.0) as u64));
            // Several independently seeded fleets: the tail and the peak
            // footprint of one fleet of a thousand invocations hinge on
            // a dozen cold starts.
            let cells = (0..size.fleets)
                .map(|k| FleetCell {
                    arrivals: poisson(
                        split_seed(seed, 1 + k),
                        size.fleet_arrivals,
                        mean / (cfg.nodes as f64 * 0.6),
                        &mix,
                    ),
                    cfg: cfg.clone(),
                    expects_pm: false,
                })
                .collect();
            let arrivals_s = t_arr.elapsed().as_secs_f64();
            let [b, m] = profiles;
            Setup {
                inputs: Inputs::Fleet(FleetInputs {
                    mix,
                    measured: true,
                    tables: [
                        ProfileTable::from_profiles(b),
                        ProfileTable::from_profiles(m),
                    ],
                    cells,
                }),
                calibrate_s,
                arrivals_s,
            }
        }
        Workload::ColocatedBatch => {
            let specs = specs(&BATCH_MIX, size.batch_scale);
            let t_arr = Instant::now();
            let order = balanced(
                split_seed(seed, 2),
                size.batches * size.batch_jobs,
                specs.len(),
            );
            let batches = order
                .chunks(size.batch_jobs)
                .enumerate()
                .map(|(b, jobs)| Batch {
                    jobs: jobs.iter().map(|&i| specs[i].clone()).collect(),
                    sched_seed: split_seed(seed, 100 + b as u64),
                })
                .collect();
            Setup {
                inputs: Inputs::Batch(batches),
                calibrate_s: 0.0,
                arrivals_s: t_arr.elapsed().as_secs_f64(),
            }
        }
        Workload::ProfiledFleet => {
            let specs = specs(&PROFILED_MIX, size.profiled_scale);
            let profiles = calibrate_all(&specs, 3);
            let mean = mean_warm(&profiles[0]);
            let calibrate_s = t_cal.elapsed().as_secs_f64();
            let t_arr = Instant::now();
            let mix = WorkloadMix::uniform(specs).expect("non-empty mix");
            let cfg = fixed_fleet(8, KeepAlive::Fixed((mean * 20.0) as u64));
            let cells = LOADS
                .iter()
                .enumerate()
                .map(|(i, util)| FleetCell {
                    arrivals: poisson(
                        split_seed(seed, 10 + i as u64),
                        size.profiled_arrivals,
                        mean / (cfg.nodes as f64 * util),
                        &mix,
                    ),
                    cfg: cfg.clone(),
                    expects_pm: false,
                })
                .collect();
            let arrivals_s = t_arr.elapsed().as_secs_f64();
            let [b, m] = profiles;
            Setup {
                inputs: Inputs::Fleet(FleetInputs {
                    mix,
                    measured: false,
                    tables: [
                        ProfileTable::from_profiles(b),
                        ProfileTable::from_profiles(m),
                    ],
                    cells,
                }),
                calibrate_s,
                arrivals_s,
            }
        }
        Workload::ElasticRegion => {
            let specs = specs(&REGION_MIX, size.profiled_scale);
            let profiles = calibrate_all(&specs, 3);
            let calibrate_s = t_cal.elapsed().as_secs_f64();
            let t_arr = Instant::now();
            let base = &profiles[0];
            let mean = mean_warm(base);
            let idle_sum: u64 = base.iter().map(|p| p.idle_frames).sum();
            let max_cold = base.iter().map(|p| p.cold_cycles).max().unwrap_or(1);
            let autoscaler = Autoscaler::TargetUtilization(AutoscalerConfig {
                interval_cycles: (mean * 4.0) as u64,
                target_load_pct: 70,
                min_nodes: 2,
                max_nodes: 16,
                spinup_cycles: 8 * max_cold,
            });
            let squeeze = ClusterConfig {
                nodes: 4,
                queue_capacity: 32,
                cores_per_node: 1,
                placement: Placement::LeastLoaded,
                keep_alive: KeepAlive::SizeAware {
                    budget_frame_cycles: (mean * 20.0) as u64
                        * (idle_sum / REGION_MIX.len() as u64),
                    min_cycles: (mean * 2.0) as u64,
                    max_cycles: (mean * 160.0) as u64,
                },
                cold_start: ColdStart::Snapshot,
                reclamation: Reclamation::Squeeze {
                    watermark_frames: 8 * idle_sum,
                },
                autoscaler,
                record_timeline: false,
            };
            let pm = ClusterConfig {
                keep_alive: KeepAlive::ParkToPM {
                    ttl_cycles: (mean * 160.0) as u64,
                },
                reclamation: Reclamation::None,
                ..squeeze.clone()
            };
            let mix = WorkloadMix::uniform(specs).expect("non-empty mix");
            let arrival = |stream| ArrivalConfig {
                seed: split_seed(seed, stream),
                count: size.region_arrivals,
                mean_interarrival_cycles: mean / (4.0 * 0.9),
            };
            let period_cycles = (mean * 400.0) as u64;
            let burst_cycles = (mean * 40.0) as u64;
            let diurnal = FlashCrowd {
                base: DiurnalTrace {
                    day_cycles: (mean * 4_000.0) as u64,
                    trough_ppm: 250_000,
                    peak_ppm: 1_000_000,
                },
                period_cycles,
                burst_cycles,
                multiplier: 4,
            };
            let azure = FlashCrowd {
                base: EmpiricalTrace::azure_day((mean * 4_000.0) as u64),
                period_cycles,
                burst_cycles,
                multiplier: 4,
            };
            // Each policy cell runs over several independently seeded
            // traces: a fleet's peak footprint is the maximum over its
            // flash crowds, and summing it over traces keeps one unlucky
            // burst from deciding the footprint ratio.
            let mut cells = Vec::new();
            for k in 0..size.region_traces {
                let stream = 20 + 2 * k;
                let diurnal_arrivals =
                    generate_trace(&arrival(stream), &mix, &diurnal).expect("valid trace");
                cells.push(FleetCell {
                    cfg: squeeze.clone(),
                    arrivals: balance(diurnal_arrivals, &mix, split_seed(seed, stream + 100)),
                    expects_pm: false,
                });
                let azure_arrivals =
                    generate_trace(&arrival(stream + 1), &mix, &azure).expect("valid trace");
                cells.push(FleetCell {
                    cfg: pm.clone(),
                    arrivals: balance(azure_arrivals, &mix, split_seed(seed, stream + 101)),
                    expects_pm: true,
                });
            }
            let arrivals_s = t_arr.elapsed().as_secs_f64();
            let [b, m] = profiles;
            Setup {
                inputs: Inputs::Fleet(FleetInputs {
                    mix,
                    measured: false,
                    tables: [
                        ProfileTable::from_profiles(b),
                        ProfileTable::from_profiles(m),
                    ],
                    cells,
                }),
                calibrate_s,
                arrivals_s,
            }
        }
    }
}

/// What one repetition produced.
#[derive(Default)]
pub struct Rep {
    /// Host seconds in the simulator calls (the timed phase).
    pub wall_s: f64,
    /// Simulated invocations offered.
    pub submitted: u64,
    /// Simulated invocations completed.
    pub completed: u64,
    /// Invocations of runs whose call errored or whose audit failed.
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub problems: Vec<String>,
    /// End-to-end simulated latencies per config, pooled over cells and
    /// sorted (fleets: queue + service cycles; batches: per-job cycles).
    pub latencies: [Vec<u64>; 2],
    /// Peak footprint per config, summed over cells (fleets: peak fleet
    /// frames; batches: `RunStats::peak_pages` over jobs).
    pub peak_frames: [u64; 2],
    /// Hash of every simulated output.
    pub digest: u64,
    /// Exact layer counts the run exports, split by config.
    pub counts: Counts,
}

impl Rep {
    fn add_fleet(&mut self, c: usize, r: &ClusterResult, expects_pm: bool, h: &mut Fnv) {
        let cfg = CONFIGS[c];
        self.completed += r.completed;
        if !r.is_clean() {
            self.failed += r.submitted;
            self.problems.push(format!("{cfg}: fleet audit not clean"));
        }
        if r.completed + r.rejected != r.submitted {
            self.problems.push(format!(
                "{cfg}: completed {} + rejected {} != submitted {}",
                r.completed, r.rejected, r.submitted
            ));
        }
        if expects_pm && r.pm_parks == 0 {
            self.problems.push(format!("{cfg}: PM cell parked nothing"));
        }
        self.latencies[c].extend_from_slice(&r.latencies);
        self.peak_frames[c] += r.peak_fleet_frames;
        h.words(&r.latencies);
        h.words(&[
            r.submitted,
            r.completed,
            r.rejected,
            r.cold_starts,
            r.warm_starts,
            r.expired,
            r.restores,
            r.squeezed,
            r.pm_parks,
            r.peak_fleet_frames,
            r.final_fleet_frames,
            r.makespan_cycles,
        ]);
        for name in [
            "cluster.completed",
            "cluster.cold_starts",
            "cluster.warm_starts",
            "cluster.expired",
            "cluster.restores",
            "cluster.squeezed",
            "cluster.pm_parks",
            "cluster.scale_ups",
            "cluster.rejected",
        ] {
            *self.counts.entry(format!("{name}.{cfg}")).or_default() +=
                r.metrics.counter(name) as f64;
        }
    }
}

/// Host seconds of a Profiled replay of the fleets over the same
/// arrivals: the cluster engine's own cost, without machine work.
pub fn profiled_twin(f: &FleetInputs) -> f64 {
    let t = Instant::now();
    for cell in &f.cells {
        for table in &f.tables {
            let twin = simulate(
                Engine::Profiled(table.clone()),
                &cell.cfg,
                &f.mix,
                &cell.arrivals,
            );
            drop(twin.expect("the fleet config validated"));
        }
    }
    t.elapsed().as_secs_f64()
}

/// Runs one repetition. `traced` turns on in-memory machine tracing on
/// batch machines, whose registry carries the TLB and walk counts; it
/// changes no simulated output. `between` runs after each timed
/// simulator call, outside the timed region.
pub fn run(inputs: &Inputs, traced: bool, between: &mut dyn FnMut()) -> Rep {
    let mut rep = Rep::default();
    let mut h = Fnv::new();
    match inputs {
        Inputs::Fleet(f) => {
            // Sized up front: grown by doubling, the pooled latencies
            // would leave seed-dependent holes in the heap.
            let pooled: usize = f.cells.iter().map(|c| c.arrivals.len()).sum();
            for l in &mut rep.latencies {
                l.reserve_exact(pooled);
            }
            for cell in &f.cells {
                for (c, table) in f.tables.iter().enumerate() {
                    let engine = if f.measured {
                        Engine::Measured(Box::new(system_config(c)))
                    } else {
                        Engine::Profiled(table.clone())
                    };
                    rep.submitted += cell.arrivals.len() as u64;
                    let t = Instant::now();
                    let result = simulate(engine, &cell.cfg, &f.mix, &cell.arrivals);
                    rep.wall_s += t.elapsed().as_secs_f64();
                    between();
                    match result {
                        Ok(r) => rep.add_fleet(c, &r, cell.expects_pm, &mut h),
                        Err(e) => {
                            rep.failed += cell.arrivals.len() as u64;
                            let cfg = CONFIGS[c];
                            rep.problems.push(format!("{cfg}: simulate failed: {e}"));
                        }
                    }
                }
            }
        }
        Inputs::Batch(batches) => {
            for (c, label) in CONFIGS.iter().enumerate() {
                for batch in batches {
                    let mut cfg = system_config(c).with_cores(2);
                    if traced {
                        cfg = cfg.traced_in_memory();
                    }
                    rep.submitted += batch.jobs.len() as u64;
                    let t = Instant::now();
                    let mut machine = Machine::new(cfg);
                    let (stats, sched) = machine.run_scheduled(&batch.jobs, batch.sched_seed);
                    rep.wall_s += t.elapsed().as_secs_f64();
                    between();
                    if stats.len() != batch.jobs.len() {
                        rep.failed += batch.jobs.len() as u64;
                        rep.problems.push(format!(
                            "{label}: run_scheduled returned {} stats for {} jobs",
                            stats.len(),
                            batch.jobs.len()
                        ));
                        continue;
                    }
                    rep.completed += stats.len() as u64;
                    for s in &stats {
                        rep.latencies[c].push(s.total_cycles().raw());
                        rep.peak_frames[c] += s.peak_pages;
                    }
                    hash_batch(&mut h, &stats, sched.steals);
                    batch_counts(
                        &mut rep.counts,
                        c,
                        &machine,
                        &batch.jobs,
                        &stats,
                        sched.steals,
                    );
                }
            }
        }
    }
    for l in &mut rep.latencies {
        l.sort_unstable();
    }
    rep.digest = h.finish();
    rep
}

fn hash_batch(h: &mut Fnv, stats: &[RunStats], steals: u64) {
    for s in stats {
        h.words(&[
            s.total_cycles().raw(),
            s.peak_pages,
            s.user_pages_agg,
            s.kernel_pages_agg,
            s.mem.dram.read_lines,
            s.mem.dram.write_lines,
            s.kernel.page_faults,
        ]);
    }
    h.words(&[steals]);
}

/// Exact machine-level counts after one batch. Shared-structure counters
/// (caches, TLBs, kernel, device) are read from the machine, not summed
/// over jobs, because co-resident jobs' measurement windows overlap.
fn batch_counts(
    counts: &mut Counts,
    c: usize,
    m: &Machine,
    jobs: &[WorkloadSpec],
    stats: &[RunStats],
    steals: u64,
) {
    let mut add = |name: &str, v: u64| {
        *counts.entry(format!("{name}.{}", CONFIGS[c])).or_default() += v as f64;
    };
    let mem = m.mem_stats();
    add(
        "cache.l1d.accesses",
        mem.l1d.demand.hits + mem.l1d.demand.misses,
    );
    add(
        "cache.l1i.accesses",
        mem.l1i.demand.hits + mem.l1i.demand.misses,
    );
    add(
        "cache.llc.accesses",
        mem.llc.demand.hits + mem.llc.demand.misses,
    );
    add("cache.llc.misses", mem.llc.demand.misses);
    add(
        "cache.dram.lines",
        mem.dram.read_lines + mem.dram.write_lines,
    );
    add("cache.dram_queue_cycles", mem.dram_queue_cycles);
    add("cache.bypassed_fills", mem.bypassed_fills);
    add("kernel.page_faults", m.page_faults());
    for (job, s) in jobs.iter().zip(stats) {
        let allocs = s.soft.map(|x| x.fast_allocs + x.slow_allocs).unwrap_or(0);
        add("softalloc.allocs", allocs);
        add(&format!("softalloc.allocs_{}", soft_kind(job)), allocs);
    }
    add("system.sched.steals", steals);
    if let Some(obs) = m.observability() {
        let r = obs.metrics();
        add(
            "vm.tlb.lookups",
            r.counter("tlb.l1.hits") + r.counter("tlb.l1.misses"),
        );
        add("vm.tlb.misses", r.counter("tlb.l2.misses"));
        add(
            "vm.walks",
            r.counter("walk.completed") + r.counter("walk.faulted"),
        );
        let (hits, misses) = (r.counter("hot.alloc.hits"), r.counter("hot.alloc.misses"));
        add("core.obj.allocs", hits + misses);
        add("core.hot.alloc_misses", misses);
        add(
            "core.page.frames_recycled",
            r.counter("pool.frames_recycled"),
        );
    }
}
