//! The event-driven fleet simulator: arrivals → scheduler → bounded node
//! queues → containers → completions, on one simulated clock.
//!
//! # Determinism
//!
//! The simulation is byte-deterministic by construction:
//!
//! - The clock is simulated cycles; nothing reads wall time.
//! - There is no event queue. Each event source keeps its own pending
//!   keys: a cursor over the sorted arrivals, one completion key per
//!   serving lane, one keep-alive deadline per warm-matrix entry and,
//!   with an autoscaler, a FIFO of node boots and the next controller
//!   tick. Every key is `(time, seq)`, with `seq` drawn from one
//!   monotone counter, so ties have one total order and the loop fires
//!   the least key of the five.
//! - All keyed state is index-based: containers live in a slab (`Vec` +
//!   free list), per-node warm pools are dense arrays over mix indices,
//!   and service costs are read by mix index from the service model.
//!   Iteration order is array order — defined everywhere.
//! - The arrival sequence is a pure function of its seed and is shared by
//!   every fleet configuration under comparison.
//!
//! The flat layout replaced `BTreeMap`-keyed event/node/container state
//! (see DESIGN.md §10): per event, the engine now does O(1) array
//! indexing where it used to chase tree nodes and compare workload-name
//! strings. This file denies `clippy::disallowed_types` (which lists
//! `BTreeMap`) and `clippy::cast_possible_truncation`, so neither a tree
//! nor an unchecked narrowing cast can creep back in silently.
//!
//! # Policy families
//!
//! Each policy family has one home. Reclamation and the autoscaler keep
//! their state behind one `Option` each (`Squeeze`, `Scaling`, built in
//! `Sim::new` and `None` when the family is off) with their code in an
//! `impl` block of its own; the keep-alive TTL rule and the keep-alive
//! and autoscaler config checks are methods on the policy types in
//! [`crate::policy`].
//!
//! # Service models
//!
//! `Sim` reads every container cost through one seam, the service model
//! (`crate::model`), and is generic over it; a slot holds only the
//! container's position in the model. [`simulate`] is the only place
//! that names an engine.
//!
//! # Accounting
//!
//! The scheduler tracks the fleet memory footprint *incrementally*: each
//! container carries a `contrib` (frames currently charged to the fleet),
//! bumped to its serving-window peak while active, dropped to its parked
//! idle level when warm, and zeroed at retirement. Footprint means
//! *unreclaimable* frames — mapped data plus page tables; the hardware
//! pool's free reserve is shed back to the OS when a container parks
//! ([`memento_system::WarmContainer::park`]) and excluded while
//! serving, because free staging is reclaimable at any instant exactly
//! like the OS free list.
//! The running total drives the footprint timeline and peak; the peak is
//! taken over *timestamp-settled* footprints (all events at one simulated
//! instant apply before the maximum is sampled), so it is independent of
//! how same-instant events across nodes interleave (the golden snapshot
//! and the determinism suite pin the peak, so it must not depend on tie
//! order between nodes). At drain, a [`FleetAuditor`] recounts frames
//! node by node from the engine's ground truth and re-checks invocation
//! conservation — any drift surfaces as a sanitizer violation in
//! [`ClusterResult::audit`].

#![deny(clippy::disallowed_types, clippy::cast_possible_truncation)]

#[expect(
    clippy::disallowed_types,
    reason = "result-surface type only, built once at drain and never touched per event"
)]
use std::collections::BTreeMap;
use std::collections::VecDeque;

use memento_obs::metrics::{Log2Hist, MetricsRegistry};
use memento_obs::selfprof;
use memento_sanitizer::fleet::{FleetAuditor, InvocationCounts};
use memento_sanitizer::SanitizerReport;
use memento_simcore::pool;
use memento_system::SystemConfig;

use crate::arrival::{Arrival, WorkloadMix};
use crate::error::ClusterError;
use crate::lineage::{Lineages, OpCycle, RunAhead};
use crate::model::{Op, ServiceModel};
use crate::policy::{
    Autoscaler, AutoscalerConfig, ColdStart, KeepAlive, Placement, Reclamation, RejectReason,
};
use crate::profile::{ProfileTable, Profiled};

/// How the simulator obtains service times and frame footprints.
pub enum Engine {
    /// Every container runs on an exact [`memento_system::WarmContainer`]
    /// simulation of the full memory hierarchy. Every container of one
    /// function follows the same op script in a run (its boot kind and
    /// keep-alive policy fix it), so the engine simulates each
    /// function's script once per fleet and serves every container from
    /// that one history (see DESIGN.md §10, "Shared container
    /// histories"). The config must not name a trace file. Boxed: a
    /// `SystemConfig` is much larger than a profile-table handle.
    Measured(Box<SystemConfig>),
    /// Containers replay calibrated [`crate::profile::ServiceProfile`]
    /// costs. Use to scale the same scheduler/keep-alive dynamics to
    /// millions of invocations.
    Profiled(ProfileTable),
}

/// Fleet shape and policy knobs.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes; each node serves up to [`Self::cores_per_node`]
    /// containers at once.
    pub nodes: usize,
    /// Bounded per-node queue depth (0 = no queueing: a node with every
    /// core busy rejects).
    pub queue_capacity: usize,
    /// Serving lanes per node: how many containers one node runs
    /// concurrently. Measured-engine container machines are shaped to
    /// this core count ([`memento_system::SystemConfig::with_cores`]),
    /// so their memory hierarchy matches the node hardware. 1 reproduces
    /// the original single-container-at-a-time fleet exactly.
    pub cores_per_node: usize,
    /// Placement policy.
    pub placement: Placement,
    /// Keep-alive policy.
    pub keep_alive: KeepAlive,
    /// How a cold container comes up: full boot or REAP-style snapshot
    /// restore.
    pub cold_start: ColdStart,
    /// Pressure-driven reclamation of idle-warm containers.
    pub reclamation: Reclamation,
    /// Node autoscaling. With [`Autoscaler::None`], every configured node
    /// is active for the whole run (the fixed-fleet engine, bit-identical
    /// to the pre-region simulator). With a target-utilization
    /// controller, [`Self::nodes`] is the *initial* active fleet inside
    /// the controller's `[min_nodes, max_nodes]` range.
    pub autoscaler: Autoscaler,
    /// Record the full footprint timeline (disable for very large runs;
    /// peak tracking is unaffected).
    pub record_timeline: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 8,
            queue_capacity: 16,
            cores_per_node: 1,
            placement: Placement::LeastLoaded,
            keep_alive: KeepAlive::Fixed(100_000_000),
            cold_start: ColdStart::Boot,
            reclamation: Reclamation::None,
            autoscaler: Autoscaler::None,
            record_timeline: true,
        }
    }
}

/// Everything a cluster run produced.
pub struct ClusterResult {
    /// Arrivals offered to the scheduler.
    pub submitted: u64,
    /// Invocations served to completion.
    pub completed: u64,
    /// Arrivals turned away at admission.
    pub rejected: u64,
    /// Rejections broken down by typed reason.
    #[expect(
        clippy::disallowed_types,
        reason = "result surface, written once at drain"
    )]
    pub rejected_by: BTreeMap<RejectReason, u64>,
    /// Invocations that paid a container cold start.
    pub cold_starts: u64,
    /// Invocations served by an idle-warm container.
    pub warm_starts: u64,
    /// Containers torn down by keep-alive expiry.
    pub expired: u64,
    /// Containers torn down for any reason (expiry included).
    pub retired: u64,
    /// Containers still idle-warm at drain.
    pub live_containers: u64,
    /// Cold-path starts served by snapshot restore (a subset of
    /// `cold_starts`; 0 under [`ColdStart::Boot`]).
    pub restores: u64,
    /// Idle-warm containers squeezed by pressure-driven reclamation
    /// (0 under [`Reclamation::None`]).
    pub squeezed: u64,
    /// Containers parked to persistent memory after completing
    /// (0 unless [`KeepAlive::ParkToPM`]).
    pub pm_parks: u64,
    /// Warm hits that paid a PM restore to revive a parked container
    /// (a subset of `warm_starts`; 0 unless [`KeepAlive::ParkToPM`]).
    pub pm_restores: u64,
    /// Peak simultaneously active-or-booting nodes (the configured fleet
    /// size when autoscaling is off).
    pub peak_active_nodes: u64,
    /// Simulated cycle of the last processed event.
    pub makespan_cycles: u64,
    /// Highest timestamp-settled fleet footprint, in frames.
    pub peak_fleet_frames: u64,
    /// Fleet footprint at drain (idle-warm containers), in frames.
    pub final_fleet_frames: u64,
    /// Footprint timeline as (cycle, frames) change points (empty when
    /// `record_timeline` is off).
    pub timeline: Vec<(u64, u64)>,
    /// End-to-end latencies (queue wait + service) of completed
    /// invocations, in cycles, sorted ascending.
    pub latencies: Vec<u64>,
    /// Per-node counters plus latency/queue-wait histograms.
    pub metrics: MetricsRegistry,
    /// Fleet conservation audits (invocations and frames) run at drain.
    pub audit: SanitizerReport,
}

impl ClusterResult {
    /// Exact latency quantile (nearest-rank over the full sorted latency
    /// vector; 0 when nothing completed). Delegates to the workspace's
    /// single shared rank convention so the cluster tables and the
    /// [`memento_obs::metrics::Log2Hist`] approximation can never drift
    /// apart again.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        memento_obs::percentile::nearest_rank_sorted(&self.latencies, q)
    }

    /// (p50, p95, p99) end-to-end latency in cycles.
    pub fn latency_percentiles(&self) -> (u64, u64, u64) {
        (
            self.latency_quantile(0.50),
            self.latency_quantile(0.95),
            self.latency_quantile(0.99),
        )
    }

    /// Mean end-to-end latency in cycles (0 when nothing completed).
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        // Summed in 128 bits: latencies near the clock bound overflow u64.
        let total: u128 = self.latencies.iter().map(|&l| u128::from(l)).sum();
        total as f64 / self.latencies.len() as f64
    }

    /// True when the drain-time conservation audits found no violation.
    pub fn is_clean(&self) -> bool {
        self.audit.is_clean()
    }
}

/// Validates a run's engine-independent inputs: a non-empty fleet and
/// mix, time-sorted arrivals that index into the mix, and arrival times
/// and policy delays within [`MAX_CYCLES`].
fn validate(
    cfg: &ClusterConfig,
    mix: &WorkloadMix,
    arrivals: &[Arrival],
) -> Result<(), ClusterError> {
    if cfg.nodes == 0 || cfg.cores_per_node == 0 {
        return Err(ClusterError::NoNodes);
    }
    if cfg.nodes > 1 << 16 || cfg.queue_capacity >= 1 << 40 || cfg.cores_per_node > 1 << 8 {
        return Err(ClusterError::FleetTooLarge);
    }
    if mix.is_empty() {
        return Err(ClusterError::EmptyMix);
    }
    if let Autoscaler::TargetUtilization(ac) = cfg.autoscaler {
        ac.validate(cfg.nodes, cfg.cores_per_node)?;
    }
    cfg.keep_alive.validate()?;
    let mut prev = 0;
    for (i, a) in arrivals.iter().enumerate() {
        if a.workload >= mix.len() {
            return Err(ClusterError::InvalidArrivals(format!(
                "arrival {i} names workload {} of a {}-workload mix",
                a.workload,
                mix.len()
            )));
        }
        if a.time < prev {
            return Err(ClusterError::InvalidArrivals(format!(
                "arrival {i} at cycle {} precedes its predecessor at cycle {prev}",
                a.time
            )));
        }
        if a.time > MAX_CYCLES {
            return Err(ClusterError::InvalidArrivals(format!(
                "arrival {i} at cycle {} exceeds the clock bound {MAX_CYCLES}",
                a.time
            )));
        }
        prev = a.time;
    }
    Ok(())
}

/// Runs the fleet simulation over a pre-drawn arrival sequence and drains
/// it to quiescence. The fleet's events run on the calling thread; a
/// Measured engine may step its shared container histories ahead on
/// helper threads (one per spare [`pool::effective_jobs`] thread), which
/// changes no output and all return before this does. The arrival slice
/// must be time-sorted (as [`crate::arrival::generate_arrivals`]
/// produces) and every arrival must index into `mix`; anything else is
/// [`ClusterError::InvalidArrivals`]. A Profiled engine needs a profile
/// for every workload in the mix ([`ClusterError::MissingProfile`]) whose
/// costs keep the clock within [`MAX_CYCLES`] over the run
/// ([`ClusterError::InvalidProfile`]); a Measured engine must not name a
/// trace file ([`ClusterError::MeasuredTraceFile`]), and its machines
/// need 1 to [`SystemConfig::MAX_CORES`] cores
/// ([`ClusterError::InvalidCores`]) and no more physical memory than
/// their caches can address ([`ClusterError::InvalidPhysMem`]).
pub fn simulate(
    engine: Engine,
    cfg: &ClusterConfig,
    mix: &WorkloadMix,
    arrivals: &[Arrival],
) -> Result<ClusterResult, ClusterError> {
    validate(cfg, mix, arrivals)?;
    match engine {
        Engine::Measured(sys) => {
            // Container machines share op histories, so a machine's
            // outputs must depend on nothing but that history: no file
            // side effects.
            if let Some(path) = sys.trace.as_ref().and_then(|t| t.path.as_ref()) {
                return Err(ClusterError::MeasuredTraceFile(path.clone()));
            }
            let sys = container_config(sys, cfg.cores_per_node)?;
            let helpers = run_ahead_helpers(mix.len(), pool::effective_jobs(None));
            Ok(run_measured(sys, cfg, mix, arrivals, helpers))
        }
        Engine::Profiled(table) => {
            let model = Profiled::new(&table, mix, arrivals.len(), cfg.cold_start)?;
            Ok(run(model, cfg, mix, arrivals))
        }
    }
}

/// A Measured fleet's container machine config. Machines take the
/// node's core count, so a container's memory hierarchy matches the node
/// hardware; one core per node keeps the config's own count, which must
/// name at least one core and at most [`SystemConfig::MAX_CORES`]. Its
/// physical memory must fit the caches' address limit.
fn container_config(
    sys: Box<SystemConfig>,
    cores_per_node: usize,
) -> Result<Box<SystemConfig>, ClusterError> {
    let sys = if cores_per_node > 1 {
        Box::new(sys.with_cores(cores_per_node))
    } else {
        sys
    };
    if !(1..=SystemConfig::MAX_CORES).contains(&sys.cores()) {
        return Err(ClusterError::InvalidCores(sys.cores()));
    }
    let limit = sys.mem.addr_limit();
    if sys.phys_mem_bytes > limit {
        return Err(ClusterError::InvalidPhysMem {
            bytes: sys.phys_mem_bytes,
            limit,
        });
    }
    Ok(sys)
}

/// Run-ahead helper threads for a Measured fleet of `workloads`
/// workloads on `jobs` host threads: one per spare thread, at most one
/// per workload (one root each), so `MEMENTO_JOBS=1` starts none.
fn run_ahead_helpers(workloads: usize, jobs: usize) -> usize {
    jobs.saturating_sub(1).min(workloads)
}

/// Runs a Measured fleet over validated inputs, with `helpers` threads
/// stepping the workloads' shared histories ahead of the fleet
/// (DESIGN.md §10). The outputs are the same at any helper count; no
/// helper outlives the call.
fn run_measured(
    sys: Box<SystemConfig>,
    cfg: &ClusterConfig,
    mix: &WorkloadMix,
    arrivals: &[Arrival],
    helpers: usize,
) -> ClusterResult {
    let cycle = OpCycle::new(cfg.cold_start, cfg.keep_alive);
    let ahead = RunAhead::new(sys, cycle, mix);
    pool::with_helpers(
        helpers,
        || ahead.help(),
        || ahead.stop(),
        || run(Lineages::new(&ahead), cfg, mix, arrivals),
    )
}

/// Runs the fleet over validated inputs on one service model.
fn run<M: ServiceModel>(
    model: M,
    cfg: &ClusterConfig,
    mix: &WorkloadMix,
    arrivals: &[Arrival],
) -> ClusterResult {
    let mut sim = Sim::new(model, cfg, mix);
    sim.run(arrivals);
    sim.finish()
}

/// Sentinel for "no warm container" in a node's dense warm array.
const NO_WARM: u32 = u32::MAX;

/// Largest arrival time, keep-alive TTL, autoscaler interval or spin-up
/// delay a run accepts, in cycles, and the bound on a Profiled run's
/// total service charge. Every deadline is `now + delay`; with arrivals,
/// delays and accumulated service time each at most 2^62, their sum
/// cannot overflow the clock.
pub const MAX_CYCLES: u64 = 1 << 62;

#[derive(Clone, Copy, Debug)]
struct Queued {
    time: u64,
    workload: u32,
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    arrive_time: u64,
    slot: u32,
    workload: u32,
}

/// Sentinel completion key for an idle node (never selected: real event
/// times are finite).
const IDLE: (u64, u64) = (u64::MAX, u64::MAX);

/// Sentinel for "no keep-alive deadline" (same never-selected reasoning).
const NO_EXPIRY: (u64, u64) = (u64::MAX, u64::MAX);

struct Node {
    queue: VecDeque<Queued>,
}

/// Autoscaler lifecycle of one node. Without an autoscaler every node is
/// `Active` for the whole run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeState {
    /// Accepting placements and serving.
    Active,
    /// Scale-up decided; becomes `Active` when its boot event fires
    /// (spin-up delay elapsed). Accepts no placements meanwhile.
    Booting,
    /// Scale-down decided; accepts no new placements but finishes its
    /// queued/in-flight work, then turns `Off` (retiring its warm pool).
    Draining,
    /// Powered down: no load, no warm containers, no footprint.
    Off,
}

/// One container slab slot, generic over the service model's position.
struct Slot<P> {
    live: bool,
    node: u32,
    /// Frames currently charged to the fleet footprint.
    contrib: u64,
    /// True while pressure reclamation holds this idle-warm container at
    /// its record's squeeze floor; cleared by the next warm start (which
    /// pays the record's re-fault bill) and at retirement.
    squeezed: bool,
    /// The container's place in the service model. Costs live in the
    /// model, not in the slot, which keeps the slot a compact POD and the
    /// slab walks cache-dense.
    pos: P,
}

struct Sim<'a, M: ServiceModel> {
    model: M,
    cfg: &'a ClusterConfig,
    mix: &'a WorkloadMix,
    /// One seq counter shared by all five event sources, allocated in
    /// exactly the order a single-heap engine would push events — the
    /// total `(time, seq)` order is therefore identical.
    next_seq: u64,
    now: u64,
    nodes: Vec<Node>,
    /// Per-lane completion key `(done_time, seq)`, [`IDLE`] when the lane
    /// (node serving slot; `cores_per_node` lanes per node, lane index
    /// `node * cores_per_node + core`) is not serving. Kept as a compact
    /// parallel array so the event loop's min-scan stays cache-dense.
    done: Vec<(u64, u64)>,
    /// The in-flight request per lane when `done[lane] != IDLE`; stale
    /// garbage otherwise (the `done` sentinel is the single source of
    /// truth for whether the lane is serving, so no `Option` tag is paid
    /// here).
    serving: Vec<InFlight>,
    /// Cached minimum of `done` (the next completion), [`IDLE`] when no
    /// lane is serving. `start_service` can only lower it, and the event
    /// loop always fires the completion holding the minimum, so one
    /// rescan per completion keeps it exact — the loop itself never
    /// scans.
    done_min: (u64, u64),
    /// Lane holding `done_min` (meaningless while `done_min == IDLE`).
    done_min_lane: u32,
    /// Keep-alive deadline `(time, seq)` per warm-matrix entry (same
    /// index as `warm`), [`NO_EXPIRY`] unless the entry holds an
    /// idle-warm container under a timed keep-alive.
    deadline: Vec<(u64, u64)>,
    /// Cached minimum of `deadline`. A completion can only lower it; a
    /// firing expiry rescans. Clearing an entry leaves the cache alone, so
    /// a cached deadline whose container was reused or retired since
    /// still fires at its time, as a no-op (see [`Self::on_expiry`]).
    next_expiry: (u64, u64),
    /// Warm-matrix entry holding `next_expiry`.
    next_expiry_idx: u32,
    /// Pressure reclamation; `None` under [`Reclamation::None`].
    squeeze: Option<Squeeze>,
    /// `queue length + serving` per node; admission is `load <= capacity`
    /// (a node with an empty system has load 0).
    load: Vec<u32>,
    /// Least-loaded placement key per node without its warm bit:
    /// inadmissible (full or not `Active`) at bit 63, `load` from bit 16,
    /// the node index below. Refreshed wherever `load` or `node_state`
    /// changes, so an arrival's scan only ORs in the warm bit (bit 62).
    node_key: Vec<u64>,
    /// Idle-warm container slot per (workload, node), workload-major so a
    /// placement scan for one workload reads contiguous memory. `NO_WARM`
    /// when none. The flat replacement for the old per-node
    /// `BTreeMap<usize, u64>`.
    warm: Vec<u32>,
    node_invocations: Vec<u64>,
    /// Autoscaler lifecycle per node (all `Active` without one).
    node_state: Vec<NodeState>,
    /// The autoscaler; `None` on a fixed fleet.
    scale: Option<Scaling>,
    /// Background PM write cycles parks generated (off the latency
    /// path); `Some` exactly under [`KeepAlive::ParkToPM`], where every
    /// completion parks, so every idle-warm container is PM-parked and
    /// every warm start is a PM restore.
    pm_persist: Option<u64>,
    slots: Vec<Slot<M::Pos>>,
    free: Vec<u32>,
    /// Sanitizer findings absorbed from retired Measured machines (plus
    /// the ones still live at drain), merged into the fleet audit — a
    /// machine-level violation (e.g. a failed PM recovery audit) must
    /// fail `ClusterResult::is_clean`, not vanish with the container.
    machine_audit: SanitizerReport,
    live_count: u64,
    rr: usize,
    submitted: u64,
    completed: u64,
    rejected: u64,
    rejected_by: [u64; 2],
    in_flight: u64,
    cold_starts: u64,
    warm_starts: u64,
    expired: u64,
    retired: u64,
    fleet_now: u64,
    fleet_peak: u64,
    timeline: Vec<(u64, u64)>,
    latencies: Vec<u64>,
    latency_hist: Log2Hist,
    queue_wait_hist: Log2Hist,
}

/// LSD radix sort (8-bit digits, skipping passes above the maximum
/// value's top byte). The drain-time latency sort is ~15% of a large
/// run's wall time under a comparison sort; latencies span ~4 meaningful
/// bytes, so four counting passes beat `sort_unstable`'s ~19 comparison
/// levels severalfold. Output is the canonical ascending order, identical
/// to any correct sort.
fn radix_sort_u64(v: &mut Vec<u64>) {
    let Some(&max) = v.iter().max() else { return };
    let mut buf = vec![0u64; v.len()];
    let mut shift = 0u32;
    loop {
        let mut counts = [0usize; 256];
        for &x in v.iter() {
            counts[((x >> shift) & 0xff) as usize] += 1;
        }
        let mut offset = 0;
        for c in counts.iter_mut() {
            let n = *c;
            *c = offset;
            offset += n;
        }
        for &x in v.iter() {
            let d = ((x >> shift) & 0xff) as usize;
            buf[counts[d]] = x;
            counts[d] += 1;
        }
        std::mem::swap(v, &mut buf);
        shift += 8;
        if shift >= 64 || (max >> shift) == 0 {
            return;
        }
    }
}

/// The least `(time, seq)` key and its index; `(u64::MAX, u64::MAX)` (the
/// `IDLE`/`NO_EXPIRY` sentinel) at index 0 when every entry holds it, so
/// an all-empty array needs no special case. Used to rescan the per-lane
/// completion keys and the per-entry keep-alive deadlines after the
/// cached minimum fires.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "keys index lanes or warm entries, both far below 2^32"
)]
fn argmin(keys: &[(u64, u64)]) -> ((u64, u64), u32) {
    // Branchless select: event times are unpredictable, so a conditional
    // move beats a data-dependent branch per entry.
    let mut min = (u64::MAX, u64::MAX);
    let mut min_idx = 0u32;
    for (i, &key) in keys.iter().enumerate() {
        let better = key < min;
        min = if better { key } else { min };
        min_idx = if better { i as u32 } else { min_idx };
    }
    (min, min_idx)
}

/// Folds a machine's sanitizer report into the fleet-level audit
/// accumulator.
fn absorb(acc: &mut SanitizerReport, r: &SanitizerReport) {
    acc.violations.extend(r.violations.iter().cloned());
    acc.events += r.events;
    acc.ops += r.ops;
    acc.audits += r.audits;
    acc.oracle_ops += r.oracle_ops;
}

const REJECT_REASONS: [RejectReason; 2] = [RejectReason::QueueFull, RejectReason::ClusterSaturated];

fn reject_index(reason: RejectReason) -> usize {
    match reason {
        RejectReason::QueueFull => 0,
        RejectReason::ClusterSaturated => 1,
    }
}

impl<'a, M: ServiceModel> Sim<'a, M> {
    fn new(model: M, cfg: &'a ClusterConfig, mix: &'a WorkloadMix) -> Self {
        let scale = match cfg.autoscaler {
            Autoscaler::TargetUtilization(ac) => Some(Scaling {
                cfg: ac,
                boots: VecDeque::new(),
                next_tick: None,
                committed: cfg.nodes,
                peak: cfg.nodes as u64,
                ups: 0,
                downs: 0,
            }),
            Autoscaler::None => None,
        };
        // With an autoscaler, every array is sized for the controller's
        // hardware bound; nodes beyond the initial fleet start `Off`.
        let total_nodes = scale.as_ref().map_or(cfg.nodes, |sc| sc.cfg.max_nodes);
        let squeeze = match cfg.reclamation {
            Reclamation::Squeeze { watermark_frames } => Some(Squeeze {
                watermark: watermark_frames,
                mask: vec![0; (total_nodes * mix.len()).div_ceil(64)],
                count: 0,
            }),
            Reclamation::None => None,
        };
        let nodes: Vec<Node> = (0..total_nodes)
            .map(|_| Node {
                queue: VecDeque::new(),
            })
            .collect();
        let mut node_state = vec![NodeState::Off; total_nodes];
        node_state[..cfg.nodes].fill(NodeState::Active);
        let lanes = total_nodes * cfg.cores_per_node;
        let mut sim = Sim {
            model,
            cfg,
            mix,
            next_seq: 0,
            now: 0,
            nodes,
            done: vec![IDLE; lanes],
            serving: vec![
                InFlight {
                    arrive_time: 0,
                    slot: 0,
                    workload: 0,
                };
                lanes
            ],
            done_min: IDLE,
            done_min_lane: 0,
            deadline: vec![NO_EXPIRY; total_nodes * mix.len()],
            next_expiry: NO_EXPIRY,
            next_expiry_idx: 0,
            squeeze,
            load: vec![0; total_nodes],
            node_key: vec![0; total_nodes],
            warm: vec![NO_WARM; total_nodes * mix.len()],
            node_invocations: vec![0; total_nodes],
            node_state,
            scale,
            pm_persist: matches!(cfg.keep_alive, KeepAlive::ParkToPM { .. }).then_some(0),
            slots: Vec::new(),
            free: Vec::new(),
            machine_audit: SanitizerReport::default(),
            live_count: 0,
            rr: 0,
            submitted: 0,
            completed: 0,
            rejected: 0,
            rejected_by: [0; 2],
            in_flight: 0,
            cold_starts: 0,
            warm_starts: 0,
            expired: 0,
            retired: 0,
            fleet_now: 0,
            fleet_peak: 0,
            timeline: Vec::new(),
            latencies: Vec::new(),
            latency_hist: Log2Hist::new(),
            queue_wait_hist: Log2Hist::new(),
        };
        for node in 0..total_nodes {
            sim.refresh_node_key(node);
        }
        sim
    }

    #[inline]
    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn run(&mut self, arrivals: &[Arrival]) {
        let _prof = selfprof::span("cluster.sim.run");
        self.latencies.reserve(arrivals.len());
        // The pending arrival: `(time, seq, index)`. Stamped when its
        // predecessor is processed — exactly when the single-heap engine
        // pushed it — so the shared seq order is unchanged.
        let mut next_arrival: Option<(u64, u64, usize)> = None;
        if let Some(first) = arrivals.first() {
            next_arrival = Some((first.time, self.alloc_seq(), 0));
        }
        // The first controller tick is stamped *after* the first-arrival
        // seq, and only when the autoscaler is on — a disabled feature
        // allocates no seq, so the default path's (time, seq) stream is
        // bit-identical to the fixed-fleet engine.
        if let Some(sc) = &mut self.scale {
            sc.next_tick = Some((sc.cfg.interval_cycles, self.next_seq));
            self.next_seq += 1;
        }
        #[derive(Clone, Copy)]
        enum Src {
            Arrival,
            Completion(u32),
            Expiry,
            Boot,
            Tick,
        }
        loop {
            // Pick the earliest (time, seq) across the five sources: the
            // arrival cursor, the per-lane completion slots, the cached
            // keep-alive deadline and, with an autoscaler, pending node
            // boots and the controller tick. Seqs are unique, so the
            // winner is unique.
            let mut best: Option<((u64, u64), Src)> = None;
            if let Some((t, s, _)) = next_arrival {
                best = Some(((t, s), Src::Arrival));
            }
            if self.done_min != IDLE && best.is_none_or(|(bk, _)| self.done_min < bk) {
                best = Some((self.done_min, Src::Completion(self.done_min_lane)));
            }
            if self.next_expiry != NO_EXPIRY && best.is_none_or(|(bk, _)| self.next_expiry < bk) {
                best = Some((self.next_expiry, Src::Expiry));
            }
            if let Some(sc) = &self.scale {
                if let Some(&(t, s, _)) = sc.boots.front() {
                    if best.is_none_or(|(bk, _)| (t, s) < bk) {
                        best = Some(((t, s), Src::Boot));
                    }
                }
                if let Some(tick) = sc.next_tick {
                    if best.is_none_or(|(bk, _)| tick < bk) {
                        best = Some((tick, Src::Tick));
                    }
                }
            }
            let Some(((time, _), src)) = best else { break };
            debug_assert!(time >= self.now, "simulated time must not run backwards");
            if time > self.now {
                // All events at the previous instant have applied: sample
                // the settled footprint into the peak before advancing.
                self.settle_peak();
                self.now = time;
            }
            match src {
                Src::Arrival => {
                    let (_, _, index) = next_arrival.take().expect("arrival source chosen");
                    if index + 1 < arrivals.len() {
                        next_arrival =
                            Some((arrivals[index + 1].time, self.alloc_seq(), index + 1));
                    }
                    self.on_arrival(&arrivals[index]);
                }
                Src::Completion(lane) => self.on_completion(lane as usize),
                Src::Expiry => self.on_expiry(),
                Src::Boot => {
                    let (_, _, node) = (self.scale.as_mut())
                        .and_then(|sc| sc.boots.pop_front())
                        .expect("boot source chosen");
                    self.on_boot(node as usize);
                }
                Src::Tick => {
                    // Re-arm only while work remains (pending arrivals or
                    // accepted invocations); otherwise the controller
                    // stops and the run drains through expiries alone.
                    let more = next_arrival.is_some() || self.in_flight > 0;
                    let mut sc = self.scale.take().expect("tick source chosen");
                    self.on_tick(&mut sc, more);
                    self.scale = Some(sc);
                }
            }
            #[cfg(debug_assertions)]
            self.audit_indices();
        }
    }

    fn on_arrival(&mut self, a: &Arrival) {
        self.submitted += 1;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "workload ids index the mix table, far below 2^32"
        )]
        let workload = a.workload as u32;
        match self.place(a.workload) {
            Ok(node) => {
                self.in_flight += 1;
                self.load[node] += 1;
                self.refresh_node_key(node);
                if let Some(lane) = self.idle_lane(node) {
                    self.start_service(lane, a.time, workload);
                } else {
                    self.nodes[node].queue.push_back(Queued {
                        time: a.time,
                        workload,
                    });
                }
            }
            Err(reason) => {
                self.rejected += 1;
                self.rejected_by[reject_index(reason)] += 1;
            }
        }
    }

    /// Admission check: the per-node system (queue + serving lanes) has
    /// room. A node admits while its queued backlog (`load` minus the
    /// lanes it can serve on) stays below capacity — `load < capacity +
    /// cores_per_node`, which at one lane is the original `load <=
    /// capacity`.
    #[inline]
    fn has_space(&self, node: usize) -> bool {
        (self.load[node] as usize) < self.cfg.queue_capacity + self.cfg.cores_per_node
    }

    /// First idle serving lane of `node` (`None` when every core is
    /// busy). Index order makes lane choice deterministic.
    #[inline]
    fn idle_lane(&self, node: usize) -> Option<usize> {
        let lanes = self.cfg.cores_per_node;
        (node * lanes..(node + 1) * lanes).find(|&l| self.done[l] == IDLE)
    }

    /// Index into the workload-major warm matrix (row width is the
    /// *total* node count — the autoscaler's hardware bound).
    #[inline]
    fn warm_idx(&self, workload: u32, node: usize) -> usize {
        workload as usize * self.nodes.len() + node
    }

    /// Recomputes `node`'s placement key from its `load` and state.
    #[inline]
    fn refresh_node_key(&mut self, node: usize) {
        self.node_key[node] = self.node_key_of(node);
    }

    /// `node`'s placement key from ground truth (inactive nodes fold into
    /// the inadmissible bit; all nodes are active without an autoscaler).
    fn node_key_of(&self, node: usize) -> u64 {
        let inadmissible = !self.has_space(node) || self.node_state[node] != NodeState::Active;
        u64::from(inadmissible) << 63 | u64::from(self.load[node]) << 16 | node as u64
    }

    /// Makes `slot` the idle-warm container of entry `widx` (unsqueezed,
    /// no deadline yet) and returns the container it displaced, if any.
    /// A container parked in persistent memory holds no squeezable DRAM,
    /// so under park-to-PM no container is a squeeze candidate.
    #[inline]
    fn put_warm(&mut self, widx: usize, slot: u32) -> u32 {
        if let (Some(sq), None) = (&mut self.squeeze, self.pm_persist) {
            sq.mask[widx / 64] |= 1 << (widx % 64);
        }
        std::mem::replace(&mut self.warm[widx], slot)
    }

    /// Empties warm entry `widx`: clears its deadline and squeeze bit and
    /// returns the container it held. The cached `next_expiry` is left
    /// as it is, even when it names this entry.
    #[inline]
    fn take_warm(&mut self, widx: usize) -> u32 {
        self.deadline[widx] = NO_EXPIRY;
        if let Some(sq) = &mut self.squeeze {
            sq.mask[widx / 64] &= !(1 << (widx % 64));
        }
        std::mem::replace(&mut self.warm[widx], NO_WARM)
    }

    fn place(&mut self, workload: usize) -> Result<usize, RejectReason> {
        match self.cfg.placement {
            Placement::RoundRobin => {
                // Rotate to the next *active* node; booting, draining and
                // off nodes take no new placements. On a fixed fleet every
                // node is active, so the first step places.
                let n = self.nodes.len();
                for _ in 0..n {
                    let node = self.rr % n;
                    self.rr += 1;
                    if self.node_state[node] == NodeState::Active {
                        return if self.has_space(node) {
                            Ok(node)
                        } else {
                            Err(RejectReason::QueueFull)
                        };
                    }
                }
                Err(RejectReason::ClusterSaturated)
            }
            Placement::LeastLoaded => {
                // Warm-affinity least-loaded over two compact arrays: the
                // per-node keys and this workload's row of the warm matrix
                // (contiguous by construction). The preference order
                // (admissible, then warm, then load, then index) is one
                // u64 key, so the scan is a branchless argmin — data-
                // dependent branch misses per arrival would cost more
                // than the scan itself.
                let n = self.nodes.len();
                let warm_row = &self.warm[workload * n..][..n];
                let mut best = u64::MAX;
                for (&key, &warm) in self.node_key.iter().zip(warm_row) {
                    best = best.min(key | u64::from(warm == NO_WARM) << 62);
                }
                if best >> 63 == 0 {
                    Ok((best & 0xffff) as usize)
                } else {
                    Err(RejectReason::ClusterSaturated)
                }
            }
        }
    }

    /// Starts one invocation on an idle serving lane (global lane index:
    /// `node * cores_per_node + core`).
    fn start_service(&mut self, lane: usize, arrive_time: u64, workload: u32) {
        debug_assert_eq!(self.done[lane], IDLE, "start_service targets an idle lane");
        let node = lane / self.cfg.cores_per_node;
        let widx = self.warm_idx(workload, node);
        let warm_slot = self.warm[widx];
        let (slot, service) = if warm_slot != NO_WARM {
            self.take_warm(widx);
            self.warm_starts += 1;
            let c = &mut self.slots[warm_slot as usize];
            debug_assert!(c.live, "warm slot is live");
            // A squeezed container pays its re-fault bill here: the frames
            // pressure reclamation took must page back in before serving.
            let refault = if std::mem::take(&mut c.squeezed) {
                self.model.record(c.pos).squeeze_refault
            } else {
                0
            };
            // A PM-parked container pays the restore premium: recovery
            // plus sealed-image replay (or demand refault on baselines) on
            // top of the warm service time.
            let pm_restore = self.pm_persist.is_some();
            let r = self.model.apply(&mut c.pos, Op::Invoke { pm_restore });
            self.set_contrib(warm_slot, r.serving_peak);
            (warm_slot, r.cycles + refault)
        } else {
            // A full cold boot, or a REAP-style snapshot restore whose
            // stable working set is prefetched instead of rebuilt (its
            // service time lands between a warm hit and a cold boot).
            self.cold_starts += 1;
            let (pos, r) = self.model.boot(workload);
            let slot = self.alloc_slot(node, pos);
            self.set_contrib(slot, r.serving_peak);
            (slot, r.cycles)
        };
        if let Some(mut sq) = self.squeeze.take() {
            self.squeeze_pass(&mut sq);
            self.squeeze = Some(sq);
        }
        self.node_invocations[node] += 1;
        let done_time = self.now + service.max(1);
        let seq = self.alloc_seq();
        self.done[lane] = (done_time, seq);
        if (done_time, seq) < self.done_min {
            self.done_min = (done_time, seq);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "lane indexes nodes * cores_per_node, far below 2^32"
            )]
            let lane = lane as u32;
            self.done_min_lane = lane;
        }
        self.serving[lane] = InFlight {
            arrive_time,
            slot,
            workload,
        };
    }

    /// Allocates a slab slot for a fresh container (recycling retired
    /// slots).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "node indexes cfg.nodes and slots are bounded by live containers, both far below 2^32"
    )]
    fn alloc_slot(&mut self, node: usize, pos: M::Pos) -> u32 {
        self.live_count += 1;
        let fresh = Slot {
            live: true,
            node: node as u32,
            contrib: 0,
            squeezed: false,
            pos,
        };
        if let Some(slot) = self.free.pop() {
            debug_assert!(
                !self.slots[slot as usize].live,
                "free list must only hold retired slots"
            );
            self.slots[slot as usize] = fresh;
            slot
        } else {
            self.slots.push(fresh);
            (self.slots.len() - 1) as u32
        }
    }

    fn set_contrib(&mut self, slot: u32, new: u64) {
        let c = &mut self.slots[slot as usize];
        if new == c.contrib {
            return;
        }
        self.fleet_now = self.fleet_now - c.contrib + new;
        c.contrib = new;
        if self.cfg.record_timeline {
            match self.timeline.last_mut() {
                Some((t, v)) if *t == self.now => *v = self.fleet_now,
                _ => self.timeline.push((self.now, self.fleet_now)),
            }
        }
    }

    /// Folds the settled footprint at the just-finished instant into the
    /// peak. Sampling at instant boundaries (instead of after every
    /// individual contribution change) makes the peak independent of how
    /// same-instant events interleave.
    fn settle_peak(&mut self) {
        self.fleet_peak = self.fleet_peak.max(self.fleet_now);
    }

    fn on_completion(&mut self, lane: usize) {
        debug_assert_ne!(self.done[lane], IDLE, "completion fired on an idle lane");
        let node = lane / self.cfg.cores_per_node;
        let inflight = self.serving[lane];
        let slot = inflight.slot;
        debug_assert_eq!(self.done[lane].0, self.now, "completion fired off-time");
        debug_assert_eq!(
            self.done_min_lane as usize, lane,
            "completions fire on the cached minimum"
        );
        self.done[lane] = IDLE;
        (self.done_min, self.done_min_lane) = argmin(&self.done);
        self.load[node] -= 1;
        self.refresh_node_key(node);
        self.completed += 1;
        self.in_flight -= 1;
        let latency = self.now - inflight.arrive_time;
        self.latencies.push(latency);
        self.latency_hist.record(latency);

        // The container goes idle-warm: park it (shed the pool's free
        // reserve back to the OS) and charge only what stays
        // unreclaimable, then let the keep-alive policy decide its fate.
        let pos = &mut self.slots[slot as usize].pos;
        let idle = self.model.apply(pos, Op::Park).idle_frames;
        self.set_contrib(slot, idle);
        let keep_alive = self.cfg.keep_alive;
        if keep_alive == KeepAlive::None {
            self.retire(slot);
        } else {
            if let Some(persist) = &mut self.pm_persist {
                // Park the idle container's state into persistent memory
                // (Measured machines run the real crash-consistent
                // checkpoint): near-zero DRAM while idle, a PM restore on
                // the next hit, eviction when the retention TTL lapses.
                // The persist cycles are background PM write traffic, off
                // the latency path.
                let r = self
                    .model
                    .apply(&mut self.slots[slot as usize].pos, Op::ParkToPm);
                *persist += r.cycles;
                self.set_contrib(slot, r.idle_frames);
            }
            let widx = self.warm_idx(inflight.workload, node);
            let old = self.put_warm(widx, slot);
            if old != NO_WARM {
                self.retire(old);
            }
            if let Some(ttl) = keep_alive.ttl(idle) {
                // `validate` bounds arrivals and TTLs by `MAX_CYCLES`.
                let key = (self.now + ttl, self.alloc_seq());
                self.deadline[widx] = key;
                if key < self.next_expiry {
                    self.next_expiry = key;
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "widx indexes max_nodes (<= 2^16) x mix, far below 2^32"
                    )]
                    let widx = widx as u32;
                    self.next_expiry_idx = widx;
                }
            }
        }

        // Pull the next queued request onto the lane that just freed,
        // warm-starting on the container we just parked if the workload
        // matches. A draining node that just went empty powers off
        // instead.
        if let Some(q) = self.nodes[node].queue.pop_front() {
            self.queue_wait_hist.record(self.now - q.time);
            self.start_service(lane, q.time, q.workload);
        } else if self.node_state[node] == NodeState::Draining && self.load[node] == 0 {
            self.node_off(node);
        }
    }

    /// Fires the cached next keep-alive deadline, then rescans for the
    /// next one. If the entry no longer holds that deadline (its
    /// container was reused or retired after the deadline was cached),
    /// the dispatch is a no-op that has only advanced the clock to its
    /// time — kept so makespans match the engine's defined event order.
    fn on_expiry(&mut self) {
        let widx = self.next_expiry_idx as usize;
        if self.deadline[widx] == self.next_expiry {
            let slot = self.take_warm(widx);
            self.expired += 1;
            self.retire(slot);
        }
        (self.next_expiry, self.next_expiry_idx) = argmin(&self.deadline);
    }

    fn retire(&mut self, slot: u32) {
        self.set_contrib(slot, 0);
        let c = &mut self.slots[slot as usize];
        debug_assert!(c.live, "retire targets a live container");
        c.live = false;
        c.squeezed = false;
        if let Some(report) = self.model.release(c.pos) {
            absorb(&mut self.machine_audit, &report);
        }
        self.free.push(slot);
        self.live_count -= 1;
        self.retired += 1;
    }

    /// Debug builds, after every event: recomputes the incremental
    /// indices (deadlines, squeeze mask, placement keys) from ground
    /// truth — `warm`, the slots, `load` and `node_state`.
    #[cfg(debug_assertions)]
    fn audit_indices(&self) {
        // Plain index loops and scalar compares: this runs per event in
        // unoptimized builds.
        let timed = self.cfg.keep_alive.ttl(0).is_some();
        let mut live_min = NO_EXPIRY;
        for widx in 0..self.warm.len() {
            let slot = self.warm[widx];
            let idle_warm = slot != NO_WARM;
            let deadline = self.deadline[widx];
            let has_deadline = deadline.0 != NO_EXPIRY.0;
            assert!(
                has_deadline == (idle_warm && timed),
                "warm entry {widx}: a deadline exactly while idle-warm under a timed keep-alive"
            );
            if has_deadline {
                assert!(
                    deadline.0 >= self.now,
                    "warm entry {widx}: deadline in the past"
                );
                live_min = live_min.min(deadline);
            }
            let bit = (self.squeeze.as_ref())
                .is_some_and(|sq| sq.mask[widx / 64] >> (widx % 64) & 1 == 1);
            let candidate =
                idle_warm && self.pm_persist.is_none() && !self.slots[slot as usize].squeezed;
            assert!(
                bit == (self.squeeze.is_some() && candidate),
                "warm entry {widx}: squeeze bit exactly while squeezing, idle-warm, unsqueezed and not PM-parked"
            );
        }
        assert!(
            self.next_expiry <= live_min,
            "the cached deadline never passes a live one"
        );
        for node in 0..self.nodes.len() {
            assert!(
                self.node_key[node] == self.node_key_of(node),
                "node {node} key"
            );
        }
    }

    fn finish(mut self) -> ClusterResult {
        let _prof = selfprof::span("cluster.sim.finish");
        self.settle_peak();
        debug_assert!(
            self.done.iter().all(|&d| d == IDLE) && self.nodes.iter().all(|n| n.queue.is_empty()),
            "drained fleet must be quiescent"
        );
        let mut auditor = FleetAuditor::new();
        auditor.audit_invocations(
            self.next_seq,
            InvocationCounts {
                submitted: self.submitted,
                completed: self.completed,
                rejected: self.rejected,
                in_flight: self.in_flight,
            },
            true,
        );
        // Recount from the model's records, not from `contrib` — this is
        // what catches incremental-accounting drift. A live container idles
        // at the record it parked with, or at that record's squeeze floor
        // while pressure reclamation has its data pages.
        let per_node: Vec<(usize, u64)> = self
            .slots
            .iter()
            .filter(|c| c.live)
            .map(|c| {
                let r = self.model.record(c.pos);
                let frames = if c.squeezed {
                    r.squeeze_floor
                } else {
                    r.idle_frames
                };
                (c.node as usize, frames)
            })
            .collect();
        auditor.audit_fleet_frames(self.next_seq, self.fleet_now, per_node);
        let mut metrics = MetricsRegistry::new();
        if let Some(sc) = &self.scale {
            self.finish_scaling(sc, &mut auditor, &mut metrics);
        }

        // Machines still live at drain keep their sanitizer findings too:
        // fold them in so fleet cleanliness covers every container, not
        // just the retired ones.
        for c in self.slots.iter().filter(|c| c.live) {
            if let Some(report) = self.model.report(c.pos) {
                absorb(&mut self.machine_audit, report);
            }
        }

        metrics.add("cluster.submitted", self.submitted);
        metrics.add("cluster.completed", self.completed);
        metrics.add("cluster.rejected", self.rejected);
        metrics.add("cluster.cold_starts", self.cold_starts);
        metrics.add("cluster.warm_starts", self.warm_starts);
        metrics.add("cluster.expired", self.expired);
        // Region-layer metrics are emitted only when their feature is on,
        // so the default fixed-fleet render stays byte-identical. Under
        // snapshot starts every cold start is a restore; under park-to-PM
        // every completion parks and every warm start restores.
        let snapshot = self.cfg.cold_start == ColdStart::Snapshot;
        let restores = if snapshot { self.cold_starts } else { 0 };
        if snapshot {
            metrics.add("cluster.restores", restores);
        }
        if let Some(sq) = &self.squeeze {
            metrics.add("cluster.squeezed", sq.count);
        }
        let (pm_parks, pm_restores) = match self.pm_persist {
            Some(persist) => {
                metrics.add("cluster.pm_parks", self.completed);
                metrics.add("cluster.pm_restores", self.warm_starts);
                metrics.add("cluster.pm_persist_cycles", persist);
                (self.completed, self.warm_starts)
            }
            None => (0, 0),
        };
        self.model.add_metrics(&mut metrics);
        metrics.set("cluster.peak_fleet_frames", self.fleet_peak);
        metrics.set("cluster.final_fleet_frames", self.fleet_now);
        metrics.set("cluster.makespan_cycles", self.now);
        for (node, count) in self.node_invocations.iter().enumerate() {
            metrics.set(&format!("cluster.node{node:03}.invocations"), *count);
        }
        metrics.set_hist("cluster.latency_cycles", self.latency_hist.clone());
        metrics.set_hist("cluster.queue_wait_cycles", self.queue_wait_hist.clone());

        radix_sort_u64(&mut self.latencies);
        #[expect(
            clippy::disallowed_types,
            reason = "drain-time fold of a 2-entry array"
        )]
        let mut rejected_by = BTreeMap::new();
        for (i, reason) in REJECT_REASONS.iter().enumerate() {
            if self.rejected_by[i] > 0 {
                rejected_by.insert(*reason, self.rejected_by[i]);
            }
        }
        let mut audit = auditor.into_report();
        absorb(&mut audit, &self.machine_audit);

        ClusterResult {
            submitted: self.submitted,
            completed: self.completed,
            rejected: self.rejected,
            rejected_by,
            cold_starts: self.cold_starts,
            warm_starts: self.warm_starts,
            expired: self.expired,
            retired: self.retired,
            live_containers: self.live_count,
            restores,
            squeezed: self.squeeze.as_ref().map_or(0, |sq| sq.count),
            pm_parks,
            pm_restores,
            peak_active_nodes: (self.scale.as_ref()).map_or(self.cfg.nodes as u64, |sc| sc.peak),
            makespan_cycles: self.now,
            peak_fleet_frames: self.fleet_peak,
            final_fleet_frames: self.fleet_now,
            timeline: self.timeline,
            latencies: self.latencies,
            metrics,
            audit,
        }
    }
}

/// Pressure-reclamation state; present only under [`Reclamation::Squeeze`],
/// where a squeeze pass follows every start.
struct Squeeze {
    /// Fleet footprint (frames) above which idle containers squeeze.
    watermark: u64,
    /// Candidates: bit `widx` is set while `warm[widx]` holds an
    /// idle-warm container that is neither squeezed nor PM-parked.
    mask: Vec<u64>,
    /// Containers squeezed so far.
    count: u64,
}

impl<M: ServiceModel> Sim<'_, M> {
    /// Squeezy-style pressure pass: while the fleet footprint sits above
    /// the watermark, squeeze idle-warm containers (warm-matrix index
    /// order — deterministic) down to their unreclaimable floor. The
    /// squeezed container stays warm; its next warm start repays the
    /// evicted frames through its record's re-fault bill.
    fn squeeze_pass(&mut self, sq: &mut Squeeze) {
        if self.fleet_now <= sq.watermark {
            return;
        }
        // Squeezing a candidate clears its bit, so each mask word walks
        // down to zero in plain index order.
        for (w, word) in sq.mask.iter_mut().enumerate() {
            while *word != 0 {
                let widx = w * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                sq.count += 1;
                let slot = self.warm[widx];
                let c = &mut self.slots[slot as usize];
                c.squeezed = true;
                let floor = self.model.record(c.pos).squeeze_floor;
                self.set_contrib(slot, floor);
                if self.fleet_now <= sq.watermark {
                    return;
                }
            }
        }
    }
}

/// Autoscaler state; present only under [`Autoscaler::TargetUtilization`].
/// Node lifecycles stay in `Sim::node_state`, which placement and
/// admission read on every fleet.
struct Scaling {
    cfg: AutoscalerConfig,
    /// Pending node-boot events `(time, seq, node)`. Spin-up delay is
    /// constant, so push times are monotone and a FIFO pops them in
    /// `(time, seq)` order.
    boots: VecDeque<(u64, u64, u32)>,
    /// Next controller tick; `None` once the controller stops re-arming
    /// at drain.
    next_tick: Option<(u64, u64)>,
    /// Nodes currently `Active` or `Booting` — the capacity the
    /// controller has committed to — and the peak of that count.
    committed: usize,
    peak: u64,
    /// Scale-up decisions (reactivations and boots).
    ups: u64,
    /// Scale-down decisions.
    downs: u64,
}

impl<M: ServiceModel> Sim<'_, M> {
    /// One autoscaler controller tick: size the committed fleet so
    /// in-flight work tracks the target utilization of active serving
    /// capacity, then re-arm while work remains.
    fn on_tick(&mut self, sc: &mut Scaling, more: bool) {
        let ac = sc.cfg;
        // want = ceil(in_flight / (cores_per_node × target%)) nodes,
        // clamped to the controller's range. Integer arithmetic only.
        let capacity_unit = (self.cfg.cores_per_node as u64 * ac.target_load_pct).max(1);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "want is clamped to max_nodes, a usize"
        )]
        let want = (self.in_flight * 100)
            .div_ceil(capacity_unit)
            .clamp(ac.min_nodes as u64, ac.max_nodes as u64) as usize;
        while sc.committed < want && self.scale_up_one(sc) {}
        while sc.committed > want && self.scale_down_one(sc) {}
        sc.next_tick = more.then(|| (self.now + ac.interval_cycles, self.alloc_seq()));
    }

    /// Commits one more node: reactivate a draining node (still warm, no
    /// delay) if one exists, else boot the lowest-numbered off node after
    /// the spin-up delay. Returns false when no node is available.
    fn scale_up_one(&mut self, sc: &mut Scaling) -> bool {
        if let Some(node) =
            (0..self.nodes.len()).find(|&n| self.node_state[n] == NodeState::Draining)
        {
            self.node_state[node] = NodeState::Active;
            self.refresh_node_key(node);
        } else if let Some(node) =
            (0..self.nodes.len()).find(|&n| self.node_state[n] == NodeState::Off)
        {
            self.node_state[node] = NodeState::Booting;
            self.refresh_node_key(node);
            let seq = self.alloc_seq();
            #[expect(
                clippy::cast_possible_truncation,
                reason = "node indexes max_nodes <= 2^16"
            )]
            let node = node as u32;
            sc.boots
                .push_back((self.now + sc.cfg.spinup_cycles, seq, node));
        } else {
            return false;
        }
        sc.ups += 1;
        sc.committed += 1;
        sc.peak = sc.peak.max(sc.committed as u64);
        true
    }

    /// Uncommits one node: the highest-numbered active node drains (no
    /// new placements; it finishes queued/in-flight work, then turns
    /// off). Returns false when only booting nodes remain to uncommit —
    /// a boot in flight is left to land rather than cancelled.
    fn scale_down_one(&mut self, sc: &mut Scaling) -> bool {
        let Some(node) = (0..self.nodes.len())
            .rev()
            .find(|&n| self.node_state[n] == NodeState::Active)
        else {
            return false;
        };
        self.node_state[node] = NodeState::Draining;
        self.refresh_node_key(node);
        sc.downs += 1;
        sc.committed -= 1;
        if self.load[node] == 0 {
            self.node_off(node);
        }
        true
    }

    /// A booted node joins the active set.
    fn on_boot(&mut self, node: usize) {
        debug_assert_eq!(
            self.node_state[node],
            NodeState::Booting,
            "boot events only land on booting nodes"
        );
        self.node_state[node] = NodeState::Active;
        self.refresh_node_key(node);
    }

    /// Powers a drained node off, retiring its idle-warm containers and
    /// clearing their warm entries with their keep-alive deadlines. If
    /// the cached next deadline was one of them, it still fires at its
    /// time as a no-op (see [`Self::on_expiry`]).
    fn node_off(&mut self, node: usize) {
        debug_assert_eq!(self.load[node], 0, "node_off requires a drained node");
        for workload in 0..self.mix.len() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "workload ids index the mix table, far below 2^32"
            )]
            let widx = self.warm_idx(workload as u32, node);
            if self.warm[widx] != NO_WARM {
                let slot = self.take_warm(widx);
                self.retire(slot);
            }
        }
        self.node_state[node] = NodeState::Off;
        self.refresh_node_key(node);
    }

    /// Drain-time checks and metrics of the autoscaler: a node outside
    /// the active set must hold nothing (scale-down retired its warm
    /// pool).
    fn finish_scaling(
        &self,
        sc: &Scaling,
        auditor: &mut FleetAuditor,
        metrics: &mut MetricsRegistry,
    ) {
        let mut warm_counts = vec![0u64; self.nodes.len()];
        for &slot in &self.warm {
            if slot != NO_WARM {
                warm_counts[self.slots[slot as usize].node as usize] += 1;
            }
        }
        auditor.audit_node_lifecycle(
            self.next_seq,
            (0..self.nodes.len()).map(|n| {
                (
                    n,
                    self.node_state[n] == NodeState::Active,
                    self.load[n] as u64,
                    warm_counts[n],
                )
            }),
        );
        metrics.add("cluster.scale_ups", sc.ups);
        metrics.add("cluster.scale_downs", sc.downs);
        metrics.set("cluster.peak_active_nodes", sc.peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{generate_arrivals, ArrivalConfig};
    use crate::lineage::reference::PerContainer;
    use crate::policy::AutoscalerConfig;
    use crate::profile::{calibrate, ServiceProfile};
    use memento_workloads::suite;

    fn small_spec(name: &str) -> memento_workloads::spec::WorkloadSpec {
        let mut s = suite::by_name(name).expect("known workload");
        s.total_instructions = 200_000;
        s
    }

    fn synthetic_table(mix: &WorkloadMix) -> ProfileTable {
        // Hand-built profiles keep unit tests fast and make the expected
        // dynamics easy to reason about.
        let mut t = ProfileTable::new();
        for (i, spec) in mix.specs().iter().enumerate() {
            t.insert(ServiceProfile {
                workload: spec.name.clone(),
                cold_cycles: 100_000 + 10_000 * i as u64,
                warm_cycles: 10_000 + 1_000 * i as u64,
                active_frames: 200 + 10 * i as u64,
                idle_frames: 40 + 2 * i as u64,
                restore_cycles: 30_000 + 3_000 * i as u64,
                squeeze_floor_frames: 10 + i as u64,
                squeeze_refault_cycles: 5_000 + 500 * i as u64,
                pm_restore_cycles: 20_000 + 2_000 * i as u64,
                pm_persist_cycles: 8_000 + 800 * i as u64,
            });
        }
        t
    }

    fn two_mix() -> WorkloadMix {
        WorkloadMix::uniform(vec![small_spec("aes"), small_spec("html")]).expect("non-empty")
    }

    fn run_profiled(
        cfg: &ClusterConfig,
        arrival: &ArrivalConfig,
        mix: &WorkloadMix,
    ) -> ClusterResult {
        let arrivals = generate_arrivals(arrival, mix).expect("valid arrivals");
        simulate(Engine::Profiled(synthetic_table(mix)), cfg, mix, &arrivals)
            .expect("valid cluster run")
    }

    #[test]
    fn radix_sort_matches_comparison_sort() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![7],
            vec![0, 0, 0],
            vec![u64::MAX, 0, u64::MAX - 1, 1],
            vec![256, 1, 65536, 255, 257, 65535, 1 << 40, (1 << 40) - 1],
            (0..10_000u64)
                .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17))
                .collect(),
        ];
        for mut v in cases {
            let mut expect = v.clone();
            expect.sort_unstable();
            radix_sort_u64(&mut v);
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn drains_conserves_and_audits_clean() {
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 4,
            queue_capacity: 8,
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 11,
            count: 2_000,
            mean_interarrival_cycles: 4_000.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert_eq!(r.submitted, 2_000);
        assert_eq!(r.submitted, r.completed + r.rejected);
        assert!(r.is_clean(), "fleet audits must pass: {}", r.audit);
        assert_eq!(r.latencies.len() as u64, r.completed);
        assert_eq!(r.cold_starts + r.warm_starts, r.completed);
        assert!(r.peak_fleet_frames >= r.final_fleet_frames);
        assert!(r.metrics.counter("cluster.completed") == r.completed);
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let mix = two_mix();
        let cfg = ClusterConfig::default();
        let arrival = ArrivalConfig {
            seed: 5,
            count: 1_500,
            mean_interarrival_cycles: 3_000.0,
        };
        let a = run_profiled(&cfg, &arrival, &mix);
        let b = run_profiled(&cfg, &arrival, &mix);
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.peak_fleet_frames, b.peak_fleet_frames);
        assert_eq!(a.cold_starts, b.cold_starts);
        assert_eq!(a.metrics.render(), b.metrics.render());
    }

    #[test]
    fn keep_alive_none_always_cold_starts() {
        let mix = two_mix();
        let cfg = ClusterConfig {
            keep_alive: KeepAlive::None,
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 9,
            count: 400,
            mean_interarrival_cycles: 50_000.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert_eq!(r.warm_starts, 0, "no warm pool, no warm starts");
        assert_eq!(r.cold_starts, r.completed);
        assert_eq!(r.final_fleet_frames, 0, "every container torn down");
        assert_eq!(r.live_containers, 0);
        assert!(r.is_clean());
    }

    #[test]
    fn infinite_keep_alive_maximises_warm_starts_and_footprint() {
        let mix = two_mix();
        let sparse = ArrivalConfig {
            seed: 9,
            count: 400,
            mean_interarrival_cycles: 50_000.0,
        };
        let infinite = run_profiled(
            &ClusterConfig {
                keep_alive: KeepAlive::Infinite,
                ..ClusterConfig::default()
            },
            &sparse,
            &mix,
        );
        let short = run_profiled(
            &ClusterConfig {
                keep_alive: KeepAlive::Fixed(10_000),
                ..ClusterConfig::default()
            },
            &sparse,
            &mix,
        );
        assert!(
            infinite.warm_starts > short.warm_starts,
            "infinite keep-alive must reuse more: {} vs {}",
            infinite.warm_starts,
            short.warm_starts
        );
        assert!(infinite.final_fleet_frames >= short.final_fleet_frames);
        assert_eq!(
            short.expired, short.retired,
            "short keep-alive retires only via expiry"
        );
        assert!(infinite.is_clean() && short.is_clean());
    }

    #[test]
    fn bounded_queues_reject_under_overload() {
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 2,
            queue_capacity: 2,
            ..ClusterConfig::default()
        };
        // Offered load far beyond 2 nodes' service capacity.
        let arrival = ArrivalConfig {
            seed: 3,
            count: 3_000,
            mean_interarrival_cycles: 100.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert!(r.rejected > 0, "overload must produce rejections");
        assert_eq!(
            r.rejected,
            r.rejected_by.values().sum::<u64>(),
            "every rejection carries a typed reason"
        );
        assert!(r.rejected_by.contains_key(&RejectReason::ClusterSaturated));
        assert!(r.is_clean());
    }

    #[test]
    fn round_robin_rejects_locally_and_spreads_load() {
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 3,
            queue_capacity: 1,
            placement: Placement::RoundRobin,
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 21,
            count: 2_000,
            mean_interarrival_cycles: 200.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        if r.rejected > 0 {
            assert!(r.rejected_by.contains_key(&RejectReason::QueueFull));
        }
        let counts: Vec<u64> = (0..3)
            .map(|i| {
                r.metrics
                    .counter(&format!("cluster.node{i:03}.invocations"))
            })
            .collect();
        assert!(counts.iter().all(|c| *c > 0), "round robin uses every node");
        assert!(r.is_clean());
    }

    #[test]
    fn measured_engine_small_fleet_is_exact_and_clean() {
        let mix = WorkloadMix::uniform(vec![small_spec("aes")]).expect("non-empty");
        let cfg = ClusterConfig {
            nodes: 2,
            queue_capacity: 4,
            keep_alive: KeepAlive::Infinite,
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 17,
            count: 12,
            mean_interarrival_cycles: 200_000.0,
        };
        let arrivals = generate_arrivals(&arrival, &mix).expect("valid arrivals");
        let r = simulate(
            Engine::Measured(Box::new(SystemConfig::memento())),
            &cfg,
            &mix,
            &arrivals,
        )
        .expect("valid cluster run");
        assert_eq!(r.completed, 12);
        assert!(
            r.warm_starts > 0,
            "infinite keep-alive on a tiny fleet must reuse"
        );
        assert!(
            r.final_fleet_frames > 0,
            "warm containers keep frames resident"
        );
        assert!(
            r.is_clean(),
            "measured-engine audits must pass: {}",
            r.audit
        );
    }

    #[test]
    fn missing_profile_is_a_typed_error() {
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 1,
                count: 10,
                mean_interarrival_cycles: 1_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let err = simulate(
            Engine::Profiled(ProfileTable::new()),
            &ClusterConfig::default(),
            &mix,
            &arrivals,
        )
        .err()
        .expect("must fail");
        assert!(matches!(err, ClusterError::MissingProfile(_)));
        let err = simulate(
            Engine::Profiled(ProfileTable::new()),
            &ClusterConfig {
                nodes: 0,
                ..ClusterConfig::default()
            },
            &mix,
            &arrivals,
        )
        .err()
        .expect("must fail");
        assert_eq!(err, ClusterError::NoNodes);
    }

    #[test]
    fn malformed_arrivals_are_a_typed_error() {
        let mix = WorkloadMix::uniform(vec![small_spec("aes")]).expect("non-empty");
        let table = synthetic_table(&mix);
        let run = |arrivals: &[Arrival]| {
            simulate(
                Engine::Profiled(table.clone()),
                &ClusterConfig::default(),
                &mix,
                arrivals,
            )
            .err()
            .expect("must fail")
        };
        let out_of_mix = [Arrival {
            time: 10,
            workload: 3,
        }];
        assert!(matches!(run(&out_of_mix), ClusterError::InvalidArrivals(_)));
        let unsorted = [
            Arrival {
                time: 100_000,
                workload: 0,
            },
            Arrival {
                time: 10,
                workload: 0,
            },
        ];
        let err = run(&unsorted);
        assert!(matches!(err, ClusterError::InvalidArrivals(_)));
        assert!(err.to_string().contains("precedes"), "{err}");
    }

    #[test]
    fn slab_recycles_slots_without_resurrecting_expiries() {
        // KeepAlive::None churns containers hard: every completion
        // retires its slot, so the free list recycles constantly. The
        // drain audit plus conservation checks catch any slot aliasing.
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 2,
            keep_alive: KeepAlive::None,
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 13,
            count: 1_000,
            mean_interarrival_cycles: 2_000.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert_eq!(r.retired, r.completed, "every served container retires");
        assert_eq!(r.live_containers, 0);
        assert!(r.is_clean(), "slab churn must stay conservation-clean");
    }

    #[test]
    fn multi_core_nodes_absorb_overload() {
        // Same saturating arrival stream over the same two nodes: four
        // serving lanes per node must complete more, reject less, and
        // finish no later than one lane per node.
        let mix = two_mix();
        let arrival = ArrivalConfig {
            seed: 3,
            count: 3_000,
            mean_interarrival_cycles: 100.0,
        };
        let narrow = ClusterConfig {
            nodes: 2,
            queue_capacity: 2,
            ..ClusterConfig::default()
        };
        let wide = ClusterConfig {
            cores_per_node: 4,
            ..narrow.clone()
        };
        let one = run_profiled(&narrow, &arrival, &mix);
        let four = run_profiled(&wide, &arrival, &mix);
        assert!(
            four.completed > one.completed,
            "4 lanes/node must serve more: {} vs {}",
            four.completed,
            one.completed
        );
        assert!(four.rejected < one.rejected);
        assert_eq!(four.submitted, four.completed + four.rejected);
        assert!(
            four.peak_fleet_frames >= one.peak_fleet_frames,
            "more concurrently-serving containers cannot shrink the peak"
        );
        assert!(
            four.is_clean(),
            "multi-lane audits must pass: {}",
            four.audit
        );
    }

    #[test]
    fn measured_multi_core_nodes_run_exact_and_clean() {
        let mix = WorkloadMix::uniform(vec![small_spec("aes")]).expect("non-empty");
        let cfg = ClusterConfig {
            nodes: 1,
            queue_capacity: 8,
            cores_per_node: 2,
            keep_alive: KeepAlive::Infinite,
            ..ClusterConfig::default()
        };
        // A burst denser than one container's service time forces both
        // lanes of the single node to serve concurrently.
        let arrival = ArrivalConfig {
            seed: 17,
            count: 8,
            mean_interarrival_cycles: 20_000.0,
        };
        let arrivals = generate_arrivals(&arrival, &mix).expect("valid arrivals");
        let r = simulate(
            Engine::Measured(Box::new(SystemConfig::memento())),
            &cfg,
            &mix,
            &arrivals,
        )
        .expect("valid cluster run");
        assert_eq!(r.completed, 8);
        assert!(
            r.peak_fleet_frames > 0,
            "serving containers charge the fleet footprint"
        );
        assert!(r.is_clean(), "measured multi-core audits: {}", r.audit);
    }

    #[test]
    fn zero_cores_per_node_is_a_typed_error() {
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 1,
                count: 4,
                mean_interarrival_cycles: 1_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let err = simulate(
            Engine::Profiled(synthetic_table(&mix)),
            &ClusterConfig {
                cores_per_node: 0,
                ..ClusterConfig::default()
            },
            &mix,
            &arrivals,
        )
        .err()
        .expect("must fail");
        assert_eq!(err, ClusterError::NoNodes);
        let err = simulate(
            Engine::Profiled(synthetic_table(&mix)),
            &ClusterConfig {
                cores_per_node: 1 << 9,
                ..ClusterConfig::default()
            },
            &mix,
            &arrivals,
        )
        .err()
        .expect("must fail");
        assert_eq!(err, ClusterError::FleetTooLarge);
    }

    #[test]
    fn short_expiry_reuse_races_stay_clean() {
        // A keep-alive barely longer than the warm service time maximises
        // the races between cached deadlines, warm reuse, and slot
        // recycling.
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 2,
            keep_alive: KeepAlive::Fixed(15_000),
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 29,
            count: 3_000,
            mean_interarrival_cycles: 9_000.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert!(r.warm_starts > 0, "some reuse must happen");
        assert!(r.expired > 0, "some expiries must land");
        assert_eq!(r.submitted, r.completed + r.rejected);
        assert!(r.is_clean(), "expiry races must stay clean: {}", r.audit);
    }

    #[test]
    fn snapshot_restores_land_between_warm_and_cold() {
        // KeepAlive::None forces every start down the cold path; with
        // sparse arrivals there is no queueing, so each latency equals the
        // start cost exactly: restore_cycles under Snapshot, cold_cycles
        // under Boot, both bracketed by the profile's warm/cold costs.
        let mix = two_mix();
        let arrival = ArrivalConfig {
            seed: 7,
            count: 300,
            mean_interarrival_cycles: 500_000.0,
        };
        let base = ClusterConfig {
            keep_alive: KeepAlive::None,
            ..ClusterConfig::default()
        };
        let boot = run_profiled(&base, &arrival, &mix);
        let snap = run_profiled(
            &ClusterConfig {
                cold_start: ColdStart::Snapshot,
                ..base
            },
            &arrival,
            &mix,
        );
        assert_eq!(snap.restores, snap.completed, "every start restored");
        assert_eq!(boot.restores, 0, "boot path never restores");
        let table = synthetic_table(&mix);
        let (warm_max, cold_min) = mix.specs().iter().fold((0u64, u64::MAX), |(w, c), s| {
            let p = table.get(&s.name).unwrap();
            (w.max(p.warm_cycles), c.min(p.cold_cycles))
        });
        for &lat in &snap.latencies {
            assert!(
                lat > warm_max && lat < cold_min,
                "restore latency {lat} must land strictly between warm ({warm_max}) and cold ({cold_min})"
            );
        }
        let sum = |v: &[u64]| v.iter().sum::<u64>();
        assert!(
            sum(&snap.latencies) < sum(&boot.latencies),
            "snapshot restores must beat cold boots in aggregate"
        );
        assert_eq!(
            snap.metrics.counter("cluster.restores"),
            snap.restores,
            "restore counter must be surfaced"
        );
        assert!(snap.is_clean() && boot.is_clean());
    }

    #[test]
    fn park_to_pm_trades_restore_latency_for_idle_footprint() {
        // Against an infinite warm pool, park-to-PM must (a) hold a far
        // smaller resident fleet while idle and (b) pay for it with PM
        // restore premiums on warm hits — never with lost work.
        let mix = two_mix();
        let arrival = ArrivalConfig {
            seed: 29,
            count: 800,
            mean_interarrival_cycles: 40_000.0,
        };
        let base = ClusterConfig {
            nodes: 4,
            keep_alive: KeepAlive::Infinite,
            ..ClusterConfig::default()
        };
        let warm_pool = run_profiled(&base, &arrival, &mix);
        let pm = run_profiled(
            &ClusterConfig {
                keep_alive: KeepAlive::ParkToPM {
                    ttl_cycles: 1 << 40,
                },
                ..base
            },
            &arrival,
            &mix,
        );
        assert_eq!(pm.completed, warm_pool.completed, "no work lost");
        assert_eq!(pm.pm_parks, pm.completed, "every completion parks");
        assert_eq!(pm.pm_restores, pm.warm_starts, "every warm hit restores");
        assert!(pm.pm_restores > 0, "the parked pool must get hits");
        assert!(
            pm.final_fleet_frames < warm_pool.final_fleet_frames / 4,
            "parked images must shed the DRAM warm pool: {} vs {}",
            pm.final_fleet_frames,
            warm_pool.final_fleet_frames
        );
        assert!(
            pm.latencies.iter().sum::<u64>() > warm_pool.latencies.iter().sum::<u64>(),
            "PM restores cost more than staying warm"
        );
        assert_eq!(pm.metrics.counter("cluster.pm_parks"), pm.pm_parks);
        assert_eq!(pm.metrics.counter("cluster.pm_restores"), pm.pm_restores);
        assert!(
            pm.metrics.counter("cluster.pm_persist_cycles") > 0,
            "background persist traffic is surfaced"
        );
        assert_eq!(
            warm_pool.metrics.counter("cluster.pm_parks"),
            0,
            "PM metrics stay inert without the policy"
        );
        assert!(pm.is_clean(), "park-to-pm audits: {}", pm.audit);
    }

    #[test]
    fn park_to_pm_retention_ttl_expires_parked_images() {
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 2,
            keep_alive: KeepAlive::ParkToPM { ttl_cycles: 30_000 },
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 31,
            count: 400,
            mean_interarrival_cycles: 150_000.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert!(r.expired > 0, "sparse arrivals must outlive the TTL");
        assert!(r.pm_parks > 0);
        assert_eq!(r.live_containers, 0, "short TTL drains the pool");
        assert!(r.is_clean(), "{}", r.audit);
    }

    #[test]
    fn measured_engine_park_to_pm_runs_real_checkpoints() {
        // The Measured engine drives the actual crash-consistent protocol
        // (with the sanitizer's injection audit) on every park.
        let mix = WorkloadMix::uniform(vec![small_spec("aes")]).expect("non-empty");
        let cfg = ClusterConfig {
            nodes: 2,
            queue_capacity: 4,
            keep_alive: KeepAlive::ParkToPM {
                ttl_cycles: 1 << 40,
            },
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 37,
            count: 10,
            mean_interarrival_cycles: 200_000.0,
        };
        let arrivals = generate_arrivals(&arrival, &mix).expect("valid arrivals");
        let r = simulate(
            Engine::Measured(Box::new(SystemConfig::memento_sanitized())),
            &cfg,
            &mix,
            &arrivals,
        )
        .expect("valid cluster run");
        assert_eq!(r.completed, 10);
        assert_eq!(r.pm_parks, r.completed);
        assert!(r.pm_restores > 0, "warm hits revive parked machines");
        assert!(
            r.audit.audits > r.pm_parks,
            "machine-level audits (crash injections included) must surface \
             in the fleet report: {} audits",
            r.audit.audits
        );
        assert!(r.is_clean(), "measured park-to-pm audits: {}", r.audit);
    }

    #[test]
    fn zero_park_to_pm_ttl_is_a_typed_error() {
        let mix = two_mix();
        let cfg = ClusterConfig {
            keep_alive: KeepAlive::ParkToPM { ttl_cycles: 0 },
            ..ClusterConfig::default()
        };
        let r = simulate(Engine::Profiled(synthetic_table(&mix)), &cfg, &mix, &[]);
        assert!(
            matches!(r, Err(ClusterError::InvalidKeepAlive(_))),
            "zero TTL must be rejected"
        );
    }

    #[test]
    fn squeeze_reclaims_idle_footprint_under_pressure() {
        // Infinite keep-alive builds a warm pool whose idle footprint
        // exceeds a tight watermark; the squeeze pass must trim idle-warm
        // containers toward their unreclaimable floor and the next warm
        // start must still be served (paying the refault, not a cold
        // boot).
        let mix = two_mix();
        let arrival = ArrivalConfig {
            seed: 19,
            count: 800,
            mean_interarrival_cycles: 40_000.0,
        };
        let base = ClusterConfig {
            nodes: 4,
            keep_alive: KeepAlive::Infinite,
            ..ClusterConfig::default()
        };
        let lax = run_profiled(&base, &arrival, &mix);
        assert!(lax.final_fleet_frames > 100, "warm pool must build up");
        let squeezed = run_profiled(
            &ClusterConfig {
                reclamation: Reclamation::Squeeze {
                    watermark_frames: 100,
                },
                ..base
            },
            &arrival,
            &mix,
        );
        assert!(squeezed.squeezed > 0, "pressure must squeeze containers");
        assert!(
            squeezed.final_fleet_frames < lax.final_fleet_frames,
            "squeeze must shrink the resident footprint: {} vs {}",
            squeezed.final_fleet_frames,
            lax.final_fleet_frames
        );
        assert_eq!(
            squeezed.completed, lax.completed,
            "reclamation must not drop work"
        );
        assert!(
            squeezed.warm_starts > 0,
            "squeezed containers still serve warm starts"
        );
        assert!(
            squeezed.latencies.iter().sum::<u64>() > lax.latencies.iter().sum::<u64>(),
            "refaulting squeezed frames costs cycles"
        );
        assert!(squeezed.is_clean(), "squeeze audits: {}", squeezed.audit);
    }

    #[test]
    fn pm_parked_containers_are_not_squeezed() {
        // A container parked in persistent memory keeps no squeezable
        // DRAM, so squeezing at a zero watermark finds no candidate under
        // park-to-PM on either engine, and every latency matches the same
        // fleet without reclamation.
        let mix = two_mix();
        let base = ClusterConfig {
            nodes: 2,
            queue_capacity: 4,
            keep_alive: KeepAlive::ParkToPM {
                ttl_cycles: 1 << 40,
            },
            ..ClusterConfig::default()
        };
        let squeeze = ClusterConfig {
            reclamation: Reclamation::Squeeze {
                watermark_frames: 0,
            },
            ..base.clone()
        };
        let engines: [(&dyn Fn() -> Engine, u64); 2] = [
            (&|| Engine::Profiled(synthetic_table(&mix)), 400),
            (&|| Engine::Measured(Box::new(SystemConfig::memento())), 60),
        ];
        for (engine, count) in engines {
            let arrivals = generate_arrivals(
                &ArrivalConfig {
                    seed: 29,
                    count,
                    mean_interarrival_cycles: 60_000.0,
                },
                &mix,
            )
            .expect("valid arrivals");
            let run = |cfg: &ClusterConfig| {
                simulate(engine(), cfg, &mix, &arrivals).expect("valid cluster run")
            };
            let (lax, squeezed) = (run(&base), run(&squeeze));
            assert!(lax.pm_restores > 0, "warm hits revive parked containers");
            assert_eq!(squeezed.squeezed, 0, "parked containers are no candidates");
            assert_eq!(squeezed.latencies, lax.latencies);
            assert_eq!(squeezed.peak_fleet_frames, lax.peak_fleet_frames);
            assert!(squeezed.is_clean(), "{}", squeezed.audit);
        }
    }

    #[test]
    fn overflowing_profile_costs_are_typed_errors() {
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 1,
                count: 10,
                mean_interarrival_cycles: 1_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let cfg = ClusterConfig {
            keep_alive: KeepAlive::None,
            ..ClusterConfig::default()
        };
        let run = |edit: &dyn Fn(&mut ServiceProfile)| {
            let mut table = synthetic_table(&mix);
            let mut p = table.get("aes").expect("calibrated").clone();
            edit(&mut p);
            table.insert(p);
            simulate(Engine::Profiled(table), &cfg, &mix, &arrivals)
        };
        // Ten cold starts at a twentieth of the bound each stay within it.
        let r = run(&|p| p.cold_cycles = MAX_CYCLES / 20).expect("charges within the bound");
        assert_eq!(r.completed, 10);
        assert!(r.is_clean(), "{}", r.audit);
        let huge = u64::MAX / 2;
        let bad: [&dyn Fn(&mut ServiceProfile); 4] = [
            &|p| (p.warm_cycles, p.cold_cycles) = (huge, huge),
            &|p| p.cold_cycles = MAX_CYCLES / 5,
            &|p| p.squeeze_refault_cycles = huge,
            &|p| p.idle_frames = u64::from(u32::MAX) + 1,
        ];
        for edit in bad {
            let err = run(edit).err().expect("must fail");
            assert!(matches!(err, ClusterError::InvalidProfile(_)), "{err}");
            assert!(err.to_string().contains("'aes'"), "{err}");
        }
    }

    #[test]
    fn latency_sums_past_u64_do_not_overflow() {
        // One node queues 1,000 starts of MAX_CYCLES / 2000 each: charges
        // total half the clock bound, the last arrival waits about that
        // long, and the latencies sum past u64::MAX.
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 3,
                count: 1_000,
                mean_interarrival_cycles: 1_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let cfg = ClusterConfig {
            nodes: 1,
            queue_capacity: 2_000,
            keep_alive: KeepAlive::None,
            ..ClusterConfig::default()
        };
        let mut table = synthetic_table(&mix);
        for spec in mix.specs() {
            let mut p = table.get(&spec.name).expect("calibrated").clone();
            (p.warm_cycles, p.cold_cycles) = (MAX_CYCLES / 2000, MAX_CYCLES / 2000);
            table.insert(p);
        }
        let r = simulate(Engine::Profiled(table), &cfg, &mix, &arrivals)
            .expect("charges within the bound");
        assert_eq!(r.completed, 1_000);
        assert!(r.is_clean(), "{}", r.audit);
        let total: u128 = r.latencies.iter().map(|&l| u128::from(l)).sum();
        assert!(total > u128::from(u64::MAX), "the run must pass u64");
        assert_eq!(r.mean_latency(), total as f64 / 1_000.0);
        let hist = r.metrics.hist("cluster.latency_cycles").expect("recorded");
        assert_eq!(hist.sum(), total);
        assert_eq!(hist.mean(), r.mean_latency());
        let (p50, _, p99) = hist.percentiles();
        assert!(p50 <= p99 && p99 <= 2 * r.latencies[999], "{p50} {p99}");
    }

    #[test]
    fn autoscaler_tracks_load_up_and_down() {
        // A dense arrival burst against a 1-node floor must spin nodes up
        // (bounded by max_nodes) and drain them back once the burst
        // passes; powering a node off clears its warm entries' deadlines.
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 1,
            queue_capacity: 8,
            keep_alive: KeepAlive::Fixed(50_000),
            autoscaler: Autoscaler::TargetUtilization(AutoscalerConfig {
                interval_cycles: 20_000,
                target_load_pct: 70,
                min_nodes: 1,
                max_nodes: 6,
                spinup_cycles: 40_000,
            }),
            ..ClusterConfig::default()
        };
        let arrival = ArrivalConfig {
            seed: 31,
            count: 2_000,
            mean_interarrival_cycles: 2_000.0,
        };
        let r = run_profiled(&cfg, &arrival, &mix);
        assert!(
            r.peak_active_nodes > 1,
            "sustained overload must scale the fleet up"
        );
        assert!(r.peak_active_nodes <= 6, "never beyond max_nodes");
        let ups = r.metrics.counter("cluster.scale_ups");
        let downs = r.metrics.counter("cluster.scale_downs");
        assert!(ups > 0, "scale-ups must be recorded");
        assert!(downs > 0, "the drained fleet must scale back down");
        assert!(downs <= ups, "cannot drain more commitments than made");
        assert_eq!(r.submitted, r.completed + r.rejected);
        assert!(r.is_clean(), "autoscaler audits: {}", r.audit);

        let fixed = run_profiled(
            &ClusterConfig {
                autoscaler: Autoscaler::None,
                ..cfg.clone()
            },
            &arrival,
            &mix,
        );
        assert!(
            r.completed > fixed.completed,
            "extra nodes must absorb load a 1-node fleet rejects: {} vs {}",
            r.completed,
            fixed.completed
        );
    }

    #[test]
    fn size_aware_keep_alive_evicts_large_footprints_sooner() {
        // KiSS-style TTLs are inversely proportional to idle footprint, so
        // against the same trace the size-aware fleet must hold no more
        // resident frames than an infinite pool, while still serving warm
        // starts — and the per-container TTL stays inside [min, max].
        let mix = two_mix();
        let arrival = ArrivalConfig {
            seed: 9,
            count: 600,
            mean_interarrival_cycles: 30_000.0,
        };
        let size_aware = run_profiled(
            &ClusterConfig {
                keep_alive: KeepAlive::SizeAware {
                    budget_frame_cycles: 2_000_000,
                    min_cycles: 10_000,
                    max_cycles: 80_000,
                },
                ..ClusterConfig::default()
            },
            &arrival,
            &mix,
        );
        let infinite = run_profiled(
            &ClusterConfig {
                keep_alive: KeepAlive::Infinite,
                ..ClusterConfig::default()
            },
            &arrival,
            &mix,
        );
        assert!(size_aware.warm_starts > 0, "budget must allow some reuse");
        assert!(size_aware.expired > 0, "budget must expire some pools");
        assert!(
            size_aware.final_fleet_frames < infinite.final_fleet_frames,
            "size-aware TTLs must bound the resident footprint: {} vs {}",
            size_aware.final_fleet_frames,
            infinite.final_fleet_frames
        );
        assert!(size_aware.is_clean(), "audits: {}", size_aware.audit);
    }

    #[test]
    fn region_features_combined_conserve_and_stay_deterministic() {
        // Everything at once — autoscaling, snapshot restores, pressure
        // squeezes, and size-aware keep-alive — under a bursty trace:
        // conservation and the fleet audits must hold, and the run must
        // stay byte-identical when repeated.
        let mix = two_mix();
        let cfg = ClusterConfig {
            nodes: 2,
            queue_capacity: 4,
            keep_alive: KeepAlive::SizeAware {
                budget_frame_cycles: 4_000_000,
                min_cycles: 5_000,
                max_cycles: 200_000,
            },
            cold_start: ColdStart::Snapshot,
            reclamation: Reclamation::Squeeze {
                watermark_frames: 150,
            },
            autoscaler: Autoscaler::TargetUtilization(AutoscalerConfig {
                interval_cycles: 15_000,
                target_load_pct: 60,
                min_nodes: 1,
                max_nodes: 8,
                spinup_cycles: 30_000,
            }),
            record_timeline: true,
            ..ClusterConfig::default()
        };
        let trace = crate::trace::FlashCrowd {
            base: crate::trace::DiurnalTrace {
                day_cycles: 4_000_000,
                trough_ppm: 100,
                peak_ppm: 900,
            },
            period_cycles: 1_000_000,
            burst_cycles: 120_000,
            multiplier: 4,
        };
        let arrivals = crate::trace::generate_trace(
            &ArrivalConfig {
                seed: 33,
                count: 3_000,
                mean_interarrival_cycles: 6_000.0,
            },
            &mix,
            &trace,
        )
        .expect("valid trace");
        let table = synthetic_table(&mix);
        let a =
            simulate(Engine::Profiled(table.clone()), &cfg, &mix, &arrivals).expect("combined run");
        assert_eq!(a.submitted, a.completed + a.rejected, "conservation");
        assert_eq!(a.completed, a.cold_starts + a.warm_starts);
        assert_eq!(a.cold_starts, a.restores, "snapshot path serves all colds");
        assert!(a.squeezed > 0, "bursty warm pool must hit the watermark");
        assert!(a.peak_active_nodes > 1, "bursts must scale the fleet");
        assert!(a.is_clean(), "combined audits must pass: {}", a.audit);
        let b = simulate(Engine::Profiled(table), &cfg, &mix, &arrivals).expect("repeat run");
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.metrics.render(), b.metrics.render());
    }

    #[test]
    fn invalid_autoscaler_and_keep_alive_are_typed_errors() {
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 1,
                count: 4,
                mean_interarrival_cycles: 1_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let run = |cfg: ClusterConfig| {
            simulate(
                Engine::Profiled(synthetic_table(&mix)),
                &cfg,
                &mix,
                &arrivals,
            )
            .err()
            .expect("must fail")
        };
        // Two nodes sit inside `ok`'s band, so each bad input below is
        // rejected for its own fault.
        let scaler = |ac: AutoscalerConfig| ClusterConfig {
            nodes: 2,
            autoscaler: Autoscaler::TargetUtilization(ac),
            ..ClusterConfig::default()
        };
        let ok = AutoscalerConfig {
            interval_cycles: 10_000,
            target_load_pct: 70,
            min_nodes: 1,
            max_nodes: 4,
            spinup_cycles: 1_000,
        };
        let table = synthetic_table(&mix);
        assert!(simulate(Engine::Profiled(table), &scaler(ok), &mix, &arrivals).is_ok());
        for bad in [
            AutoscalerConfig {
                interval_cycles: 0,
                ..ok
            },
            AutoscalerConfig {
                target_load_pct: 0,
                ..ok
            },
            AutoscalerConfig { min_nodes: 0, ..ok },
            AutoscalerConfig {
                min_nodes: 5,
                max_nodes: 4,
                ..ok
            },
        ] {
            assert!(
                matches!(run(scaler(bad)), ClusterError::InvalidAutoscaler(_)),
                "{bad:?} must be rejected"
            );
        }
        // A capacity unit (cores per node × target %) past u64.
        assert!(matches!(
            run(ClusterConfig {
                cores_per_node: 2,
                ..scaler(AutoscalerConfig {
                    target_load_pct: u64::MAX,
                    ..ok
                })
            }),
            ClusterError::InvalidAutoscaler(_)
        ));
        // A fixed fleet outside the autoscaler's [min, max] band.
        assert!(matches!(
            run(ClusterConfig {
                nodes: 8,
                ..scaler(ok)
            }),
            ClusterError::InvalidAutoscaler(_)
        ));
        for bad in [
            KeepAlive::SizeAware {
                budget_frame_cycles: 0,
                min_cycles: 1,
                max_cycles: 2,
            },
            KeepAlive::SizeAware {
                budget_frame_cycles: 1_000,
                min_cycles: 0,
                max_cycles: 2,
            },
            KeepAlive::SizeAware {
                budget_frame_cycles: 1_000,
                min_cycles: 9,
                max_cycles: 3,
            },
        ] {
            assert!(
                matches!(
                    run(ClusterConfig {
                        keep_alive: bad,
                        ..ClusterConfig::default()
                    }),
                    ClusterError::InvalidKeepAlive(_)
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn delays_past_the_clock_bound_are_typed_errors() {
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 4,
                count: 50,
                mean_interarrival_cycles: 20_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let run = |cfg: ClusterConfig, arrivals: &[Arrival]| {
            simulate(
                Engine::Profiled(synthetic_table(&mix)),
                &cfg,
                &mix,
                arrivals,
            )
        };
        let keep = |keep_alive| ClusterConfig {
            keep_alive,
            ..ClusterConfig::default()
        };
        // Delays at the bound run; every expiry lands after the last
        // arrival, so none fires early.
        for ok in [
            KeepAlive::Fixed(MAX_CYCLES),
            KeepAlive::ParkToPM {
                ttl_cycles: MAX_CYCLES,
            },
        ] {
            let r = run(keep(ok), &arrivals).expect("a TTL at the bound is valid");
            assert_eq!(r.completed, 50);
            assert_eq!(r.expired, r.retired, "{ok:?}: only expiries retire");
            assert!(
                r.makespan_cycles > MAX_CYCLES,
                "{ok:?}: expiries fire at now + TTL"
            );
            assert!(r.is_clean(), "{}", r.audit);
        }
        for bad in [
            KeepAlive::Fixed(u64::MAX),
            KeepAlive::Fixed(MAX_CYCLES + 1),
            KeepAlive::ParkToPM {
                ttl_cycles: u64::MAX,
            },
            KeepAlive::SizeAware {
                budget_frame_cycles: 1_000,
                min_cycles: 1,
                max_cycles: u64::MAX,
            },
        ] {
            assert!(
                matches!(
                    run(keep(bad), &arrivals),
                    Err(ClusterError::InvalidKeepAlive(_))
                ),
                "{bad:?} must be rejected"
            );
        }
        let ok = AutoscalerConfig {
            interval_cycles: 50_000,
            target_load_pct: 70,
            min_nodes: 1,
            max_nodes: 4,
            spinup_cycles: 10_000,
        };
        for bad in [
            AutoscalerConfig {
                interval_cycles: u64::MAX,
                ..ok
            },
            AutoscalerConfig {
                spinup_cycles: MAX_CYCLES + 1,
                ..ok
            },
        ] {
            let cfg = ClusterConfig {
                nodes: 2,
                autoscaler: Autoscaler::TargetUtilization(bad),
                ..ClusterConfig::default()
            };
            assert!(
                matches!(run(cfg, &arrivals), Err(ClusterError::InvalidAutoscaler(_))),
                "{bad:?} must be rejected"
            );
        }
        let mut late = arrivals.clone();
        late.last_mut().expect("non-empty").time = MAX_CYCLES + 1;
        let err = run(ClusterConfig::default(), &late)
            .err()
            .expect("must fail");
        assert!(matches!(err, ClusterError::InvalidArrivals(_)), "{err}");
        assert!(err.to_string().contains("clock bound"), "{err}");
    }

    #[test]
    fn measured_trace_file_is_a_typed_error() {
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 3,
                count: 4,
                mean_interarrival_cycles: 200_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let cfg = ClusterConfig::default();
        // In-memory tracing writes nothing, so it stays allowed.
        let mut sys = SystemConfig::memento().traced_in_memory();
        let r = simulate(
            Engine::Measured(Box::new(sys.clone())),
            &cfg,
            &mix,
            &arrivals,
        )
        .expect("in-memory tracing is fine");
        assert_eq!(r.completed, 4);
        let path = std::env::temp_dir().join("memento-fleet-trace.json");
        sys.trace.as_mut().expect("traced").path = Some(path.clone());
        assert_eq!(
            simulate(Engine::Measured(Box::new(sys)), &cfg, &mix, &arrivals).err(),
            Some(ClusterError::MeasuredTraceFile(path))
        );
    }

    /// Runs a Measured fleet with one private machine per container, the
    /// engine before containers shared histories.
    fn run_per_container(
        sys: &SystemConfig,
        cfg: &ClusterConfig,
        mix: &WorkloadMix,
        arrivals: &[Arrival],
    ) -> ClusterResult {
        let sys = container_config(Box::new(sys.clone()), cfg.cores_per_node)
            .expect("a valid core count");
        let cycle = OpCycle::new(cfg.cold_start, cfg.keep_alive);
        run(PerContainer::new(sys, cycle, mix), cfg, mix, arrivals)
    }

    /// Every observable output of two runs, except the count of ops that
    /// ran a machine (the one number sharing is meant to change).
    fn observable(r: &ClusterResult) -> String {
        let counters: Vec<(&str, u64)> = r
            .metrics
            .counters()
            .filter(|(name, _)| *name != "cluster.measured.steps_simulated")
            .collect();
        let hists: Vec<_> = r.metrics.hists().collect();
        format!(
            "{:?}",
            (
                (r.submitted, r.completed, r.rejected, &r.rejected_by),
                (r.cold_starts, r.warm_starts, r.expired, r.retired),
                (r.live_containers, r.restores, r.squeezed, r.pm_parks),
                (r.pm_restores, r.peak_active_nodes, r.makespan_cycles),
                (r.peak_fleet_frames, r.final_fleet_frames, &r.timeline),
                (&r.latencies, counters, hists, &r.audit),
            )
        )
    }

    #[test]
    fn shared_lineages_match_per_container_machines() {
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 23,
                count: 40,
                mean_interarrival_cycles: 120_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let fixed = ClusterConfig {
            nodes: 2,
            queue_capacity: 4,
            keep_alive: KeepAlive::Fixed(400_000),
            ..ClusterConfig::default()
        };
        let policies = [
            fixed.clone(),
            ClusterConfig {
                keep_alive: KeepAlive::None,
                ..fixed.clone()
            },
            ClusterConfig {
                keep_alive: KeepAlive::Infinite,
                cold_start: ColdStart::Snapshot,
                ..fixed.clone()
            },
            ClusterConfig {
                keep_alive: KeepAlive::SizeAware {
                    budget_frame_cycles: 100_000_000,
                    min_cycles: 50_000,
                    max_cycles: 2_000_000,
                },
                ..fixed.clone()
            },
            ClusterConfig {
                keep_alive: KeepAlive::ParkToPM {
                    ttl_cycles: 2_000_000,
                },
                cold_start: ColdStart::Snapshot,
                ..fixed.clone()
            },
            ClusterConfig {
                keep_alive: KeepAlive::Infinite,
                reclamation: Reclamation::Squeeze {
                    watermark_frames: 64,
                },
                ..fixed.clone()
            },
            ClusterConfig {
                nodes: 1,
                autoscaler: Autoscaler::TargetUtilization(AutoscalerConfig {
                    interval_cycles: 100_000,
                    target_load_pct: 70,
                    min_nodes: 1,
                    max_nodes: 4,
                    spinup_cycles: 200_000,
                }),
                ..fixed.clone()
            },
            ClusterConfig {
                cores_per_node: 2,
                placement: Placement::RoundRobin,
                ..fixed
            },
        ];
        let steps = |r: &ClusterResult| {
            (
                r.metrics.counter("cluster.measured.steps"),
                r.metrics.counter("cluster.measured.steps_simulated"),
            )
        };
        let mut shared_any = false;
        for sys in [SystemConfig::memento(), SystemConfig::memento_sanitized()] {
            for cfg in &policies {
                let private = run_per_container(&sys, cfg, &mix, &arrivals);
                let (ops, ran) = steps(&private);
                assert_eq!(ops, ran, "a private machine runs every op");
                let want = observable(&private);
                // The shared store, with its roots stepped by the fleet
                // thread alone and with one and three run-ahead helpers.
                let mut simulated = Vec::new();
                for helpers in [0, 1, 3] {
                    let sys = container_config(Box::new(sys.clone()), cfg.cores_per_node)
                        .expect("a valid core count");
                    let shared = run_measured(sys, cfg, &mix, &arrivals, helpers);
                    assert_eq!(
                        observable(&shared),
                        want,
                        "sharing with {helpers} helpers changed an output under {cfg:?}"
                    );
                    let (ops, ran) = steps(&shared);
                    shared_any |= ran < ops;
                    simulated.push(ran);
                }
                // Run-ahead records count only once consumed.
                assert!(
                    simulated.iter().all(|&n| n == simulated[0]),
                    "steps_simulated varies with the helper count under {cfg:?}: {simulated:?}"
                );
            }
        }
        assert!(shared_any, "some fleet must serve ops from records");
    }

    /// A profile is the head of the Measured stream: a one-node fleet
    /// whose arrivals never queue serves its cold start and its j-th warm
    /// start at exactly the cycles `calibrate` reads from one root with
    /// `j` warm samples.
    #[test]
    fn calibration_is_the_head_of_the_measured_stream() {
        const K: usize = 3;
        let cfg = ClusterConfig {
            nodes: 1,
            cores_per_node: 1,
            keep_alive: KeepAlive::Infinite,
            ..ClusterConfig::default()
        };
        for sys in [SystemConfig::baseline(), SystemConfig::memento()] {
            for name in ["aes", "html"] {
                let spec = small_spec(name);
                let p = calibrate(&sys, &spec, K);
                let mut want: Vec<u64> = (1..K)
                    .map(|j| calibrate(&sys, &spec, j).warm_cycles)
                    .chain([p.warm_cycles, p.cold_cycles])
                    .collect();
                want.sort_unstable();
                let mix = WorkloadMix::uniform(vec![spec]).expect("non-empty");
                // Each arrival comes after the last one completed.
                let gap = 2 * p.cold_cycles;
                let arrivals: Vec<Arrival> = (1..=K as u64 + 1)
                    .map(|i| Arrival {
                        time: i * gap,
                        workload: 0,
                    })
                    .collect();
                let r = simulate(
                    Engine::Measured(Box::new(sys.clone())),
                    &cfg,
                    &mix,
                    &arrivals,
                )
                .expect("valid cluster run");
                assert_eq!((r.cold_starts, r.warm_starts), (1, K as u64));
                // `latencies` is sorted.
                assert_eq!(r.latencies, want, "{name} under {:?}", sys.mode);
            }
        }
    }

    #[test]
    fn measured_core_counts_out_of_range_are_typed_errors() {
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 3,
                count: 4,
                mean_interarrival_cycles: 200_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let cfg = ClusterConfig::default();
        for cores in [0, SystemConfig::MAX_CORES + 1] {
            let mut sys = SystemConfig::memento();
            sys.mem.cores = cores;
            let err = simulate(Engine::Measured(Box::new(sys)), &cfg, &mix, &arrivals).err();
            assert_eq!(err, Some(ClusterError::InvalidCores(cores)));
            let err = err.expect("checked above");
            assert!(err.to_string().contains(&cores.to_string()), "{err}");
        }
        // `cores_per_node` reshapes the machines before the check.
        let mut sys = SystemConfig::memento();
        sys.mem.cores = 0;
        let two = ClusterConfig {
            cores_per_node: 2,
            ..cfg
        };
        let r = simulate(Engine::Measured(Box::new(sys)), &two, &mix, &arrivals)
            .expect("two cores per node");
        assert_eq!(r.completed, 4);
    }

    #[test]
    fn measured_phys_mem_past_the_cache_limit_is_a_typed_error() {
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 3,
                count: 4,
                mean_interarrival_cycles: 200_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let mut sys = SystemConfig::memento();
        let limit = sys.mem.addr_limit();
        sys.phys_mem_bytes = limit + 1;
        let err = simulate(
            Engine::Measured(Box::new(sys)),
            &ClusterConfig::default(),
            &mix,
            &arrivals,
        )
        .err();
        assert_eq!(
            err,
            Some(ClusterError::InvalidPhysMem {
                bytes: limit + 1,
                limit
            })
        );
        let msg = err.expect("checked above").to_string();
        assert!(msg.contains(&limit.to_string()), "{msg}");
    }

    #[test]
    fn sanitized_measured_fleets_simulate_the_plain_fleets_ops() {
        // One helper per spare host thread, at most one per workload,
        // sanitized or not.
        assert_eq!(run_ahead_helpers(2, 1), 0);
        assert_eq!(run_ahead_helpers(2, 2), 1);
        assert_eq!(run_ahead_helpers(2, 8), 2);
        // A sanitized teardown reads a report its root computed on the
        // way, so a sanitized fleet runs as many machine ops as the same
        // fleet without a sanitizer, at any helper count.
        let mix = two_mix();
        let arrivals = generate_arrivals(
            &ArrivalConfig {
                seed: 23,
                count: 40,
                mean_interarrival_cycles: 120_000.0,
            },
            &mix,
        )
        .expect("valid arrivals");
        let cfg = ClusterConfig {
            nodes: 2,
            queue_capacity: 4,
            keep_alive: KeepAlive::Fixed(400_000),
            ..ClusterConfig::default()
        };
        let simulated = |sys: SystemConfig, helpers| {
            let sys =
                container_config(Box::new(sys), cfg.cores_per_node).expect("a valid core count");
            run_measured(sys, &cfg, &mix, &arrivals, helpers)
                .metrics
                .counter("cluster.measured.steps_simulated")
        };
        let plain = simulated(SystemConfig::memento(), 0);
        for helpers in [0, 1, 2] {
            assert_eq!(
                simulated(SystemConfig::memento_sanitized(), helpers),
                plain,
                "{helpers} helpers"
            );
        }
    }

    #[test]
    fn profiled_runs_carry_no_lineage_counters() {
        let mix = two_mix();
        let arrival = ArrivalConfig {
            seed: 5,
            count: 50,
            mean_interarrival_cycles: 20_000.0,
        };
        let r = run_profiled(&ClusterConfig::default(), &arrival, &mix);
        assert!(r
            .metrics
            .counters()
            .all(|(name, _)| !name.starts_with("cluster.measured.")));
    }
}
