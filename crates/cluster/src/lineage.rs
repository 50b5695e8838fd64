//! The Measured service model: shared container histories.
//!
//! Every container of one function in a Measured fleet boots from the
//! same [`SystemConfig`], replays the same generated trace and receives
//! the same op sequence: boot, then park/invoke pairs, then teardown. A
//! [`WarmContainer`]'s results depend only on its config, its spec and
//! the ops applied to it, so the k-th op of one container yields exactly
//! the numbers every other container of that function read at step k.
//!
//! A **lineage** records one such history: the ops applied so far, the
//! values the engine reads after each op ([`Record`]), and at most one
//! live machine at its tip. A container is a position `(lineage, depth)`
//! in it ([`Pos`]). An op the lineage already ran at that depth returns
//! the recorded values without touching a machine; only a container at
//! the tip advances the live machine. One lineage per (workload, boot
//! kind) is shared by the whole fleet: its **root**.
//!
//! - **Run-ahead.** Within one run, every container of a root asks for
//!   the same op at each depth ([`OpCycle`]), so a root's records are a
//!   fixed stream. Helper threads ([`RunAhead::help`]) step idle root
//!   machines up to [`LOOKAHEAD`] records past the deepest container.
//!   The fleet thread takes a buffered record, or steps the root itself
//!   when its machine is idle. While a helper holds that machine, the
//!   fleet thread steps another root ahead the same way a helper would,
//!   and waits only when no root is idle with room. Records are a pure
//!   function of the op history, so every output is the same at any
//!   helper count. Sanitized fleets start no helper (see
//!   `sim::run_ahead_helpers`).
//! - **Divergence.** A container that asks for a different op than the
//!   one recorded at its depth, or that leaves the cycle at a root's
//!   tip, forks a private lineage holding a copy of the prefix. The
//!   fork's machine is rebuilt by replaying that prefix on a fresh boot
//!   when it first needs one. Forks and replays run on the fleet thread.
//! - **Teardown.** [`ServiceModel::release`] needs a machine only when the
//!   machine has a sanitizer: the finish report is computed once per
//!   depth and memoized, from the tip machine if it sits idle at that
//!   depth, else from a replay. Without a sanitizer teardown reads
//!   nothing, so the tip machine stays for later containers.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use memento_obs::metrics::MetricsRegistry;
use memento_sanitizer::SanitizerReport;
use memento_system::{SystemConfig, WarmContainer};
use memento_workloads::spec::WorkloadSpec;

use crate::arrival::WorkloadMix;
use crate::model::{Op, Record, ServiceModel};
use crate::policy::{ColdStart, KeepAlive};

/// Sentinel for "no lineage yet" in the per-(workload, boot kind) roots.
const NO_LINEAGE: u32 = u32::MAX;

/// Most records a root is stepped past its deepest container. At 16 the
/// fleet thread and one helper are each busy for 95 % or more of a
/// `measured_fleet` repetition. Against the old bound of 4, runs read
/// 8 at 1.18× and 16 at 1.23×; 16 over 8 head to head stayed
/// unresolved, and 32 read no faster than 16 while leaving more
/// records unconsumed (EXPERIMENTS.md "Benchmarking").
const LOOKAHEAD: usize = 16;

/// A restore's service time: a warm invocation (`warm`) plus the
/// restore's own work (`extra`), clamped strictly between `warm` and
/// `ceiling`, the cost of the path the restore stands in for (a cold
/// start for a snapshot restore, a snapshot restore for a PM restore).
/// When no value fits strictly between, the result is `warm + 1`.
pub(crate) fn strictly_between(warm: u64, extra: u64, ceiling: u64) -> u64 {
    (warm + extra).clamp(warm + 1, ceiling.saturating_sub(1).max(warm + 1))
}

impl Record {
    /// The values read from `m` after an op that took `cycles`. A
    /// container parked in persistent memory holds no DRAM while idle.
    fn read(m: &WarmContainer, cycles: u64) -> Record {
        let idle_frames = if m.is_pm_parked() {
            0
        } else {
            m.unreclaimable_pages()
        };
        let squeeze_floor = m.squeeze_floor_pages().min(idle_frames);
        Record {
            cycles,
            serving_peak: m.serving_peak_pages(),
            idle_frames,
            squeeze_floor,
            squeeze_refault: (idle_frames - squeeze_floor) * m.squeeze_refault_unit_cycles(),
        }
    }
}

/// Applies `op` to `m` and returns the op's record.
fn run_op(m: &mut WarmContainer, op: Op) -> Record {
    let cycles = match op {
        Op::Invoke { pm_restore } => {
            let pm_extra = if pm_restore { m.restore_from_pm() } else { 0 };
            m.invoke().total_cycles().raw() + pm_extra
        }
        Op::Park => {
            m.park();
            0
        }
        // Seed the crash-injection audit from the container's own
        // checkpoint history, a pure function of its op history.
        Op::ParkToPm => m.park_to_pm(m.pm_sealed_epoch().map_or(0, |e| e.raw())),
    };
    Record::read(m, cycles)
}

/// The ops every container of a root asks for in one run, in order:
/// `Park`, then `(Invoke { pm_restore: false }, Park)*`; under
/// [`KeepAlive::ParkToPM`], `Park, ParkToPm`, then
/// `(Invoke { pm_restore: true }, Park, ParkToPm)*`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct OpCycle {
    park_to_pm: bool,
}

impl OpCycle {
    /// The cycle of a fleet under `keep_alive`.
    pub(crate) fn new(keep_alive: KeepAlive) -> Self {
        OpCycle {
            park_to_pm: matches!(keep_alive, KeepAlive::ParkToPM { .. }),
        }
    }

    /// The op that takes a container from depth `depth` (1 right after
    /// boot) to `depth + 1`.
    fn op(self, depth: usize) -> Op {
        if self.park_to_pm {
            match depth % 3 {
                1 => Op::Park,
                2 => Op::ParkToPm,
                _ => Op::Invoke { pm_restore: true },
            }
        } else if depth % 2 == 1 {
            Op::Park
        } else {
            Op::Invoke { pm_restore: false }
        }
    }
}

/// A root's machine in the run-ahead store.
enum Tip {
    /// No machine: the root is not booted yet, or a sanitized teardown
    /// took it.
    Gone,
    /// Idle at the root's `depth`; any thread may step it. Boxed: the
    /// machine moves between threads, the box does not.
    Idle(Box<WarmContainer>),
    /// A thread is stepping it.
    Busy,
}

/// One root as the run-ahead store holds it.
struct AheadRoot {
    tip: Tip,
    /// The machine's depth: the root's records plus `buffered`.
    depth: usize,
    /// Records stepped past the root's deepest container, oldest first,
    /// each with the machine's sanitizer report after it.
    buffered: VecDeque<(Record, Option<SanitizerReport>)>,
}

struct AheadState {
    /// Indexed like [`Lineages`]' roots: `workload * 2 + boot kind`.
    roots: Vec<AheadRoot>,
    stopped: bool,
    /// A helper panicked, and the machine it held is lost.
    failed: bool,
    /// The root whose next step ahead panics: a test's stand-in for a
    /// machine that fails mid-op.
    #[cfg(test)]
    fail_step: Option<usize>,
}

impl AheadState {
    /// The idle root with room that has the fewest buffered records.
    fn next_to_step(&self) -> Option<usize> {
        self.roots
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r.tip, Tip::Idle(_)) && r.buffered.len() < LOOKAHEAD)
            .min_by_key(|(_, r)| r.buffered.len())
            .map(|(key, _)| key)
    }
}

/// What the fleet thread gets when it asks a root for its next record.
enum Next {
    /// A record a helper stepped ahead, with its sanitizer report.
    Buffered(Record, Option<SanitizerReport>),
    /// The root's idle machine, now held by the fleet thread; `None`
    /// when the root has none, and the fleet thread rebuilds it by
    /// replay.
    Machine(Option<Box<WarmContainer>>),
}

/// The root machines of one run, shared between the fleet thread and
/// the helper threads that step them ahead along the [`OpCycle`].
pub(crate) struct RunAhead {
    cycle: OpCycle,
    state: Mutex<AheadState>,
    /// Signalled when a root gains a record, frees room or goes idle, and
    /// when the store stops or fails.
    changed: Condvar,
}

/// Marks the store failed when a helper unwinds, so the fleet thread
/// stops waiting for the machine the helper held.
struct FailOnUnwind<'a>(&'a RunAhead);

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().failed = true;
            self.0.changed.notify_all();
        }
    }
}

impl RunAhead {
    /// A store for the roots of `mix` under `cycle`; no root is booted.
    pub(crate) fn new(cycle: OpCycle, mix: &WorkloadMix) -> Self {
        let roots = (0..mix.len() * 2)
            .map(|_| AheadRoot {
                tip: Tip::Gone,
                depth: 0,
                buffered: VecDeque::with_capacity(LOOKAHEAD),
            })
            .collect();
        RunAhead {
            cycle,
            state: Mutex::new(AheadState {
                roots,
                stopped: false,
                failed: false,
                #[cfg(test)]
                fail_step: None,
            }),
            changed: Condvar::new(),
        }
    }

    /// The state lock. A poisoned lock only means a thread panicked; that
    /// panic reaches the caller of `simulate` through the thread pool.
    fn lock(&self) -> MutexGuard<'_, AheadState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'g>(&self, st: MutexGuard<'g, AheadState>) -> MutexGuard<'g, AheadState> {
        self.changed
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Steps idle root `key` one op along the cycle outside the lock and
    /// buffers the record with the machine's sanitizer report, counted
    /// only when the fleet consumes it. The one step ahead of a root's
    /// deepest container, taken by helpers and by the fleet thread while
    /// its own root is busy. Returns the lock, retaken.
    fn step_ahead<'g>(
        &'g self,
        mut st: MutexGuard<'g, AheadState>,
        key: usize,
    ) -> MutexGuard<'g, AheadState> {
        let root = &mut st.roots[key];
        let mut m = match std::mem::replace(&mut root.tip, Tip::Busy) {
            Tip::Idle(m) => m,
            // Only an idle root is stepped ahead.
            tip => {
                root.tip = tip;
                return st;
            }
        };
        let op = self.cycle.op(root.depth);
        #[cfg(test)]
        let fail = st.fail_step == Some(key);
        drop(st);
        #[cfg(test)]
        assert!(!fail, "injected step failure");
        let r = run_op(&mut m, op);
        let report = m.machine().sanitizer_report().cloned();
        let mut st = self.lock();
        let root = &mut st.roots[key];
        root.tip = Tip::Idle(m);
        root.depth += 1;
        root.buffered.push_back((r, report));
        debug_assert!(
            root.buffered.len() <= LOOKAHEAD,
            "root {key} buffered past LOOKAHEAD"
        );
        self.changed.notify_all();
        st
    }

    /// Steps the least-buffered idle root with room ahead, or waits for
    /// a change when no root has both.
    fn step_any_or_wait<'g>(
        &'g self,
        st: MutexGuard<'g, AheadState>,
    ) -> MutexGuard<'g, AheadState> {
        match st.next_to_step() {
            Some(key) => self.step_ahead(st, key),
            None => self.wait(st),
        }
    }

    /// A helper thread's loop: step roots ahead along the cycle until
    /// [`Self::stop`].
    pub(crate) fn help(&self) {
        let _fail = FailOnUnwind(self);
        let mut st = self.lock();
        while !st.stopped {
            st = self.step_any_or_wait(st);
        }
    }

    /// Stops the helpers; each returns after its current step.
    pub(crate) fn stop(&self) {
        self.lock().stopped = true;
        self.changed.notify_all();
    }

    /// Root `key`'s next record, or its idle machine for the fleet thread
    /// to step. While a helper steps it, the fleet thread steps another
    /// root ahead instead, and waits only when no root is idle with room.
    fn next(&self, key: usize) -> Next {
        let mut st = self.lock();
        loop {
            assert!(!st.failed, "a run-ahead helper panicked");
            let root = &mut st.roots[key];
            let full = root.buffered.len() == LOOKAHEAD;
            if let Some((r, report)) = root.buffered.pop_front() {
                if full {
                    // The root has room again.
                    self.changed.notify_all();
                }
                return Next::Buffered(r, report);
            }
            match std::mem::replace(&mut root.tip, Tip::Busy) {
                Tip::Idle(m) => return Next::Machine(Some(m)),
                Tip::Gone => return Next::Machine(None),
                Tip::Busy => st = self.step_any_or_wait(st),
            }
        }
    }

    /// Hands root `key`'s machine back at `depth`, where helpers may step
    /// it again.
    fn put(&self, key: usize, m: Box<WarmContainer>, depth: usize) {
        let mut st = self.lock();
        let root = &mut st.roots[key];
        debug_assert!(!matches!(root.tip, Tip::Idle(_)) && root.buffered.is_empty());
        root.tip = Tip::Idle(m);
        root.depth = depth;
        self.changed.notify_all();
    }

    /// Takes root `key`'s machine if it sits idle at `depth` (so nothing
    /// is buffered past the root's records).
    fn take_at(&self, key: usize, depth: usize) -> Option<Box<WarmContainer>> {
        let mut st = self.lock();
        let root = &mut st.roots[key];
        match std::mem::replace(&mut root.tip, Tip::Gone) {
            Tip::Idle(m) if root.depth == depth => Some(m),
            tip => {
                root.tip = tip;
                None
            }
        }
    }
}

/// A container's place in the store: `depth` records reached on
/// `lineage` (1 right after boot).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Pos {
    lineage: u32,
    depth: u32,
}

/// One op history.
struct Lineage {
    workload: u32,
    boot: ColdStart,
    /// `ops[i]` takes a container from depth `i + 1` to depth `i + 2`.
    ops: Vec<Op>,
    /// `records[d - 1]` holds the values read at depth `d`.
    records: Vec<Record>,
    /// `reports[d - 1]` is the machine's sanitizer report at depth `d`;
    /// empty when the machine has no sanitizer.
    reports: Vec<SanitizerReport>,
    /// Memoized teardown reports, `finished[d - 1]` for depth `d`.
    finished: Vec<Option<SanitizerReport>>,
    /// A private lineage's live machine, always at depth `records.len()`
    /// when present. A root's machine lives in the [`RunAhead`] store.
    machine: Option<WarmContainer>,
    /// Containers currently positioned on this lineage.
    holders: u32,
    /// A fleet-wide root, kept when no container holds it; a private
    /// fork is dropped with its last holder.
    shared: bool,
}

/// Boots and steps machines, counting every op it simulates. The one
/// place a cluster-layer [`WarmContainer`] is booted or stepped for a
/// result the fleet reads: the lineage store runs the fleet's ops
/// through it, and [`crate::profile::calibrate`] its fixed calibration
/// script. (Run-ahead helpers step roots without counting; the store
/// counts a buffered record when the fleet consumes it.)
pub(crate) struct Runner {
    cfg: Box<SystemConfig>,
    specs: Vec<WorkloadSpec>,
    simulated: u64,
}

impl Runner {
    /// A runner booting containers of `specs` (indexed by workload) under
    /// `cfg`.
    pub(crate) fn new(cfg: Box<SystemConfig>, specs: Vec<WorkloadSpec>) -> Self {
        Runner {
            cfg,
            specs,
            simulated: 0,
        }
    }

    /// Boots a container of `workload` and returns it with the boot's
    /// record.
    ///
    /// A REAP-style snapshot boot builds the machine the same way as a
    /// cold start (snapshots capture exactly the booted state), but
    /// charges a warm invocation after a park plus the working-set
    /// prefetch ([`WarmContainer::snapshot_restore_cycles`]) in place of
    /// instruction replay, clamped [`strictly_between`] the warm and cold
    /// costs.
    pub(crate) fn boot(&mut self, workload: u32, kind: ColdStart) -> (WarmContainer, Record) {
        self.simulated += 1;
        let spec = &self.specs[workload as usize];
        let (mut m, stats) = WarmContainer::cold_start(self.cfg.as_ref().clone(), spec);
        let cold = stats.total_cycles().raw();
        let cycles = match kind {
            ColdStart::Boot => cold,
            ColdStart::Snapshot => {
                m.park();
                let prefetch = m.snapshot_restore_cycles();
                let warm = m.invoke().total_cycles().raw().max(1);
                strictly_between(warm, prefetch, cold.max(1))
            }
        };
        let r = Record::read(&m, cycles);
        (m, r)
    }

    /// Applies `op` to `m` and returns the op's record.
    pub(crate) fn apply(&mut self, m: &mut WarmContainer, op: Op) -> Record {
        self.simulated += 1;
        run_op(m, op)
    }

    /// A fresh machine at `depth` on lineage `l`: boot, then the first
    /// `depth - 1` ops. A debug build checks the replay reproduces the
    /// lineage's records.
    fn replay(&mut self, l: &Lineage, depth: usize) -> WarmContainer {
        let (mut m, r) = self.boot(l.workload, l.boot);
        debug_assert_eq!(r, l.records[0], "replayed boot diverged");
        for (i, &op) in l.ops[..depth - 1].iter().enumerate() {
            let r = self.apply(&mut m, op);
            debug_assert_eq!(r, l.records[i + 1], "replayed op {i} diverged");
        }
        m
    }
}

/// The Measured engine's lineage store: one shared lineage per
/// (workload, boot kind), whose machines live in a [`RunAhead`] store,
/// plus the private forks of containers that diverged.
pub(crate) struct Lineages<'a> {
    runner: Runner,
    ahead: &'a RunAhead,
    lineages: Vec<Option<Lineage>>,
    free: Vec<u32>,
    /// Shared lineage per `workload * 2 + boot kind`.
    roots: Vec<u32>,
    steps: u64,
    /// Gives every container a private lineage (no sharing): the
    /// reference the shared store is tested against.
    #[cfg(test)]
    per_container: bool,
}

fn root_key(workload: u32, kind: ColdStart) -> usize {
    let kind = match kind {
        ColdStart::Boot => 0,
        ColdStart::Snapshot => 1,
    };
    workload as usize * 2 + kind
}

impl<'a> Lineages<'a> {
    /// An empty store for containers of `mix` booting under `cfg`, whose
    /// roots run in `ahead`.
    pub(crate) fn new(cfg: Box<SystemConfig>, mix: &WorkloadMix, ahead: &'a RunAhead) -> Self {
        Lineages {
            runner: Runner::new(cfg, mix.specs().to_vec()),
            ahead,
            lineages: Vec::new(),
            free: Vec::new(),
            roots: vec![NO_LINEAGE; mix.len() * 2],
            steps: 0,
            #[cfg(test)]
            per_container: false,
        }
    }

    /// A store that keys every container's lineage to that container.
    #[cfg(test)]
    pub(crate) fn per_container(
        cfg: Box<SystemConfig>,
        mix: &WorkloadMix,
        ahead: &'a RunAhead,
    ) -> Self {
        Lineages {
            per_container: true,
            ..Lineages::new(cfg, mix, ahead)
        }
    }

    fn shares(&self) -> bool {
        #[cfg(test)]
        {
            !self.per_container
        }
        #[cfg(not(test))]
        {
            true
        }
    }

    fn get(&self, id: u32) -> &Lineage {
        self.lineages[id as usize]
            .as_ref()
            .expect("positions point at live lineages")
    }

    fn get_mut(&mut self, id: u32) -> &mut Lineage {
        self.lineages[id as usize]
            .as_mut()
            .expect("positions point at live lineages")
    }

    fn insert(&mut self, l: Lineage) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.lineages[id as usize] = Some(l);
                id
            }
            None => {
                self.lineages.push(Some(l));
                u32::try_from(self.lineages.len() - 1).expect("fewer than 2^32 lineages")
            }
        }
    }

    /// A container leaves lineage `id`; a private one goes with its last
    /// holder.
    fn unhold(&mut self, id: u32) {
        let l = self.get_mut(id);
        l.holders -= 1;
        if l.holders == 0 && !l.shared {
            self.lineages[id as usize] = None;
            self.free.push(id);
        }
    }

    /// Moves one holder of lineage `id` onto a new private lineage that
    /// copies its first `depth` records, and returns the fork's id.
    fn fork(&mut self, id: u32, depth: usize) -> u32 {
        let src = self.get(id);
        let fork = Lineage {
            workload: src.workload,
            boot: src.boot,
            ops: src.ops[..depth - 1].to_vec(),
            records: src.records[..depth].to_vec(),
            reports: src.reports[..depth.min(src.reports.len())].to_vec(),
            finished: src.finished[..depth.min(src.finished.len())].to_vec(),
            machine: None,
            holders: 1,
            shared: false,
        };
        self.unhold(id);
        self.insert(fork)
    }

    /// Appends root `id`'s next record, the cycle's `op` from its deepest
    /// container: a record a helper buffered (counted as simulated now
    /// that the fleet consumes it), else one stepped here.
    fn advance_root(&mut self, id: u32, op: Op) -> Record {
        let l = self.lineages[id as usize]
            .as_mut()
            .expect("positions point at live lineages");
        let key = root_key(l.workload, l.boot);
        let (r, report) = match self.ahead.next(key) {
            Next::Buffered(r, report) => {
                self.runner.simulated += 1;
                (r, report)
            }
            Next::Machine(m) => {
                let mut m = m.unwrap_or_else(|| Box::new(self.runner.replay(l, l.records.len())));
                let r = self.runner.apply(&mut m, op);
                let report = m.machine().sanitizer_report().cloned();
                self.ahead.put(key, m, l.records.len() + 1);
                (r, report)
            }
        };
        l.ops.push(op);
        l.records.push(r);
        l.reports.extend(report);
        r
    }

    fn finish_report(&mut self, pos: Pos) -> SanitizerReport {
        let depth = pos.depth as usize;
        let l = self.lineages[pos.lineage as usize]
            .as_mut()
            .expect("positions point at live lineages");
        if let Some(Some(r)) = l.finished.get(depth - 1) {
            return r.clone();
        }
        let tip = if l.shared {
            self.ahead
                .take_at(root_key(l.workload, l.boot), depth)
                .map(|m| *m)
        } else {
            match l.machine.take() {
                Some(m) if depth == l.records.len() => Some(m),
                tip => {
                    l.machine = tip;
                    None
                }
            }
        };
        let m = tip.unwrap_or_else(|| self.runner.replay(l, depth));
        let report = m.finish_with_report().1.unwrap_or_default();
        if l.finished.len() < depth {
            l.finished.resize(depth, None);
        }
        l.finished[depth - 1] = Some(report.clone());
        report
    }
}

impl ServiceModel for Lineages<'_> {
    type Pos = Pos;

    /// Boots a container of `workload` and returns its position and the
    /// boot's record.
    fn boot(&mut self, workload: u32, kind: ColdStart) -> (Pos, Record) {
        self.steps += 1;
        let key = root_key(workload, kind);
        let shared = self.shares();
        let root = self.roots[key];
        if shared && root != NO_LINEAGE {
            let l = self.get_mut(root);
            l.holders += 1;
            let pos = Pos {
                lineage: root,
                depth: 1,
            };
            return (pos, l.records[0]);
        }
        let (m, r) = self.runner.boot(workload, kind);
        let reports = m
            .machine()
            .sanitizer_report()
            .cloned()
            .into_iter()
            .collect();
        let machine = if shared {
            self.ahead.put(key, Box::new(m), 1);
            None
        } else {
            Some(m)
        };
        let id = self.insert(Lineage {
            workload,
            boot: kind,
            ops: Vec::new(),
            records: vec![r],
            reports,
            finished: Vec::new(),
            machine,
            holders: 1,
            shared,
        });
        if shared {
            self.roots[key] = id;
        }
        (
            Pos {
                lineage: id,
                depth: 1,
            },
            r,
        )
    }

    /// Applies `op` to the container at `pos`, moves it one step deeper
    /// and returns the op's record.
    fn apply(&mut self, pos: &mut Pos, op: Op) -> Record {
        self.steps += 1;
        let at = pos.depth as usize;
        let l = self.get(pos.lineage);
        if let Some(&recorded) = l.ops.get(at - 1) {
            if recorded == op {
                pos.depth += 1;
                return l.records[at];
            }
            pos.lineage = self.fork(pos.lineage, at);
        } else if l.shared {
            if op == self.ahead.cycle.op(at) {
                pos.depth += 1;
                return self.advance_root(pos.lineage, op);
            }
            // A root's machine only follows the cycle (a helper may have
            // stepped it past `at` already), so leaving the cycle forks.
            pos.lineage = self.fork(pos.lineage, at);
        }
        // Borrowed field by field (not through `get_mut`) so the runner
        // can replay while the lineage is held.
        let l = self.lineages[pos.lineage as usize]
            .as_mut()
            .expect("positions point at live lineages");
        let mut m = match l.machine.take() {
            Some(m) => m,
            None => self.runner.replay(l, at),
        };
        let r = self.runner.apply(&mut m, op);
        l.ops.push(op);
        l.records.push(r);
        l.reports.extend(m.machine().sanitizer_report().cloned());
        l.machine = Some(m);
        pos.depth += 1;
        r
    }

    /// The values read at `pos`.
    fn record(&self, pos: Pos) -> Record {
        self.get(pos.lineage).records[pos.depth as usize - 1]
    }

    /// The machine's sanitizer report at `pos` (`None` without a
    /// sanitizer).
    fn report(&self, pos: Pos) -> Option<&SanitizerReport> {
        self.get(pos.lineage).reports.get(pos.depth as usize - 1)
    }

    /// Tears down the container at `pos` and returns the machine's final
    /// sanitizer report (`None` without a sanitizer).
    fn release(&mut self, pos: Pos) -> Option<SanitizerReport> {
        // Reports are recorded only when the machine has a sanitizer;
        // without one, teardown reads nothing and needs no machine.
        let report = if self.get(pos.lineage).reports.is_empty() {
            None
        } else {
            Some(self.finish_report(pos))
        };
        self.unhold(pos.lineage);
        report
    }

    fn add_metrics(&self, metrics: &mut MetricsRegistry) {
        // How much of the op stream lineage sharing served from records;
        // run-ahead records the fleet never consumed are not counted.
        metrics.add("cluster.measured.steps", self.steps);
        metrics.add("cluster.measured.steps_simulated", self.runner.simulated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_simcore::pool::with_helpers;
    use memento_workloads::suite;
    use proptest::prelude::*;
    use std::time::Duration;

    #[test]
    fn strictly_between_lands_in_the_open_interval() {
        assert_eq!(strictly_between(100, 50, 200), 150, "inside: unclamped");
        assert_eq!(strictly_between(100, 0, 200), 101, "never as cheap as warm");
        assert_eq!(
            strictly_between(100, 500, 200),
            199,
            "never as dear as the ceiling"
        );
        // An empty interval (ceiling at or below warm + 1) yields warm + 1.
        assert_eq!(strictly_between(100, 50, 101), 101);
        assert_eq!(strictly_between(100, 50, 0), 101);
    }

    /// Logical containers a script interleaves; even ones serve workload
    /// 0, odd ones workload 1, so several share each workload.
    const CONTAINERS: usize = 6;

    fn mix() -> WorkloadMix {
        let specs = ["aes", "html"].map(|name| {
            let mut s = suite::by_name(name).expect("known workload");
            s.total_instructions = 60_000;
            s
        });
        WorkloadMix::uniform(specs.to_vec()).expect("non-empty mix")
    }

    fn config(which: u8) -> SystemConfig {
        match which % 3 {
            0 => SystemConfig::baseline(),
            1 => SystemConfig::memento(),
            _ => SystemConfig::memento_sanitized(),
        }
    }

    /// A logical container: its place in the store, and a private
    /// machine that receives the same ops.
    struct Logical {
        pos: Pos,
        reference: WarmContainer,
        /// The last op served a request (boots included).
        serving: bool,
    }

    fn same_report(
        got: Option<&SanitizerReport>,
        want: Option<&SanitizerReport>,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        Ok(())
    }

    /// The store's view of `c` must equal its private machine's.
    fn same_state(store: &Lineages, c: &Logical, cycles: u64) -> Result<(), TestCaseError> {
        prop_assert_eq!(store.record(c.pos), Record::read(&c.reference, cycles));
        same_report(
            store.report(c.pos),
            c.reference.machine().sanitizer_report(),
        )
    }

    fn teardown(store: &mut Lineages, c: Logical) -> Result<(), TestCaseError> {
        let got = store.release(c.pos);
        let want = c.reference.finish_with_report().1;
        same_report(got.as_ref(), want.as_ref())
    }

    /// Runs `script` — `(container, action, parameter)` steps — on a
    /// shared store and on one private machine per logical container,
    /// comparing every value and report the store hands back.
    fn check(
        store: &mut Lineages,
        cfg: &SystemConfig,
        script: &[(usize, u8, u8)],
    ) -> TestCaseResult {
        // Boots the private reference machines.
        let mut boots = Runner::new(Box::new(cfg.clone()), mix().specs().to_vec());
        let mut live: Vec<Option<Logical>> = (0..CONTAINERS).map(|_| None).collect();
        for &(who, action, param) in script {
            let Some(mut c) = live[who].take() else {
                let workload = (who % 2) as u32;
                let kind = if param % 2 == 0 {
                    ColdStart::Boot
                } else {
                    ColdStart::Snapshot
                };
                let (pos, got) = store.boot(workload, kind);
                let (reference, want) = boots.boot(workload, kind);
                let c = Logical {
                    pos,
                    reference,
                    serving: true,
                };
                prop_assert_eq!(got, want);
                same_state(store, &c, want.cycles)?;
                live[who] = Some(c);
                continue;
            };
            let parked = c.reference.is_pm_parked();
            // Half the actions follow the fleet's own rhythm (park after
            // serving, serve after parking), so containers share long
            // prefixes; the rest diverge at random.
            let action = match action % 8 {
                0..=3 if c.serving => 1,
                0..=3 => 0,
                a => a - 4,
            };
            let op = match action {
                // A PM-parked container must be revived before serving;
                // an unparked one may still ask for the (no-op) restore.
                0 => Op::Invoke {
                    pm_restore: parked || param % 2 == 1,
                },
                1 if !parked => Op::Park,
                2 if !parked => Op::ParkToPm,
                3 => {
                    teardown(store, c)?;
                    continue;
                }
                _ => Op::Invoke { pm_restore: true },
            };
            c.serving = matches!(op, Op::Invoke { .. });
            let got = store.apply(&mut c.pos, op);
            let cycles = match op {
                Op::Invoke { pm_restore } => {
                    let pm_extra = if pm_restore {
                        c.reference.restore_from_pm()
                    } else {
                        0
                    };
                    c.reference.invoke().total_cycles().raw() + pm_extra
                }
                Op::Park => {
                    c.reference.park();
                    0
                }
                Op::ParkToPm => {
                    let seed = c.reference.pm_sealed_epoch().map_or(0, |e| e.raw());
                    c.reference.park_to_pm(seed)
                }
            };
            prop_assert_eq!(got, Record::read(&c.reference, cycles));
            same_state(store, &c, cycles)?;
            live[who] = Some(c);
        }
        for c in live.into_iter().flatten() {
            teardown(store, c)?;
        }
        Ok(())
    }

    type TestCaseResult = Result<(), TestCaseError>;

    impl RunAhead {
        /// Waits until root `key` holds `n` buffered records, and fails
        /// after 30 s, so a schedule that never gets there fails the
        /// test rather than hanging it.
        fn wait_buffered(&self, key: usize, n: usize) {
            let st = self.lock();
            let (st, waited) = self
                .changed
                .wait_timeout_while(st, Duration::from_secs(30), |st| {
                    st.roots[key].buffered.len() < n
                })
                .unwrap_or_else(PoisonError::into_inner);
            drop(st);
            assert!(!waited.timed_out(), "root {key} never buffered {n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn shared_lineages_match_private_machines(
            which in 0u8..3,
            park_to_pm in any::<bool>(),
            helpers in 0usize..3,
            script in collection::vec((0usize..CONTAINERS, 0u8..8, 0u8..4), 1..64),
        ) {
            let cfg = config(which);
            let keep_alive = if park_to_pm {
                KeepAlive::ParkToPM { ttl_cycles: 1 }
            } else {
                KeepAlive::Infinite
            };
            let ahead = RunAhead::new(OpCycle::new(keep_alive), &mix());
            with_helpers(helpers, || ahead.help(), || ahead.stop(), || {
                let mut store = Lineages::new(Box::new(cfg.clone()), &mix(), &ahead);
                check(&mut store, &cfg, &script)
            })?;
        }
    }

    #[test]
    fn repeats_are_served_from_records_and_divergence_forks() {
        let cfg = SystemConfig::memento();
        let ahead = RunAhead::new(OpCycle::new(KeepAlive::Infinite), &mix());
        let mut store = Lineages::new(Box::new(cfg.clone()), &mix(), &ahead);
        let (mut a, _) = store.boot(0, ColdStart::Boot);
        let (mut b, _) = store.boot(0, ColdStart::Boot);
        let first = store.apply(&mut a, Op::Park);
        let again = store.apply(&mut b, Op::Park);
        assert_eq!(first, again, "same history, same numbers");
        assert_eq!((store.steps, store.runner.simulated), (4, 2));
        // `a` is at the tip, so its invoke advances the machine.
        let invoke = Op::Invoke { pm_restore: false };
        store.apply(&mut a, invoke);
        assert_eq!(store.runner.simulated, 3);
        // `b` asks for a park where the lineage recorded an invoke: it
        // forks, replaying boot + park before running its own op.
        store.apply(&mut b, Op::Park);
        assert_eq!(store.runner.simulated, 3 + 3);
        assert_ne!(a.lineage, b.lineage, "divergence forks a private lineage");
        // Without a sanitizer, teardown needs no machine.
        assert!(store.release(a).is_none());
        assert!(store.release(b).is_none());
        assert_eq!(store.runner.simulated, 6);
        // The shared root survives with no holders; the fork does not.
        let (c, boot) = store.boot(0, ColdStart::Boot);
        assert_eq!(c.lineage, a.lineage);
        assert_eq!(boot, store.record(c));
        assert_eq!(store.runner.simulated, 6);
    }

    #[test]
    fn leaving_the_cycle_forks_while_a_helper_runs_ahead() {
        let cfg = SystemConfig::memento();
        let ahead = RunAhead::new(OpCycle::new(KeepAlive::Infinite), &mix());
        with_helpers(
            1,
            || ahead.help(),
            || ahead.stop(),
            || {
                let mut store = Lineages::new(Box::new(cfg.clone()), &mix(), &ahead);
                let mut refs = Runner::new(Box::new(cfg.clone()), mix().specs().to_vec());
                let (mut a, _) = store.boot(0, ColdStart::Boot);
                let (mut b, _) = store.boot(0, ColdStart::Boot);
                let root = a.lineage;
                // The helper steps the root's machine along the cycle (park,
                // invoke, park, ...) ahead of both containers; nothing it
                // stepped counts until a container consumes it.
                ahead.wait_buffered(root_key(0, ColdStart::Boot), LOOKAHEAD);
                assert_eq!(store.runner.simulated, 1);
                // `b` asks for an invoke where the cycle parks: it forks,
                // replaying the boot, and runs its op on a private machine.
                let invoke = Op::Invoke { pm_restore: false };
                let (mut want_b, _) = refs.boot(0, ColdStart::Boot);
                assert_eq!(store.apply(&mut b, invoke), refs.apply(&mut want_b, invoke));
                assert_ne!(b.lineage, root, "leaving the cycle forks");
                assert_eq!(store.runner.simulated, 1 + 2);
                // `a` follows the cycle and is served the helper's records,
                // each counted once as the fleet consumes it.
                let (mut want_a, _) = refs.boot(0, ColdStart::Boot);
                for op in [Op::Park, invoke, Op::Park] {
                    assert_eq!(store.apply(&mut a, op), refs.apply(&mut want_a, op));
                }
                assert_eq!(a.lineage, root);
                assert_eq!(store.runner.simulated, 3 + 3);
                assert_eq!(
                    store.apply(&mut b, Op::Park),
                    refs.apply(&mut want_b, Op::Park)
                );
                assert!(store.release(a).is_none());
                assert!(store.release(b).is_none());
            },
        );
    }

    #[test]
    fn a_helper_panic_reaches_the_fleet_thread_waiting_on_its_root() {
        let ahead = RunAhead::new(OpCycle::new(KeepAlive::Infinite), &mix());
        // As if a helper held root 0 when it failed.
        ahead.lock().roots[0].tip = Tip::Busy;
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_helpers(
                1,
                || {
                    let _fail = FailOnUnwind(&ahead);
                    panic!("helper step failed");
                },
                || ahead.stop(),
                || {
                    ahead.next(0);
                },
            )
        }))
        .expect_err("the fleet thread stops waiting");
        assert_eq!(
            failed.downcast_ref::<&str>(),
            Some(&"helper step failed"),
            "the helper's own panic is re-raised"
        );
    }

    #[test]
    fn the_fleet_thread_steps_another_root_while_its_own_is_busy() {
        let cfg = SystemConfig::memento();
        let cycle = OpCycle::new(KeepAlive::Infinite);
        let ahead = RunAhead::new(cycle, &mix());
        let mut store = Lineages::new(Box::new(cfg.clone()), &mix(), &ahead);
        let (mut a, _) = store.boot(0, ColdStart::Boot);
        let (mut b, _) = store.boot(1, ColdStart::Boot);
        let (key_a, key_b) = (root_key(0, ColdStart::Boot), root_key(1, ColdStart::Boot));
        // B runs one record short of full.
        for _ in 1..LOOKAHEAD {
            drop(ahead.step_ahead(ahead.lock(), key_b));
        }
        // As if a helper held A's machine.
        let Tip::Idle(m) = std::mem::replace(&mut ahead.lock().roots[key_a].tip, Tip::Busy) else {
            panic!("A's machine sits idle after its boot");
        };
        std::thread::scope(|s| {
            // The "helper" hands A back once B is full, so the fleet
            // thread has stepped B exactly once meanwhile. It hands A
            // back even when B never fills, so the fleet thread finishes
            // and the scope re-raises the timeout.
            s.spawn(|| {
                let full = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ahead.wait_buffered(key_b, LOOKAHEAD)
                }));
                ahead.put(key_a, m, 1);
                if let Err(p) = full {
                    std::panic::resume_unwind(p);
                }
            });
            store.apply(&mut a, Op::Park);
        });
        assert_eq!(ahead.lock().roots[key_b].buffered.len(), LOOKAHEAD);
        // Two boots and A's park; B's records count once consumed.
        assert_eq!(store.runner.simulated, 3);
        let mut refs = Runner::new(Box::new(cfg.clone()), mix().specs().to_vec());
        let (mut want, _) = refs.boot(1, ColdStart::Boot);
        for depth in 1..=LOOKAHEAD {
            let op = cycle.op(depth);
            let r = refs.apply(&mut want, op);
            if depth == LOOKAHEAD {
                let st = ahead.lock();
                let (last, _) = st.roots[key_b].buffered.back().expect("B is full");
                assert_eq!(
                    *last, r,
                    "the fleet thread's step matches a private machine"
                );
            }
            assert_eq!(store.apply(&mut b, op), r);
            assert_eq!(store.runner.simulated, 3 + depth as u64);
        }
    }

    #[test]
    fn a_fleet_thread_panic_stepping_another_root_reaches_the_caller() {
        let ahead = RunAhead::new(OpCycle::new(KeepAlive::Infinite), &mix());
        let mut boots = Runner::new(Box::new(SystemConfig::memento()), mix().specs().to_vec());
        let key_b = root_key(1, ColdStart::Boot);
        ahead.put(key_b, Box::new(boots.boot(1, ColdStart::Boot).0), 1);
        {
            let mut st = ahead.lock();
            // As if a helper held root 0, while B's next step fails.
            st.roots[0].tip = Tip::Busy;
            st.fail_step = Some(key_b);
        }
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_helpers(
                1,
                || {
                    // A helper with nothing to step, waiting on the store
                    // until it stops. (Should the fleet thread only wait,
                    // the helper fails the store after the timeout, so the
                    // test fails rather than hangs.)
                    let st = ahead.lock();
                    let (mut st, waited) = ahead
                        .changed
                        .wait_timeout_while(st, Duration::from_secs(30), |st| !st.stopped)
                        .unwrap_or_else(PoisonError::into_inner);
                    if waited.timed_out() {
                        st.failed = true;
                        ahead.changed.notify_all();
                    }
                },
                || ahead.stop(),
                || {
                    ahead.next(0);
                },
            )
        }))
        .expect_err("the fleet thread's panic reaches the caller");
        assert_eq!(
            failed.downcast_ref::<&str>(),
            Some(&"injected step failure")
        );
        assert!(
            matches!(ahead.lock().roots[key_b].tip, Tip::Busy),
            "the fleet thread held B's machine when it failed"
        );
    }

    #[test]
    fn per_container_keying_never_shares() {
        let cfg = SystemConfig::memento_sanitized();
        let ahead = RunAhead::new(OpCycle::new(KeepAlive::Infinite), &mix());
        let mut store = Lineages::per_container(Box::new(cfg.clone()), &mix(), &ahead);
        let script: Vec<(usize, u8, u8)> = (0..40)
            .map(|i| (i % CONTAINERS, (i % 3) as u8, 0))
            .collect();
        check(&mut store, &cfg, &script).expect("per-container store matches private machines");
        assert_eq!(store.steps, store.runner.simulated);
    }
}
