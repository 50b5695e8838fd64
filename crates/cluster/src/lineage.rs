//! The Measured service model: shared container histories.
//!
//! Every container of one function in a Measured fleet boots from the
//! same [`SystemConfig`], replays the same generated trace and follows
//! the same op script: the run's boot, then its [`OpCycle`], then
//! teardown. A [`WarmContainer`]'s results depend only on its config,
//! its spec and the ops applied to it, so the k-th op of one container
//! yields exactly the numbers every other container of that function
//! read at step k.
//!
//! The store keeps one history per workload of the mix, its **root**:
//! the values the engine reads after each op ([`Record`]) and one live
//! machine at its tip. A container is a position `(workload, depth)` in
//! it ([`Pos`]). A depth the root already reached returns the recorded
//! values without touching a machine; only the deepest container
//! advances the root.
//!
//! - **The contract.** Asking for a boot kind or an op the run's cycle
//!   does not hold is a bug in the caller, and panics: one compare per
//!   op. `sim::Sim` boots with `cfg.cold_start`, parks after every
//!   completion, parks to PM exactly under [`KeepAlive::ParkToPM`], and
//!   then restores from PM on every warm start. A new op must enter
//!   [`OpCycle`] (see [`Op`]).
//! - **Run-ahead.** A root's records are a fixed stream. Helper threads
//!   ([`RunAhead::help`]) step idle root machines up to [`LOOKAHEAD`]
//!   records past the deepest container. The fleet thread takes a
//!   buffered record, or steps the root itself when its machine is
//!   idle. While a helper holds that machine, the fleet thread steps
//!   another root ahead the same way a helper would, and waits only
//!   when no root is idle with room. Records are a pure function of the
//!   op history, so every output is the same at any helper count,
//!   sanitized or not.
//! - **Teardown.** A step that leaves a sanitized machine at a depth
//!   also tears down a clone of it there ([`Audit::read`]), and the root
//!   keeps that report with the depth's record, so
//!   [`ServiceModel::release`] only reads it. No machine is rebuilt for a
//!   teardown. Without a sanitizer teardown reads nothing and nothing is
//!   cloned.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use memento_obs::metrics::MetricsRegistry;
use memento_sanitizer::SanitizerReport;
use memento_system::{SystemConfig, WarmContainer};
use memento_workloads::spec::WorkloadSpec;

use crate::arrival::WorkloadMix;
use crate::model::{Op, Record, ServiceModel};
use crate::policy::{ColdStart, KeepAlive};

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

/// A sanitized machine's reports at one depth: its live report, and the
/// report a teardown there hands back.
struct Audit {
    live: SanitizerReport,
    teardown: SanitizerReport,
}

impl Audit {
    /// `m`'s reports, `None` without a sanitizer. The teardown runs on a
    /// clone, so `m` stays where it is.
    fn read(m: &WarmContainer) -> Option<Audit> {
        let live = m.machine().sanitizer_report()?.clone();
        let teardown = m.clone().finish_with_report().1?;
        Some(Audit { live, teardown })
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

/// The script every container follows in one run: a boot of kind
/// `boot`, then `Park`, then `(Invoke { pm_restore: false }, Park)*`;
/// under [`KeepAlive::ParkToPM`], `Park, ParkToPm`, then
/// `(Invoke { pm_restore: true }, Park, ParkToPm)*`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct OpCycle {
    boot: ColdStart,
    park_to_pm: bool,
}

impl OpCycle {
    /// The script of a fleet that comes up under `cold_start` and keeps
    /// containers alive under `keep_alive`.
    pub(crate) fn new(cold_start: ColdStart, keep_alive: KeepAlive) -> Self {
        OpCycle {
            boot: cold_start,
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

/// One root as the run-ahead store holds it.
struct AheadRoot {
    /// The root's machine while it sits idle at `depth`, where any thread
    /// may step it; `None` while a thread steps it, and before the root's
    /// boot. Boxed: the machine moves between threads, the box does not.
    idle: Option<Box<WarmContainer>>,
    /// The machine's depth: the root's records plus `buffered`.
    depth: usize,
    /// Records stepped past the root's deepest container, oldest first,
    /// each with the machine's reports after it.
    buffered: VecDeque<(Record, Option<Audit>)>,
}

struct AheadState {
    /// Indexed by workload, like [`Lineages`]' roots.
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
            .filter(|(_, r)| r.idle.is_some() && r.buffered.len() < LOOKAHEAD)
            .min_by_key(|(_, r)| r.buffered.len())
            .map(|(key, _)| key)
    }
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
    /// A store for the roots of `mix` under `cycle`, one per workload;
    /// no root is booted.
    pub(crate) fn new(cycle: OpCycle, mix: &WorkloadMix) -> Self {
        let roots = (0..mix.len())
            .map(|_| AheadRoot {
                idle: None,
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
    /// buffers the record with the machine's reports, counted only when
    /// the fleet consumes it. The one step of a root, taken by helpers
    /// and by the fleet thread. Returns the lock, retaken.
    fn step_ahead<'g>(
        &'g self,
        mut st: MutexGuard<'g, AheadState>,
        key: usize,
    ) -> MutexGuard<'g, AheadState> {
        let root = &mut st.roots[key];
        // Only an idle root is stepped.
        let Some(mut m) = root.idle.take() else {
            return st;
        };
        let op = self.cycle.op(root.depth);
        #[cfg(test)]
        let fail = st.fail_step == Some(key);
        drop(st);
        #[cfg(test)]
        assert!(!fail, "injected step failure");
        let r = run_op(&mut m, op);
        let audit = Audit::read(&m);
        let mut st = self.lock();
        let root = &mut st.roots[key];
        root.idle = Some(m);
        root.depth += 1;
        root.buffered.push_back((r, audit));
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

    /// Root `key`'s next record, with the machine's reports after it:
    /// one a helper buffered, else one the fleet thread steps here. While
    /// a helper steps the root, the fleet thread steps another root ahead
    /// instead, and waits only when no root is idle with room. The root
    /// must be booted.
    fn next(&self, key: usize) -> (Record, Option<Audit>) {
        let mut st = self.lock();
        loop {
            assert!(!st.failed, "a run-ahead helper panicked");
            let root = &mut st.roots[key];
            let full = root.buffered.len() == LOOKAHEAD;
            if let Some(step) = root.buffered.pop_front() {
                if full {
                    // The root has room again.
                    self.changed.notify_all();
                }
                return step;
            }
            st = if root.idle.is_some() {
                self.step_ahead(st, key)
            } else {
                self.step_any_or_wait(st)
            };
        }
    }

    /// Hands root `key`'s machine back at `depth`, where helpers may step
    /// it again.
    fn put(&self, key: usize, m: Box<WarmContainer>, depth: usize) {
        let mut st = self.lock();
        let root = &mut st.roots[key];
        debug_assert!(root.idle.is_none() && root.buffered.is_empty());
        root.idle = Some(m);
        root.depth = depth;
        self.changed.notify_all();
    }
}

/// A container's place in the store: `depth` records reached on the
/// root of `workload` (1 right after boot).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Pos {
    workload: u32,
    depth: u32,
}

/// Boots and steps machines, counting every op it simulates. The one
/// place a cluster-layer [`WarmContainer`] is booted or stepped for a
/// result the fleet reads: the lineage store runs the fleet's ops
/// through it, and [`crate::profile::calibrate`] its fixed calibration
/// script. (The store's roots step in [`RunAhead`], on helpers and on
/// the fleet thread alike, and each record counts here when the fleet
/// consumes it.)
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
}

/// One root's history, as the fleet thread holds it. Its machine lives
/// in the [`RunAhead`] store.
#[derive(Default)]
struct Root {
    /// `records[d - 1]` holds the values read at depth `d`; empty until
    /// the workload's first boot.
    records: Vec<Record>,
    /// `audits[d - 1]` holds the machine's reports at depth `d`; empty
    /// when the machine has no sanitizer.
    audits: Vec<Audit>,
}

/// The Measured engine's store: one root per workload of the mix, whose
/// machines live in a [`RunAhead`] store.
pub(crate) struct Lineages<'a> {
    runner: Runner,
    ahead: &'a RunAhead,
    /// Indexed by workload.
    roots: Vec<Root>,
    steps: u64,
}

impl<'a> Lineages<'a> {
    /// An empty store for containers of `mix` booting under `cfg`, whose
    /// roots run in `ahead`.
    pub(crate) fn new(cfg: Box<SystemConfig>, mix: &WorkloadMix, ahead: &'a RunAhead) -> Self {
        Lineages {
            runner: Runner::new(cfg, mix.specs().to_vec()),
            ahead,
            roots: (0..mix.len()).map(|_| Root::default()).collect(),
            steps: 0,
        }
    }

    /// The machine's reports at `pos` (`None` without a sanitizer).
    fn audit(&self, pos: Pos) -> Option<&Audit> {
        self.roots[pos.workload as usize]
            .audits
            .get(pos.depth as usize - 1)
    }

    /// Appends the next record of `workload`'s root, for its deepest
    /// container, counted as simulated now that the fleet consumes it.
    fn advance_root(&mut self, workload: u32) -> Record {
        let key = workload as usize;
        let (r, audit) = self.ahead.next(key);
        self.runner.simulated += 1;
        let root = &mut self.roots[key];
        root.records.push(r);
        root.audits.extend(audit);
        r
    }
}

impl ServiceModel for Lineages<'_> {
    type Pos = Pos;

    /// Boots a container of `workload` and returns its position and the
    /// boot's record. `kind` must be the run's boot kind.
    fn boot(&mut self, workload: u32, kind: ColdStart) -> (Pos, Record) {
        assert_eq!(
            kind, self.ahead.cycle.boot,
            "a container booted off the run's cycle"
        );
        self.steps += 1;
        let pos = Pos { workload, depth: 1 };
        let key = workload as usize;
        if let Some(&r) = self.roots[key].records.first() {
            return (pos, r);
        }
        let (m, r) = self.runner.boot(workload, kind);
        let root = &mut self.roots[key];
        root.records.push(r);
        root.audits.extend(Audit::read(&m));
        self.ahead.put(key, Box::new(m), 1);
        (pos, r)
    }

    /// Applies `op` to the container at `pos`, moves it one step deeper
    /// and returns the op's record. `op` must be the cycle's op at
    /// `pos`.
    fn apply(&mut self, pos: &mut Pos, op: Op) -> Record {
        let depth = pos.depth as usize;
        assert_eq!(
            op,
            self.ahead.cycle.op(depth),
            "a container left the run's cycle"
        );
        self.steps += 1;
        pos.depth += 1;
        match self.roots[pos.workload as usize].records.get(depth) {
            Some(&r) => r,
            None => self.advance_root(pos.workload),
        }
    }

    /// The values read at `pos`.
    fn record(&self, pos: Pos) -> Record {
        self.roots[pos.workload as usize].records[pos.depth as usize - 1]
    }

    /// The machine's sanitizer report at `pos` (`None` without a
    /// sanitizer).
    fn report(&self, pos: Pos) -> Option<&SanitizerReport> {
        self.audit(pos).map(|a| &a.live)
    }

    /// Tears down the container at `pos` and returns the machine's final
    /// sanitizer report (`None` without a sanitizer): the report of the
    /// clone its root tore down at that depth.
    fn release(&mut self, pos: Pos) -> Option<SanitizerReport> {
        self.audit(pos).map(|a| a.teardown.clone())
    }

    fn add_metrics(&self, metrics: &mut MetricsRegistry) {
        // How much of the op stream sharing served from records;
        // run-ahead records the fleet never consumed are not counted.
        metrics.add("cluster.measured.steps", self.steps);
        metrics.add("cluster.measured.steps_simulated", self.runner.simulated);
    }
}

/// The reference the shared store is tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// A [`ServiceModel`] with one private machine per container, booted
    /// and stepped through [`Runner`]: every op runs a machine, so it
    /// reports `steps == steps_simulated`.
    pub(crate) struct PerContainer {
        runner: Runner,
        /// Each container's machine and last record, indexed by
        /// position; a released container's entry is `None`.
        containers: Vec<Option<(WarmContainer, Record)>>,
    }

    impl PerContainer {
        /// An empty model for containers of `mix` booting under `cfg`.
        pub(crate) fn new(cfg: Box<SystemConfig>, mix: &WorkloadMix) -> Self {
            PerContainer {
                runner: Runner::new(cfg, mix.specs().to_vec()),
                containers: Vec::new(),
            }
        }

        fn get(&self, pos: usize) -> &(WarmContainer, Record) {
            self.containers[pos].as_ref().expect("a live container")
        }
    }

    impl ServiceModel for PerContainer {
        type Pos = usize;

        fn boot(&mut self, workload: u32, kind: ColdStart) -> (usize, Record) {
            let (m, r) = self.runner.boot(workload, kind);
            self.containers.push(Some((m, r)));
            (self.containers.len() - 1, r)
        }

        fn apply(&mut self, pos: &mut usize, op: Op) -> Record {
            let (m, record) = self.containers[*pos].as_mut().expect("a live container");
            *record = self.runner.apply(m, op);
            *record
        }

        fn record(&self, pos: usize) -> Record {
            self.get(pos).1
        }

        fn report(&self, pos: usize) -> Option<&SanitizerReport> {
            self.get(pos).0.machine().sanitizer_report()
        }

        fn release(&mut self, pos: usize) -> Option<SanitizerReport> {
            let (m, _) = self.containers[pos].take().expect("a live container");
            m.finish_with_report().1
        }

        fn add_metrics(&self, metrics: &mut MetricsRegistry) {
            metrics.add("cluster.measured.steps", self.runner.simulated);
            metrics.add("cluster.measured.steps_simulated", self.runner.simulated);
        }
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
    /// 0, odd ones workload 1, so several share each root.
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

    /// Runs `script` — `(container, retire)` steps — on a shared store
    /// and on one private machine per logical container, comparing every
    /// value and report the store hands back. A step boots a container
    /// that is not live; else it retires the container, or applies the
    /// cycle's next op to it.
    fn check(
        store: &mut Lineages,
        cfg: &SystemConfig,
        cycle: OpCycle,
        script: &[(usize, bool)],
    ) -> TestCaseResult {
        // Boots the private reference machines.
        let mut boots = Runner::new(Box::new(cfg.clone()), mix().specs().to_vec());
        let mut live: Vec<Option<Logical>> = (0..CONTAINERS).map(|_| None).collect();
        for &(who, retire) in script {
            let Some(mut c) = live[who].take() else {
                let workload = (who % 2) as u32;
                let (pos, got) = store.boot(workload, cycle.boot);
                let (reference, want) = boots.boot(workload, cycle.boot);
                let c = Logical { pos, reference };
                prop_assert_eq!(got, want);
                same_state(store, &c, want.cycles)?;
                live[who] = Some(c);
                continue;
            };
            if retire {
                teardown(store, c)?;
                continue;
            }
            let op = cycle.op(c.pos.depth as usize);
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
            snapshot in any::<bool>(),
            park_to_pm in any::<bool>(),
            helpers in 0usize..3,
            // One step in eight retires its container, so containers
            // reach several depths of the cycle.
            script in collection::vec((0usize..CONTAINERS, (0u8..8).prop_map(|r| r == 0)), 1..64),
        ) {
            let cfg = config(which);
            let boot = if snapshot {
                ColdStart::Snapshot
            } else {
                ColdStart::Boot
            };
            let keep_alive = if park_to_pm {
                KeepAlive::ParkToPM { ttl_cycles: 1 }
            } else {
                KeepAlive::Infinite
            };
            let cycle = OpCycle::new(boot, keep_alive);
            let ahead = RunAhead::new(cycle, &mix());
            with_helpers(helpers, || ahead.help(), || ahead.stop(), || {
                let mut store = Lineages::new(Box::new(cfg.clone()), &mix(), &ahead);
                check(&mut store, &cfg, cycle, &script)
            })?;
        }
    }

    /// A store over [`mix`] running the plain cycle (full boots, no PM).
    fn plain(ahead: &RunAhead) -> Lineages<'_> {
        Lineages::new(Box::new(SystemConfig::memento()), &mix(), ahead)
    }

    const PLAIN: OpCycle = OpCycle {
        boot: ColdStart::Boot,
        park_to_pm: false,
    };

    #[test]
    fn repeats_are_served_from_records() {
        let ahead = RunAhead::new(PLAIN, &mix());
        let mut store = plain(&ahead);
        let (mut a, _) = store.boot(0, ColdStart::Boot);
        let (mut b, _) = store.boot(0, ColdStart::Boot);
        let first = store.apply(&mut a, Op::Park);
        let again = store.apply(&mut b, Op::Park);
        assert_eq!(first, again, "same history, same numbers");
        assert_eq!((store.steps, store.runner.simulated), (4, 2));
        // `a` is the deepest, so its invoke advances the machine.
        store.apply(&mut a, Op::Invoke { pm_restore: false });
        assert_eq!(store.runner.simulated, 3);
        // Without a sanitizer, teardown needs no machine.
        assert!(store.release(a).is_none());
        assert!(store.release(b).is_none());
        assert_eq!(store.runner.simulated, 3);
        // The root survives with no container on it.
        let (mut c, boot) = store.boot(0, ColdStart::Boot);
        assert_eq!(
            c,
            Pos {
                workload: 0,
                depth: 1
            }
        );
        assert_eq!(boot, store.record(c));
        assert_eq!(store.apply(&mut c, Op::Park), first);
        assert_eq!((store.steps, store.runner.simulated), (7, 3));
    }

    #[test]
    #[should_panic(expected = "a container left the run's cycle")]
    fn an_op_off_the_cycle_panics() {
        let ahead = RunAhead::new(PLAIN, &mix());
        let mut store = plain(&ahead);
        let (mut a, _) = store.boot(0, ColdStart::Boot);
        // The cycle parks right after a boot.
        store.apply(&mut a, Op::Invoke { pm_restore: false });
    }

    #[test]
    #[should_panic(expected = "a container booted off the run's cycle")]
    fn a_boot_of_the_wrong_kind_panics() {
        let ahead = RunAhead::new(PLAIN, &mix());
        plain(&ahead).boot(0, ColdStart::Snapshot);
    }

    #[test]
    fn a_helper_runs_a_root_ahead_and_each_record_counts_once() {
        let cfg = SystemConfig::memento();
        let ahead = RunAhead::new(PLAIN, &mix());
        with_helpers(
            1,
            || ahead.help(),
            || ahead.stop(),
            || {
                let mut store = Lineages::new(Box::new(cfg.clone()), &mix(), &ahead);
                let mut refs = Runner::new(Box::new(cfg.clone()), mix().specs().to_vec());
                let (mut a, _) = store.boot(0, ColdStart::Boot);
                let (mut b, _) = store.boot(0, ColdStart::Boot);
                // The helper steps the root's machine along the cycle
                // (park, invoke, park, ...) ahead of both containers;
                // nothing it stepped counts until a container consumes it.
                ahead.wait_buffered(0, LOOKAHEAD);
                assert_eq!(store.runner.simulated, 1);
                // `a` leads and is served the helper's records, each
                // counted once as the fleet consumes it.
                let (mut want, _) = refs.boot(0, ColdStart::Boot);
                let mut served = Vec::new();
                for depth in 1..=3 {
                    let op = PLAIN.op(depth);
                    let r = store.apply(&mut a, op);
                    assert_eq!(r, refs.apply(&mut want, op));
                    assert_eq!(store.runner.simulated, 1 + depth as u64);
                    served.push(r);
                }
                // `b` follows and reads the same records, counting none.
                for (depth, r) in (1..=3).zip(served) {
                    assert_eq!(store.apply(&mut b, PLAIN.op(depth)), r);
                }
                assert_eq!((store.steps, store.runner.simulated), (8, 4));
                assert!(store.release(a).is_none());
                assert!(store.release(b).is_none());
            },
        );
    }

    #[test]
    fn a_helper_panic_reaches_the_fleet_thread_waiting_on_its_root() {
        let ahead = RunAhead::new(PLAIN, &mix());
        // Root 0 holds no idle machine, as if a helper held it when it
        // failed.
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
        let ahead = RunAhead::new(PLAIN, &mix());
        let mut store = Lineages::new(Box::new(cfg.clone()), &mix(), &ahead);
        let (mut a, _) = store.boot(0, ColdStart::Boot);
        let (mut b, _) = store.boot(1, ColdStart::Boot);
        let (key_a, key_b) = (0, 1);
        // B runs one record short of full.
        for _ in 1..LOOKAHEAD {
            drop(ahead.step_ahead(ahead.lock(), key_b));
        }
        // As if a helper held A's machine.
        let m = ahead.lock().roots[key_a]
            .idle
            .take()
            .expect("A's machine sits idle after its boot");
        #[expect(
            clippy::disallowed_methods,
            reason = "the test stands in for a helper thread holding A's machine"
        )]
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
            let op = PLAIN.op(depth);
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
        let ahead = RunAhead::new(PLAIN, &mix());
        let mut boots = Runner::new(Box::new(SystemConfig::memento()), mix().specs().to_vec());
        let key_b = 1;
        ahead.put(key_b, Box::new(boots.boot(1, ColdStart::Boot).0), 1);
        {
            let mut st = ahead.lock();
            // Root 0 holds no idle machine, as if a helper held it, while
            // B's next step fails.
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
            ahead.lock().roots[key_b].idle.is_none(),
            "the fleet thread held B's machine when it failed"
        );
    }
}
