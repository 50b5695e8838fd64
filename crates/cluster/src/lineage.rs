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
//! - **One stream from boot on.** A root's records start at its boot:
//!   one step, [`OpCycle::step`], boots at depth 0 and applies the
//!   cycle's op after that. The store takes a root's boot the way it
//!   takes every later record, and [`crate::profile::calibrate`] reads
//!   the head of a plain-cycle root through the same step.
//! - **The contract.** The boot kind is the cycle's, fixed when the store
//!   is built. Asking for an op the cycle does not hold is a bug in the
//!   caller, and panics: one compare per op. `sim::Sim` parks after
//!   every completion, parks to PM exactly under [`KeepAlive::ParkToPM`],
//!   and then restores from PM on every warm start. A new op must enter
//!   [`OpCycle`] (see [`Op`]).
//! - **Run-ahead.** A root's records are a fixed stream. Helper threads
//!   ([`RunAhead::help`]) step idle root machines up to [`LOOKAHEAD`]
//!   records past the deepest container, but never boot a root. The
//!   fleet thread takes a buffered record, or steps the root itself when
//!   its machine is idle or not yet booted. While a helper holds that
//!   machine, the fleet thread steps another root ahead the same way a
//!   helper would, and waits only when no root is idle with room.
//!   Records are a pure function of the op history, so every output is
//!   the same at any helper count, sanitized or not.
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
pub(crate) fn run_op(m: &mut WarmContainer, op: Op) -> Record {
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

    /// The one step of a root of `spec` under `cfg`, from `depth` to
    /// `depth + 1`, returning the step's record: at depth 0, where `m`
    /// holds no machine yet, a boot of the cycle's kind that leaves the
    /// machine in `m`; after that the cycle's op at `depth` on `m`.
    ///
    /// A REAP-style snapshot boot builds the machine the same way as a
    /// cold start (snapshots capture exactly the booted state), but
    /// charges a warm invocation after a park plus the working-set
    /// prefetch ([`WarmContainer::snapshot_restore_cycles`]) in place of
    /// instruction replay, clamped [`strictly_between`] the warm and cold
    /// costs.
    pub(crate) fn step(
        self,
        cfg: &SystemConfig,
        spec: &WorkloadSpec,
        m: &mut Option<Box<WarmContainer>>,
        depth: usize,
    ) -> Record {
        debug_assert_eq!(m.is_none(), depth == 0, "a root boots at depth 0 only");
        if let Some(m) = m {
            return run_op(m, self.op(depth));
        }
        let (mut booted, stats) = WarmContainer::cold_start(cfg.clone(), spec);
        let cold = stats.total_cycles().raw();
        let cycles = match self.boot {
            ColdStart::Boot => cold,
            ColdStart::Snapshot => {
                booted.park();
                let prefetch = booted.snapshot_restore_cycles();
                let warm = booted.invoke().total_cycles().raw().max(1);
                strictly_between(warm, prefetch, cold.max(1))
            }
        };
        Record::read(m.insert(Box::new(booted)), cycles)
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
    cfg: Box<SystemConfig>,
    /// Indexed by workload, like the roots.
    specs: Vec<WorkloadSpec>,
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
    /// A store for the roots of `mix` under `cycle`, one per workload,
    /// whose machines run `cfg`; no root is booted.
    pub(crate) fn new(cfg: Box<SystemConfig>, cycle: OpCycle, mix: &WorkloadMix) -> Self {
        let roots = (0..mix.len())
            .map(|_| AheadRoot {
                idle: None,
                depth: 0,
                buffered: VecDeque::with_capacity(LOOKAHEAD),
            })
            .collect();
        RunAhead {
            cfg,
            specs: mix.specs().to_vec(),
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

    /// Steps root `key` one [`OpCycle::step`] outside the lock, booting
    /// it at depth 0, and buffers the record with the machine's reports,
    /// counted only when the fleet consumes it. The one step of a root,
    /// taken by helpers and by the fleet thread. Returns the lock,
    /// retaken.
    fn step_ahead<'g>(
        &'g self,
        mut st: MutexGuard<'g, AheadState>,
        key: usize,
    ) -> MutexGuard<'g, AheadState> {
        let root = &mut st.roots[key];
        let depth = root.depth;
        let mut m = root.idle.take();
        // A root another thread holds is not stepped.
        if m.is_none() && depth > 0 {
            return st;
        }
        #[cfg(test)]
        let fail = st.fail_step == Some(key);
        drop(st);
        #[cfg(test)]
        assert!(!fail, "injected step failure");
        let r = self.cycle.step(&self.cfg, &self.specs[key], &mut m, depth);
        let audit = m.as_deref().and_then(Audit::read);
        let mut st = self.lock();
        let root = &mut st.roots[key];
        root.idle = m;
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
    /// [`Self::stop`]. Only idle roots are stepped, so a helper never
    /// boots one.
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
    /// one a helper buffered, else one the fleet thread steps here, the
    /// root's boot included. While a helper steps the root, the fleet
    /// thread steps another root ahead instead, and waits only when no
    /// root is idle with room.
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
            st = if root.idle.is_some() || root.depth == 0 {
                self.step_ahead(st, key)
            } else {
                self.step_any_or_wait(st)
            };
        }
    }
}

/// A container's place in the store: `depth` records reached on the
/// root of `workload` (1 right after boot).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Pos {
    workload: u32,
    depth: u32,
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
    ahead: &'a RunAhead,
    /// Indexed by workload.
    roots: Vec<Root>,
    /// Container ops served.
    steps: u64,
    /// Records the fleet consumed from the roots' streams: the ops that
    /// ran a machine.
    simulated: u64,
}

impl<'a> Lineages<'a> {
    /// An empty store whose roots run in `ahead`.
    pub(crate) fn new(ahead: &'a RunAhead) -> Self {
        Lineages {
            ahead,
            roots: ahead.specs.iter().map(|_| Root::default()).collect(),
            steps: 0,
            simulated: 0,
        }
    }

    /// The machine's reports at `pos` (`None` without a sanitizer).
    fn audit(&self, pos: Pos) -> Option<&Audit> {
        self.roots[pos.workload as usize]
            .audits
            .get(pos.depth as usize - 1)
    }

    /// The record a container reaching `pos` reads: the root's, when the
    /// root already got there, else the root's next record, for its
    /// deepest container, counted as simulated now that the fleet
    /// consumes it.
    fn reach(&mut self, pos: Pos) -> Record {
        self.steps += 1;
        let key = pos.workload as usize;
        if let Some(&r) = self.roots[key].records.get(pos.depth as usize - 1) {
            return r;
        }
        let (r, audit) = self.ahead.next(key);
        self.simulated += 1;
        let root = &mut self.roots[key];
        root.records.push(r);
        root.audits.extend(audit);
        r
    }
}

impl ServiceModel for Lineages<'_> {
    type Pos = Pos;

    /// Boots a container of `workload` the cycle's way and returns its
    /// position and the boot's record, the root's first.
    fn boot(&mut self, workload: u32) -> (Pos, Record) {
        let pos = Pos { workload, depth: 1 };
        (pos, self.reach(pos))
    }

    /// Applies `op` to the container at `pos`, moves it one step deeper
    /// and returns the op's record. `op` must be the cycle's op at
    /// `pos`.
    fn apply(&mut self, pos: &mut Pos, op: Op) -> Record {
        assert_eq!(
            op,
            self.ahead.cycle.op(pos.depth as usize),
            "a container left the run's cycle"
        );
        pos.depth += 1;
        self.reach(*pos)
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
        metrics.add("cluster.measured.steps_simulated", self.simulated);
    }
}

/// The reference the shared store is tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// A container with a root of its own: its workload, machine, depth
    /// and last record.
    struct Private {
        workload: usize,
        machine: Option<Box<WarmContainer>>,
        depth: usize,
        record: Record,
    }

    /// A [`ServiceModel`] with one root per container, stepped through
    /// [`OpCycle::step`]: every op runs a machine, so it reports
    /// `steps == steps_simulated`.
    pub(crate) struct PerContainer {
        cfg: Box<SystemConfig>,
        specs: Vec<WorkloadSpec>,
        cycle: OpCycle,
        /// Indexed by position; a released container's entry is `None`.
        containers: Vec<Option<Private>>,
        simulated: u64,
    }

    impl PerContainer {
        /// An empty model for containers of `mix` booting under `cfg`
        /// and following `cycle`.
        pub(crate) fn new(cfg: Box<SystemConfig>, cycle: OpCycle, mix: &WorkloadMix) -> Self {
            PerContainer {
                cfg,
                specs: mix.specs().to_vec(),
                cycle,
                containers: Vec::new(),
                simulated: 0,
            }
        }

        fn get(&self, pos: usize) -> &Private {
            self.containers[pos].as_ref().expect("a live container")
        }

        fn machine(&self, pos: usize) -> &WarmContainer {
            self.get(pos)
                .machine
                .as_deref()
                .expect("a booted container")
        }
    }

    impl ServiceModel for PerContainer {
        type Pos = usize;

        fn boot(&mut self, workload: u32) -> (usize, Record) {
            self.simulated += 1;
            let workload = workload as usize;
            let mut machine = None;
            let record = self
                .cycle
                .step(&self.cfg, &self.specs[workload], &mut machine, 0);
            self.containers.push(Some(Private {
                workload,
                machine,
                depth: 1,
                record,
            }));
            (self.containers.len() - 1, record)
        }

        fn apply(&mut self, pos: &mut usize, op: Op) -> Record {
            self.simulated += 1;
            let c = self.containers[*pos].as_mut().expect("a live container");
            assert_eq!(
                op,
                self.cycle.op(c.depth),
                "a container left the run's cycle"
            );
            c.record = self
                .cycle
                .step(&self.cfg, &self.specs[c.workload], &mut c.machine, c.depth);
            c.depth += 1;
            c.record
        }

        fn record(&self, pos: usize) -> Record {
            self.get(pos).record
        }

        fn report(&self, pos: usize) -> Option<&SanitizerReport> {
            self.machine(pos).machine().sanitizer_report()
        }

        fn release(&mut self, pos: usize) -> Option<SanitizerReport> {
            let c = self.containers[pos].take().expect("a live container");
            c.machine
                .expect("a booted container")
                .finish_with_report()
                .1
        }

        fn add_metrics(&self, metrics: &mut MetricsRegistry) {
            metrics.add("cluster.measured.steps", self.simulated);
            metrics.add("cluster.measured.steps_simulated", self.simulated);
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
        let mix = mix();
        let mut live: Vec<Option<Logical>> = (0..CONTAINERS).map(|_| None).collect();
        for &(who, retire) in script {
            let Some(mut c) = live[who].take() else {
                let workload = (who % 2) as u32;
                let (pos, got) = store.boot(workload);
                // The private reference machine boots through a root step.
                let mut reference = None;
                let want = cycle.step(cfg, &mix.specs()[workload as usize], &mut reference, 0);
                let reference = *reference.expect("a booted machine");
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
            let ahead = RunAhead::new(Box::new(cfg.clone()), cycle, &mix());
            with_helpers(helpers, || ahead.help(), || ahead.stop(), || {
                let mut store = Lineages::new(&ahead);
                check(&mut store, &cfg, cycle, &script)
            })?;
        }
    }

    const PLAIN: OpCycle = OpCycle {
        boot: ColdStart::Boot,
        park_to_pm: false,
    };

    /// A store for the roots of [`mix`] on memento machines running the
    /// plain cycle (full boots, no PM).
    fn plain() -> RunAhead {
        RunAhead::new(Box::new(SystemConfig::memento()), PLAIN, &mix())
    }

    /// Stands in for a thread holding root `key`'s machine past its boot.
    fn hold(ahead: &RunAhead, key: usize) {
        let mut st = ahead.lock();
        let root = &mut st.roots[key];
        root.idle = None;
        root.depth = root.depth.max(1);
    }

    #[test]
    fn repeats_are_served_from_records() {
        let ahead = plain();
        let mut store = Lineages::new(&ahead);
        let (mut a, _) = store.boot(0);
        let (mut b, _) = store.boot(0);
        let first = store.apply(&mut a, Op::Park);
        let again = store.apply(&mut b, Op::Park);
        assert_eq!(first, again, "same history, same numbers");
        assert_eq!((store.steps, store.simulated), (4, 2));
        // `a` is the deepest, so its invoke advances the machine.
        store.apply(&mut a, Op::Invoke { pm_restore: false });
        assert_eq!(store.simulated, 3);
        // Without a sanitizer, teardown needs no machine.
        assert!(store.release(a).is_none());
        assert!(store.release(b).is_none());
        assert_eq!(store.simulated, 3);
        // The root survives with no container on it.
        let (mut c, boot) = store.boot(0);
        assert_eq!(
            c,
            Pos {
                workload: 0,
                depth: 1
            }
        );
        assert_eq!(boot, store.record(c));
        assert_eq!(store.apply(&mut c, Op::Park), first);
        assert_eq!((store.steps, store.simulated), (7, 3));
    }

    #[test]
    #[should_panic(expected = "a container left the run's cycle")]
    fn an_op_off_the_cycle_panics() {
        let ahead = plain();
        let mut store = Lineages::new(&ahead);
        let (mut a, _) = store.boot(0);
        // The cycle parks right after a boot.
        store.apply(&mut a, Op::Invoke { pm_restore: false });
    }

    #[test]
    fn a_helper_runs_a_root_ahead_and_each_record_counts_once() {
        let cfg = SystemConfig::memento();
        let mix = mix();
        let ahead = plain();
        with_helpers(
            1,
            || ahead.help(),
            || ahead.stop(),
            || {
                let mut store = Lineages::new(&ahead);
                let (mut a, _) = store.boot(0);
                let (mut b, _) = store.boot(0);
                // The helper steps the root's machine along the cycle
                // (park, invoke, park, ...) ahead of both containers;
                // nothing it stepped counts until a container consumes it.
                ahead.wait_buffered(0, LOOKAHEAD);
                assert_eq!(store.simulated, 1);
                // `a` leads and is served the helper's records, each
                // counted once as the fleet consumes it. A private root
                // steps the same cycle.
                let mut want = None;
                PLAIN.step(&cfg, &mix.specs()[0], &mut want, 0);
                let mut served = Vec::new();
                for depth in 1..=3 {
                    let op = PLAIN.op(depth);
                    let r = store.apply(&mut a, op);
                    assert_eq!(r, PLAIN.step(&cfg, &mix.specs()[0], &mut want, depth));
                    assert_eq!(store.simulated, 1 + depth as u64);
                    served.push(r);
                }
                // `b` follows and reads the same records, counting none.
                for (depth, r) in (1..=3).zip(served) {
                    assert_eq!(store.apply(&mut b, PLAIN.op(depth)), r);
                }
                assert_eq!((store.steps, store.simulated), (8, 4));
                assert!(store.release(a).is_none());
                assert!(store.release(b).is_none());
            },
        );
    }

    #[test]
    fn a_helper_panic_reaches_the_fleet_thread_waiting_on_its_root() {
        let ahead = plain();
        // Root 0 holds no idle machine, as if a helper held it when it
        // failed.
        hold(&ahead, 0);
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
        let ahead = plain();
        let mut store = Lineages::new(&ahead);
        let (mut a, _) = store.boot(0);
        let (mut b, _) = store.boot(1);
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
                ahead.lock().roots[key_a].idle = Some(m);
                ahead.changed.notify_all();
                if let Err(p) = full {
                    std::panic::resume_unwind(p);
                }
            });
            store.apply(&mut a, Op::Park);
        });
        assert_eq!(ahead.lock().roots[key_b].buffered.len(), LOOKAHEAD);
        // Two boots and A's park; B's records count once consumed.
        assert_eq!(store.simulated, 3);
        let spec = &ahead.specs[key_b];
        let mut want = None;
        PLAIN.step(&cfg, spec, &mut want, 0);
        for depth in 1..=LOOKAHEAD {
            let op = PLAIN.op(depth);
            let r = PLAIN.step(&cfg, spec, &mut want, depth);
            if depth == LOOKAHEAD {
                let st = ahead.lock();
                let (last, _) = st.roots[key_b].buffered.back().expect("B is full");
                assert_eq!(
                    *last, r,
                    "the fleet thread's step matches a private machine"
                );
            }
            assert_eq!(store.apply(&mut b, op), r);
            assert_eq!(store.simulated, 3 + depth as u64);
        }
    }

    #[test]
    fn a_fleet_thread_panic_stepping_another_root_reaches_the_caller() {
        let ahead = plain();
        let key_b = 1;
        // The fleet thread boots B.
        ahead.next(key_b);
        // Root 0 holds no idle machine, as if a helper held it, while B's
        // next step fails.
        hold(&ahead, 0);
        ahead.lock().fail_step = Some(key_b);
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
