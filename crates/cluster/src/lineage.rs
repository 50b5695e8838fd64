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
//! kind) is shared by the whole fleet.
//!
//! - **Divergence.** A container that asks for a different op than the
//!   one recorded at its depth forks a private lineage holding a copy of
//!   the prefix. The fork's machine is rebuilt by replaying that prefix
//!   on a fresh boot when it first needs one.
//! - **Teardown.** [`ServiceModel::release`] needs a machine only when the
//!   machine has a sanitizer: the finish report is computed once per
//!   depth and memoized, from the tip machine if it sits at that depth,
//!   else from a replay. Without a sanitizer teardown reads nothing, so
//!   the tip machine stays for later containers.

use memento_obs::metrics::MetricsRegistry;
use memento_sanitizer::SanitizerReport;
use memento_system::{SystemConfig, WarmContainer};
use memento_workloads::spec::WorkloadSpec;

use crate::arrival::WorkloadMix;
use crate::model::{Op, Record, ServiceModel};
use crate::policy::ColdStart;

/// Sentinel for "no lineage yet" in the per-(workload, boot kind) roots.
const NO_LINEAGE: u32 = u32::MAX;

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
    /// The live machine, always at depth `records.len()` when present.
    machine: Option<WarmContainer>,
    /// Containers currently positioned on this lineage.
    holders: u32,
    /// A fleet-wide root, kept when no container holds it; a private
    /// fork is dropped with its last holder.
    shared: bool,
}

/// Boots and steps machines, counting every op it simulates. The one
/// place a cluster-layer [`WarmContainer`] is booted or stepped: the
/// lineage store runs the fleet's ops through it, and
/// [`crate::profile::calibrate`] its fixed calibration script.
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
/// (workload, boot kind), plus the private forks of containers that
/// diverged.
pub(crate) struct Lineages {
    runner: Runner,
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

fn kind_index(kind: ColdStart) -> usize {
    match kind {
        ColdStart::Boot => 0,
        ColdStart::Snapshot => 1,
    }
}

impl Lineages {
    /// An empty store for containers of `mix` booting under `cfg`.
    pub(crate) fn new(cfg: Box<SystemConfig>, mix: &WorkloadMix) -> Self {
        Lineages {
            runner: Runner::new(cfg, mix.specs().to_vec()),
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
    pub(crate) fn per_container(cfg: Box<SystemConfig>, mix: &WorkloadMix) -> Self {
        Lineages {
            per_container: true,
            ..Lineages::new(cfg, mix)
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

    fn finish_report(&mut self, pos: Pos) -> SanitizerReport {
        let depth = pos.depth as usize;
        let l = self.lineages[pos.lineage as usize]
            .as_mut()
            .expect("positions point at live lineages");
        if let Some(Some(r)) = l.finished.get(depth - 1) {
            return r.clone();
        }
        let m = match l.machine.take() {
            Some(m) if depth == l.records.len() => m,
            tip => {
                l.machine = tip;
                self.runner.replay(l, depth)
            }
        };
        let report = m.finish_with_report().1.unwrap_or_default();
        if l.finished.len() < depth {
            l.finished.resize(depth, None);
        }
        l.finished[depth - 1] = Some(report.clone());
        report
    }
}

impl ServiceModel for Lineages {
    type Pos = Pos;

    /// Boots a container of `workload` and returns its position and the
    /// boot's record.
    fn boot(&mut self, workload: u32, kind: ColdStart) -> (Pos, Record) {
        self.steps += 1;
        let key = workload as usize * 2 + kind_index(kind);
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
        let id = self.insert(Lineage {
            workload,
            boot: kind,
            ops: Vec::new(),
            records: vec![r],
            reports: m
                .machine()
                .sanitizer_report()
                .cloned()
                .into_iter()
                .collect(),
            finished: Vec::new(),
            machine: Some(m),
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
        // How much of the op stream lineage sharing served from records.
        metrics.add("cluster.measured.steps", self.steps);
        metrics.add("cluster.measured.steps_simulated", self.runner.simulated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_workloads::suite;
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn shared_lineages_match_private_machines(
            which in 0u8..3,
            script in collection::vec((0usize..CONTAINERS, 0u8..8, 0u8..4), 1..64),
        ) {
            let cfg = config(which);
            let mut store = Lineages::new(Box::new(cfg.clone()), &mix());
            check(&mut store, &cfg, &script)?;
        }
    }

    #[test]
    fn repeats_are_served_from_records_and_divergence_forks() {
        let cfg = SystemConfig::memento();
        let mut store = Lineages::new(Box::new(cfg.clone()), &mix());
        let (mut a, _) = store.boot(0, ColdStart::Boot);
        let (mut b, _) = store.boot(0, ColdStart::Boot);
        let invoke = Op::Invoke { pm_restore: false };
        let first = store.apply(&mut a, invoke);
        let again = store.apply(&mut b, invoke);
        assert_eq!(first, again, "same history, same numbers");
        assert_eq!((store.steps, store.runner.simulated), (4, 2));
        // `a` is at the tip, so its park advances the machine.
        store.apply(&mut a, Op::Park);
        assert_eq!(store.runner.simulated, 3);
        // `b` asks for an invoke where the lineage recorded a park: it
        // forks, replaying boot + invoke before running its own op.
        store.apply(&mut b, invoke);
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
    fn per_container_keying_never_shares() {
        let cfg = SystemConfig::memento_sanitized();
        let mut store = Lineages::per_container(Box::new(cfg.clone()), &mix());
        let script: Vec<(usize, u8, u8)> = (0..40)
            .map(|i| (i % CONTAINERS, (i % 3) as u8, 0))
            .collect();
        check(&mut store, &cfg, &script).expect("per-container store matches private machines");
        assert_eq!(store.steps, store.runner.simulated);
    }
}
