//! Warm-container lifecycle for the cluster layer: one process, one
//! allocator, one Memento attachment serving request after request.
//!
//! [`crate::Machine::run_invocations`] drives a fixed number of
//! back-to-back invocations for the §6.3 steady-state figures; a cluster
//! node needs the same mechanics under *external* control — a scheduler
//! decides when the next request lands on this container, whether the
//! container stays warm in the keep-alive pool, and when it is evicted.
//! Both serve each invocation through the same machine step, so they
//! agree invocation for invocation. [`WarmContainer`] exposes the
//! lifecycle as three moves:
//!
//! 1. [`WarmContainer::cold_start`] — boot the machine, create the
//!    process/allocator/device state, and serve the first (cold)
//!    invocation. Its statistics include container bring-up.
//! 2. [`WarmContainer::invoke`] — serve one warm invocation: replay the
//!    request body ([`Trace::body`]), then quiesce at the boundary
//!    (object sweep, GC, `end_invocation_trim` arena recycling,
//!    allocator decay).
//! 3. [`WarmContainer::finish`] — container teardown: batch-return the
//!    small-object heap to the OS pool and unmap what remains.
//!
//! Between invocations the container idles warm: the pool and Memento
//! page table keep their recycled frames, which is what
//! [`WarmContainer::unreclaimable_pages`] reports to the fleet accountant.

use crate::config::SystemConfig;
use crate::machine::{FunctionRun, Machine};
use crate::stats::RunStats;
use memento_pmem::{PmEpoch, PmPool};
use memento_workloads::event::Trace;
use memento_workloads::generator::generate;
use memento_workloads::spec::WorkloadSpec;

/// A warm serverless container: a booted [`Machine`] plus the live process
/// state of one function, serving invocations on demand.
pub struct WarmContainer {
    machine: Machine,
    run: FunctionRun,
    trace: Trace,
    serving_peak_pages: u64,
    /// The container's persistent checkpoint pool, created on the first
    /// [`WarmContainer::park_to_pm`] and reused for every later park (the
    /// two-slot protocol alternates areas, so successive epochs never
    /// overwrite each other in place).
    pm: Option<PmPool>,
    pm_parked: bool,
}

impl WarmContainer {
    /// Boots a container for `spec` under `cfg` and serves the first —
    /// cold — invocation. The returned statistics cover everything from
    /// machine bring-up through the first request's boundary quiesce, so
    /// they are the cold-start service time a scheduler should charge.
    pub fn cold_start(cfg: SystemConfig, spec: &WorkloadSpec) -> (Self, RunStats) {
        let mut machine = Machine::new(cfg);
        let run = machine.start(spec);
        let mut container = WarmContainer {
            machine,
            run,
            trace: generate(spec),
            serving_peak_pages: 0,
            pm: None,
            pm_parked: false,
        };
        let cold = container.serve(false);
        (container, cold)
    }

    /// Serves one warm invocation and returns its statistics (the warm
    /// service time). The container stays alive: frames recycled at the
    /// boundary serve the next request without fresh OS grants. After the
    /// call, [`WarmContainer::serving_peak_pages`] reports the footprint
    /// this invocation pinned.
    pub fn invoke(&mut self) -> RunStats {
        self.serve(true)
    }

    fn serve(&mut self, warm: bool) -> RunStats {
        let (stats, serving_peak) =
            self.machine
                .serve_invocation(&mut self.run, self.trace.body(), warm);
        self.serving_peak_pages = serving_peak;
        stats
    }

    /// Tears the container down (keep-alive expiry or scheduler eviction):
    /// Memento detach with batch pool return, then OS unmap of what
    /// remains. Returns the teardown-window statistics.
    pub fn finish(self) -> RunStats {
        self.finish_with_report().0
    }

    /// [`WarmContainer::finish`], but also hands back the machine's final
    /// sanitizer report (None when the sanitizer is off) — teardown runs
    /// the last audit, so the report is only complete after it.
    pub fn finish_with_report(mut self) -> (RunStats, Option<memento_sanitizer::SanitizerReport>) {
        self.machine.begin_measurement(&mut self.run);
        self.machine.finish_run(&mut self.run, 0);
        let stats = self.machine.collect_inner(&self.run);
        let report = self.machine.sanitizer_report().cloned();
        (stats, report)
    }

    /// The machine this container runs on (frame accounting, pool audits).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Keep-alive park: sheds the hardware pool's idle reserve back to the
    /// OS while the container waits warm (see [`Machine::park`]). Returns
    /// frames shed; 0 on baseline containers.
    pub fn park(&mut self) -> u64 {
        self.machine.park()
    }

    /// Parks this container to persistent memory: captures a
    /// crash-consistent checkpoint of its Memento state (arena bitmaps,
    /// AAC bump pointers, HOT-resident headers, Memento page table) into
    /// the container's [`PmPool`], then sheds the DRAM pool's idle
    /// reserve exactly like [`WarmContainer::park`]. When the sanitizer
    /// is on, the checkpoint is first put through the crash-injected
    /// recovery audit at a `audit_seed`-selected injection point.
    ///
    /// Returns the cycles the persist costs — checkpoint record flushes
    /// plus the working-set writeback — paid off the latency path: the
    /// container is idle when it parks, so schedulers account this as
    /// background work, not service time. Baseline containers persist an
    /// empty image (no device state exists); their restore degenerates to
    /// demand-refaulting, which is the cost edge the fleet experiment
    /// measures.
    pub fn park_to_pm(&mut self, audit_seed: u64) -> u64 {
        let records = self.machine.pm_records(&self.run);
        if self.pm.is_none() {
            self.pm = Some(PmPool::new(self.machine.pm_costs()));
        }
        // Audit against the pool *before* the new checkpoint: pre-seal
        // crashes must recover the previous epoch, never a torn image.
        let pool = self.pm.as_ref().expect("pool just ensured");
        self.machine.audit_pm_recovery(pool, &records, audit_seed);
        let pool = self.pm.as_mut().expect("pool just ensured");
        let (epoch, checkpoint_cycles) = pool.checkpoint(&records);
        self.machine
            .note_pm_parked(&self.run, epoch.raw(), records.len() as u64);
        self.machine.park();
        self.pm_parked = true;
        checkpoint_cycles + self.machine.pm_persist_data_cycles()
    }

    /// Brings a parked-to-PM container back to serving: runs PM recovery
    /// (picking the newest sealed epoch, scrubbing any in-flight one) and
    /// replays the sealed image. Returns the extra cycles the next warm
    /// invocation must be charged on top of its warm service time (PM
    /// recovery plus image replay, or a demand refault of the working set
    /// when the image is empty); frames shed at park re-enter
    /// through the normal low-water pool refill, whose cost lands in that
    /// invocation's own ledger. Returns 0 if the container is not parked.
    pub fn restore_from_pm(&mut self) -> u64 {
        if !self.pm_parked {
            return 0;
        }
        let pool = self.pm.as_mut().expect("parked implies pool");
        pool.recover();
        let image = pool.sealed_image().expect("park always seals an epoch");
        let extra = self.machine.pm_restore_cycles(&image);
        self.machine.note_pm_restored(&self.run, image.epoch());
        self.pm_parked = false;
        extra
    }

    /// Whether the container currently sits parked in PM.
    pub fn is_pm_parked(&self) -> bool {
        self.pm_parked
    }

    /// The newest sealed checkpoint epoch, if the container ever parked.
    pub fn pm_sealed_epoch(&self) -> Option<PmEpoch> {
        self.pm.as_ref().and_then(|p| p.sealed_epoch())
    }

    /// The container's checkpoint pool (diagnostics and tests).
    pub fn pm_pool(&self) -> Option<&PmPool> {
        self.pm.as_ref()
    }

    /// Peak unreclaimable frames while the most recent request body
    /// executed (cold start included for the first invocation) — what
    /// this container pins while actively serving, free pool staging
    /// excluded.
    pub fn serving_peak_pages(&self) -> u64 {
        self.serving_peak_pages
    }

    /// Currently-unreclaimable frames: resident minus the pool's free
    /// staging — this container's idle-warm contribution to the fleet
    /// footprint.
    pub fn unreclaimable_pages(&self) -> u64 {
        self.machine.unreclaimable_pages()
    }

    /// Cycles a REAP-style snapshot restore of this container would pay
    /// (see [`Machine::snapshot_restore_cycles`]).
    pub fn snapshot_restore_cycles(&self) -> u64 {
        self.machine.snapshot_restore_cycles()
    }

    /// The frames a pressure squeeze cannot reclaim from this container
    /// (see [`Machine::squeeze_floor_pages`]).
    pub fn squeeze_floor_pages(&self) -> u64 {
        self.machine.squeeze_floor_pages()
    }

    /// Per-frame cost of re-faulting squeezed frames on the next warm
    /// start (see [`Machine::squeeze_refault_unit_cycles`]).
    pub fn squeeze_refault_unit_cycles(&self) -> u64 {
        self.machine.squeeze_refault_unit_cycles()
    }
}

// The cluster layer moves containers across the experiment harness's
// worker threads during profile calibration.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<WarmContainer>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use memento_workloads::suite;

    fn small_spec(name: &str) -> WorkloadSpec {
        let mut s = suite::by_name(name).expect("workload exists");
        s.total_instructions = 300_000;
        s
    }

    #[test]
    fn warm_invocations_cost_less_than_cold() {
        let spec = small_spec("aes");
        let (mut c, cold) = WarmContainer::cold_start(SystemConfig::memento(), &spec);
        let warm = c.invoke();
        assert!(cold.total_cycles() > warm.total_cycles(), "cold start paid");
        let teardown = c.finish();
        assert!(teardown.kernel.munmaps > 0 || teardown.kernel.context_switches > 0);
    }

    #[test]
    fn matches_run_invocations_warm_window() {
        // The externally-driven container must reproduce the monolithic
        // warm driver invocation for invocation, the cold start included:
        // same machine, same boundary semantics, same statistics.
        let n = 3;
        for cfg in [SystemConfig::baseline(), SystemConfig::memento()] {
            for name in ["html", "Redis", "bfs-go"] {
                let spec = small_spec(name);
                let reference = Machine::new(cfg.clone()).run_invocations(&spec, n);
                let (mut c, cold) = WarmContainer::cold_start(cfg.clone(), &spec);
                let served: Vec<RunStats> = std::iter::once(cold)
                    .chain((1..n).map(|_| c.invoke()))
                    .collect();
                assert_eq!(served.len(), reference.invocations.len());
                for (i, (got, want)) in served.iter().zip(&reference.invocations).enumerate() {
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "{name}/{:?}: invocation {i} diverged from run_invocations",
                        cfg.mode
                    );
                }
            }
        }
    }

    #[test]
    fn idle_footprint_stays_flat_across_warm_invocations() {
        // Keep-alive economics: after the boundary trim, an idle container
        // must not grow its resident footprint request over request
        // (otherwise the warm pool leaks the fleet's memory).
        let spec = small_spec("US");
        let (mut c, _) = WarmContainer::cold_start(SystemConfig::memento(), &spec);
        c.invoke();
        let after_second = c.machine().resident_pages();
        for _ in 0..3 {
            c.invoke();
        }
        let after_fifth = c.machine().resident_pages();
        assert!(
            after_fifth <= after_second + after_second / 8,
            "idle footprint grew: {after_second} -> {after_fifth} frames"
        );
        assert!(c.machine().peak_resident_pages() >= after_fifth);
    }

    #[test]
    fn park_to_pm_round_trip_restores_between_warm_and_snapshot() {
        let spec = small_spec("aes");
        let (mut c, _) = WarmContainer::cold_start(SystemConfig::memento(), &spec);
        let warm = c.invoke().total_cycles().raw();
        let snapshot = c.snapshot_restore_cycles();
        let persist = c.park_to_pm(3);
        assert!(persist > 0, "persist work was charged");
        assert!(c.is_pm_parked());
        let epoch = c.pm_sealed_epoch().expect("epoch sealed");
        assert_eq!(epoch.raw(), 1);
        let restore = c.restore_from_pm();
        assert!(!c.is_pm_parked());
        assert!(
            restore > 0 && restore < warm + snapshot,
            "PM restore ({restore}) must undercut snapshot-restore-plus-warm ({warm}+{snapshot})"
        );
        // The container still serves after the round trip.
        let again = c.invoke();
        assert!(again.total_cycles().raw() > 0);
        // A second park seals a strictly newer epoch.
        c.park_to_pm(5);
        assert_eq!(c.pm_sealed_epoch().expect("resealed").raw(), 2);
    }

    #[test]
    fn pm_checkpoint_survives_sanitizer_recovery_audit() {
        // With the sanitizer on, every park runs the crash-injected
        // recovery audit; the machine's real state must pass at several
        // seeded injection points and the lifecycle events must balance.
        let spec = small_spec("html");
        let mut cfg = SystemConfig::memento();
        cfg.sanitizer = Some(memento_sanitizer::SanitizerConfig::default());
        let (mut c, _) = WarmContainer::cold_start(cfg, &spec);
        for seed in 0..4 {
            c.park_to_pm(seed);
            c.restore_from_pm();
            c.invoke();
        }
        let report = c.machine().sanitizer_report().expect("sanitizer on");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn baseline_park_to_pm_persists_empty_image_and_refaults() {
        let spec = small_spec("jl");
        let (mut c, _) = WarmContainer::cold_start(SystemConfig::baseline(), &spec);
        c.invoke();
        let persist = c.park_to_pm(0);
        assert!(persist > 0, "working-set writeback still costs cycles");
        let pool = c.pm_pool().expect("pool exists");
        assert!(
            pool.sealed_image().expect("sealed").is_empty(),
            "baselines have no device state to checkpoint"
        );
        let restore = c.restore_from_pm();
        let memento_restore = {
            let (mut m, _) = WarmContainer::cold_start(SystemConfig::memento(), &spec);
            m.invoke();
            m.park_to_pm(0);
            m.restore_from_pm()
        };
        assert!(
            restore > memento_restore,
            "demand-refault restore ({restore}) must exceed image replay ({memento_restore})"
        );
    }

    #[test]
    fn restore_without_park_is_a_no_op() {
        let spec = small_spec("aes");
        let (mut c, _) = WarmContainer::cold_start(SystemConfig::memento(), &spec);
        assert_eq!(c.restore_from_pm(), 0);
        assert!(c.pm_sealed_epoch().is_none());
    }

    #[test]
    fn baseline_containers_also_serve_warm() {
        let spec = small_spec("jl");
        let (mut c, cold) = WarmContainer::cold_start(SystemConfig::baseline(), &spec);
        let warm = c.invoke();
        assert!(warm.total_cycles().raw() > 0);
        assert!(cold.total_cycles() >= warm.total_cycles());
        assert!(c.machine().resident_pages() > 0);
    }
}
