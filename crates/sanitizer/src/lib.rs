//! Shadow-heap sanitizer for the simulated Memento allocator.
//!
//! An ASan/MSan-style reference model: the machine feeds every hardware
//! `obj-alloc`/`obj-free` and arena event into a [`ShadowHeap`], which
//! validates per-event rules immediately (double-free, wrong size class,
//! overlapping live objects, arena lifecycle) and periodically runs full
//! cross-structure audits ([`audit`]) reconciling the HOTs, in-memory
//! arena headers, Memento page table, and AAC bump pointers. An optional
//! differential [`oracle`] replays the same trace through `softalloc` and
//! cross-checks liveness.
//!
//! The sanitizer is opt-in via `SystemConfig` and zero-cost when off: no
//! shadow state exists, the device logs no events, and no audit runs.
//! When on, it is *untimed* instrumentation — it charges no simulated
//! cycles and never mutates machine state, so an audited run produces
//! byte-identical statistics to an unaudited one.

pub mod audit;
pub mod fleet;
pub mod oracle;
pub mod recovery;
pub mod report;
pub mod shadow;

pub use fleet::{FleetAuditor, InvocationCounts};
pub use report::{Provenance, SanitizerReport, Violation, ViolationKind};
pub use shadow::ShadowHeap;

use memento_core::device::{DeviceEvent, MementoDevice, MementoProcess};
use memento_core::region::MementoRegion;
use memento_simcore::addr::VirtAddr;
use memento_simcore::physmem::PhysMem;
use oracle::SoftOracle;

/// Sanitizer configuration, carried inside `SystemConfig`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SanitizerConfig {
    /// Run a full cross-structure audit every this many shadowed hardware
    /// operations (0 = only at process exit). Audits are untimed but cost
    /// host time, so very small values slow simulation.
    pub audit_every: u64,
    /// Replay the trace through the softalloc differential oracle.
    pub oracle: bool,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        SanitizerConfig {
            audit_every: 1024,
            oracle: false,
        }
    }
}

impl SanitizerConfig {
    /// Default auditing plus the differential oracle.
    pub fn with_oracle() -> Self {
        SanitizerConfig {
            oracle: true,
            ..Self::default()
        }
    }
}

/// Handle identifying an attached process within the sanitizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowPid(usize);

#[derive(Clone)]
struct ProcSlot {
    shadow: ShadowHeap,
    oracle: Option<SoftOracle>,
    ops: u64,
}

/// The run-level sanitizer: one shadow heap (and optional oracle) per
/// attached process, plus the accumulated report.
#[derive(Clone)]
pub struct HeapSanitizer {
    cfg: SanitizerConfig,
    procs: Vec<ProcSlot>,
    report: SanitizerReport,
}

impl HeapSanitizer {
    /// A sanitizer with no attached processes.
    pub fn new(cfg: SanitizerConfig) -> Self {
        HeapSanitizer {
            cfg,
            procs: Vec::new(),
            report: SanitizerReport::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> SanitizerConfig {
        self.cfg
    }

    /// Registers a process whose reserved region is `region`. Shadow state
    /// is per-process: every process uses the same standard region VAs, so
    /// the shadows must not be shared.
    pub fn attach(&mut self, region: MementoRegion) -> ShadowPid {
        self.procs.push(ProcSlot {
            shadow: ShadowHeap::new(region),
            oracle: self.cfg.oracle.then(SoftOracle::new),
            ops: 0,
        });
        ShadowPid(self.procs.len() - 1)
    }

    /// Advances the event index — the machine calls this once per machine
    /// event, making violation provenance an instruction-stream position.
    pub fn note_event(&mut self) {
        self.report.events += 1;
    }

    /// The current event index (provenance for anything detected now).
    pub fn event_index(&self) -> u64 {
        self.report.events
    }

    /// The accumulated report.
    pub fn report(&self) -> &SanitizerReport {
        &self.report
    }

    /// Shadow state for `pid` (for tests and diagnostics).
    pub fn shadow(&self, pid: ShadowPid) -> &ShadowHeap {
        &self.procs[pid.0].shadow
    }

    /// Feeds arena events drained from the device.
    pub fn on_device_events(&mut self, pid: ShadowPid, events: Vec<DeviceEvent>) {
        let idx = self.report.events;
        let slot = &mut self.procs[pid.0];
        for ev in events {
            let vs = match ev {
                DeviceEvent::ArenaInstalled {
                    core,
                    class,
                    va,
                    header_pa,
                } => slot
                    .shadow
                    .on_arena_installed(core, idx, class, va, header_pa),
                DeviceEvent::ArenaReclaimed { core, class, va } => {
                    slot.shadow.on_arena_reclaimed(core, idx, class, va)
                }
                DeviceEvent::HeaderInvalidated {
                    owner,
                    requester,
                    class,
                    va,
                    ..
                } => slot
                    .shadow
                    .on_header_invalidated(owner, requester, idx, class, va),
                DeviceEvent::PmParked { epoch, .. } => slot.shadow.on_pm_parked(idx, epoch),
                DeviceEvent::PmRestored { epoch } => slot.shadow.on_pm_restored(idx, epoch),
            };
            self.report.violations.extend(vs);
        }
    }

    /// Shadows a hardware `obj-alloc` that returned `va`.
    pub fn on_obj_alloc(&mut self, pid: ShadowPid, core: usize, va: VirtAddr, size: usize) {
        let idx = self.report.events;
        let slot = &mut self.procs[pid.0];
        slot.ops += 1;
        self.report.ops += 1;
        let vs = slot.shadow.on_alloc(core, idx, va, size);
        self.report.violations.extend(vs);
        if let Some(oracle) = slot.oracle.as_mut() {
            self.report.oracle_ops += 1;
            if let Some(v) = oracle.on_alloc(core, idx, va, size) {
                self.report.violations.push(v);
            }
        }
    }

    /// Shadows a hardware `obj-free` of `va`.
    pub fn on_obj_free(&mut self, pid: ShadowPid, core: usize, va: VirtAddr) {
        let idx = self.report.events;
        let slot = &mut self.procs[pid.0];
        slot.ops += 1;
        self.report.ops += 1;
        let vs = slot.shadow.on_free(core, idx, va);
        self.report.violations.extend(vs);
        if let Some(oracle) = slot.oracle.as_mut() {
            self.report.oracle_ops += 1;
            if let Some(v) = oracle.on_free(core, idx, va) {
                self.report.violations.push(v);
            }
        }
    }

    /// Whether a periodic audit is due for `pid` (call after shadowing an
    /// operation).
    pub fn audit_due(&self, pid: ShadowPid) -> bool {
        let ops = self.procs[pid.0].ops;
        self.cfg.audit_every != 0 && ops > 0 && ops.is_multiple_of(self.cfg.audit_every)
    }

    /// Runs one full cross-structure audit of `pid`.
    pub fn audit(
        &mut self,
        pid: ShadowPid,
        dev: &MementoDevice,
        mproc: &MementoProcess,
        mem: &PhysMem,
    ) {
        let idx = self.report.events;
        self.report.audits += 1;
        let vs = audit::audit_process(dev, mproc, mem, &self.procs[pid.0].shadow, idx);
        self.report.violations.extend(vs);
    }

    /// Runs the crash-injected recovery audit for one park-to-PM
    /// checkpoint. `pool` is the container's pool *before* the checkpoint,
    /// `records` the image about to be persisted, `seed` the injection
    /// point selector (see [`recovery::audit_recovery`]).
    pub fn audit_pm_recovery(
        &mut self,
        pool: &memento_pmem::PmPool,
        records: &[memento_pmem::PmRecord],
        seed: u64,
    ) {
        let idx = self.report.events;
        self.report.audits += 1;
        let vs = recovery::audit_recovery(pool, records, seed, idx);
        self.report.violations.extend(vs);
    }

    /// Final checks at process teardown: one last audit plus the oracle
    /// liveness cross-check (objects still live at exit are batch-freed by
    /// the OS on both sides, so the counts must agree).
    pub fn detach(
        &mut self,
        pid: ShadowPid,
        dev: &MementoDevice,
        mproc: &MementoProcess,
        mem: &PhysMem,
    ) {
        self.audit(pid, dev, mproc, mem);
        let idx = self.report.events;
        let slot = &mut self.procs[pid.0];
        if let Some(oracle) = slot.oracle.as_ref() {
            if let Some(v) = oracle.check_liveness(slot.shadow.live_objects(), idx) {
                self.report.violations.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_cadence_counts_per_process_ops() {
        let mut san = HeapSanitizer::new(SanitizerConfig {
            audit_every: 2,
            oracle: false,
        });
        let pid = san.attach(MementoRegion::standard());
        assert!(!san.audit_due(pid), "no ops yet");
        let region = san.shadow(pid).region();
        let class = memento_core::size_class::SizeClass::for_size(8).unwrap();
        let base = region.arena_at(class, 0);
        let obj = region.object_addr(class, base, 0);
        san.on_obj_alloc(pid, 0, obj, 8);
        assert!(!san.audit_due(pid));
        san.on_obj_free(pid, 0, obj);
        assert!(san.audit_due(pid));
    }

    #[test]
    fn zero_audit_every_disables_periodic_audits() {
        let mut san = HeapSanitizer::new(SanitizerConfig {
            audit_every: 0,
            oracle: false,
        });
        let pid = san.attach(MementoRegion::standard());
        san.note_event();
        assert!(!san.audit_due(pid));
    }
}
