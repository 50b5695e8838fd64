//! Differential oracle: replays the hardware's alloc/free trace through a
//! software allocator (`softalloc`'s pymalloc model) running in its own
//! private machine rig, and cross-checks object liveness.
//!
//! The oracle never touches the audited machine's state — it owns a
//! separate kernel, memory, cache hierarchy, and process — so enabling it
//! cannot perturb the run being checked. Addresses differ between the two
//! heaps by construction; what must agree is *liveness*: every object the
//! hardware hands out is live in the oracle until the hardware frees it,
//! and the two sides always hold the same number of live objects.

use crate::report::{Provenance, Violation, ViolationKind};
use memento_cache::{MemSystem, MemSystemConfig};
use memento_kernel::costs::KernelCosts;
use memento_kernel::kernel::{Kernel, Process};
use memento_simcore::addr::VirtAddr;
use memento_simcore::physmem::PhysMem;
use memento_softalloc::{AllocCtx, PyMalloc, SoftwareAllocator};
use memento_vm::tlb::Tlb;
use memento_vm::walker::PageWalker;
use std::collections::BTreeMap;

/// The softalloc differential oracle.
#[derive(Clone)]
pub struct SoftOracle {
    kernel: Kernel,
    walker: PageWalker,
    mem: PhysMem,
    mem_sys: MemSystem,
    tlb: Tlb,
    proc: Process,
    alloc: Box<dyn SoftwareAllocator>,
    /// hardware VA → (oracle VA, size).
    live: BTreeMap<u64, (VirtAddr, u32)>,
}

impl SoftOracle {
    /// Boots a private rig with a pymalloc reference allocator.
    pub fn new() -> Self {
        let mut mem = PhysMem::new(512 << 20);
        let mut kernel = Kernel::boot(&mut mem, KernelCosts::calibrated());
        let proc = kernel.create_process(&mut mem);
        SoftOracle {
            kernel,
            walker: PageWalker::new(),
            mem,
            mem_sys: MemSystem::new(MemSystemConfig::paper_default(1)),
            tlb: Tlb::default(),
            proc,
            alloc: Box::new(PyMalloc::new()),
            live: BTreeMap::new(),
        }
    }

    /// Objects currently live on the oracle side.
    pub fn live_objects(&self) -> usize {
        self.live.len()
    }

    /// Replays an allocation the hardware served at `hw_va`.
    pub fn on_alloc(
        &mut self,
        core: usize,
        event_index: u64,
        hw_va: VirtAddr,
        size: usize,
    ) -> Option<Violation> {
        let mut ctx = AllocCtx {
            kernel: &mut self.kernel,
            walker: &mut self.walker,
            mem: &mut self.mem,
            mem_sys: &mut self.mem_sys,
            tlb: &mut self.tlb,
            proc: &mut self.proc,
            core: 0,
        };
        let out = self.alloc.alloc(&mut ctx, size);
        if self
            .live
            .insert(hw_va.raw(), (out.addr, size as u32))
            .is_some()
        {
            return Some(Violation {
                kind: ViolationKind::OracleDivergence,
                provenance: Provenance {
                    core,
                    event_index,
                    class: memento_core::size_class::SizeClass::for_size(size),
                },
                detail: format!("hardware handed out {hw_va} while the oracle holds it live"),
            });
        }
        None
    }

    /// Replays a free the hardware accepted for `hw_va`.
    pub fn on_free(&mut self, core: usize, event_index: u64, hw_va: VirtAddr) -> Option<Violation> {
        match self.live.remove(&hw_va.raw()) {
            Some((soft_va, size)) => {
                let mut ctx = AllocCtx {
                    kernel: &mut self.kernel,
                    walker: &mut self.walker,
                    mem: &mut self.mem,
                    mem_sys: &mut self.mem_sys,
                    tlb: &mut self.tlb,
                    proc: &mut self.proc,
                    core: 0,
                };
                self.alloc.free(&mut ctx, soft_va, size as usize);
                None
            }
            None => Some(Violation {
                kind: ViolationKind::OracleDivergence,
                provenance: Provenance {
                    core,
                    event_index,
                    class: None,
                },
                detail: format!("hardware freed {hw_va}, dead on the oracle side"),
            }),
        }
    }

    /// End-of-run liveness cross-check against the shadow's live count.
    pub fn check_liveness(&self, shadow_live: usize, event_index: u64) -> Option<Violation> {
        if self.live.len() != shadow_live {
            return Some(Violation {
                kind: ViolationKind::OracleDivergence,
                provenance: Provenance {
                    core: 0,
                    event_index,
                    class: None,
                },
                detail: format!(
                    "oracle holds {} live object(s), shadow holds {shadow_live}",
                    self.live.len()
                ),
            });
        }
        None
    }
}

impl Default for SoftOracle {
    fn default() -> Self {
        SoftOracle::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn liveness_tracks_alloc_free() {
        let mut oracle = SoftOracle::new();
        let a = VirtAddr::new(0x6000_0000_1000);
        let b = VirtAddr::new(0x6000_0000_2000);
        assert!(oracle.on_alloc(0, 0, a, 64).is_none());
        assert!(oracle.on_alloc(0, 1, b, 128).is_none());
        assert_eq!(oracle.live_objects(), 2);
        assert!(oracle.check_liveness(2, 2).is_none());
        assert!(oracle.on_free(0, 2, a).is_none());
        assert_eq!(oracle.live_objects(), 1);
        assert!(oracle.check_liveness(2, 3).is_some());
    }

    #[test]
    fn divergence_detected_on_unknown_free_and_reuse() {
        let mut oracle = SoftOracle::new();
        let a = VirtAddr::new(0x6000_0000_1000);
        let v = oracle.on_free(1, 5, a).expect("free of dead address");
        assert_eq!(v.kind, ViolationKind::OracleDivergence);
        assert_eq!(v.provenance.core, 1);
        assert!(oracle.on_alloc(0, 6, a, 32).is_none());
        let v = oracle.on_alloc(0, 7, a, 32).expect("reuse while live");
        assert_eq!(v.kind, ViolationKind::OracleDivergence);
        assert_eq!(v.provenance.event_index, 7);
    }
}
