//! The baseline demand-access path: TLB lookup → hardware page walk →
//! (page fault → handler) → cache access.
//!
//! This is the path every load/store takes in the baseline system; it is
//! exactly the machinery whose cost Memento's hardware page allocator
//! removes for heap memory. Both the software-allocator models (for their
//! metadata touches) and the machine's workload execution use it.

use crate::kernel::{Kernel, KernelError, Process};
use memento_cache::{AccessKind, MemSystem};
use memento_simcore::addr::{PhysAddr, VirtAddr};
use memento_simcore::cycles::Cycles;
use memento_simcore::physmem::PhysMem;
use memento_vm::tlb::Tlb;
use memento_vm::walker::{PageWalker, WalkOutcome};

/// Outcome of a demand access, split for cycle attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DemandAccess {
    /// Cycles on the user side: TLB, page walk, cache/DRAM access.
    pub user_cycles: Cycles,
    /// Of `user_cycles`, the final cache/DRAM data access itself (callers
    /// modeling out-of-order overlap may discount this portion).
    pub access_cycles: Cycles,
    /// Cycles in the kernel: page-fault handling (zero when no fault).
    pub kernel_cycles: Cycles,
    /// Whether a page fault was taken.
    pub faulted: bool,
    /// The physical address the access reached (from the TLB, the walk or
    /// the fault), so callers can read or write the word without
    /// translating `va` again.
    pub pa: PhysAddr,
}

/// Performs a demand access at `va` through the full baseline path.
///
/// # Errors
///
/// Propagates [`KernelError::Segfault`] / [`KernelError::OutOfMemory`] from
/// the fault handler.
#[allow(clippy::too_many_arguments)]
pub fn demand_access(
    kernel: &mut Kernel,
    walker: &mut PageWalker,
    mem: &mut PhysMem,
    mem_sys: &mut MemSystem,
    tlb: &mut Tlb,
    core: usize,
    proc: &mut Process,
    va: VirtAddr,
    kind: AccessKind,
) -> Result<DemandAccess, KernelError> {
    let mut user_cycles = Cycles::ZERO;
    let mut kernel_cycles = Cycles::ZERO;
    let mut faulted = false;

    let lookup = tlb.lookup(va);
    user_cycles += lookup.cycles;
    #[cfg(debug_assertions)]
    if let Some(f) = lookup.frame {
        let t = proc.addr_space.page_table.translate(mem, va);
        assert_eq!(
            t.map(|t| t.frame),
            Some(f),
            "stale TLB at {va}: tlb={f:?} pt={t:?}"
        );
    }
    let frame = match lookup.frame {
        Some(f) => f,
        None => {
            let root = proc.addr_space.page_table.root();
            let walk = walker.walk(mem_sys, mem, core, root, va);
            user_cycles += walk.cycles;
            match walk.outcome {
                WalkOutcome::Mapped(f) => {
                    tlb.insert(va, f);
                    f
                }
                WalkOutcome::NotPresent { .. } => {
                    faulted = true;
                    let fault = kernel.handle_page_fault(mem, mem_sys, tlb, core, proc, va)?;
                    kernel_cycles += fault.cycles;
                    fault.frame
                }
            }
        }
    };

    let pa = frame.base_addr().add(va.page_offset());
    let access_cycles = mem_sys.access(core, kind, pa).cycles;
    user_cycles += access_cycles;
    Ok(DemandAccess {
        user_cycles,
        access_cycles,
        kernel_cycles,
        faulted,
        pa,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::KernelCosts;
    use crate::kernel::MmapFlags;
    use memento_cache::MemSystemConfig;

    #[test]
    fn first_touch_faults_then_hits() {
        let mut mem = PhysMem::new(64 << 20);
        let mut kernel = Kernel::boot(&mut mem, KernelCosts::calibrated());
        let mut proc = kernel.create_process(&mut mem);
        let mut sys = MemSystem::new(MemSystemConfig::paper_default(1));
        let mut tlb = Tlb::default();
        let mut walker = PageWalker::new();

        let m = kernel
            .mmap(
                &mut mem,
                &mut sys,
                &mut tlb,
                0,
                &mut proc,
                8192,
                MmapFlags::default(),
            )
            .unwrap();

        let first = demand_access(
            &mut kernel,
            &mut walker,
            &mut mem,
            &mut sys,
            &mut tlb,
            0,
            &mut proc,
            m.addr,
            AccessKind::Write,
        )
        .unwrap();
        assert!(first.faulted);
        assert!(first.kernel_cycles > Cycles::new(2000));

        let second = demand_access(
            &mut kernel,
            &mut walker,
            &mut mem,
            &mut sys,
            &mut tlb,
            0,
            &mut proc,
            m.addr.add(8),
            AccessKind::Read,
        )
        .unwrap();
        assert!(!second.faulted);
        assert_eq!(second.kernel_cycles, Cycles::ZERO);
        assert!(second.user_cycles < first.user_cycles + first.kernel_cycles);
    }

    #[test]
    fn unmapped_address_segfaults() {
        let mut mem = PhysMem::new(64 << 20);
        let mut kernel = Kernel::boot(&mut mem, KernelCosts::calibrated());
        let mut proc = kernel.create_process(&mut mem);
        let mut sys = MemSystem::new(MemSystemConfig::paper_default(1));
        let mut tlb = Tlb::default();
        let mut walker = PageWalker::new();

        let err = demand_access(
            &mut kernel,
            &mut walker,
            &mut mem,
            &mut sys,
            &mut tlb,
            0,
            &mut proc,
            VirtAddr::new(0x0dea_dbee_f000),
            AccessKind::Read,
        )
        .unwrap_err();
        assert!(matches!(err, KernelError::Segfault(_)));
    }

    #[test]
    fn tlb_hit_skips_walk() {
        let mut mem = PhysMem::new(64 << 20);
        let mut kernel = Kernel::boot(&mut mem, KernelCosts::calibrated());
        let mut proc = kernel.create_process(&mut mem);
        let mut sys = MemSystem::new(MemSystemConfig::paper_default(1));
        let mut tlb = Tlb::default();
        let mut walker = PageWalker::new();
        let m = kernel
            .mmap(
                &mut mem,
                &mut sys,
                &mut tlb,
                0,
                &mut proc,
                4096,
                MmapFlags { populate: true },
            )
            .unwrap();
        let walks_before = walker.stats().walks.total();
        let acc = demand_access(
            &mut kernel,
            &mut walker,
            &mut mem,
            &mut sys,
            &mut tlb,
            0,
            &mut proc,
            m.addr,
            AccessKind::Read,
        )
        .unwrap();
        assert!(!acc.faulted);
        assert_eq!(
            walker.stats().walks.total(),
            walks_before,
            "no walk on TLB hit"
        );
    }
}
