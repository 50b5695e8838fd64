//! Property-based tests of the software allocator models: no live-object
//! overlap, alignment, and free/realloc reuse under arbitrary workloads.

use memento_cache::{MemSystem, MemSystemConfig};
use memento_kernel::costs::KernelCosts;
use memento_kernel::kernel::Kernel;
use memento_simcore::physmem::PhysMem;
use memento_softalloc::traits::{AllocCtx, SoftwareAllocator};
use memento_softalloc::{GoAlloc, JeMalloc, PyMalloc};
use memento_vm::tlb::Tlb;
use memento_vm::walker::PageWalker;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Alloc(usize),
    Free(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (1usize..2048).prop_map(Op::Alloc),
            (0usize..64).prop_map(Op::Free),
        ],
        1..250,
    )
}

fn exercise(make: fn() -> Box<dyn SoftwareAllocator>, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut mem = PhysMem::new(512 << 20);
    let mut kernel = Kernel::boot(&mut mem, KernelCosts::calibrated());
    let mut proc = kernel.create_process(&mut mem);
    let mut sys = MemSystem::new(MemSystemConfig::paper_default(1));
    let mut tlb = Tlb::default();
    let mut walker = PageWalker::new();
    let mut alloc = make();

    // live: start -> size (rounded up to 8 to cover header-free design).
    let mut live: BTreeMap<u64, usize> = BTreeMap::new();
    let mut order: Vec<u64> = Vec::new();

    for op in ops {
        let mut ctx = AllocCtx {
            kernel: &mut kernel,
            walker: &mut walker,
            mem: &mut mem,
            mem_sys: &mut sys,
            tlb: &mut tlb,
            proc: &mut proc,
            core: 0,
        };
        match op {
            Op::Alloc(size) => {
                let out = alloc.alloc(&mut ctx, size);
                let start = out.addr.raw();
                prop_assert_eq!(start % 8, 0, "8-byte alignment");
                let span = size.max(8);
                for (a, s) in &live {
                    let disjoint = start + span as u64 <= *a || *a + *s as u64 <= start;
                    prop_assert!(
                        disjoint,
                        "overlap: new [{start:#x}+{span}] vs live [{a:#x}+{s}]"
                    );
                }
                live.insert(start, span);
                order.push(start);
            }
            Op::Free(idx) => {
                if !order.is_empty() {
                    let start = order.remove(idx % order.len());
                    let span = live.remove(&start).expect("tracked");
                    // The model frees with the original requested size.
                    alloc.free(&mut ctx, memento_simcore::VirtAddr::new(start), span);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pymalloc_objects_never_overlap(ops in ops()) {
        exercise(|| Box::new(PyMalloc::new()), ops)?;
    }

    #[test]
    fn jemalloc_objects_never_overlap(ops in ops()) {
        exercise(|| Box::new(JeMalloc::new()), ops)?;
    }

    /// Go only frees at GC sweeps, but the sweep-side free must still
    /// never corrupt placement.
    #[test]
    fn goalloc_objects_never_overlap(ops in ops()) {
        exercise(|| Box::new(GoAlloc::new()), ops)?;
    }
}
