//! Property-based tests of the Memento core data structures: the arena
//! bitmap, the region's address arithmetic, and the assembled device under
//! arbitrary allocation/free interleavings.

use memento_cache::{MemSystem, MemSystemConfig};
use memento_core::arena::ArenaHeader;
use memento_core::device::{MementoConfig, MementoDevice, MementoError};
use memento_core::page_alloc::PoolBackend;
use memento_core::region::MementoRegion;
use memento_core::size_class::{SizeClass, OBJECTS_PER_ARENA};
use memento_simcore::addr::VirtAddr;
use memento_simcore::physmem::{Frame, PhysMem};
use memento_vm::tlb::Tlb;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The arena bitmap tracks set/clear operations exactly.
    #[test]
    fn arena_bitmap_model(ops in proptest::collection::vec((0usize..OBJECTS_PER_ARENA, any::<bool>()), 1..300)) {
        let mut header = ArenaHeader::fresh(VirtAddr::new(0x6000_0000_0000));
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for (idx, set) in ops {
            // set/clear contract-check redundant transitions in debug
            // builds, so only issue state-changing ops (as the FSM does).
            if set {
                if !header.is_set(idx) {
                    header.set(idx);
                }
                model.insert(idx);
            } else {
                if header.is_set(idx) {
                    header.clear(idx);
                }
                model.remove(&idx);
            }
            prop_assert_eq!(header.is_set(idx), model.contains(&idx));
            prop_assert_eq!(header.live_objects() as usize, model.len());
            prop_assert_eq!(header.is_empty(), model.is_empty());
            prop_assert_eq!(header.is_full(), model.len() == OBJECTS_PER_ARENA);
            if let Some(free) = header.find_clear() {
                prop_assert!(!model.contains(&free));
            } else {
                prop_assert!(header.is_full());
            }
        }
    }

    /// Region address decomposition is the inverse of object-address
    /// composition for every class, arena, index, and interior offset.
    #[test]
    fn region_locate_roundtrip(
        class_idx in 0usize..64,
        arena_n in 0u64..50,
        obj_idx in 0usize..OBJECTS_PER_ARENA,
        interior in 0usize..512,
    ) {
        let region = MementoRegion::standard();
        let class = SizeClass::from_index(class_idx);
        let base = region.arena_at(class, arena_n);
        let addr = region.object_addr(class, base, obj_idx);
        let interior_addr = addr.add((interior % class.object_size()) as u64);
        let loc = region.locate(interior_addr).expect("object addresses locate");
        prop_assert_eq!(loc.class, class);
        prop_assert_eq!(loc.arena_base, base);
        prop_assert_eq!(loc.object_index, obj_idx);
    }
}

struct BumpOs(u64);

impl PoolBackend for BumpOs {
    fn grant_frames(&mut self, n: u64) -> Vec<Frame> {
        let start = self.0;
        self.0 += n;
        (start..start + n).map(Frame::from_number).collect()
    }
    fn accept_frames(&mut self, _frames: &[Frame]) {}
}

#[derive(Clone, Debug)]
enum DevOp {
    Alloc(usize),
    Free(usize),
}

fn dev_ops() -> impl Strategy<Value = Vec<DevOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1usize..=512).prop_map(DevOp::Alloc),
            (0usize..128).prop_map(DevOp::Free),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under arbitrary alloc/free interleavings the device never hands out
    /// overlapping objects, never loses a free, and always detects double
    /// frees.
    #[test]
    fn device_objects_never_overlap(ops in dev_ops()) {
        let mut mem = PhysMem::new(1 << 30);
        let scratch = mem.alloc_frame().unwrap().base_addr();
        let mut dev = MementoDevice::new(MementoConfig::paper_default(), 1, scratch);
        let mut os = BumpOs(4096);
        let mut sys = MemSystem::new(MemSystemConfig::paper_default(1));
        let mut tlbs = vec![Tlb::default()];
        let mut proc = dev
            .attach_process(&mut mem, &mut os, MementoRegion::standard())
            .expect("attach with live backend");

        // live: address -> rounded size.
        let mut live: BTreeMap<u64, usize> = BTreeMap::new();
        let mut order: Vec<u64> = Vec::new();

        for op in ops {
            match op {
                DevOp::Alloc(size) => {
                    let out = dev
                        .obj_alloc(&mut mem, &mut sys, &mut os, 0, &mut proc, size)
                        .expect("alloc within 512B");
                    let rounded = size.div_ceil(8) * 8;
                    let start = out.addr.raw();
                    // No overlap with any live object.
                    for (a, s) in &live {
                        let disjoint = start + rounded as u64 <= *a
                            || *a + *s as u64 <= start;
                        prop_assert!(disjoint, "overlap: [{start:#x}+{rounded}] vs [{a:#x}+{s}]");
                    }
                    live.insert(start, rounded);
                    order.push(start);
                }
                DevOp::Free(idx) => {
                    if !order.is_empty() {
                        let addr = order.remove(idx % order.len());
                        live.remove(&addr);
                        dev.obj_free(
                            &mut mem, &mut sys, &mut os, &mut tlbs, 0, &mut proc,
                            VirtAddr::new(addr),
                        )
                        .expect("free of live object");
                        // An immediate second free must raise the exception.
                        let err = dev
                            .obj_free(
                                &mut mem, &mut sys, &mut os, &mut tlbs, 0, &mut proc,
                                VirtAddr::new(addr),
                            )
                            .unwrap_err();
                        prop_assert!(matches!(err, MementoError::DoubleFree(_)));
                    }
                }
            }
        }

        // Every live object is still findable by the region arithmetic.
        for (addr, _) in live {
            prop_assert!(proc.region().locate(VirtAddr::new(addr)).is_some());
        }
    }
}
