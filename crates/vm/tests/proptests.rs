//! Property-based tests of the virtual-memory substrate: page tables under
//! arbitrary map/unmap interleavings, and the TLB against a reference
//! model.

use memento_simcore::addr::{VirtAddr, PAGE_SIZE};
use memento_simcore::cycles::Cycles;
use memento_simcore::physmem::{Frame, PhysMem};
use memento_vm::pagetable::{PageTable, PtePerms};
use memento_vm::tlb::Tlb;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum PtOp {
    Map(u16),
    Unmap(u16),
}

fn pt_ops() -> impl Strategy<Value = Vec<PtOp>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u16>().prop_map(PtOp::Map),
            any::<u16>().prop_map(PtOp::Unmap),
        ],
        1..150,
    )
}

fn page_va(n: u16) -> VirtAddr {
    // Spread pages over several table subtrees.
    VirtAddr::new((n as u64 % 1024) * PAGE_SIZE as u64 + (n as u64 / 1024) * (1 << 30))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The page table agrees with a hash-map model under arbitrary
    /// map/unmap sequences, and table-page accounting never leaks.
    #[test]
    fn page_table_matches_model(ops in pt_ops()) {
        let mut mem = PhysMem::new(256 << 20);
        let mut pt = PageTable::new(&mut mem).unwrap();
        let mut model: BTreeMap<u64, Frame> = BTreeMap::new();
        let mut next_frame = 10_000u64;

        for op in ops {
            match op {
                PtOp::Map(n) => {
                    let va = page_va(n);
                    let frame = Frame::from_number(next_frame);
                    next_frame += 1;
                    let res = pt.map_boot(&mut mem, va, frame, PtePerms::rw());
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(va.raw()) {
                        prop_assert!(res.is_ok());
                        e.insert(frame);
                    } else {
                        prop_assert!(res.is_err(), "double map must fail");
                    }
                }
                PtOp::Unmap(n) => {
                    let va = page_va(n);
                    let res = pt.unmap(&mut mem, va);
                    prop_assert_eq!(res.leaf.map(|t| t.frame), model.remove(&va.raw()));
                }
            }
            prop_assert!(pt.table_pages() >= 1, "root always allocated");
        }

        // Model equivalence for every address ever seen.
        for (va, frame) in &model {
            let t = pt.translate(&mem, VirtAddr::new(*va)).expect("mapped");
            prop_assert_eq!(t.frame, *frame);
        }
        // Unmapping the rest returns to a root-only table.
        let addrs: Vec<u64> = model.keys().copied().collect();
        for va in addrs {
            pt.unmap(&mut mem, VirtAddr::new(va));
        }
        prop_assert_eq!(pt.table_pages(), 1, "all tables reclaimed");
    }

    /// The TLB never returns a stale or wrong translation relative to the
    /// insert/shootdown/flush history.
    #[test]
    fn tlb_never_lies(ops in proptest::collection::vec((0u8..3, any::<u16>()), 1..300)) {
        let mut tlb = Tlb::default();
        let mut model: BTreeMap<u64, Frame> = BTreeMap::new();
        for (kind, n) in ops {
            let va = page_va(n);
            match kind {
                0 => {
                    let frame = Frame::from_number(n as u64 + 5);
                    tlb.insert(va, frame);
                    model.insert(va.page_number(), frame);
                }
                1 => {
                    tlb.shootdown(va);
                    model.remove(&va.page_number());
                }
                _ => {
                    // Lookup: a hit must match the model exactly; a miss is
                    // always allowed (capacity evictions).
                    if let Some(frame) = tlb.lookup(va).frame {
                        prop_assert_eq!(
                            Some(&frame),
                            model.get(&va.page_number()),
                            "TLB returned a translation the model disagrees with"
                        );
                    }
                }
            }
        }
        tlb.flush();
        for key in model.keys() {
            let va = VirtAddr::new(key * PAGE_SIZE as u64);
            prop_assert!(tlb.lookup(va).frame.is_none(), "flush must clear");
        }
    }

    /// Statistics are conserved under arbitrary op interleavings: every
    /// lookup lands in exactly one L1 bucket, L2 is consulted exactly on
    /// L1 misses, and the latency histogram records every lookup.
    #[test]
    fn tlb_stats_account_every_lookup(
        ops in proptest::collection::vec((0u8..4, any::<u16>()), 1..300)
    ) {
        let mut tlb = Tlb::default();
        let mut lookups = 0u64;
        for (kind, n) in ops {
            let va = page_va(n);
            match kind {
                0 => tlb.insert(va, Frame::from_number(n as u64 + 5)),
                1 => tlb.shootdown(va),
                2 => tlb.flush(),
                _ => {
                    let _ = tlb.lookup(va);
                    lookups += 1;
                }
            }
        }
        let s = tlb.stats();
        prop_assert_eq!(s.l1.hits + s.l1.misses, lookups, "L1 sees every lookup");
        prop_assert_eq!(
            s.l2.hits + s.l2.misses,
            s.l1.misses,
            "L2 consulted exactly on L1 misses"
        );
        prop_assert_eq!(
            tlb.hit_latency().count(),
            lookups,
            "latency histogram records every lookup"
        );
    }

    /// L1 replacement picks a *valid* LRU victim: with the paper's 16-set
    /// 4-way L1, five pages in one set overflow it by exactly one, and the
    /// evicted page must be the least-recently-touched (the most recent
    /// survivors stay free L1 hits).
    #[test]
    fn tlb_lru_victim_is_least_recently_used(
        priorities in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
    ) {
        // Paper L1: 64 entries 4-way = 16 sets, so pages 16 apart collide.
        let set0 = |k: u64| page_va((k * 16) as u16);
        let mut tlb = Tlb::default();
        for k in 0..4u64 {
            tlb.insert(set0(k), Frame::from_number(k));
        }
        // Touch all four resident pages in the generated priority order.
        let p = [priorities.0, priorities.1, priorities.2, priorities.3];
        let mut order: Vec<u64> = (0..4).collect();
        order.sort_by_key(|k| (p[*k as usize], *k));
        for k in &order {
            prop_assert_eq!(
                tlb.lookup(set0(*k)).cycles,
                Cycles::ZERO,
                "resident page must be a free L1 hit"
            );
        }
        // A fifth page in the same set forces one eviction.
        tlb.insert(set0(4), Frame::from_number(4));
        let victim = order[0];
        let survivor = order[3];
        // The least-recently-touched page fell to L2 (7-cycle hit)...
        let out = tlb.lookup(set0(victim));
        prop_assert_eq!(out.frame, Some(Frame::from_number(victim)), "L2 backstop");
        prop_assert_eq!(out.cycles, Cycles::new(7), "victim is the LRU page");
        // ...while the most-recently-touched page and the newcomer stayed
        // resident. (The victim's L2 promotion re-evicted at most the then-
        // LRU entry, never these two.)
        prop_assert_eq!(tlb.lookup(set0(survivor)).cycles, Cycles::ZERO);
        prop_assert_eq!(tlb.lookup(set0(4)).cycles, Cycles::ZERO);
    }
}
