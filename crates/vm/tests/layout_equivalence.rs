//! Differential test of the flat two-level [`Tlb`] against the nested
//! `Vec<Vec<TlbEntry>>` layout it replaced, which also recorded its latency
//! histogram on every lookup: the same operation sequence must give the
//! same lookups, counters and histogram after every step.

use memento_obs::Log2Hist;
use memento_simcore::addr::{VirtAddr, PAGE_SIZE};
use memento_simcore::cycles::Cycles;
use memento_simcore::physmem::Frame;
use memento_vm::tlb::{TlbLevelConfig, TlbStats};
use memento_vm::{Tlb, TlbConfig, TlbLookup};
use proptest::prelude::*;

/// The previous storage of [`Tlb`]: one heap block per set, a `valid` flag
/// per entry, `%` set indexing and a histogram sample per lookup. Kept
/// verbatim as the oracle for the flat layout.
mod oracle {
    use super::*;

    #[derive(Clone, Copy, Debug)]
    struct TlbEntry {
        vpn: u64,
        frame: Frame,
        valid: bool,
        lru: u64,
    }

    struct TlbArray {
        sets: Vec<Vec<TlbEntry>>,
        stamp: u64,
        latency: Cycles,
    }

    impl TlbArray {
        fn new(cfg: TlbLevelConfig) -> Self {
            let num_sets = cfg.entries.div_ceil(cfg.assoc).max(1);
            TlbArray {
                sets: vec![
                    vec![
                        TlbEntry {
                            vpn: 0,
                            frame: Frame::from_number(0),
                            valid: false,
                            lru: 0,
                        };
                        cfg.assoc
                    ];
                    num_sets
                ],
                stamp: 0,
                latency: cfg.latency,
            }
        }

        fn set_index(&self, vpn: u64) -> usize {
            (vpn % self.sets.len() as u64) as usize
        }

        fn lookup(&mut self, vpn: u64) -> Option<Frame> {
            self.stamp += 1;
            let stamp = self.stamp;
            let idx = self.set_index(vpn);
            for e in self.sets[idx].iter_mut() {
                if e.valid && e.vpn == vpn {
                    e.lru = stamp;
                    return Some(e.frame);
                }
            }
            None
        }

        fn insert(&mut self, vpn: u64, frame: Frame) {
            self.stamp += 1;
            let stamp = self.stamp;
            let idx = self.set_index(vpn);
            let set = &mut self.sets[idx];
            if let Some(e) = set.iter_mut().find(|e| e.valid && e.vpn == vpn) {
                e.frame = frame;
                e.lru = stamp;
                return;
            }
            let victim = match set.iter().position(|e| !e.valid) {
                Some(i) => i,
                None => set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i)
                    .expect("non-empty set"),
            };
            set[victim] = TlbEntry {
                vpn,
                frame,
                valid: true,
                lru: stamp,
            };
        }

        fn invalidate(&mut self, vpn: u64) -> bool {
            let idx = self.set_index(vpn);
            let mut any = false;
            for e in self.sets[idx].iter_mut() {
                if e.valid && e.vpn == vpn {
                    e.valid = false;
                    any = true;
                }
            }
            any
        }

        fn flush(&mut self) {
            for set in &mut self.sets {
                for e in set.iter_mut() {
                    e.valid = false;
                }
            }
        }
    }

    pub struct NestedTlb {
        l1: TlbArray,
        l2: TlbArray,
        stats: TlbStats,
        lat: Log2Hist,
    }

    impl NestedTlb {
        pub fn new(cfg: TlbConfig) -> Self {
            NestedTlb {
                l1: TlbArray::new(cfg.l1),
                l2: TlbArray::new(cfg.l2),
                stats: TlbStats::default(),
                lat: Log2Hist::default(),
            }
        }

        pub fn stats(&self) -> TlbStats {
            self.stats
        }

        pub fn hit_latency(&self) -> &Log2Hist {
            &self.lat
        }

        pub fn lookup(&mut self, va: VirtAddr) -> TlbLookup {
            let vpn = va.page_number();
            if let Some(frame) = self.l1.lookup(vpn) {
                self.stats.l1.hit();
                self.lat.record(self.l1.latency.raw());
                return TlbLookup {
                    frame: Some(frame),
                    cycles: self.l1.latency,
                };
            }
            self.stats.l1.miss();
            let cycles = self.l1.latency + self.l2.latency;
            self.lat.record(cycles.raw());
            if let Some(frame) = self.l2.lookup(vpn) {
                self.stats.l2.hit();
                self.l1.insert(vpn, frame);
                return TlbLookup {
                    frame: Some(frame),
                    cycles,
                };
            }
            self.stats.l2.miss();
            TlbLookup {
                frame: None,
                cycles,
            }
        }

        pub fn insert(&mut self, va: VirtAddr, frame: Frame) {
            let vpn = va.page_number();
            self.l1.insert(vpn, frame);
            self.l2.insert(vpn, frame);
        }

        pub fn shootdown(&mut self, va: VirtAddr) {
            let vpn = va.page_number();
            let hit = self.l1.invalidate(vpn) | self.l2.invalidate(vpn);
            if hit {
                self.stats.shootdowns += 1;
            }
        }

        pub fn flush(&mut self) {
            self.l1.flush();
            self.l2.flush();
            self.stats.flushes += 1;
        }
    }
}

use oracle::NestedTlb;

fn level(entries: usize, assoc: usize, latency: u64) -> TlbLevelConfig {
    TlbLevelConfig {
        entries,
        assoc,
        latency: Cycles::new(latency),
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Lookup,
    Insert(u64),
    Shootdown,
    Flush,
}

/// An operation and its page, as `(set, k)`: page `set + k * stride`,
/// where `stride` is a multiple of both levels' set counts, so all `k` of
/// one `set` collide in both levels and overflow them. `far`, when present,
/// is a random address used instead.
fn ops() -> impl Strategy<Value = Vec<(Op, u64, u64, Option<u64>)>> {
    let op = prop_oneof![
        Just(Op::Lookup),
        Just(Op::Lookup),
        Just(Op::Lookup),
        any::<u16>().prop_map(|f| Op::Insert(f as u64)),
        any::<u16>().prop_map(|f| Op::Insert(f as u64)),
        Just(Op::Shootdown),
        (0u8..20).prop_map(|n| if n == 0 { Op::Flush } else { Op::Lookup }),
    ];
    let far = prop_oneof![
        Just(None),
        Just(None),
        Just(None),
        any::<u64>().prop_map(Some)
    ];
    proptest::collection::vec((op, 0u64..3, 0u64..40, far), 1..600)
}

fn sets(cfg: TlbLevelConfig) -> u64 {
    cfg.entries.div_ceil(cfg.assoc).max(1) as u64
}

/// Runs `seq` on both layouts of `cfg`, comparing every lookup, the stats
/// and the latency histogram after every step.
fn run(cfg: TlbConfig, seq: &[(Op, u64, u64, Option<u64>)]) -> Result<(), TestCaseError> {
    let stride = sets(cfg.l1) * sets(cfg.l2);
    let mut flat = Tlb::new(cfg);
    let mut nested = NestedTlb::new(cfg);
    for &(op, set, k, far) in seq {
        let va = match far {
            Some(raw) => VirtAddr::new(raw),
            None => VirtAddr::new((set + k * stride) * PAGE_SIZE as u64),
        };
        match op {
            Op::Lookup => prop_assert_eq!(flat.lookup(va), nested.lookup(va), "lookup {:?}", va),
            Op::Insert(f) => {
                flat.insert(va, Frame::from_number(f));
                nested.insert(va, Frame::from_number(f));
            }
            Op::Shootdown => {
                flat.shootdown(va);
                nested.shootdown(va);
            }
            Op::Flush => {
                flat.flush();
                nested.flush();
            }
        }
        prop_assert_eq!(flat.stats(), nested.stats());
        prop_assert_eq!(&flat.hit_latency(), nested.hit_latency());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Paper TLB: a 16-set L1 indexed by mask, a 171-set L2 indexed by `%`.
    #[test]
    fn paper_tlb_matches_nested_oracle(seq in ops()) {
        run(TlbConfig::paper_default(), &seq)?;
    }

    /// The opposite pairing on small levels: a 3-set L1 indexed by `%` and
    /// a 4-set L2 indexed by mask, with a non-zero L1 latency.
    #[test]
    fn small_tlb_matches_nested_oracle(seq in ops()) {
        let cfg = TlbConfig { l1: level(6, 2, 1), l2: level(16, 4, 5) };
        run(cfg, &seq)?;
    }

    /// Single-set levels: the mask is 0 and every page collides.
    #[test]
    fn single_set_tlb_matches_nested_oracle(seq in ops()) {
        let cfg = TlbConfig { l1: level(2, 2, 0), l2: level(5, 5, 7) };
        run(cfg, &seq)?;
    }
}
