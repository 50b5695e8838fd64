//! Differential test of the flat, packed [`SetAssocCache`] (8-byte lines
//! with a 32-bit tag and a 23-bit LRU stamp that renumbers when it runs
//! out) against the nested `Vec<Vec<Line>>` layout it replaced, whose
//! 64-bit tags and stamps never wrap: the same operation sequence must
//! give the same return values, evictions and counters after every step,
//! and the same total and per-owner occupancy.

use memento_cache::cache::Eviction;
use memento_cache::{CacheConfig, CacheStats, SetAssocCache};
use memento_simcore::addr::{PhysAddr, CACHE_LINE_SHIFT};
use proptest::prelude::*;

/// The previous storage of [`SetAssocCache`]: one heap block per set and a
/// 32-byte line record with separate `valid`/`dirty` flags, `lru` stamp and
/// `owner`. Kept verbatim as the oracle for the flat layout.
mod oracle {
    use super::*;

    #[derive(Clone, Copy, Debug, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        lru: u64,
        owner: usize,
    }

    pub struct NestedCache {
        sets: Vec<Vec<Line>>,
        stamp: u64,
        stats: CacheStats,
        set_mask: u64,
        set_shift: u32,
    }

    impl NestedCache {
        pub fn new(cfg: &CacheConfig) -> Self {
            let num_sets = cfg.num_sets();
            NestedCache {
                sets: vec![vec![Line::default(); cfg.assoc]; num_sets],
                stamp: 0,
                stats: CacheStats::default(),
                set_mask: num_sets as u64 - 1,
                set_shift: CACHE_LINE_SHIFT,
            }
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }

        fn set_and_tag(&self, addr: PhysAddr) -> (usize, u64) {
            let line = addr.raw() >> self.set_shift;
            (
                (line & self.set_mask) as usize,
                line >> self.set_mask.count_ones(),
            )
        }

        pub fn access(&mut self, addr: PhysAddr, write: bool) -> bool {
            let (set_idx, tag) = self.set_and_tag(addr);
            self.stamp += 1;
            let stamp = self.stamp;
            for line in self.sets[set_idx].iter_mut() {
                if line.valid && line.tag == tag {
                    line.lru = stamp;
                    line.dirty |= write;
                    self.stats.demand.hit();
                    return true;
                }
            }
            self.stats.demand.miss();
            false
        }

        pub fn probe(&self, addr: PhysAddr) -> bool {
            let (set_idx, tag) = self.set_and_tag(addr);
            self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
        }

        pub fn fill_owned(
            &mut self,
            addr: PhysAddr,
            dirty: bool,
            owner: usize,
            fair_ways: usize,
        ) -> Eviction {
            let (set_idx, tag) = self.set_and_tag(addr);
            self.stamp += 1;
            let stamp = self.stamp;
            self.stats.fills += 1;
            let set_bits = self.set_mask.count_ones();
            let set_shift = self.set_shift;
            let set = &mut self.sets[set_idx];
            if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.lru = stamp;
                line.dirty |= dirty;
                line.owner = owner;
                return Eviction::None;
            }
            let victim_idx = match set.iter().position(|l| !l.valid) {
                Some(i) => i,
                None => Self::pick_victim(set, fair_ways),
            };
            let victim = set[victim_idx];
            let eviction = if victim.valid {
                let victim_line = (victim.tag << set_bits) | set_idx as u64;
                let victim_addr = PhysAddr::new(victim_line << set_shift);
                if victim.dirty {
                    self.stats.writebacks += 1;
                    Eviction::Dirty(victim_addr)
                } else {
                    Eviction::Clean(victim_addr)
                }
            } else {
                Eviction::None
            };
            set[victim_idx] = Line {
                tag,
                valid: true,
                dirty,
                lru: stamp,
                owner,
            };
            eviction
        }

        fn pick_victim(set: &[Line], fair_ways: usize) -> usize {
            if fair_ways > 0 {
                let over_quota = |l: &Line| {
                    set.iter().filter(|o| o.valid && o.owner == l.owner).count() > fair_ways
                };
                if let Some(i) = set
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| over_quota(l))
                    .min_by_key(|(_, l)| l.lru)
                    .map(|(i, _)| i)
                {
                    return i;
                }
            }
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("non-empty set")
        }

        pub fn owner_occupancy(&self, owner: usize) -> usize {
            self.sets
                .iter()
                .flat_map(|set| set.iter())
                .filter(|l| l.valid && l.owner == owner)
                .count()
        }

        pub fn occupancy(&self) -> usize {
            self.sets
                .iter()
                .flat_map(|set| set.iter())
                .filter(|l| l.valid)
                .count()
        }

        pub fn flush(&mut self) -> Vec<PhysAddr> {
            let set_bits = self.set_mask.count_ones();
            let set_shift = self.set_shift;
            let mut dirty = Vec::new();
            for (set_idx, set) in self.sets.iter_mut().enumerate() {
                for line in set.iter_mut() {
                    if line.valid {
                        self.stats.flushed += 1;
                        if line.dirty {
                            let victim_line = (line.tag << set_bits) | set_idx as u64;
                            dirty.push(PhysAddr::new(victim_line << set_shift));
                        }
                        *line = Line::default();
                    }
                }
            }
            dirty
        }

        pub fn invalidate(&mut self, addr: PhysAddr) -> Option<bool> {
            let (set_idx, tag) = self.set_and_tag(addr);
            for line in self.sets[set_idx].iter_mut() {
                if line.valid && line.tag == tag {
                    let was_dirty = line.dirty;
                    *line = Line::default();
                    self.stats.flushed += 1;
                    return Some(was_dirty);
                }
            }
            None
        }
    }
}

use oracle::NestedCache;

#[derive(Clone, Copy, Debug)]
enum Op {
    Access {
        write: bool,
    },
    Fill {
        dirty: bool,
        owner: usize,
        fair_ways: usize,
    },
    Probe,
    Invalidate,
    Flush,
}

/// An operation and the line it targets, as `(set, tag)` drawn from small
/// ranges so every set overflows and lines recur; `far`, when present, is
/// a distance below the cache's address limit used instead, uniform over
/// the supported range or within its top 4096 lines, to reach the largest
/// tags.
fn ops() -> impl Strategy<Value = Vec<(Op, u64, u64, Option<u64>)>> {
    let access = || any::<bool>().prop_map(|write| Op::Access { write });
    let fill = || {
        (any::<bool>(), 0usize..4, 0usize..3).prop_map(|(dirty, owner, fair_ways)| Op::Fill {
            dirty,
            owner,
            fair_ways,
        })
    };
    let op = prop_oneof![
        access(),
        access(),
        fill(),
        fill(),
        Just(Op::Probe),
        Just(Op::Invalidate),
        (0u8..20).prop_map(|n| if n == 0 { Op::Flush } else { Op::Probe }),
    ];
    let far = prop_oneof![
        Just(None),
        Just(None),
        Just(None),
        any::<u64>().prop_map(Some),
        (0u64..4096 * 64).prop_map(Some)
    ];
    proptest::collection::vec((op, 0u64..4, 0u64..24, far), 1..600)
}

fn line_addr(cfg: &CacheConfig, set: u64, tag: u64, far: Option<u64>) -> PhysAddr {
    match far {
        Some(below) => {
            let limit = cfg.addr_limit();
            PhysAddr::new(limit - 1 - below % limit).line_base()
        }
        None => {
            let sets = cfg.num_sets() as u64;
            let set_bits = sets.trailing_zeros();
            PhysAddr::new(((tag << set_bits) | (set % sets)) << CACHE_LINE_SHIFT)
        }
    }
}

fn assert_same_state(
    cfg: &CacheConfig,
    flat: &SetAssocCache,
    nested: &NestedCache,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(flat.stats(), nested.stats(), "{}: stats", cfg.name);
    prop_assert_eq!(
        flat.occupancy(),
        nested.occupancy(),
        "{}: occupancy",
        cfg.name
    );
    for owner in 0..4 {
        prop_assert_eq!(
            flat.owner_occupancy(owner),
            nested.owner_occupancy(owner),
            "{}: occupancy of owner {}",
            cfg.name,
            owner
        );
    }
    Ok(())
}

/// Lines above which occupancy is compared every 32nd step rather than
/// every step: a whole-cache scan per step of the 32 Ki-line LLC would
/// dominate the test's run time, and the ops only reach four sets anyway.
const FULL_SCAN_LINES: usize = 4096;

/// Runs `seq` on both layouts of `cfg`, comparing every return value and
/// the stats after every step, and occupancy as often as affordable.
/// With `renumber_at`, the flat cache's LRU stamp starts so close to the
/// top of its field that it renumbers at access or fill number
/// `renumber_at` (modulo their count) of `seq`.
fn run(
    cfg: CacheConfig,
    seq: &[(Op, u64, u64, Option<u64>)],
    renumber_at: Option<u32>,
) -> Result<(), TestCaseError> {
    let mut flat = match renumber_at {
        None => SetAssocCache::new(cfg.clone()),
        Some(at) => {
            let stamping = seq
                .iter()
                .filter(|(op, ..)| matches!(op, Op::Access { .. } | Op::Fill { .. }))
                .count();
            prop_assume!(stamping > 0, "no op takes a stamp");
            SetAssocCache::with_stamps_left(cfg.clone(), at % stamping as u32)
        }
    };
    let mut nested = NestedCache::new(&cfg);
    let scan_every = if flat.capacity_lines() <= FULL_SCAN_LINES {
        1
    } else {
        32
    };
    for (step, &(op, set, tag, far)) in seq.iter().enumerate() {
        let addr = line_addr(&cfg, set, tag, far);
        match op {
            Op::Access { write } => prop_assert_eq!(
                flat.access(addr, write),
                nested.access(addr, write),
                "{}: access {:?}",
                cfg.name,
                addr
            ),
            Op::Fill {
                dirty,
                owner,
                fair_ways,
            } => prop_assert_eq!(
                flat.fill_owned(addr, dirty, owner, fair_ways),
                nested.fill_owned(addr, dirty, owner, fair_ways),
                "{}: fill {:?} by {} with {} fair ways",
                cfg.name,
                addr,
                owner,
                fair_ways
            ),
            Op::Probe => prop_assert_eq!(
                flat.probe(addr),
                nested.probe(addr),
                "{}: probe {:?}",
                cfg.name,
                addr
            ),
            Op::Invalidate => prop_assert_eq!(
                flat.invalidate(addr),
                nested.invalidate(addr),
                "{}: invalidate {:?}",
                cfg.name,
                addr
            ),
            Op::Flush => prop_assert_eq!(flat.flush(), nested.flush(), "{}: flush", cfg.name),
        }
        prop_assert_eq!(flat.stats(), nested.stats(), "{}: stats", cfg.name);
        if step % scan_every == 0 {
            assert_same_state(&cfg, &flat, &nested)?;
        }
    }
    assert_same_state(&cfg, &flat, &nested)?;
    prop_assert_eq!(flat.flush(), nested.flush(), "{}: final flush", cfg.name);
    assert_same_state(&cfg, &flat, &nested)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 2 sets x 2 ways: every op conflicts.
    #[test]
    fn tiny_2x2_matches_nested_oracle(seq in ops()) {
        run(CacheConfig::new("tiny 2x2", 256, 2, 1), &seq, None)?;
    }

    /// One 4-way set: fair-share victim choice among four owners.
    #[test]
    fn fair_share_4_way_set_matches_nested_oracle(seq in ops()) {
        run(CacheConfig::new("one set, 4 ways", 256, 4, 1), &seq, None)?;
    }

    /// Paper L1 (64 sets x 8 ways).
    #[test]
    fn paper_l1_matches_nested_oracle(seq in ops()) {
        run(CacheConfig::paper_l1("L1D"), &seq, None)?;
    }

    /// Iso-storage L1D (64 sets x 9 ways): a way count that is not a power
    /// of two.
    #[test]
    fn iso_storage_l1d_matches_nested_oracle(seq in ops()) {
        run(CacheConfig::iso_storage_l1d(), &seq, None)?;
    }

    /// Paper L2 (512 sets x 8 ways).
    #[test]
    fn paper_l2_matches_nested_oracle(seq in ops()) {
        run(CacheConfig::paper_l2(), &seq, None)?;
    }

    /// Paper LLC (2048 sets x 16 ways).
    #[test]
    fn paper_llc_matches_nested_oracle(seq in ops()) {
        run(CacheConfig::paper_llc(), &seq, None)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Each case renumbers the flat cache's stamps once, at a random
    /// access or fill, while its sets hold lines.
    #[test]
    fn tiny_2x2_across_a_renumbering_matches_nested_oracle(seq in ops(), at in any::<u32>()) {
        run(CacheConfig::new("tiny 2x2", 256, 2, 1), &seq, Some(at))?;
    }

    #[test]
    fn fair_share_4_way_set_across_a_renumbering_matches_nested_oracle(
        seq in ops(),
        at in any::<u32>(),
    ) {
        run(CacheConfig::new("one set, 4 ways", 256, 4, 1), &seq, Some(at))?;
    }

    #[test]
    fn paper_l1_across_a_renumbering_matches_nested_oracle(seq in ops(), at in any::<u32>()) {
        run(CacheConfig::paper_l1("L1D"), &seq, Some(at))?;
    }

    #[test]
    fn iso_storage_l1d_across_a_renumbering_matches_nested_oracle(
        seq in ops(),
        at in any::<u32>(),
    ) {
        run(CacheConfig::iso_storage_l1d(), &seq, Some(at))?;
    }

    #[test]
    fn paper_l2_across_a_renumbering_matches_nested_oracle(seq in ops(), at in any::<u32>()) {
        run(CacheConfig::paper_l2(), &seq, Some(at))?;
    }

    #[test]
    fn paper_llc_across_a_renumbering_matches_nested_oracle(seq in ops(), at in any::<u32>()) {
        run(CacheConfig::paper_llc(), &seq, Some(at))?;
    }
}
