//! Two-level set-associative TLB (paper Table 3: L1 64-entry 4-way,
//! L2 2048-entry 12-way).
//!
//! The TLB caches virtual-page-number → frame translations. Misses at both
//! levels trigger a hardware page walk (see [`crate::walker`]). Shootdowns
//! invalidate single pages; context switches flush everything (the simulated
//! machine has no ASIDs, matching the paper's single-process-per-core focus).

use memento_obs::Log2Hist;
use memento_simcore::addr::VirtAddr;
use memento_simcore::cycles::Cycles;
use memento_simcore::physmem::Frame;
use memento_simcore::stats::HitMiss;

/// Geometry of one TLB level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbLevelConfig {
    /// Total entries.
    pub entries: usize,
    /// Ways per set.
    pub assoc: usize,
    /// Lookup latency charged when the translation is found at this level.
    pub latency: Cycles,
}

/// Geometry of the two-level TLB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// First level.
    pub l1: TlbLevelConfig,
    /// Second level.
    pub l2: TlbLevelConfig,
}

impl TlbConfig {
    /// The paper's Table 3 TLB: L1 64-entry 4-way (free on hit), L2
    /// 2048-entry 12-way (7-cycle hit).
    pub fn paper_default() -> Self {
        TlbConfig {
            l1: TlbLevelConfig {
                entries: 64,
                assoc: 4,
                latency: Cycles::new(0),
            },
            l2: TlbLevelConfig {
                entries: 2048,
                assoc: 12,
                latency: Cycles::new(7),
            },
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig::paper_default()
    }
}

/// `vpn` of an invalid entry. Page numbers are virtual addresses shifted
/// right by 12, so a real one is below 2^52 and never equals it.
const INVALID_VPN: u64 = u64::MAX;

#[derive(Clone, Copy, Debug)]
struct TlbEntry {
    /// The cached page number, or [`INVALID_VPN`].
    vpn: u64,
    frame: Frame,
    lru: u64,
}

impl TlbEntry {
    const EMPTY: TlbEntry = TlbEntry {
        vpn: INVALID_VPN,
        frame: Frame::from_number(0),
        lru: 0,
    };
}

#[derive(Clone, Debug)]
struct TlbArray {
    /// Every way of every set in one allocation: set `s` is
    /// `entries[s * assoc..(s + 1) * assoc]`.
    entries: Vec<TlbEntry>,
    assoc: usize,
    num_sets: u64,
    /// `num_sets - 1` when the set count is a power of two, so the set
    /// index is a mask; `None` falls back to `%`.
    set_mask: Option<u64>,
    stamp: u64,
    /// Index of the entry the last hit or insert stamped: the most
    /// recently used one while nothing has invalidated it since.
    mru: usize,
    latency: Cycles,
}

impl TlbArray {
    fn new(cfg: TlbLevelConfig) -> Self {
        // Paper geometry (2048-entry, 12-way) is not an exact multiple, so
        // round the set count up — matching how sliced TLBs are built.
        let num_sets = cfg.entries.div_ceil(cfg.assoc).max(1);
        TlbArray {
            entries: vec![TlbEntry::EMPTY; num_sets * cfg.assoc],
            assoc: cfg.assoc,
            num_sets: num_sets as u64,
            set_mask: num_sets.is_power_of_two().then_some(num_sets as u64 - 1),
            stamp: 0,
            mru: 0,
            latency: cfg.latency,
        }
    }

    /// Where the set `vpn` maps to starts in `entries`.
    fn set_base(&self, vpn: u64) -> usize {
        let set = match self.set_mask {
            Some(mask) => vpn & mask,
            None => vpn % self.num_sets,
        } as usize;
        set * self.assoc
    }

    /// The ways of the set `vpn` maps to.
    fn set_mut(&mut self, vpn: u64) -> &mut [TlbEntry] {
        let base = self.set_base(vpn);
        &mut self.entries[base..base + self.assoc]
    }

    fn lookup(&mut self, vpn: u64) -> Option<Frame> {
        self.stamp += 1;
        let base = self.set_base(vpn);
        let set = &mut self.entries[base..base + self.assoc];
        let way = set.iter().position(|e| e.vpn == vpn)?;
        set[way].lru = self.stamp;
        self.mru = base + way;
        Some(set[way].frame)
    }

    /// Repeats a hit on the most recently used entry, which must hold
    /// `vpn`: the same LRU refresh as [`Self::lookup`], without the search.
    fn refresh_mru(&mut self, vpn: u64) {
        self.stamp += 1;
        let e = &mut self.entries[self.mru];
        debug_assert_eq!(e.vpn, vpn, "repeat hit on a page that is not the MRU entry");
        debug_assert_eq!(e.lru + 1, self.stamp, "MRU entry was not stamped last");
        e.lru = self.stamp;
    }

    fn insert(&mut self, vpn: u64, frame: Frame) {
        self.stamp += 1;
        let stamp = self.stamp;
        let base = self.set_base(vpn);
        let set = &mut self.entries[base..base + self.assoc];
        let way = match set.iter().position(|e| e.vpn == vpn) {
            Some(i) => i,
            None => match set.iter().position(|e| e.vpn == INVALID_VPN) {
                Some(i) => i,
                None => set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i)
                    .expect("non-empty set"),
            },
        };
        set[way] = TlbEntry {
            vpn,
            frame,
            lru: stamp,
        };
        self.mru = base + way;
    }

    fn invalidate(&mut self, vpn: u64) -> bool {
        let mut any = false;
        for e in self.set_mut(vpn).iter_mut().filter(|e| e.vpn == vpn) {
            *e = TlbEntry::EMPTY;
            any = true;
        }
        any
    }

    fn flush(&mut self) {
        self.entries.fill(TlbEntry::EMPTY);
    }
}

/// TLB statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// First-level lookups.
    pub l1: HitMiss,
    /// Second-level lookups (only on L1 miss).
    pub l2: HitMiss,
    /// Pages invalidated by shootdowns.
    pub shootdowns: u64,
    /// Full flushes (context switches).
    pub flushes: u64,
}

/// Outcome of a TLB lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbLookup {
    /// The translation, if cached at either level.
    pub frame: Option<Frame>,
    /// Lookup latency (0 on an L1 hit with the default config).
    pub cycles: Cycles,
}

/// A two-level TLB.
#[derive(Clone, Debug)]
pub struct Tlb {
    l1: TlbArray,
    l2: TlbArray,
    stats: TlbStats,
}

impl Tlb {
    /// Builds an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        Tlb {
            l1: TlbArray::new(cfg.l1),
            l2: TlbArray::new(cfg.l2),
            stats: TlbStats::default(),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Distribution of lookup latencies (cycles; bucket 0 = free L1 hits).
    ///
    /// A lookup costs the L1 latency on an L1 hit and the L1 plus L2
    /// latency otherwise, so the histogram follows from the L1 counters
    /// and is built on demand rather than recorded per lookup.
    pub fn hit_latency(&self) -> Log2Hist {
        let mut hist = Log2Hist::new();
        hist.record_n(self.l1.latency.raw(), self.stats.l1.hits);
        hist.record_n(
            (self.l1.latency + self.l2.latency).raw(),
            self.stats.l1.misses,
        );
        hist
    }

    /// Looks up the page containing `va` in both levels; promotes L2 hits
    /// into L1.
    pub fn lookup(&mut self, va: VirtAddr) -> TlbLookup {
        let vpn = va.page_number();
        if let Some(frame) = self.l1.lookup(vpn) {
            self.stats.l1.hit();
            return TlbLookup {
                frame: Some(frame),
                cycles: self.l1.latency,
            };
        }
        self.stats.l1.miss();
        let cycles = self.l1.latency + self.l2.latency;
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

    /// Counts a repeat lookup of the page the last [`Self::lookup`] or
    /// [`Self::insert`] of this TLB left most recently used in L1, as when
    /// the later lines of one page follow its first: an L1 hit at the L1
    /// latency with an LRU refresh, exactly what `lookup` would record,
    /// but without searching the set. The entry must still be there and
    /// still most recently used (debug-asserted).
    pub fn hit_mru(&mut self, va: VirtAddr) -> Cycles {
        self.l1.refresh_mru(va.page_number());
        self.stats.l1.hit();
        self.l1.latency
    }

    /// Installs a translation into both levels (post-walk insert).
    pub fn insert(&mut self, va: VirtAddr, frame: Frame) {
        let vpn = va.page_number();
        self.l1.insert(vpn, frame);
        self.l2.insert(vpn, frame);
    }

    /// Invalidates one page (TLB shootdown).
    pub fn shootdown(&mut self, va: VirtAddr) {
        let vpn = va.page_number();
        let hit = self.l1.invalidate(vpn) | self.l2.invalidate(vpn);
        if hit {
            self.stats.shootdowns += 1;
        }
    }

    /// Flushes all translations (context switch).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.stats.flushes += 1;
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new(TlbConfig::paper_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_simcore::addr::PAGE_SIZE;

    fn page(n: u64) -> VirtAddr {
        VirtAddr::new(n * PAGE_SIZE as u64)
    }

    #[test]
    fn miss_insert_hit() {
        let mut tlb = Tlb::default();
        let va = page(7);
        assert_eq!(tlb.lookup(va).frame, None);
        tlb.insert(va, Frame::from_number(42));
        let hit = tlb.lookup(va);
        assert_eq!(hit.frame, Some(Frame::from_number(42)));
        assert_eq!(hit.cycles, Cycles::ZERO, "L1 hit is free");
        assert_eq!(tlb.stats().l1.hits, 1);
        assert_eq!(tlb.stats().l1.misses, 1);
    }

    #[test]
    fn l2_backstops_l1_evictions() {
        let mut tlb = Tlb::default();
        // Fill far more pages than L1 holds (64 entries) but fewer than L2.
        for n in 0..512u64 {
            tlb.insert(page(n), Frame::from_number(n));
        }
        // Page 0 was evicted from L1 but should hit in L2 with latency 7.
        let out = tlb.lookup(page(0));
        assert_eq!(out.frame, Some(Frame::from_number(0)));
        assert_eq!(out.cycles, Cycles::new(7));
        assert_eq!(tlb.stats().l2.hits, 1);
        // And is now promoted to L1.
        assert_eq!(tlb.lookup(page(0)).cycles, Cycles::ZERO);
    }

    #[test]
    fn same_page_offsets_share_entry() {
        let mut tlb = Tlb::default();
        tlb.insert(VirtAddr::new(0x1004), Frame::from_number(9));
        assert_eq!(
            tlb.lookup(VirtAddr::new(0x1ffc)).frame,
            Some(Frame::from_number(9))
        );
    }

    #[test]
    fn shootdown_removes_page() {
        let mut tlb = Tlb::default();
        tlb.insert(page(3), Frame::from_number(3));
        tlb.shootdown(page(3));
        assert_eq!(tlb.lookup(page(3)).frame, None);
        assert_eq!(tlb.stats().shootdowns, 1);
        // Shooting down an absent page does not count.
        tlb.shootdown(page(99));
        assert_eq!(tlb.stats().shootdowns, 1);
    }

    #[test]
    fn flush_clears_everything() {
        let mut tlb = Tlb::default();
        for n in 0..32u64 {
            tlb.insert(page(n), Frame::from_number(n));
        }
        tlb.flush();
        for n in 0..32u64 {
            assert_eq!(tlb.lookup(page(n)).frame, None);
        }
        assert_eq!(tlb.stats().flushes, 1);
    }

    /// The per-lookup recording `hit_latency` replaced: one sample per
    /// lookup at the latency the lookup returned.
    fn recorded_per_lookup(tlb: &mut Tlb, pages: &[u64]) -> Log2Hist {
        let mut hist = Log2Hist::new();
        for &n in pages {
            hist.record(tlb.lookup(page(n)).cycles.raw());
        }
        hist
    }

    #[test]
    fn hit_latency_equals_per_lookup_recording() {
        let slow_l1 = TlbConfig {
            l1: TlbLevelConfig {
                latency: Cycles::new(1),
                ..TlbConfig::paper_default().l1
            },
            ..TlbConfig::paper_default()
        };
        for cfg in [TlbConfig::paper_default(), slow_l1] {
            // No lookups: an empty histogram, not zero-count buckets.
            assert_eq!(Tlb::new(cfg).hit_latency(), Log2Hist::new());

            // All misses: only the L1+L2 bucket exists.
            let mut tlb = Tlb::new(cfg);
            let want = recorded_per_lookup(&mut tlb, &[1, 2, 3, 2]);
            assert_eq!(tlb.hit_latency(), want);
            let miss = (cfg.l1.latency + cfg.l2.latency).raw();
            assert_eq!(want.buckets().len(), miss.ilog2() as usize + 2);

            // All hits: the bucket vector stops at the L1 latency's bucket.
            let mut tlb = Tlb::new(cfg);
            tlb.insert(page(5), Frame::from_number(5));
            let want = recorded_per_lookup(&mut tlb, &[5, 5, 5]);
            assert_eq!(tlb.hit_latency(), want);
            let l1_buckets = if cfg.l1.latency == Cycles::ZERO { 1 } else { 2 };
            assert_eq!(want.buckets().len(), l1_buckets);

            // A mix: L1 hits, L2 hits after L1 evictions, and misses.
            let mut tlb = Tlb::new(cfg);
            for n in 0..300 {
                tlb.insert(page(n), Frame::from_number(n));
            }
            let pages: Vec<u64> = (0..600).map(|i| (i * 37) % 400).collect();
            let want = recorded_per_lookup(&mut tlb, &pages);
            assert_eq!(tlb.hit_latency(), want);
            assert!(tlb.stats().l1.hits > 0 && tlb.stats().l2.hits > 0);
            assert!(tlb.stats().l2.misses > 0);
        }
    }

    #[test]
    fn hit_mru_matches_a_repeated_lookup() {
        // Two TLBs see the same stream; one answers each repeat of the
        // previous page with `lookup`, the other with `hit_mru`. Later
        // evictions depend on the LRU refreshes, so every lookup of a
        // second pass must agree too.
        let mut searched = Tlb::default();
        let mut repeated = Tlb::default();
        for i in 0..4000u64 {
            let n = (i * 7919) % 700;
            for tlb in [&mut searched, &mut repeated] {
                if tlb.lookup(page(n)).frame.is_none() {
                    tlb.insert(page(n), Frame::from_number(n));
                }
            }
            for _ in 0..i % 4 {
                let want = searched.lookup(page(n).add(64));
                assert_eq!(want.frame, Some(Frame::from_number(n)));
                assert_eq!(repeated.hit_mru(page(n).add(64)), want.cycles);
            }
        }
        assert_eq!(searched.stats(), repeated.stats());
        for n in 0..700u64 {
            assert_eq!(
                searched.lookup(page(n)),
                repeated.lookup(page(n)),
                "page {n}"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "repeat hit on a page that is not the MRU entry")]
    fn hit_mru_of_another_page_is_caught() {
        let mut tlb = Tlb::default();
        tlb.insert(page(1), Frame::from_number(1));
        tlb.insert(page(2), Frame::from_number(2));
        tlb.hit_mru(page(1));
    }

    #[test]
    fn reinsert_updates_mapping() {
        let mut tlb = Tlb::default();
        tlb.insert(page(1), Frame::from_number(10));
        tlb.insert(page(1), Frame::from_number(20));
        assert_eq!(tlb.lookup(page(1)).frame, Some(Frame::from_number(20)));
    }
}
