//! A single set-associative, write-back, write-allocate cache with LRU
//! replacement.
//!
//! The cache tracks presence and dirtiness of 64-byte lines; data lives in
//! [`memento_simcore::PhysMem`]. Timing is charged by the hierarchy layer.

use memento_simcore::addr::{PhysAddr, CACHE_LINE_SHIFT, CACHE_LINE_SIZE};
use memento_simcore::cycles::Cycles;
use memento_simcore::stats::HitMiss;

/// Geometry and latency of one cache level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable level name ("L1D", "LLC", ...), used in reports.
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Access latency charged on a lookup at this level.
    pub latency: Cycles,
}

impl CacheConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics unless `assoc` is non-zero, `size_bytes` is a multiple of
    /// `assoc * 64` and the set count is a power of two (or 1).
    pub fn new(name: &str, size_bytes: usize, assoc: usize, latency: u64) -> Self {
        assert!(assoc > 0, "cache {name}: associativity must be at least 1");
        assert!(
            size_bytes.is_multiple_of(assoc * CACHE_LINE_SIZE),
            "cache {name}: size {size_bytes} B is not a multiple of assoc * 64 = {} B",
            assoc * CACHE_LINE_SIZE
        );
        let cfg = CacheConfig {
            name: name.to_owned(),
            size_bytes,
            assoc,
            latency: Cycles::new(latency),
        };
        let sets = cfg.num_sets();
        assert!(sets >= 1, "cache must have at least one set");
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        cfg
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.assoc * CACHE_LINE_SIZE)
    }

    /// The first physical address a cache of this geometry cannot hold:
    /// a line's tag is its line number shifted right by the set bits, and
    /// must fit the 32-bit tag field below the invalid sentinel. About
    /// 2^(38 + set bits) bytes, 16 TiB for the 64-set paper L1s.
    pub fn addr_limit(&self) -> u64 {
        let shift = CACHE_LINE_SHIFT + self.num_sets().trailing_zeros();
        u64::try_from(u128::from(INVALID) << shift).unwrap_or(u64::MAX)
    }

    /// 32 KB, 8-way, 2-cycle L1 (paper Table 3).
    pub fn paper_l1(name: &str) -> Self {
        CacheConfig::new(name, 32 * 1024, 8, 2)
    }

    /// Hypothetical 36 KB 9-way L1D used by the iso-storage study (§6.1):
    /// the HOT's SRAM is given to the L1D as an extra way at the same
    /// latency.
    pub fn iso_storage_l1d() -> Self {
        CacheConfig::new("L1D+HOT", 36 * 1024, 9, 2)
    }

    /// 256 KB, 8-way, 14-cycle L2 (paper Table 3).
    pub fn paper_l2() -> Self {
        CacheConfig::new("L2", 256 * 1024, 8, 14)
    }

    /// 2 MB slice, 16-way, 40-cycle LLC (paper Table 3).
    pub fn paper_llc() -> Self {
        CacheConfig::new("LLC", 2 * 1024 * 1024, 16, 40)
    }
}

/// Tag of an invalid way. Tags are line numbers (`addr >> 6`) shifted right
/// by the set bits; addresses below [`CacheConfig::addr_limit`] give tags
/// below this, so a real tag never equals it.
const INVALID: u32 = u32::MAX;
/// `Line::word` bit 0: the line is dirty.
const DIRTY: u32 = 1;
/// Width of the owner field, `Line::word` bits 1..=8.
const OWNER_BITS: u32 = 8;
/// `Line::word` bits above the owner hold the LRU stamp.
const STAMP_SHIFT: u32 = 1 + OWNER_BITS;
/// The dirty bit and the owner field: what an LRU refresh keeps.
const LOW_BITS: u32 = (1 << STAMP_SHIFT) - 1;
/// The largest LRU stamp the 23-bit field holds. The stamp after it
/// renumbers the cache (`SetAssocCache::renumber`).
const STAMP_TOP: u32 = u32::MAX >> STAMP_SHIFT;

/// Owners (cores) the packed owner field of a line can name.
pub const MAX_OWNERS: usize = 1 << OWNER_BITS;

/// One way of a set, 8 bytes.
#[derive(Clone, Copy, Debug)]
struct Line {
    /// The line's tag, or [`INVALID`].
    tag: u32,
    /// LRU stamp (high 23 bits), then the core that last filled the line
    /// (fair-share accounting in the LLC; always 0 in private levels),
    /// then the dirty bit. Valid lines of one set carry distinct stamps,
    /// so ordering by stamp is ordering by recency within the set.
    word: u32,
}

const _: () = assert!(std::mem::size_of::<Line>() == 8);

impl Line {
    const EMPTY: Line = Line {
        tag: INVALID,
        word: 0,
    };

    fn new(tag: u32, dirty: bool, stamp: u32, owner: usize) -> Line {
        Line {
            tag,
            word: (stamp << STAMP_SHIFT) | ((owner as u32) << 1) | dirty as u32,
        }
    }

    fn valid(&self) -> bool {
        self.tag != INVALID
    }

    fn dirty(&self) -> bool {
        self.word & DIRTY != 0
    }

    fn owner(&self) -> usize {
        ((self.word & LOW_BITS) >> 1) as usize
    }

    fn stamp(&self) -> u32 {
        self.word >> STAMP_SHIFT
    }

    /// Marks the line most recently used, merging `dirty` into its dirty bit.
    fn touch(&mut self, stamp: u32, dirty: bool) {
        self.word = (stamp << STAMP_SHIFT) | (self.word & LOW_BITS) | dirty as u32;
    }
}

/// Per-level statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits/misses.
    pub demand: HitMiss,
    /// Lines filled into this level.
    pub fills: u64,
    /// Dirty lines evicted (written back toward memory).
    pub writebacks: u64,
    /// Lines invalidated by explicit flushes.
    pub flushed: u64,
}

impl CacheStats {
    /// Counters accumulated since `earlier`.
    pub fn delta(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            demand: self.demand.delta(earlier.demand),
            fills: self.fills - earlier.fills,
            writebacks: self.writebacks - earlier.writebacks,
            flushed: self.flushed - earlier.flushed,
        }
    }
}

/// What happened to the victim way during a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Eviction {
    /// No valid line was displaced.
    None,
    /// A clean line was silently dropped.
    Clean(PhysAddr),
    /// A dirty line must be written back; carries its base address.
    Dirty(PhysAddr),
}

/// One set-associative cache level.
///
/// Addresses must lie below [`CacheConfig::addr_limit`]; debug builds
/// check each one, and [`crate::MemSystem`] checks once per access in
/// every build.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Every way of every set in one allocation: set `s` is
    /// `lines[s * assoc..(s + 1) * assoc]`.
    lines: Vec<Line>,
    assoc: usize,
    /// The last LRU stamp handed out, at most [`STAMP_TOP`].
    stamp: u32,
    stats: CacheStats,
    set_mask: u64,
    set_bits: u32,
}

impl SetAssocCache {
    /// Builds an empty cache from its config.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.assoc` reaches 2^22: a renumbering restarts the
    /// 23-bit LRU stamp above the associativity, which must leave most
    /// stamps free.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.assoc <= (STAMP_TOP / 2) as usize,
            "cache {}: {} ways leave too few LRU stamps",
            cfg.name,
            cfg.assoc
        );
        let num_sets = cfg.num_sets();
        SetAssocCache {
            lines: vec![Line::EMPTY; num_sets * cfg.assoc],
            assoc: cfg.assoc,
            stamp: 0,
            stats: CacheStats::default(),
            set_mask: num_sets as u64 - 1,
            set_bits: num_sets.trailing_zeros(),
            cfg,
        }
    }

    /// An empty cache whose LRU stamp renumbers at its `left + 1`th
    /// access or fill: the way tests reach the renumbering without
    /// 8.4 M operations first.
    ///
    /// # Panics
    ///
    /// Panics if `left` leaves no stamp above the associativity.
    #[doc(hidden)]
    pub fn with_stamps_left(cfg: CacheConfig, left: u32) -> Self {
        let mut cache = SetAssocCache::new(cfg);
        assert!(
            left <= STAMP_TOP - cache.assoc as u32,
            "{left} stamps left exceed the field"
        );
        cache.stamp = STAMP_TOP - left;
        cache
    }

    /// This level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// This level's statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_and_tag(&self, addr: PhysAddr) -> (usize, u32) {
        let line = addr.raw() >> CACHE_LINE_SHIFT;
        let tag = line >> self.set_bits;
        debug_assert!(
            tag < u64::from(INVALID),
            "address {:#x} is past cache {}'s limit {:#x}",
            addr.raw(),
            self.cfg.name,
            self.cfg.addr_limit()
        );
        ((line & self.set_mask) as usize, tag as u32)
    }

    /// Where set `set_idx` starts in `lines`.
    fn set_base(&self, set_idx: usize) -> usize {
        set_idx * self.assoc
    }

    /// Base address of the line with `tag` in set `set_idx`.
    fn line_addr(set_bits: u32, tag: u32, set_idx: usize) -> PhysAddr {
        PhysAddr::new(((u64::from(tag) << set_bits) | set_idx as u64) << CACHE_LINE_SHIFT)
    }

    fn next_stamp(&mut self) -> u32 {
        if self.stamp == STAMP_TOP {
            self.renumber();
        }
        self.stamp += 1;
        self.stamp
    }

    /// Renumbers each set's valid lines 1..=k in recency order and
    /// restarts the stamp at the associativity, so every later stamp is
    /// above every renumbered one. Hits and victims depend only on the
    /// order of stamps within a set, which this keeps.
    #[cold]
    fn renumber(&mut self) {
        let mut order = Vec::with_capacity(self.assoc);
        for set in self.lines.chunks_exact_mut(self.assoc) {
            order.clear();
            order.extend((0..set.len()).filter(|&i| set[i].valid()));
            order.sort_unstable_by_key(|&i| set[i].stamp());
            for (rank, &i) in (1..).zip(&order) {
                set[i].touch(rank, false);
            }
        }
        self.stamp = self.assoc as u32;
    }

    /// Looks up the line holding `addr`. On a hit the LRU stamp is refreshed
    /// and the line is marked dirty when `write`. Records demand stats.
    pub fn access(&mut self, addr: PhysAddr, write: bool) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        let stamp = self.next_stamp();
        let base = self.set_base(set_idx);
        for line in &mut self.lines[base..base + self.assoc] {
            if line.tag == tag {
                line.touch(stamp, write);
                self.stats.demand.hit();
                return true;
            }
        }
        self.stats.demand.miss();
        false
    }

    /// Probes without updating LRU or stats (used by coherence-style checks).
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        let base = self.set_base(set_idx);
        self.lines[base..base + self.assoc]
            .iter()
            .any(|l| l.tag == tag)
    }

    /// Installs the line holding `addr`, evicting the LRU way if needed.
    /// Marks the new line dirty when `dirty`. Ownership defaults to core 0
    /// with fair-share partitioning disabled — the single-core fill path.
    pub fn fill(&mut self, addr: PhysAddr, dirty: bool) -> Eviction {
        self.fill_owned(addr, dirty, 0, 0)
    }

    /// Installs the line holding `addr` on behalf of `owner`, evicting a
    /// victim if needed.
    ///
    /// With `fair_ways == 0` the victim is the plain LRU way — exactly the
    /// behaviour of [`SetAssocCache::fill`]. With `fair_ways > 0` (shared
    /// LLC under contention) victim selection prefers, among the valid
    /// ways of the set, the LRU line whose owner currently holds *more*
    /// than `fair_ways` ways in this set: cores that overflow their fair
    /// share of the set are evicted first, approximating way-partitioned
    /// occupancy without hard partitioning.
    ///
    /// # Panics
    ///
    /// Panics if `owner >= MAX_OWNERS`.
    pub fn fill_owned(
        &mut self,
        addr: PhysAddr,
        dirty: bool,
        owner: usize,
        fair_ways: usize,
    ) -> Eviction {
        assert!(owner < MAX_OWNERS, "owner {owner} exceeds {MAX_OWNERS}");
        let (set_idx, tag) = self.set_and_tag(addr);
        let stamp = self.next_stamp();
        self.stats.fills += 1;
        let base = self.set_base(set_idx);
        let set = &mut self.lines[base..base + self.assoc];

        // Already present (e.g. racing fill): refresh in place. The last
        // filler takes ownership of the line.
        let mut first_invalid = None;
        for (i, line) in set.iter_mut().enumerate() {
            if line.tag == tag {
                *line = Line::new(tag, dirty || line.dirty(), stamp, owner);
                return Eviction::None;
            }
            if first_invalid.is_none() && !line.valid() {
                first_invalid = Some(i);
            }
        }

        let victim_idx = first_invalid.unwrap_or_else(|| Self::pick_victim(set, fair_ways));
        let victim = std::mem::replace(&mut set[victim_idx], Line::new(tag, dirty, stamp, owner));
        if !victim.valid() {
            return Eviction::None;
        }
        let victim_addr = Self::line_addr(self.set_bits, victim.tag, set_idx);
        if victim.dirty() {
            self.stats.writebacks += 1;
            Eviction::Dirty(victim_addr)
        } else {
            Eviction::Clean(victim_addr)
        }
    }

    /// Victim way for a full set: LRU among over-quota owners when fair-share
    /// partitioning is on, plain LRU otherwise.
    fn pick_victim(set: &[Line], fair_ways: usize) -> usize {
        if fair_ways > 0 {
            // Count each owner's valid ways once, then scan for the LRU
            // line of an owner over its quota.
            let mut held = [0u32; MAX_OWNERS];
            for l in set.iter().filter(|l| l.valid()) {
                held[l.owner()] += 1;
            }
            if let Some(i) = set
                .iter()
                .enumerate()
                .filter(|(_, l)| held[l.owner()] as usize > fair_ways)
                .min_by_key(|(_, l)| l.stamp())
                .map(|(i, _)| i)
            {
                return i;
            }
        }
        set.iter()
            .enumerate()
            .min_by_key(|(_, l)| l.stamp())
            .map(|(i, _)| i)
            .expect("non-empty set")
    }

    /// Number of valid lines currently owned by `owner` (LLC fair-share
    /// observability; private levels report everything under owner 0).
    pub fn owner_occupancy(&self, owner: usize) -> usize {
        self.lines
            .iter()
            .filter(|l| l.valid() && l.owner() == owner)
            .count()
    }

    /// Total number of valid lines resident in the cache.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid()).count()
    }

    /// Line capacity of the cache (sets × ways).
    pub fn capacity_lines(&self) -> usize {
        self.lines.len()
    }

    /// Invalidates every line, returning the base addresses of dirty lines
    /// that must be written back. Models a flush at context switch.
    pub fn flush(&mut self) -> Vec<PhysAddr> {
        let set_bits = self.set_bits;
        let mut dirty = Vec::new();
        for (set_idx, set) in self.lines.chunks_exact_mut(self.assoc).enumerate() {
            for line in set.iter_mut().filter(|l| l.valid()) {
                self.stats.flushed += 1;
                if line.dirty() {
                    dirty.push(Self::line_addr(set_bits, line.tag, set_idx));
                }
                *line = Line::EMPTY;
            }
        }
        dirty
    }

    /// Invalidates the single line holding `addr` if present; returns whether
    /// it was dirty.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<bool> {
        let (set_idx, tag) = self.set_and_tag(addr);
        let base = self.set_base(set_idx);
        let line = self.lines[base..base + self.assoc]
            .iter_mut()
            .find(|l| l.tag == tag)?;
        let was_dirty = line.dirty();
        *line = Line::EMPTY;
        self.stats.flushed += 1;
        Some(was_dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 64B = 256B.
        SetAssocCache::new(CacheConfig::new("T", 256, 2, 1))
    }

    fn addr(set: u64, tag: u64) -> PhysAddr {
        PhysAddr::new(((tag << 1) | set) << CACHE_LINE_SHIFT)
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::paper_l1("L1D").num_sets(), 64);
        assert_eq!(CacheConfig::paper_l2().num_sets(), 512);
        assert_eq!(CacheConfig::paper_llc().num_sets(), 2048);
        assert_eq!(CacheConfig::iso_storage_l1d().num_sets(), 64);
    }

    #[test]
    #[should_panic(expected = "cache X: size 1124 B is not a multiple of assoc * 64 = 512 B")]
    fn size_must_be_a_multiple_of_the_set_size() {
        CacheConfig::new("X", 1124, 8, 1);
    }

    #[test]
    #[should_panic(expected = "cache X: associativity must be at least 1")]
    fn assoc_must_be_non_zero() {
        CacheConfig::new("X", 1024, 0, 1);
    }

    #[test]
    #[should_panic(expected = "owner 256 exceeds 256")]
    fn owner_must_fit_the_packed_field() {
        tiny().fill_owned(addr(0, 1), false, MAX_OWNERS, 0);
    }

    #[test]
    fn high_owner_and_largest_tag_round_trip() {
        // The widest owner and the largest tag below the invalid sentinel
        // share the 8-byte line without disturbing each other, and the
        // victim address rebuilt from that tag is the filled one.
        let mut c = tiny();
        let top = PhysAddr::new(c.config().addr_limit() - 1).line_base();
        assert_eq!(c.set_and_tag(top), (1, INVALID - 1));
        c.fill_owned(top, true, MAX_OWNERS - 1, 0);
        assert_eq!(c.owner_occupancy(MAX_OWNERS - 1), 1);
        assert!(c.access(top, false));
        assert_eq!(c.flush(), vec![top]);
        c.fill_owned(top, true, MAX_OWNERS - 1, 0);
        c.fill(addr(1, 0), false);
        assert_eq!(c.fill(addr(1, 1), false), Eviction::Dirty(top));
    }

    #[test]
    fn address_limits_follow_the_set_bits() {
        // (2^32 - 1) tags of 64-byte lines per set.
        assert_eq!(
            CacheConfig::paper_l1("L1D").addr_limit(),
            u64::from(u32::MAX) << 12
        );
        assert_eq!(tiny().config().addr_limit(), u64::from(u32::MAX) << 7);
        assert_eq!(
            CacheConfig::paper_llc().addr_limit(),
            u64::from(u32::MAX) << 17
        );
        // A geometry whose tags always fit saturates instead of wrapping.
        let huge = CacheConfig::new("H", 1 << 60, 1, 1);
        assert_eq!(huge.addr_limit(), u64::MAX);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let a = addr(0, 1);
        assert!(!c.access(a, false));
        assert_eq!(c.fill(a, false), Eviction::None);
        assert!(c.access(a, false));
        assert_eq!(c.stats().demand.hits, 1);
        assert_eq!(c.stats().demand.misses, 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        let a = addr(0, 1);
        let b = addr(0, 2);
        let d = addr(0, 3);
        c.fill(a, false);
        c.fill(b, false);
        // Touch `a` so `b` becomes LRU.
        assert!(c.access(a, false));
        match c.fill(d, false) {
            Eviction::Clean(victim) => assert_eq!(victim, b),
            other => panic!("expected clean eviction of b, got {other:?}"),
        }
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn renumbering_keeps_the_lru_order() {
        let mut c = SetAssocCache::with_stamps_left(tiny().cfg, 2);
        let (a, b, d) = (addr(0, 1), addr(0, 2), addr(0, 3));
        c.fill(b, true);
        c.fill(a, false);
        assert_eq!(c.stamp, STAMP_TOP);
        // This miss renumbers b to 1 and a to 2, and takes stamp assoc + 1.
        assert!(!c.access(d, false));
        assert_eq!(c.stamp, 3);
        assert_eq!(
            c.fill(d, false),
            Eviction::Dirty(b),
            "b stays LRU and dirty"
        );
        assert!(c.access(a, false));
        assert_eq!(c.fill(b, false), Eviction::Clean(d));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        let a = addr(1, 1);
        let b = addr(1, 2);
        let d = addr(1, 3);
        c.fill(a, true);
        c.fill(b, false);
        match c.fill(d, false) {
            Eviction::Dirty(victim) => assert_eq!(victim, a),
            other => panic!("expected dirty eviction of a, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        let a = addr(0, 5);
        c.fill(a, false);
        assert!(c.access(a, true));
        assert_eq!(c.invalidate(a), Some(true));
        assert_eq!(c.invalidate(a), None);
    }

    #[test]
    fn refill_existing_line_keeps_single_copy() {
        let mut c = tiny();
        let a = addr(0, 7);
        c.fill(a, false);
        assert_eq!(c.fill(a, true), Eviction::None);
        // Dirty bit merged.
        assert_eq!(c.invalidate(a), Some(true));
    }

    #[test]
    fn flush_returns_dirty_lines() {
        let mut c = tiny();
        let a = addr(0, 1);
        let b = addr(1, 1);
        c.fill(a, true);
        c.fill(b, false);
        let mut dirty = c.flush();
        dirty.sort();
        assert_eq!(dirty, vec![a]);
        assert!(!c.probe(a));
        assert!(!c.probe(b));
        assert_eq!(c.stats().flushed, 2);
    }

    #[test]
    fn fair_share_evicts_over_quota_owner_first() {
        // One set, four ways: enough room for owners to differ in quota.
        let mut c = SetAssocCache::new(CacheConfig::new("T4", 256, 4, 1));
        let line = |tag: u64| PhysAddr::new(tag << CACHE_LINE_SHIFT);
        // Core 1 fills first, so its line is the *global* LRU...
        c.fill_owned(line(4), false, 1, 2);
        // ...then core 0 claims the remaining three ways (over its fair
        // share of 4 ways / 2 cores = 2).
        c.fill_owned(line(1), false, 0, 2);
        c.fill_owned(line(2), false, 0, 2);
        c.fill_owned(line(3), false, 0, 2);
        assert_eq!(c.owner_occupancy(0), 3);
        assert_eq!(c.owner_occupancy(1), 1);
        // Core 1 fills again: plain LRU would evict its own line(4); the
        // fair-share policy instead evicts the LRU line of over-quota
        // core 0, which is line(1).
        match c.fill_owned(line(5), false, 1, 2) {
            Eviction::Clean(victim) => assert_eq!(victim, line(1)),
            other => panic!("expected clean eviction of over-quota line, got {other:?}"),
        }
        assert!(c.probe(line(4)), "under-quota owner keeps its line");
        assert_eq!(c.owner_occupancy(0), 2);
        assert_eq!(c.owner_occupancy(1), 2);
    }

    #[test]
    fn fair_share_zero_is_plain_lru() {
        let mut c = tiny();
        let a = addr(0, 1);
        let b = addr(0, 2);
        let d = addr(0, 3);
        c.fill_owned(a, false, 0, 0);
        c.fill_owned(b, false, 1, 0);
        assert!(c.access(a, false));
        // fair_ways == 0: plain LRU picks `b` regardless of owners.
        match c.fill_owned(d, false, 1, 0) {
            Eviction::Clean(victim) => assert_eq!(victim, b),
            other => panic!("expected clean LRU eviction of b, got {other:?}"),
        }
    }

    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.capacity_lines(), 4);
        c.fill_owned(addr(0, 1), false, 0, 0);
        c.fill_owned(addr(1, 1), false, 1, 0);
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.owner_occupancy(0), 1);
        assert_eq!(c.owner_occupancy(1), 1);
        c.flush();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn victim_address_reconstruction() {
        // Fill three distinct tags in the same set of a tiny cache and make
        // sure the reconstructed victim address equals the original fill.
        let mut c = tiny();
        let a = addr(1, 10);
        let b = addr(1, 20);
        let d = addr(1, 30);
        c.fill(a, true);
        c.fill(b, true);
        match c.fill(d, false) {
            Eviction::Dirty(victim) => assert_eq!(victim, a),
            other => panic!("unexpected {other:?}"),
        }
    }
}
