//! Buddy allocator over physical frames, with frame-use attribution.
//!
//! This is the kernel's physical page allocator (Fig. 1, step 7 of the
//! paper). Every allocation is tagged with a [`FrameUse`] so experiments can
//! split memory consumption into user and kernel shares (Fig. 11). The
//! "aggregate memory usage" metric of the paper — total physical pages
//! allocated during simulated execution — is tracked per use as
//! `aggregate` counts.

use memento_simcore::physmem::Frame;
use std::collections::BTreeSet;
use std::fmt;

/// Maximum buddy order (2^10 pages = 4 MiB blocks), matching Linux.
pub const MAX_ORDER: u8 = 10;

/// What an allocated frame is used for; drives the Fig. 11 breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameUse {
    /// Userspace heap pages (anonymous mmap backing).
    UserHeap,
    /// Page-table pages (regular process tables).
    PageTable,
    /// Kernel bookkeeping: VMA structs, accounting, handler state.
    KernelMeta,
    /// Pages handed to Memento's hardware page pool.
    MementoPool,
}

impl FrameUse {
    /// All uses, in reporting order.
    pub const ALL: [FrameUse; 4] = [
        FrameUse::UserHeap,
        FrameUse::PageTable,
        FrameUse::KernelMeta,
        FrameUse::MementoPool,
    ];

    /// True when the use counts toward *kernel* memory in the paper's
    /// user/kernel split. Memento-pool pages back user heap data, so they
    /// count as user memory.
    pub fn is_kernel(self) -> bool {
        matches!(self, FrameUse::PageTable | FrameUse::KernelMeta)
    }
}

/// Per-use frame statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UseStats {
    /// Frames currently allocated.
    pub current: u64,
    /// Peak concurrently-allocated frames.
    pub peak: u64,
    /// Total frames ever allocated fresh from the OS (aggregate usage,
    /// Fig. 11's metric). Excludes recycled re-grants.
    pub aggregate: u64,
    /// Frames re-granted after being returned by their consumer (warm pool
    /// reuse). Counted separately so `aggregate` tracks only fresh OS
    /// demand instead of double-counting every recycle round-trip.
    pub recycled: u64,
}

/// Snapshot of the allocator's frame accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrameStats {
    user_heap: UseStats,
    page_table: UseStats,
    kernel_meta: UseStats,
    memento_pool: UseStats,
    /// True concurrently-resident peak of the non-pool uses (user heap,
    /// page tables, kernel metadata, summed at each allocation) since the
    /// last window reset — unlike [`Self::peak_total`] this is not a
    /// per-use upper bound, so it can attribute one invocation's
    /// footprint. Memento-pool frames are excluded: from the kernel's side
    /// a device pool grant is one opaque bucket covering both mapped data
    /// and the pool's free staging, so fleet accounting takes the mapped
    /// part from the device and only the non-pool uses from here.
    window_peak_nonpool: u64,
}

impl FrameStats {
    /// Stats for one use.
    pub fn get(&self, usage: FrameUse) -> UseStats {
        match usage {
            FrameUse::UserHeap => self.user_heap,
            FrameUse::PageTable => self.page_table,
            FrameUse::KernelMeta => self.kernel_meta,
            FrameUse::MementoPool => self.memento_pool,
        }
    }

    fn get_mut(&mut self, usage: FrameUse) -> &mut UseStats {
        match usage {
            FrameUse::UserHeap => &mut self.user_heap,
            FrameUse::PageTable => &mut self.page_table,
            FrameUse::KernelMeta => &mut self.kernel_meta,
            FrameUse::MementoPool => &mut self.memento_pool,
        }
    }

    /// Aggregate frames ever allocated for user-attributed memory
    /// (heap + Memento pool).
    pub fn aggregate_user(&self) -> u64 {
        self.user_heap.aggregate + self.memento_pool.aggregate
    }

    /// Aggregate frames ever allocated for kernel-attributed memory.
    pub fn aggregate_kernel(&self) -> u64 {
        self.page_table.aggregate + self.kernel_meta.aggregate
    }

    /// Aggregate over everything.
    pub fn aggregate_total(&self) -> u64 {
        self.aggregate_user() + self.aggregate_kernel()
    }

    /// Currently allocated frames over all uses.
    pub fn current_total(&self) -> u64 {
        FrameUse::ALL.iter().map(|u| self.get(*u).current).sum()
    }

    /// Peak concurrently-allocated frames summed per use (upper bound on
    /// true peak).
    pub fn peak_total(&self) -> u64 {
        FrameUse::ALL.iter().map(|u| self.get(*u).peak).sum()
    }

    /// Restarts the resident-peak window at the current level (start of a
    /// warm invocation's measurement window).
    pub fn reset_window_peak(&mut self) {
        self.window_peak_nonpool = self.current_total() - self.memento_pool.current;
    }

    /// Peak concurrently-resident non-pool frames (user heap, page
    /// tables, kernel metadata) since the last window reset.
    pub fn window_peak_nonpool(&self) -> u64 {
        self.window_peak_nonpool
    }

    fn note_window(&mut self) {
        self.window_peak_nonpool = self
            .window_peak_nonpool
            .max(self.current_total() - self.memento_pool.current);
    }
}

impl UseStats {
    /// Aggregate allocations since `earlier`; `current`/`peak` keep their
    /// end-of-run values (they are levels, not counters).
    pub fn delta(&self, earlier: UseStats) -> UseStats {
        UseStats {
            current: self.current,
            peak: self.peak,
            aggregate: self.aggregate - earlier.aggregate,
            recycled: self.recycled - earlier.recycled,
        }
    }
}

impl FrameStats {
    /// Per-use aggregates accumulated since `earlier`.
    pub fn delta(&self, earlier: &FrameStats) -> FrameStats {
        FrameStats {
            user_heap: self.user_heap.delta(earlier.user_heap),
            page_table: self.page_table.delta(earlier.page_table),
            kernel_meta: self.kernel_meta.delta(earlier.kernel_meta),
            memento_pool: self.memento_pool.delta(earlier.memento_pool),
            window_peak_nonpool: self.window_peak_nonpool,
        }
    }
}

/// Error when physical memory is exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfFrames;

impl fmt::Display for OutOfFrames {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("buddy allocator exhausted")
    }
}

impl std::error::Error for OutOfFrames {}

/// A binary buddy allocator over a contiguous frame range.
#[derive(Clone, Debug)]
pub struct BuddyAllocator {
    start: u64,
    end: u64,
    /// Free blocks per order, identified by their first frame number.
    free: Vec<BTreeSet<u64>>,
    stats: FrameStats,
}

impl BuddyAllocator {
    /// Builds an allocator over frames `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn new(start: Frame, end: Frame) -> Self {
        assert!(end.number() > start.number(), "empty frame range");
        let mut alloc = BuddyAllocator {
            start: start.number(),
            end: end.number(),
            free: vec![BTreeSet::new(); MAX_ORDER as usize + 1],
            stats: FrameStats::default(),
        };
        // Carve the range into maximal aligned blocks.
        let mut at = alloc.start;
        while at < alloc.end {
            let mut order = MAX_ORDER;
            loop {
                let size = 1u64 << order;
                let rel = at - alloc.start;
                if rel.is_multiple_of(size) && at + size <= alloc.end {
                    break;
                }
                order -= 1;
            }
            alloc.free[order as usize].insert(at);
            at += 1u64 << order;
        }
        alloc
    }

    /// Frames managed by the allocator.
    pub fn capacity(&self) -> u64 {
        self.end - self.start
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> u64 {
        self.free
            .iter()
            .enumerate()
            .map(|(order, set)| set.len() as u64 * (1u64 << order))
            .sum()
    }

    /// Mutable frame statistics (window-peak reset).
    pub(crate) fn stats_mut(&mut self) -> &mut FrameStats {
        &mut self.stats
    }

    /// Frame accounting snapshot.
    pub fn stats(&self) -> &FrameStats {
        &self.stats
    }

    fn buddy_of(&self, block: u64, order: u8) -> u64 {
        let rel = block - self.start;
        self.start + (rel ^ (1u64 << order))
    }

    /// Allocates a block of `2^order` frames for `usage`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when no block of sufficient order exists.
    ///
    /// # Panics
    ///
    /// Panics if `order > MAX_ORDER`.
    pub fn alloc_order(&mut self, order: u8, usage: FrameUse) -> Result<Frame, OutOfFrames> {
        self.alloc_order_tagged(order, usage, false)
    }

    fn alloc_order_tagged(
        &mut self,
        order: u8,
        usage: FrameUse,
        recycled: bool,
    ) -> Result<Frame, OutOfFrames> {
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        // Find the smallest order with a free block.
        let mut found = None;
        for o in order..=MAX_ORDER {
            if let Some(&block) = self.free[o as usize].iter().next() {
                found = Some((o, block));
                break;
            }
        }
        let (mut o, block) = found.ok_or(OutOfFrames)?;
        self.free[o as usize].remove(&block);
        // Split down to the requested order.
        while o > order {
            o -= 1;
            let upper_half = block + (1u64 << o);
            self.free[o as usize].insert(upper_half);
        }
        let pages = 1u64 << order;
        let st = self.stats.get_mut(usage);
        st.current += pages;
        st.peak = st.peak.max(st.current);
        if recycled {
            st.recycled += pages;
        } else {
            st.aggregate += pages;
        }
        self.stats.note_window();
        Ok(Frame::from_number(block))
    }

    /// Allocates a single frame for `usage`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when memory is exhausted.
    pub fn alloc(&mut self, usage: FrameUse) -> Result<Frame, OutOfFrames> {
        self.alloc_order(0, usage)
    }

    /// Allocates a single frame for `usage`, attributing it to warm reuse
    /// of previously returned frames (`recycled`) instead of fresh
    /// aggregate demand. Used when re-granting pool frames the consumer
    /// already returned: the physical page was acquired once, so Fig. 11's
    /// aggregate metric must not count it again.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when memory is exhausted.
    pub fn alloc_recycled(&mut self, usage: FrameUse) -> Result<Frame, OutOfFrames> {
        self.alloc_order_tagged(0, usage, true)
    }

    /// Frees a block of `2^order` frames previously allocated for `usage`.
    ///
    /// # Panics
    ///
    /// Panics (debug) on double free of the same block.
    pub fn free_order(&mut self, frame: Frame, order: u8, usage: FrameUse) {
        let mut block = frame.number();
        let mut order = order;
        debug_assert!(
            block >= self.start && block + (1u64 << order) <= self.end,
            "free outside managed range"
        );
        let pages = 1u64 << order;
        let st = self.stats.get_mut(usage);
        debug_assert!(st.current >= pages, "freeing more than allocated");
        st.current -= pages;
        // Coalesce with the buddy while possible.
        while order < MAX_ORDER {
            let buddy = self.buddy_of(block, order);
            if !self.free[order as usize].remove(&buddy) {
                break;
            }
            block = block.min(buddy);
            order += 1;
        }
        let inserted = self.free[order as usize].insert(block);
        debug_assert!(inserted, "double free of block {block}");
    }

    /// Frees a single frame.
    pub fn free(&mut self, frame: Frame, usage: FrameUse) {
        self.free_order(frame, 0, usage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buddy(frames: u64) -> BuddyAllocator {
        BuddyAllocator::new(Frame::from_number(16), Frame::from_number(16 + frames))
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut b = buddy(64);
        assert_eq!(b.free_frames(), 64);
        let f = b.alloc(FrameUse::UserHeap).unwrap();
        assert_eq!(b.free_frames(), 63);
        b.free(f, FrameUse::UserHeap);
        assert_eq!(b.free_frames(), 64);
    }

    #[test]
    fn split_and_coalesce() {
        let mut b = buddy(16);
        let frames: Vec<Frame> = (0..16)
            .map(|_| b.alloc(FrameUse::UserHeap).unwrap())
            .collect();
        assert_eq!(b.free_frames(), 0);
        assert!(b.alloc(FrameUse::UserHeap).is_err());
        for f in frames {
            b.free(f, FrameUse::UserHeap);
        }
        assert_eq!(b.free_frames(), 16);
        // Everything coalesced back: a 16-page block is allocatable again.
        let big = b.alloc_order(4, FrameUse::UserHeap).unwrap();
        assert_eq!(big.number(), 16);
    }

    #[test]
    fn distinct_frames_until_exhaustion() {
        let mut b = buddy(32);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            let f = b.alloc(FrameUse::UserHeap).unwrap();
            assert!(seen.insert(f.number()), "duplicate frame {f}");
        }
    }

    #[test]
    fn order_allocation_alignment() {
        let mut b = buddy(64);
        let f = b.alloc_order(3, FrameUse::PageTable).unwrap();
        assert_eq!((f.number() - 16) % 8, 0, "order-3 block is 8-aligned");
        assert_eq!(b.free_frames(), 56);
        b.free_order(f, 3, FrameUse::PageTable);
        assert_eq!(b.free_frames(), 64);
    }

    #[test]
    fn stats_attribution() {
        let mut b = buddy(64);
        let f1 = b.alloc(FrameUse::UserHeap).unwrap();
        let _f2 = b.alloc(FrameUse::PageTable).unwrap();
        let _f3 = b.alloc(FrameUse::MementoPool).unwrap();
        b.free(f1, FrameUse::UserHeap);
        let s = b.stats();
        assert_eq!(s.get(FrameUse::UserHeap).current, 0);
        assert_eq!(s.get(FrameUse::UserHeap).aggregate, 1);
        assert_eq!(s.get(FrameUse::UserHeap).peak, 1);
        assert_eq!(s.aggregate_user(), 2, "heap + memento pool");
        assert_eq!(s.aggregate_kernel(), 1, "page table");
        assert_eq!(s.aggregate_total(), 3);
        assert_eq!(s.current_total(), 2);
    }

    #[test]
    fn recycled_allocations_do_not_inflate_aggregate() {
        let mut b = buddy(64);
        let f = b.alloc(FrameUse::MementoPool).unwrap();
        b.free(f, FrameUse::MementoPool);
        let r = b.alloc_recycled(FrameUse::MementoPool).unwrap();
        b.free(r, FrameUse::MementoPool);
        let s = b.stats().get(FrameUse::MementoPool);
        assert_eq!(s.aggregate, 1, "fresh grant counted once");
        assert_eq!(s.recycled, 1, "re-grant attributed to reuse");
        assert_eq!(s.current, 0);
        assert_eq!(s.peak, 1, "levels unaffected by attribution");
    }

    #[test]
    fn kernel_attribution_flags() {
        assert!(FrameUse::PageTable.is_kernel());
        assert!(FrameUse::KernelMeta.is_kernel());
        assert!(!FrameUse::UserHeap.is_kernel());
        assert!(!FrameUse::MementoPool.is_kernel());
    }

    #[test]
    fn unaligned_range_is_fully_usable() {
        // Range of 100 frames starting at 16: carved into 64+32+4.
        let mut b = buddy(100);
        assert_eq!(b.free_frames(), 100);
        let mut count = 0;
        while b.alloc(FrameUse::UserHeap).is_ok() {
            count += 1;
        }
        assert_eq!(count, 100);
    }

    #[test]
    fn interleaved_alloc_free_coalesces() {
        let mut b = buddy(8);
        let a = b.alloc(FrameUse::UserHeap).unwrap();
        let c = b.alloc(FrameUse::UserHeap).unwrap();
        b.free(a, FrameUse::UserHeap);
        let d = b.alloc(FrameUse::UserHeap).unwrap();
        assert_eq!(d, a, "lowest free frame reused");
        b.free(c, FrameUse::UserHeap);
        b.free(d, FrameUse::UserHeap);
        assert!(
            b.alloc_order(3, FrameUse::UserHeap).is_ok(),
            "full coalesce"
        );
    }
}
