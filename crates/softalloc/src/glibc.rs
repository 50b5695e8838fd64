//! A glibc-malloc-style large-object heap.
//!
//! CPython routes requests above 512 B to glibc `malloc`, which serves them
//! from an sbrk/mmap-grown heap with free-list reuse and only gives very
//! large chunks (≥ the 128 KB mmap threshold) their own mappings. Modeling
//! this matters: freed large objects are *retained and reused*, so the
//! kernel is involved only on heap growth — not on every large free — which
//! keeps the Python user/kernel split near Table 2's 48 %/52 %.

use crate::traits::{AllocCtx, FreeOutcome, SoftOutcome};
use memento_cache::AccessKind;
use memento_kernel::kernel::MmapFlags;
use memento_simcore::addr::VirtAddr;
use memento_simcore::cycles::Cycles;
use std::collections::{BTreeMap, HashMap};

/// glibc's default mmap threshold.
pub const MMAP_THRESHOLD: u64 = 128 * 1024;

/// Heap growth granularity (like a top-chunk sbrk extension).
const GROW_BYTES: u64 = 1 << 20;

/// The glibc-style large-object heap.
#[derive(Clone, Debug)]
pub struct GlibcHeap {
    user_cost: u64,
    flags: MmapFlags,
    brk_cursor: u64,
    brk_end: u64,
    /// Free chunks binned by rounded size.
    bins: BTreeMap<u64, Vec<u64>>,
    /// Live chunk sizes (rounded), for free-time binning.
    live: HashMap<u64, u64>,
    /// Directly mmapped giants: address → mapped length.
    mmapped: HashMap<u64, u64>,
    /// mmap calls issued (growth + giants).
    pub mmaps: u64,
    /// munmap calls issued (giants only; the heap itself is retained).
    pub munmaps: u64,
}

impl GlibcHeap {
    /// Creates the heap with a fixed user-side cost per call.
    pub fn new(user_cost: u64, flags: MmapFlags) -> Self {
        GlibcHeap {
            user_cost,
            flags,
            brk_cursor: 0,
            brk_end: 0,
            bins: BTreeMap::new(),
            live: HashMap::new(),
            mmapped: HashMap::new(),
            mmaps: 0,
            munmaps: 0,
        }
    }

    fn round(size: usize) -> u64 {
        // 64-byte granule, glibc-ish.
        ((size as u64).max(64) + 63) & !63
    }

    /// Allocates `size` bytes.
    pub fn alloc(&mut self, ctx: &mut AllocCtx<'_>, size: usize) -> SoftOutcome {
        let mut user = Cycles::new(self.user_cost);
        let mut kernel = Cycles::ZERO;
        if size as u64 >= MMAP_THRESHOLD {
            let len = VirtAddr::new(size as u64).page_align_up().raw();
            let (addr, k) = ctx.mmap(len, self.flags);
            kernel += k;
            self.mmaps += 1;
            self.mmapped.insert(addr.raw(), len);
            return SoftOutcome {
                addr,
                user_cycles: user,
                kernel_cycles: kernel,
            };
        }
        let rounded = Self::round(size);
        // Best-fit-ish: smallest bin that fits.
        let bin_key = self
            .bins
            .range(rounded..)
            .find(|(_, v)| !v.is_empty())
            .map(|(k, _)| *k);
        let addr = if let Some(key) = bin_key {
            let addr = self
                .bins
                .get_mut(&key)
                .and_then(|v| v.pop())
                .expect("non-empty bin");
            // Chunk-header touch on reuse.
            let (u, k) = ctx.touch(VirtAddr::new(addr), AccessKind::Write);
            user += u;
            kernel += k;
            self.live.insert(addr, key);
            addr
        } else {
            if self.brk_cursor + rounded > self.brk_end {
                let grow = GROW_BYTES.max(VirtAddr::new(rounded).page_align_up().raw());
                let (base, k) = ctx.mmap(grow, self.flags);
                kernel += k;
                self.mmaps += 1;
                self.brk_cursor = base.raw();
                self.brk_end = base.raw() + grow;
            }
            let addr = self.brk_cursor;
            self.brk_cursor += rounded;
            let (u, k) = ctx.touch(VirtAddr::new(addr), AccessKind::Write);
            user += u;
            kernel += k;
            self.live.insert(addr, rounded);
            addr
        };
        SoftOutcome {
            addr: VirtAddr::new(addr),
            user_cycles: user,
            kernel_cycles: kernel,
        }
    }

    /// Frees the chunk at `addr`. Returns `None` if unknown.
    pub fn free(&mut self, ctx: &mut AllocCtx<'_>, addr: VirtAddr) -> Option<FreeOutcome> {
        if let Some(len) = self.mmapped.remove(&addr.raw()) {
            let kernel = ctx.munmap(addr, len);
            self.munmaps += 1;
            return Some(FreeOutcome {
                user_cycles: Cycles::new(self.user_cost),
                kernel_cycles: kernel,
            });
        }
        let rounded = self.live.remove(&addr.raw())?;
        let (u, k) = ctx.touch(addr, AccessKind::Write);
        self.bins.entry(rounded).or_default().push(addr.raw());
        Some(FreeOutcome {
            user_cycles: Cycles::new(self.user_cost) + u,
            kernel_cycles: k,
        })
    }

    /// Whether this heap owns `addr`.
    pub fn owns(&self, addr: VirtAddr) -> bool {
        self.live.contains_key(&addr.raw()) || self.mmapped.contains_key(&addr.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testutil::CtxOwner;

    #[test]
    fn reuse_avoids_kernel() {
        let mut owner = CtxOwner::new();
        let mut heap = GlibcHeap::new(40, MmapFlags::default());
        let a = heap.alloc(&mut owner.ctx(), 4096);
        assert!(a.kernel_cycles > Cycles::ZERO, "first alloc grows the heap");
        heap.free(&mut owner.ctx(), a.addr).unwrap();
        let b = heap.alloc(&mut owner.ctx(), 4096);
        assert_eq!(b.addr, a.addr, "free chunk reused");
        assert_eq!(b.kernel_cycles, Cycles::ZERO, "no kernel on reuse");
        assert_eq!(heap.mmaps, 1);
        assert_eq!(heap.munmaps, 0, "heap memory retained");
    }

    #[test]
    fn giant_chunks_get_own_mapping() {
        let mut owner = CtxOwner::new();
        let mut heap = GlibcHeap::new(40, MmapFlags::default());
        let a = heap.alloc(&mut owner.ctx(), 256 * 1024);
        assert!(a.addr.is_page_aligned());
        let fr = heap.free(&mut owner.ctx(), a.addr).unwrap();
        assert!(fr.kernel_cycles > Cycles::ZERO, "giant freed via munmap");
        assert_eq!(heap.munmaps, 1);
    }

    #[test]
    fn best_fit_prefers_smaller_bins() {
        let mut owner = CtxOwner::new();
        let mut heap = GlibcHeap::new(40, MmapFlags::default());
        let small = heap.alloc(&mut owner.ctx(), 1024);
        let big = heap.alloc(&mut owner.ctx(), 8192);
        heap.free(&mut owner.ctx(), small.addr).unwrap();
        heap.free(&mut owner.ctx(), big.addr).unwrap();
        let c = heap.alloc(&mut owner.ctx(), 900);
        assert_eq!(c.addr, small.addr, "smallest fitting chunk chosen");
    }

    #[test]
    fn unknown_address_rejected() {
        let mut owner = CtxOwner::new();
        let mut heap = GlibcHeap::new(40, MmapFlags::default());
        assert!(heap.free(&mut owner.ctx(), VirtAddr::new(0x1000)).is_none());
        assert!(!heap.owns(VirtAddr::new(0x1000)));
    }
}
