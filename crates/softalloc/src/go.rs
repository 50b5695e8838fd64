//! A Go-runtime-style span allocator model.
//!
//! Captures the properties the paper attributes to the Go allocator: size
//! classes served from spans carved out of large heap chunks obtained with
//! big `mmap` calls (which is why `MAP_POPULATE` blows Go's footprint up
//! 8.6× in the §6.6 study), a cheap per-P cache on the alloc path, and *no
//! free path at all* — dead objects wait for a mark-sweep GC that a
//! short-lived function never triggers, leaving deallocation to the OS at
//! exit (the long-lived mode of Fig. 3).
//!
//! GC *policy* (when to collect, deferred-death bookkeeping) lives in the
//! machine so baseline and Memento configurations share it; this type
//! provides the mechanics: `alloc` and the sweep-side `free`.

use crate::traits::{AllocCtx, FreeOutcome, SoftAllocStats, SoftOutcome, SoftwareAllocator};
use memento_cache::AccessKind;
use memento_kernel::kernel::MmapFlags;
use memento_simcore::addr::{VirtAddr, PAGE_SIZE};
use memento_simcore::cycles::Cycles;

const NUM_CLASSES: usize = 64;

/// Span size (Go spans are multiples of 8 KB).
const SPAN_BYTES: u64 = 8 * 1024;

/// Heap chunk size obtained per `mmap` (Go reserves large arenas; 4 MB
/// keeps function-scale footprints plausible while preserving the
/// "large mmap" behaviour the populate study depends on).
pub const CHUNK_BYTES: u64 = 4 << 20;

/// Fixed userspace instruction costs (cycles) of Go allocator paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GoCosts {
    /// mcache-hit allocation (includes mallocgc bookkeeping).
    pub alloc_fast: u64,
    /// New-span acquisition.
    pub span_acquire: u64,
    /// Sweep-side free of one object.
    pub sweep_free: u64,
    /// Large-object allocation.
    pub large: u64,
    /// Scavenger pass bookkeeping (walking the free-span treap).
    pub scavenge: u64,
}

impl GoCosts {
    /// Calibrated defaults.
    pub fn calibrated() -> Self {
        GoCosts {
            alloc_fast: 16,
            span_acquire: 80,
            sweep_free: 7,
            large: 60,
            scavenge: 300,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Span {
    cursor: u64,
    end: u64,
}

/// The Go allocator model.
#[derive(Clone, Debug)]
pub struct GoAlloc {
    costs: GoCosts,
    flags: MmapFlags,
    chunk_cursor: u64,
    chunk_end: u64,
    tls_base: u64,
    spans: Vec<Span>,
    /// Swept-free objects per class.
    spare: Vec<Vec<u64>>,
    /// Every heap chunk mmapped, `(base, len)` — the scavenger walks these
    /// at invocation boundaries.
    regions: Vec<(u64, u64)>,
    stats: SoftAllocStats,
}

impl GoAlloc {
    /// Creates the model with lazy mmap.
    pub fn new() -> Self {
        Self::with_flags(MmapFlags::default())
    }

    /// Creates the model with explicit mmap flags (populate study).
    pub fn with_flags(flags: MmapFlags) -> Self {
        GoAlloc {
            costs: GoCosts::calibrated(),
            flags,
            chunk_cursor: 0,
            chunk_end: 0,
            tls_base: 0,
            spans: vec![Span::default(); NUM_CLASSES],
            spare: vec![Vec::new(); NUM_CLASSES],
            regions: Vec::new(),
            stats: SoftAllocStats::default(),
        }
    }

    fn class_of(size: usize) -> usize {
        size.div_ceil(8) - 1
    }

    fn carve(&mut self, ctx: &mut AllocCtx<'_>, bytes: u64) -> (u64, Cycles) {
        let mut kernel = Cycles::ZERO;
        if self.tls_base == 0 || self.chunk_cursor + bytes > self.chunk_end {
            let (addr, k) = ctx.mmap(CHUNK_BYTES, self.flags);
            kernel += k;
            self.stats.mmaps += 1;
            self.regions.push((addr.raw(), CHUNK_BYTES));
            self.chunk_cursor = addr.raw();
            self.chunk_end = addr.raw() + CHUNK_BYTES;
            if self.tls_base == 0 {
                self.tls_base = addr.raw();
                self.chunk_cursor += PAGE_SIZE as u64;
            }
        }
        let at = self.chunk_cursor;
        self.chunk_cursor += bytes;
        (at, kernel)
    }

    fn touch_mcache(&self, ctx: &mut AllocCtx<'_>, class: usize) -> (Cycles, Cycles) {
        ctx.touch(
            VirtAddr::new(self.tls_base + class as u64 * 64),
            AccessKind::Write,
        )
    }
}

impl Default for GoAlloc {
    fn default() -> Self {
        GoAlloc::new()
    }
}

impl SoftwareAllocator for GoAlloc {
    fn name(&self) -> &'static str {
        "go"
    }

    fn alloc(&mut self, ctx: &mut AllocCtx<'_>, size: usize) -> SoftOutcome {
        if size > 512 {
            self.stats.slow_allocs += 1;
            let bytes = VirtAddr::new(size as u64).page_align_up().raw();
            let (addr, kernel) = self.carve(ctx, bytes);
            let (u, k) = ctx.touch(VirtAddr::new(addr), AccessKind::Write);
            return SoftOutcome {
                addr: VirtAddr::new(addr),
                user_cycles: Cycles::new(self.costs.large) + u,
                kernel_cycles: kernel + k,
            };
        }
        let class = Self::class_of(size);
        let obj = (class as u64 + 1) * 8;
        let mut user = Cycles::new(self.costs.alloc_fast);
        let mut kernel = Cycles::ZERO;
        // First allocation bootstraps the TLS page.
        if self.tls_base == 0 {
            let (_, k) = self.carve(ctx, 0);
            kernel += k;
        }
        let (u, k) = self.touch_mcache(ctx, class);
        user += u;
        kernel += k;

        if let Some(addr) = self.spare[class].pop() {
            self.stats.fast_allocs += 1;
            let (u, k) = ctx.touch(VirtAddr::new(addr), AccessKind::Write);
            return SoftOutcome {
                addr: VirtAddr::new(addr),
                user_cycles: user + u,
                kernel_cycles: kernel + k,
            };
        }

        if self.spans[class].cursor + obj > self.spans[class].end {
            // Acquire a new span from the heap.
            self.stats.slow_allocs += 1;
            user += Cycles::new(self.costs.span_acquire);
            let (base, k) = self.carve(ctx, SPAN_BYTES);
            kernel += k;
            self.spans[class] = Span {
                cursor: base,
                end: base + SPAN_BYTES,
            };
            let (u, kk) = ctx.touch(VirtAddr::new(base), AccessKind::Write);
            user += u;
            kernel += kk;
        } else {
            self.stats.fast_allocs += 1;
        }
        let addr = self.spans[class].cursor;
        self.spans[class].cursor += obj;
        let (u, k) = ctx.touch(VirtAddr::new(addr), AccessKind::Write);
        user += u;
        kernel += k;
        SoftOutcome {
            addr: VirtAddr::new(addr),
            user_cycles: user,
            kernel_cycles: kernel,
        }
    }

    /// Sweep-side free: returns the object to its class's free list. In Go
    /// this only ever runs inside a GC sweep; the machine's GC policy
    /// decides when.
    fn free(&mut self, ctx: &mut AllocCtx<'_>, addr: VirtAddr, size: usize) -> FreeOutcome {
        self.stats.frees += 1;
        if size > 512 {
            // Large spans are returned to the heap (retained).
            return FreeOutcome {
                user_cycles: Cycles::new(self.costs.sweep_free),
                kernel_cycles: Cycles::ZERO,
            };
        }
        let class = Self::class_of(size);
        self.spare[class].push(addr.raw());
        let (u, k) = ctx.touch(addr, AccessKind::Write);
        FreeOutcome {
            user_cycles: Cycles::new(self.costs.sweep_free) + u,
            kernel_cycles: k,
        }
    }

    fn on_invocation_end(&mut self, ctx: &mut AllocCtx<'_>) -> (Cycles, Cycles) {
        if self.regions.is_empty() {
            return (Cycles::ZERO, Cycles::ZERO);
        }
        // Between requests the runtime's background scavenger returns the
        // collected heap to the OS with `MADV_FREE` (runtime/mgcscavenge):
        // mappings, spans, and free lists survive; the host's reclaim
        // harvests part of the donation and those pages demand-fault when
        // the next request touches them.
        let user = Cycles::new(self.costs.scavenge);
        let mut kernel = Cycles::ZERO;
        for &(base, len) in &self.regions {
            kernel += ctx.madvise_free(VirtAddr::new(base), len);
            self.stats.madvises += 1;
        }
        (user, kernel)
    }

    fn stats(&self) -> SoftAllocStats {
        self.stats
    }

    fn box_clone(&self) -> Box<dyn SoftwareAllocator> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testutil::CtxOwner;
    use std::collections::HashSet;

    #[test]
    fn chunked_mmap_is_large() {
        let mut owner = CtxOwner::new();
        let mut go = GoAlloc::new();
        let out = go.alloc(&mut owner.ctx(), 32);
        assert!(out.kernel_cycles > Cycles::ZERO, "first alloc maps a chunk");
        assert_eq!(go.stats().mmaps, 1);
        // Many more allocations fit in the same 4MB chunk.
        for _ in 0..10_000 {
            go.alloc(&mut owner.ctx(), 32);
        }
        assert_eq!(go.stats().mmaps, 1);
    }

    #[test]
    fn distinct_addresses() {
        let mut owner = CtxOwner::new();
        let mut go = GoAlloc::new();
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(go.alloc(&mut owner.ctx(), 24).addr.raw()));
        }
    }

    #[test]
    fn sweep_free_enables_reuse() {
        let mut owner = CtxOwner::new();
        let mut go = GoAlloc::new();
        let a = go.alloc(&mut owner.ctx(), 96).addr;
        go.free(&mut owner.ctx(), a, 96);
        let b = go.alloc(&mut owner.ctx(), 96).addr;
        assert_eq!(a, b, "swept object reused");
    }

    #[test]
    fn spans_are_class_private() {
        let mut owner = CtxOwner::new();
        let mut go = GoAlloc::new();
        let a = go.alloc(&mut owner.ctx(), 8).addr;
        let b = go.alloc(&mut owner.ctx(), 512).addr;
        // Different spans: at least SPAN_BYTES apart is not guaranteed, but
        // they must not be adjacent objects of one span.
        assert!(a.raw().abs_diff(b.raw()) >= 8, "distinct placements");
    }

    #[test]
    fn large_objects_carved_from_chunk() {
        let mut owner = CtxOwner::new();
        let mut go = GoAlloc::new();
        go.alloc(&mut owner.ctx(), 8);
        let mmaps = go.stats().mmaps;
        let out = go.alloc(&mut owner.ctx(), 100_000);
        assert!(out.addr.is_page_aligned());
        assert_eq!(go.stats().mmaps, mmaps, "carved, not mmapped");
    }
}
