//! A jemalloc-style allocator model for the C/C++ workloads.
//!
//! Captures the properties the paper attributes to jemalloc: a per-thread
//! cache (tcache) makes the user fast path very cheap; the backing pool is
//! pre-mapped (and partially pre-faulted) at library initialization, so the
//! function body takes almost no kernel memory-management time (Table 2:
//! C++ is 96 % user / 4 % kernel) — but utilization of that pool is low,
//! wasting user memory that Memento recovers (Fig. 11: 41 % userspace
//! savings on DeathStarBench).

use crate::traits::{AllocCtx, FreeOutcome, SoftAllocStats, SoftOutcome, SoftwareAllocator};
use memento_cache::AccessKind;
use memento_kernel::kernel::MmapFlags;
use memento_simcore::addr::{VirtAddr, PAGE_SIZE};
use memento_simcore::cycles::Cycles;

const NUM_CLASSES: usize = 64;

/// tcache capacity per bin.
const TCACHE_CAP: usize = 32;

/// Objects moved per tcache refill / flush.
const TCACHE_BATCH: usize = 16;

/// Fixed userspace instruction costs (cycles) of jemalloc paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JeCosts {
    /// tcache-hit allocation.
    pub alloc_fast: u64,
    /// tcache refill from a slab.
    pub refill: u64,
    /// tcache-hit free.
    pub free_fast: u64,
    /// tcache flush back to slabs.
    pub flush: u64,
    /// Large-path user cost.
    pub large: u64,
}

impl JeCosts {
    /// Calibrated defaults (jemalloc's fast path is famously short).
    pub fn calibrated() -> Self {
        JeCosts {
            alloc_fast: 11,
            refill: 55,
            free_fast: 9,
            flush: 48,
            large: 30,
        }
    }
}

/// Pool / pre-fault geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JeConfig {
    /// Bytes pre-mapped at library init.
    pub pool_bytes: u64,
    /// Pages pre-faulted at library init.
    pub prefault_pages: u64,
    /// mmap flags for pool extensions.
    pub flags: MmapFlags,
}

impl Default for JeConfig {
    fn default() -> Self {
        JeConfig {
            pool_bytes: 4 << 20,
            prefault_pages: 64,
            flags: MmapFlags::default(),
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Slab {
    cursor: u64,
    end: u64,
}

/// The jemalloc model.
#[derive(Clone, Debug)]
pub struct JeMalloc {
    costs: JeCosts,
    cfg: JeConfig,
    /// Pre-mapped pool region bump state.
    pool_base: u64,
    pool_cursor: u64,
    pool_end: u64,
    /// TLS page (tcache bins live here; one line per class).
    tls_base: u64,
    /// Host-side tcache contents per class.
    tcache: Vec<Vec<u64>>,
    /// Flushed-back spare objects per class (slab free lists).
    spare: Vec<Vec<u64>>,
    /// Freed large extents binned by rounded byte size (jemalloc retains
    /// and reuses extents instead of unmapping them).
    spare_large: std::collections::BTreeMap<u64, Vec<u64>>,
    /// Live large extents: address -> rounded bytes.
    large_sizes: std::collections::HashMap<u64, u64>,
    /// Current slab run per class.
    slabs: Vec<Slab>,
    /// Every region mmapped for the pool, `(base, len)`. Pool extensions
    /// reset the bump state to the new region, so without this list the
    /// older regions would be unreachable at invocation-end purge time.
    regions: Vec<(u64, u64)>,
    /// Init cycles to be charged as container/library setup.
    init_cycles: Option<(Cycles, Cycles)>,
    stats: SoftAllocStats,
}

impl JeMalloc {
    /// Creates the model (library init runs lazily on first use).
    pub fn new() -> Self {
        Self::with_config(JeConfig::default())
    }

    /// Creates the model with explicit pool geometry / mmap flags.
    pub fn with_config(cfg: JeConfig) -> Self {
        JeMalloc {
            costs: JeCosts::calibrated(),
            cfg,
            pool_base: 0,
            pool_cursor: 0,
            pool_end: 0,
            tls_base: 0,
            tcache: vec![Vec::new(); NUM_CLASSES],
            spare: vec![Vec::new(); NUM_CLASSES],
            spare_large: std::collections::BTreeMap::new(),
            large_sizes: std::collections::HashMap::new(),
            slabs: vec![Slab::default(); NUM_CLASSES],
            regions: Vec::new(),
            init_cycles: None,
            stats: SoftAllocStats::default(),
        }
    }

    /// Library-init cycles (pool pre-map + pre-fault), if init has run.
    /// The machine charges these to container setup: warm-started functions
    /// find jemalloc already initialized.
    pub fn take_init_cycles(&mut self) -> Option<(Cycles, Cycles)> {
        self.init_cycles.take()
    }

    fn ensure_init(&mut self, ctx: &mut AllocCtx<'_>) {
        if self.pool_base != 0 {
            return;
        }
        let mut user = Cycles::new(400);
        let mut kernel = Cycles::ZERO;
        let (addr, k) = ctx.mmap(self.cfg.pool_bytes, self.cfg.flags);
        kernel += k;
        self.stats.mmaps += 1;
        self.regions.push((addr.raw(), self.cfg.pool_bytes));
        self.pool_base = addr.raw();
        self.pool_end = addr.raw() + self.cfg.pool_bytes;
        // TLS page first.
        self.tls_base = addr.raw();
        self.pool_cursor = addr.raw() + PAGE_SIZE as u64;
        // Pre-fault the head of the pool.
        for p in 0..self.cfg.prefault_pages {
            let (u, kk) = ctx.touch(
                VirtAddr::new(self.pool_base + p * PAGE_SIZE as u64),
                AccessKind::Write,
            );
            user += u;
            kernel += kk;
        }
        self.init_cycles = Some((user, kernel));
    }

    fn class_of(size: usize) -> usize {
        size.div_ceil(8) - 1
    }

    fn touch_tcache(&self, ctx: &mut AllocCtx<'_>, class: usize, write: bool) -> (Cycles, Cycles) {
        let line = VirtAddr::new(self.tls_base + class as u64 * 64);
        ctx.touch(
            line,
            if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        )
    }

    fn carve(&mut self, ctx: &mut AllocCtx<'_>, bytes: u64) -> (u64, Cycles) {
        let mut kernel = Cycles::ZERO;
        if self.pool_cursor + bytes > self.pool_end {
            // Pool exhausted: extend (rare for function-scale heaps).
            let (addr, k) = ctx.mmap(self.cfg.pool_bytes / 2, self.cfg.flags);
            kernel += k;
            self.stats.mmaps += 1;
            self.regions.push((addr.raw(), self.cfg.pool_bytes / 2));
            self.pool_base = addr.raw();
            self.pool_cursor = addr.raw();
            self.pool_end = addr.raw() + self.cfg.pool_bytes / 2;
        }
        let at = self.pool_cursor;
        self.pool_cursor += bytes;
        (at, kernel)
    }

    /// Refills the tcache bin for `class` from its slab (carving a new run
    /// when the current one is empty).
    fn refill(&mut self, ctx: &mut AllocCtx<'_>, class: usize) -> (Cycles, Cycles) {
        let obj = (class as u64 + 1) * 8;
        let mut user = Cycles::new(self.costs.refill);
        let mut kernel = Cycles::ZERO;
        for _ in 0..TCACHE_BATCH {
            if let Some(addr) = self.spare[class].pop() {
                self.tcache[class].push(addr);
                continue;
            }
            if self.slabs[class].cursor + obj > self.slabs[class].end {
                // Carve a fresh slab run (at least a page, 64 objects).
                let run = (obj * 64).max(PAGE_SIZE as u64);
                let (base, k) = self.carve(ctx, run);
                kernel += k;
                self.slabs[class] = Slab {
                    cursor: base,
                    end: base + run,
                };
                // Slab metadata touch.
                let (u, kk) = ctx.touch(VirtAddr::new(base), AccessKind::Write);
                user += u;
                kernel += kk;
            }
            let addr = self.slabs[class].cursor;
            self.slabs[class].cursor += obj;
            // First-touch of the object's line happens here (jemalloc
            // writes the run bitmap; the object page faults in).
            let (u, kk) = ctx.touch(VirtAddr::new(addr), AccessKind::Write);
            user += u;
            kernel += kk;
            self.tcache[class].push(addr);
        }
        (user, kernel)
    }
}

impl Default for JeMalloc {
    fn default() -> Self {
        JeMalloc::new()
    }
}

impl SoftwareAllocator for JeMalloc {
    fn name(&self) -> &'static str {
        "jemalloc"
    }

    fn alloc(&mut self, ctx: &mut AllocCtx<'_>, size: usize) -> SoftOutcome {
        self.ensure_init(ctx);
        if size > 512 {
            // Large classes come from retained extents (no per-call mmap);
            // freed extents are reused before the pool is carved further.
            self.stats.slow_allocs += 1;
            let bytes = VirtAddr::new(size as u64).page_align_up().raw();
            let reused = self
                .spare_large
                .range_mut(bytes..)
                .find(|(_, v)| !v.is_empty())
                .and_then(|(_, v)| v.pop());
            let (addr, kernel) = match reused {
                Some(addr) => (addr, Cycles::ZERO),
                None => self.carve(ctx, bytes),
            };
            let (u, k) = ctx.touch(VirtAddr::new(addr), AccessKind::Write);
            self.large_sizes.insert(addr, bytes);
            return SoftOutcome {
                addr: VirtAddr::new(addr),
                user_cycles: Cycles::new(self.costs.large) + u,
                kernel_cycles: kernel + k,
            };
        }
        let class = Self::class_of(size);
        let (mut user, mut kernel) = self.touch_tcache(ctx, class, false);
        user += Cycles::new(self.costs.alloc_fast);
        if self.tcache[class].is_empty() {
            self.stats.slow_allocs += 1;
            let (u, k) = self.refill(ctx, class);
            user += u;
            kernel += k;
        } else {
            self.stats.fast_allocs += 1;
        }
        let addr = self.tcache[class].pop().expect("refill filled the bin");
        SoftOutcome {
            addr: VirtAddr::new(addr),
            user_cycles: user,
            kernel_cycles: kernel,
        }
    }

    fn free(&mut self, ctx: &mut AllocCtx<'_>, addr: VirtAddr, size: usize) -> FreeOutcome {
        self.stats.frees += 1;
        if size > 512 {
            // Retain the extent for reuse (jemalloc keeps it mapped).
            if let Some(bytes) = self.large_sizes.remove(&addr.raw()) {
                self.spare_large.entry(bytes).or_default().push(addr.raw());
            }
            return FreeOutcome {
                user_cycles: Cycles::new(self.costs.large),
                kernel_cycles: Cycles::ZERO,
            };
        }
        let class = Self::class_of(size);
        let (mut user, mut kernel) = self.touch_tcache(ctx, class, true);
        user += Cycles::new(self.costs.free_fast);
        self.tcache[class].push(addr.raw());
        if self.tcache[class].len() > TCACHE_CAP {
            // Flush half the bin back to the slab free lists.
            user += Cycles::new(self.costs.flush);
            for _ in 0..TCACHE_BATCH {
                if let Some(a) = self.tcache[class].pop() {
                    let (u, k) = ctx.touch(VirtAddr::new(a), AccessKind::Write);
                    user += u;
                    kernel += k;
                    self.spare[class].push(a);
                }
            }
        }
        FreeOutcome {
            user_cycles: user,
            kernel_cycles: kernel,
        }
    }

    fn take_setup_cycles(&mut self) -> (Cycles, Cycles) {
        self.take_init_cycles()
            .unwrap_or((Cycles::ZERO, Cycles::ZERO))
    }

    fn on_invocation_end(&mut self, ctx: &mut AllocCtx<'_>) -> (Cycles, Cycles) {
        if self.regions.is_empty() {
            return (Cycles::ZERO, Cycles::ZERO);
        }
        // End-of-request decay: the request's heap just died, so jemalloc
        // `MADV_FREE`s its extents. The mappings, slab metadata, and
        // caches survive (the thread and its tcache persist in a warm
        // container); pages the host's reclaim leaves alone are reused
        // for free, the harvested ones demand-fault on the next request.
        let user = Cycles::new(self.costs.flush);
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
    fn init_is_separable_setup_cost() {
        let mut owner = CtxOwner::new();
        let mut je = JeMalloc::new();
        assert!(je.take_init_cycles().is_none(), "not initialized yet");
        je.alloc(&mut owner.ctx(), 64);
        let (u, k) = je.take_init_cycles().expect("init ran on first alloc");
        assert!(u > Cycles::ZERO);
        assert!(
            k > Cycles::ZERO,
            "pre-mapping and pre-faulting hit the kernel"
        );
        assert!(je.take_init_cycles().is_none(), "taken once");
    }

    #[test]
    fn steady_state_avoids_kernel() {
        let mut owner = CtxOwner::new();
        let mut je = JeMalloc::new();
        je.alloc(&mut owner.ctx(), 64);
        je.take_init_cycles();
        let mut kernel_total = Cycles::ZERO;
        let mut addrs = Vec::new();
        for _ in 0..200 {
            let out = je.alloc(&mut owner.ctx(), 64);
            kernel_total += out.kernel_cycles;
            addrs.push(out.addr);
        }
        for a in addrs {
            kernel_total += je.free(&mut owner.ctx(), a, 64).kernel_cycles;
        }
        // Table 2: C++ memory management is 96% userspace. Steady-state ops
        // should be nearly kernel-free (only cold pool pages fault).
        assert!(
            kernel_total < Cycles::new(40_000),
            "kernel share too high: {kernel_total}"
        );
    }

    #[test]
    fn tcache_recycles_lifo() {
        let mut owner = CtxOwner::new();
        let mut je = JeMalloc::new();
        let a = je.alloc(&mut owner.ctx(), 128).addr;
        je.free(&mut owner.ctx(), a, 128);
        let b = je.alloc(&mut owner.ctx(), 128).addr;
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_addresses_per_class() {
        let mut owner = CtxOwner::new();
        let mut je = JeMalloc::new();
        let mut seen = HashSet::new();
        for _ in 0..300 {
            assert!(seen.insert(je.alloc(&mut owner.ctx(), 40).addr.raw()));
        }
        for _ in 0..300 {
            assert!(seen.insert(je.alloc(&mut owner.ctx(), 48).addr.raw()));
        }
    }

    #[test]
    fn tcache_flush_on_many_frees() {
        let mut owner = CtxOwner::new();
        let mut je = JeMalloc::new();
        let addrs: Vec<VirtAddr> = (0..64)
            .map(|_| je.alloc(&mut owner.ctx(), 32).addr)
            .collect();
        for a in addrs {
            je.free(&mut owner.ctx(), a, 32);
        }
        // Flushed objects are reused by later refills.
        let mut seen = HashSet::new();
        for _ in 0..64 {
            seen.insert(je.alloc(&mut owner.ctx(), 32).addr.raw());
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn invocation_end_decays_every_region() {
        let mut owner = CtxOwner::new();
        let mut je = JeMalloc::with_config(JeConfig {
            pool_bytes: 64 * 1024,
            prefault_pages: 4,
            flags: MmapFlags::default(),
        });
        // Burn through the small pool so carve() extends it at least once;
        // both regions must then be decayed at the boundary.
        let mut addrs = Vec::new();
        for _ in 0..40 {
            addrs.push(je.alloc(&mut owner.ctx(), 4096).addr);
        }
        let mmaps = je.stats().mmaps;
        assert!(mmaps >= 2, "pool must have been extended, mmaps {mmaps}");
        for a in addrs {
            je.free(&mut owner.ctx(), a, 4096);
        }
        let faults_before = owner.kernel.stats().page_faults;
        je.take_init_cycles(); // drain the cold-start stash
        let (_, kernel) = je.on_invocation_end(&mut owner.ctx());
        assert!(kernel > Cycles::ZERO, "decay issues madvise calls");
        assert_eq!(
            je.stats().madvises,
            mmaps,
            "every mmapped region is MADV_FREEd at the boundary"
        );
        assert_eq!(je.stats().munmaps, 0, "decay keeps the mappings alive");
        let reclaimed = owner.kernel.stats().lazy_reclaimed_pages;
        assert!(
            reclaimed > 0,
            "the packed host harvests part of the donation"
        );
        // The next request reuses the surviving pool without re-init;
        // touching a harvested page demand-faults instead of crashing.
        let out = je.alloc(&mut owner.ctx(), 64);
        assert!(out.addr.raw() != 0);
        assert!(je.take_init_cycles().is_none(), "no re-init needed");
        let (base, len) = (je.regions[0].0, je.regions[0].1);
        let mut ctx = owner.ctx();
        for page in 0..(len / PAGE_SIZE as u64) {
            ctx.touch(
                VirtAddr::new(base + page * PAGE_SIZE as u64),
                AccessKind::Write,
            );
        }
        assert!(
            owner.kernel.stats().page_faults > faults_before,
            "harvested pages refault on touch"
        );
    }

    #[test]
    fn large_objects_come_from_extents_not_mmap() {
        let mut owner = CtxOwner::new();
        let mut je = JeMalloc::new();
        je.alloc(&mut owner.ctx(), 8); // trigger init
        je.take_init_cycles();
        let mmaps_before = je.stats().mmaps;
        let out = je.alloc(&mut owner.ctx(), 2048);
        assert_eq!(je.stats().mmaps, mmaps_before, "no fresh mmap for large");
        je.free(&mut owner.ctx(), out.addr, 2048);
    }
}
