//! A faithful model of CPython's pymalloc (paper §2.1, Fig. 1).
//!
//! Geometry matches CPython: 256 KB arenas obtained from `mmap`, split into
//! 4 KB pools; each pool serves one 8-byte-aligned size class up to 512 B
//! with an in-pool singly-linked free list plus a bump offset for virgin
//! space. Empty pools return to their arena; fully-free arenas are
//! `munmap`ed. Larger requests go straight to `mmap` (glibc path).
//!
//! Every header/free-list touch is a real access through the memory
//! hierarchy, so fresh pools take genuine page faults — the kernel half of
//! Python's 48 %/52 % user/kernel split in Table 2.

use crate::glibc::GlibcHeap;
use crate::traits::{AllocCtx, FreeOutcome, SoftAllocStats, SoftOutcome, SoftwareAllocator};
use memento_cache::AccessKind;
use memento_kernel::kernel::MmapFlags;
use memento_simcore::addr::VirtAddr;
use memento_simcore::cycles::Cycles;
use std::collections::BTreeMap;

/// CPython arena size.
pub const ARENA_BYTES: u64 = 256 * 1024;

/// CPython pool size.
pub const POOL_BYTES: u64 = 4096;

/// Pool header size (CPython's `pool_header` is 48 bytes on 64-bit).
pub const POOL_HEADER_BYTES: u64 = 48;

/// Largest pymalloc-served request.
pub const SMALL_REQUEST_THRESHOLD: usize = 512;

const NUM_CLASSES: usize = 64;

/// Fixed userspace instruction costs (cycles at CPI 0.5) of the pymalloc
/// paths, excluding the modeled memory accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PyCosts {
    /// Fast allocation (pool available).
    pub alloc_fast: u64,
    /// Extra work to commission a fresh pool.
    pub pool_init: u64,
    /// Extra userspace work around an arena `mmap`.
    pub arena_setup: u64,
    /// Fast free.
    pub free_fast: u64,
    /// Large-path user cost.
    pub large: u64,
}

impl PyCosts {
    /// Calibrated defaults.
    pub fn calibrated() -> Self {
        PyCosts {
            alloc_fast: 26,
            pool_init: 22,
            arena_setup: 70,
            free_fast: 24,
            large: 45,
        }
    }
}

#[derive(Clone, Debug)]
struct ArenaInfo {
    free_pools: Vec<u64>,
    committed_pools: usize,
}

/// The pymalloc model.
#[derive(Clone, Debug)]
pub struct PyMalloc {
    costs: PyCosts,
    flags: MmapFlags,
    arena_bytes: u64,
    /// Pools with free space, per class (stack of pool base addresses).
    usedpools: Vec<Vec<u64>>,
    /// Arena start → bookkeeping.
    arenas: BTreeMap<u64, ArenaInfo>,
    /// Arena starts that still have free pools (stack).
    usable_arenas: Vec<u64>,
    large: GlibcHeap,
    stats: SoftAllocStats,
}

// Pool header field offsets within the pool's first line.
const HDR_FREELIST: u64 = 0;
const HDR_NEXT_OFFSET: u64 = 8;
const HDR_USED: u64 = 16;

impl PyMalloc {
    /// Creates a pymalloc model with calibrated costs and lazy mmap.
    pub fn new() -> Self {
        Self::with_flags(MmapFlags::default())
    }

    /// Creates the model with explicit mmap flags (the `MAP_POPULATE`
    /// sensitivity study flips `populate`).
    pub fn with_flags(flags: MmapFlags) -> Self {
        Self::with_arena_bytes(flags, ARENA_BYTES)
    }

    /// Creates the model with a non-default arena size (the §6.6
    /// allocator-tuning study enlarges it).
    ///
    /// # Panics
    ///
    /// Panics unless `arena_bytes` is a positive multiple of the pool size.
    pub fn with_arena_bytes(flags: MmapFlags, arena_bytes: u64) -> Self {
        assert!(
            arena_bytes >= POOL_BYTES && arena_bytes.is_multiple_of(POOL_BYTES),
            "arena must be a multiple of the pool size"
        );
        PyMalloc {
            costs: PyCosts::calibrated(),
            flags,
            arena_bytes,
            usedpools: vec![Vec::new(); NUM_CLASSES],
            arenas: BTreeMap::new(),
            usable_arenas: Vec::new(),
            large: GlibcHeap::new(PyCosts::calibrated().large, flags),
            stats: SoftAllocStats::default(),
        }
    }

    fn class_of(size: usize) -> usize {
        size.div_ceil(8) - 1
    }

    fn capacity(class: usize) -> u64 {
        (POOL_BYTES - POOL_HEADER_BYTES) / ((class as u64 + 1) * 8)
    }

    /// Reads the word at `va` with a timed access, through the
    /// translation that access made.
    fn load(ctx: &mut AllocCtx<'_>, va: u64, cycles: &mut (Cycles, Cycles)) -> u64 {
        let (pa, u, k) = ctx.touch_pa(VirtAddr::new(va), AccessKind::Read);
        cycles.0 += u;
        cycles.1 += k;
        ctx.mem.read_u64(pa)
    }

    /// Writes the word at `va` with a timed access, through the
    /// translation that access made.
    fn store(ctx: &mut AllocCtx<'_>, va: u64, value: u64, cycles: &mut (Cycles, Cycles)) {
        let (pa, u, k) = ctx.touch_pa(VirtAddr::new(va), AccessKind::Write);
        cycles.0 += u;
        cycles.1 += k;
        ctx.mem.write_u64(pa, value);
    }

    fn arena_of(&self, pool: u64) -> u64 {
        *self
            .arenas
            .range(..=pool)
            .next_back()
            .expect("pool belongs to an arena")
            .0
    }

    fn take_free_pool(&mut self, ctx: &mut AllocCtx<'_>, cycles: &mut (Cycles, Cycles)) -> u64 {
        loop {
            if let Some(&arena) = self.usable_arenas.last() {
                let info = self.arenas.get_mut(&arena).expect("usable arena exists");
                if let Some(pool) = info.free_pools.pop() {
                    info.committed_pools += 1;
                    if info.free_pools.is_empty() {
                        self.usable_arenas.pop();
                    }
                    return pool;
                }
                self.usable_arenas.pop();
                continue;
            }
            // No usable arena: mmap a new one (Fig. 1 step 4).
            cycles.0 += Cycles::new(self.costs.arena_setup);
            let (addr, k) = ctx.mmap(self.arena_bytes, self.flags);
            cycles.1 += k;
            self.stats.mmaps += 1;
            let pools = (0..self.arena_bytes / POOL_BYTES)
                .rev()
                .map(|i| addr.raw() + i * POOL_BYTES)
                .collect();
            self.arenas.insert(
                addr.raw(),
                ArenaInfo {
                    free_pools: pools,
                    committed_pools: 0,
                },
            );
            self.usable_arenas.push(addr.raw());
        }
    }
}

impl Default for PyMalloc {
    fn default() -> Self {
        PyMalloc::new()
    }
}

impl SoftwareAllocator for PyMalloc {
    fn name(&self) -> &'static str {
        "pymalloc"
    }

    fn alloc(&mut self, ctx: &mut AllocCtx<'_>, size: usize) -> SoftOutcome {
        if size > SMALL_REQUEST_THRESHOLD {
            self.stats.slow_allocs += 1;
            let before = self.large.mmaps;
            let out = self.large.alloc(ctx, size);
            self.stats.mmaps += self.large.mmaps - before;
            return out;
        }
        let class = Self::class_of(size);
        let obj = (class as u64 + 1) * 8;
        let mut cycles = (Cycles::new(self.costs.alloc_fast), Cycles::ZERO);

        loop {
            if let Some(&pool) = self.usedpools[class].last() {
                let freelist = Self::load(ctx, pool + HDR_FREELIST, &mut cycles);
                let addr;
                let used = Self::load(ctx, pool + HDR_USED, &mut cycles);
                if freelist != 0 {
                    // Pop the free-list head (Fig. 1 step 2).
                    let next = Self::load(ctx, freelist, &mut cycles);
                    Self::store(ctx, pool + HDR_FREELIST, next, &mut cycles);
                    addr = freelist;
                } else {
                    let next_off = Self::load(ctx, pool + HDR_NEXT_OFFSET, &mut cycles);
                    if next_off + obj <= POOL_BYTES {
                        addr = pool + next_off;
                        Self::store(ctx, pool + HDR_NEXT_OFFSET, next_off + obj, &mut cycles);
                    } else {
                        // Exhausted virgin space and free list: pool full.
                        self.usedpools[class].pop();
                        continue;
                    }
                }
                Self::store(ctx, pool + HDR_USED, used + 1, &mut cycles);
                if used + 1 >= Self::capacity(class) {
                    self.usedpools[class].pop();
                }
                self.stats.fast_allocs += 1;
                return SoftOutcome {
                    addr: VirtAddr::new(addr),
                    user_cycles: cycles.0,
                    kernel_cycles: cycles.1,
                };
            }

            // Commission a fresh pool (Fig. 1 step 3).
            self.stats.slow_allocs += 1;
            cycles.0 += Cycles::new(self.costs.pool_init);
            let pool = self.take_free_pool(ctx, &mut cycles);
            Self::store(ctx, pool + HDR_FREELIST, 0, &mut cycles);
            Self::store(ctx, pool + HDR_NEXT_OFFSET, POOL_HEADER_BYTES, &mut cycles);
            Self::store(ctx, pool + HDR_USED, 0, &mut cycles);
            self.usedpools[class].push(pool);
        }
    }

    fn free(&mut self, ctx: &mut AllocCtx<'_>, addr: VirtAddr, size: usize) -> FreeOutcome {
        self.stats.frees += 1;
        if size > SMALL_REQUEST_THRESHOLD {
            let before = self.large.munmaps;
            let out = self
                .large
                .free(ctx, addr)
                .expect("large free of unknown address");
            self.stats.munmaps += self.large.munmaps - before;
            return out;
        }
        let class = Self::class_of(size);
        let pool = addr.raw() & !(POOL_BYTES - 1);
        let mut cycles = (Cycles::new(self.costs.free_fast), Cycles::ZERO);

        // Link the object into the pool free list (Fig. 1 step 5).
        let freelist = Self::load(ctx, pool + HDR_FREELIST, &mut cycles);
        Self::store(ctx, addr.raw(), freelist, &mut cycles);
        Self::store(ctx, pool + HDR_FREELIST, addr.raw(), &mut cycles);
        let used = Self::load(ctx, pool + HDR_USED, &mut cycles);
        debug_assert!(used >= 1, "free from an empty pool");
        Self::store(ctx, pool + HDR_USED, used - 1, &mut cycles);

        if used == Self::capacity(class) {
            // Pool was full; it has space again.
            self.usedpools[class].push(pool);
        }

        if used - 1 == 0 {
            // Pool entirely free: return it to its arena.
            if let Some(pos) = self.usedpools[class].iter().position(|p| *p == pool) {
                self.usedpools[class].swap_remove(pos);
            }
            let arena = self.arena_of(pool);
            let info = self.arenas.get_mut(&arena).expect("arena exists");
            info.free_pools.push(pool);
            info.committed_pools -= 1;
            if info.free_pools.len() == 1 {
                self.usable_arenas.push(arena);
            }
            if info.committed_pools == 0
                && info.free_pools.len() as u64 == self.arena_bytes / POOL_BYTES
            {
                // Arena entirely free: munmap it.
                self.arenas.remove(&arena);
                self.usable_arenas.retain(|a| *a != arena);
                for pools in self.usedpools.iter() {
                    debug_assert!(pools
                        .iter()
                        .all(|p| { *p < arena || *p >= arena + self.arena_bytes }));
                }
                cycles.1 += ctx.munmap(VirtAddr::new(arena), self.arena_bytes);
                self.stats.munmaps += 1;
            }
        }

        FreeOutcome {
            user_cycles: cycles.0,
            kernel_cycles: cycles.1,
        }
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
    fn allocations_are_distinct_and_aligned() {
        let mut owner = CtxOwner::new();
        let mut py = PyMalloc::new();
        let mut seen = HashSet::new();
        for _ in 0..500 {
            let out = py.alloc(&mut owner.ctx(), 24);
            assert_eq!(out.addr.raw() % 8, 0);
            assert!(seen.insert(out.addr.raw()));
        }
    }

    #[test]
    fn first_alloc_pays_mmap_then_cheap() {
        let mut owner = CtxOwner::new();
        let mut py = PyMalloc::new();
        let first = py.alloc(&mut owner.ctx(), 32);
        assert!(
            first.kernel_cycles > Cycles::new(1000),
            "arena mmap + faults"
        );
        let later = py.alloc(&mut owner.ctx(), 32);
        assert_eq!(later.kernel_cycles, Cycles::ZERO);
        assert!(later.user_cycles < first.user_cycles + first.kernel_cycles);
        assert_eq!(py.stats().mmaps, 1);
    }

    #[test]
    fn free_then_alloc_reuses_address() {
        let mut owner = CtxOwner::new();
        let mut py = PyMalloc::new();
        let a = py.alloc(&mut owner.ctx(), 48).addr;
        let _b = py.alloc(&mut owner.ctx(), 48).addr;
        py.free(&mut owner.ctx(), a, 48);
        let c = py.alloc(&mut owner.ctx(), 48).addr;
        assert_eq!(c, a, "LIFO free-list reuse");
    }

    #[test]
    fn pools_segregate_classes() {
        let mut owner = CtxOwner::new();
        let mut py = PyMalloc::new();
        let a = py.alloc(&mut owner.ctx(), 8).addr;
        let b = py.alloc(&mut owner.ctx(), 512).addr;
        let pool_a = a.raw() & !(POOL_BYTES - 1);
        let pool_b = b.raw() & !(POOL_BYTES - 1);
        assert_ne!(pool_a, pool_b);
    }

    #[test]
    fn large_requests_bypass_pools() {
        let mut owner = CtxOwner::new();
        let mut py = PyMalloc::new();
        let out = py.alloc(&mut owner.ctx(), 4096);
        assert!(out.kernel_cycles > Cycles::ZERO, "heap growth hits mmap");
        py.free(&mut owner.ctx(), out.addr, 4096);
        // glibc retains the chunk: the next large alloc reuses it without
        // touching the kernel.
        let again = py.alloc(&mut owner.ctx(), 4096);
        assert_eq!(again.addr, out.addr);
        assert_eq!(again.kernel_cycles, Cycles::ZERO);
    }

    #[test]
    fn fully_freed_arena_is_munmapped() {
        let mut owner = CtxOwner::new();
        let mut py = PyMalloc::new();
        // One object commissions one pool in one arena; freeing it empties
        // the pool and hence the arena.
        let a = py.alloc(&mut owner.ctx(), 16).addr;
        assert_eq!(py.stats().munmaps, 0);
        py.free(&mut owner.ctx(), a, 16);
        assert_eq!(py.stats().munmaps, 1, "arena returned to the OS");
        // And the allocator keeps working afterwards.
        let b = py.alloc(&mut owner.ctx(), 16).addr;
        assert_eq!(py.stats().mmaps, 2);
        py.free(&mut owner.ctx(), b, 16);
    }

    #[test]
    fn pool_exhaustion_rolls_to_next_pool() {
        let mut owner = CtxOwner::new();
        let mut py = PyMalloc::new();
        // Class for 506-capacity pools is 8B; allocate past one pool.
        let cap = PyMalloc::capacity(0) as usize;
        let addrs: Vec<VirtAddr> = (0..cap + 1)
            .map(|_| py.alloc(&mut owner.ctx(), 8).addr)
            .collect();
        let pool0 = addrs[0].raw() & !(POOL_BYTES - 1);
        let pool_last = addrs[cap].raw() & !(POOL_BYTES - 1);
        assert_ne!(pool0, pool_last, "rolled into a second pool");
    }

    /// A seeded alloc/free mix over several classes that commissions and
    /// retires pools, spills into a second arena, drains until every
    /// arena is `munmap`ed, then keeps going in a fresh one. Every returned address and every user and
    /// kernel cycle value is folded into one pinned digest, so any change
    /// to what the model reads, writes or charges shows up here.
    #[test]
    fn seeded_mix_pins_addresses_and_cycles() {
        const SIZES: [usize; 6] = [8, 64, 248, 384, 496, 512];
        let mut owner = CtxOwner::new();
        let mut py = PyMalloc::new();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let mut fold = |v: u64| digest = (digest ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let (mut user, mut kernel) = (0u64, 0u64);
        let mut live: Vec<(VirtAddr, usize)> = Vec::new();
        // Allocates when `next() % 6 < allocs_in_6`, else frees a random
        // live object.
        let mut step = |py: &mut PyMalloc, live: &mut Vec<(VirtAddr, usize)>, allocs_in_6: u64| {
            let r = next();
            if r % 6 < allocs_in_6 || live.is_empty() {
                let size = SIZES[((r >> 16) % SIZES.len() as u64) as usize];
                let out = py.alloc(&mut owner.ctx(), size);
                fold(out.addr.raw());
                fold(out.user_cycles.raw());
                fold(out.kernel_cycles.raw());
                user += out.user_cycles.raw();
                kernel += out.kernel_cycles.raw();
                live.push((out.addr, size));
            } else {
                let (addr, size) = live.swap_remove((r >> 8) as usize % live.len());
                let out = py.free(&mut owner.ctx(), addr, size);
                fold(out.user_cycles.raw());
                fold(out.kernel_cycles.raw());
                user += out.user_cycles.raw();
                kernel += out.kernel_cycles.raw();
            }
        };
        // Grow: five allocations per free.
        for _ in 0..1300 {
            step(&mut py, &mut live, 5);
        }
        assert!(py.stats().mmaps >= 2, "the mix spills into a second arena");
        // Drain: every pool retires and every arena is munmapped.
        while !live.is_empty() {
            step(&mut py, &mut live, 0);
        }
        assert_eq!(py.stats().munmaps, py.stats().mmaps, "every arena returned");
        // Churn in a fresh arena.
        for _ in 0..300 {
            step(&mut py, &mut live, 3);
        }
        let s = py.stats();
        assert!(s.frees + s.fast_allocs >= 2000, "{s:?}");
        assert_eq!(
            (
                digest,
                user,
                kernel,
                s.fast_allocs,
                s.slow_allocs,
                s.mmaps,
                s.munmaps
            ),
            (
                17_294_910_212_472_410_944,
                221_597,
                341_550,
                1237,
                129,
                10,
                9
            )
        );
    }

    #[test]
    fn stats_track_paths() {
        let mut owner = CtxOwner::new();
        let mut py = PyMalloc::new();
        for _ in 0..10 {
            py.alloc(&mut owner.ctx(), 64);
        }
        let s = py.stats();
        assert_eq!(s.fast_allocs, 10);
        assert_eq!(s.slow_allocs, 1, "one pool commissioning");
    }
}
