//! The Memento hardware page allocator (paper §3.2).
//!
//! Lives at the memory controller and has two responsibilities:
//!
//! 1. **Arena virtual addresses** — per-core, per-size-class bump pointers,
//!    cached in the Arena Allocation Cache (AAC), hand out fresh arena VAs
//!    from the reserved region.
//! 2. **Physical backing** — a small pool of physical pages (replenished by
//!    the OS through the [`PoolBackend`] trait) backs the first page of each
//!    new arena eagerly and the rest on first access, by constructing the
//!    *Memento page table* (rooted at the `MPTR` register) during page walks.
//!
//! Arena frees walk the Memento page table, reclaim frames into the pool,
//! and trigger TLB shootdowns to cores recorded in the per-process
//! shootdown bit vector.

use crate::costs::MementoCosts;
use crate::region::MementoRegion;
use crate::size_class::SizeClass;
use memento_cache::{AccessKind, MemSystem};
use memento_simcore::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use memento_simcore::cycles::Cycles;
use memento_simcore::physmem::{Frame, PhysMem};
use memento_simcore::stats::HitMiss;
use memento_vm::pagetable::{PageTable, Pte, PtePerms};
use std::collections::BTreeSet;
use std::fmt;

/// The pool ran dry for the requesting core — either no idle frames remain
/// and the OS backend granted nothing (memory pressure or outright refusal),
/// or every remaining idle frame is earmarked for a sibling core via
/// [`HardwarePageAllocator::reserve_frames`]. Typed so the system layer can
/// surface the failure through device statistics instead of a hardware
/// panic, and carries the core so multicore runs can attribute exhaustion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolExhausted {
    /// Core whose frame request could not be served.
    pub core: usize,
}

impl fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Memento page pool exhausted on core {} and the OS granted no frames",
            self.core
        )
    }
}

impl std::error::Error for PoolExhausted {}

/// Source of physical frames for the pool — implemented by the OS adapter
/// in `memento-system` (the kernel buddy allocator tagged `MementoPool`).
pub trait PoolBackend {
    /// Grants up to `n` frames; returning fewer (or none) models memory
    /// pressure.
    fn grant_frames(&mut self, n: u64) -> Vec<Frame>;

    /// Accepts frames back (process teardown or pool overflow).
    fn accept_frames(&mut self, frames: &[Frame]);
}

/// Configuration of the hardware page allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageAllocatorConfig {
    /// Pool refill batch size (frames requested per OS grant).
    pub refill_batch: u64,
    /// Refill when the pool drops below this many frames.
    pub low_water: usize,
    /// Return surplus frames to the OS when arena reclamation grows the
    /// pool above this level (high-water overflow return). Keeps the pool
    /// "small" (§3.2) even when a burst of arena frees reclaims many pages.
    pub high_water: usize,
    /// AAC entries (paper Table 3: 32, direct-mapped by core ID).
    pub aac_entries: usize,
    /// Size-class pointer slots per AAC entry.
    pub aac_slots: usize,
}

impl PageAllocatorConfig {
    /// Paper defaults. The pool is deliberately small ("a small pool of
    /// physical pages", §3.2): refills are cheap and batching larger than
    /// this only inflates resident memory.
    pub fn paper_default() -> Self {
        PageAllocatorConfig {
            refill_batch: 16,
            low_water: 4,
            high_water: 64,
            aac_entries: 32,
            aac_slots: 8,
        }
    }
}

impl Default for PageAllocatorConfig {
    fn default() -> Self {
        PageAllocatorConfig::paper_default()
    }
}

/// Page-allocator statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageAllocStats {
    /// AAC lookups.
    pub aac: HitMiss,
    /// Arenas handed to the object allocator.
    pub arenas_allocated: u64,
    /// Arenas reclaimed.
    pub arenas_freed: u64,
    /// Data pages backed (eager header pages + demand-populated body pages).
    pub data_pages_backed: u64,
    /// Memento page-table pages allocated.
    pub table_pages_allocated: u64,
    /// OS pool refills.
    pub pool_refills: u64,
    /// Frames granted fresh by the OS backend.
    pub frames_granted: u64,
    /// Frames reclaimed from freed arenas back into the pool (warm reuse).
    pub frames_recycled: u64,
    /// Frames handed back to the OS (high-water overflow + detach).
    pub frames_returned: u64,
    /// High-water overflow returns performed.
    pub pool_overflows: u64,
    /// Frame requests that failed because the pool was dry and the OS
    /// granted nothing.
    pub pool_exhausted: u64,
    /// Demand walks served (with or without population).
    pub demand_walks: u64,
    /// TLB shootdowns delivered (core-deliveries).
    pub shootdowns_sent: u64,
}

impl PageAllocStats {
    /// Counters accumulated since `earlier`.
    pub fn delta(&self, earlier: PageAllocStats) -> PageAllocStats {
        PageAllocStats {
            aac: self.aac.delta(earlier.aac),
            arenas_allocated: self.arenas_allocated - earlier.arenas_allocated,
            arenas_freed: self.arenas_freed - earlier.arenas_freed,
            data_pages_backed: self.data_pages_backed - earlier.data_pages_backed,
            table_pages_allocated: self.table_pages_allocated - earlier.table_pages_allocated,
            pool_refills: self.pool_refills - earlier.pool_refills,
            frames_granted: self.frames_granted - earlier.frames_granted,
            frames_recycled: self.frames_recycled - earlier.frames_recycled,
            frames_returned: self.frames_returned - earlier.frames_returned,
            pool_overflows: self.pool_overflows - earlier.pool_overflows,
            pool_exhausted: self.pool_exhausted - earlier.pool_exhausted,
            demand_walks: self.demand_walks - earlier.demand_walks,
            shootdowns_sent: self.shootdowns_sent - earlier.shootdowns_sent,
        }
    }
}

/// Per-process paging state owned by the hardware page allocator:
/// the reserved region (MRS/MRE), the Memento page table (MPTR), per-core
/// bump pointers, and the shootdown bit vector.
#[derive(Debug)]
pub struct ProcessPaging {
    /// The reserved region (MRS/MRE register values).
    pub region: MementoRegion,
    /// The hardware-managed Memento page table (MPTR points at its root).
    pub page_table: PageTable,
    /// Next arena index per (core, class).
    bump: Vec<[u64; 64]>,
    /// Cores that have issued walks on this address space (shootdown
    /// targets, paper §3.2).
    pub walker_cores: u64,
    /// Every pool frame currently backing this process (data + tables),
    /// for batch teardown. Ordered so teardown releases frames in a
    /// deterministic order regardless of allocation history.
    in_use: BTreeSet<u64>,
}

impl ProcessPaging {
    /// Frames currently backing the process (data + Memento tables).
    pub fn frames_in_use(&self) -> usize {
        self.in_use.len()
    }

    /// Next arena index the AAC would hand out for `(core, class)` — the
    /// bump-pointer value the sanitizer audits against its install count.
    pub fn bump_for(&self, core: usize, class: SizeClass) -> u64 {
        self.bump[core][class.index()]
    }
}

/// Result of an arena allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaAllocation {
    /// Base VA of the new arena.
    pub va: VirtAddr,
    /// Physical address of the (eagerly backed) header page.
    pub header_pa: PhysAddr,
    /// Cycles spent.
    pub cycles: Cycles,
}

/// Result of a demand walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DemandWalk {
    /// The frame now backing the page.
    pub frame: Frame,
    /// Cycles spent (entry reads/writes + populate control).
    pub cycles: Cycles,
    /// Pages newly allocated during this walk (0 when already mapped).
    pub pages_allocated: u64,
}

/// Result of an arena free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArenaFree {
    /// Cycles spent walking and reclaiming.
    pub cycles: Cycles,
    /// Virtual pages that were unmapped (TLB shootdown targets).
    pub unmapped_pages: Vec<VirtAddr>,
    /// Bit vector of cores that must receive shootdowns.
    pub shootdown_cores: u64,
}

#[derive(Clone, Debug, Default)]
struct AacEntry {
    /// Most-recently-used class indices cached in this entry.
    classes: Vec<u8>,
}

/// Physical-page lifecycle audit snapshot: cumulative flow counters plus
/// the two current levels. At every quiescent point the flows and levels
/// must balance: `granted - returned == pool_len + mapped` (every frame
/// the OS ever granted is either idle in the pool, mapped into a process,
/// or was handed back).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolAudit {
    /// Frames ever granted fresh by the OS backend.
    pub granted: u64,
    /// Frames reclaimed from freed arenas back into the pool.
    pub recycled: u64,
    /// Frames handed back to the OS (overflow return + detach).
    pub returned: u64,
    /// Frames currently idle in the pool.
    pub pool_len: u64,
    /// Frames currently mapped into processes (data + Memento tables).
    pub mapped: u64,
}

impl PoolAudit {
    /// True when the lifecycle flows and levels balance.
    pub fn conserved(&self) -> bool {
        self.granted - self.returned == self.pool_len + self.mapped
    }
}

/// The hardware page allocator.
pub struct HardwarePageAllocator {
    cfg: PageAllocatorConfig,
    costs: MementoCosts,
    pool: Vec<Frame>,
    aac: Vec<AacEntry>,
    /// Reserved memory block holding the full pointer table (AAC backing
    /// store); misses touch it through the cache hierarchy.
    pointer_block: PhysAddr,
    /// Frames currently mapped into processes (level, not a counter):
    /// incremented per frame taken from the pool, decremented on
    /// reclamation and detach.
    frames_mapped: u64,
    /// Peak of `frames_mapped` since the last window reset (one
    /// invocation's data footprint, free pool staging excluded).
    window_peak_mapped: u64,
    /// Per-core earmarks over the shared pool ([`Self::reserve_frames`]):
    /// `claims[c]` idle frames are promised to core `c` and off-limits to
    /// siblings. Bookkeeping only — the pool itself stays one LIFO stack,
    /// so with no reservations frame hand-out order (and therefore every
    /// downstream physical address) is identical to an unpartitioned pool.
    claims: Vec<u64>,
    stats: PageAllocStats,
}

impl HardwarePageAllocator {
    /// Creates the allocator; `pointer_block` is a physical scratch area
    /// (one boot frame) backing the AAC.
    pub fn new(cfg: PageAllocatorConfig, costs: MementoCosts, pointer_block: PhysAddr) -> Self {
        HardwarePageAllocator {
            aac: vec![AacEntry::default(); cfg.aac_entries],
            cfg,
            costs,
            pool: Vec::new(),
            pointer_block,
            frames_mapped: 0,
            window_peak_mapped: 0,
            claims: Vec::new(),
            stats: PageAllocStats::default(),
        }
    }

    /// Earmarks up to `n` idle pool frames for `core`: sibling cores'
    /// frame requests treat earmarked frames as unavailable and fail with
    /// a per-core typed [`PoolExhausted`] even while the pool still holds
    /// free frames. A core's own requests consume its earmarks first.
    /// Returns the number of frames actually earmarked (bounded by idle
    /// frames not already claimed). With no reservations outstanding the
    /// allocator behaves exactly as an unpartitioned shared pool.
    pub fn reserve_frames(&mut self, core: usize, n: u64) -> u64 {
        if self.claims.len() <= core {
            self.claims.resize(core + 1, 0);
        }
        let claimed: u64 = self.claims.iter().sum();
        let free = (self.pool.len() as u64).saturating_sub(claimed);
        let add = n.min(free);
        self.claims[core] += add;
        add
    }

    /// Frames currently earmarked for `core` by [`Self::reserve_frames`].
    pub fn reserved_for(&self, core: usize) -> u64 {
        self.claims.get(core).copied().unwrap_or(0)
    }

    /// Restarts the mapped-frames peak window at the current level.
    pub fn reset_window(&mut self) {
        self.window_peak_mapped = self.frames_mapped;
    }

    /// Peak frames mapped into processes since the last window reset.
    pub fn window_peak_mapped(&self) -> u64 {
        self.window_peak_mapped
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PageAllocStats {
        self.stats
    }

    /// Frames currently held in the pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Lifecycle audit snapshot (see [`PoolAudit`]).
    pub fn pool_audit(&self) -> PoolAudit {
        PoolAudit {
            granted: self.stats.frames_granted,
            recycled: self.stats.frames_recycled,
            returned: self.stats.frames_returned,
            pool_len: self.pool.len() as u64,
            mapped: self.frames_mapped,
        }
    }

    /// Initializes paging state for a process over `region`, taking the
    /// Memento page-table root from the pool.
    ///
    /// # Errors
    ///
    /// [`PoolExhausted`] when the pool is dry and the OS grants nothing.
    pub fn attach_process(
        &mut self,
        mem: &mut PhysMem,
        backend: &mut dyn PoolBackend,
        cores: usize,
        region: MementoRegion,
    ) -> Result<ProcessPaging, PoolExhausted> {
        // The page-table root is grabbed on the attach path, attributed to
        // the boot core (core 0) — attach runs before any invocation is
        // scheduled, so per-core earmarks cannot apply yet.
        let root = self.take_frame(backend, 0)?;
        mem.zero_frame(root);
        let mut in_use = BTreeSet::new();
        in_use.insert(root.number());
        Ok(ProcessPaging {
            region,
            page_table: PageTable::with_root(root),
            bump: vec![[0u64; 64]; cores],
            walker_cores: 0,
            in_use,
        })
    }

    /// Tears down a process: returns every backing frame (and the pool's
    /// reusable frames stay pooled). This is the hardware analogue of the
    /// OS batch-freeing a function's memory at exit.
    pub fn detach_process(
        &mut self,
        mem: &mut PhysMem,
        backend: &mut dyn PoolBackend,
        proc: ProcessPaging,
    ) {
        let frames: Vec<Frame> = proc.in_use.iter().map(|n| Frame::from_number(*n)).collect();
        for f in &frames {
            mem.release_frame(*f);
        }
        debug_assert!(self.frames_mapped >= frames.len() as u64);
        self.frames_mapped -= frames.len() as u64;
        self.stats.frames_returned += frames.len() as u64;
        backend.accept_frames(&frames);
    }

    /// Hands the pool's idle reserve above `keep` frames back to the OS —
    /// the keep-alive "park" path. Pool frames back no mapping (they are
    /// recycled free pages staged for the next invocation), so the return
    /// is pure bookkeeping: no page-table walk, no TLB shootdown. The next
    /// invocation re-grants lazily through the normal low-water refill.
    /// Returns the number of frames shed.
    pub fn shed_pool(&mut self, backend: &mut dyn PoolBackend, keep: usize) -> u64 {
        if self.pool.len() <= keep {
            return 0;
        }
        let surplus = self.pool.split_off(keep);
        self.stats.frames_returned += surplus.len() as u64;
        backend.accept_frames(&surplus);
        surplus.len() as u64
    }

    fn take_frame(
        &mut self,
        backend: &mut dyn PoolBackend,
        core: usize,
    ) -> Result<Frame, PoolExhausted> {
        if self.pool.len() <= self.cfg.low_water {
            let granted = backend.grant_frames(self.cfg.refill_batch);
            if !granted.is_empty() {
                self.stats.pool_refills += 1;
                self.stats.frames_granted += granted.len() as u64;
            }
            self.pool.extend(granted);
        }
        // Frames earmarked for sibling cores are off-limits: `core` may
        // only draw from the unreserved remainder (its own earmarks count
        // toward what it may take, and taking consumes one). With no
        // reservations this reduces to the plain pool-empty check.
        let reserved_elsewhere: u64 = self
            .claims
            .iter()
            .enumerate()
            .filter(|&(c, _)| c != core)
            .map(|(_, &n)| n)
            .sum();
        if self.pool.len() as u64 <= reserved_elsewhere {
            self.stats.pool_exhausted += 1;
            return Err(PoolExhausted { core });
        }
        if let Some(claim) = self.claims.get_mut(core) {
            *claim = claim.saturating_sub(1);
        }
        match self.pool.pop() {
            Some(f) => {
                self.frames_mapped += 1;
                self.window_peak_mapped = self.window_peak_mapped.max(self.frames_mapped);
                Ok(f)
            }
            None => {
                self.stats.pool_exhausted += 1;
                Err(PoolExhausted { core })
            }
        }
    }

    /// AAC lookup for (core, class); charges 1 cycle on a hit, a memory
    /// access to the pointer block on a miss.
    fn aac_access(&mut self, mem_sys: &mut MemSystem, core: usize, class: SizeClass) -> Cycles {
        let entry = &mut self.aac[core % self.cfg.aac_entries];
        let class_id = class.index() as u8;
        if let Some(pos) = entry.classes.iter().position(|c| *c == class_id) {
            // Move to MRU position.
            let c = entry.classes.remove(pos);
            entry.classes.push(c);
            self.stats.aac.hit();
            return Cycles::new(self.costs.aac_hit);
        }
        self.stats.aac.miss();
        entry.classes.push(class_id);
        let slots = self.cfg.aac_slots;
        if entry.classes.len() > slots {
            entry.classes.remove(0);
        }
        // Fetch the pointer line from the reserved block.
        let offset = ((core * 64 + class.index()) * 8) as u64 % PAGE_SIZE as u64;
        let addr = self.pointer_block.add(offset & !0x7);
        Cycles::new(self.costs.aac_hit) + mem_sys.access(core, AccessKind::Read, addr).cycles
    }

    /// Backs `va` with a pool frame in the Memento page table, creating
    /// intermediate tables (also from the pool) as needed. Returns the leaf
    /// frame, charged cycles, and pages consumed.
    fn populate_page(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        backend: &mut dyn PoolBackend,
        core: usize,
        proc: &mut ProcessPaging,
        va: VirtAddr,
    ) -> Result<(Frame, Cycles, u64), PoolExhausted> {
        let mut cycles = Cycles::ZERO;
        let mut allocated = 0u64;
        let mut table = proc.page_table.root();
        let mut level = 3u8;
        loop {
            let entry_addr = table.base_addr().add(va.pt_index(level) as u64 * 8);
            cycles += mem_sys.access(core, AccessKind::Read, entry_addr).cycles;
            let pte = Pte::from_raw(mem.read_u64(entry_addr));
            if level == 0 {
                if pte.present() {
                    return Ok((pte.frame(), cycles, allocated));
                }
                let frame = self.take_frame(backend, core)?;
                mem.zero_frame(frame);
                proc.in_use.insert(frame.number());
                mem.write_u64(entry_addr, Pte::leaf(frame, PtePerms::rw()).raw());
                cycles += mem_sys.access(core, AccessKind::Write, entry_addr).cycles;
                cycles += Cycles::new(self.costs.walk_populate_step);
                self.stats.data_pages_backed += 1;
                allocated += 1;
                return Ok((frame, cycles, allocated));
            }
            table = if pte.present() {
                pte.frame()
            } else {
                let new_table = self.take_frame(backend, core)?;
                mem.zero_frame(new_table);
                proc.in_use.insert(new_table.number());
                mem.write_u64(entry_addr, Pte::table(new_table).raw());
                proc.page_table.note_external_table();
                cycles += mem_sys.access(core, AccessKind::Write, entry_addr).cycles;
                cycles += Cycles::new(self.costs.walk_populate_step);
                self.stats.table_pages_allocated += 1;
                allocated += 1;
                new_table
            };
            level -= 1;
        }
    }

    /// Allocates a new arena of `class` for `core`: bumps the VA pointer
    /// (via the AAC) and eagerly backs the header page.
    ///
    /// # Errors
    ///
    /// [`PoolExhausted`] when the pool is dry and the OS grants nothing.
    ///
    /// # Panics
    ///
    /// Panics if the class slice is exhausted (≫ any modeled workload).
    pub fn alloc_arena(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        backend: &mut dyn PoolBackend,
        core: usize,
        proc: &mut ProcessPaging,
        class: SizeClass,
    ) -> Result<ArenaAllocation, PoolExhausted> {
        let mut cycles = Cycles::new(self.costs.arena_alloc_base);
        cycles += self.aac_access(mem_sys, core, class);

        // Interleave per-core arena allocations within the class slice so
        // different cores never hand out the same VA: arena index advances
        // by `cores` with offset `core`.
        let cores = proc.bump.len() as u64;
        let n = proc.bump[core][class.index()];
        proc.bump[core][class.index()] += 1;
        let arena_index = n * cores + core as u64;
        assert!(
            arena_index < proc.region.arenas_per_class(class),
            "class slice exhausted for {class}"
        );
        let va = proc.region.arena_at(class, arena_index);

        let (frame, c, _) = self.populate_page(mem, mem_sys, backend, core, proc, va)?;
        cycles += c;
        self.stats.arenas_allocated += 1;
        Ok(ArenaAllocation {
            va,
            header_pa: frame.base_addr(),
            cycles,
        })
    }

    /// Serves a marked page-walk request for `va` (a TLB miss inside the
    /// Memento region): populates missing levels on demand. Never faults.
    ///
    /// # Errors
    ///
    /// [`PoolExhausted`] when the pool is dry and the OS grants nothing.
    pub fn demand_walk(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        backend: &mut dyn PoolBackend,
        core: usize,
        proc: &mut ProcessPaging,
        va: VirtAddr,
    ) -> Result<DemandWalk, PoolExhausted> {
        debug_assert!(proc.region.contains(va), "walk outside Memento region");
        self.stats.demand_walks += 1;
        proc.walker_cores |= 1 << core;
        let page = va.page_base();
        let (frame, cycles, pages_allocated) =
            self.populate_page(mem, mem_sys, backend, core, proc, page)?;
        Ok(DemandWalk {
            frame,
            cycles,
            pages_allocated,
        })
    }

    /// Frees the arena at `arena_base`: walks the Memento table, reclaims
    /// frames into the pool, invalidates entries, and reports the pages and
    /// cores needing shootdowns. Surplus frames above the configured
    /// high-water mark are returned to the OS backend.
    #[expect(
        clippy::too_many_arguments,
        reason = "each machine part is a separate borrow of the caller's state"
    )]
    pub fn free_arena(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        backend: &mut dyn PoolBackend,
        core: usize,
        proc: &mut ProcessPaging,
        class: SizeClass,
        arena_base: VirtAddr,
    ) -> ArenaFree {
        let mut cycles = Cycles::new(self.costs.arena_free_base);
        let mut unmapped = Vec::new();
        let mut reclaimed = 0u64;
        for i in 0..class.arena_pages() as u64 {
            let va = arena_base.add(i * PAGE_SIZE as u64);
            let res = proc.page_table.unmap(mem, va);
            let Some(leaf) = res.leaf else { continue };
            cycles += mem_sys
                .access(core, AccessKind::Write, leaf.pte_addr)
                .cycles;
            mem.release_frame(leaf.frame);
            unmapped.push(va);
            // `unmap` already released the emptied tables' storage.
            for frame in std::iter::once(leaf.frame).chain(res.freed_tables) {
                proc.in_use.remove(&frame.number());
                self.pool.push(frame);
                reclaimed += 1;
            }
        }
        debug_assert!(self.frames_mapped >= reclaimed);
        self.frames_mapped -= reclaimed;
        self.stats.frames_recycled += reclaimed;
        // High-water overflow: arena reclamation can grow the pool well
        // beyond what refills ever would; return the surplus so the pool
        // stays small and the OS regains the memory mid-run.
        if self.pool.len() > self.cfg.high_water {
            let surplus = self.pool.split_off(self.cfg.high_water);
            self.stats.frames_returned += surplus.len() as u64;
            self.stats.pool_overflows += 1;
            backend.accept_frames(&surplus);
        }
        let shootdown_cores = proc.walker_cores;
        let ncores = shootdown_cores.count_ones() as u64;
        cycles += Cycles::new(self.costs.shootdown_per_core * ncores);
        self.stats.shootdowns_sent += ncores * unmapped.len() as u64;
        self.stats.arenas_freed += 1;
        ArenaFree {
            cycles,
            unmapped_pages: unmapped,
            shootdown_cores,
        }
    }
}

impl std::fmt::Debug for HardwarePageAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HardwarePageAllocator")
            .field("pool_len", &self.pool.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_cache::MemSystemConfig;

    /// Trivial backend over a bump counter.
    struct TestBackend {
        next: u64,
        limit: u64,
        returned: Vec<Frame>,
    }

    impl TestBackend {
        fn new() -> Self {
            TestBackend {
                next: 1000,
                limit: 100_000,
                returned: Vec::new(),
            }
        }
    }

    impl PoolBackend for TestBackend {
        fn grant_frames(&mut self, n: u64) -> Vec<Frame> {
            let take = n.min(self.limit.saturating_sub(self.next));
            let out = (self.next..self.next + take)
                .map(Frame::from_number)
                .collect();
            self.next += take;
            out
        }

        fn accept_frames(&mut self, frames: &[Frame]) {
            self.returned.extend_from_slice(frames);
        }
    }

    struct Rig {
        mem: PhysMem,
        sys: MemSystem,
        backend: TestBackend,
        alloc: HardwarePageAllocator,
        proc: ProcessPaging,
    }

    fn rig() -> Rig {
        let mut mem = PhysMem::new(1 << 30);
        let ptr_block = mem.alloc_frame().unwrap().base_addr();
        let mut alloc = HardwarePageAllocator::new(
            PageAllocatorConfig::paper_default(),
            MementoCosts::calibrated(),
            ptr_block,
        );
        let mut backend = TestBackend::new();
        let proc = alloc
            .attach_process(&mut mem, &mut backend, 1, MementoRegion::standard())
            .expect("attach with granting backend");
        Rig {
            mem,
            sys: MemSystem::new(MemSystemConfig::paper_default(1)),
            backend,
            alloc,
            proc,
        }
    }

    #[test]
    fn arena_allocation_backs_header_only() {
        let mut r = rig();
        let sc = SizeClass::for_size(64).unwrap();
        let a = r
            .alloc
            .alloc_arena(&mut r.mem, &mut r.sys, &mut r.backend, 0, &mut r.proc, sc)
            .expect("arena");
        assert_eq!(a.va, r.proc.region.arena_at(sc, 0));
        // Header page mapped.
        assert!(r.proc.page_table.translate(&r.mem, a.va).is_some());
        // Body pages NOT mapped yet.
        assert!(r
            .proc
            .page_table
            .translate(&r.mem, a.va.add(PAGE_SIZE as u64))
            .is_none());
        assert_eq!(r.alloc.stats().arenas_allocated, 1);
        assert_eq!(r.alloc.stats().data_pages_backed, 1);
    }

    #[test]
    fn successive_arenas_advance_bump_pointer() {
        let mut r = rig();
        let sc = SizeClass::for_size(8).unwrap();
        let a0 = r
            .alloc
            .alloc_arena(&mut r.mem, &mut r.sys, &mut r.backend, 0, &mut r.proc, sc)
            .expect("arena");
        let a1 = r
            .alloc
            .alloc_arena(&mut r.mem, &mut r.sys, &mut r.backend, 0, &mut r.proc, sc)
            .expect("arena");
        assert_eq!(a1.va.offset_from(a0.va), sc.arena_bytes() as u64);
    }

    #[test]
    fn demand_walk_populates_once() {
        let mut r = rig();
        let sc = SizeClass::for_size(256).unwrap();
        let a = r
            .alloc
            .alloc_arena(&mut r.mem, &mut r.sys, &mut r.backend, 0, &mut r.proc, sc)
            .expect("arena");
        let body = a.va.add(PAGE_SIZE as u64);
        let w1 = r
            .alloc
            .demand_walk(&mut r.mem, &mut r.sys, &mut r.backend, 0, &mut r.proc, body)
            .expect("walk");
        assert_eq!(
            w1.pages_allocated, 1,
            "leaf allocated, tables shared with header"
        );
        let w2 = r
            .alloc
            .demand_walk(&mut r.mem, &mut r.sys, &mut r.backend, 0, &mut r.proc, body)
            .expect("walk");
        assert_eq!(w2.pages_allocated, 0);
        assert_eq!(w2.frame, w1.frame);
        assert!(w2.cycles <= w1.cycles);
        assert_eq!(r.proc.walker_cores, 1);
    }

    #[test]
    fn aac_hits_after_first_use() {
        let mut r = rig();
        let sc = SizeClass::for_size(8).unwrap();
        for _ in 0..3 {
            r.alloc
                .alloc_arena(&mut r.mem, &mut r.sys, &mut r.backend, 0, &mut r.proc, sc)
                .expect("arena");
        }
        let s = r.alloc.stats();
        assert_eq!(s.aac.misses, 1);
        assert_eq!(s.aac.hits, 2);
    }

    #[test]
    fn free_arena_reclaims_into_pool() {
        let mut r = rig();
        let sc = SizeClass::for_size(128).unwrap();
        let a = r
            .alloc
            .alloc_arena(&mut r.mem, &mut r.sys, &mut r.backend, 0, &mut r.proc, sc)
            .expect("arena");
        // Touch two body pages.
        for page in 1..3u64 {
            r.alloc
                .demand_walk(
                    &mut r.mem,
                    &mut r.sys,
                    &mut r.backend,
                    0,
                    &mut r.proc,
                    a.va.add(page * PAGE_SIZE as u64),
                )
                .expect("walk");
        }
        let pool_before = r.alloc.pool_len();
        let freed = r.alloc.free_arena(
            &mut r.mem,
            &mut r.sys,
            &mut r.backend,
            0,
            &mut r.proc,
            sc,
            a.va,
        );
        assert_eq!(freed.unmapped_pages.len(), 3, "header + 2 body pages");
        assert!(r.alloc.pool_len() >= pool_before + 3);
        assert_eq!(freed.shootdown_cores, 1);
        assert!(r.proc.page_table.translate(&r.mem, a.va).is_none());
        assert_eq!(r.alloc.stats().arenas_freed, 1);
    }

    #[test]
    fn detach_returns_all_frames() {
        let mut r = rig();
        let sc = SizeClass::for_size(64).unwrap();
        r.alloc
            .alloc_arena(&mut r.mem, &mut r.sys, &mut r.backend, 0, &mut r.proc, sc)
            .expect("arena");
        let used = r.proc.frames_in_use();
        assert!(used >= 2, "root + tables + header");
        let proc = r.proc;
        r.alloc.detach_process(&mut r.mem, &mut r.backend, proc);
        assert_eq!(r.backend.returned.len(), used);
    }

    #[test]
    fn pool_refills_in_batches() {
        let mut r = rig();
        let refills_initial = r.alloc.stats().pool_refills;
        let sc = SizeClass::for_size(8).unwrap();
        // Burn through more than one batch of pool frames.
        for _ in 0..200 {
            let a = r
                .alloc
                .alloc_arena(&mut r.mem, &mut r.sys, &mut r.backend, 0, &mut r.proc, sc)
                .expect("arena");
            r.alloc
                .demand_walk(
                    &mut r.mem,
                    &mut r.sys,
                    &mut r.backend,
                    0,
                    &mut r.proc,
                    a.va.add(PAGE_SIZE as u64),
                )
                .expect("walk");
        }
        assert!(r.alloc.stats().pool_refills > refills_initial);
    }

    #[test]
    fn zero_grant_backend_surfaces_typed_exhaustion() {
        let mut r = rig();
        r.backend.limit = r.backend.next; // OS refuses every further grant
        let sc = SizeClass::for_size(8).unwrap();
        // Drain the pool; each allocation consumes frames until the pool
        // and the refusing backend both come up empty.
        let err = loop {
            match r
                .alloc
                .alloc_arena(&mut r.mem, &mut r.sys, &mut r.backend, 0, &mut r.proc, sc)
            {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err, PoolExhausted { core: 0 });
        assert!(r.alloc.stats().pool_exhausted > 0);
        assert_eq!(r.alloc.pool_len(), 0);
    }

    #[test]
    fn reservation_starves_sibling_while_frames_remain() {
        let mut mem = PhysMem::new(1 << 30);
        let ptr_block = mem.alloc_frame().unwrap().base_addr();
        let mut alloc = HardwarePageAllocator::new(
            PageAllocatorConfig::paper_default(),
            MementoCosts::calibrated(),
            ptr_block,
        );
        let mut backend = TestBackend::new();
        let mut proc = alloc
            .attach_process(&mut mem, &mut backend, 2, MementoRegion::standard())
            .expect("attach");
        let mut sys = MemSystem::new(MemSystemConfig::paper_default(2));
        backend.limit = backend.next; // OS refuses every further grant
        let idle = alloc.pool_len() as u64;
        assert!(idle > 0, "attach refill leaves idle frames");
        // Core 1 earmarks every idle frame; core 0 must fail typed and
        // per-core even though the pool is visibly non-empty.
        assert_eq!(alloc.reserve_frames(1, idle + 10), idle);
        let sc = SizeClass::for_size(8).unwrap();
        let err = alloc
            .alloc_arena(&mut mem, &mut sys, &mut backend, 0, &mut proc, sc)
            .expect_err("core 0 must starve");
        assert_eq!(err, PoolExhausted { core: 0 });
        assert_eq!(alloc.pool_len() as u64, idle, "no frame was consumed");
        // Core 1 still allocates from its own earmarked frames.
        let before = alloc.reserved_for(1);
        alloc
            .alloc_arena(&mut mem, &mut sys, &mut backend, 1, &mut proc, sc)
            .expect("core 1 draws on its reservation");
        assert!(alloc.reserved_for(1) < before, "earmarks were consumed");
    }

    #[test]
    fn no_reservations_is_an_unpartitioned_pool() {
        let mut r = rig();
        assert_eq!(r.alloc.reserved_for(0), 0);
        assert_eq!(r.alloc.reserved_for(7), 0);
        let sc = SizeClass::for_size(8).unwrap();
        // A long allocation run with zero claims must never trip the
        // per-core starvation path (pool_exhausted stays zero).
        for _ in 0..50 {
            r.alloc
                .alloc_arena(&mut r.mem, &mut r.sys, &mut r.backend, 0, &mut r.proc, sc)
                .expect("arena");
        }
        assert_eq!(r.alloc.stats().pool_exhausted, 0);
    }

    #[test]
    fn overflow_returns_surplus_above_high_water() {
        let mut mem = PhysMem::new(1 << 30);
        let ptr_block = mem.alloc_frame().unwrap().base_addr();
        let cfg = PageAllocatorConfig {
            high_water: 4,
            ..PageAllocatorConfig::paper_default()
        };
        let mut alloc = HardwarePageAllocator::new(cfg, MementoCosts::calibrated(), ptr_block);
        let mut backend = TestBackend::new();
        let mut proc = alloc
            .attach_process(&mut mem, &mut backend, 1, MementoRegion::standard())
            .expect("attach");
        let mut sys = MemSystem::new(MemSystemConfig::paper_default(1));
        // Back a multi-page arena fully, then free it: reclamation must
        // push the pool above the tiny high-water mark and spill to the OS.
        let sc = SizeClass::for_size(128).unwrap();
        let a = alloc
            .alloc_arena(&mut mem, &mut sys, &mut backend, 0, &mut proc, sc)
            .expect("arena");
        for page in 1..sc.arena_pages() as u64 {
            alloc
                .demand_walk(
                    &mut mem,
                    &mut sys,
                    &mut backend,
                    0,
                    &mut proc,
                    a.va.add(page * PAGE_SIZE as u64),
                )
                .expect("walk");
        }
        alloc.free_arena(&mut mem, &mut sys, &mut backend, 0, &mut proc, sc, a.va);
        assert!(alloc.stats().pool_overflows > 0, "overflow must trigger");
        assert!(!backend.returned.is_empty(), "surplus reached the OS");
        assert!(alloc.pool_len() <= 4, "pool trimmed to high water");
    }

    #[test]
    fn pool_audit_balances_across_lifecycle() {
        let mut r = rig();
        let sc = SizeClass::for_size(128).unwrap();
        assert!(r.alloc.pool_audit().conserved(), "after attach");
        let a = r
            .alloc
            .alloc_arena(&mut r.mem, &mut r.sys, &mut r.backend, 0, &mut r.proc, sc)
            .expect("arena");
        for page in 1..3u64 {
            r.alloc
                .demand_walk(
                    &mut r.mem,
                    &mut r.sys,
                    &mut r.backend,
                    0,
                    &mut r.proc,
                    a.va.add(page * PAGE_SIZE as u64),
                )
                .expect("walk");
        }
        assert!(r.alloc.pool_audit().conserved(), "after backing");
        r.alloc.free_arena(
            &mut r.mem,
            &mut r.sys,
            &mut r.backend,
            0,
            &mut r.proc,
            sc,
            a.va,
        );
        let audit = r.alloc.pool_audit();
        assert!(audit.conserved(), "after reclamation: {audit:?}");
        // Header + 2 body leaves, plus the page-table frames freed when the
        // arena's subtree emptied.
        assert!(audit.recycled >= 3, "leaves recycled: {audit:?}");
        let proc = r.proc;
        r.alloc.detach_process(&mut r.mem, &mut r.backend, proc);
        let audit = r.alloc.pool_audit();
        assert!(audit.conserved(), "after detach: {audit:?}");
        assert_eq!(audit.mapped, 0, "nothing mapped after detach");
    }

    #[test]
    fn per_core_arenas_do_not_collide() {
        let mut mem = PhysMem::new(1 << 30);
        let ptr_block = mem.alloc_frame().unwrap().base_addr();
        let mut alloc = HardwarePageAllocator::new(
            PageAllocatorConfig::paper_default(),
            MementoCosts::calibrated(),
            ptr_block,
        );
        let mut backend = TestBackend::new();
        let mut proc = alloc
            .attach_process(&mut mem, &mut backend, 4, MementoRegion::standard())
            .expect("attach");
        let mut sys = MemSystem::new(MemSystemConfig::paper_default(4));
        let sc = SizeClass::for_size(8).unwrap();
        let mut seen = std::collections::HashSet::new();
        for core in 0..4usize {
            for _ in 0..5 {
                let a = alloc
                    .alloc_arena(&mut mem, &mut sys, &mut backend, core, &mut proc, sc)
                    .expect("arena");
                assert!(seen.insert(a.va.raw()), "duplicate arena VA across cores");
            }
        }
    }
}
