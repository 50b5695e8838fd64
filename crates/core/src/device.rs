//! The assembled Memento device: per-core HOTs + the shared hardware page
//! allocator, exposing the `obj-alloc` / `obj-free` ISA semantics (paper
//! Fig. 6) and the main-memory bypass check (§3.3).
//!
//! The device is pure hardware state; OS services (frame grants) come in
//! through [`PoolBackend`], and all memory-side work is charged through the
//! cache hierarchy passed into each operation.

use crate::arena::{raw, ArenaHeader};
use crate::costs::MementoCosts;
use crate::hot::{Hot, HotEntry, HotStats};
use crate::page_alloc::{
    HardwarePageAllocator, PageAllocStats, PageAllocatorConfig, PoolAudit, PoolBackend,
    PoolExhausted, ProcessPaging,
};
use crate::region::{MementoRegion, ObjectLocation};
use crate::size_class::SizeClass;
use memento_cache::{AccessKind, MemSystem};
use memento_simcore::addr::{PhysAddr, VirtAddr, CACHE_LINE_SIZE, PAGE_SIZE};
use memento_simcore::cycles::Cycles;
use memento_simcore::hash::BuildIntHasher;
use memento_simcore::physmem::PhysMem;
use memento_vm::tlb::Tlb;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// `prev`-field sentinel marking an arena as *current* (cached in a HOT or
/// saved as a flushed current): such arenas are in no list and must not be
/// reclaimed out from under the table.
const CURRENT_SENTINEL: u64 = u64::MAX;

/// Device configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MementoConfig {
    /// Enable the main-memory bypass mechanism (§3.3).
    pub bypass_enabled: bool,
    /// Hide HOT-miss latency by eagerly replenishing the next arena (the
    /// optional optimization of §3.1); off by default.
    pub eager_replenish: bool,
    /// Page-allocator geometry.
    pub page_alloc: PageAllocatorConfig,
    /// Datapath latencies.
    pub costs: MementoCosts,
}

impl MementoConfig {
    /// Paper defaults (bypass on, eager replenish off).
    pub fn paper_default() -> Self {
        MementoConfig {
            bypass_enabled: true,
            eager_replenish: false,
            page_alloc: PageAllocatorConfig::paper_default(),
            costs: MementoCosts::calibrated(),
        }
    }
}

impl Default for MementoConfig {
    fn default() -> Self {
        MementoConfig::paper_default()
    }
}

/// Errors raised to software as exceptions (paper §4: double frees raise an
/// exception; out-of-range requests are not Memento's to serve).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MementoError {
    /// `obj-free` of an object whose bitmap bit is already clear.
    DoubleFree(VirtAddr),
    /// `obj-free` of an address outside the reserved region (software's
    /// allocator should handle it).
    NotMementoAddress(VirtAddr),
    /// `obj-alloc` of a size above 512 bytes (software path).
    SizeTooLarge(usize),
    /// The page pool ran dry for the requesting core and the OS backend
    /// granted no frames (or every idle frame is earmarked for a sibling).
    PoolExhausted {
        /// Core whose frame request could not be served.
        core: usize,
    },
}

impl fmt::Display for MementoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MementoError::DoubleFree(va) => write!(f, "double free of {va}"),
            MementoError::NotMementoAddress(va) => {
                write!(f, "{va} is outside the Memento region")
            }
            MementoError::SizeTooLarge(s) => write!(f, "size {s} exceeds 512 bytes"),
            MementoError::PoolExhausted { core } => {
                fmt::Display::fmt(&PoolExhausted { core: *core }, f)
            }
        }
    }
}

impl std::error::Error for MementoError {}

impl From<PoolExhausted> for MementoError {
    fn from(e: PoolExhausted) -> Self {
        MementoError::PoolExhausted { core: e.core }
    }
}

/// An arena-lifecycle event the device can log for external auditors (the
/// sanitizer's shadow heap). Logging is off by default and enabled with
/// [`MementoDevice::record_events`]; `obj-alloc`/`obj-free` themselves are
/// observed at the call site, so only events internal to the device — arena
/// handouts and reclamations — need a log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceEvent {
    /// The page allocator handed out a fresh arena and the object
    /// allocator installed it as `core`'s current arena for `class`.
    ArenaInstalled {
        /// Core whose HOT received the arena.
        core: usize,
        /// Size class served.
        class: SizeClass,
        /// Arena base VA.
        va: VirtAddr,
        /// Physical address of the (eagerly backed) header page.
        header_pa: PhysAddr,
    },
    /// An empty arena was unlinked and its pages returned to the pool.
    ArenaReclaimed {
        /// Core that executed the reclaiming `obj-free`.
        core: usize,
        /// Size class of the arena.
        class: SizeClass,
        /// Arena base VA.
        va: VirtAddr,
    },
    /// Cross-core coherence: `requester` needed exclusive access to an
    /// arena header that `owner`'s HOT still cached, so the owner's entry
    /// was written back (if dirty) and evicted — the hardware analogue of
    /// an invalidating coherence snoop on the header line.
    HeaderInvalidated {
        /// Core whose HOT entry was invalidated (the installing core).
        owner: usize,
        /// Core whose request triggered the invalidation.
        requester: usize,
        /// Size class of the arena.
        class: SizeClass,
        /// Arena base VA.
        va: VirtAddr,
        /// Physical address of the header page.
        header_pa: PhysAddr,
    },
    /// The container's Memento state was checkpointed to persistent
    /// memory and sealed under `epoch` (a park-to-PM transition).
    PmParked {
        /// The sealed checkpoint epoch.
        epoch: u64,
        /// Records in the sealed image.
        records: u64,
    },
    /// The container was restored from the sealed PM checkpoint `epoch`
    /// (a restore-from-PM transition).
    PmRestored {
        /// The epoch the restore replayed.
        epoch: u64,
    },
}

/// Saved per-(core, class) state spilled by a HOT flush.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SavedClass {
    /// PA of the flushed current arena header (0 = none).
    header_pa: u64,
    avail_head: u64,
    full_head: u64,
}

/// Per-process Memento state: paging plus spilled HOT state.
#[derive(Debug)]
pub struct MementoProcess {
    /// Paging state (region registers, MPTR table, bump pointers).
    pub paging: ProcessPaging,
    saved: HashMap<(usize, u8), SavedClass, BuildIntHasher>,
}

impl MementoProcess {
    /// The process's reserved region.
    pub fn region(&self) -> MementoRegion {
        self.paging.region
    }
}

/// One live arena in a PM checkpoint capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PmArenaState {
    /// Arena base VA.
    pub va: VirtAddr,
    /// Size class.
    pub class: SizeClass,
    /// Allocation bitmap (the HOT-cached copy for cached arenas).
    pub bitmap: [u64; 4],
    /// Physical address of the header page.
    pub header_pa: PhysAddr,
}

/// One valid HOT entry in a PM checkpoint capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PmHotState {
    /// Core whose HOT caches the entry.
    pub core: usize,
    /// Size class (HOT slot).
    pub class: SizeClass,
    /// Arena base VA the entry caches.
    pub va: VirtAddr,
    /// Cached allocation bitmap (may be dirtier than memory).
    pub bitmap: [u64; 4],
    /// Physical address of the backing header page.
    pub header_pa: PhysAddr,
}

/// The device-visible Memento state of one process, captured for a
/// persistent checkpoint (see [`MementoDevice::pm_state`]). Everything is
/// deterministically ordered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PmState {
    /// Every live arena, ordered by base VA.
    pub arenas: Vec<PmArenaState>,
    /// Nonzero AAC bump pointers as `(core, class, next)`.
    pub bumps: Vec<(usize, SizeClass, u64)>,
    /// Valid HOT entries in the process's region, ordered by (core, class).
    pub hot: Vec<PmHotState>,
    /// Memento page-table mappings of live arena pages as `(va, pa)`.
    pub mappings: Vec<(VirtAddr, PhysAddr)>,
}

/// Result of `obj-alloc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocOutcome {
    /// Virtual address of the allocated object.
    pub addr: VirtAddr,
    /// Cycles in the hardware object allocator.
    pub obj_cycles: Cycles,
    /// Cycles in the hardware page allocator (arena handouts).
    pub page_cycles: Cycles,
    /// Whether the request hit in the HOT.
    pub hot_hit: bool,
}

/// Result of `obj-free`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreeOutcome {
    /// Cycles in the hardware object allocator.
    pub obj_cycles: Cycles,
    /// Cycles in the hardware page allocator (arena reclamation).
    pub page_cycles: Cycles,
    /// Whether the free hit in the HOT.
    pub hot_hit: bool,
}

/// Object-allocator activity counters (drives Fig. 13).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObjStats {
    /// `obj-alloc` operations served.
    pub allocs: u64,
    /// `obj-free` operations served.
    pub frees: u64,
    /// Allocations that performed arena-list surgery.
    pub alloc_list_ops: u64,
    /// Frees that performed arena-list surgery.
    pub free_list_ops: u64,
    /// Arenas initialized (new arenas from the page allocator).
    pub arena_inits: u64,
    /// Lines whose first touch was served by main-memory bypass.
    pub bypass_grants: u64,
}

impl ObjStats {
    /// Counters accumulated since `earlier`.
    pub fn delta(&self, earlier: ObjStats) -> ObjStats {
        ObjStats {
            allocs: self.allocs - earlier.allocs,
            frees: self.frees - earlier.frees,
            alloc_list_ops: self.alloc_list_ops - earlier.alloc_list_ops,
            free_list_ops: self.free_list_ops - earlier.free_list_ops,
            arena_inits: self.arena_inits - earlier.arena_inits,
            bypass_grants: self.bypass_grants - earlier.bypass_grants,
        }
    }
}

/// The Memento device (Fig. 7): per-core object allocators (HOTs) plus the
/// memory-controller page allocator.
pub struct MementoDevice {
    cfg: MementoConfig,
    hots: Vec<Hot>,
    page_alloc: HardwarePageAllocator,
    obj_stats: ObjStats,
    log_events: bool,
    events: Vec<DeviceEvent>,
}

impl MementoDevice {
    /// Builds a device for `cores` cores; `pointer_block` is the reserved
    /// physical scratch backing the AAC.
    pub fn new(cfg: MementoConfig, cores: usize, pointer_block: PhysAddr) -> Self {
        MementoDevice {
            hots: (0..cores).map(|_| Hot::new()).collect(),
            page_alloc: HardwarePageAllocator::new(cfg.page_alloc, cfg.costs, pointer_block),
            cfg,
            obj_stats: ObjStats::default(),
            log_events: false,
            events: Vec::new(),
        }
    }

    /// Turns arena-lifecycle event logging on or off (off by default; the
    /// sanitizer enables it for audited runs). Untimed instrumentation.
    pub fn record_events(&mut self, on: bool) {
        self.log_events = on;
        if !on {
            self.events.clear();
        }
    }

    /// Drains the logged events since the last call.
    pub fn take_events(&mut self) -> Vec<DeviceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Read access to `core`'s HOT (for auditors and tests).
    pub fn hot(&self, core: usize) -> &Hot {
        &self.hots[core]
    }

    /// Mutable access to `core`'s HOT — exists so corruption-injection
    /// tests can verify the sanitizer catches HOT incoherence; simulation
    /// code must go through `obj_alloc`/`obj_free`.
    pub fn hot_mut(&mut self, core: usize) -> &mut Hot {
        &mut self.hots[core]
    }

    /// The configuration in force.
    pub fn config(&self) -> &MementoConfig {
        &self.cfg
    }

    /// Per-core HOT statistics.
    pub fn hot_stats(&self, core: usize) -> HotStats {
        self.hots[core].stats()
    }

    /// HOT statistics merged over all cores.
    pub fn hot_stats_total(&self) -> HotStats {
        let mut total = HotStats::default();
        for hot in &self.hots {
            let s = hot.stats();
            total.alloc.merge(s.alloc);
            total.free.merge(s.free);
            total.flushed_entries += s.flushed_entries;
            total.flushes += s.flushes;
        }
        total
    }

    /// Page-allocator statistics.
    pub fn page_stats(&self) -> PageAllocStats {
        self.page_alloc.stats()
    }

    /// Frames currently idle in the page allocator's pool.
    pub fn pool_len(&self) -> usize {
        self.page_alloc.pool_len()
    }

    /// Physical-page lifecycle audit snapshot (see [`PoolAudit`]).
    pub fn pool_audit(&self) -> PoolAudit {
        self.page_alloc.pool_audit()
    }

    /// Earmarks up to `n` idle pool frames for `core`
    /// (see [`HardwarePageAllocator::reserve_frames`]). Returns the number
    /// actually earmarked.
    pub fn reserve_frames(&mut self, core: usize, n: u64) -> u64 {
        self.page_alloc.reserve_frames(core, n)
    }

    /// Frames currently earmarked for `core`.
    pub fn reserved_frames(&self, core: usize) -> u64 {
        self.page_alloc.reserved_for(core)
    }

    /// Keep-alive park: sheds the pool's idle reserve above `keep` frames
    /// back to the OS (see
    /// [`HardwarePageAllocator::shed_pool`]). Returns frames shed.
    pub fn shed_pool(&mut self, backend: &mut dyn PoolBackend, keep: usize) -> u64 {
        self.page_alloc.shed_pool(backend, keep)
    }

    /// Restarts the mapped-frames peak window at the current level.
    pub fn reset_window(&mut self) {
        self.page_alloc.reset_window();
    }

    /// Peak frames mapped into processes since the last window reset.
    pub fn window_peak_mapped(&self) -> u64 {
        self.page_alloc.window_peak_mapped()
    }

    /// Object-allocator statistics.
    pub fn obj_stats(&self) -> ObjStats {
        self.obj_stats
    }

    /// Attaches a process: reserves its region state and Memento page table.
    ///
    /// # Errors
    ///
    /// [`MementoError::PoolExhausted`] when the page-table root cannot be
    /// backed because the pool is dry and the OS grants nothing.
    pub fn attach_process(
        &mut self,
        mem: &mut PhysMem,
        backend: &mut dyn PoolBackend,
        region: MementoRegion,
    ) -> Result<MementoProcess, MementoError> {
        let cores = self.hots.len();
        Ok(MementoProcess {
            paging: self
                .page_alloc
                .attach_process(mem, backend, cores, region)?,
            saved: HashMap::default(),
        })
    }

    /// Detaches a process, returning every backing frame to the OS — the
    /// hardware side of batch-freeing a function's memory at exit.
    /// `cores` names the cores the process executed on: only their HOTs
    /// are scrubbed (regions are per-address-space, so another process on
    /// another core may legitimately use the same virtual range).
    pub fn detach_process(
        &mut self,
        mem: &mut PhysMem,
        backend: &mut dyn PoolBackend,
        proc: MementoProcess,
        cores: &[usize],
    ) {
        for core in cores {
            let hot = &mut self.hots[*core];
            for sc in SizeClass::all() {
                let e = hot.entry(sc);
                if e.valid && proc.paging.region.contains(e.header.va) {
                    hot.evict(sc);
                }
            }
        }
        self.page_alloc.detach_process(mem, backend, proc.paging);
    }

    // ----- list surgery helpers ------------------------------------------

    /// Reads the (avail, full) heads for (core, class): from the HOT entry
    /// when valid, else from saved state.
    fn heads(&self, core: usize, class: SizeClass, proc: &MementoProcess) -> (u64, u64) {
        let e = self.hots[core].entry(class);
        if e.valid {
            (e.avail_head, e.full_head)
        } else if let Some(s) = proc.saved.get(&(core, class.index() as u8)) {
            (s.avail_head, s.full_head)
        } else {
            (0, 0)
        }
    }

    /// Writes the heads back to wherever they live.
    fn set_heads(
        &mut self,
        core: usize,
        class: SizeClass,
        proc: &mut MementoProcess,
        avail: u64,
        full: u64,
    ) {
        let e = self.hots[core].entry_mut(class);
        if e.valid {
            e.avail_head = avail;
            e.full_head = full;
        } else {
            let s = proc
                .saved
                .entry((core, class.index() as u8))
                .or_insert(SavedClass {
                    header_pa: 0,
                    avail_head: 0,
                    full_head: 0,
                });
            s.avail_head = avail;
            s.full_head = full;
        }
    }

    /// Unlinks the header at `pa` (already loaded as `header`) from the list
    /// whose head is `head`, returning the new head. Issues the neighbour
    /// pointer writes through the hierarchy.
    fn unlink(
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        core: usize,
        header: &ArenaHeader,
        pa: PhysAddr,
        head: u64,
        cycles: &mut Cycles,
    ) -> u64 {
        let mut new_head = head;
        if head == pa.raw() {
            new_head = header.next;
        }
        if header.prev != 0 && header.prev != CURRENT_SENTINEL {
            raw::set_next(mem, PhysAddr::new(header.prev), header.next);
            *cycles += mem_sys
                .access(core, AccessKind::Write, PhysAddr::new(header.prev))
                .cycles;
        }
        if header.next != 0 {
            raw::set_prev(mem, PhysAddr::new(header.next), header.prev);
            *cycles += mem_sys
                .access(core, AccessKind::Write, PhysAddr::new(header.next))
                .cycles;
        }
        new_head
    }

    // ----- obj-alloc ------------------------------------------------------

    /// Executes `obj-alloc size` on `core` for `proc` (paper Fig. 6, steps
    /// 5–9).
    ///
    /// # Errors
    ///
    /// [`MementoError::SizeTooLarge`] for requests above 512 bytes — the
    /// software allocator integration (§4) routes those to `malloc`.
    pub fn obj_alloc(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        backend: &mut dyn PoolBackend,
        core: usize,
        proc: &mut MementoProcess,
        size: usize,
    ) -> Result<AllocOutcome, MementoError> {
        let class = SizeClass::for_size(size).ok_or(MementoError::SizeTooLarge(size))?;
        self.obj_stats.allocs += 1;
        let mut obj_cycles = Cycles::new(self.cfg.costs.hot_access);
        let mut page_cycles = Cycles::ZERO;
        let mut hot_hit = true;

        // Ensure the entry holds *some* current arena.
        if !self.hots[core].entry(class).valid {
            hot_hit = false;
            let saved = proc.saved.remove(&(core, class.index() as u8));
            match saved {
                Some(s) if s.header_pa != 0 => {
                    // Reload the flushed current arena.
                    let pa = PhysAddr::new(s.header_pa);
                    obj_cycles += mem_sys.access(core, AccessKind::Read, pa).cycles;
                    let header = ArenaHeader::load(mem, pa);
                    self.hots[core].install(
                        class,
                        HotEntry {
                            valid: true,
                            header,
                            pa,
                            avail_head: s.avail_head,
                            full_head: s.full_head,
                            dirty: false,
                        },
                    );
                }
                other => {
                    // Initialization (steps 1–4): no current arena yet.
                    let (avail, full) = match other {
                        Some(s) => (s.avail_head, s.full_head),
                        None => (0, 0),
                    };
                    page_cycles += self.install_new_arena(
                        mem,
                        mem_sys,
                        backend,
                        core,
                        proc,
                        class,
                        avail,
                        full,
                        &mut obj_cycles,
                    )?;
                }
            }
        }

        loop {
            let entry = self.hots[core].entry_mut(class);
            if let Some(idx) = entry.header.find_clear() {
                entry.header.set(idx);
                entry.dirty = true;
                let addr = proc.paging.region.object_addr(class, entry.header.va, idx);
                self.hots[core].stats_mut().alloc.record(hot_hit);
                return Ok(AllocOutcome {
                    addr,
                    obj_cycles,
                    page_cycles,
                    hot_hit,
                });
            }

            // Current arena full: HOT miss path (steps 8–9).
            hot_hit = false;
            let mut slow_cycles = Cycles::ZERO;
            let full_entry = *self.hots[core].entry(class);
            // Write the full arena back and push it onto the full list.
            let mut header = full_entry.header;
            header.prev = 0;
            header.next = full_entry.full_head;
            header.store(mem, full_entry.pa);
            slow_cycles += mem_sys
                .access(core, AccessKind::Write, full_entry.pa)
                .cycles;
            if full_entry.full_head != 0 {
                raw::set_prev(
                    mem,
                    PhysAddr::new(full_entry.full_head),
                    full_entry.pa.raw(),
                );
                slow_cycles += mem_sys
                    .access(core, AccessKind::Write, PhysAddr::new(full_entry.full_head))
                    .cycles;
            }
            let new_full_head = full_entry.pa.raw();
            self.obj_stats.alloc_list_ops += 1;

            if full_entry.avail_head != 0 {
                // Load the next available arena as the new current.
                let pa = PhysAddr::new(full_entry.avail_head);
                slow_cycles += mem_sys.access(core, AccessKind::Read, pa).cycles;
                let mut next_header = ArenaHeader::load(mem, pa);
                let new_avail_head = next_header.next;
                if next_header.next != 0 {
                    raw::set_prev(mem, PhysAddr::new(next_header.next), 0);
                    slow_cycles += mem_sys
                        .access(core, AccessKind::Write, PhysAddr::new(next_header.next))
                        .cycles;
                }
                next_header.prev = CURRENT_SENTINEL;
                next_header.next = 0;
                self.hots[core].install(
                    class,
                    HotEntry {
                        valid: true,
                        header: next_header,
                        pa,
                        avail_head: new_avail_head,
                        full_head: new_full_head,
                        dirty: true,
                    },
                );
                if !self.cfg.eager_replenish {
                    obj_cycles += slow_cycles;
                }
            } else {
                // No valid arena anywhere: allocate a new one (step 9).
                if !self.cfg.eager_replenish {
                    obj_cycles += slow_cycles;
                }
                page_cycles += self.install_new_arena(
                    mem,
                    mem_sys,
                    backend,
                    core,
                    proc,
                    class,
                    0,
                    new_full_head,
                    &mut obj_cycles,
                )?;
            }
        }
    }

    /// Requests a new arena from the page allocator and installs it as the
    /// current HOT entry with the given list heads. Returns the page-side
    /// cycles and adds header-init cost to `obj_cycles`.
    #[expect(
        clippy::too_many_arguments,
        reason = "each machine part is a separate borrow of the caller's state"
    )]
    fn install_new_arena(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        backend: &mut dyn PoolBackend,
        core: usize,
        proc: &mut MementoProcess,
        class: SizeClass,
        avail_head: u64,
        full_head: u64,
        obj_cycles: &mut Cycles,
    ) -> Result<Cycles, MementoError> {
        let arena =
            self.page_alloc
                .alloc_arena(mem, mem_sys, backend, core, &mut proc.paging, class)?;
        let mut header = ArenaHeader::fresh(arena.va);
        header.prev = CURRENT_SENTINEL;
        header.store(mem, arena.header_pa);
        // "Set Arena Header" (init step 3): one line write.
        *obj_cycles += mem_sys
            .access(core, AccessKind::Write, arena.header_pa)
            .cycles;
        self.hots[core].install(
            class,
            HotEntry {
                valid: true,
                header,
                pa: arena.header_pa,
                avail_head,
                full_head,
                dirty: true,
            },
        );
        self.obj_stats.arena_inits += 1;
        if self.log_events {
            self.events.push(DeviceEvent::ArenaInstalled {
                core,
                class,
                va: arena.va,
                header_pa: arena.header_pa,
            });
        }
        Ok(arena.cycles)
    }

    /// Cache-coherence supply for an arena header (paper §4): before a
    /// core reads a header from memory, any *other* core whose HOT holds
    /// that header in the dirty state must supply it — modeled as a
    /// write-back plus invalidation of the owning entry, with the owner's
    /// current-arena PA and list heads spilled so its next access reloads
    /// cleanly.
    fn coherence_sync(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        requester: usize,
        pa: PhysAddr,
        proc: &mut MementoProcess,
    ) -> Cycles {
        let mut cycles = Cycles::ZERO;
        for core in 0..self.hots.len() {
            if core == requester {
                continue;
            }
            for sc in SizeClass::all() {
                let e = self.hots[core].entry(sc);
                if e.valid && e.pa == pa && proc.paging.region.contains(e.header.va) {
                    let entry = *e;
                    if entry.dirty {
                        entry.header.store(mem, entry.pa);
                        cycles += mem_sys
                            .access(requester, AccessKind::Write, entry.pa)
                            .cycles;
                    }
                    proc.saved.insert(
                        (core, sc.index() as u8),
                        SavedClass {
                            header_pa: entry.pa.raw(),
                            avail_head: entry.avail_head,
                            full_head: entry.full_head,
                        },
                    );
                    self.hots[core].evict(sc);
                    if self.log_events {
                        self.events.push(DeviceEvent::HeaderInvalidated {
                            owner: core,
                            requester,
                            class: sc,
                            va: entry.header.va,
                            header_pa: entry.pa,
                        });
                    }
                }
            }
        }
        cycles
    }

    // ----- obj-free -------------------------------------------------------

    /// Executes `obj-free va` on `core` (paper Fig. 6, steps 10–13).
    ///
    /// # Errors
    ///
    /// [`MementoError::NotMementoAddress`] when `va` lies outside the
    /// region (software free) and [`MementoError::DoubleFree`] when the
    /// object's bitmap bit is already clear (raised to software as an
    /// exception, §4).
    #[expect(
        clippy::too_many_arguments,
        reason = "each machine part is a separate borrow of the caller's state"
    )]
    pub fn obj_free(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        backend: &mut dyn PoolBackend,
        tlbs: &mut [Tlb],
        core: usize,
        proc: &mut MementoProcess,
        va: VirtAddr,
    ) -> Result<FreeOutcome, MementoError> {
        let loc = proc
            .paging
            .region
            .locate(va)
            .ok_or(MementoError::NotMementoAddress(va))?;
        self.obj_stats.frees += 1;
        let mut obj_cycles = Cycles::new(self.cfg.costs.hot_access);
        let mut page_cycles = Cycles::ZERO;

        // HOT hit: the arena is the cached current for its class (step 12).
        let entry = self.hots[core].entry_mut(loc.class);
        if entry.valid && entry.header.va == loc.arena_base {
            if !entry.header.is_set(loc.object_index) {
                return Err(MementoError::DoubleFree(va));
            }
            entry.header.clear(loc.object_index);
            entry.dirty = true;
            Self::maybe_decrement_bypass(&mut entry.header, loc.class, loc.object_index);
            self.hots[core].stats_mut().free.hit();
            return Ok(FreeOutcome {
                obj_cycles,
                page_cycles,
                hot_hit: true,
            });
        }
        self.hots[core].stats_mut().free.miss();

        // Miss (step 13): translate the arena base, fetch the header.
        let lookup = tlbs[core].lookup(loc.arena_base);
        obj_cycles += lookup.cycles;
        let header_pa = match lookup.frame {
            Some(f) => f.base_addr(),
            None => {
                let walk = self.page_alloc.demand_walk(
                    mem,
                    mem_sys,
                    backend,
                    core,
                    &mut proc.paging,
                    loc.arena_base,
                )?;
                page_cycles += walk.cycles;
                tlbs[core].insert(loc.arena_base, walk.frame);
                walk.frame.base_addr()
            }
        };
        // Coherence: another core's HOT may own this header dirty.
        obj_cycles += self.coherence_sync(mem, mem_sys, core, header_pa, proc);
        obj_cycles += mem_sys.access(core, AccessKind::Read, header_pa).cycles;
        let mut header = ArenaHeader::load(mem, header_pa);
        if !header.is_set(loc.object_index) {
            return Err(MementoError::DoubleFree(va));
        }
        let was_full = header.is_full();
        header.clear(loc.object_index);
        Self::maybe_decrement_bypass(&mut header, loc.class, loc.object_index);

        let (mut avail_head, mut full_head) = self.heads(core, loc.class, proc);
        if was_full {
            // Move from the full list to the head of the available list.
            full_head = Self::unlink(
                mem,
                mem_sys,
                core,
                &header,
                header_pa,
                full_head,
                &mut obj_cycles,
            );
            header.prev = 0;
            header.next = avail_head;
            if avail_head != 0 {
                raw::set_prev(mem, PhysAddr::new(avail_head), header_pa.raw());
                obj_cycles += mem_sys
                    .access(core, AccessKind::Write, PhysAddr::new(avail_head))
                    .cycles;
            }
            avail_head = header_pa.raw();
            self.obj_stats.free_list_ops += 1;
            self.set_heads(core, loc.class, proc, avail_head, full_head);
        }

        let now_empty = header.is_empty();
        if now_empty && header.prev != CURRENT_SENTINEL {
            // Reclaim the arena (workflow step 7): unlink from the
            // available list and return its pages to the pool.
            avail_head = Self::unlink(
                mem,
                mem_sys,
                core,
                &header,
                header_pa,
                avail_head,
                &mut obj_cycles,
            );
            self.obj_stats.free_list_ops += 1;
            self.set_heads(core, loc.class, proc, avail_head, full_head);
            let freed = self.page_alloc.free_arena(
                mem,
                mem_sys,
                backend,
                core,
                &mut proc.paging,
                loc.class,
                loc.arena_base,
            );
            page_cycles += freed.cycles;
            for (target, tlb) in tlbs.iter_mut().enumerate() {
                if freed.shootdown_cores & (1 << target) != 0 {
                    for page in &freed.unmapped_pages {
                        tlb.shootdown(*page);
                    }
                }
            }
            if self.log_events {
                self.events.push(DeviceEvent::ArenaReclaimed {
                    core,
                    class: loc.class,
                    va: loc.arena_base,
                });
            }
        } else {
            header.store(mem, header_pa);
            obj_cycles += mem_sys.access(core, AccessKind::Write, header_pa).cycles;
        }

        Ok(FreeOutcome {
            obj_cycles,
            page_cycles,
            hot_hit: false,
        })
    }

    /// The paper's bypass-counter decrement: if the freed object's lines
    /// sit exactly at the high-water mark (and start line-aligned), roll
    /// the counter back.
    fn maybe_decrement_bypass(header: &mut ArenaHeader, class: SizeClass, index: usize) {
        let size = class.object_size();
        let off = index * size;
        let first_line = (off / CACHE_LINE_SIZE) as u64;
        let last_line = ((off + size - 1) / CACHE_LINE_SIZE) as u64;
        if off.is_multiple_of(CACHE_LINE_SIZE) && last_line + 1 == header.bypass_counter {
            header.bypass_counter = first_line;
        }
    }

    // ----- bypass + translation -----------------------------------------

    /// Main-memory-bypass check for a demand access to `va` (§3.3): returns
    /// true when the line has provably never been touched, updating the
    /// arena's bypass counter. Only consults the HOT — cold arenas are not
    /// fetched just to answer this.
    pub fn bypass_check(&mut self, core: usize, proc: &MementoProcess, va: VirtAddr) -> bool {
        match proc.paging.region.locate(va) {
            Some(loc) => self.bypass_check_at(core, loc, va),
            None => false,
        }
    }

    /// [`Self::bypass_check`] with `va` already located: `loc` must be
    /// where the region places `va` (its class and arena; the object index
    /// is not read). A caller touching many lines of one object locates
    /// once, since every line of an object shares its class and arena.
    pub fn bypass_check_at(&mut self, core: usize, loc: ObjectLocation, va: VirtAddr) -> bool {
        if !self.cfg.bypass_enabled {
            return false;
        }
        let entry = self.hots[core].entry_mut(loc.class);
        if !entry.valid || entry.header.va != loc.arena_base {
            return false;
        }
        let body_off = va.offset_from(loc.arena_base) - PAGE_SIZE as u64;
        let line_idx = body_off / CACHE_LINE_SIZE as u64;
        if line_idx >= entry.header.bypass_counter {
            entry.header.bypass_counter = line_idx + 1;
            entry.dirty = true;
            self.obj_stats.bypass_grants += 1;
            true
        } else {
            false
        }
    }

    /// Serves a TLB miss for a Memento-region address: the marked page walk
    /// that populates the Memento page table on demand. Returns the backing
    /// frame and charged cycles.
    ///
    /// # Errors
    ///
    /// [`MementoError::PoolExhausted`] when a fresh page must be backed but
    /// the pool is dry and the OS grants nothing.
    pub fn translate_miss(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        backend: &mut dyn PoolBackend,
        core: usize,
        proc: &mut MementoProcess,
        va: VirtAddr,
    ) -> Result<(memento_simcore::physmem::Frame, Cycles), MementoError> {
        let walk =
            self.page_alloc
                .demand_walk(mem, mem_sys, backend, core, &mut proc.paging, va)?;
        Ok((walk.frame, walk.cycles))
    }

    /// Scans every arena reachable from `core`'s HOT (current entries plus
    /// the available and full lists) and returns `(live_bytes,
    /// backed_bytes)`: bytes held by live small objects versus physical
    /// bytes actually backing arena body pages. This is the §6.6
    /// fragmentation measurement — body pages are demand-backed, so unused
    /// slots in never-touched pages cost nothing. Untimed instrumentation.
    pub fn scan_occupancy(&self, mem: &PhysMem, core: usize, proc: &MementoProcess) -> (u64, u64) {
        fn measure(
            header: &ArenaHeader,
            class: SizeClass,
            mem: &PhysMem,
            proc: &MementoProcess,
        ) -> (u64, u64) {
            let live = header.live_objects() as u64 * class.object_size() as u64;
            let mut backed = 0u64;
            // Body pages only: the header page is metadata, not payload.
            for page in 1..class.arena_pages() as u64 {
                let va = header.va.add(page * PAGE_SIZE as u64);
                if proc.paging.page_table.translate(mem, va).is_some() {
                    backed += PAGE_SIZE as u64;
                }
            }
            (live, backed)
        }
        fn visit(pa: u64, class: SizeClass, mem: &PhysMem, proc: &MementoProcess) -> (u64, u64) {
            let (mut live, mut backed) = (0u64, 0u64);
            let mut at = pa;
            let mut guard = 0;
            while at != 0 && at != CURRENT_SENTINEL && guard < 1_000_000 {
                let h = ArenaHeader::load(mem, PhysAddr::new(at));
                let (l, b) = measure(&h, class, mem, proc);
                live += l;
                backed += b;
                at = h.next;
                guard += 1;
            }
            (live, backed)
        }
        let mut live = 0u64;
        let mut backed = 0u64;
        for sc in SizeClass::all() {
            let e = self.hots[core].entry(sc);
            let (avail, full) = if e.valid {
                let (l, b) = measure(&e.header, sc, mem, proc);
                live += l;
                backed += b;
                (e.avail_head, e.full_head)
            } else if let Some(s) = proc.saved.get(&(core, sc.index() as u8)) {
                if s.header_pa != 0 {
                    let h = ArenaHeader::load(mem, PhysAddr::new(s.header_pa));
                    let (l, b) = measure(&h, sc, mem, proc);
                    live += l;
                    backed += b;
                }
                (s.avail_head, s.full_head)
            } else {
                (0, 0)
            };
            let (l1, b1) = visit(avail, sc, mem, proc);
            let (l2, b2) = visit(full, sc, mem, proc);
            live += l1 + l2;
            backed += b1 + b2;
        }
        (live, backed)
    }

    // ----- persistent-memory checkpoints ---------------------------------

    /// Logs a park-to-PM transition (checkpoint sealed under `epoch`) for
    /// external auditors. Untimed, event-log-gated like every device event.
    pub fn note_pm_parked(&mut self, epoch: u64, records: u64) {
        if self.log_events {
            self.events.push(DeviceEvent::PmParked { epoch, records });
        }
    }

    /// Logs a restore-from-PM transition (image of `epoch` replayed).
    pub fn note_pm_restored(&mut self, epoch: u64) {
        if self.log_events {
            self.events.push(DeviceEvent::PmRestored { epoch });
        }
    }

    /// Captures the device-visible Memento state of `proc` for a
    /// persistent checkpoint: every live arena (current, available, and
    /// full lists of every core and class — HOT-cached headers taken from
    /// the cache, which may be dirtier than memory), the AAC bump
    /// pointers, the valid HOT entries, and the Memento page-table
    /// mappings of every live arena page. Deterministically ordered;
    /// untimed instrumentation (the persist cost is charged by the
    /// persistence layer, not here).
    pub fn pm_state(&self, mem: &PhysMem, proc: &MementoProcess) -> PmState {
        let cores = self.hots.len();
        // Live arenas keyed by VA: cached current arenas may also need
        // their in-memory twins skipped, so collect into a map first.
        let mut arenas: BTreeMap<u64, PmArenaState> = BTreeMap::new();
        let mut insert = |header: &ArenaHeader, class: SizeClass, pa: PhysAddr| {
            arenas.insert(
                header.va.raw(),
                PmArenaState {
                    va: header.va,
                    class,
                    bitmap: header.bitmap,
                    header_pa: pa,
                },
            );
        };
        let walk = |head: u64,
                    class: SizeClass,
                    insert: &mut dyn FnMut(&ArenaHeader, SizeClass, PhysAddr)| {
            let mut at = head;
            let mut guard = 0;
            while at != 0 && at != CURRENT_SENTINEL && guard < 1_000_000 {
                let h = ArenaHeader::load(mem, PhysAddr::new(at));
                let next = h.next;
                insert(&h, class, PhysAddr::new(at));
                at = next;
                guard += 1;
            }
        };
        let mut hot = Vec::new();
        for core in 0..cores {
            for sc in SizeClass::all() {
                let e = self.hots[core].entry(sc);
                let (avail, full) = if e.valid && proc.paging.region.contains(e.header.va) {
                    insert(&e.header, sc, e.pa);
                    hot.push(PmHotState {
                        core,
                        class: sc,
                        va: e.header.va,
                        bitmap: e.header.bitmap,
                        header_pa: e.pa,
                    });
                    (e.avail_head, e.full_head)
                } else if let Some(s) = proc.saved.get(&(core, sc.index() as u8)) {
                    if s.header_pa != 0 {
                        let h = ArenaHeader::load(mem, PhysAddr::new(s.header_pa));
                        insert(&h, sc, PhysAddr::new(s.header_pa));
                    }
                    (s.avail_head, s.full_head)
                } else {
                    (0, 0)
                };
                walk(avail, sc, &mut insert);
                walk(full, sc, &mut insert);
            }
        }
        let mut bumps = Vec::new();
        for core in 0..cores {
            for sc in SizeClass::all() {
                let next = proc.paging.bump_for(core, sc);
                if next != 0 {
                    bumps.push((core, sc, next));
                }
            }
        }
        // The page-table mappings backing every live arena page (the
        // working set a demand-refaulting restore would fault back in).
        let mut mappings = Vec::new();
        for state in arenas.values() {
            for page in 0..state.class.arena_pages() as u64 {
                let va = state.va.add(page * PAGE_SIZE as u64);
                if let Some(t) = proc.paging.page_table.translate(mem, va) {
                    mappings.push((va, t.frame.base_addr()));
                }
            }
        }
        PmState {
            arenas: arenas.into_values().collect(),
            bumps,
            hot,
            mappings,
        }
    }

    // ----- context switches ----------------------------------------------

    /// Flushes `core`'s HOT for a context switch (§4 multi-core support):
    /// dirty headers are written back, current-arena PAs and list heads are
    /// spilled to the per-process saved state.
    pub fn flush_hot(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        core: usize,
        proc: &mut MementoProcess,
    ) -> Cycles {
        let mut cycles = Cycles::ZERO;
        let drained = self.hots[core].drain_for_flush();
        for (class, entry) in drained {
            // Only spill entries belonging to this process's region.
            if !proc.paging.region.contains(entry.header.va) {
                continue;
            }
            if entry.dirty {
                entry.header.store(mem, entry.pa);
                cycles += mem_sys.access(core, AccessKind::Write, entry.pa).cycles;
            }
            cycles += Cycles::new(self.cfg.costs.hot_access);
            proc.saved.insert(
                (core, class.index() as u8),
                SavedClass {
                    header_pa: entry.pa.raw(),
                    avail_head: entry.avail_head,
                    full_head: entry.full_head,
                },
            );
        }
        cycles
    }

    // ----- invocation boundaries ------------------------------------------

    /// Invocation-boundary quiesce (§6.3 warm containers): reclaims every
    /// *current* arena whose objects have all died. Non-current arenas are
    /// reclaimed online by `obj-free` the moment they empty; the per-class
    /// current arena is exempt (the AAC bump pointer targets it), so after
    /// the runtime frees a request's remaining objects the currents are the
    /// only empty arenas still pinning pages. Dropping them here returns
    /// their frames to the pool, where the next warm invocation draws them
    /// as recycled grants instead of fresh OS demand.
    pub fn end_invocation_trim(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        backend: &mut dyn PoolBackend,
        tlbs: &mut [Tlb],
        core: usize,
        proc: &mut MementoProcess,
    ) -> Cycles {
        let mut cycles = Cycles::ZERO;
        for hot_core in 0..self.hots.len() {
            for class in SizeClass::all() {
                let entry = self.hots[hot_core].entry(class);
                let in_hot = entry.valid && proc.paging.region.contains(entry.header.va);
                let va = if in_hot {
                    cycles += Cycles::new(self.cfg.costs.hot_access);
                    if !entry.header.is_empty() {
                        continue;
                    }
                    entry.header.va
                } else if let Some(s) = proc.saved.get(&(hot_core, class.index() as u8)) {
                    if s.header_pa == 0 {
                        continue;
                    }
                    let pa = PhysAddr::new(s.header_pa);
                    cycles += mem_sys.access(core, AccessKind::Read, pa).cycles;
                    let header = ArenaHeader::load(mem, pa);
                    if !header.is_empty() {
                        continue;
                    }
                    header.va
                } else {
                    continue;
                };
                if in_hot {
                    // The current arena sits in no list; preserve the list
                    // heads before dropping the entry.
                    let e = self.hots[hot_core].entry(class);
                    let (avail, full) = (e.avail_head, e.full_head);
                    self.hots[hot_core].evict(class);
                    proc.saved.insert(
                        (hot_core, class.index() as u8),
                        SavedClass {
                            header_pa: 0,
                            avail_head: avail,
                            full_head: full,
                        },
                    );
                } else if let Some(s) = proc.saved.get_mut(&(hot_core, class.index() as u8)) {
                    s.header_pa = 0;
                }
                let freed = self.page_alloc.free_arena(
                    mem,
                    mem_sys,
                    backend,
                    core,
                    &mut proc.paging,
                    class,
                    va,
                );
                cycles += freed.cycles;
                for (target, tlb) in tlbs.iter_mut().enumerate() {
                    if freed.shootdown_cores & (1 << target) != 0 {
                        for page in &freed.unmapped_pages {
                            tlb.shootdown(*page);
                        }
                    }
                }
                if self.log_events {
                    self.events.push(DeviceEvent::ArenaReclaimed {
                        core: hot_core,
                        class,
                        va,
                    });
                }
            }
        }
        cycles
    }
}

impl fmt::Debug for MementoDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MementoDevice")
            .field("cores", &self.hots.len())
            .field("obj_stats", &self.obj_stats)
            .field("page_stats", &self.page_alloc.stats())
            .finish()
    }
}
