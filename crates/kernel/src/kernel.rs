//! The kernel proper: processes, syscalls, the page-fault handler.
//!
//! Timing contract: every operation returns the [`Cycles`] it spent; callers
//! charge them to
//! [`CycleBucket::KernelMm`](memento_simcore::CycleBucket::KernelMm) (or
//! `Setup` for platform bring-up). Page-table writes and kernel-metadata
//! touches issue real cache accesses, so kernel work also produces memory
//! traffic that Memento's hardware page allocator later removes.

use crate::buddy::{BuddyAllocator, FrameStats, FrameUse, OutOfFrames};
use crate::costs::KernelCosts;
use crate::vma::{AddressSpace, VmaError};
use memento_cache::{AccessKind, MemSystem};
use memento_obs::Log2Hist;
use memento_simcore::addr::{PhysAddr, VirtAddr, CACHE_LINE_SIZE, PAGE_SIZE};
use memento_simcore::cycles::Cycles;
use memento_simcore::physmem::{Frame, PhysMem};
use memento_vm::pagetable::{PageTable, PtePerms};
use memento_vm::tlb::Tlb;
use std::fmt;

/// A process identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub u32);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A simulated process.
#[derive(Debug)]
pub struct Process {
    /// Its identifier.
    pub pid: ProcessId,
    /// Its address space (VMAs + regular page table).
    pub addr_space: AddressSpace,
}

/// `mmap` flags relevant to the model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MmapFlags {
    /// `MAP_POPULATE`: eagerly back every page (§6.6 sensitivity study).
    pub populate: bool,
}

/// Kernel activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// mmap syscalls served.
    pub mmaps: u64,
    /// munmap syscalls served.
    pub munmaps: u64,
    /// Page faults handled.
    pub page_faults: u64,
    /// Pages eagerly populated by `MAP_POPULATE`.
    pub populated_pages: u64,
    /// `madvise(MADV_FREE)` syscalls served.
    pub madvises: u64,
    /// Lazily-freed pages the host's background reclaim actually took.
    pub lazy_reclaimed_pages: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Frames handed to the Memento hardware page pool.
    pub pool_frames_granted: u64,
    /// Frames the Memento pool handed back (overflow return / detach).
    pub pool_frames_returned: u64,
}

impl KernelStats {
    /// Counters accumulated since `earlier`.
    pub fn delta(&self, earlier: KernelStats) -> KernelStats {
        KernelStats {
            mmaps: self.mmaps - earlier.mmaps,
            munmaps: self.munmaps - earlier.munmaps,
            page_faults: self.page_faults - earlier.page_faults,
            populated_pages: self.populated_pages - earlier.populated_pages,
            madvises: self.madvises - earlier.madvises,
            lazy_reclaimed_pages: self.lazy_reclaimed_pages - earlier.lazy_reclaimed_pages,
            context_switches: self.context_switches - earlier.context_switches,
            pool_frames_granted: self.pool_frames_granted - earlier.pool_frames_granted,
            pool_frames_returned: self.pool_frames_returned - earlier.pool_frames_returned,
        }
    }
}

/// Errors surfaced to the simulated application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// Access to an unmapped address with no covering VMA.
    Segfault(VirtAddr),
    /// Physical memory exhausted.
    OutOfMemory,
    /// Bad munmap range.
    BadMunmap,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Segfault(va) => write!(f, "segmentation fault at {va}"),
            KernelError::OutOfMemory => f.write_str("out of physical memory"),
            KernelError::BadMunmap => f.write_str("munmap range does not match a mapping"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<OutOfFrames> for KernelError {
    fn from(_: OutOfFrames) -> Self {
        KernelError::OutOfMemory
    }
}

impl From<VmaError> for KernelError {
    fn from(_: VmaError) -> Self {
        KernelError::BadMunmap
    }
}

/// Outcome of an `mmap` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmapOutcome {
    /// Start of the new mapping.
    pub addr: VirtAddr,
    /// Cycles spent in the kernel.
    pub cycles: Cycles,
}

/// Outcome of a `munmap` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MunmapOutcome {
    /// Cycles spent in the kernel.
    pub cycles: Cycles,
    /// Pages that had physical backing and were released.
    pub released_pages: u64,
}

/// Outcome of a `madvise(MADV_FREE)` call (with background reclaim).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MadviseOutcome {
    /// Cycles spent in the kernel.
    pub cycles: Cycles,
    /// Resident pages marked lazily freeable.
    pub marked_pages: u64,
    /// Marked pages the host's reclaim actually took (these demand-fault
    /// on the next touch).
    pub reclaimed_pages: u64,
}

/// Outcome of a handled page fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The freshly mapped frame.
    pub frame: Frame,
    /// Cycles spent in the handler (including buddy and PTE work).
    pub cycles: Cycles,
}

/// The kernel model.
pub struct Kernel {
    /// The physical page allocator.
    pub buddy: BuddyAllocator,
    costs: KernelCosts,
    stats: KernelStats,
    next_pid: u32,
    kmeta_base: PhysAddr,
    kmeta_lines: u64,
    kmeta_cursor: u64,
    /// VMA-metadata slab accounting: one KernelMeta frame per
    /// `VMAS_PER_SLAB` mappings (vm_area_structs, rmap, accounting).
    vma_slab_objects: u64,
    /// Frames the Memento pool returned and the kernel may re-grant
    /// without counting them as fresh aggregate demand (warm reuse).
    pool_return_credit: u64,
    fault_lat: Log2Hist,
}

impl Kernel {
    /// Number of boot frames reserved for kernel metadata scratch.
    const KMETA_FRAMES: u64 = 32;

    /// Boots a kernel over the remaining physical memory of `mem` (above
    /// the boot watermark) with the given cost model.
    ///
    /// # Panics
    ///
    /// Panics if `mem` is too small to hold kernel metadata plus a managed
    /// frame range.
    pub fn boot(mem: &mut PhysMem, costs: KernelCosts) -> Self {
        let kmeta = mem
            .alloc_frames(Self::KMETA_FRAMES)
            .expect("boot memory for kernel metadata");
        let start = Frame::from_number(mem.boot_watermark());
        let end = Frame::from_number(mem.total_frames());
        Kernel {
            buddy: BuddyAllocator::new(start, end),
            costs,
            stats: KernelStats::default(),
            next_pid: 1,
            kmeta_base: kmeta.base_addr(),
            kmeta_lines: Self::KMETA_FRAMES * (PAGE_SIZE / CACHE_LINE_SIZE) as u64,
            kmeta_cursor: 0,
            vma_slab_objects: 0,
            pool_return_credit: 0,
            fault_lat: Log2Hist::default(),
        }
    }

    /// Distribution of page-fault handler latencies (cycles per fault).
    pub fn fault_latency(&self) -> &Log2Hist {
        &self.fault_lat
    }

    /// vm_area_structs (and companion rmap/accounting objects) per slab
    /// page of kernel metadata.
    const VMAS_PER_SLAB: u64 = 8;

    /// The cost model in force.
    pub fn costs(&self) -> &KernelCosts {
        &self.costs
    }

    /// Kernel activity counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Frame accounting (drives Fig. 11).
    pub fn frame_stats(&self) -> &FrameStats {
        self.buddy.stats()
    }

    /// Restarts the resident-peak window at the current level (see
    /// [`FrameStats::window_peak_nonpool`]).
    pub fn reset_frame_window(&mut self) {
        self.buddy.stats_mut().reset_window_peak();
    }

    /// Creates a process with an empty address space; the page-table root
    /// comes from the buddy allocator (boot memory is already owned by it).
    ///
    /// # Panics
    ///
    /// Panics when physical memory is exhausted.
    pub fn create_process(&mut self, mem: &mut PhysMem) -> Process {
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        let root = self
            .buddy
            .alloc(FrameUse::PageTable)
            .expect("frame for page-table root");
        mem.zero_frame(root);
        Process {
            pid,
            addr_space: AddressSpace::with_page_table(memento_vm::pagetable::PageTable::with_root(
                root,
            )),
        }
    }

    /// Touches `n` kernel-metadata cache lines (task structs, VMA slabs,
    /// accounting), modeling the kernel's data working set.
    fn touch_kmeta(&mut self, mem_sys: &mut MemSystem, core: usize, n: u64) -> Cycles {
        let mut cycles = Cycles::ZERO;
        for _ in 0..n {
            let line = self.kmeta_cursor % self.kmeta_lines;
            self.kmeta_cursor += 1;
            let addr = self.kmeta_base.add(line * CACHE_LINE_SIZE as u64);
            cycles += mem_sys.access(core, AccessKind::Write, addr).cycles;
        }
        cycles
    }

    /// Clears the PTE for `va` with one table walk, returns its frame and
    /// any emptied table pages to the buddy allocator, and shoots the page
    /// out of the TLB. `None` (nothing charged) when `va` is not mapped.
    fn reclaim_page(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        tlb: &mut Tlb,
        core: usize,
        page_table: &mut PageTable,
        va: VirtAddr,
    ) -> Option<Cycles> {
        let res = page_table.unmap(mem, va);
        let leaf = res.leaf?;
        let mut cycles = Cycles::new(self.costs.munmap_per_page + self.costs.buddy_free);
        cycles += mem_sys
            .access(core, AccessKind::Write, leaf.pte_addr)
            .cycles;
        mem.release_frame(leaf.frame);
        self.buddy.free(leaf.frame, FrameUse::UserHeap);
        for table in res.freed_tables {
            self.buddy.free(table, FrameUse::PageTable);
            cycles += Cycles::new(self.costs.buddy_free);
        }
        tlb.shootdown(va);
        Some(cycles)
    }

    fn map_page(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        core: usize,
        proc: &mut Process,
        va: VirtAddr,
        frame: Frame,
    ) -> Result<Cycles, KernelError> {
        let before_tables = proc.addr_space.page_table.table_pages();
        let buddy = &mut self.buddy;
        proc.addr_space
            .page_table
            .map(mem, va, frame, PtePerms::rw(), &mut |_m| {
                buddy.alloc(FrameUse::PageTable).ok()
            })
            .map_err(|_| KernelError::OutOfMemory)?;
        let created = proc.addr_space.page_table.table_pages() - before_tables;
        // Charge one PTE write per created table entry plus the leaf write.
        let mut cycles = Cycles::new(created * self.costs.buddy_alloc);
        for level in (0..=created.min(3) as u8).rev() {
            if let Some(entry) = proc.addr_space.page_table.entry_addr(mem, va, level) {
                cycles += mem_sys.access(core, AccessKind::Write, entry).cycles;
            }
        }
        Ok(cycles)
    }

    /// Serves `mmap(len, flags)`: reserves a VA range lazily; with
    /// `MAP_POPULATE` also backs every page immediately.
    ///
    /// # Errors
    ///
    /// [`KernelError::OutOfMemory`] when populate cannot back the range.
    #[expect(
        clippy::too_many_arguments,
        reason = "each machine part is a separate borrow of the caller's state"
    )]
    pub fn mmap(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        tlb: &mut Tlb,
        core: usize,
        proc: &mut Process,
        len: u64,
        flags: MmapFlags,
    ) -> Result<MmapOutcome, KernelError> {
        self.stats.mmaps += 1;
        // Every mapping consumes slab-allocated kernel metadata; a fresh
        // slab page is taken from the buddy when the previous one fills.
        // This is the "kernel metadata needed to manage memory regions"
        // that dominates the paper's Fig. 11 kernel bars.
        if self.vma_slab_objects.is_multiple_of(Self::VMAS_PER_SLAB) {
            let _ = self.buddy.alloc(FrameUse::KernelMeta);
        }
        self.vma_slab_objects += 1;
        let mut cycles = Cycles::new(self.costs.syscall_overhead + self.costs.mmap_work);
        cycles += self.touch_kmeta(mem_sys, core, 6);
        let vma = proc.addr_space.reserve(len, flags.populate);
        if flags.populate {
            let mut va = vma.start;
            while va < vma.end {
                let frame = self.buddy.alloc(FrameUse::UserHeap)?;
                cycles += Cycles::new(self.costs.buddy_alloc + self.costs.populate_per_page);
                cycles += self.map_page(mem, mem_sys, core, proc, va, frame)?;
                tlb.insert(va, frame);
                self.stats.populated_pages += 1;
                va = va.add(PAGE_SIZE as u64);
            }
        }
        Ok(MmapOutcome {
            addr: vma.start,
            cycles,
        })
    }

    /// Serves `munmap(addr, len)`: removes the VMA, clears PTEs, returns
    /// frames and empty table pages to the buddy allocator, and shoots the
    /// pages out of the TLB.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadMunmap`] if the range is not an exact prior mapping.
    #[expect(
        clippy::too_many_arguments,
        reason = "each machine part is a separate borrow of the caller's state"
    )]
    pub fn munmap(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        tlb: &mut Tlb,
        core: usize,
        proc: &mut Process,
        addr: VirtAddr,
        len: u64,
    ) -> Result<MunmapOutcome, KernelError> {
        self.stats.munmaps += 1;
        // Linux semantics: the range may be a whole mapping, a prefix or
        // suffix (the VMA shrinks), or an interior window (the VMA splits).
        let vma = proc.addr_space.remove_range(addr, len)?;
        let mut cycles = Cycles::new(self.costs.syscall_overhead + self.costs.munmap_work);
        cycles += self.touch_kmeta(mem_sys, core, 6);
        let mut released = 0;
        let mut va = vma.start;
        while va < vma.end {
            let table = &mut proc.addr_space.page_table;
            if let Some(c) = self.reclaim_page(mem, mem_sys, tlb, core, table, va) {
                cycles += c;
                released += 1;
            }
            va = va.add(PAGE_SIZE as u64);
        }
        Ok(MunmapOutcome {
            cycles,
            released_pages: released,
        })
    }

    /// Fraction of lazily-freed pages the packed host's reclaim takes
    /// between invocations: one page in this many. Serverless hosts run
    /// memory-oversubscribed (the paper's premise), so a warm container's
    /// `MADV_FREE` donations are partially harvested before the next
    /// request arrives.
    pub const LAZY_RECLAIM_STRIDE: u64 = 2;

    /// Serves `madvise(addr, len, MADV_FREE)` plus the host's background
    /// reclaim. Every resident page in the range is marked lazily freeable
    /// (the cheap path: on the next write the mark clears and the frame is
    /// reused for free); memory pressure on a packed serverless host then
    /// immediately reclaims one in `reclaim_stride` of the marked pages —
    /// those lose their frame and demand-fault on the next touch. The VMA
    /// itself stays mapped throughout. `reclaim_stride == 0` marks without
    /// reclaiming.
    #[expect(
        clippy::too_many_arguments,
        reason = "each machine part is a separate borrow of the caller's state"
    )]
    pub fn madvise_free(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        tlb: &mut Tlb,
        core: usize,
        proc: &mut Process,
        addr: VirtAddr,
        len: u64,
        reclaim_stride: u64,
    ) -> MadviseOutcome {
        self.stats.madvises += 1;
        let mut cycles = Cycles::new(self.costs.syscall_overhead + self.costs.madvise_work);
        cycles += self.touch_kmeta(mem_sys, core, 2);
        let mut marked = 0u64;
        let mut reclaimed = 0u64;
        let mut va = addr.page_base();
        let end = addr.add(len);
        while va < end {
            // Every `reclaim_stride`-th resident page is reclaimed, so
            // whether this one would be is known before its walk.
            let table = &mut proc.addr_space.page_table;
            let resident = if reclaim_stride > 0 && (marked + 1).is_multiple_of(reclaim_stride) {
                let reclaim = self.reclaim_page(mem, mem_sys, tlb, core, table, va);
                if let Some(c) = reclaim {
                    cycles += c;
                    reclaimed += 1;
                }
                reclaim.is_some()
            } else {
                table.translate(mem, va).is_some()
            };
            if resident {
                cycles += Cycles::new(self.costs.madvise_per_page);
                marked += 1;
            }
            va = va.add(PAGE_SIZE as u64);
        }
        self.stats.lazy_reclaimed_pages += reclaimed;
        MadviseOutcome {
            cycles,
            marked_pages: marked,
            reclaimed_pages: reclaimed,
        }
    }

    /// Handles a page fault at `va`: looks up the covering VMA, allocates a
    /// frame, installs the PTE, and fills the TLB.
    ///
    /// # Errors
    ///
    /// [`KernelError::Segfault`] when no VMA covers `va`;
    /// [`KernelError::OutOfMemory`] when the buddy allocator is empty.
    pub fn handle_page_fault(
        &mut self,
        mem: &mut PhysMem,
        mem_sys: &mut MemSystem,
        tlb: &mut Tlb,
        core: usize,
        proc: &mut Process,
        va: VirtAddr,
    ) -> Result<FaultOutcome, KernelError> {
        if proc.addr_space.find(va).is_none() {
            return Err(KernelError::Segfault(va));
        }
        self.stats.page_faults += 1;
        let mut cycles = Cycles::new(self.costs.fault_work + self.costs.buddy_alloc);
        cycles += self.touch_kmeta(mem_sys, core, 4);
        let frame = self.buddy.alloc(FrameUse::UserHeap)?;
        let page = va.page_base();
        cycles += self.map_page(mem, mem_sys, core, proc, page, frame)?;
        tlb.insert(page, frame);
        self.fault_lat.record(cycles.raw());
        Ok(FaultOutcome { frame, cycles })
    }

    /// Performs a context switch: flushes the TLB and charges scheduler
    /// cost.
    pub fn context_switch(&mut self, tlb: &mut Tlb) -> Cycles {
        self.stats.context_switches += 1;
        tlb.flush();
        Cycles::new(self.costs.context_switch)
    }

    /// Grants `n` frames to the Memento hardware page pool. Replenishment
    /// is batched and off the critical path; the (small) cost is returned
    /// for completeness.
    ///
    /// # Errors
    ///
    /// [`KernelError::OutOfMemory`] when the buddy allocator is exhausted.
    pub fn grant_pool_frames(&mut self, n: u64) -> Result<(Vec<Frame>, Cycles), KernelError> {
        let mut frames = Vec::with_capacity(n as usize);
        for _ in 0..n {
            // Frames the pool previously returned count as warm reuse, not
            // fresh aggregate demand: the process already paid for that
            // physical page once (Fig. 11's metric must not double-count
            // every recycle round-trip).
            if self.pool_return_credit > 0 {
                self.pool_return_credit -= 1;
                frames.push(self.buddy.alloc_recycled(FrameUse::MementoPool)?);
            } else {
                frames.push(self.buddy.alloc(FrameUse::MementoPool)?);
            }
        }
        self.stats.pool_frames_granted += n;
        Ok((frames, Cycles::new(self.costs.buddy_alloc * n / 4)))
    }

    /// Accepts frames back from the Memento pool (high-water overflow
    /// return or process detach). The device has already released the
    /// frames' backing store; the kernel only restores buddy state and
    /// records a re-grant credit so warm reuse is attributed correctly.
    pub fn accept_pool_frames(&mut self, frames: &[Frame]) -> Cycles {
        for f in frames {
            self.buddy.free(*f, FrameUse::MementoPool);
        }
        self.pool_return_credit += frames.len() as u64;
        self.stats.pool_frames_returned += frames.len() as u64;
        Cycles::new(self.costs.buddy_free * frames.len() as u64 / 4)
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("stats", &self.stats)
            .field("frames", self.buddy.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_cache::MemSystemConfig;

    struct Rig {
        mem: PhysMem,
        sys: MemSystem,
        tlb: Tlb,
        kernel: Kernel,
        proc: Process,
    }

    fn rig() -> Rig {
        let mut mem = PhysMem::new(64 << 20);
        let mut kernel = Kernel::boot(&mut mem, KernelCosts::calibrated());
        let proc = kernel.create_process(&mut mem);
        Rig {
            mem,
            sys: MemSystem::new(MemSystemConfig::paper_default(1)),
            tlb: Tlb::default(),
            kernel,
            proc,
        }
    }

    #[test]
    fn mmap_is_lazy() {
        let mut r = rig();
        let out = r
            .kernel
            .mmap(
                &mut r.mem,
                &mut r.sys,
                &mut r.tlb,
                0,
                &mut r.proc,
                256 * 1024,
                MmapFlags::default(),
            )
            .unwrap();
        assert!(out.cycles >= Cycles::new(2100), "syscall + mmap work");
        // No physical backing yet.
        assert!(r
            .proc
            .addr_space
            .page_table
            .translate(&r.mem, out.addr)
            .is_none());
        assert_eq!(r.kernel.frame_stats().get(FrameUse::UserHeap).aggregate, 0);
    }

    #[test]
    fn fault_backs_page_and_fills_tlb() {
        let mut r = rig();
        let out = r
            .kernel
            .mmap(
                &mut r.mem,
                &mut r.sys,
                &mut r.tlb,
                0,
                &mut r.proc,
                4096,
                MmapFlags::default(),
            )
            .unwrap();
        let fault = r
            .kernel
            .handle_page_fault(
                &mut r.mem,
                &mut r.sys,
                &mut r.tlb,
                0,
                &mut r.proc,
                out.addr.add(100),
            )
            .unwrap();
        assert!(fault.cycles >= Cycles::new(2000), "fault path is expensive");
        assert_eq!(
            r.proc
                .addr_space
                .page_table
                .translate(&r.mem, out.addr)
                .unwrap()
                .frame,
            fault.frame
        );
        assert_eq!(r.tlb.lookup(out.addr).frame, Some(fault.frame));
        assert_eq!(r.kernel.stats().page_faults, 1);
    }

    #[test]
    fn fault_outside_vma_segfaults() {
        let mut r = rig();
        let err = r
            .kernel
            .handle_page_fault(
                &mut r.mem,
                &mut r.sys,
                &mut r.tlb,
                0,
                &mut r.proc,
                VirtAddr::new(0x1234_5000),
            )
            .unwrap_err();
        assert!(matches!(err, KernelError::Segfault(_)));
    }

    #[test]
    fn populate_backs_everything_eagerly() {
        let mut r = rig();
        let pages = 8u64;
        let out = r
            .kernel
            .mmap(
                &mut r.mem,
                &mut r.sys,
                &mut r.tlb,
                0,
                &mut r.proc,
                pages * PAGE_SIZE as u64,
                MmapFlags { populate: true },
            )
            .unwrap();
        for i in 0..pages {
            let va = out.addr.add(i * PAGE_SIZE as u64);
            assert!(r.proc.addr_space.page_table.translate(&r.mem, va).is_some());
        }
        assert_eq!(r.kernel.stats().populated_pages, pages);
        assert_eq!(
            r.kernel.frame_stats().get(FrameUse::UserHeap).aggregate,
            pages
        );
    }

    #[test]
    fn munmap_releases_frames_and_tables() {
        let mut r = rig();
        let len = 4 * PAGE_SIZE as u64;
        let out = r
            .kernel
            .mmap(
                &mut r.mem,
                &mut r.sys,
                &mut r.tlb,
                0,
                &mut r.proc,
                len,
                MmapFlags { populate: true },
            )
            .unwrap();
        let free_before = r.kernel.buddy.free_frames();
        let um = r
            .kernel
            .munmap(
                &mut r.mem,
                &mut r.sys,
                &mut r.tlb,
                0,
                &mut r.proc,
                out.addr,
                len,
            )
            .unwrap();
        assert_eq!(um.released_pages, 4);
        assert!(r.kernel.buddy.free_frames() > free_before);
        assert_eq!(r.tlb.lookup(out.addr).frame, None, "TLB shot down");
        assert_eq!(
            r.kernel.frame_stats().get(FrameUse::UserHeap).current,
            0,
            "all heap frames returned"
        );
    }

    #[test]
    fn partial_munmap_splits_the_mapping() {
        let mut r = rig();
        let len = 4 * PAGE_SIZE as u64;
        let out = r
            .kernel
            .mmap(
                &mut r.mem,
                &mut r.sys,
                &mut r.tlb,
                0,
                &mut r.proc,
                len,
                MmapFlags { populate: true },
            )
            .unwrap();
        // Unmap the middle two pages only.
        let hole = out.addr.add(PAGE_SIZE as u64);
        let um = r
            .kernel
            .munmap(
                &mut r.mem,
                &mut r.sys,
                &mut r.tlb,
                0,
                &mut r.proc,
                hole,
                2 * PAGE_SIZE as u64,
            )
            .unwrap();
        assert_eq!(um.released_pages, 2);
        // Edges still mapped, hole is gone.
        assert!(r
            .proc
            .addr_space
            .page_table
            .translate(&r.mem, out.addr)
            .is_some());
        assert!(r
            .proc
            .addr_space
            .page_table
            .translate(&r.mem, hole)
            .is_none());
        assert!(r
            .proc
            .addr_space
            .page_table
            .translate(&r.mem, out.addr.add(3 * PAGE_SIZE as u64))
            .is_some());
        assert_eq!(r.proc.addr_space.vma_count(), 2, "split into two VMAs");
    }

    #[test]
    fn munmap_of_unmapped_range_fails() {
        let mut r = rig();
        let err = r
            .kernel
            .munmap(
                &mut r.mem,
                &mut r.sys,
                &mut r.tlb,
                0,
                &mut r.proc,
                VirtAddr::new(0x5000),
                4096,
            )
            .unwrap_err();
        assert_eq!(err, KernelError::BadMunmap);
    }

    #[test]
    fn context_switch_flushes_tlb() {
        let mut r = rig();
        r.tlb.insert(VirtAddr::new(0x1000), Frame::from_number(1));
        let cycles = r.kernel.context_switch(&mut r.tlb);
        assert_eq!(cycles, Cycles::new(r.kernel.costs().context_switch));
        assert_eq!(r.tlb.lookup(VirtAddr::new(0x1000)).frame, None);
        assert_eq!(r.kernel.stats().context_switches, 1);
    }

    #[test]
    fn pool_grant_and_return() {
        let mut r = rig();
        let (frames, _c) = r.kernel.grant_pool_frames(16).unwrap();
        assert_eq!(frames.len(), 16);
        assert_eq!(
            r.kernel.frame_stats().get(FrameUse::MementoPool).current,
            16
        );
        r.kernel.accept_pool_frames(&frames);
        assert_eq!(r.kernel.frame_stats().get(FrameUse::MementoPool).current, 0);
        assert_eq!(
            r.kernel.frame_stats().get(FrameUse::MementoPool).aggregate,
            16
        );
        assert_eq!(r.kernel.stats().pool_frames_returned, 16);
    }

    #[test]
    fn regrant_of_returned_frames_counts_as_recycled() {
        let mut r = rig();
        let (frames, _c) = r.kernel.grant_pool_frames(16).unwrap();
        r.kernel.accept_pool_frames(&frames);
        // Warm re-grant: same physical demand, no new aggregate pages.
        let (again, _c) = r.kernel.grant_pool_frames(16).unwrap();
        assert_eq!(again.len(), 16);
        let pool = r.kernel.frame_stats().get(FrameUse::MementoPool);
        assert_eq!(pool.aggregate, 16, "aggregate counts fresh grants only");
        assert_eq!(pool.recycled, 16, "re-grant attributed to warm reuse");
        // A grant beyond the credit is fresh demand again.
        let (_more, _c) = r.kernel.grant_pool_frames(4).unwrap();
        assert_eq!(
            r.kernel.frame_stats().get(FrameUse::MementoPool).aggregate,
            20
        );
    }

    #[test]
    fn distinct_pids() {
        let mut r = rig();
        let p2 = r.kernel.create_process(&mut r.mem);
        assert_ne!(r.proc.pid, p2.pid);
    }
}
