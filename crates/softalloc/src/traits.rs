//! The [`SoftwareAllocator`] trait and the execution context allocators run
//! in.

use memento_cache::{AccessKind, MemSystem};
use memento_kernel::access::demand_access;
use memento_kernel::kernel::{Kernel, MmapFlags, Process};
use memento_simcore::addr::{PhysAddr, VirtAddr};
use memento_simcore::cycles::Cycles;
use memento_simcore::physmem::PhysMem;
use memento_vm::tlb::Tlb;
use memento_vm::walker::PageWalker;

/// Everything a software allocator needs to run one operation: the machine
/// state it touches (memory hierarchy, TLB, kernel, process).
pub struct AllocCtx<'a> {
    /// The kernel model (mmap/munmap/fault handling).
    pub kernel: &'a mut Kernel,
    /// The hardware page walker.
    pub walker: &'a mut PageWalker,
    /// Simulated physical memory.
    pub mem: &'a mut PhysMem,
    /// The cache hierarchy + DRAM.
    pub mem_sys: &'a mut MemSystem,
    /// This core's TLB.
    pub tlb: &'a mut Tlb,
    /// The process the allocator belongs to.
    pub proc: &'a mut Process,
    /// Executing core.
    pub core: usize,
}

impl AllocCtx<'_> {
    /// Touches allocator metadata at `va` through the full baseline demand
    /// path (TLB → walk → fault → cache). Returns (user, kernel) cycles.
    ///
    /// # Panics
    ///
    /// Panics on a segfault — allocators only touch memory they mapped, so
    /// a fault here is a simulator bug.
    pub fn touch(&mut self, va: VirtAddr, kind: AccessKind) -> (Cycles, Cycles) {
        let (_, user, kernel) = self.touch_pa(va, kind);
        (user, kernel)
    }

    /// [`AllocCtx::touch`] that also returns the physical address the
    /// access reached, so a model that reads or writes the metadata word
    /// goes through the translation its timed access already made.
    /// Returns (physical address, user cycles, kernel cycles).
    ///
    /// # Panics
    ///
    /// As [`AllocCtx::touch`].
    pub fn touch_pa(&mut self, va: VirtAddr, kind: AccessKind) -> (PhysAddr, Cycles, Cycles) {
        let acc = demand_access(
            self.kernel,
            self.walker,
            self.mem,
            self.mem_sys,
            self.tlb,
            self.core,
            self.proc,
            va,
            kind,
        )
        .expect("allocator touched unmapped memory");
        debug_assert_eq!(
            Some(acc.pa),
            self.proc
                .addr_space
                .page_table
                .translate(self.mem, va)
                .map(|t| t.frame.base_addr().add(va.page_offset())),
            "demand access at {va} reached a frame the page table does not map there"
        );
        (acc.pa, acc.user_cycles, acc.kernel_cycles)
    }

    /// Calls `mmap` on behalf of the allocator; returns (addr, kernel
    /// cycles).
    pub fn mmap(&mut self, len: u64, flags: MmapFlags) -> (VirtAddr, Cycles) {
        let out = self
            .kernel
            .mmap(
                self.mem,
                self.mem_sys,
                self.tlb,
                self.core,
                self.proc,
                len,
                flags,
            )
            .expect("mmap failed");
        (out.addr, out.cycles)
    }

    /// Calls `madvise(MADV_FREE)` over the range (invocation-boundary
    /// decay): resident pages are marked lazily freeable and the host's
    /// background reclaim harvests a deterministic fraction of them (see
    /// [`Kernel::LAZY_RECLAIM_STRIDE`]). Returns kernel cycles.
    pub fn madvise_free(&mut self, addr: VirtAddr, len: u64) -> Cycles {
        self.kernel
            .madvise_free(
                self.mem,
                self.mem_sys,
                self.tlb,
                self.core,
                self.proc,
                addr,
                len,
                Kernel::LAZY_RECLAIM_STRIDE,
            )
            .cycles
    }

    /// Calls `munmap`; returns kernel cycles.
    pub fn munmap(&mut self, addr: VirtAddr, len: u64) -> Cycles {
        self.kernel
            .munmap(
                self.mem,
                self.mem_sys,
                self.tlb,
                self.core,
                self.proc,
                addr,
                len,
            )
            .expect("munmap of unknown range")
            .cycles
    }
}

/// Result of a software allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SoftOutcome {
    /// Address of the allocated object.
    pub addr: VirtAddr,
    /// Userspace cycles (fast-path instructions + metadata accesses).
    pub user_cycles: Cycles,
    /// Kernel cycles (mmap + faults taken during the operation).
    pub kernel_cycles: Cycles,
}

/// Result of a software free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FreeOutcome {
    /// Userspace cycles.
    pub user_cycles: Cycles,
    /// Kernel cycles (munmap when storage is returned).
    pub kernel_cycles: Cycles,
}

/// Activity counters common to the allocator models.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SoftAllocStats {
    /// Allocations served from the fast path (cached free object).
    pub fast_allocs: u64,
    /// Allocations that took a slow path (new pool/slab/span or mmap).
    pub slow_allocs: u64,
    /// Frees handled.
    pub frees: u64,
    /// mmap calls issued.
    pub mmaps: u64,
    /// munmap calls issued.
    pub munmaps: u64,
    /// madvise calls issued (invocation-boundary decay).
    pub madvises: u64,
    /// Garbage-collection cycles run (Go only).
    pub gc_runs: u64,
}

impl SoftAllocStats {
    /// Counters accumulated since `earlier`.
    pub fn delta(&self, earlier: SoftAllocStats) -> SoftAllocStats {
        SoftAllocStats {
            fast_allocs: self.fast_allocs - earlier.fast_allocs,
            slow_allocs: self.slow_allocs - earlier.slow_allocs,
            frees: self.frees - earlier.frees,
            mmaps: self.mmaps - earlier.mmaps,
            munmaps: self.munmaps - earlier.munmaps,
            madvises: self.madvises - earlier.madvises,
            gc_runs: self.gc_runs - earlier.gc_runs,
        }
    }
}

/// A modeled software allocator (the baseline Memento replaces).
///
/// `Send` is a supertrait so a `FunctionRun` (which boxes its allocator)
/// can move across worker threads in the parallel experiment harness.
pub trait SoftwareAllocator: Send {
    /// Human-readable model name ("pymalloc", "jemalloc", "go").
    fn name(&self) -> &'static str;

    /// Allocates `size` bytes.
    fn alloc(&mut self, ctx: &mut AllocCtx<'_>, size: usize) -> SoftOutcome;

    /// Frees the object at `addr` of `size` bytes. (All three modeled
    /// runtimes know object sizes at free time: pools, slab bins, spans.)
    fn free(&mut self, ctx: &mut AllocCtx<'_>, addr: VirtAddr, size: usize) -> FreeOutcome;

    /// Hook run at function exit, *before* the OS tears the process down
    /// (e.g. Go's final accounting). Returns (user, kernel) cycles.
    fn on_exit(&mut self, _ctx: &mut AllocCtx<'_>) -> (Cycles, Cycles) {
        (Cycles::ZERO, Cycles::ZERO)
    }

    /// Takes one-time library-initialization cycles that should be charged
    /// to container setup rather than the function body (warm-started
    /// functions find the runtime already initialized). Returns `(user,
    /// kernel)` cycles; default none.
    fn take_setup_cycles(&mut self) -> (Cycles, Cycles) {
        (Cycles::ZERO, Cycles::ZERO)
    }

    /// Hook run at a warm invocation boundary: the function returned but
    /// the container — and the allocator's state — survives to serve the
    /// next request. Models the end-of-request decay real allocators
    /// perform (e.g. jemalloc's dirty-page purging returning retained
    /// extents to the OS) so warm steady-state footprints do not silently
    /// keep every page the burstiest request ever touched. Returns `(user,
    /// kernel)` cycles; default keeps everything cached.
    fn on_invocation_end(&mut self, _ctx: &mut AllocCtx<'_>) -> (Cycles, Cycles) {
        (Cycles::ZERO, Cycles::ZERO)
    }

    /// Activity counters.
    fn stats(&self) -> SoftAllocStats;

    /// A boxed copy of the allocator in its current state, so a machine
    /// that owns one as a trait object can be cloned.
    fn box_clone(&self) -> Box<dyn SoftwareAllocator>;
}

impl Clone for Box<dyn SoftwareAllocator> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use memento_cache::MemSystemConfig;
    use memento_kernel::costs::KernelCosts;

    /// Owns every piece of machine state an [`AllocCtx`] borrows.
    pub struct CtxOwner {
        pub kernel: Kernel,
        pub walker: PageWalker,
        pub mem: PhysMem,
        pub mem_sys: MemSystem,
        pub tlb: Tlb,
        pub proc: Process,
    }

    impl CtxOwner {
        pub fn new() -> Self {
            let mut mem = PhysMem::new(256 << 20);
            let mut kernel = Kernel::boot(&mut mem, KernelCosts::calibrated());
            let proc = kernel.create_process(&mut mem);
            CtxOwner {
                kernel,
                walker: PageWalker::new(),
                mem,
                mem_sys: MemSystem::new(MemSystemConfig::paper_default(1)),
                tlb: Tlb::default(),
                proc,
            }
        }

        pub fn ctx(&mut self) -> AllocCtx<'_> {
            AllocCtx {
                kernel: &mut self.kernel,
                walker: &mut self.walker,
                mem: &mut self.mem,
                mem_sys: &mut self.mem_sys,
                tlb: &mut self.tlb,
                proc: &mut self.proc,
                core: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::CtxOwner;
    use super::*;

    #[test]
    fn ctx_touch_faults_once() {
        let mut owner = CtxOwner::new();
        let mut ctx = owner.ctx();
        let (addr, kc) = ctx.mmap(4096, MmapFlags::default());
        assert!(kc > Cycles::ZERO);
        let (u1, k1) = ctx.touch(addr, AccessKind::Write);
        assert!(k1 > Cycles::ZERO, "first touch faults");
        let (u2, k2) = ctx.touch(addr, AccessKind::Read);
        assert_eq!(k2, Cycles::ZERO);
        assert!(u2 < u1 + k1);
    }

    #[test]
    fn ctx_munmap_roundtrip() {
        let mut owner = CtxOwner::new();
        let mut ctx = owner.ctx();
        let (addr, _) = ctx.mmap(8192, MmapFlags::default());
        ctx.touch(addr, AccessKind::Write);
        let kc = ctx.munmap(addr, 8192);
        assert!(kc > Cycles::ZERO);
    }
}
