//! The simulated machine: executes workload traces against a configured
//! memory-management design and produces [`RunStats`].

use crate::config::{Mode, SystemConfig};
use crate::gc::{GcPolicy, GoGcState};
use crate::observe::MachineObs;
use crate::scheduler::{SchedStats, Scheduler};
use crate::stats::RunStats;
use memento_cache::{AccessKind, MemSystem};
use memento_core::device::{DeviceEvent, MementoDevice, MementoProcess};
use memento_core::page_alloc::PoolBackend;
use memento_core::region::{MementoRegion, ObjectLocation};
use memento_kernel::access::demand_access;
use memento_kernel::buddy::FrameUse;
use memento_kernel::kernel::{Kernel, Process};
use memento_obs::{Log2Hist, ProfileSample};
use memento_sanitizer::{HeapSanitizer, SanitizerReport, ShadowPid};
use memento_simcore::addr::{VirtAddr, CACHE_LINE_SIZE, PAGE_SIZE};
use memento_simcore::cycles::{CycleAccount, CycleBucket, Cycles};
use memento_simcore::hash::BuildIntHasher;
use memento_simcore::physmem::{Frame, PhysMem};
use memento_softalloc::go::GoAlloc;
use memento_softalloc::je::{JeConfig, JeMalloc};
use memento_softalloc::py::PyMalloc;
use memento_softalloc::traits::{AllocCtx, SoftwareAllocator};
use memento_vm::tlb::Tlb;
use memento_vm::walker::PageWalker;
use memento_workloads::event::{Event, Trace};
use memento_workloads::generator::generate;
use memento_workloads::spec::{AllocatorKind, Language, WorkloadSpec};
use std::collections::HashMap;
use std::rc::Rc;

/// Memento's threshold: requests above this go to the software allocator.
const HW_MAX_SIZE: usize = 512;

/// Mark cost per live object during a Go GC cycle (cycles).
const GC_MARK_PER_OBJECT: u64 = 9;

/// OS adapter implementing the Memento pool backend over the kernel buddy
/// allocator.
struct OsBackend<'a> {
    kernel: &'a mut Kernel,
}

impl PoolBackend for OsBackend<'_> {
    fn grant_frames(&mut self, n: u64) -> Vec<Frame> {
        match self.kernel.grant_pool_frames(n) {
            Ok((frames, _cycles)) => frames,
            Err(_) => Vec::new(),
        }
    }

    fn accept_frames(&mut self, frames: &[Frame]) {
        // Returned frames earn re-grant credit so warm reuse is counted
        // as recycling, not fresh OS allocation.
        self.kernel.accept_pool_frames(frames);
    }
}

/// Snapshot of machine-level counters, used to measure only the
/// steady-state portion of long-running workloads (the paper measures
/// data-processing and platform services "at the steady state", §5).
#[derive(Clone)]
struct StatSnapshot {
    mem: memento_cache::MemSystemStats,
    kernel: memento_kernel::kernel::KernelStats,
    frames: memento_kernel::buddy::FrameStats,
    soft: memento_softalloc::traits::SoftAllocStats,
    hot: Option<memento_core::hot::HotStats>,
    page: Option<memento_core::page_alloc::PageAllocStats>,
    obj: Option<memento_core::device::ObjStats>,
}

/// Result of a warm multi-invocation run (see [`Machine::run_invocations`]).
pub struct WarmRun {
    /// Statistics over the steady-state window: invocations `1..n` as one
    /// delta, excluding the cold start and the final container teardown.
    pub steady: RunStats,
    /// Per-invocation statistics. Index 0 is the cold invocation, whose
    /// window includes container bring-up.
    pub invocations: Vec<RunStats>,
}

/// Per-run (per-process) execution state.
pub struct FunctionRun {
    spec: WorkloadSpec,
    proc: Process,
    mproc: Option<MementoProcess>,
    shadow_pid: Option<ShadowPid>,
    soft: Box<dyn SoftwareAllocator>,
    objects: ObjectTable,
    gc: Option<GoGcState>,
    account: CycleAccount,
    gc_runs: u64,
    allocs_seen: u64,
    frag_live: u64,
    frag_total: u64,
    snapshot: Option<StatSnapshot>,
    finished: bool,
    live_bytes: u64,
    // Malloc-free distance bookkeeping, maintained only when tracing is on.
    alloc_seq: u64,
    born: HashMap<u64, u64, BuildIntHasher>,
}

/// Sample arena occupancy every this many allocations (fragmentation
/// study §6.6 measures slot utilization during execution).
const FRAG_SAMPLE_EVERY: u64 = 2048;

/// The slot of an id that is not live. No allocator hands out the last
/// byte of the address space.
const FREED: (VirtAddr, u32) = (VirtAddr::new(u64::MAX), 0);

/// A run's live objects as `(address, size)`, indexed by object id. Trace
/// ids are dense from 0 (the generator issues them in order and
/// `Trace::from_json` bounds them by the trace's length), so a vector
/// replaces a hash map. Re-allocating a live id replaces its object, as a
/// map insert would; only a hand-built trace does that.
#[derive(Default)]
struct ObjectTable {
    slots: Vec<(VirtAddr, u32)>,
    /// Bytes of live objects of at most [`HW_MAX_SIZE`] bytes.
    small_bytes: u64,
    /// Pages of live larger objects, each rounded up to whole pages.
    large_pages: u64,
}

impl ObjectTable {
    fn get(&self, id: u64) -> Option<(VirtAddr, u32)> {
        let slot = *self.slots.get(usize::try_from(id).ok()?)?;
        (slot != FREED).then_some(slot)
    }

    fn insert(&mut self, id: u64, addr: VirtAddr, size: u32) {
        self.remove(id);
        let i = usize::try_from(id).expect("object id fits the address space");
        if i >= self.slots.len() {
            self.slots.resize(i + 1, FREED);
        }
        self.slots[i] = (addr, size);
        self.count(size, true);
    }

    fn remove(&mut self, id: u64) -> Option<(VirtAddr, u32)> {
        let slot = self.get(id)?;
        self.slots[id as usize] = FREED;
        self.count(slot.1, false);
        Some(slot)
    }

    /// Adds or takes `size` from the running fragmentation sums.
    fn count(&mut self, size: u32, live: bool) {
        let (sum, n) = if size as usize <= HW_MAX_SIZE {
            (&mut self.small_bytes, u64::from(size))
        } else {
            let pages = VirtAddr::new(u64::from(size)).page_align_up().raw() / PAGE_SIZE as u64;
            (&mut self.large_pages, pages)
        };
        if live {
            *sum += n;
        } else {
            *sum -= n;
        }
    }
}

impl FunctionRun {
    /// Whether `va` lies in the run's Memento region (never on a baseline).
    fn in_region(&self, va: VirtAddr) -> bool {
        self.mproc
            .as_ref()
            .is_some_and(|mp| mp.region().contains(va))
    }
}

fn build_allocator(spec: &WorkloadSpec, populate: bool) -> Box<dyn SoftwareAllocator> {
    let flags = memento_kernel::kernel::MmapFlags { populate };
    match spec.allocator {
        AllocatorKind::PyMalloc => Box::new(PyMalloc::with_flags(flags)),
        AllocatorKind::PyMallocTuned { arena_kb } => {
            Box::new(PyMalloc::with_arena_bytes(flags, arena_kb * 1024))
        }
        AllocatorKind::JeMalloc {
            pool_kb,
            prefault_pages,
        } => Box::new(JeMalloc::with_config(JeConfig {
            pool_bytes: pool_kb * 1024,
            prefault_pages,
            flags,
        })),
        AllocatorKind::GoAlloc => Box::new(GoAlloc::with_flags(flags)),
    }
}

/// The simulated machine.
pub struct Machine {
    cfg: SystemConfig,
    mem: PhysMem,
    mem_sys: MemSystem,
    tlbs: Vec<Tlb>,
    walkers: Vec<PageWalker>,
    kernel: Kernel,
    device: Option<MementoDevice>,
    san: Option<HeapSanitizer>,
    obs: Option<MachineObs>,
    /// Touch through the per-line oracle loop instead of spans.
    #[cfg(test)]
    per_line_touch: bool,
}

impl Machine {
    /// Builds a machine for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if physical memory is too small to boot.
    pub fn new(cfg: SystemConfig) -> Self {
        let mut mem = PhysMem::new(cfg.phys_mem_bytes);
        // Reserve the AAC pointer block before the kernel takes over the
        // rest of physical memory.
        let pointer_block = mem.alloc_frame().expect("boot frame").base_addr();
        let kernel = Kernel::boot(&mut mem, cfg.kernel_costs);
        let mut device = match cfg.mode {
            Mode::Memento(mcfg) => Some(MementoDevice::new(mcfg, cfg.cores(), pointer_block)),
            _ => None,
        };
        // The sanitizer only has hardware to shadow in Memento modes; when
        // off, the device logs no events and nothing below changes.
        let san = match (device.as_mut(), cfg.sanitizer) {
            (Some(dev), Some(scfg)) => {
                dev.record_events(true);
                Some(HeapSanitizer::new(scfg))
            }
            _ => None,
        };
        // Observability mirrors charges into a tracer/metrics registry; the
        // device's arena-lifecycle events feed its counters (untimed).
        let obs = cfg.trace.clone().map(|tc| MachineObs::new(tc, cfg.cores()));
        if let (Some(dev), true) = (device.as_mut(), obs.is_some()) {
            dev.record_events(true);
        }
        Machine {
            mem_sys: MemSystem::new(cfg.mem.clone()),
            tlbs: (0..cfg.cores()).map(|_| Tlb::default()).collect(),
            walkers: (0..cfg.cores()).map(|_| PageWalker::new()).collect(),
            kernel,
            device,
            san,
            obs,
            mem,
            cfg,
            #[cfg(test)]
            per_line_touch: false,
        }
    }

    /// The observability layer (`None` unless the config enables tracing).
    pub fn observability(&self) -> Option<&MachineObs> {
        self.obs.as_ref()
    }

    /// Mutable observability access (phase spans, fault-injection tests).
    pub fn observability_mut(&mut self) -> Option<&mut MachineObs> {
        self.obs.as_mut()
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The sanitizer report accumulated so far (`None` unless the config
    /// enables the sanitizer on a Memento machine).
    pub fn sanitizer_report(&self) -> Option<&SanitizerReport> {
        self.san.as_ref().map(|s| s.report())
    }

    /// Starts a run of `spec`: creates the process and allocator state.
    pub(crate) fn start(&mut self, spec: &WorkloadSpec) -> FunctionRun {
        let proc = self.kernel.create_process(&mut self.mem);
        let mproc = self.device.as_mut().map(|dev| {
            let mut backend = OsBackend {
                kernel: &mut self.kernel,
            };
            dev.attach_process(&mut self.mem, &mut backend, MementoRegion::standard())
                .expect("attach with OS-backed pool")
        });
        let shadow_pid = match (self.san.as_mut(), mproc.as_ref()) {
            (Some(san), Some(mp)) => Some(san.attach(mp.region())),
            _ => None,
        };
        let gc = (spec.language == Language::Golang)
            .then(|| GoGcState::new(GcPolicy::for_category(spec.category)));
        let mut run = FunctionRun {
            spec: spec.clone(),
            proc,
            mproc,
            shadow_pid,
            soft: build_allocator(spec, self.cfg.populate),
            objects: ObjectTable::default(),
            gc,
            account: CycleAccount::new(),
            gc_runs: 0,
            allocs_seen: 0,
            frag_live: 0,
            frag_total: 0,
            snapshot: None,
            finished: false,
            live_bytes: 0,
            alloc_seq: 0,
            born: HashMap::default(),
        };
        if self.cfg.coldstart_cycles > 0 {
            // The run is not yet pinned to a core; attribute bring-up to
            // track 0 (totals are what reconciliation checks).
            let setup = Cycles::new(self.cfg.coldstart_cycles);
            self.charge(&mut run, 0, CycleBucket::Setup, "setup", setup);
        }
        run
    }

    /// Marks the start of the measured (steady-state) window for `run`:
    /// counters accumulated so far are treated as warm-up and excluded
    /// from the collected statistics.
    pub(crate) fn begin_measurement(&self, run: &mut FunctionRun) {
        run.account = CycleAccount::new();
        run.gc_runs = 0;
        run.frag_live = 0;
        run.frag_total = 0;
        run.snapshot = Some(StatSnapshot {
            mem: self.mem_sys.stats(),
            kernel: self.kernel.stats(),
            frames: self.kernel.frame_stats().clone(),
            soft: run.soft.stats(),
            hot: self.device.as_ref().map(|d| d.hot_stats_total()),
            page: self.device.as_ref().map(|d| d.page_stats()),
            obj: self.device.as_ref().map(|d| d.obj_stats()),
        });
    }

    /// The software allocator's view of the machine from `core`.
    fn soft_ctx<'a>(&'a mut self, proc: &'a mut Process, core: usize) -> AllocCtx<'a> {
        AllocCtx {
            kernel: &mut self.kernel,
            walker: &mut self.walkers[core],
            mem: &mut self.mem,
            mem_sys: &mut self.mem_sys,
            tlb: &mut self.tlbs[core],
            proc,
            core,
        }
    }

    /// Charges `cycles` to `run`'s ledger under `bucket` and, when tracing
    /// is on, mirrors them as one `label` span on `core`'s track. Every
    /// cycle the machine charges goes through here, so the trace
    /// reconciles with the ledger by construction.
    fn charge(
        &mut self,
        run: &mut FunctionRun,
        core: usize,
        bucket: CycleBucket,
        label: &'static str,
        cycles: Cycles,
    ) {
        run.account.charge(bucket, cycles);
        if let Some(obs) = self.obs.as_mut() {
            obs.charge(core, bucket, label, cycles);
        }
    }

    /// Drains the device's event log, when the tracer or `run`'s shadow
    /// heap listens, and hands the events to both. Returns whether an
    /// arena changed hands (an alloc installs one, a free or trim
    /// reclaims one), which labels the hardware paths' page work.
    fn fan_out_events(&mut self, run: &FunctionRun) -> bool {
        let Some(dev) = self.device.as_mut() else {
            return false;
        };
        if self.obs.is_none() && run.shadow_pid.is_none() {
            return false;
        }
        let events = dev.take_events();
        let arena = events.iter().any(|e| {
            matches!(
                e,
                DeviceEvent::ArenaInstalled { .. } | DeviceEvent::ArenaReclaimed { .. }
            )
        });
        if let Some(obs) = self.obs.as_mut() {
            obs.on_device_events(&events);
        }
        if let Some(pid) = run.shadow_pid {
            let san = self.san.as_mut().expect("shadow pid implies sanitizer");
            san.on_device_events(pid, events);
        }
        arena
    }

    /// Executes one software allocation, applying the Mallacc idealization
    /// when configured.
    fn soft_alloc(&mut self, run: &mut FunctionRun, core: usize, size: usize) -> VirtAddr {
        let mut ctx = self.soft_ctx(&mut run.proc, core);
        let out = run.soft.alloc(&mut ctx, size);
        let (mut user, kernel) = (out.user_cycles, out.kernel_cycles);
        if matches!(self.cfg.mode, Mode::IdealMallacc) && size <= HW_MAX_SIZE {
            // §6.7: zero-latency, always-hitting malloc acceleration.
            user = Cycles::new(user.raw().min(1));
        }
        self.charge(run, core, CycleBucket::UserAlloc, "mm", user);
        self.charge(run, core, CycleBucket::KernelMm, "kernel", kernel);
        out.addr
    }

    fn soft_free(&mut self, run: &mut FunctionRun, core: usize, addr: VirtAddr, size: usize) {
        let mut ctx = self.soft_ctx(&mut run.proc, core);
        let out = run.soft.free(&mut ctx, addr, size);
        let (mut user, kernel) = (out.user_cycles, out.kernel_cycles);
        if matches!(self.cfg.mode, Mode::IdealMallacc) && size <= HW_MAX_SIZE {
            user = Cycles::new(user.raw().min(1));
        }
        self.charge(run, core, CycleBucket::UserFree, "mm", user);
        self.charge(run, core, CycleBucket::KernelMm, "kernel", kernel);
    }

    fn hw_alloc(&mut self, run: &mut FunctionRun, core: usize, size: usize) -> VirtAddr {
        let dev = self.device.as_mut().expect("memento mode");
        let mproc = run.mproc.as_mut().expect("memento process");
        let mut backend = OsBackend {
            kernel: &mut self.kernel,
        };
        let out = dev
            .obj_alloc(
                &mut self.mem,
                &mut self.mem_sys,
                &mut backend,
                core,
                mproc,
                size,
            )
            .expect("hardware alloc within 512B");
        let arena = self.fan_out_events(run);
        let label = if out.hot_hit { "mm" } else { "hot_miss" };
        self.charge(run, core, CycleBucket::HwAlloc, label, out.obj_cycles);
        let page_label = if arena { "arena_fill" } else { "walk" };
        self.charge(run, core, CycleBucket::HwPage, page_label, out.page_cycles);
        if let Some(obs) = self.obs.as_mut() {
            obs.metrics_mut()
                .observe("hot.alloc_cycles", out.obj_cycles.raw());
        }
        if let Some(pid) = run.shadow_pid {
            let san = self.san.as_mut().expect("shadow pid implies sanitizer");
            san.on_obj_alloc(pid, core, out.addr, size);
            if san.audit_due(pid) {
                let dev = self.device.as_ref().expect("memento mode");
                let mproc = run.mproc.as_ref().expect("memento process");
                san.audit(pid, dev, mproc, &self.mem);
            }
        }
        out.addr
    }

    fn hw_free(&mut self, run: &mut FunctionRun, core: usize, addr: VirtAddr) {
        let dev = self.device.as_mut().expect("memento mode");
        let mproc = run.mproc.as_mut().expect("memento process");
        let mut backend = OsBackend {
            kernel: &mut self.kernel,
        };
        let out = dev
            .obj_free(
                &mut self.mem,
                &mut self.mem_sys,
                &mut backend,
                &mut self.tlbs,
                core,
                mproc,
                addr,
            )
            .expect("hardware free of live object");
        let arena = self.fan_out_events(run);
        let label = if out.hot_hit { "mm" } else { "hot_miss" };
        self.charge(run, core, CycleBucket::HwFree, label, out.obj_cycles);
        let page_label = if arena { "arena_fill" } else { "walk" };
        self.charge(run, core, CycleBucket::HwPage, page_label, out.page_cycles);
        if let Some(obs) = self.obs.as_mut() {
            obs.metrics_mut()
                .observe("hot.free_cycles", out.obj_cycles.raw());
        }
        if let Some(pid) = run.shadow_pid {
            let san = self.san.as_mut().expect("shadow pid implies sanitizer");
            san.on_obj_free(pid, core, addr);
            if san.audit_due(pid) {
                let dev = self.device.as_ref().expect("memento mode");
                let mproc = run.mproc.as_ref().expect("memento process");
                san.audit(pid, dev, mproc, &self.mem);
            }
        }
    }

    /// Cycles of a data access left on the critical path once out-of-order
    /// overlap (`touch_overlap`) hides the rest.
    fn discount(&self, c: Cycles) -> Cycles {
        Cycles::new((c.raw() as f64 * self.cfg.touch_overlap).ceil() as u64)
    }

    /// One demand data access at `va` for a run, honouring the configured
    /// design (baseline fault path vs. Memento walk + bypass). `loc` is
    /// where the Memento region places `va` (`None` outside it). Returns
    /// the frame backing `va`'s page and whether the access took the
    /// Memento path, which is what [`Self::repeat_access`] needs for the
    /// page's later lines.
    fn data_access(
        &mut self,
        run: &mut FunctionRun,
        core: usize,
        va: VirtAddr,
        kind: AccessKind,
        loc: Option<ObjectLocation>,
    ) -> (Frame, bool) {
        if !run.in_region(va) {
            // Baseline path (also used for software-managed memory under
            // Memento). The data access itself is discounted by the MLP
            // factor; translation/fault work stays on the critical path.
            let acc = demand_access(
                &mut self.kernel,
                &mut self.walkers[core],
                &mut self.mem,
                &mut self.mem_sys,
                &mut self.tlbs[core],
                core,
                &mut run.proc,
                va,
                kind,
            )
            .expect("data access within mapped memory");
            let serial = acc.user_cycles - acc.access_cycles;
            self.charge_baseline_access(run, core, serial, acc.access_cycles, acc.kernel_cycles);
            return (Frame::containing(acc.pa), false);
        }

        // Memento region: TLB → Memento walk (never faults) → bypass check.
        let lookup = self.tlbs[core].lookup(va);
        self.charge(run, core, CycleBucket::Compute, "user", lookup.cycles);
        let frame = match lookup.frame {
            Some(f) => f,
            None => {
                let dev = self.device.as_mut().expect("memento mode");
                let mproc = run.mproc.as_mut().expect("memento process");
                let mut backend = OsBackend {
                    kernel: &mut self.kernel,
                };
                let (frame, cycles) = dev
                    .translate_miss(
                        &mut self.mem,
                        &mut self.mem_sys,
                        &mut backend,
                        core,
                        mproc,
                        va,
                    )
                    .expect("memento walk with OS-backed pool");
                self.charge(run, core, CycleBucket::HwPage, "walk", cycles);
                self.tlbs[core].insert(va, frame);
                frame
            }
        };
        self.memento_line_access(run, core, va, kind, frame, loc);
        (frame, true)
    }

    /// A later line `va` of the page whose first line [`Self::data_access`]
    /// just reached through `page`: the same charges as that full path
    /// given its TLB lookup is an L1 hit on the entry the first line left
    /// most recently used — no region check, translation or set search.
    fn repeat_access(
        &mut self,
        run: &mut FunctionRun,
        core: usize,
        va: VirtAddr,
        kind: AccessKind,
        page: (Frame, bool),
        loc: Option<ObjectLocation>,
    ) {
        let (frame, memento) = page;
        debug_assert_eq!(
            memento,
            run.mproc
                .as_ref()
                .is_some_and(|mp| mp.region().contains(va)),
            "a page lies wholly inside or outside the Memento region"
        );
        let tlb = self.tlbs[core].hit_mru(va);
        if memento {
            self.charge(run, core, CycleBucket::Compute, "user", tlb);
            self.memento_line_access(run, core, va, kind, frame, loc);
        } else {
            let pa = frame.base_addr().add(va.page_offset());
            let access = self.mem_sys.access(core, kind, pa).cycles;
            self.charge_baseline_access(run, core, tlb, access, Cycles::ZERO);
        }
    }

    /// Charges a baseline demand access: translation (and fault) work on
    /// the critical path, the data access discounted by the MLP factor.
    fn charge_baseline_access(
        &mut self,
        run: &mut FunctionRun,
        core: usize,
        serial: Cycles,
        access: Cycles,
        kernel: Cycles,
    ) {
        let user = serial + self.discount(access);
        self.charge(run, core, CycleBucket::Compute, "user", user);
        self.charge(run, core, CycleBucket::KernelMm, "kernel", kernel);
    }

    /// The cache access of a Memento-region line translated to `frame`,
    /// main-memory bypass included.
    fn memento_line_access(
        &mut self,
        run: &mut FunctionRun,
        core: usize,
        va: VirtAddr,
        kind: AccessKind,
        frame: Frame,
        loc: Option<ObjectLocation>,
    ) {
        let mproc = run.mproc.as_ref().expect("memento process");
        debug_assert_eq!(
            loc.map(|l| (l.class, l.arena_base)),
            mproc.region().locate(va).map(|l| (l.class, l.arena_base)),
            "every line of an object shares its class and arena"
        );
        let dev = self.device.as_mut().expect("memento mode");
        let pa = frame.base_addr().add(va.page_offset());
        let bypass = loc.is_some_and(|loc| dev.bypass_check_at(core, loc, va));
        let out = if bypass {
            self.mem_sys.access_bypassed(core, kind, pa)
        } else {
            self.mem_sys.access(core, kind, pa)
        };
        let cycles = self.discount(out.cycles);
        self.charge(run, core, CycleBucket::Compute, "user", cycles);
    }

    /// Touches every cache line of `[start, end]`, bytes of one live
    /// object. Per page, the first line takes the full demand path
    /// ([`Self::data_access`]) and the rest reuse its translation
    /// ([`Self::repeat_access`]). All lines of an object share a size
    /// class and an arena, so the span locates itself in the Memento
    /// region once.
    fn touch_span(
        &mut self,
        run: &mut FunctionRun,
        core: usize,
        start: VirtAddr,
        end: VirtAddr,
        write: bool,
    ) {
        #[cfg(test)]
        if self.per_line_touch {
            return self.touch_per_line(run, core, start, end, write);
        }
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let mut line = start.line_base();
        let loc = run.mproc.as_ref().and_then(|mp| mp.region().locate(line));
        while line <= end {
            let page_last = line.page_base().add(PAGE_SIZE as u64 - 1).min(end);
            let page = self.data_access(run, core, line, kind, loc);
            line = line.add(CACHE_LINE_SIZE as u64);
            while line <= page_last {
                self.repeat_access(run, core, line, kind, page, loc);
                line = line.add(CACHE_LINE_SIZE as u64);
            }
        }
    }

    /// Samples heap utilization for the Â§6.6 fragmentation study: live
    /// small-object bytes versus physical bytes backing the small-object
    /// heap. Works for both designs so hardware fragmentation can be
    /// compared against the software allocators (the paper finds them
    /// within Â±2%).
    fn sample_fragmentation(&mut self, run: &mut FunctionRun, core: usize) {
        if let (Some(dev), Some(mproc)) = (self.device.as_ref(), run.mproc.as_ref()) {
            let (live, backed) = dev.scan_occupancy(&self.mem, core, mproc);
            run.frag_live += live;
            run.frag_total += backed;
            return;
        }
        // Baseline: live small bytes over user-heap pages backing them
        // (large objects' page-rounded footprint excluded).
        let (live_small, large_pages) = (run.objects.small_bytes, run.objects.large_pages);
        let heap_pages = self
            .kernel
            .frame_stats()
            .get(FrameUse::UserHeap)
            .current
            .saturating_sub(large_pages);
        // Large-object residency is an estimate; never let the backed
        // total fall below the live bytes it must contain.
        run.frag_live += live_small;
        run.frag_total += (heap_pages * PAGE_SIZE as u64).max(live_small);
    }

    /// Runs a Go GC cycle if due.
    fn maybe_collect(&mut self, run: &mut FunctionRun, core: usize) {
        let due = run.gc.as_ref().map(|g| g.should_collect()).unwrap_or(false);
        if !due {
            return;
        }
        self.collect_now(run, core);
    }

    /// Runs a Go GC cycle unconditionally (no-op without GC state): mark
    /// cost proportional to the live set, then sweep of the accumulated
    /// dead list through the active design's free path.
    fn collect_now(&mut self, run: &mut FunctionRun, core: usize) {
        if run.gc.is_none() {
            return;
        }
        let (swept, live_objects) = {
            let gc = run.gc.as_mut().expect("checked above");
            let live = gc.live_objects;
            (gc.begin_collection(), live)
        };
        run.gc_runs += 1;
        if let Some(obs) = self.obs.as_mut() {
            obs.tracer_mut().begin(core, "gc");
        }
        // Mark phase: proportional to the live set.
        let mark = Cycles::new(live_objects * GC_MARK_PER_OBJECT);
        self.charge(run, core, CycleBucket::UserFree, "gc", mark);
        // Sweep phase: free every dead object through the active design.
        for (addr, size) in swept {
            if run.in_region(addr) {
                self.hw_free(run, core, addr);
            } else {
                self.soft_free(run, core, addr, size as usize);
            }
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.tracer_mut().end(core);
        }
    }

    /// Executes a single event on the given core (multi-core co-location:
    /// each function is pinned to a core; the LLC, DRAM, kernel, and the
    /// hardware page allocator are shared).
    pub(crate) fn step_on(&mut self, run: &mut FunctionRun, event: &Event, core: usize) {
        debug_assert!(!run.finished, "step after Exit");
        debug_assert!(core < self.cfg.cores(), "core {core} out of range");
        if let Some(san) = self.san.as_mut() {
            san.note_event();
        }
        match event {
            Event::Compute { instructions } => {
                let cycles = Cycles::new((*instructions as f64 * self.cfg.cpi).round() as u64);
                self.charge(run, core, CycleBucket::Compute, "user", cycles);
            }
            Event::Alloc { id, size } => {
                let size_us = *size as usize;
                let addr = if self.device.is_some() && size_us <= HW_MAX_SIZE {
                    self.hw_alloc(run, core, size_us)
                } else {
                    self.soft_alloc(run, core, size_us)
                };
                run.objects.insert(id.0, addr, *size);
                run.live_bytes += *size as u64;
                if self.obs.is_some() {
                    run.alloc_seq += 1;
                    run.born.insert(id.0, run.alloc_seq);
                }
                run.allocs_seen += 1;
                if run.allocs_seen.is_multiple_of(FRAG_SAMPLE_EVERY) {
                    self.sample_fragmentation(run, core);
                }
                if let Some(gc) = run.gc.as_mut() {
                    gc.on_alloc(*size);
                }
                self.maybe_collect(run, core);
            }
            Event::Free { id } => {
                // A double free, and every free in a run with a collector,
                // skips the heap-profile sample check below.
                if !self.free_object(run, core, id.0) || run.gc.is_some() {
                    return;
                }
            }
            Event::Touch {
                id,
                offset,
                len,
                write,
            } => {
                let Some((addr, size)) = run.objects.get(id.0) else {
                    return;
                };
                // A span that is empty or runs past its object (possible
                // only in a hand-built or loaded trace) is dropped, like a
                // touch of an unknown id.
                let (offset, len) = (u64::from(*offset), u64::from(*len));
                if len == 0 || offset + len > u64::from(size) {
                    return;
                }
                self.touch_span(
                    run,
                    core,
                    addr.add(offset),
                    addr.add(offset + len - 1),
                    *write,
                );
            }
            Event::Exit => {
                self.finish_run(run, core);
            }
        }
        if !run.finished && self.obs.is_some() {
            self.maybe_sample(run, core);
        }
    }

    /// Frees object `id` through the active design. A Go run leaves the
    /// storage to its collector, unless proactive GC free reclaims a
    /// Memento object at once. Returns whether `id` was live; an id that
    /// is not (a double free in a trace) is ignored.
    fn free_object(&mut self, run: &mut FunctionRun, core: usize, id: u64) -> bool {
        let Some((addr, size)) = run.objects.remove(id) else {
            return false;
        };
        run.live_bytes = run.live_bytes.saturating_sub(size as u64);
        if let Some(obs) = self.obs.as_mut() {
            if let Some(b) = run.born.remove(&id) {
                obs.metrics_mut()
                    .observe("alloc.malloc_free_distance", run.alloc_seq - b);
            }
        }
        let in_region = run.in_region(addr);
        match run.gc.as_mut() {
            Some(gc) if self.cfg.proactive_gc_free && in_region => {
                // §4 extension: the enhanced GC recognizes the ephemeral
                // death and frees it through Memento immediately, instead
                // of deferring to the sweep.
                gc.live_bytes = gc.live_bytes.saturating_sub(size as u64);
                gc.live_objects = gc.live_objects.saturating_sub(1);
                self.hw_free(run, core, addr);
            }
            // Go: objects die; storage waits for the GC (or exit).
            Some(gc) => gc.on_death(addr, size),
            None if in_region => self.hw_free(run, core, addr),
            None => self.soft_free(run, core, addr, size as usize),
        }
        true
    }

    /// Takes a heap-profile sample if `core`'s trace clock crossed its
    /// sampling threshold (untimed; only runs when tracing is enabled).
    fn maybe_sample(&mut self, run: &FunctionRun, core: usize) {
        let Some(obs) = self.obs.as_mut() else { return };
        if !obs.sample_due(core) {
            return;
        }
        let pool_frames = self.kernel.frame_stats().get(FrameUse::MementoPool).current;
        let hot_resident = self
            .device
            .as_ref()
            .map(|d| d.hot(core).iter_valid().count() as u64)
            .unwrap_or(0);
        let cycles = obs.tracer().now(core);
        obs.push_sample(ProfileSample {
            core,
            cycles,
            live_bytes: run.live_bytes,
            pool_frames,
            hot_resident,
        });
    }

    /// Runs a batch of invocations across every configured core under the
    /// deterministic work-stealing [`Scheduler`]: jobs are dealt round-robin
    /// to per-core deques, idle cores steal from seeded victims, and the
    /// machine always advances the core with the lowest simulated clock by
    /// one trace event. While several cores have in-flight work, the shared
    /// LLC runs its fair-share eviction policy and DRAM fills pay the
    /// queueing penalty; with one active core both are exactly inert, so a
    /// one-core batch reproduces [`Machine::run`] cycle-for-cycle.
    ///
    /// Returns per-job statistics (in `specs` order) plus the scheduler's
    /// counters. Statistics are collected after the whole batch drains;
    /// each job's window starts at its own bring-up snapshot, so windows
    /// of co-resident jobs overlap on the shared counters.
    pub fn run_scheduled(
        &mut self,
        specs: &[WorkloadSpec],
        seed: u64,
    ) -> (Vec<RunStats>, SchedStats) {
        self.run_scheduled_with(specs, seed, |_, _| {})
    }

    /// [`Machine::run_scheduled`] with a fault-injection hook called once
    /// per trace event (and once per idle spin while every core with work
    /// is stalled), before job acquisition, with the scheduler and the
    /// iteration number — tests use it to stall and release cores
    /// mid-invocation.
    ///
    /// The scheduler re-decides — acquires jobs for idle cores, recounts
    /// the active cores for contention, and picks the lowest-clock core —
    /// only when one of those inputs can have changed: at the start, after
    /// a job completes, when the hook mutated the scheduler (its
    /// [`Scheduler::generation`] moved), or when the running core's
    /// `(clock, index)` reaches its horizon, the smallest one among the
    /// other runnable cores. Otherwise the running core keeps the CPU,
    /// which is exactly what a per-event re-decision would pick.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler wedges: no core can run, yet no stalled
    /// work explains why (a scheduler invariant violation), or stalled
    /// work is never released by the hook.
    pub fn run_scheduled_with(
        &mut self,
        specs: &[WorkloadSpec],
        seed: u64,
        hook: impl FnMut(&mut Scheduler, u64),
    ) -> (Vec<RunStats>, SchedStats) {
        let traces = traces_for(specs);
        let traces = traces.iter().map(|t| &**t).collect();
        self.run_batch(Batch::new(specs, traces, self.cfg.cores(), seed), hook)
    }

    /// The batch driver behind [`Machine::run_scheduled_with`] and
    /// [`Machine::run_trace`] (see the former for the decision rule).
    fn run_batch(
        &mut self,
        mut batch: Batch<'_>,
        mut hook: impl FnMut(&mut Scheduler, u64),
    ) -> (Vec<RunStats>, SchedStats) {
        let mut steps: u64 = 0;
        let mut idle_spins: u32 = 0;
        // The core holding the CPU, its job, and its horizon; `None` makes
        // the next iteration re-decide.
        let mut holder: Option<(usize, usize, (u64, usize))> = None;
        loop {
            if holder.is_none() && batch.sched.all_done() {
                break;
            }
            let generation = batch.sched.generation();
            hook(&mut batch.sched, steps);
            steps += 1;
            if batch.sched.generation() != generation {
                holder = None;
            }
            let (core, job) = match holder {
                Some((core, job, horizon)) if (batch.sched.clock(core), core) < horizon => {
                    (core, job)
                }
                _ => {
                    batch.sched.acquire_jobs();
                    // Contention tracks how many cores hold in-flight work
                    // right now; one active core makes both shared-resource
                    // penalties exactly zero-cost.
                    self.mem_sys
                        .set_active_cores(batch.sched.active_cores().max(1));
                    let Some((core, horizon)) = batch.sched.next_core_and_horizon() else {
                        holder = None;
                        batch.assert_stalled(&mut idle_spins);
                        continue;
                    };
                    idle_spins = 0;
                    let job = batch.sched.current(core).expect("running core has a job");
                    holder = Some((core, job, horizon));
                    (core, job)
                }
            };
            if self.step_job(&mut batch, core, job) {
                holder = None;
            }
        }
        self.finish_batch(batch)
    }

    /// Runs `job`'s next trace event on `core` (starting the job at its
    /// first dispatch) and advances the core's clock by the cycles it
    /// charged. Returns whether the job completed.
    fn step_job(&mut self, batch: &mut Batch<'_>, core: usize, job: usize) -> bool {
        if batch.runs[job].is_none() {
            // Lazy start at first dispatch, so bring-up cycles land on
            // the core that actually executes the invocation.
            let run = self.start(&batch.specs[job]);
            batch.sched.advance(core, run.account.total().raw());
            batch.runs[job] = Some(run);
        }
        let run = batch.runs[job].as_mut().expect("started above");
        let before = run.account.total();
        let events = &batch.traces[job].events;
        let cursor = &mut batch.cursors[job];
        if *cursor < events.len() {
            let event = events[*cursor];
            *cursor += 1;
            self.step_on(run, &event, core);
        }
        if !run.finished && *cursor >= events.len() {
            // Traces end with Exit, but tolerate truncated ones.
            self.finish_run(run, core);
        }
        batch
            .sched
            .advance(core, (run.account.total() - before).raw());
        if run.finished {
            batch.sched.complete(core);
        }
        run.finished
    }

    fn finish_batch(&mut self, batch: Batch<'_>) -> (Vec<RunStats>, SchedStats) {
        self.mem_sys.set_active_cores(1);
        let stats = batch
            .runs
            .iter()
            .map(|r| self.collect(r.as_ref().expect("scheduler runs every job")))
            .collect();
        (stats, batch.sched.stats().clone())
    }

    pub(crate) fn finish_run(&mut self, run: &mut FunctionRun, core: usize) {
        run.finished = true;

        // Library-init cycles belong to container setup (warm starts).
        let (su, sk) = run.soft.take_setup_cycles();
        self.charge(run, core, CycleBucket::Setup, "setup", su + sk);

        // Fragmentation: if the run was too short for a periodic sample,
        // take one now (before teardown empties the heap).
        if run.frag_total == 0 {
            self.sample_fragmentation(run, core);
        }

        // Allocator exit hook.
        let mut ctx = self.soft_ctx(&mut run.proc, core);
        let (u, k) = run.soft.on_exit(&mut ctx);
        self.charge(run, core, CycleBucket::UserFree, "mm", u);
        self.charge(run, core, CycleBucket::KernelMm, "kernel", k);

        // Memento teardown: the hardware page allocator returns the
        // function's entire small-object heap to the OS pool in one batch.
        if let (Some(dev), Some(mproc)) = (self.device.as_mut(), run.mproc.take()) {
            // Final sanitizer audit while the process state is still
            // intact (HOT entries, page table, bump pointers).
            if let Some(pid) = run.shadow_pid.take() {
                let san = self.san.as_mut().expect("shadow pid implies sanitizer");
                san.detach(pid, dev, &mproc, &self.mem);
            }
            let mut backend = OsBackend {
                kernel: &mut self.kernel,
            };
            let teardown = Cycles::new(dev.config().costs.arena_free_base);
            dev.detach_process(&mut self.mem, &mut backend, mproc, &[core]);
            self.charge(run, core, CycleBucket::HwPage, "arena_fill", teardown);
        }

        // OS teardown of remaining VMAs (the baseline's batch free at
        // exit; under Memento only software-managed mappings remain).
        let vmas: Vec<(VirtAddr, u64)> = run
            .proc
            .addr_space
            .iter()
            .map(|v| (v.start, v.len()))
            .collect();
        for (start, len) in vmas {
            let out = self
                .kernel
                .munmap(
                    &mut self.mem,
                    &mut self.mem_sys,
                    &mut self.tlbs[core],
                    core,
                    &mut run.proc,
                    start,
                    len,
                )
                .expect("teardown munmap");
            self.charge(run, core, CycleBucket::KernelMm, "kernel", out.cycles);
        }
        // Process switch-out at exit.
        let cs = self.kernel.context_switch(&mut self.tlbs[core]);
        self.charge(run, core, CycleBucket::KernelMm, "kernel", cs);
        // Nothing reads the object table after Exit; a finished run kept
        // for its statistics should not hold a slot per object it made.
        run.objects = ObjectTable::default();

        // Observability epilogue: fold layer statistics into the registry,
        // check span balance, and emit the Perfetto file if configured.
        // All untimed; runs after the last cycle has been charged.
        if self.obs.is_some() {
            self.ingest_layer_metrics(run);
            let obs = self.obs.as_mut().expect("checked above");
            obs.tracer().assert_closed();
            if let Some(path) = obs.config().path.clone() {
                std::fs::write(&path, obs.tracer().to_json().to_pretty())
                    .expect("write Perfetto trace file");
            }
        }
    }

    /// Copies the instrumented layers' counters/histograms into the
    /// metrics registry. Uses absolute (idempotent) writes so repeated
    /// run finishes on one machine never double-count.
    fn ingest_layer_metrics(&mut self, run: &FunctionRun) {
        let obs = self.obs.as_mut().expect("caller checked");
        let m = obs.metrics_mut();

        let mut tlb_lat = Log2Hist::default();
        let mut ts = memento_vm::tlb::TlbStats::default();
        for tlb in &self.tlbs {
            tlb_lat.merge(&tlb.hit_latency());
            let s = tlb.stats();
            ts.l1.hits += s.l1.hits;
            ts.l1.misses += s.l1.misses;
            ts.l2.hits += s.l2.hits;
            ts.l2.misses += s.l2.misses;
            ts.shootdowns += s.shootdowns;
            ts.flushes += s.flushes;
        }
        m.set_hist("tlb.hit_latency", tlb_lat);
        m.set("tlb.l1.hits", ts.l1.hits);
        m.set("tlb.l1.misses", ts.l1.misses);
        m.set("tlb.l2.hits", ts.l2.hits);
        m.set("tlb.l2.misses", ts.l2.misses);
        m.set("tlb.shootdowns", ts.shootdowns);
        m.set("tlb.flushes", ts.flushes);

        let mut walk_depth = Log2Hist::default();
        let mut ws = memento_vm::walker::WalkerStats::default();
        for walker in &self.walkers {
            walk_depth.merge(walker.depth_hist());
            let s = walker.stats();
            ws.walks.hits += s.walks.hits;
            ws.walks.misses += s.walks.misses;
            ws.pte_reads += s.pte_reads;
        }
        m.set_hist("walk.depth", walk_depth);
        m.set("walk.completed", ws.walks.hits);
        m.set("walk.faulted", ws.walks.misses);
        m.set("walk.pte_reads", ws.pte_reads);

        let ms = self.mem_sys.stats();
        m.set_hist("mem.demand_latency", self.mem_sys.demand_latency());
        m.set("mem.dram.row_hits", ms.dram.row_hits);
        m.set("mem.dram.row_misses", ms.dram.row_misses);
        m.set("mem.dram.read_lines", ms.dram.read_lines);
        m.set("mem.dram.write_lines", ms.dram.write_lines);
        m.set("mem.bypassed_fills", ms.bypassed_fills);

        let ks = self.kernel.stats();
        m.set_hist("kernel.fault_latency", self.kernel.fault_latency().clone());
        m.set("kernel.page_faults", ks.page_faults);
        m.set("kernel.mmaps", ks.mmaps);
        m.set("kernel.munmaps", ks.munmaps);
        m.set("kernel.context_switches", ks.context_switches);

        if let Some(dev) = self.device.as_ref() {
            let hs = dev.hot_stats_total();
            m.set("hot.alloc.hits", hs.alloc.hits);
            m.set("hot.alloc.misses", hs.alloc.misses);
            m.set("hot.free.hits", hs.free.hits);
            m.set("hot.free.misses", hs.free.misses);
            m.set("hot.flushes", hs.flushes);
            // Physical-page lifecycle: OS grants vs warm recycling.
            let ps = dev.page_stats();
            m.set("pool.refills", ps.pool_refills);
            m.set("pool.frames_granted", ps.frames_granted);
            m.set("pool.frames_recycled", ps.frames_recycled);
            m.set("pool.frames_returned", ps.frames_returned);
            m.set("pool.overflows", ps.pool_overflows);
            m.set("pool.exhausted", ps.pool_exhausted);
        }
        m.set("run.gc_runs", run.gc_runs);
        m.set("run.allocs_seen", run.allocs_seen);
    }

    /// Performs a context switch between time-shared runs: kernel cost plus
    /// a HOT flush under Memento (§6.6 multi-process study).
    pub(crate) fn context_switch(&mut self, from: &mut FunctionRun, core: usize) {
        let cs = self.kernel.context_switch(&mut self.tlbs[core]);
        self.charge(from, core, CycleBucket::KernelMm, "kernel", cs);
        if let (Some(dev), Some(mproc)) = (self.device.as_mut(), from.mproc.as_mut()) {
            let flush = dev.flush_hot(&mut self.mem, &mut self.mem_sys, core, mproc);
            self.charge(from, core, CycleBucket::HwFree, "mm", flush);
        }
    }

    /// Collects final statistics for a finished run. The machine is
    /// single-tenant per run for statistic purposes: use a fresh machine
    /// per measurement (time-shared experiments aggregate explicitly).
    pub(crate) fn collect(&self, run: &FunctionRun) -> RunStats {
        debug_assert!(run.finished, "collect before Exit");
        self.collect_inner(run)
    }

    /// Statistics for `run`'s current measurement window, finished or not
    /// (the warm driver collects per-invocation windows mid-run).
    pub(crate) fn collect_inner(&self, run: &FunctionRun) -> RunStats {
        let frames_now = self.kernel.frame_stats().clone();
        let mem_now = self.mem_sys.stats();
        let kernel_now = self.kernel.stats();
        let soft_now = run.soft.stats();
        let hot_now = self.device.as_ref().map(|d| d.hot_stats_total());
        let page_now = self.device.as_ref().map(|d| d.page_stats());
        let obj_now = self.device.as_ref().map(|d| d.obj_stats());
        let (mem_stats, kernel_stats, frames, soft_stats, hot, page, obj) = match &run.snapshot {
            Some(snap) => (
                mem_now.delta(&snap.mem),
                kernel_now.delta(snap.kernel),
                frames_now.delta(&snap.frames),
                soft_now.delta(snap.soft),
                hot_now.map(|h| h.delta(snap.hot.unwrap_or_default())),
                page_now.map(|p| p.delta(snap.page.unwrap_or_default())),
                obj_now.map(|o| o.delta(snap.obj.unwrap_or_default())),
            ),
            None => (
                mem_now, kernel_now, frames_now, soft_now, hot_now, page_now, obj_now,
            ),
        };
        // Fig. 11's metric is OS-level: "total number of physical pages
        // allocated during simulated execution". The entire Memento pool
        // (including the hardware-built Memento page table) is user-
        // attributed memory the process acquired for its heap; kernel
        // memory is what the OS itself allocates (process page tables,
        // metadata) — which Memento mostly eliminates.
        let user_pages =
            frames.get(FrameUse::UserHeap).aggregate + frames.get(FrameUse::MementoPool).aggregate;
        let kernel_pages =
            frames.get(FrameUse::PageTable).aggregate + frames.get(FrameUse::KernelMeta).aggregate;
        RunStats {
            name: run.spec.name.clone(),
            cycles: run.account.clone(),
            mem: mem_stats,
            kernel: kernel_stats,
            soft: Some(soft_stats),
            hot,
            page,
            obj,
            user_pages_agg: user_pages,
            kernel_pages_agg: kernel_pages,
            peak_pages: frames.peak_total(),
            gc_runs: run.gc_runs,
            arena_slot_idle_fraction: (run.frag_total > 0)
                .then(|| 1.0 - run.frag_live as f64 / run.frag_total as f64),
        }
    }

    /// Convenience: generates the trace for `spec`, runs it to completion,
    /// and returns the statistics.
    pub fn run(&mut self, spec: &WorkloadSpec) -> RunStats {
        self.run_trace(spec, &generate(spec))
    }

    /// Runs a pre-generated trace to completion: a one-job batch, which
    /// runs on core 0 with every contention mechanism inert (see
    /// [`Machine::run_scheduled`]). A trace without a trailing `Exit`
    /// finishes as if it had one.
    pub fn run_trace(&mut self, spec: &WorkloadSpec, trace: &Trace) -> RunStats {
        let batch = Batch::new(std::slice::from_ref(spec), vec![trace], self.cfg.cores(), 0);
        let (mut stats, _) = self.run_batch(batch, |_, _| {});
        stats.pop().expect("a one-job batch yields one run")
    }

    /// Ends one warm invocation without tearing the container down: the
    /// function returned, so everything it still holds dies now, but the
    /// process, allocator, device, pool, and Memento page table survive to
    /// serve the next request.
    ///
    /// The boundary's *memory* effects (object sweep, allocator decay,
    /// arena trim) land inside the measurement window — they are what make
    /// the next invocation warm — but its *cycles* are kept out of the
    /// request-time ledger: in a real deployment the sweep is the request's
    /// own frees replayed at once, and allocator decay runs on background
    /// threads (jemalloc's decay purging), neither on the request's
    /// critical path. The tracing layer still observes every charge.
    fn end_invocation(&mut self, run: &mut FunctionRun, core: usize) {
        let live_account = std::mem::replace(&mut run.account, CycleAccount::new());
        // Sweep whatever the GC already knows is dead.
        self.collect_now(run, core);
        // Remaining live objects die at function return. Free them through
        // the active design so fully-dead arenas are reclaimed into the
        // pool (hardware) and the software heap can decay — instead of
        // leaking every request's peak into the next one. In id order.
        for id in 0..run.objects.slots.len() as u64 {
            self.free_object(run, core, id);
        }
        // Go: the whole heap just died; run the collector regardless of
        // the growth trigger (the runtime GCs between requests).
        self.collect_now(run, core);
        // Warm-container quiesce: the per-class *current* arenas are the
        // only empty arenas still pinning pages (non-current arenas were
        // reclaimed online as they emptied). Dropping them recycles their
        // frames through the pool for the next invocation.
        if let (Some(dev), Some(mproc)) = (self.device.as_mut(), run.mproc.as_mut()) {
            let mut backend = OsBackend {
                kernel: &mut self.kernel,
            };
            let trim = dev.end_invocation_trim(
                &mut self.mem,
                &mut self.mem_sys,
                &mut backend,
                &mut self.tlbs,
                core,
                mproc,
            );
            self.charge(run, core, CycleBucket::HwPage, "arena_fill", trim);
            self.fan_out_events(run);
        }
        // Allocator end-of-request decay (jemalloc purge etc.).
        let mut ctx = self.soft_ctx(&mut run.proc, core);
        let (u, k) = run.soft.on_invocation_end(&mut ctx);
        self.charge(run, core, CycleBucket::UserFree, "mm", u);
        self.charge(run, core, CycleBucket::KernelMm, "kernel", k);
        // Library re-init (if the decay dropped it) belongs to container
        // setup, same as at exit; taking it each boundary also keeps the
        // ledger complete when a later re-init overwrites the stash.
        let (su, sk) = run.soft.take_setup_cycles();
        self.charge(run, core, CycleBucket::Setup, "setup", su + sk);
        run.account = live_account;
    }

    /// Serves one invocation of a warm container on core 0: replays the
    /// request `body`, reads the serving peak, quiesces at the boundary
    /// ([`Self::end_invocation`]) and collects the invocation's
    /// statistics. A `warm` invocation first opens a fresh measurement and
    /// frame window; the cold one keeps the window [`Self::start`] opened,
    /// so its statistics include container bring-up. Returns the
    /// statistics and the peak unreclaimable frames while the body ran
    /// (see [`Self::window_peak_unreclaimable`]).
    pub(crate) fn serve_invocation(
        &mut self,
        run: &mut FunctionRun,
        body: &[Event],
        warm: bool,
    ) -> (RunStats, u64) {
        if warm {
            self.begin_measurement(run);
            self.reset_frame_window();
        }
        for event in body {
            self.step_on(run, event, 0);
        }
        let serving_peak = self.window_peak_unreclaimable();
        self.end_invocation(run, 0);
        (self.collect_inner(run), serving_peak)
    }

    /// Runs `spec` as `n` back-to-back invocations in one warm container —
    /// the paper's §6.3 steady state. One process, one allocator, one
    /// Memento attachment: the device, pool, and Memento page table stay
    /// alive across invocations, so warm requests are served from recycled
    /// frames instead of fresh OS grants. Invocation 0 is the cold start,
    /// measured from container bring-up exactly as
    /// [`crate::WarmContainer::cold_start`] measures it; the `steady`
    /// window covers invocations `1..n` and excludes the final container
    /// teardown.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (a warm measurement needs at least one warm
    /// invocation after the cold one).
    pub fn run_invocations(&mut self, spec: &WorkloadSpec, n: usize) -> WarmRun {
        assert!(
            n >= 2,
            "warm run needs a cold and at least one warm invocation"
        );
        let trace = generate(spec);
        let mut run = self.start(spec);
        let mut invocations = Vec::with_capacity(n);
        let mut steady_snapshot = None;
        let mut steady_account = CycleAccount::new();
        let mut steady_gc_runs = 0u64;
        let mut steady_frag = (0u64, 0u64);
        for inv in 0..n {
            let (stats, _) = self.serve_invocation(&mut run, trace.body(), inv > 0);
            if inv == 1 {
                steady_snapshot.clone_from(&run.snapshot);
            }
            if inv >= 1 {
                steady_account.merge(&run.account);
                steady_gc_runs += run.gc_runs;
                steady_frag.0 += run.frag_live;
                steady_frag.1 += run.frag_total;
            }
            invocations.push(stats);
        }
        // Steady window: everything after the cold invocation, as one
        // delta against the state at the start of invocation 1.
        run.snapshot = steady_snapshot;
        run.account = steady_account;
        run.gc_runs = steady_gc_runs;
        run.frag_live = steady_frag.0;
        run.frag_total = steady_frag.1;
        let steady = self.collect_inner(&run);
        // Container teardown happens outside the measured window.
        self.finish_run(&mut run, 0);
        WarmRun {
            steady,
            invocations,
        }
    }

    /// Runs several functions time-shared on one core with round-robin
    /// quanta of `quantum_events` events (§6.6 multi-process study).
    /// Returns per-function statistics; context-switch and HOT-flush costs
    /// are charged to the switched-out function.
    pub fn run_timeshared(
        &mut self,
        specs: &[WorkloadSpec],
        quantum_events: usize,
    ) -> Vec<RunStats> {
        let traces = traces_for(specs);
        let mut runs: Vec<FunctionRun> = specs.iter().map(|s| self.start(s)).collect();
        let mut cursors = vec![0usize; specs.len()];
        loop {
            let mut progressed = false;
            for i in 0..runs.len() {
                if runs[i].finished {
                    continue;
                }
                let events = &traces[i].events;
                let end = (cursors[i] + quantum_events).min(events.len());
                for e in &events[cursors[i]..end] {
                    self.step_on(&mut runs[i], e, 0);
                }
                cursors[i] = end;
                progressed = true;
                if !runs[i].finished {
                    self.context_switch(&mut runs[i], 0);
                }
            }
            if !progressed {
                break;
            }
        }
        runs.iter().map(|r| self.collect(r)).collect()
    }

    /// Total page-fault count so far (test/diagnostic accessor).
    pub fn page_faults(&self) -> u64 {
        self.kernel.stats().page_faults
    }

    /// Physical frames currently resident across every use (user heap,
    /// Memento pool, page tables, kernel metadata) — a node's live memory
    /// footprint as the cluster layer accounts it.
    pub fn resident_pages(&self) -> u64 {
        self.kernel.frame_stats().current_total()
    }

    /// Keep-alive park: hands the hardware pool's idle reserve back to the
    /// OS. A warm container waiting for its next request pins recycled
    /// frames in the device pool; they back no mapping, so the platform
    /// can reclaim them without walks or shootdowns — the cheap idle
    /// reclaim the pool architecture enables (software baselines have no
    /// equivalent: their allocator caches hold mapped heap pages). The
    /// next invocation re-grants through the normal low-water refill,
    /// whose cost lands in that invocation's ledger. Returns frames shed;
    /// no-op (0) on non-Memento machines.
    pub fn park(&mut self) -> u64 {
        let Some(dev) = self.device.as_mut() else {
            return 0;
        };
        let mut backend = OsBackend {
            kernel: &mut self.kernel,
        };
        dev.shed_pool(&mut backend, 0)
    }

    /// Restarts the resident-peak window (see
    /// [`Machine::window_peak_unreclaimable`]).
    pub fn reset_frame_window(&mut self) {
        self.kernel.reset_frame_window();
        if let Some(dev) = self.device.as_mut() {
            dev.reset_window();
        }
    }

    /// Peak *unreclaimable* frames since the last window reset: non-pool
    /// kernel uses (user heap, page tables, kernel metadata) plus the
    /// frames the device actually mapped into the process. The pool's free
    /// staging is excluded — those frames back no mapping and
    /// [`Machine::park`] returns them with pure bookkeeping, so a fleet
    /// accountant treats them like the OS free list, not like used
    /// memory. (Slight upper bound: the two peaks need not coincide.)
    pub fn window_peak_unreclaimable(&self) -> u64 {
        let mapped = self
            .device
            .as_ref()
            .map(|d| d.window_peak_mapped())
            .unwrap_or(0);
        self.kernel.frame_stats().window_peak_nonpool() + mapped
    }

    /// Currently-unreclaimable frames: resident minus the device pool's
    /// free staging (see [`Machine::window_peak_unreclaimable`]).
    pub fn unreclaimable_pages(&self) -> u64 {
        let pool_free = self
            .device
            .as_ref()
            .map(|d| d.pool_len() as u64)
            .unwrap_or(0);
        self.kernel.frame_stats().current_total() - pool_free
    }

    /// Peak concurrently-resident frames so far (per-use peaks summed —
    /// the same upper bound `RunStats::peak_pages` reports).
    pub fn peak_resident_pages(&self) -> u64 {
        self.kernel.frame_stats().peak_total()
    }

    /// Cycles to restore this machine's container from a REAP-style
    /// snapshot: one mmap-shaped syscall to re-establish the mappings,
    /// then an eager prefetch of the stable working set — the currently
    /// unreclaimable frames — at the kernel's populate cost per page.
    /// This replaces a full cold boot's instruction replay with a bulk
    /// page-in, which is why a snapshot restore lands strictly between a
    /// warm hit and a cold boot.
    pub fn snapshot_restore_cycles(&self) -> u64 {
        let costs = self.kernel.costs();
        costs.syscall_overhead
            + costs.mmap_work
            + self.unreclaimable_pages() * costs.populate_per_page
    }

    /// The floor a pressure-driven squeeze cannot reclaim from an
    /// idle-warm container: page tables plus kernel bookkeeping. Data
    /// pages can be written back and dropped under pressure, but the
    /// tables describing the address space (and the kernel's metadata for
    /// it) must survive for the container to stay warm at all.
    pub fn squeeze_floor_pages(&self) -> u64 {
        use memento_kernel::buddy::FrameUse;
        let stats = self.kernel.frame_stats();
        stats.get(FrameUse::PageTable).current + stats.get(FrameUse::KernelMeta).current
    }

    /// Per-frame cycle cost of re-faulting pages a squeeze reclaimed,
    /// paid by the container's next warm start. A Memento machine
    /// re-grants through the hardware pool (buddy refill + populate,
    /// no per-page fault trap); a baseline machine demand-faults every
    /// page back in (full fault handling + buddy allocation) — the
    /// hardware-assisted cost edge the reclamation study measures.
    pub fn squeeze_refault_unit_cycles(&self) -> u64 {
        let costs = self.kernel.costs();
        if self.device.is_some() {
            costs.buddy_alloc + costs.populate_per_page
        } else {
            costs.fault_work + costs.buddy_alloc
        }
    }

    // --- persistent ephemeral memory (park-to-PM) ---------------------

    /// Captures the device-visible Memento state of `run`'s process as
    /// persistent-checkpoint records: live arena bitmaps, AAC bump
    /// pointers, HOT-resident headers, and the Memento page table. A
    /// baseline machine has no device state to persist — its image is
    /// empty, so a PM restore degenerates to demand-refaulting the whole
    /// working set (the cost edge [`Machine::pm_restore_cycles`] prices).
    pub(crate) fn pm_records(&self, run: &FunctionRun) -> Vec<memento_pmem::PmRecord> {
        use memento_pmem::PmRecord;
        let (Some(dev), Some(mproc)) = (self.device.as_ref(), run.mproc.as_ref()) else {
            return Vec::new();
        };
        let state = dev.pm_state(&self.mem, mproc);
        let mut out = Vec::with_capacity(
            state.arenas.len() + state.hot.len() + state.bumps.len() + state.mappings.len(),
        );
        for a in &state.arenas {
            out.push(PmRecord::Arena {
                va: a.va.raw(),
                class: a.class.index() as u8,
                bitmap: a.bitmap,
                header_pa: a.header_pa.raw(),
            });
        }
        for h in &state.hot {
            out.push(PmRecord::HotHeader {
                core: h.core as u32,
                class: h.class.index() as u8,
                va: h.va.raw(),
                bitmap: h.bitmap,
                header_pa: h.header_pa.raw(),
            });
        }
        for &(core, class, next) in &state.bumps {
            out.push(PmRecord::Bump {
                core: core as u32,
                class: class.index() as u8,
                next,
            });
        }
        for &(va, pa) in &state.mappings {
            out.push(PmRecord::PageMap {
                va: va.raw(),
                pa: pa.raw(),
            });
        }
        out
    }

    /// The PM cost model for this machine: NVM line costs from the paper
    /// defaults, with the demand-refault fallback priced by this kernel's
    /// own fault path (hardware pool refill on Memento, full fault
    /// handling on baselines) so replay-vs-refault decisions stay
    /// consistent with the reclamation study's unit costs.
    pub(crate) fn pm_costs(&self) -> memento_pmem::PmCosts {
        memento_pmem::PmCosts {
            refault_page_cycles: self.squeeze_refault_unit_cycles(),
            ..memento_pmem::PmCosts::paper_default()
        }
    }

    /// Cycles to write the container's working set out to PM alongside a
    /// checkpoint's metadata records: every currently-unreclaimable frame
    /// is copied at the kernel's populate cost. Paid off the latency path
    /// (the container is idle when it parks), so schedulers account it as
    /// background work, not service time.
    pub(crate) fn pm_persist_data_cycles(&self) -> u64 {
        self.unreclaimable_pages() * self.kernel.costs().populate_per_page
    }

    /// Cycles to bring a parked-to-PM container back to serving: one
    /// mmap-shaped syscall to re-establish mappings, then either a replay
    /// of the sealed image's records (Memento: arena headers, bumps, HOT
    /// state, page-table entries — the data itself is byte-addressable in
    /// PM) or, for an empty image (baselines persist no device state), a
    /// demand-refault of the whole working set. This is why park-to-PM
    /// restores land strictly between a warm hit and a snapshot restore
    /// on Memento machines, and degrade toward the snapshot cost on
    /// baselines.
    pub(crate) fn pm_restore_cycles(&self, image: &memento_pmem::PmImage) -> u64 {
        let costs = self.kernel.costs();
        let base = costs.syscall_overhead + costs.mmap_work;
        if image.is_empty() {
            base + self.unreclaimable_pages() * self.squeeze_refault_unit_cycles()
        } else {
            base + self.pm_costs().restore_cycles(image).0
        }
    }

    /// Emits the park transition through the device event log (so the
    /// sanitizer and observability layers see it) and fans the drained
    /// events out, exactly like the hardware alloc/free paths. No-op on
    /// baseline machines — they have no device, hence no event log.
    pub(crate) fn note_pm_parked(&mut self, run: &FunctionRun, epoch: u64, records: u64) {
        if let Some(dev) = self.device.as_mut() {
            dev.note_pm_parked(epoch, records);
            self.fan_out_events(run);
        }
    }

    /// Emits the restore transition (see [`Machine::note_pm_parked`]).
    pub(crate) fn note_pm_restored(&mut self, run: &FunctionRun, epoch: u64) {
        if let Some(dev) = self.device.as_mut() {
            dev.note_pm_restored(epoch);
            self.fan_out_events(run);
        }
    }

    /// Runs the sanitizer's crash-injected recovery audit for one
    /// park-to-PM checkpoint (no-op when the sanitizer is off). `pool`
    /// must be the container's pool *before* the checkpoint runs.
    pub(crate) fn audit_pm_recovery(
        &mut self,
        pool: &memento_pmem::PmPool,
        records: &[memento_pmem::PmRecord],
        seed: u64,
    ) {
        if let Some(san) = self.san.as_mut() {
            san.audit_pm_recovery(pool, records, seed);
        }
    }

    /// Physical-page lifecycle audit of the device's pool, if the machine
    /// runs a Memento design (test/diagnostic accessor).
    pub fn pool_audit(&self) -> Option<memento_core::page_alloc::PoolAudit> {
        self.device.as_ref().map(|d| d.pool_audit())
    }

    /// Whole-machine memory-system counters since construction, summed
    /// across every core (unlike per-run windows, which snapshot at each
    /// job's bring-up and therefore overlap under co-location).
    pub fn mem_stats(&self) -> memento_cache::MemSystemStats {
        self.mem_sys.stats()
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("mode", &self.cfg.mode)
            .field("kernel", &self.kernel.stats())
            .finish()
    }
}

// The parallel experiment harness moves machines, in-flight runs, configs,
// and their statistics across worker threads; keep them Send-clean by
// construction so a trait-object regression surfaces here, not in a
// distant `thread::scope` error.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<FunctionRun>();
    assert_send::<SystemConfig>();
    assert_send::<RunStats>();
};

/// The state of one scheduled batch (see [`Machine::run_scheduled_with`]).
struct Batch<'a> {
    specs: &'a [WorkloadSpec],
    traces: Vec<&'a Trace>,
    /// Each job's run, started at its first dispatch.
    runs: Vec<Option<FunctionRun>>,
    /// Each job's next trace event.
    cursors: Vec<usize>,
    sched: Scheduler,
}

impl<'a> Batch<'a> {
    /// A batch of one job per spec; `traces[j]` is job `j`'s trace.
    fn new(specs: &'a [WorkloadSpec], traces: Vec<&'a Trace>, cores: usize, seed: u64) -> Self {
        debug_assert_eq!(specs.len(), traces.len(), "one trace per job");
        Batch {
            specs,
            traces,
            runs: specs.iter().map(|_| None).collect(),
            cursors: vec![0; specs.len()],
            sched: Scheduler::new(cores, specs.len(), seed),
        }
    }

    /// No core can run: only stalled work may explain that, and only for
    /// so long.
    fn assert_stalled(&self, idle_spins: &mut u32) {
        assert!(
            self.sched.has_stalled_work(),
            "scheduler wedged: no runnable core and no stalled work"
        );
        *idle_spins += 1;
        assert!(
            *idle_spins < 1 << 20,
            "stalled work never released (hook missing an unstall?)"
        );
    }
}

/// Per-job traces for a batch. [`generate`] depends only on the spec, so
/// each distinct spec is generated once and jobs with equal specs share
/// its trace.
fn traces_for(specs: &[WorkloadSpec]) -> Vec<Rc<Trace>> {
    let mut traces: Vec<Rc<Trace>> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let trace = match specs[..i].iter().position(|s| s == spec) {
            Some(j) => Rc::clone(&traces[j]),
            None => Rc::new(generate(spec)),
        };
        traces.push(trace);
    }
    traces
}

#[cfg(test)]
mod equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{bandwidth_reduction, speedup};
    use memento_workloads::suite;

    fn small_spec(name: &str) -> WorkloadSpec {
        small_spec_n(name, 300_000)
    }

    fn small_spec_n(name: &str, insts: u64) -> WorkloadSpec {
        let mut s = suite::by_name(name).expect("workload exists");
        s.total_instructions = insts; // keep unit tests fast
        s
    }

    #[test]
    fn baseline_runs_python_function() {
        let spec = small_spec("aes");
        let stats = Machine::new(SystemConfig::baseline()).run(&spec);
        assert!(stats.total_cycles() > Cycles::new(100_000));
        assert!(stats.kernel.page_faults > 0, "lazy mmap must fault");
        assert!(stats.kernel.mmaps > 0);
        assert!(stats.mm_fraction() > 0.03, "allocation-heavy workload");
        assert!(stats.hot.is_none());
    }

    #[test]
    fn memento_runs_and_wins() {
        // Long enough that compulsory HOT misses stop dominating.
        let spec = small_spec_n("aes", 2_500_000);
        let base = Machine::new(SystemConfig::baseline()).run(&spec);
        let mem = Machine::new(SystemConfig::memento()).run(&spec);
        let s = speedup(&base, &mem);
        assert!(s > 1.0, "memento must be faster, got {s}");
        let hot = mem.hot.expect("hot stats present");
        assert!(
            hot.alloc.hit_rate() > 0.95,
            "alloc hit rate {:?}",
            hot.alloc
        );
    }

    #[test]
    fn memento_reduces_page_faults() {
        let spec = small_spec("html");
        let mut base_machine = Machine::new(SystemConfig::baseline());
        base_machine.run(&spec);
        let base_faults = base_machine.page_faults();
        let mut mem_machine = Machine::new(SystemConfig::memento());
        mem_machine.run(&spec);
        let mem_faults = mem_machine.page_faults();
        // Large objects (>512B) stay on the software path and still fault;
        // the small-object heap must fault-free under Memento.
        assert!(
            mem_faults < base_faults,
            "faults: baseline {base_faults}, memento {mem_faults}"
        );
    }

    #[test]
    fn bypass_reduces_dram_reads() {
        let spec = small_spec("html");
        let with = Machine::new(SystemConfig::memento()).run(&spec);
        let without = Machine::new(SystemConfig::memento_no_bypass()).run(&spec);
        assert!(with.mem.bypassed_fills > 0);
        assert!(
            with.dram().read_lines <= without.dram().read_lines,
            "bypass cannot increase DRAM reads"
        );
    }

    #[test]
    fn memento_reduces_bandwidth() {
        let spec = small_spec("UM");
        let base = Machine::new(SystemConfig::baseline()).run(&spec);
        let mem = Machine::new(SystemConfig::memento()).run(&spec);
        let red = bandwidth_reduction(&base, &mem);
        assert!(red > 0.0, "bandwidth reduction {red} must be positive");
    }

    #[test]
    fn go_function_defers_frees_to_exit() {
        let spec = small_spec("aes-go");
        let stats = Machine::new(SystemConfig::baseline()).run(&spec);
        assert_eq!(stats.gc_runs, 0, "function heaps stay below GC minimum");
        // Baseline Go: no individual frees, teardown via munmap.
        assert_eq!(stats.soft.expect("soft stats").frees, 0);
        assert!(stats.kernel.munmaps > 0);
    }

    #[test]
    fn platform_service_collects_garbage() {
        let mut spec = suite::by_name("invoke").expect("platform workload");
        // Enough allocation volume to cross the GC heap minimum.
        spec.total_instructions = 6_000_000;
        let stats = Machine::new(SystemConfig::baseline()).run(&spec);
        assert!(stats.gc_runs > 0, "platform segment must GC");
        assert!(stats.soft.expect("soft").frees > 0, "sweep frees objects");
    }

    #[test]
    fn mallacc_sits_between_baseline_and_memento_for_cpp() {
        let spec = small_spec("US");
        let base = Machine::new(SystemConfig::baseline()).run(&spec);
        let mallacc = Machine::new(SystemConfig::ideal_mallacc()).run(&spec);
        let memento = Machine::new(SystemConfig::memento()).run(&spec);
        let s_mallacc = speedup(&base, &mallacc);
        let s_memento = speedup(&base, &memento);
        assert!(s_mallacc > 1.0, "mallacc speedup {s_mallacc}");
        assert!(
            s_memento > s_mallacc,
            "memento {s_memento} must beat mallacc {s_mallacc}"
        );
    }

    #[test]
    fn populate_increases_footprint() {
        let spec = small_spec("aes-go");
        let lazy = Machine::new(SystemConfig::baseline()).run(&spec);
        let eager = Machine::new(SystemConfig::baseline_populate()).run(&spec);
        assert!(
            eager.user_pages_agg > lazy.user_pages_agg * 2,
            "populate: {} vs lazy {}",
            eager.user_pages_agg,
            lazy.user_pages_agg
        );
        assert!(eager.kernel.page_faults < lazy.kernel.page_faults);
    }

    #[test]
    fn coldstart_dilutes_speedup() {
        let spec = small_spec("bfs");
        let base = Machine::new(SystemConfig::baseline()).run(&spec);
        let mem = Machine::new(SystemConfig::memento()).run(&spec);
        let warm = speedup(&base, &mem);

        let mut cold_cfg_b = SystemConfig::baseline();
        cold_cfg_b.coldstart_cycles = base.total_cycles().raw() / 2;
        let mut cold_cfg_m = SystemConfig::memento();
        cold_cfg_m.coldstart_cycles = cold_cfg_b.coldstart_cycles;
        let base_c = Machine::new(cold_cfg_b).run(&spec);
        let mem_c = Machine::new(cold_cfg_m).run(&spec);
        let cold = speedup(&base_c, &mem_c);
        assert!(cold > 1.0 && cold < warm, "cold {cold} vs warm {warm}");
    }

    #[test]
    fn timeshared_runs_complete() {
        let specs: Vec<WorkloadSpec> = ["aes", "jl"]
            .iter()
            .map(|n| small_spec_n(n, 1_000_000))
            .collect();
        let mut machine = Machine::new(SystemConfig::memento());
        let stats = machine.run_timeshared(&specs, 2000);
        assert_eq!(stats.len(), 2);
        for s in &stats {
            assert!(s.total_cycles() > Cycles::ZERO);
        }
        // HOT was flushed at least once per switch.
        let hot = stats[0].hot.expect("hot stats");
        assert!(hot.flushes > 0);
    }

    #[test]
    fn one_job_on_one_core_has_no_steals_or_dram_queueing() {
        // Contention is inert at N=1: the one job stays on its core and
        // the core's cycles are the job's. Equality with the serial loop
        // is `equivalence::cold_runs_match_the_serial_oracle`.
        let spec = small_spec("aes");
        let (mut batch, sched) = Machine::new(SystemConfig::memento()).run_scheduled(&[spec], 42);
        let scheduled = batch.remove(0);
        assert_eq!(scheduled.mem.dram_queue_cycles, 0);
        assert_eq!(sched.steals, 0);
        assert_eq!(sched.per_core_jobs, vec![1]);
        assert_eq!(sched.per_core_cycles, vec![scheduled.total_cycles().raw()]);
    }

    #[test]
    fn trace_without_exit_matches_full_trace() {
        // `Trace::from_json` accepts a trace with no trailing Exit; the
        // run must still tear down exactly as the full trace does.
        for cfg in [SystemConfig::baseline(), SystemConfig::memento()] {
            let spec = small_spec("html");
            let full = generate(&spec);
            let truncated = Trace {
                name: full.name.clone(),
                events: full.body().to_vec(),
            };
            assert!(truncated.events.len() < full.events.len());
            let a = Machine::new(cfg.clone()).run_trace(&spec, &full);
            let b = Machine::new(cfg).run_trace(&spec, &truncated);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn scheduled_batch_is_seed_deterministic() {
        let specs: Vec<WorkloadSpec> = ["aes", "jl", "ir", "aes"]
            .iter()
            .map(|n| small_spec_n(n, 400_000))
            .collect();
        let cfg = SystemConfig::memento().with_cores(2);
        let (a, sa) = Machine::new(cfg.clone()).run_scheduled(&specs, 7);
        let (b, sb) = Machine::new(cfg).run_scheduled(&specs, 7);
        assert_eq!(sa, sb, "scheduler counters must repeat exactly");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total_cycles(), y.total_cycles());
            assert_eq!(x.mem.dram, y.mem.dram);
        }
        // Both cores did work and paid DRAM queueing while co-resident.
        assert!(sa.per_core_jobs.iter().all(|&j| j > 0));
        assert!(a.iter().map(|s| s.mem.dram_queue_cycles).sum::<u64>() > 0);
    }

    #[test]
    fn core_count_comes_from_the_memory_system() {
        // A config built with a two-core memory system runs on two cores,
        // exactly as `with_cores(2)` does.
        let specs = [small_spec_n("aes", 200_000), small_spec_n("jl", 200_000)];
        let literal = SystemConfig {
            mem: memento_cache::MemSystemConfig::paper_default(2),
            ..SystemConfig::memento()
        };
        let (a, sa) = Machine::new(literal).run_scheduled(&specs, 5);
        let (b, sb) = Machine::new(SystemConfig::memento().with_cores(2)).run_scheduled(&specs, 5);
        assert_eq!(sa, sb);
        assert_eq!(unnamed(&a), unnamed(&b));
    }

    /// Every field of `stats` but the workload name, for equality checks.
    fn unnamed(stats: &[RunStats]) -> Vec<String> {
        stats
            .iter()
            .map(|s| {
                format!(
                    "{:?}",
                    RunStats {
                        name: String::new(),
                        ..s.clone()
                    }
                )
            })
            .collect()
    }

    #[test]
    fn batches_sharing_a_trace_match_separately_generated_ones() {
        // `a, b, a, a`: the repeated `a`s share one trace. Renamed, they
        // are distinct specs and each gets a trace of its own.
        let a = small_spec_n("aes", 200_000);
        let b = small_spec_n("jl", 200_000);
        let shared = vec![a.clone(), b, a.clone(), a];
        let mut cloned = shared.clone();
        cloned[2].name = "aes-2".into();
        cloned[3].name = "aes-3".into();
        assert_eq!(Rc::strong_count(&traces_for(&shared)[0]), 3);
        assert_eq!(Rc::strong_count(&traces_for(&cloned)[0]), 1);
        for cfg in [SystemConfig::baseline(), SystemConfig::memento()] {
            let cfg = cfg.with_cores(2);
            let (a, sa) = Machine::new(cfg.clone()).run_scheduled(&shared, 3);
            let (b, sb) = Machine::new(cfg.clone()).run_scheduled(&cloned, 3);
            assert_eq!(sa, sb);
            assert_eq!(unnamed(&a), unnamed(&b));
            let a = Machine::new(cfg.clone()).run_timeshared(&shared, 500);
            let b = Machine::new(cfg).run_timeshared(&cloned, 500);
            assert_eq!(unnamed(&a), unnamed(&b));
        }
    }

    #[test]
    fn scheduled_colocation_is_no_faster_than_solo() {
        let spec = small_spec_n("aes", 600_000);
        let solo = Machine::new(SystemConfig::memento()).run(&spec);
        let cfg = SystemConfig::memento().with_cores(2);
        let (pair, _) =
            Machine::new(cfg).run_scheduled(&[spec.clone(), small_spec_n("jl", 600_000)], 1);
        assert!(
            pair[0].total_cycles() >= solo.total_cycles(),
            "contention can only add cycles: colocated {} vs solo {}",
            pair[0].total_cycles(),
            solo.total_cycles()
        );
    }

    #[test]
    fn fragmentation_is_low() {
        let spec = small_spec_n("US", 1_500_000);
        let stats = Machine::new(SystemConfig::memento()).run(&spec);
        let frag = stats.arena_slot_idle_fraction.expect("measured");
        assert!((0.0..=0.95).contains(&frag), "idle fraction {frag}");
        // The comparative claim (Â§6.6): hardware fragmentation within a few
        // percent of the software allocator's.
        let base = Machine::new(SystemConfig::baseline()).run(&spec);
        let base_frag = base.arena_slot_idle_fraction.expect("measured");
        assert!(
            (frag - base_frag).abs() < 0.25,
            "hardware {frag} vs software {base_frag}"
        );
    }
}
