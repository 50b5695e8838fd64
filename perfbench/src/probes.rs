//! Host-cost probes: each drives a fixed operation stream into one public
//! function of one layer and reports host nanoseconds per operation,
//! together with how many cache accesses and TLB lookups each operation
//! made. Attribution subtracts those lower-layer costs, so a layer is
//! charged only its marginal cost (an LLC miss does not also count its L1
//! lookup).

use crate::scenario::{specs, FLEET_MIX};
use memento_cache::{AccessKind, MemSystem, MemSystemConfig};
use memento_cluster::EventHeap;
use memento_core::device::{MementoConfig, MementoDevice};
use memento_core::page_alloc::PoolBackend;
use memento_core::region::MementoRegion;
use memento_kernel::buddy::{BuddyAllocator, FrameUse};
use memento_kernel::costs::KernelCosts;
use memento_kernel::kernel::{Kernel, MmapFlags, Process};
use memento_pmem::{PmCosts, PmPool, PmRecord};
use memento_simcore::addr::VirtAddr;
use memento_simcore::physmem::{Frame, PhysMem};
use memento_simcore::{PhysAddr, CACHE_LINE_SIZE, PAGE_SIZE};
use memento_softalloc::{AllocCtx, GoAlloc, JeMalloc, PyMalloc, SoftwareAllocator};
use memento_vm::tlb::Tlb;
use memento_vm::walker::PageWalker;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed samples per probe (after one untimed warm-up sample); the
/// reported cost is their median.
const SAMPLES: usize = 5;

/// One probe's result, per operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    /// Host nanoseconds.
    pub ns: f64,
    /// Cache-hierarchy accesses the operation made.
    pub accesses: f64,
    /// TLB lookups the operation made.
    pub lookups: f64,
}

/// Every probe, keyed by its metric name.
pub type Probes = BTreeMap<&'static str, Probe>;

/// Median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median host ns per op over the samples. `sample` runs `ops`
/// operations and returns the time they took, so untimed per-sample
/// bookkeeping stays out of the figure.
fn per_op(ops: u64, mut sample: impl FnMut() -> Duration) -> f64 {
    sample();
    median(
        (0..SAMPLES)
            .map(|_| sample().as_nanos() as f64 / ops as f64)
            .collect(),
    )
}

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

fn accesses(sys: &MemSystem) -> u64 {
    let s = sys.stats();
    s.l1i.demand.hits + s.l1i.demand.misses + s.l1d.demand.hits + s.l1d.demand.misses
}

fn lookups(tlb: &Tlb) -> u64 {
    let s = tlb.stats();
    s.l1.hits + s.l1.misses
}

/// A frame source for the Memento device that never runs dry.
struct BumpOs(u64);

impl PoolBackend for BumpOs {
    fn grant_frames(&mut self, n: u64) -> Vec<Frame> {
        let start = self.0;
        self.0 += n;
        (start..start + n).map(Frame::from_number).collect()
    }
    fn accept_frames(&mut self, _frames: &[Frame]) {}
}

/// Machine state a kernel or allocator operation runs against.
struct Host {
    kernel: Kernel,
    walker: PageWalker,
    mem: PhysMem,
    sys: MemSystem,
    tlb: Tlb,
    proc: Process,
}

impl Host {
    fn new() -> Host {
        let mut mem = PhysMem::new(1 << 30);
        let mut kernel = Kernel::boot(&mut mem, KernelCosts::calibrated());
        let proc = kernel.create_process(&mut mem);
        Host {
            kernel,
            walker: PageWalker::new(),
            mem,
            sys: MemSystem::new(MemSystemConfig::paper_default(1)),
            tlb: Tlb::default(),
            proc,
        }
    }

    fn ctx(&mut self) -> AllocCtx<'_> {
        AllocCtx {
            kernel: &mut self.kernel,
            walker: &mut self.walker,
            mem: &mut self.mem,
            mem_sys: &mut self.sys,
            tlb: &mut self.tlb,
            proc: &mut self.proc,
            core: 0,
        }
    }

    fn mmap(&mut self, pages: u64, populate: bool) -> VirtAddr {
        self.kernel
            .mmap(
                &mut self.mem,
                &mut self.sys,
                &mut self.tlb,
                0,
                &mut self.proc,
                pages * PAGE_SIZE as u64,
                MmapFlags { populate },
            )
            .expect("probe mapping fits")
            .addr
    }
}

/// `generator::generate` over the `html` trace of `measured_fleet`, per
/// generated event.
fn generate() -> Probe {
    let spec = specs(&FLEET_MIX[..1], 8).remove(0);
    let events = memento_workloads::generate(&spec).events.len() as u64;
    let ns = per_op(events, || {
        timed(|| {
            black_box(memento_workloads::generate(black_box(&spec)));
        })
    });
    Probe {
        ns,
        ..Probe::default()
    }
}

/// `MemSystem::access` with `cores` active: one resident line, or a line
/// stream four times the LLC so every access misses to DRAM.
fn cache(cores: usize, miss: bool) -> Probe {
    const OPS: u64 = 200_000;
    let mut sys = MemSystem::new(MemSystemConfig::paper_default(cores));
    sys.set_active_cores(cores);
    let lines = 4 * sys.config().llc.size_bytes as u64 / CACHE_LINE_SIZE as u64;
    let mut i = 0u64;
    let ns = per_op(OPS, || {
        timed(|| {
            for _ in 0..OPS {
                let line = if miss { i % lines } else { 0 };
                i += 1;
                let addr = PhysAddr::new(0x10_0000 + line * CACHE_LINE_SIZE as u64);
                black_box(sys.access(0, AccessKind::Read, addr));
            }
        })
    });
    Probe {
        ns,
        accesses: 1.0,
        ..Probe::default()
    }
}

/// `Tlb::lookup` of a resident page.
fn tlb_hit() -> Probe {
    const OPS: u64 = 200_000;
    let mut tlb = Tlb::default();
    let va = VirtAddr::new(0x4000_0000);
    tlb.insert(va, Frame::from_number(7));
    let ns = per_op(OPS, || {
        timed(|| {
            for _ in 0..OPS {
                black_box(tlb.lookup(black_box(va)));
            }
        })
    });
    Probe {
        ns,
        lookups: 1.0,
        ..Probe::default()
    }
}

/// `Tlb::lookup` missing both levels, then `PageWalker::walk`, over a
/// populated mapping far beyond the TLB reach.
fn tlb_miss_walk() -> Probe {
    const PAGES: u64 = 16_384;
    let mut h = Host::new();
    let base = h.mmap(PAGES, true);
    let root = h.proc.addr_space.page_table.root();
    let mut tlb = Tlb::default();
    let mut i = 0u64;
    let before = accesses(&h.sys);
    let ns = per_op(PAGES, || {
        timed(|| {
            for _ in 0..PAGES {
                let va = base.add((i % PAGES) * PAGE_SIZE as u64);
                i += 1;
                black_box(tlb.lookup(va));
                black_box(h.walker.walk(&mut h.sys, &h.mem, 0, root, va));
            }
        })
    });
    Probe {
        ns,
        accesses: (accesses(&h.sys) - before) as f64 / i as f64,
        lookups: 1.0,
    }
}

/// `Kernel::handle_page_fault` on fresh pages of an anonymous mapping
/// (the mapping and its unmapping are untimed).
fn demand_fault() -> Probe {
    const PAGES: u64 = 4_096;
    let mut h = Host::new();
    let (mut faults, mut acc) = (0u64, 0u64);
    let ns = per_op(PAGES, || {
        let base = h.mmap(PAGES, false);
        let before = accesses(&h.sys);
        let spent = timed(|| {
            for p in 0..PAGES {
                let va = base.add(p * PAGE_SIZE as u64);
                let fault = h.kernel.handle_page_fault(
                    &mut h.mem,
                    &mut h.sys,
                    &mut h.tlb,
                    0,
                    &mut h.proc,
                    va,
                );
                black_box(fault.expect("fault inside the mapping"));
            }
        });
        faults += PAGES;
        acc += accesses(&h.sys) - before;
        h.kernel
            .munmap(
                &mut h.mem,
                &mut h.sys,
                &mut h.tlb,
                0,
                &mut h.proc,
                base,
                PAGES * PAGE_SIZE as u64,
            )
            .expect("unmap the probe mapping");
        spent
    });
    Probe {
        ns,
        accesses: acc as f64 / faults as f64,
        ..Probe::default()
    }
}

/// `BuddyAllocator::alloc` + `free` of one frame.
fn buddy_pair() -> Probe {
    const OPS: u64 = 200_000;
    let mut buddy = BuddyAllocator::new(Frame::from_number(1 << 10), Frame::from_number(1 << 18));
    let ns = per_op(OPS, || {
        timed(|| {
            for _ in 0..OPS {
                let f = buddy.alloc(FrameUse::UserHeap).expect("frames available");
                buddy.free(black_box(f), FrameUse::UserHeap);
            }
        })
    });
    Probe {
        ns,
        ..Probe::default()
    }
}

/// `MementoDevice::obj_alloc` + `obj_free` of a 48-byte object: a HOT hit
/// pair, or (`miss`) the same after a HOT flush, so the alloc misses.
fn obj(miss: bool) -> Probe {
    const OPS: u64 = 100_000;
    let mut mem = PhysMem::new(1 << 30);
    let pointer_block = mem.alloc_frame().expect("pointer-block frame").base_addr();
    let mut dev = MementoDevice::new(MementoConfig::paper_default(), 1, pointer_block);
    let mut os = BumpOs(1 << 12);
    let mut sys = MemSystem::new(MemSystemConfig::paper_default(1));
    let mut tlbs = vec![Tlb::default()];
    let mut proc = dev
        .attach_process(&mut mem, &mut os, MementoRegion::standard())
        .expect("attach with live backend");
    let (mut ops, mut acc) = (0u64, 0u64);
    let ns = per_op(OPS, || {
        let before = accesses(&sys);
        let spent = timed(|| {
            for _ in 0..OPS {
                if miss {
                    dev.flush_hot(&mut mem, &mut sys, 0, &mut proc);
                }
                let a = dev
                    .obj_alloc(&mut mem, &mut sys, &mut os, 0, &mut proc, 48)
                    .expect("alloc");
                dev.obj_free(&mut mem, &mut sys, &mut os, &mut tlbs, 0, &mut proc, a.addr)
                    .expect("free");
            }
        });
        ops += OPS;
        acc += accesses(&sys) - before;
        spent
    });
    Probe {
        ns,
        accesses: acc as f64 / ops as f64,
        ..Probe::default()
    }
}

/// A software allocator's `alloc` + `free` of a 48-byte object at steady
/// state: live neighbours keep the pool from being released (and
/// re-created) on every pair.
fn soft_pair(mut alloc: impl SoftwareAllocator) -> Probe {
    const OPS: u64 = 100_000;
    let mut h = Host::new();
    let live: Vec<_> = {
        let mut ctx = h.ctx();
        (0..64).map(|_| alloc.alloc(&mut ctx, 48).addr).collect()
    };
    let (mut ops, mut acc, mut lk) = (0u64, 0u64, 0u64);
    let ns = per_op(OPS, || {
        let (a0, l0) = (accesses(&h.sys), lookups(&h.tlb));
        let spent = timed(|| {
            let mut ctx = h.ctx();
            for _ in 0..OPS {
                let out = alloc.alloc(&mut ctx, 48);
                black_box(alloc.free(&mut ctx, out.addr, 48));
            }
        });
        ops += OPS;
        acc += accesses(&h.sys) - a0;
        lk += lookups(&h.tlb) - l0;
        spent
    });
    black_box(live);
    Probe {
        ns,
        accesses: acc as f64 / ops as f64,
        lookups: lk as f64 / ops as f64,
    }
}

/// `EventHeap::push` + `pop` at a steady depth of 256 pending events —
/// one per serving lane and queue slot of `profiled_fleet`'s 8 nodes.
fn event_heap_pair() -> Probe {
    const OPS: u64 = 200_000;
    const DEPTH: u64 = 256;
    let mut heap = EventHeap::with_capacity(DEPTH as usize + 1);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 100_000
    };
    for i in 0..DEPTH {
        heap.push(step(), i as u32);
    }
    let ns = per_op(OPS, || {
        timed(|| {
            for _ in 0..OPS {
                let (t, _, ev) = heap.pop().expect("heap stays at depth");
                heap.push(t + step(), black_box(ev));
            }
        })
    });
    Probe {
        ns,
        ..Probe::default()
    }
}

/// A 64-record checkpoint image (arena headers plus mappings).
fn pm_records() -> Vec<PmRecord> {
    (0..64u64)
        .map(|i| PmRecord::Arena {
            va: 0x7000_0000_0000 + i * 0x4000,
            class: (i % 64) as u8,
            bitmap: [i, !i, i << 3, 0],
            header_pa: 0x10_0000 + i * 0x1000,
        })
        .collect()
}

/// `PmPool::begin` + `persist_all` + `seal` of one checkpoint.
fn pm_park() -> Probe {
    const OPS: u64 = 20_000;
    let records = pm_records();
    let mut pool = PmPool::new(PmCosts::paper_default());
    let ns = per_op(OPS, || {
        timed(|| {
            for _ in 0..OPS {
                pool.begin(&records);
                pool.persist_all();
                black_box(pool.seal());
            }
        })
    });
    Probe {
        ns,
        ..Probe::default()
    }
}

/// `PmPool::recover` of a sealed checkpoint.
fn pm_recover() -> Probe {
    const OPS: u64 = 20_000;
    let mut pool = PmPool::new(PmCosts::paper_default());
    pool.checkpoint(&pm_records());
    let ns = per_op(OPS, || {
        timed(|| {
            for _ in 0..OPS {
                black_box(pool.recover());
            }
        })
    });
    Probe {
        ns,
        ..Probe::default()
    }
}

/// Runs every probe.
pub fn measure_all() -> Probes {
    BTreeMap::from([
        ("workloads.generate_ns_per_event", generate()),
        ("cache.l1_hit_ns", cache(1, false)),
        ("cache.llc_miss_ns", cache(1, true)),
        ("cache.shared_llc_miss_ns", cache(2, true)),
        ("vm.tlb_hit_ns", tlb_hit()),
        ("vm.tlb_miss_walk_ns", tlb_miss_walk()),
        ("kernel.demand_fault_ns", demand_fault()),
        ("kernel.buddy_pair_ns", buddy_pair()),
        ("core.obj_hit_pair_ns", obj(false)),
        ("core.obj_miss_alloc_ns", obj(true)),
        ("softalloc.py_pair_ns", soft_pair(PyMalloc::new())),
        ("softalloc.je_pair_ns", soft_pair(JeMalloc::new())),
        ("softalloc.go_pair_ns", soft_pair(GoAlloc::new())),
        ("cluster.event_heap_pair_ns", event_heap_pair()),
        ("pmem.park_ns", pm_park()),
        ("pmem.recover_ns", pm_recover()),
    ])
}
