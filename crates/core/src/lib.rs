//! # memento-core
//!
//! The primary contribution of *Memento: Architectural Support for Ephemeral
//! Memory Management in Serverless Environments* (MICRO '23), reproduced as
//! a library over the `memento-*` simulation substrates:
//!
//! - [`size_class`] — 64 size classes (8..=512 B in 8-byte steps) and arena
//!   geometry (256 objects per arena, header page + body pages).
//! - [`region`] — the reserved per-process VA region exposed through the
//!   `MRS`/`MRE` registers, evenly split into size-class slices so object
//!   addresses decompose into (class, arena, index) with pure arithmetic.
//! - [`arena`] — arena headers (VA field, 256-bit allocation bitmap, 11-bit
//!   bypass counter, list links) as real data in simulated memory.
//! - [`hot`] — the per-core Hardware Object Table: a 64-entry direct-mapped
//!   metadata cache with 2-cycle hits.
//! - [`page_alloc`] — the hardware page allocator at the memory controller:
//!   AAC-cached bump pointers, an OS-replenished physical page pool, and the
//!   on-demand Memento page table (`MPTR`).
//! - [`device`] — the assembled device: `obj-alloc`/`obj-free` ISA
//!   semantics, HOT hit/miss FSM, arena list management, main-memory bypass
//!   checks, and HOT flushes for context switches.
//!
//! # Examples
//!
//! ```
//! use memento_core::device::{MementoConfig, MementoDevice};
//! use memento_core::page_alloc::PoolBackend;
//! use memento_core::region::MementoRegion;
//! use memento_cache::{MemSystem, MemSystemConfig};
//! use memento_simcore::physmem::{Frame, PhysMem};
//! use memento_vm::tlb::Tlb;
//!
//! // A toy OS backend handing out frames from a bump counter.
//! struct Os(u64);
//! impl PoolBackend for Os {
//!     fn grant_frames(&mut self, n: u64) -> Vec<Frame> {
//!         let start = self.0;
//!         self.0 += n;
//!         (start..start + n).map(Frame::from_number).collect()
//!     }
//!     fn accept_frames(&mut self, _frames: &[Frame]) {}
//! }
//!
//! let mut mem = PhysMem::new(1 << 30);
//! let scratch = mem.alloc_frame().unwrap().base_addr();
//! let mut sys = MemSystem::new(MemSystemConfig::paper_default(1));
//! let mut tlbs = vec![Tlb::default()];
//! let mut os = Os(1024);
//! let mut dev = MementoDevice::new(MementoConfig::paper_default(), 1, scratch);
//! let mut proc = dev
//!     .attach_process(&mut mem, &mut os, MementoRegion::standard())
//!     .expect("attach with live backend");
//!
//! let a = dev.obj_alloc(&mut mem, &mut sys, &mut os, 0, &mut proc, 48)?;
//! dev.obj_free(&mut mem, &mut sys, &mut os, &mut tlbs, 0, &mut proc, a.addr)?;
//! assert_eq!(dev.hot_stats(0).free.hits, 1);
//! # Ok::<(), memento_core::device::MementoError>(())
//! ```

pub mod arena;
pub mod costs;
pub mod device;
pub mod hot;
pub mod page_alloc;
pub mod region;
pub mod size_class;

pub use costs::MementoCosts;
pub use device::{
    AllocOutcome, FreeOutcome, MementoConfig, MementoDevice, MementoError, MementoProcess, ObjStats,
};
pub use hot::HotStats;
pub use page_alloc::{PageAllocStats, PageAllocatorConfig, PoolBackend};
pub use region::MementoRegion;
pub use size_class::{SizeClass, MAX_OBJECT_SIZE, NUM_SIZE_CLASSES, OBJECTS_PER_ARENA};

#[cfg(test)]
mod device_tests;
