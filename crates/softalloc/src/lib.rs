//! Software allocator models for the Memento baseline.
//!
//! The paper instruments three real allocators — CPython's pymalloc,
//! jemalloc (C/C++), and the Go runtime allocator — and shows that their
//! userspace fast paths plus their kernel interactions (mmap/munmap/page
//! faults) dominate memory-management time in short-lived functions
//! (Table 2). This crate models those three designs faithfully enough to
//! reproduce that behaviour:
//!
//! - [`py::PyMalloc`] — 256 KB arenas split into 4 KB pools, per-class pool
//!   lists, in-pool free lists, arena-granular `munmap`.
//! - [`je::JeMalloc`] — per-thread cache (tcache) over slab runs carved from
//!   a pool that is pre-mapped and partially pre-faulted at library init
//!   (which is why C++ kernel share is only 4 % in Table 2 — and why
//!   jemalloc wastes user memory that Memento recovers in Fig. 11).
//! - [`go::GoAlloc`] — size-class spans with a per-P cache and a
//!   mark-sweep GC that never triggers inside a short function, leaving
//!   batch deallocation to the OS at exit.
//!
//! Metadata reads/writes issue real accesses through the cache hierarchy
//! and take real page faults via the kernel model, so the user/kernel
//! split emerges from the design rather than being asserted.

pub mod glibc;
pub mod go;
pub mod je;
pub mod py;
pub mod traits;

pub use glibc::GlibcHeap;
pub use go::GoAlloc;
pub use je::JeMalloc;
pub use py::PyMalloc;
pub use traits::{AllocCtx, FreeOutcome, SoftAllocStats, SoftOutcome, SoftwareAllocator};
