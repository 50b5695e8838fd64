//! OS kernel model for the Memento simulator.
//!
//! Models the slice of Linux that matters to memory management on the
//! function critical path (paper §2.1):
//!
//! - a **buddy allocator** over physical frames ([`buddy`]), with frame-use
//!   attribution (user heap vs. page tables vs. kernel metadata vs. the
//!   Memento page pool) feeding the paper's Fig. 11 memory-usage breakdown;
//! - **virtual-memory areas** and lazy `mmap`/`munmap` ([`vma`], [`kernel`]),
//!   including `MAP_POPULATE` for the §6.6 sensitivity study;
//! - the **page-fault handler** that allocates a frame and installs a PTE on
//!   first touch — the dominant kernel cost that Memento's hardware page
//!   allocator eliminates;
//! - **syscall and context-switch overheads** ([`costs`]).
//!
//! All costs are charged in cycles returned to the caller; page-table writes
//! and kernel-metadata touches issue real accesses through the cache
//! hierarchy so kernel work also shows up as memory traffic.

pub mod access;
pub mod buddy;
pub mod costs;
pub mod kernel;
pub mod vma;

pub use access::{demand_access, DemandAccess};
pub use buddy::{BuddyAllocator, FrameStats, FrameUse};
pub use costs::KernelCosts;
pub use kernel::{Kernel, KernelStats, MmapFlags, Process, ProcessId};
pub use vma::{AddressSpace, Vma};
