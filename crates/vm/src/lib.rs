//! Virtual-memory substrate: x86-64 style 4-level page tables resident in
//! simulated physical memory, a hardware page walker that issues real cache
//! accesses, and a two-level TLB (Table 3: L1 64-entry 4-way, L2 2048-entry
//! 12-way).
//!
//! Both the OS (via `memento-kernel`) and Memento's hardware page allocator
//! build page tables with the structures defined here — the Memento page
//! table reached through the `MPTR` register is an ordinary radix table, just
//! constructed by hardware on demand (paper §3.2).
//!
//! # Examples
//!
//! ```
//! use memento_simcore::{PhysMem, VirtAddr};
//! use memento_vm::pagetable::{PageTable, PtePerms};
//!
//! let mut mem = PhysMem::new(1 << 22);
//! let mut pt = PageTable::new(&mut mem).unwrap();
//! let frame = mem.alloc_frame().unwrap();
//! let va = VirtAddr::new(0x7000_0000_0000);
//! pt.map_boot(&mut mem, va, frame, PtePerms::rw()).unwrap();
//! assert_eq!(pt.translate(&mem, va).unwrap().frame, frame);
//! ```

pub mod pagetable;
pub mod tlb;
pub mod walker;

pub use pagetable::{MapError, PageTable, Pte, PtePerms, Translation};
pub use tlb::{Tlb, TlbConfig, TlbLookup, TlbStats};
pub use walker::{PageWalker, WalkOutcome, WalkResult};
