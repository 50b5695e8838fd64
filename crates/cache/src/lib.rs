//! Cache hierarchy and DRAM timing model for the Memento simulator.
//!
//! Models the memory system of Table 3 in the paper: per-core L1I/L1D
//! (32 KB, 8-way, 2 cycles), per-core L2 (256 KB, 8-way, 14 cycles), a shared
//! LLC slice (2 MB, 16-way, 40 cycles) and DDR4-3200-style DRAM with 16 banks
//! and an open-row policy.
//!
//! The hierarchy is physically addressed and write-back/write-allocate.
//! [`MemSystem::access`] walks an access down the hierarchy, charges the
//! traversal latency and records DRAM traffic; [`MemSystem::access_bypassed`]
//! implements Memento's main-memory bypass by instantiating a missing line
//! directly in the LLC (the paper's §3.3: newly allocated lines need no DRAM
//! fetch because software has no expectation about their content).
//!
//! # Examples
//!
//! ```
//! use memento_cache::{MemSystem, MemSystemConfig, AccessKind};
//! use memento_simcore::PhysAddr;
//!
//! let mut mem = MemSystem::new(MemSystemConfig::paper_default(1));
//! let cold = mem.access(0, AccessKind::Read, PhysAddr::new(0x4000));
//! let warm = mem.access(0, AccessKind::Read, PhysAddr::new(0x4000));
//! assert!(cold.cycles > warm.cycles);
//! assert!(cold.dram_fill);
//! assert!(!warm.dram_fill);
//! ```

pub mod cache;
pub mod dram;
pub mod hierarchy;

pub use cache::{CacheConfig, CacheStats, SetAssocCache};
pub use dram::{Dram, DramConfig, DramStats};
pub use hierarchy::{
    AccessKind, AccessOutcome, HitLevel, MemSystem, MemSystemConfig, MemSystemStats,
    DRAM_QUEUE_CYCLES,
};
