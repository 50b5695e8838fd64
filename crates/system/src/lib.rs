//! Full-system assembly: the simulated machine that executes workload
//! traces against either the baseline software stack or the Memento
//! hardware, producing the run statistics behind every figure and table of
//! the paper.
//!
//! - [`config`] — system configurations: baseline, Memento (with feature
//!   toggles), the §6.1 iso-storage L1D, the §6.7 idealized Mallacc, and
//!   the §6.6 `MAP_POPULATE` baseline.
//! - [`container`] — [`container::WarmContainer`]: the externally-driven
//!   cold-start/invoke/finish lifecycle the cluster scheduler places
//!   requests onto.
//! - [`machine`] — the machine itself: cores + TLBs + caches + kernel +
//!   software allocators or the Memento device; executes [`memento_workloads::Event`]
//!   streams, handles Go GC policy, context switches, and teardown.
//! - [`scheduler`] — [`scheduler::Scheduler`]: deterministic work-stealing
//!   distribution of invocation batches across the machine's cores, with
//!   per-core clocks and steal counters. [`Machine::run_scheduled`] is the
//!   one entry to the batch driver; [`Machine::run`] is its one-job case.
//! - [`stats`] — [`stats::RunStats`]: cycle attribution, DRAM traffic,
//!   memory-usage aggregates, HOT/AAC/arena statistics.
//!
//! # Examples
//!
//! ```
//! use memento_system::{Machine, SystemConfig};
//! use memento_workloads::suite;
//!
//! let spec = suite::by_name("aes").expect("known workload");
//! let baseline = Machine::new(SystemConfig::baseline()).run(&spec);
//! let memento = Machine::new(SystemConfig::memento()).run(&spec);
//! assert!(memento.total_cycles() < baseline.total_cycles());
//! ```

pub mod config;
pub mod container;
pub mod gc;
pub mod machine;
pub mod observe;
pub mod scheduler;
pub mod stats;

pub use config::{Mode, SystemConfig, TraceConfig};
pub use container::WarmContainer;
pub use machine::Machine;
pub use scheduler::{SchedStats, Scheduler};
pub use stats::RunStats;
