//! Experiment runners that regenerate every table and figure of the
//! Memento paper's evaluation (§2.2, §5, §6).
//!
//! Each module reproduces one artifact and returns a typed result with a
//! `Display` implementation that prints the same rows/series the paper
//! reports:
//!
//! | Module | Artifact |
//! |---|---|
//! | [`characterization`] | Fig. 2 (allocation sizes), Fig. 3 (lifetimes), Table 1 (joint), Table 2 (user/kernel split) |
//! | [`config_table`] | Table 3 (simulated configuration) |
//! | [`speedup`] | Fig. 8 (normalized speedup) |
//! | [`breakdown`] | Fig. 9 (gain attribution) |
//! | [`bandwidth`] | Fig. 10 (DRAM-traffic reduction) |
//! | [`memusage`] | Fig. 11 (aggregate memory usage) |
//! | [`hot`] | Fig. 12 (HOT hit rates) |
//! | [`arena_list`] | Fig. 13 (arena-list operation frequency) |
//! | [`pricing`] | Fig. 14 (normalized runtime pricing) |
//! | [`comparisons`] | §6.1 iso-storage, §6.7 idealized Mallacc |
//! | [`sensitivity`] | §6.6 studies: `MAP_POPULATE`, multi-process, fragmentation, cold starts, allocator tuning |
//! | [`multicore`] | extension: work-stealing co-location under shared LLC/DRAM contention |
//! | [`ablation`] | extension: eager replenish / bypass / pool batch / AAC ablations |
//! | [`profile`] | extension: traced run → flame table, metrics appendix, heap samples |
//! | [`cluster`] | extension: fleet-scale traffic, tail latency + fleet footprint |
//! | [`region`] | extension: region policy matrix (autoscaling, snapshot restores, squeeze, size-aware keep-alive), Pareto fronts |
//! | [`report`] | the whole evaluation: every study above in one [`report::FullReport`] |
//!
//! Every study takes the [`EvalContext`] plus its own parameters. The
//! context memoizes simulation runs and fleet calibrations, so one sweep
//! feeds every figure, and it times every study.
//!
//! Independent simulation points fan out across a fixed worker pool
//! ([`runner`]) following a deterministic shard plan ([`sharding`]):
//! results are slotted by shard, never by completion order, so tables are
//! byte-identical at any `--jobs` / `MEMENTO_JOBS` setting.
//!
//! # Examples
//!
//! ```no_run
//! use memento_experiments::{speedup, EvalContext};
//!
//! let mut ctx = EvalContext::quick(); // shrunk workloads for CI
//! let suite = ctx.workloads();
//! let fig8 = speedup::run(&mut ctx, &suite);
//! println!("{fig8}");
//! assert!(fig8.func_avg > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod arena_list;
pub mod bandwidth;
pub mod breakdown;
pub mod characterization;
pub mod cluster;
pub mod comparisons;
pub mod config_table;
pub mod context;
pub mod error;
pub mod hot;
pub mod memusage;
pub mod multicore;
pub mod pricing;
pub mod profile;
pub mod ratio;
pub mod region;
pub mod report;
pub mod runner;
pub mod sensitivity;
pub mod sharding;
pub mod speedup;
pub mod table;

pub use context::{ConfigKind, EvalContext};
pub use error::ExperimentError;
pub use profile::{profile_run, ProfileReport};
pub use ratio::page_ratio;
pub use runner::{map_ordered, RunnerTiming};
pub use sharding::SimPoint;
pub use table::Table;
