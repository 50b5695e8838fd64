//! Calibrated serverless workload generators.
//!
//! The paper evaluates fourteen function benchmarks (SeBS, FunctionBench,
//! pyperformance, DeathStarBench ports) across Python, C++ and Golang, three
//! OpenFaaS platform operations, and four data-processing applications. We
//! cannot run the real binaries under the Rust simulator, so this crate
//! generates **deterministic synthetic allocation traces** per named
//! workload, calibrated to the paper's own characterization:
//!
//! - ≥93 % of allocations under 512 B (Fig. 2), with per-category skews
//!   (98 % data-processing, 99 % platform);
//! - bimodal malloc-free distance (Fig. 3): ~71 % freed within 16
//!   same-class allocations, ~27 % living until function exit, with
//!   per-language profiles (C++ short-lived, Python mostly short, Golang
//!   batch-freed because GC never runs in a short function);
//! - per-workload MallocPKI ≥ 0.5 and heap working sets from hundreds of
//!   KB to tens of MB (§5).
//!
//! A trace is a stream of [`Event`]s (`Alloc`/`Free`/`Touch`/`Compute`/
//! `Exit`) that `memento-system` executes against either the baseline
//! software stack or the Memento hardware.

pub mod analysis;
pub mod event;
pub mod generator;
pub mod spec;
pub mod suite;

pub use analysis::{Characterization, JointQuadrants};
pub use event::{Event, ObjectId, Trace};
pub use generator::generate;
pub use spec::{AllocatorKind, Category, Language, LifetimeProfile, SizeProfile, WorkloadSpec};
pub use suite::{all_workloads, data_proc_workloads, function_workloads, platform_workloads};
