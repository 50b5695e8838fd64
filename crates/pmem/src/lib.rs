//! Persistent ephemeral memory: NVM-backed checkpoints of a parked
//! container's Memento state.
//!
//! ROADMAP item 5: arenas and the hardware page table persist across
//! container park/restore (battery-backed DRAM, CXL-attached memory, or
//! NVM), so a "cold" start replays a checkpoint instead of re-faulting
//! its working set. This crate models the persistence mechanics and their
//! cycle costs; it knows nothing about the allocator itself:
//!
//! - [`PmRecord`]/[`PmImage`] — a container's device-visible state
//!   (arena bitmaps, AAC bump pointers, HOT-resident headers, Memento
//!   page-table mappings) flattened into cache-line-sized records.
//! - [`PmPool`] — a two-slot checkpoint area written with the
//!   checkpoint-plus-detectable-CAS discipline: records flush line by line into the
//!   non-live slot, then a single sealed-epoch word ([`PmEpoch`])
//!   publishes the image atomically. Crashes at any point — including a
//!   torn seal write — are detectable, and [`PmPool::recover`] always
//!   returns the last *sealed* epoch, discarding in-flight contents.
//! - [`PmCosts`] — the cycle prices: flush/fence per dirty line on
//!   persist, replay-vs-demand-refault on restore.
//! - [`CrashPoint`]/[`PmPool::simulate_crash`] — seeded crash injection
//!   for the sanitizer's recovery audit and the crate's own proptests.
//!
//! The integration layer (`memento-system`) captures records from a live
//! machine, owns one pool per warm container, and charges the returned
//! cycles; the cluster layer prices `KeepAlive::ParkToPM` from the same
//! model via profile calibration.

pub mod costs;
pub mod image;
pub mod pool;

pub use costs::{PmCosts, RestoreKind};
pub use image::{PmImage, PmRecord};
pub use pool::{crash_point_for_seed, injection_points, CrashPoint, PmEpoch, PmPool, Recovery};
