//! Cluster-scale serverless traffic simulation over Memento machines.
//!
//! The per-machine simulator answers "how fast is one invocation"; this
//! crate answers the question a platform operator asks: **under real
//! traffic, what are the p99 latency and the fleet memory footprint** —
//! baseline vs. Memento? It adds the missing layer between the paper's
//! single-machine runs and its platform-scale motivation (§2: millions of
//! sub-second invocations re-paying mmap/fault/zeroing costs):
//!
//! ```text
//! arrival process → scheduler (placement) → bounded node queue
//!                 → container (cold | warm via keep-alive pool)
//!                 → memento_system::Machine
//! ```
//!
//! - [`arrival`] — open-loop Poisson arrivals with seeded workload-mix
//!   sampling; a pure function of the seed, shared across the fleets
//!   under comparison.
//! - [`trace`] — non-homogeneous arrival intensity shapes
//!   ([`trace::DiurnalTrace`] day curves, [`trace::FlashCrowd`] burst
//!   overlays) thinned onto the same seeded cursor, so shaped traffic
//!   stays a pure function of the seed too.
//! - [`policy`] — the scheduler policy surface: [`policy::Placement`]
//!   (round-robin / warm-affinity least-loaded), [`policy::KeepAlive`]
//!   (none / fixed / infinite / size-aware / park-to-PM),
//!   [`policy::ColdStart`] (boot / snapshot-restore),
//!   [`policy::Reclamation`] (pressure-driven squeeze),
//!   [`policy::Autoscaler`] (target-utilization node scaling), and typed
//!   [`policy::RejectReason`]s. The keep-alive TTL rule and the keep-alive
//!   and autoscaler config checks are methods on these types.
//! - [`profile`] — per-(workload, config) service profiles calibrated
//!   from real [`memento_system::WarmContainer`] runs, replayed as one
//!   cost record per (workload, container state) so the simulator scales
//!   to millions of invocations.
//! - [`event_heap`] — a flat `(time, seq)`-ordered binary heap with seq
//!   stamping, so tie order is a total order. The engine keeps no event
//!   queue (see [`sim`]); the heap stays public for callers that need
//!   one, such as the benchmark's heap probe.
//! - [`sim`] — the deterministic event-driven simulator with incremental
//!   fleet-footprint accounting, per-node metrics, exact tail-latency
//!   quantiles, and drain-time conservation audits from
//!   `memento_sanitizer::fleet`, generic over one service-model seam. Its
//!   Measured model simulates each function's op script once per fleet
//!   and serves every container of that function from the one history.
//! - [`error`] — typed construction/validation errors.
//!
//! # Examples
//!
//! ```
//! use memento_cluster::{
//!     generate_arrivals, simulate, ArrivalConfig, ClusterConfig, Engine, WorkloadMix,
//! };
//! use memento_system::SystemConfig;
//! use memento_workloads::suite;
//!
//! let mut spec = suite::by_name("aes").expect("known workload");
//! spec.total_instructions = 200_000; // keep the doctest quick
//! let mix = WorkloadMix::uniform(vec![spec]).expect("non-empty mix");
//! let arrivals = generate_arrivals(
//!     &ArrivalConfig { seed: 1, count: 6, mean_interarrival_cycles: 300_000.0 },
//!     &mix,
//! )
//! .expect("valid arrival config");
//! let result = simulate(
//!     Engine::Measured(Box::new(SystemConfig::memento())),
//!     &ClusterConfig::default(),
//!     &mix,
//!     &arrivals,
//! )
//! .expect("valid cluster run");
//! assert_eq!(result.completed, 6);
//! assert!(result.is_clean(), "conservation audits hold");
//! let (p50, p95, p99) = result.latency_percentiles();
//! assert!(p50 <= p95 && p95 <= p99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod error;
pub mod event_heap;
mod lineage;
mod model;
pub mod policy;
pub mod profile;
pub mod sim;
pub mod trace;

pub use arrival::{generate_arrivals, Arrival, ArrivalConfig, WorkloadMix};
pub use error::ClusterError;
pub use event_heap::EventHeap;
pub use policy::{
    Autoscaler, AutoscalerConfig, ColdStart, KeepAlive, Placement, Reclamation, RejectReason,
};
pub use profile::{calibrate, ProfileTable, ServiceProfile};
pub use sim::{simulate, ClusterConfig, ClusterResult, Engine};
pub use trace::{
    generate_trace, ArrivalTrace, DiurnalTrace, EmpiricalTrace, FlashCrowd, UniformTrace,
};
