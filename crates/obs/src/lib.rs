//! Observability for the simulated machine: cycle-attributed tracing,
//! typed metrics, and heap-profile sampling.
//!
//! The paper's claims are *attribution* claims — Figs. 7–10 split server
//! time into user vs. memory-management cycles and break Memento's residual
//! cost into HOT misses, page-walk extensions, and bypass effects. This
//! crate gives the simulator a first-class way to answer "where did the
//! cycles go" without ad-hoc printlns:
//!
//! - [`trace`] — a [`Tracer`] recording scoped spans against the *simulated*
//!   clock (one track per core), exported as Chrome/Perfetto `trace_event`
//!   JSON via [`memento_simcore::json`] so a run opens in `ui.perfetto.dev`.
//! - [`metrics`] — a [`MetricsRegistry`] of monotonic counters and
//!   log2-bucketed histograms ([`Log2Hist`]), rendered as a per-run
//!   "metrics appendix".
//! - [`percentile`] — the one shared exact nearest-rank quantile over
//!   fully-retained sample sets; `Log2Hist::quantile` is the bucketed
//!   approximation of the same rank convention.
//! - [`profile`] — [`ProfileSample`] snapshots (live-heap bytes, pool
//!   occupancy, HOT residency) taken every N simulated cycles.
//! - [`selfprof`] — wall-clock spans over the *simulator's own* hot loops
//!   (`cluster.sim.run` and `cluster.sim.finish`), harness-gated and off
//!   by default; `perfbench` reports them as its `selfprof.*` rows.
//!
//! # Invariants
//!
//! Like the sanitizer, the whole layer is **untimed and cycle-invisible**
//! with one sanctioned exception: nothing here reads a wall clock on the
//! simulation's behalf (every trace/metric timestamp is a simulated cycle
//! count, so the determinism lint holds) and nothing feeds back into the
//! simulation — a traced run produces byte-identical statistics to an
//! untraced one. Every span must be closed by run end; a dangling span is
//! a bug in the instrumentation and panics with the open-span stack.
//! [`selfprof`] does read the wall clock, but only when a harness enables
//! it, and its output is write-only from the simulator's point of view.

pub mod metrics;
pub mod percentile;
pub mod profile;
pub mod selfprof;
pub mod trace;

pub use metrics::{Log2Hist, MetricsRegistry};
pub use percentile::nearest_rank_sorted;
pub use profile::ProfileSample;
pub use trace::Tracer;
