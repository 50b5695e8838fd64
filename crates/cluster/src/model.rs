//! The service-model seam: the fleet simulator reads every container
//! cost through [`ServiceModel`].
//!
//! A container is a position in its model. Each op moves it and returns
//! a [`Record`]. An idle container's position does not move, so squeeze,
//! the warm-start re-fault and the drain audit read its costs back with
//! [`ServiceModel::record`]; the simulator caches none. The Measured
//! model is [`crate::lineage::Lineages`] (records read from real
//! machines, one op history per workload shared by the fleet); the
//! Profiled model is [`crate::profile::Profiled`] (one constant record
//! per (workload, state), from calibrated profiles).

use memento_obs::metrics::MetricsRegistry;
use memento_sanitizer::SanitizerReport;

/// A container operation after boot. Any new operation on a container
/// must become a variant here and enter [`crate::lineage::OpCycle`],
/// the script every Measured container follows: the Measured model
/// serves each container from one history per workload, and panics on
/// an op its cycle does not hold rather than hand out values from a
/// history the container never had.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// Serve one warm invocation, first reviving the container from
    /// persistent memory when `pm_restore` is set.
    Invoke { pm_restore: bool },
    /// Keep-alive park: shed the pool's idle reserve.
    Park,
    /// Park to persistent memory.
    ParkToPm,
}

/// What the simulator reads from a container after one op and while it
/// idles afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Record {
    /// The op's cycles: service time for a boot or an invocation (PM
    /// restore included), persist cycles for a park to PM, 0 for a park.
    pub(crate) cycles: u64,
    /// Peak unreclaimable frames while serving.
    pub(crate) serving_peak: u64,
    /// DRAM frames charged while the container idles after this op: its
    /// unreclaimable frames after a park, its PM-resident DRAM after a
    /// park to PM.
    pub(crate) idle_frames: u64,
    /// Frames a pressure squeeze cannot reclaim (at most `idle_frames`).
    pub(crate) squeeze_floor: u64,
    /// Cycles the next warm start pays to re-fault what a squeeze took.
    pub(crate) squeeze_refault: u64,
}

/// A container cost source. `Sim` is generic over it, so each model's
/// fleet loop is compiled on its own, with no indirect call per op.
pub(crate) trait ServiceModel {
    /// A container's place in the model.
    type Pos: Copy;

    /// Brings up a container of mix index `workload`, the way the model
    /// was built to (the run's `cold_start`).
    fn boot(&mut self, workload: u32) -> (Self::Pos, Record);

    /// Applies `op` to the container at `pos`, moving it.
    fn apply(&mut self, pos: &mut Self::Pos, op: Op) -> Record;

    /// The record of the last op that reached `pos`.
    fn record(&self, pos: Self::Pos) -> Record;

    /// Tears the container down; returns its final sanitizer report, if
    /// its machine has a sanitizer (a model without machines has none).
    fn release(&mut self, _pos: Self::Pos) -> Option<SanitizerReport> {
        None
    }

    /// The sanitizer report of a live container at `pos`, if any.
    fn report(&self, _pos: Self::Pos) -> Option<&SanitizerReport> {
        None
    }

    /// Adds the model's own end-of-run counters (none by default).
    fn add_metrics(&self, _metrics: &mut MetricsRegistry) {}
}
