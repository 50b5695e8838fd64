//! Typed errors for cluster construction and simulation.

use std::error::Error;
use std::fmt;

/// Why a cluster simulation could not be set up or run.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterError {
    /// The workload mix is empty or has no positive weight.
    EmptyMix,
    /// The cluster has zero nodes (or zero serving cores per node).
    NoNodes,
    /// The cluster exceeds the engine's supported fleet shape (the
    /// flat placement scan packs node index and load into one 64-bit
    /// key: at most 2^16 nodes, queue capacity below 2^40, and at most
    /// 256 cores per node).
    FleetTooLarge,
    /// A Profiled-engine run references a workload with no calibrated
    /// service profile.
    MissingProfile(String),
    /// A service profile's costs could overflow the simulated clock: the
    /// largest cycle charge one invocation can carry, times the number
    /// of arrivals, exceeds [`crate::sim::MAX_CYCLES`], or a frame count
    /// exceeds `u32::MAX`.
    InvalidProfile(String),
    /// The arrival process has a non-positive mean inter-arrival time.
    InvalidArrivalRate(f64),
    /// An arrival trace is malformed (zero or saturated peak intensity,
    /// or intensity arithmetic that would overflow 64 bits).
    InvalidTrace(String),
    /// An autoscaler configuration is malformed (zero interval or
    /// target, empty node range, a range the fleet shape violates, or an
    /// interval or spin-up delay above [`crate::sim::MAX_CYCLES`]).
    InvalidAutoscaler(String),
    /// A keep-alive policy is malformed (zero budget, an empty TTL
    /// clamp range, or a TTL above [`crate::sim::MAX_CYCLES`]).
    InvalidKeepAlive(String),
    /// A Measured-engine fleet was configured to write a Perfetto trace
    /// file. Each container machine would write it at teardown, so the
    /// file would hold an arbitrary container's trace; trace in memory
    /// instead.
    MeasuredTraceFile(std::path::PathBuf),
    /// A Measured fleet's container machines would have no core or more
    /// than [`memento_system::SystemConfig::MAX_CORES`] (the count after
    /// [`crate::ClusterConfig::cores_per_node`] is applied).
    InvalidCores(usize),
    /// A Measured fleet's container machines would have more physical
    /// memory than their caches can address, which
    /// [`memento_system::Machine::new`] refuses.
    InvalidPhysMem {
        /// The configured physical memory.
        bytes: u64,
        /// The first address the caches cannot hold.
        limit: u64,
    },
    /// The arrival slice is not time-sorted, an arrival names a workload
    /// outside the mix, or an arrival time exceeds
    /// [`crate::sim::MAX_CYCLES`] (also when a generator would draw one).
    InvalidArrivals(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::EmptyMix => write!(f, "workload mix is empty or has zero total weight"),
            ClusterError::NoNodes => write!(f, "cluster has zero nodes or zero cores per node"),
            ClusterError::FleetTooLarge => write!(
                f,
                "cluster exceeds the supported fleet shape (max 65536 nodes, \
                 queue capacity below 2^40, max 256 cores per node)"
            ),
            ClusterError::MissingProfile(name) => {
                write!(f, "no calibrated service profile for workload '{name}'")
            }
            ClusterError::InvalidProfile(why) => write!(f, "invalid service profile: {why}"),
            ClusterError::InvalidArrivalRate(mean) => {
                write!(f, "mean inter-arrival must be positive, got {mean}")
            }
            ClusterError::InvalidTrace(why) => write!(f, "invalid arrival trace: {why}"),
            ClusterError::InvalidAutoscaler(why) => {
                write!(f, "invalid autoscaler config: {why}")
            }
            ClusterError::InvalidKeepAlive(why) => {
                write!(f, "invalid keep-alive policy: {why}")
            }
            ClusterError::MeasuredTraceFile(path) => write!(
                f,
                "a Measured fleet cannot write a per-machine trace file ({}): \
                 every container would overwrite it; trace in memory instead",
                path.display()
            ),
            ClusterError::InvalidCores(n) => write!(
                f,
                "a Measured container machine needs 1 to {} cores, got {n}",
                memento_system::SystemConfig::MAX_CORES
            ),
            ClusterError::InvalidPhysMem { bytes, limit } => write!(
                f,
                "a Measured container machine's {bytes} B of physical memory exceed \
                 its caches' address limit of {limit} B"
            ),
            ClusterError::InvalidArrivals(why) => write!(f, "invalid arrivals: {why}"),
        }
    }
}

impl Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_workload() {
        let e = ClusterError::MissingProfile("aes".into());
        assert!(e.to_string().contains("'aes'"));
        assert!(ClusterError::InvalidArrivalRate(0.0)
            .to_string()
            .contains("0"));
    }
}
