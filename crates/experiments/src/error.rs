//! Typed errors surfaced by experiment runners.
//!
//! Workload names resolve through the context
//! ([`EvalContext::try_workloads`](crate::EvalContext::try_workloads)):
//! the studies that take names (`multicore`, `ablation`, `cluster`,
//! `region`) and [`report::run`](crate::report::run) validate them up
//! front and return [`ExperimentError::UnknownWorkload`] instead of
//! panicking deep inside a worker thread, so callers (CLI examples, CI
//! steps) can print the bad name and exit cleanly.

use memento_cluster::ClusterError;
use std::error::Error;
use std::fmt;

/// Why an experiment could not run.
#[derive(Clone, Debug, PartialEq)]
pub enum ExperimentError {
    /// A requested workload name is not in the suite.
    UnknownWorkload(String),
    /// The cluster simulator rejected its configuration.
    Cluster(ClusterError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::UnknownWorkload(name) => {
                write!(
                    f,
                    "unknown workload '{name}' (see workloads::suite for valid names)"
                )
            }
            ExperimentError::Cluster(e) => write!(f, "cluster setup failed: {e}"),
        }
    }
}

impl Error for ExperimentError {}

impl From<ClusterError> for ExperimentError {
    fn from(e: ClusterError) -> Self {
        ExperimentError::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::EvalContext;
    use memento_workloads::suite;

    #[test]
    fn unknown_names_are_reported_not_panicked() {
        let err = EvalContext::scaled(2)
            .try_workloads(&["aes", "no-such-fn"])
            .expect_err("must fail");
        assert_eq!(err, ExperimentError::UnknownWorkload("no-such-fn".into()));
        assert!(err.to_string().contains("no-such-fn"));
    }

    #[test]
    fn valid_names_resolve_scaled() {
        let full = suite::by_name("aes")
            .expect("known workload")
            .total_instructions;
        let specs = EvalContext::scaled(4)
            .try_workloads(&["aes"])
            .expect("valid names");
        assert_eq!(specs[0].total_instructions, full / 4);
    }

    #[test]
    fn cluster_errors_convert() {
        let e: ExperimentError = ClusterError::NoNodes.into();
        assert!(e.to_string().contains("cluster setup failed"));
    }
}
