//! Byte-identity net for the cluster engine rewrite: the rendered
//! evaluation table must match, byte for byte, the capture taken from
//! the pre-flattening BTreeMap-backed engine. Any drift in event
//! ordering, placement tie-breaking, latency accounting, or footprint
//! tracking shows up here as a table diff.

use memento_experiments::cluster::{run, ClusterParams};
use memento_experiments::EvalContext;

/// Captured from the event-heap/BTreeMap engine before the flat-array
/// rewrite (same params as below, jobs=1).
const EXPECTED: &str = include_str!("../../../tests/fixtures/cluster_table_small.txt");

fn fixture_params() -> ClusterParams {
    ClusterParams {
        nodes: 4,
        queue_capacity: 16,
        invocations: 600,
        seed: 7,
    }
}

#[test]
fn flat_engine_reproduces_pre_rewrite_table_byte_for_byte() {
    let mut ctx = EvalContext::scaled(8).with_jobs(1);
    let report = run(&mut ctx, &["aes", "html"], fixture_params()).expect("known workloads");
    let rendered = format!("{report}\n");
    assert_eq!(
        rendered, EXPECTED,
        "cluster table drifted from the pre-rewrite capture"
    );
}

#[test]
fn fixture_table_is_job_count_independent() {
    let mut ctx = EvalContext::scaled(8).with_jobs(3);
    let report = run(&mut ctx, &["aes", "html"], fixture_params()).expect("known workloads");
    let rendered = format!("{report}\n");
    assert_eq!(rendered, EXPECTED, "table must not depend on --jobs");
}
