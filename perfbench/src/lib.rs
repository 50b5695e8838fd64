//! Host-time benchmark of the memento-sim workspace: four workloads from
//! one fleet event down to one cache access, end-to-end metrics with
//! tracing off, and a traced run that attributes host time to the
//! workspace's layers. See `README.md` for why each workload exists.

use std::collections::BTreeMap;

pub mod digest;
pub mod hostspeed;
pub mod layers;
pub mod probes;
pub mod report;
pub mod scenario;

/// Named counts or values, split by config where they carry a
/// `.baseline` / `.memento` suffix.
pub type Counts = BTreeMap<String, f64>;

/// The count `name` of config `cfg` (0 when absent).
pub fn count(counts: &Counts, name: &str, cfg: &str) -> f64 {
    counts.get(&format!("{name}.{cfg}")).copied().unwrap_or(0.0)
}
