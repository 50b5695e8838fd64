//! Deterministic decomposition of an evaluation into independent shards.
//!
//! A [`SimPoint`] is one independent simulation — a (workload, system
//! configuration) pair. Each point gets a stable shard id hashed from its
//! key alone (never from scheduling order or wall-clock), so a sweep can be
//! farmed out to any number of worker threads and still aggregate into
//! byte-identical tables: results are slotted by shard, not by completion
//! order, and every source of randomness in a shard derives from the
//! spec's own seed rather than global state.

use crate::context::ConfigKind;
use memento_workloads::spec::WorkloadSpec;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// A workload's memo identity: the whole spec. It hashes on name, size
/// and seed, and compares every field, so a spec changed in any way
/// (resized, reseeded, retuned) is a different key.
#[derive(Clone, Debug)]
pub struct SpecKey(WorkloadSpec);

impl PartialEq for SpecKey {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

// Spec fields are finite by construction (no NaN), so `==` is reflexive.
impl Eq for SpecKey {}

impl Hash for SpecKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (&self.0.name, self.0.total_instructions, self.0.seed).hash(state);
    }
}

/// One independent simulation point: a workload under a system design point.
#[derive(Clone, Debug)]
pub struct SimPoint {
    /// The workload to run (already scaled by the owning context).
    pub spec: WorkloadSpec,
    /// The system design point to run it under.
    pub kind: ConfigKind,
}

impl SimPoint {
    /// Builds the point for `spec` under `kind`.
    pub fn new(spec: WorkloadSpec, kind: ConfigKind) -> Self {
        SimPoint { spec, kind }
    }

    /// The memoization key: the whole spec + design point.
    pub fn key(&self) -> (SpecKey, ConfigKind) {
        (SpecKey(self.spec.clone()), self.kind)
    }

    /// Human-readable label (`workload/config`) for timing reports.
    pub(crate) fn label(&self) -> String {
        format!("{}/{:?}", self.spec.name, self.kind)
    }

    /// Stable shard id: FNV-1a over the workload name, size, seed and
    /// design point. Identical across runs, processes, and `--jobs`
    /// settings — it depends only on what the point *is*.
    pub fn shard_id(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        eat(self.spec.name.as_bytes());
        eat(&self.spec.total_instructions.to_le_bytes());
        eat(&self.spec.seed.to_le_bytes());
        eat(b"/");
        eat(format!("{:?}", self.kind).as_bytes());
        h
    }
}

/// Builds the deterministic execution plan for a sweep: duplicates (same
/// key) removed, order fixed by shard id. The plan — not submission order,
/// not thread scheduling — defines which worker computes what, which is
/// what makes parallel and serial sweeps indistinguishable downstream.
pub fn plan(points: Vec<SimPoint>) -> Vec<SimPoint> {
    let mut seen = HashSet::new();
    let mut points: Vec<SimPoint> = points
        .into_iter()
        .filter(|p| seen.insert(p.key()))
        .collect();
    points.sort_by_key(|p| (p.shard_id(), p.kind as u8));
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_workloads::suite;

    fn point(name: &str, kind: ConfigKind) -> SimPoint {
        SimPoint::new(suite::by_name(name).expect("known"), kind)
    }

    #[test]
    fn shard_ids_are_stable_and_distinct() {
        let a = point("aes", ConfigKind::Baseline);
        let b = point("aes", ConfigKind::Memento);
        let c = point("html", ConfigKind::Baseline);
        assert_eq!(a.shard_id(), point("aes", ConfigKind::Baseline).shard_id());
        assert_ne!(a.shard_id(), b.shard_id());
        assert_ne!(a.shard_id(), c.shard_id());
        let mut resized = a.clone();
        resized.spec.total_instructions /= 2;
        assert_ne!(a.shard_id(), resized.shard_id());
        assert_ne!(a.key(), resized.key());
    }

    #[test]
    fn plan_dedups_and_orders_deterministically() {
        let mk = |names: &[&str]| {
            let pts: Vec<SimPoint> = names
                .iter()
                .flat_map(|n| {
                    [ConfigKind::Baseline, ConfigKind::Memento]
                        .into_iter()
                        .map(|k| point(n, k))
                })
                .collect();
            plan(pts)
        };
        let forward = mk(&["aes", "html", "aes", "US"]);
        let reverse = mk(&["US", "aes", "html", "html"]);
        assert_eq!(forward.len(), 6, "3 workloads x 2 kinds after dedup");
        let keys: Vec<_> = forward.iter().map(SimPoint::key).collect();
        let rkeys: Vec<_> = reverse.iter().map(SimPoint::key).collect();
        assert_eq!(keys, rkeys, "plan order ignores submission order");
    }
}
