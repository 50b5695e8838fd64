//! Deterministic node-sharded execution of round-robin Profiled fleets.
//!
//! Round-robin placement is *node-decomposable*: arrival `i` targets node
//! `i mod nodes` regardless of fleet state, and admission (queue-full) is
//! decided from that node's state alone. So a fleet of N nodes splits into
//! contiguous node ranges, each range simulates its own arrival subset
//! with the identical serial engine ([`crate::sim::run_shard`]), and the
//! per-shard results merge back into exactly what the serial run would
//! have produced:
//!
//! - **Counters, latencies, histograms** are per-invocation and each
//!   invocation lives in exactly one shard — sums/concatenations match.
//! - **Footprint timeline and peak** merge by k-way walking the shards'
//!   change-point timelines: the fleet level at instant `t` is the sum of
//!   each shard's last level at or before `t`, and the peak is the max
//!   over *settled* instants — the same timestamp-settled peak the serial
//!   engine samples (see `sim.rs`), which is what makes the merge
//!   byte-identical: nothing in either path depends on how same-instant
//!   events on different nodes interleave.
//! - **Audits** run inside every shard against that shard's ground truth;
//!   the merged report concatenates violations and sums audit counts.
//!
//! The worker pool is [`memento_simcore::pool::map_ordered`], the same
//! order-preserving primitive the experiment runner shards sweeps with.

use std::collections::BTreeMap;

use memento_simcore::pool::map_ordered;

use crate::arrival::{Arrival, WorkloadMix};
use crate::sim::{run_shard, ClusterConfig, ClusterResult, ProfileCosts};

/// One planned shard: a contiguous node range plus its arrival subset.
struct ShardPlan {
    /// Global id of this shard's local node 0.
    node_offset: usize,
    /// Shard-local fleet config (`nodes` = range length).
    cfg: ClusterConfig,
    /// This shard's arrivals, time-sorted (a subsequence of the input).
    arrivals: Vec<Arrival>,
    /// Local target node per arrival (round-robin assignment fixed at
    /// plan time, so a shard cannot re-derive placement differently).
    assign: Vec<u32>,
}

/// Splits `0..nodes` into at most `jobs` contiguous, balanced ranges.
fn node_ranges(nodes: usize, jobs: usize) -> Vec<(usize, usize)> {
    let shards = jobs.min(nodes).max(1);
    let base = nodes / shards;
    let extra = nodes % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push((start, len));
        start += len;
    }
    ranges
}

fn plan(cfg: &ClusterConfig, arrivals: &[Arrival], jobs: usize) -> Vec<ShardPlan> {
    let ranges = node_ranges(cfg.nodes, jobs);
    let mut plans: Vec<ShardPlan> = ranges
        .iter()
        .map(|&(start, len)| ShardPlan {
            node_offset: start,
            cfg: ClusterConfig {
                nodes: len,
                ..cfg.clone()
            },
            arrivals: Vec::new(),
            assign: Vec::new(),
        })
        .collect();
    // Arrival i round-robins to global node i % nodes; route it to the
    // shard owning that node. Per-shard order stays time-sorted because
    // this walk is in arrival order.
    let mut owner = vec![0usize; cfg.nodes];
    for (s, &(start, len)) in ranges.iter().enumerate() {
        owner[start..start + len].fill(s);
    }
    for (i, a) in arrivals.iter().enumerate() {
        let node = i % cfg.nodes;
        let p = &mut plans[owner[node]];
        p.arrivals.push(*a);
        p.assign
            .push(u32::try_from(node - p.node_offset).expect("shard-local node index fits in u32"));
    }
    plans
}

/// Merges per-shard change-point timelines into the fleet timeline, the
/// timestamp-settled peak, and the final level. Each shard timeline holds
/// absolute levels for its own nodes; the fleet level at a change instant
/// is the sum of every shard's current level.
fn merge_timelines(shards: &[ClusterResult]) -> (Vec<(u64, u64)>, u64, u64) {
    let mut cursor = vec![0usize; shards.len()];
    let mut level = vec![0u64; shards.len()];
    let mut merged = Vec::new();
    let mut peak = 0u64;
    loop {
        let mut next: Option<u64> = None;
        for (s, shard) in shards.iter().enumerate() {
            if let Some(&(t, _)) = shard.timeline.get(cursor[s]) {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        }
        let Some(t) = next else { break };
        for (s, shard) in shards.iter().enumerate() {
            while let Some(&(ti, v)) = shard.timeline.get(cursor[s]) {
                if ti > t {
                    break;
                }
                level[s] = v;
                cursor[s] += 1;
            }
        }
        let total: u64 = level.iter().sum();
        merged.push((t, total));
        if total > peak {
            peak = total;
        }
    }
    let final_level = level.iter().sum();
    (merged, peak, final_level)
}

/// Runs the fleet as node shards on up to `jobs` threads and merges the
/// results into the serial run's exact output. Callers have already
/// validated the inputs and checked decomposability (round-robin,
/// Profiled, >1 node).
pub(crate) fn simulate_sharded(
    costs: &[ProfileCosts],
    cfg: &ClusterConfig,
    mix: &WorkloadMix,
    arrivals: &[Arrival],
    jobs: usize,
) -> ClusterResult {
    let plans = plan(cfg, arrivals, jobs);
    let shards: Vec<ClusterResult> = map_ordered(jobs, &plans, |p| {
        run_shard(costs, &p.cfg, mix, &p.arrivals, &p.assign, p.node_offset)
    });
    merge(cfg, shards)
}

fn merge(cfg: &ClusterConfig, shards: Vec<ClusterResult>) -> ClusterResult {
    let (timeline, peak, final_level) = merge_timelines(&shards);

    let mut submitted = 0;
    let mut completed = 0;
    let mut rejected = 0;
    let mut rejected_by: BTreeMap<_, u64> = BTreeMap::new();
    let mut cold_starts = 0;
    let mut warm_starts = 0;
    let mut expired = 0;
    let mut retired = 0;
    let mut live_containers = 0;
    let mut restores = 0;
    let mut squeezed = 0;
    let mut pm_parks = 0;
    let mut pm_restores = 0;
    let mut makespan = 0;
    let mut latencies = Vec::with_capacity(shards.iter().map(|s| s.latencies.len()).sum());
    let mut metrics = memento_obs::MetricsRegistry::new();
    let mut audit: Option<memento_sanitizer::SanitizerReport> = None;

    for shard in shards {
        submitted += shard.submitted;
        completed += shard.completed;
        rejected += shard.rejected;
        for (reason, n) in shard.rejected_by {
            *rejected_by.entry(reason).or_insert(0) += n;
        }
        cold_starts += shard.cold_starts;
        warm_starts += shard.warm_starts;
        expired += shard.expired;
        retired += shard.retired;
        live_containers += shard.live_containers;
        restores += shard.restores;
        squeezed += shard.squeezed;
        pm_parks += shard.pm_parks;
        pm_restores += shard.pm_restores;
        makespan = makespan.max(shard.makespan_cycles);
        latencies.extend_from_slice(&shard.latencies);
        metrics.merge(&shard.metrics);
        audit = Some(match audit.take() {
            None => shard.audit,
            Some(mut merged) => {
                merged.violations.extend(shard.audit.violations);
                merged.events += shard.audit.events;
                merged.ops += shard.audit.ops;
                merged.audits += shard.audit.audits;
                merged.oracle_ops += shard.audit.oracle_ops;
                merged
            }
        });
    }
    crate::sim::radix_sort_u64(&mut latencies);
    // Fleet-level gauges were merged additively across shards; overwrite
    // them with the values that hold for the whole fleet.
    metrics.set("cluster.peak_fleet_frames", peak);
    metrics.set("cluster.final_fleet_frames", final_level);
    metrics.set("cluster.makespan_cycles", makespan);

    ClusterResult {
        submitted,
        completed,
        rejected,
        rejected_by,
        cold_starts,
        warm_starts,
        expired,
        retired,
        live_containers,
        restores,
        squeezed,
        pm_parks,
        pm_restores,
        // The sharded path only runs fixed fleets (no autoscaler), where
        // every configured node is active for the whole run.
        peak_active_nodes: cfg.nodes as u64,
        makespan_cycles: makespan,
        peak_fleet_frames: peak,
        final_fleet_frames: final_level,
        timeline: if cfg.record_timeline {
            timeline
        } else {
            Vec::new()
        },
        latencies,
        metrics,
        audit: audit.expect("at least one shard always exists"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ranges_cover_and_balance() {
        for nodes in 1..=17 {
            for jobs in 1..=9 {
                let ranges = node_ranges(nodes, jobs);
                assert!(!ranges.is_empty());
                assert!(ranges.len() <= jobs.min(nodes));
                let mut covered = 0;
                for &(start, len) in &ranges {
                    assert_eq!(start, covered, "ranges must be contiguous");
                    assert!(len >= 1);
                    covered += len;
                }
                assert_eq!(covered, nodes, "ranges must cover every node");
                let min = ranges.iter().map(|r| r.1).min().unwrap();
                let max = ranges.iter().map(|r| r.1).max().unwrap();
                assert!(max - min <= 1, "ranges must be balanced");
            }
        }
    }

    #[test]
    fn merge_timelines_sums_settled_levels() {
        // Shard 0 steps 0→10 at t=5 and 10→4 at t=9; shard 1 steps 0→7 at
        // t=5 and 7→0 at t=12. Fleet levels: t5: 17, t9: 11, t12: 4.
        let mk = |timeline: Vec<(u64, u64)>| {
            let mut r = base_result();
            r.timeline = timeline;
            r
        };
        let shards = vec![mk(vec![(5, 10), (9, 4)]), mk(vec![(5, 7), (12, 0)])];
        let (timeline, peak, final_level) = merge_timelines(&shards);
        assert_eq!(timeline, vec![(5, 17), (9, 11), (12, 4)]);
        assert_eq!(peak, 17);
        assert_eq!(final_level, 4);
    }

    fn base_result() -> ClusterResult {
        ClusterResult {
            submitted: 0,
            completed: 0,
            rejected: 0,
            rejected_by: BTreeMap::new(),
            cold_starts: 0,
            warm_starts: 0,
            expired: 0,
            retired: 0,
            live_containers: 0,
            restores: 0,
            squeezed: 0,
            pm_parks: 0,
            pm_restores: 0,
            peak_active_nodes: 0,
            makespan_cycles: 0,
            peak_fleet_frames: 0,
            final_fleet_frames: 0,
            timeline: Vec::new(),
            latencies: Vec::new(),
            metrics: memento_obs::MetricsRegistry::new(),
            audit: memento_sanitizer::SanitizerReport::default(),
        }
    }
}
