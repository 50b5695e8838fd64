//! Property tests of the region layer's hardest race: node scale-down
//! interleaved with keep-alive expiry and completion delivery.
//!
//! An aggressive autoscaler (tick interval comparable to service times,
//! near-zero spin-up) drains and re-commits nodes constantly while short
//! fixed or size-aware TTLs keep many keep-alive deadlines pending and
//! completions land on draining nodes. Every such interleaving must leave
//! the books balanced: scale-down retires a node's warm pool and clears
//! those entries' deadlines, so a deadline cached for one of those
//! containers — and completions racing the drain — must no-op instead of
//! resurrecting freed slots or double-counting frames. The simulator's
//! own invocation-conservation, fleet-frame, and node-lifecycle audits
//! are the oracle (debug builds also recheck the engine's incremental
//! indices after every event), plus byte-determinism across repeats and a
//! digest over a fixed set of cases.

use memento_cluster::{
    generate_arrivals, simulate, ArrivalConfig, Autoscaler, AutoscalerConfig, ClusterConfig,
    ClusterResult, ColdStart, Engine, KeepAlive, Placement, ProfileTable, Reclamation,
    ServiceProfile, WorkloadMix,
};
use memento_workloads::spec::WorkloadSpec;
use memento_workloads::suite;
use proptest::prelude::*;

fn mix_of(n: usize) -> WorkloadMix {
    let names = ["aes", "html", "US"];
    let specs: Vec<WorkloadSpec> = names
        .iter()
        .take(n.clamp(1, names.len()))
        .map(|name| {
            let mut s = suite::by_name(name).expect("known workload");
            s.total_instructions = 100_000;
            s
        })
        .collect();
    WorkloadMix::uniform(specs).expect("non-empty mix")
}

/// Synthetic profiles with service times near the autoscaler tick so
/// drains, expiries, and completions constantly interleave.
fn table_for(mix: &WorkloadMix, warm: u64, cold_over_warm: u64, idle: u64) -> ProfileTable {
    let mut t = ProfileTable::new();
    for (i, spec) in mix.specs().iter().enumerate() {
        let warm_cycles = warm + 311 * i as u64;
        let cold_cycles = warm_cycles + cold_over_warm;
        let idle_frames = idle + i as u64;
        t.insert(ServiceProfile {
            workload: spec.name.clone(),
            cold_cycles,
            warm_cycles,
            active_frames: idle_frames + 50,
            idle_frames,
            restore_cycles: (warm_cycles + cold_over_warm / 3)
                .clamp(warm_cycles + 1, (cold_cycles - 1).max(warm_cycles + 1)),
            squeeze_floor_frames: idle_frames / 3,
            squeeze_refault_cycles: 710 * (idle_frames - idle_frames / 3),
            pm_restore_cycles: (warm_cycles + cold_over_warm / 4)
                .clamp(warm_cycles + 1, (cold_cycles - 1).max(warm_cycles + 1)),
            pm_persist_cycles: 53 + 7 * i as u64,
        });
    }
    t
}

#[derive(Clone, Copy, Debug)]
struct RegionCase {
    nodes: usize,
    max_nodes: usize,
    queue_capacity: usize,
    placement: Placement,
    keep_alive: KeepAlive,
    cold_start: ColdStart,
    reclamation: Reclamation,
    interval: u64,
    target_pct: u64,
    spinup: u64,
    seed: u64,
    count: u64,
    mean_interarrival: f64,
    warm: u64,
    cold_over_warm: u64,
    idle: u64,
    /// False runs the fixed fleet (`Autoscaler::None`) at `nodes`.
    autoscaled: bool,
}

fn arb_region_case() -> impl Strategy<Value = RegionCase> {
    (
        (
            1usize..4,
            1usize..8,
            0usize..6,
            prop_oneof![Just(Placement::RoundRobin), Just(Placement::LeastLoaded)],
            prop_oneof![
                // Short TTLs maximize queued expiries racing the drain.
                (2_000u64..60_000).prop_map(KeepAlive::Fixed),
                (500_000u64..5_000_000).prop_map(|budget| KeepAlive::SizeAware {
                    budget_frame_cycles: budget,
                    min_cycles: 2_000,
                    max_cycles: 80_000,
                }),
                Just(KeepAlive::Infinite),
                (2_000u64..60_000).prop_map(|ttl_cycles| KeepAlive::ParkToPM { ttl_cycles }),
            ],
            prop_oneof![Just(ColdStart::Boot), Just(ColdStart::Snapshot)],
            prop_oneof![
                Just(Reclamation::None),
                (50u64..400).prop_map(|w| Reclamation::Squeeze {
                    watermark_frames: w
                }),
            ],
        ),
        (
            // Ticks at or below the service time, spin-up near zero:
            // the scale loop churns as fast as the event engine allows.
            2_000u64..40_000,
            30u64..95,
            1u64..30_000,
            any::<u64>(),
            50u64..600,
            300.0f64..20_000.0,
            5_000u64..60_000,
            10_000u64..200_000,
            20u64..120,
        ),
    )
        .prop_map(
            |(
                (nodes, extra, queue_capacity, placement, keep_alive, cold_start, reclamation),
                (
                    interval,
                    target_pct,
                    spinup,
                    seed,
                    count,
                    mean_interarrival,
                    warm,
                    cold_over_warm,
                    idle,
                ),
            )| RegionCase {
                nodes,
                max_nodes: nodes + extra,
                queue_capacity,
                placement,
                keep_alive,
                cold_start,
                reclamation,
                interval,
                target_pct,
                spinup,
                seed,
                count,
                mean_interarrival,
                warm,
                cold_over_warm,
                idle,
                autoscaled: true,
            },
        )
}

fn run_case(case: &RegionCase) -> ClusterResult {
    let mix = mix_of(2);
    let table = table_for(&mix, case.warm, case.cold_over_warm, case.idle);
    let cfg = ClusterConfig {
        nodes: case.nodes,
        queue_capacity: case.queue_capacity,
        cores_per_node: 1,
        placement: case.placement,
        keep_alive: case.keep_alive,
        cold_start: case.cold_start,
        reclamation: case.reclamation,
        autoscaler: if case.autoscaled {
            Autoscaler::TargetUtilization(AutoscalerConfig {
                interval_cycles: case.interval,
                target_load_pct: case.target_pct,
                min_nodes: 1.min(case.nodes),
                max_nodes: case.max_nodes,
                spinup_cycles: case.spinup,
            })
        } else {
            Autoscaler::None
        },
        record_timeline: true,
    };
    let arrival = ArrivalConfig {
        seed: case.seed,
        count: case.count,
        mean_interarrival_cycles: case.mean_interarrival,
    };
    let arrivals = generate_arrivals(&arrival, &mix).expect("valid arrival config");
    simulate(Engine::Profiled(table), &cfg, &mix, &arrivals).expect("valid region run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scale-down racing expiry and completion delivery never loses an
    /// invocation, never leaks a frame, and never leaves a powered-off
    /// node holding state — a deadline whose container went away must
    /// fire as a no-op.
    #[test]
    fn scale_down_expiry_completion_races_stay_clean(case in arb_region_case()) {
        let r = run_case(&case);
        prop_assert_eq!(r.submitted, case.count);
        prop_assert_eq!(r.submitted, r.completed + r.rejected, "conservation at drain");
        prop_assert_eq!(r.completed, r.cold_starts + r.warm_starts);
        prop_assert_eq!(r.completed, r.latencies.len() as u64);
        prop_assert!(r.expired <= r.retired, "expiries are one retirement path");
        prop_assert!(r.peak_fleet_frames >= r.final_fleet_frames);
        prop_assert!(
            r.peak_active_nodes as usize <= case.max_nodes,
            "committed nodes may never exceed max_nodes"
        );
        if matches!(case.cold_start, ColdStart::Boot) {
            prop_assert_eq!(r.restores, 0);
        } else {
            prop_assert_eq!(r.restores, r.cold_starts, "snapshot serves every cold path");
        }
        prop_assert!(r.is_clean(), "audits must pass: {}", r.audit);
    }

    /// The full region feature set stays byte-deterministic: autoscaler
    /// ticks, boots, squeezes, and variable TTLs all sit in the same
    /// `(time, seq)` total order, so a repeat replays every race the
    /// same way.
    #[test]
    fn region_runs_are_byte_identical(case in arb_region_case()) {
        let a = run_case(&case);
        let b = run_case(&case);
        prop_assert_eq!(a.latencies, b.latencies);
        prop_assert_eq!(a.timeline, b.timeline);
        prop_assert_eq!(a.peak_fleet_frames, b.peak_fleet_frames);
        prop_assert_eq!(a.peak_active_nodes, b.peak_active_nodes);
        prop_assert_eq!(a.squeezed, b.squeezed);
        prop_assert_eq!(a.metrics.render(), b.metrics.render());
    }
}

/// FNV-1a over the bytes of `text`, folded into `h`.
fn fnv1a(mut h: u64, text: &str) -> u64 {
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every `ClusterResult` field, rendered in declaration order.
fn render_result(r: &ClusterResult) -> String {
    format!(
        "{} {} {} {:?} {} {} {} {} {} {} {} {} {} {} {} {} {} {:?} {:?}\n{}\n{}",
        r.submitted,
        r.completed,
        r.rejected,
        r.rejected_by,
        r.cold_starts,
        r.warm_starts,
        r.expired,
        r.retired,
        r.live_containers,
        r.restores,
        r.squeezed,
        r.pm_parks,
        r.pm_restores,
        r.peak_active_nodes,
        r.makespan_cycles,
        r.peak_fleet_frames,
        r.final_fleet_frames,
        r.timeline,
        r.latencies,
        r.metrics.render(),
        r.audit,
    )
}

/// A fixed seeded set of small cases, one family per keep-alive policy:
/// autoscaled size-aware keep-alive with squeeze and snapshot restore,
/// park-to-PM, and fixed, infinite and no keep-alive on both fleet kinds.
fn pinned_cases() -> Vec<RegionCase> {
    let base = RegionCase {
        nodes: 2,
        max_nodes: 6,
        queue_capacity: 3,
        placement: Placement::LeastLoaded,
        keep_alive: KeepAlive::Infinite,
        cold_start: ColdStart::Boot,
        reclamation: Reclamation::None,
        interval: 9_000,
        target_pct: 60,
        spinup: 4_000,
        seed: 0,
        count: 240,
        mean_interarrival: 4_000.0,
        warm: 12_000,
        cold_over_warm: 60_000,
        idle: 60,
        autoscaled: true,
    };
    let families = [
        RegionCase {
            keep_alive: KeepAlive::SizeAware {
                budget_frame_cycles: 2_000_000,
                min_cycles: 2_000,
                max_cycles: 80_000,
            },
            cold_start: ColdStart::Snapshot,
            reclamation: Reclamation::Squeeze {
                watermark_frames: 150,
            },
            ..base
        },
        RegionCase {
            keep_alive: KeepAlive::ParkToPM { ttl_cycles: 30_000 },
            placement: Placement::RoundRobin,
            ..base
        },
        RegionCase {
            keep_alive: KeepAlive::Fixed(20_000),
            reclamation: Reclamation::Squeeze {
                watermark_frames: 100,
            },
            ..base
        },
        RegionCase {
            keep_alive: KeepAlive::Infinite,
            cold_start: ColdStart::Snapshot,
            ..base
        },
        RegionCase {
            keep_alive: KeepAlive::None,
            ..base
        },
        RegionCase {
            keep_alive: KeepAlive::Fixed(40_000),
            autoscaled: false,
            nodes: 3,
            ..base
        },
        RegionCase {
            keep_alive: KeepAlive::SizeAware {
                budget_frame_cycles: 1_000_000,
                min_cycles: 3_000,
                max_cycles: 50_000,
            },
            placement: Placement::RoundRobin,
            autoscaled: false,
            nodes: 3,
            ..base
        },
    ];
    let mut cases = Vec::new();
    for family in families {
        for (seed, mean_interarrival) in [(1, 2_500.0), (7, 6_000.0), (23, 15_000.0)] {
            cases.push(RegionCase {
                seed,
                mean_interarrival,
                ..family
            });
        }
    }
    cases
}

/// Pins the whole observable output of the event core — every
/// `ClusterResult` field, the makespan, timeline and rendered metrics
/// included — over [`pinned_cases`]. A change to event order, keep-alive
/// bookkeeping, squeeze order or placement shows up here even when every
/// audit stays clean. The digest must only change together with a
/// deliberate, documented change of simulated behaviour.
#[test]
fn pinned_cases_match_recorded_digest() {
    let cases = pinned_cases();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut drained_off = false;
    for case in &cases {
        let r = run_case(case);
        assert!(r.is_clean(), "{case:?}: {}", r.audit);
        drained_off |= r.metrics.counter("cluster.scale_downs") > 0;
        digest = fnv1a(digest, &render_result(&r));
    }
    assert!(drained_off, "some pinned case must drain a node off");
    assert_eq!(
        format!("{digest:016x}"),
        "8b252fa80acd5d5a",
        "pinned event-core outputs changed"
    );
}
