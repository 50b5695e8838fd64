//! Property-based tests of the fleet simulator: for arbitrary fleet
//! shapes, traffic intensities, and calibration tables the simulation
//! drains to quiescence, conserves every invocation, passes its own
//! footprint audits, and is byte-deterministic run over run.

use memento_cluster::{
    generate_arrivals, simulate, ArrivalConfig, ClusterConfig, ClusterResult, Engine, KeepAlive,
    Placement, ProfileTable, ServiceProfile, WorkloadMix,
};
use memento_workloads::spec::WorkloadSpec;
use memento_workloads::suite;
use proptest::prelude::*;

/// A small spec per mix slot; service costs come from the synthetic
/// profile table, so the spec itself only names the workload.
fn mix_of(n: usize) -> WorkloadMix {
    let names = ["aes", "html", "US", "jl"];
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

/// Synthetic profiles driven by per-case seeds: cold ≥ warm ≥ 1 cycles,
/// active ≥ idle frames, all varied per workload slot.
fn table_for(
    mix: &WorkloadMix,
    warm: u64,
    cold_over_warm: u64,
    active: u64,
    idle: u64,
) -> ProfileTable {
    let mut t = ProfileTable::new();
    for (i, spec) in mix.specs().iter().enumerate() {
        let warm_cycles = warm + 997 * i as u64;
        let cold_cycles = warm_cycles + cold_over_warm;
        let idle_frames = idle.min(active) + i as u64;
        t.insert(ServiceProfile {
            workload: spec.name.clone(),
            cold_cycles,
            warm_cycles,
            active_frames: active + 13 * i as u64,
            idle_frames,
            restore_cycles: (warm_cycles + cold_over_warm / 2)
                .clamp(warm_cycles + 1, (cold_cycles - 1).max(warm_cycles + 1)),
            squeeze_floor_frames: idle_frames / 2,
            squeeze_refault_cycles: 710 * (idle_frames - idle_frames / 2),
            pm_restore_cycles: (warm_cycles + cold_over_warm / 4)
                .clamp(warm_cycles + 1, (cold_cycles - 1).max(warm_cycles + 1)),
            pm_persist_cycles: 37 + 11 * i as u64,
        });
    }
    t
}

#[derive(Clone, Copy, Debug)]
struct FleetCase {
    nodes: usize,
    queue_capacity: usize,
    cores_per_node: usize,
    placement: Placement,
    keep_alive: KeepAlive,
    seed: u64,
    count: u64,
    mean_interarrival: f64,
    mix_size: usize,
    warm: u64,
    cold_over_warm: u64,
    active: u64,
    idle: u64,
}

fn arb_case() -> impl Strategy<Value = FleetCase> {
    (
        (
            1usize..10,
            0usize..12,
            1usize..5,
            prop_oneof![Just(Placement::RoundRobin), Just(Placement::LeastLoaded)],
            prop_oneof![
                Just(KeepAlive::None),
                (1_000u64..2_000_000).prop_map(KeepAlive::Fixed),
                Just(KeepAlive::Infinite),
                (1_000u64..2_000_000).prop_map(|ttl_cycles| KeepAlive::ParkToPM { ttl_cycles }),
            ],
            any::<u64>(),
            1u64..800,
            100.0f64..50_000.0,
            1usize..5,
        ),
        (1_000u64..200_000, 1u64..500_000, 1u64..400, 0u64..100),
    )
        .prop_map(
            |(
                (
                    nodes,
                    queue_capacity,
                    cores_per_node,
                    placement,
                    keep_alive,
                    seed,
                    count,
                    mean_interarrival,
                    mix_size,
                ),
                (warm, cold_over_warm, active, idle),
            )| FleetCase {
                nodes,
                queue_capacity,
                cores_per_node,
                placement,
                keep_alive,
                seed,
                count,
                mean_interarrival,
                mix_size,
                warm,
                cold_over_warm,
                active,
                idle,
            },
        )
}

fn run_case(case: &FleetCase) -> ClusterResult {
    let mix = mix_of(case.mix_size);
    let table = table_for(&mix, case.warm, case.cold_over_warm, case.active, case.idle);
    let cfg = ClusterConfig {
        nodes: case.nodes,
        queue_capacity: case.queue_capacity,
        cores_per_node: case.cores_per_node,
        placement: case.placement,
        keep_alive: case.keep_alive,
        cold_start: memento_cluster::ColdStart::Boot,
        reclamation: memento_cluster::Reclamation::None,
        autoscaler: memento_cluster::Autoscaler::None,
        record_timeline: true,
    };
    let arrival = ArrivalConfig {
        seed: case.seed,
        count: case.count,
        mean_interarrival_cycles: case.mean_interarrival,
    };
    let arrivals = generate_arrivals(&arrival, &mix).expect("valid arrival config");
    assert_eq!(arrivals.len() as u64, case.count);
    assert!(
        arrivals.windows(2).all(|w| w[0].time <= w[1].time),
        "arrivals must be time-sorted"
    );
    simulate(Engine::Profiled(table), &cfg, &mix, &arrivals).expect("valid fleet run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every offered invocation is accounted for at drain — completed or
    /// rejected, never lost, never duplicated — and the simulator's own
    /// conservation and footprint audits agree.
    #[test]
    fn invocations_are_conserved(case in arb_case()) {
        let r = run_case(&case);
        prop_assert_eq!(r.submitted, case.count);
        prop_assert_eq!(r.submitted, r.completed + r.rejected, "conservation at drain");
        prop_assert_eq!(r.completed, r.cold_starts + r.warm_starts);
        prop_assert_eq!(r.completed, r.latencies.len() as u64);
        prop_assert_eq!(r.rejected, r.rejected_by.values().sum::<u64>());
        prop_assert!(r.peak_fleet_frames >= r.final_fleet_frames);
        prop_assert!(r.expired <= r.retired);
        prop_assert!(r.is_clean(), "audits must pass: {}", r.audit);
    }

    /// The whole run — latency vector, footprint timeline, peak, and the
    /// rendered metrics registry — is byte-identical when repeated.
    #[test]
    fn repeated_runs_are_byte_identical(case in arb_case()) {
        let a = run_case(&case);
        let b = run_case(&case);
        prop_assert_eq!(a.latencies, b.latencies);
        prop_assert_eq!(a.timeline, b.timeline);
        prop_assert_eq!(a.peak_fleet_frames, b.peak_fleet_frames);
        prop_assert_eq!(a.makespan_cycles, b.makespan_cycles);
        prop_assert_eq!(a.metrics.render(), b.metrics.render());
    }

    /// Latencies are causal (an invocation cannot finish before at least
    /// one warm service time) and retirement zeroes footprint: with no
    /// keep-alive the fleet ends empty.
    #[test]
    fn keep_alive_none_ends_empty(mut case in arb_case()) {
        case.keep_alive = KeepAlive::None;
        let r = run_case(&case);
        prop_assert_eq!(r.warm_starts, 0);
        prop_assert_eq!(r.live_containers, 0);
        prop_assert_eq!(r.final_fleet_frames, 0);
        if let Some(min) = r.latencies.first() {
            prop_assert!(*min >= case.warm.min(case.warm + case.cold_over_warm));
        }
    }
}
