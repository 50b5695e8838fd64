//! Property tests for the multicore machinery: work-stealing
//! conservation, shared-LLC occupancy bounds, DRAM row-buffer locality
//! monotonicity, and seeded-steal determinism of whole scheduled runs.

use memento_cache::{CacheConfig, Dram, DramConfig, SetAssocCache};
use memento_simcore::addr::PhysAddr;
use memento_system::{Machine, SchedStats, Scheduler, SystemConfig};
use memento_workloads::suite;
use proptest::prelude::*;

/// Drains a scheduler to quiescence with deterministic per-job costs,
/// returning how many times each job completed plus the final counters.
fn drain_counting(cores: usize, jobs: usize, seed: u64, salt: u64) -> (Vec<u32>, SchedStats) {
    let mut sched = Scheduler::new(cores, jobs, seed);
    let mut runs = vec![0u32; jobs];
    let mut guard = 0u64;
    while !sched.all_done() {
        sched.acquire_jobs();
        let core = sched.next_core().expect("undone work has a runnable core");
        let job = sched.current(core).expect("running core has a job");
        sched.advance(core, (job as u64).wrapping_mul(salt) % 997 + 1);
        sched.complete(core);
        runs[job] += 1;
        guard += 1;
        assert!(guard < 1_000_000, "scheduler failed to drain");
    }
    (runs, sched.stats().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every dealt invocation is started exactly once — never lost to a
    /// steal race, never run twice — and when the batch covers the fleet,
    /// no core starves: round-robin dealing guarantees each core's first
    /// own pop before any sibling can steal it.
    #[test]
    fn work_stealing_conserves_invocations(
        cores in 1usize..6,
        jobs in 0usize..24,
        seed in any::<u64>(),
        salt in 1u64..10_000,
    ) {
        let (runs, stats) = drain_counting(cores, jobs, seed, salt);
        prop_assert!(
            runs.iter().all(|&r| r == 1),
            "every invocation runs exactly once: {:?}", runs
        );
        prop_assert_eq!(stats.per_core_jobs.iter().sum::<u64>(), jobs as u64);
        if jobs >= cores {
            prop_assert!(
                stats.per_core_jobs.iter().all(|&j| j > 0),
                "no core starves when work covers the fleet: {:?}",
                stats.per_core_jobs
            );
        }
    }

    /// Shared-LLC fair-share filling can never overfill: total occupancy
    /// stays within sets x ways, and every resident line is owned by
    /// exactly one core at any fair_ways setting.
    #[test]
    fn llc_occupancy_never_exceeds_capacity(
        sets_log2 in 0u32..5,
        assoc in 1usize..9,
        owners in 1usize..5,
        fair in 0usize..4,
        seed in any::<u64>(),
    ) {
        let sets = 1usize << sets_log2;
        let cfg = CacheConfig::new("prop-llc", sets * assoc * 64, assoc, 10);
        let mut llc = SetAssocCache::new(cfg);
        let mut x = seed | 1;
        for i in 0..256u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = PhysAddr::new((x % (1 << 20)) & !0x3f);
            llc.fill_owned(addr, x & 1 == 0, i as usize % owners, fair.min(assoc));
            prop_assert!(llc.occupancy() <= llc.capacity_lines());
            let per_owner: usize = (0..owners).map(|o| llc.owner_occupancy(o)).sum();
            prop_assert_eq!(
                per_owner,
                llc.occupancy(),
                "every resident line has exactly one owner"
            );
        }
    }

    /// DRAM row-buffer hit counts are monotone in spatial locality: over
    /// the same number of sequential line reads from a row-aligned base, a
    /// tighter stride can never hit the open row less often than a wider
    /// one.
    #[test]
    fn dram_row_hits_are_monotone_in_locality(
        small_log2 in 6u32..14,
        extra_log2 in 1u32..4,
        accesses in 64u64..512,
        base_rows in 0u64..64,
    ) {
        let small = 1u64 << small_log2;
        let large = 1u64 << (small_log2 + extra_log2).min(16);
        prop_assume!(small < large);
        let run = |stride: u64| {
            let mut dram = Dram::new(DramConfig::default());
            let base = base_rows * dram.config().row_bytes;
            for i in 0..accesses {
                dram.read_line(PhysAddr::new(base + i * stride));
            }
            dram.stats().row_hits
        };
        let (hits_local, hits_far) = (run(small), run(large));
        prop_assert!(
            hits_local >= hits_far,
            "tighter stride cannot hit less: {} vs {} (strides {}/{})",
            hits_local, hits_far, small, large
        );
    }
}

proptest! {
    // Whole-machine runs are expensive; a handful of cases covers the
    // steal interleavings that matter.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A scheduled multicore batch is a pure function of (specs, cores,
    /// seed): repeated runs on fresh machines produce identical per-job
    /// cycle counts and identical steal/placement counters.
    #[test]
    fn scheduled_runs_are_seed_deterministic(
        seed in any::<u64>(),
        cores in 1usize..4,
        jobs in 1usize..5,
    ) {
        let base = suite::by_name("aes").expect("known workload");
        let specs: Vec<_> = (0..jobs)
            .map(|i| {
                let mut s = base.clone();
                s.name = format!("prop-{i}");
                s.total_instructions = 20_000;
                s.seed = base.seed + i as u64;
                s
            })
            .collect();
        let run = || {
            let mut m = Machine::new(SystemConfig::memento().with_cores(cores));
            let (runs, sched) = m.run_scheduled(&specs, seed);
            let cycles: Vec<u64> = runs.iter().map(|r| r.total_cycles().raw()).collect();
            (cycles, sched)
        };
        let (a_cycles, a_sched) = run();
        let (b_cycles, b_sched) = run();
        prop_assert_eq!(a_cycles, b_cycles, "per-job cycle tables must repeat");
        prop_assert_eq!(a_sched, b_sched, "steal interleaving must repeat");
    }
}
