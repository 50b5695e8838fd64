//! The 23 named workloads of the paper's evaluation (§5), with calibrated
//! generator parameters.
//!
//! Instruction volumes are scaled down (millions instead of billions) so a
//! full sweep simulates in seconds; MallocPKI, size and lifetime shapes are
//! preserved, which is what Memento's benefit depends on.

use crate::spec::{Category, Language, LifetimeProfile, SizeProfile, WorkloadSpec};

/// Builder for one suite entry.
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per column of the suite table"
)]
fn spec(
    name: &str,
    language: Language,
    category: Category,
    total_instructions: u64,
    malloc_pki: f64,
    small_fraction: f64,
    small_mean_bytes: f64,
    touch_intensity: f64,
    hot_set: usize,
    seed: u64,
) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_owned(),
        language,
        category,
        allocator: WorkloadSpec::default_allocator(language, category),
        total_instructions,
        malloc_pki,
        size: SizeProfile::typical(small_fraction, small_mean_bytes),
        lifetime: LifetimeProfile::for_language(language),
        touch_intensity,
        hot_set,
        seed,
    }
}

/// The sixteen function workloads (nine Python, four C++ DeathStarBench
/// ports, three Golang ports), in Fig. 8 order.
pub fn function_workloads() -> Vec<WorkloadSpec> {
    use Category::Function as F;
    use Language::{Cpp, Golang, Python};
    let mut v = vec![
        // SeBS: dynamic-html — template rendering, allocation- and
        // bandwidth-hungry (the paper's peak speedup and bypass showcase).
        spec("html", Python, F, 6_000_000, 2.84, 0.95, 36.0, 2.6, 48, 101),
        // SeBS: image-recognition — tensor-heavy, more large allocations.
        {
            let mut s = spec("ir", Python, F, 3_000_000, 2.84, 0.88, 64.0, 3.0, 64, 102);
            s.size.large_mean_bytes = 8192.0;
            s
        },
        // SeBS: graph-bfs — pointer-chasing graph build.
        spec("bfs", Python, F, 8_000_000, 1.30, 0.96, 36.0, 2.0, 64, 103),
        // SeBS: dna-visualisation — sequence buffers.
        {
            let mut s = spec("dna", Python, F, 5_000_000, 1.85, 0.90, 56.0, 2.4, 48, 104);
            s.size.large_mean_bytes = 6144.0;
            s
        },
        // FunctionBench: pyaes — tight crypto loops, small working set.
        {
            let mut s = spec("aes", Python, F, 10_000_000, 1.12, 0.97, 32.0, 1.2, 16, 105);
            s.lifetime.short_fraction = 0.88;
            s.lifetime.short_mean_distance = 4.0;
            s
        },
        // FunctionBench: feature_reducer.
        spec("fr", Python, F, 10_000_000, 0.99, 0.94, 40.0, 2.0, 48, 106),
        // pyperformance: json_loads — parser churn, small working set.
        {
            let mut s = spec("jl", Python, F, 10_000_000, 1.19, 0.96, 32.0, 1.4, 24, 107);
            s.lifetime.short_fraction = 0.90;
            s.lifetime.short_mean_distance = 4.0;
            s
        },
        // pyperformance: json_dumps.
        spec("jd", Python, F, 10_000_000, 0.82, 0.96, 36.0, 1.0, 32, 108),
        // pyperformance: mako templates.
        spec("mk", Python, F, 8_000_000, 1.31, 0.95, 40.0, 2.2, 48, 109),
        // DeathStarBench: UrlShorten.
        spec("US", Cpp, F, 4_000_000, 2.30, 0.93, 56.0, 1.6, 32, 110),
        // DeathStarBench: UserMentions — string-heavy, bandwidth-sensitive.
        {
            let mut s = spec("UM", Cpp, F, 6_000_000, 0.62, 0.93, 80.0, 2.4, 48, 111);
            s.lifetime.short_fraction = 0.55;
            s
        },
        // DeathStarBench: ComposeMedia — media buffers.
        {
            let mut s = spec("CM", Cpp, F, 2_000_000, 3.03, 0.90, 96.0, 2.6, 48, 112);
            s.size.large_mean_bytes = 4096.0;
            s.lifetime.short_fraction = 0.55;
            s
        },
        // DeathStarBench: MovieID.
        spec("MI", Cpp, F, 4_000_000, 1.09, 0.94, 48.0, 1.4, 32, 113),
        // Golang ports of dynamic-html / graph-bfs / pyaes.
        spec(
            "html-go", Golang, F, 4_000_000, 1.52, 0.95, 72.0, 2.2, 48, 114,
        ),
        spec(
            "bfs-go", Golang, F, 4_000_000, 1.14, 0.96, 48.0, 1.8, 64, 115,
        ),
        {
            let mut s = spec(
                "aes-go", Golang, F, 6_000_000, 0.62, 0.97, 40.0, 1.2, 16, 116,
            );
            s.lifetime.short_fraction = 0.40;
            s
        },
    ];
    // Functions communicate with a Redis backend over RPC; that cost is
    // small (§5) and outside Memento's scope, so it is folded into compute.
    for s in &mut v {
        debug_assert!(s.malloc_pki >= 0.5, "paper selects ≥0.5 MallocPKI");
    }
    v
}

/// The four long-running data-processing applications (§5): two key-value
/// stores and two in-memory databases, measured at steady state with a
/// tiny-object value-size distribution.
pub fn data_proc_workloads() -> Vec<WorkloadSpec> {
    use Category::DataProc as D;
    use Language::Cpp;
    vec![
        // Redis: SDS strings for keys/values/temporaries (biggest gainer).
        {
            let mut s = spec("Redis", Cpp, D, 4_000_000, 3.30, 0.98, 48.0, 2.2, 64, 201);
            s.lifetime.short_fraction = 0.93;
            s.lifetime.short_mean_distance = 5.0;
            s
        },
        // Memcached: slab-friendly steady churn.
        {
            let mut s = spec(
                "Memcached",
                Cpp,
                D,
                4_000_000,
                0.87,
                0.98,
                56.0,
                2.0,
                64,
                202,
            );
            s.lifetime.short_fraction = 0.95;
            s
        },
        // Silo: in-memory OLTP.
        {
            let mut s = spec("Silo", Cpp, D, 6_000_000, 1.35, 0.97, 64.0, 2.0, 64, 203);
            s.lifetime.short_fraction = 0.94;
            s
        },
        // SQLite3: parser allocates many small short-lived objects.
        {
            let mut s = spec(
                "SQLite3", Cpp, D, 4_000_000, 0.50, 0.97, 56.0, 0.88, 48, 204,
            );
            s.lifetime.short_fraction = 0.96;
            s.lifetime.short_mean_distance = 4.0;
            s
        },
    ]
}

/// The three OpenFaaS platform operations (§5): `up`, `deploy`, `invoke`.
/// Golang services measured over their regions of interest; allocations
/// are overwhelmingly small and long-lived under the Go GC.
pub fn platform_workloads() -> Vec<WorkloadSpec> {
    use Category::Platform as P;
    use Language::Golang;
    let mut v = vec![
        spec("up", Golang, P, 8_000_000, 0.50, 0.99, 56.0, 0.5, 64, 301),
        spec(
            "deploy", Golang, P, 8_000_000, 0.50, 0.99, 52.0, 1.0, 64, 302,
        ),
        spec(
            "invoke", Golang, P, 8_000_000, 0.83, 0.99, 48.0, 1.0, 64, 303,
        ),
    ];
    for s in &mut v {
        // Platform services are long-running: most allocations live until
        // a GC cycle rather than a function exit (§2.2: "most allocations
        // are long-lived due to the Golang garbage collection").
        // Objects die quickly but storage is only reclaimed by periodic
        // GC cycles, which is why the paper classifies platform
        // allocations as long-lived.
        s.lifetime.short_fraction = 0.75;
        s.lifetime.short_mean_distance = 8.0;
    }
    v
}

/// All 23 workloads in Fig. 8 order (functions, data processing, platform).
pub fn all_workloads() -> Vec<WorkloadSpec> {
    let mut v = function_workloads();
    v.extend(data_proc_workloads());
    v.extend(platform_workloads());
    v
}

/// Looks a workload up by its paper name.
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    all_workloads().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::characterize;
    use crate::generator::generate;

    #[test]
    fn suite_has_23_workloads() {
        assert_eq!(function_workloads().len(), 16);
        assert_eq!(data_proc_workloads().len(), 4);
        assert_eq!(platform_workloads().len(), 3);
        assert_eq!(all_workloads().len(), 23);
    }

    #[test]
    fn names_are_unique_and_findable() {
        let all = all_workloads();
        let names: std::collections::HashSet<&str> = all.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), 23);
        assert!(by_name("Redis").is_some());
        assert!(by_name("html").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn every_workload_meets_pki_threshold() {
        for s in all_workloads() {
            assert!(s.malloc_pki >= 0.5, "{} below 0.5 MallocPKI", s.name);
        }
    }

    #[test]
    fn aggregate_small_fraction_matches_fig2() {
        // Paper: 93% of function allocations are < 512B; 98% data-proc,
        // 99% platform.
        let mut all = Vec::new();
        for s in function_workloads() {
            all.push(characterize(&generate(&s)));
        }
        let merged = crate::analysis::merge(&all);
        let frac = merged.small_fraction();
        assert!(
            (0.88..=0.97).contains(&frac),
            "function small fraction {frac} out of band"
        );
    }

    #[test]
    fn function_lifetimes_are_bimodal() {
        // Paper: ~71% freed within 16 same-class allocations, ~27%
        // long-lived.
        let mut all = Vec::new();
        for s in function_workloads() {
            all.push(characterize(&generate(&s)));
        }
        let merged = crate::analysis::merge(&all);
        let short16 = merged.short16_fraction();
        let long = merged.long_fraction();
        assert!(
            (0.55..=0.85).contains(&short16),
            "short16 {short16} out of band"
        );
        assert!((0.15..=0.45).contains(&long), "long {long} out of band");
    }

    #[test]
    fn language_lifetime_ordering_holds() {
        let gen_short = |name: &str| {
            let s = by_name(name).unwrap();
            characterize(&generate(&s)).short16_fraction()
        };
        let cpp = gen_short("US");
        let py = gen_short("html");
        let go = gen_short("html-go");
        assert!(cpp > py * 0.9, "C++ at least as short-lived as Python");
        assert!(py > go, "Python shorter-lived than Golang");
    }

    #[test]
    fn traces_generate_for_every_workload() {
        for s in all_workloads() {
            let t = generate(&s);
            assert!(t.alloc_count() > 100, "{} too few allocs", s.name);
            assert!(
                (t.malloc_pki() - s.malloc_pki).abs() / s.malloc_pki < 0.25,
                "{} pki drift: {} vs {}",
                s.name,
                t.malloc_pki(),
                s.malloc_pki
            );
        }
    }
}
