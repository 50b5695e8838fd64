//! Calibration bands: the full-scale suite must reproduce the paper's
//! headline numbers in *shape* — who wins, by roughly what factor, where
//! the crossovers fall. These tests run the real (unscaled) workloads, so
//! they are the slowest in the suite.

use memento_experiments::{arena_list, bandwidth, hot, pricing, speedup, ConfigKind, EvalContext};
use memento_workloads::spec::Category;

/// Paper band: function speedups between 8% and 28%, 16% on average.
#[test]
fn function_speedups_land_in_the_paper_band() {
    let mut ctx = EvalContext::new();
    let specs: Vec<_> = ctx
        .workloads()
        .into_iter()
        .filter(|s| s.category == Category::Function)
        .collect();
    let fig8 = speedup::run(&mut ctx, &specs);
    for r in &fig8.rows {
        assert!(
            (1.06..=1.32).contains(&r.speedup),
            "{}: speedup {:.3} outside the band",
            r.name,
            r.speedup
        );
    }
    assert!(
        (1.12..=1.20).contains(&fig8.func_avg),
        "func-avg {:.3} vs paper 1.16",
        fig8.func_avg
    );
    // html (dynamic-html) is the paper's peak performer.
    let html = fig8.get("html").expect("html present");
    assert!(html > 1.22, "html {html:.3} should approach 1.28");
}

/// Paper: data processing 5–11% with Redis the biggest gainer; platform
/// operations 4–7%.
#[test]
fn beyond_functions_matches_paper_ordering() {
    let mut ctx = EvalContext::new();
    let specs: Vec<_> = ctx
        .workloads()
        .into_iter()
        .filter(|s| s.category != Category::Function)
        .collect();
    let fig8 = speedup::run(&mut ctx, &specs);
    for r in &fig8.rows {
        assert!(
            (1.03..=1.14).contains(&r.speedup),
            "{}: {:.3} outside the beyond-functions band",
            r.name,
            r.speedup
        );
    }
    let redis = fig8.get("Redis").expect("redis");
    let sqlite = fig8.get("SQLite3").expect("sqlite");
    assert!(
        redis > sqlite,
        "Redis {redis:.3} must top SQLite3 {sqlite:.3}"
    );
}

/// Paper Fig. 10: ~30% average DRAM-traffic reduction for functions.
#[test]
fn bandwidth_reduction_band() {
    let mut ctx = EvalContext::new();
    let specs: Vec<_> = ctx
        .workloads()
        .into_iter()
        .filter(|s| s.category == Category::Function)
        .collect();
    let fig10 = bandwidth::run(&mut ctx, &specs);
    assert!(
        (0.10..=0.45).contains(&fig10.func_avg),
        "func bandwidth reduction {:.3} vs paper ~0.30",
        fig10.func_avg
    );
    assert!(fig10.bypass_avg > 0.0, "bypass must contribute");
}

/// Paper Fig. 12: allocation hit rate 99.8%; free hit rate 83% on average
/// with Python lower than C++/Golang.
#[test]
fn hot_hit_rate_bands() {
    let mut ctx = EvalContext::new();
    let specs: Vec<_> = ctx
        .workloads()
        .into_iter()
        .filter(|s| s.category == Category::Function)
        .collect();
    let fig12 = hot::run(&mut ctx, &specs);
    assert!(
        fig12.func_alloc_avg > 0.985,
        "alloc hit avg {:.4} vs paper 0.998",
        fig12.func_alloc_avg
    );
    assert!(
        (0.70..=0.97).contains(&fig12.func_free_avg),
        "free hit avg {:.4} vs paper 0.83",
        fig12.func_free_avg
    );
    // Language shape: Python free-hit below the C++ mean.
    let avg = |lang: &str| {
        let rows: Vec<&hot::HotRow> = fig12
            .rows
            .iter()
            .filter(|r| {
                let spec = ctx.workload(&r.name);
                format!("{}", spec.language) == lang
            })
            .collect();
        rows.iter().map(|r| r.free_hit).sum::<f64>() / rows.len().max(1) as f64
    };
    assert!(
        avg("Python") < avg("C++") + 0.02,
        "Python {:.3} should sit below C++ {:.3}",
        avg("Python"),
        avg("C++")
    );
}

/// Paper Fig. 13: <1% of allocations and <0.6% of frees do list surgery.
#[test]
fn arena_list_bands() {
    let mut ctx = EvalContext::new();
    let specs: Vec<_> = ctx.workloads();
    let fig13 = arena_list::run(&mut ctx, &specs);
    assert!(
        fig13.max_alloc_rate < 0.01,
        "max alloc list rate {:.4}",
        fig13.max_alloc_rate
    );
    assert!(
        fig13.max_free_rate < 0.012,
        "max free list rate {:.4}",
        fig13.max_free_rate
    );
}

/// Paper Fig. 14: ~29% runtime-cost saving; end-to-end (with fixed
/// per-invocation charge) up to 31% and 11% on average.
#[test]
fn pricing_bands() {
    let mut ctx = EvalContext::new();
    let specs: Vec<_> = ctx
        .workloads()
        .into_iter()
        .filter(|s| s.category == Category::Function)
        .collect();
    let fig14 = pricing::run(&mut ctx, &specs);
    assert!(
        fig14.runtime_saving_avg > 0.05,
        "runtime saving {:.3}",
        fig14.runtime_saving_avg
    );
    assert!(
        fig14.end_to_end_saving_avg < fig14.runtime_saving_avg,
        "fixed charge must dilute the end-to-end saving"
    );
}

/// Paper Table 2 directionality: C++ the most user-dominated; Python and
/// Golang split much more evenly.
#[test]
fn user_kernel_split_shape() {
    let mut ctx = EvalContext::new();
    let cpp = ctx.workload("US");
    let py = ctx.workload("html");
    let cpp_user = ctx.run(&cpp, ConfigKind::Baseline).user_mm_share();
    let py_kernel = ctx.run(&py, ConfigKind::Baseline).kernel_mm_share();
    assert!(cpp_user > 0.40, "C++ user share {cpp_user:.2}");
    assert!(py_kernel > 0.20, "Python kernel share {py_kernel:.2}");
}
