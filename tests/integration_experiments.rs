//! Integration tests of the experiment runners: every figure/table runner
//! executes end-to-end on a reduced workload set and produces sane output.

use memento_experiments::{
    arena_list, bandwidth, breakdown, characterization, comparisons, config_table, hot, memusage,
    pricing, sensitivity, speedup, EvalContext,
};

fn subset(ctx: &EvalContext) -> Vec<memento_workloads::spec::WorkloadSpec> {
    ["html", "US", "aes-go", "Redis", "invoke"]
        .iter()
        .map(|n| ctx.workload(n))
        .collect()
}

#[test]
fn fig2_fig3_table1_runners() {
    let mut ctx = EvalContext::quick();
    let specs = subset(&ctx);
    let ch = characterization::run(&mut ctx, &specs);
    assert!(!ch.groups.is_empty());
    let text = ch.to_string();
    for needle in ["Fig. 2", "Fig. 3", "Table 1", "Small", "Short-lived"] {
        assert!(text.contains(needle), "missing {needle}");
    }
}

#[test]
fn table2_runner() {
    let mut ctx = EvalContext::quick();
    let specs = subset(&ctx);
    let t2 = characterization::mm_breakdown(&mut ctx, &specs);
    assert!(t2.rows.len() >= 4);
    for (label, u, k) in &t2.rows {
        assert!((0.0..=1.0).contains(u), "{label} user {u}");
        assert!((u + k - 1.0).abs() < 1e-9);
    }
}

#[test]
fn table3_runner() {
    let t3 = config_table::run().to_string();
    assert!(t3.contains("Table 3"));
    assert!(t3.contains("HOT"));
    assert!(t3.contains("AAC"));
}

#[test]
fn fig8_through_fig14_runners() {
    let mut ctx = EvalContext::quick();
    let specs = subset(&ctx);

    let fig8 = speedup::run(&mut ctx, &specs);
    assert_eq!(fig8.rows.len(), specs.len());
    assert!(fig8.func_avg > 1.0);

    let fig9 = breakdown::run(&mut ctx, &specs);
    for r in &fig9.rows {
        let total = r.shares.obj_alloc + r.shares.obj_free + r.shares.page_mgmt + r.shares.bypass;
        assert!(
            (total - 100.0).abs() < 1.0 || total == 0.0,
            "{}: {total}",
            r.name
        );
    }

    let fig10 = bandwidth::run(&mut ctx, &specs);
    assert!(fig10.func_avg > 0.0, "functions must save bandwidth");

    let fig11 = memusage::run(&mut ctx, &specs);
    for r in &fig11.rows {
        assert!(r.kernel < 1.1, "{}: kernel ratio {}", r.name, r.kernel);
    }

    let fig12 = hot::run(&mut ctx, &specs);
    // Compulsory per-class misses weigh more at quick scale; the
    // full-scale calibration test enforces the paper's 99.8% band.
    assert!(
        fig12.func_alloc_avg > 0.95,
        "alloc avg {}",
        fig12.func_alloc_avg
    );

    let fig13 = arena_list::run(&mut ctx, &specs);
    assert!(fig13.max_alloc_rate < 0.05);

    let fig14 = pricing::run(&mut ctx, &specs);
    assert!(fig14.runtime_saving_avg > 0.0);
}

#[test]
fn comparison_runners() {
    let mut ctx = EvalContext::quick();
    let specs = vec![ctx.workload("US")];
    let iso = comparisons::iso_storage(&mut ctx, &specs);
    assert!(iso.memento_avg > iso.iso_avg);
    let mal = comparisons::mallacc(&mut ctx, &specs);
    assert!(mal.memento_avg > mal.mallacc_avg);
}

#[test]
fn sensitivity_runners() {
    let mut ctx = EvalContext::quick();
    let specs = vec![ctx.workload("aes"), ctx.workload("aes-go")];

    let pop = sensitivity::populate(&mut ctx, &specs);
    assert!(!pop.rows.is_empty());

    let frag = sensitivity::fragmentation(&mut ctx, &specs);
    assert!(!frag.rows.is_empty());
    for (name, m, b) in &frag.rows {
        assert!((0.0..=1.0).contains(m), "{name} memento {m}");
        assert!((0.0..=1.0).contains(b), "{name} baseline {b}");
    }

    let cold = sensitivity::coldstart(&mut ctx, &specs);
    for (name, warm, coldv) in &cold.rows {
        assert!(
            coldv > &1.0 && coldv < warm,
            "{name}: warm {warm} cold {coldv}"
        );
    }
}

#[test]
fn runs_are_shared_across_figures() {
    // Running fig8 then fig10 must reuse the same memoized runs: results
    // derived from the same RunStats must be consistent.
    let mut ctx = EvalContext::quick();
    let specs = vec![ctx.workload("html")];
    let fig8 = speedup::run(&mut ctx, &specs);
    let fig8_again = speedup::run(&mut ctx, &specs);
    assert_eq!(fig8.rows[0].speedup, fig8_again.rows[0].speedup);
}
