//! The parallel harness's core contract: fanning simulation points across
//! worker threads must not change a single byte of any result table.
//! Every comparison renders the full `Display` output — not just headline
//! numbers — so ordering, formatting, and aggregation are all under test.
//! Each study runs through a fresh [`EvalContext`] at `--jobs 1` and
//! `--jobs 4`.

use memento_experiments::context::{ConfigKind, EvalContext};
use memento_experiments::{ablation, characterization, multicore, report, speedup};

/// A small-but-mixed workload set: Python, C++, and Go functions plus a
/// steady-state data-processing member, so both the cold `run` and the
/// warm `run_invocations` paths cross the worker pool.
const NAMES: [&str; 4] = ["aes", "US", "bfs-go", "SQLite3"];

/// Renders `study` under a fresh context at `scale` with 1 and with 4
/// workers.
fn serial_and_parallel(scale: u64, study: impl Fn(&mut EvalContext) -> String) -> [String; 2] {
    [1, 4].map(|jobs| study(&mut EvalContext::scaled(scale).with_jobs(jobs)))
}

#[test]
fn speedup_table_identical_serial_vs_parallel() {
    let [serial, parallel] = serial_and_parallel(8, |ctx| {
        let specs = ctx.try_workloads(&NAMES).expect("known workloads");
        ctx.prefetch_kinds(&specs, &[ConfigKind::Baseline, ConfigKind::Memento]);
        speedup::run(ctx, &specs).to_string()
    });
    assert_eq!(serial, parallel, "speedup table diverged under --jobs 4");
}

#[test]
fn ablation_table_identical_serial_vs_parallel() {
    let [serial, parallel] = serial_and_parallel(4, |ctx| {
        ablation::run(ctx, &["html", "US"])
            .expect("known workloads")
            .to_string()
    });
    assert_eq!(serial, parallel, "ablation table diverged under --jobs 4");
}

#[test]
fn characterization_identical_serial_vs_parallel() {
    let [serial, parallel] = serial_and_parallel(8, |ctx| {
        let specs = ctx.try_workloads(&NAMES).expect("known workloads");
        characterization::run(ctx, &specs).to_string()
    });
    assert_eq!(serial, parallel, "characterization diverged under --jobs 4");
}

#[test]
fn multicore_table_identical_serial_vs_parallel() {
    let [serial, parallel] = serial_and_parallel(4, |ctx| {
        multicore::run(ctx, &["aes", "jl"])
            .expect("known workloads")
            .to_string()
    });
    assert_eq!(serial, parallel, "multicore table diverged under --jobs 4");
}

#[test]
fn cluster_table_identical_serial_vs_parallel() {
    use memento_experiments::cluster::{self, ClusterParams};
    let params = ClusterParams {
        nodes: 4,
        queue_capacity: 16,
        invocations: 600,
        seed: 7,
    };
    let [serial, parallel] = serial_and_parallel(8, |ctx| {
        cluster::run(ctx, &["aes", "html"], params)
            .expect("known workloads")
            .to_string()
    });
    assert_eq!(serial, parallel, "cluster table diverged under --jobs 4");
}

#[test]
fn prefetch_plan_ignores_submission_order() {
    use memento_experiments::SimPoint;
    let kinds = [
        ConfigKind::Baseline,
        ConfigKind::Memento,
        ConfigKind::MementoNoBypass,
    ];
    let render = |reverse: bool| {
        let mut ctx = EvalContext::quick().with_jobs(4);
        let specs = ctx.try_workloads(&NAMES).expect("known workloads");
        let mut points: Vec<SimPoint> = specs
            .iter()
            .flat_map(|s| kinds.iter().map(|k| SimPoint::new(s.clone(), *k)))
            .collect();
        if reverse {
            points.reverse();
        }
        ctx.prefetch(points);
        speedup::run(&mut ctx, &specs).to_string()
    };
    assert_eq!(render(false), render(true));
}

#[test]
fn full_report_identical_serial_vs_parallel() {
    // Every study of the evaluation, in one render: the paper figures,
    // the fleet and contention extensions, and the post-report studies.
    let [serial, parallel] = serial_and_parallel(64, |ctx| {
        report::run(ctx)
            .unwrap_or_else(|e| panic!("full evaluation failed: {e}"))
            .to_string()
    });
    assert_eq!(serial, parallel, "full report diverged under --jobs 4");
}
