//! The benchmark's own contract: metric names, attribution that adds up,
//! determinism per seed, and tracing that leaves simulated outputs alone.
//! Runs at `Size::small`; `cargo test --release` keeps it quick.

use memento_perfbench::report::{self, END_TO_END};
use memento_perfbench::scenario::{self, Size, Workload};
use memento_simcore::json::{self, Value};

fn names_in(bench: &Value, section: &str) -> Vec<String> {
    bench
        .get(section)
        .and_then(Value::as_array)
        .expect("section present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_owned()
        })
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_the_benchmark_file() {
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let layers: Vec<String> = report::per_layer_names()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    for name in e2e.iter().chain(&layers) {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
    }
    let mut all = e2e.clone();
    all.extend(layers.iter().cloned());
    let mut dedup = all.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), all.len(), "metric names are unique");

    let bench = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
    assert_eq!(names_in(&bench, "end_to_end"), e2e);
    assert_eq!(names_in(&bench, "per_layer"), layers);
    let workloads = names_in(&bench, "workloads");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn host_shares_sum_to_the_traced_wall_time() {
    for w in Workload::ALL {
        let out = report::per_layer(w, 3, &Size::small());
        assert!(out.correct, "{}: {:?}", w.name(), out.problems);
        let wall = out.metrics["trace.wall_s"];
        let shares: f64 = out
            .metrics
            .iter()
            .filter(|(k, _)| k.starts_with("host_share."))
            .map(|(_, v)| v)
            .sum();
        assert!(wall > 0.0, "{}: traced wall time measured", w.name());
        assert!(
            (shares - wall).abs() <= 1e-9 * wall.max(1.0),
            "{}: shares {shares} vs wall {wall}",
            w.name()
        );
    }
}

#[test]
fn same_seed_runs_agree_exactly_on_simulated_outputs() {
    let simulated = |m: &memento_perfbench::Counts| {
        m.iter()
            .filter(|(k, _)| k.starts_with("sim_"))
            .map(|(k, v)| (k.clone(), *v))
            .collect::<Vec<_>>()
    };
    for w in Workload::ALL {
        let a = report::end_to_end(w, 5, 0, &Size::small());
        let b = report::end_to_end(w, 5, 0, &Size::small());
        assert!(a.correct && b.correct, "{}", w.name());
        assert_eq!(a.digest, b.digest, "{}: digest", w.name());
        assert_eq!(simulated(&a.metrics), simulated(&b.metrics), "{}", w.name());
        let other = report::end_to_end(w, 6, 0, &Size::small());
        assert_ne!(
            a.digest,
            other.digest,
            "{}: the seed reaches the inputs",
            w.name()
        );
    }
    // Counts and ratios of the traced run are exact too.
    let units: Vec<(String, &str)> = report::per_layer_names();
    let exact = |o: &report::Outcome| {
        units
            .iter()
            .filter(|(_, u)| *u == "count" || *u == "ratio")
            .filter(|(n, _)| n != "trace.overhead_frac")
            .map(|(n, _)| (n.clone(), o.metrics.get(n).copied()))
            .collect::<Vec<_>>()
    };
    for w in [Workload::MeasuredFleet, Workload::ColocatedBatch] {
        let a = report::per_layer(w, 5, &Size::small());
        let b = report::per_layer(w, 5, &Size::small());
        assert_eq!(exact(&a), exact(&b), "{}", w.name());
    }
}

#[test]
fn tracing_changes_no_simulated_output() {
    for w in Workload::ALL {
        let setup = scenario::setup(w, 9, &Size::small());
        let plain = scenario::run(&setup.inputs, false, &mut || ());
        let traced = scenario::run(&setup.inputs, true, &mut || ());
        assert!(plain.problems.is_empty(), "{:?}", plain.problems);
        assert_eq!(plain.digest, traced.digest, "{}", w.name());
        assert_eq!(plain.latencies, traced.latencies, "{}", w.name());
        assert_eq!(plain.peak_frames, traced.peak_frames, "{}", w.name());
    }
}
