//! Golden-snapshot regression test: the headline numbers of a small-scale
//! full evaluation must match `tests/fixtures/golden_summary.json`
//! field-by-field.
//!
//! The snapshot pins the *results* of the whole simulation stack — any
//! change to timing models, allocator behaviour, or experiment aggregation
//! shows up here as a named per-field diff. After an intentional model
//! change, re-bless the fixture:
//!
//! ```sh
//! MEMENTO_BLESS=1 cargo test --test golden
//! ```

use memento_experiments::{report, EvalContext};
use memento_simcore::json::{self, Value};
use std::path::PathBuf;

/// Workload scale divisor for the snapshot run: big enough to keep the
/// test in CI budget, small enough that every figure still materializes.
const GOLDEN_SCALE: u64 = 64;

/// Relative tolerance for numeric fields. The simulation is deterministic;
/// this only absorbs libm ulp differences in `ln`/`exp` across platforms.
const REL_TOL: f64 = 1e-9;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden_summary.json")
}

/// Recursively diffs `expected` against `actual`, pushing one line per
/// mismatch with the JSON path of the differing field.
fn diff(path: &str, expected: &Value, actual: &Value, out: &mut Vec<String>) {
    match (expected, actual) {
        (Value::Num(e), Value::Num(a)) => {
            let scale = e.abs().max(a.abs()).max(1e-300);
            if (e - a).abs() / scale > REL_TOL {
                out.push(format!("{path}: expected {e}, got {a}"));
            }
        }
        (Value::Object(e), Value::Object(a)) => {
            for (key, ev) in e {
                match a.iter().find(|(k, _)| k == key) {
                    Some((_, av)) => diff(&format!("{path}.{key}"), ev, av, out),
                    None => out.push(format!("{path}.{key}: missing from actual")),
                }
            }
            for (key, _) in a {
                if !e.iter().any(|(k, _)| k == key) {
                    out.push(format!("{path}.{key}: not in snapshot"));
                }
            }
        }
        (Value::Array(e), Value::Array(a)) => {
            if e.len() != a.len() {
                out.push(format!("{path}: array length {} vs {}", e.len(), a.len()));
            }
            for (i, (ev, av)) in e.iter().zip(a).enumerate() {
                diff(&format!("{path}[{i}]"), ev, av, out);
            }
        }
        (e, a) if e == a => {}
        (e, a) => out.push(format!("{path}: expected {e:?}, got {a:?}")),
    }
}

#[test]
fn evaluation_summary_matches_golden_snapshot() {
    let mut ctx = EvalContext::scaled(GOLDEN_SCALE);
    let summary = report::run(&mut ctx)
        .unwrap_or_else(|e| panic!("full evaluation failed: {e}"))
        .summary_json();
    let path = fixture_path();

    if std::env::var("MEMENTO_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, summary.to_pretty()).expect("write blessed fixture");
        eprintln!("blessed {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with MEMENTO_BLESS=1",
            path.display()
        )
    });
    let expected = json::parse(&text).expect("fixture is valid JSON");

    let mut mismatches = Vec::new();
    diff("summary", &expected, &summary, &mut mismatches);
    assert!(
        mismatches.is_empty(),
        "evaluation summary diverged from the golden snapshot in {} field(s):\n  {}\n\
         If the change is intentional, re-bless with MEMENTO_BLESS=1 cargo test --test golden",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}

#[test]
fn one_core_scheduled_machine_reproduces_golden_path_numbers() {
    // The multicore machine's contention machinery (fair-share LLC
    // partitioning, DRAM queueing, per-core pool claims) must be exactly
    // inert at one core: a cores=1 scheduled batch reproduces the plain
    // runner — the path every golden number above is measured on — field
    // for field at snapshot tolerance.
    use memento_system::{Machine, SystemConfig};
    let ctx = EvalContext::scaled(GOLDEN_SCALE);
    let mut plain_doc = Value::object();
    let mut sched_doc = Value::object();
    for name in ["aes", "html", "US"] {
        let spec = ctx.workload(name);
        for (label, cfg) in [
            ("baseline", SystemConfig::baseline()),
            ("memento", SystemConfig::memento()),
        ] {
            let plain = Machine::new(cfg.clone()).run(&spec);
            let (mut batch, sched) =
                Machine::new(cfg.with_cores(1)).run_scheduled(std::slice::from_ref(&spec), 0x5EED);
            let scheduled = batch.remove(0);
            assert_eq!(sched.steals, 0, "one core has nobody to steal from");
            for (doc, stats) in [(&mut plain_doc, &plain), (&mut sched_doc, &scheduled)] {
                doc.set(
                    format!("{name}.{label}.cycles").as_str(),
                    stats.total_cycles().raw() as f64,
                )
                .set(
                    format!("{name}.{label}.dram_bytes").as_str(),
                    stats.dram_bytes() as f64,
                )
                .set(
                    format!("{name}.{label}.mm_fraction").as_str(),
                    stats.mm_fraction(),
                )
                .set(
                    format!("{name}.{label}.peak_mb").as_str(),
                    stats.peak_memory_mb(),
                );
            }
        }
    }
    let mut mismatches = Vec::new();
    diff("one_core", &plain_doc, &sched_doc, &mut mismatches);
    assert!(
        mismatches.is_empty(),
        "a cores=1 scheduled machine diverged from the single-core runner in {} field(s):\n  {}",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}

#[test]
fn golden_diff_reports_each_differing_field() {
    // The diff engine itself: tolerance applies per-field, paths name the
    // exact divergence, extra and missing keys are both reported.
    let expected =
        json::parse(r#"{"a": 1.0, "b": {"c": 2.0}, "rows": [{"name": "x", "v": 3.0}], "gone": 9}"#)
            .expect("test doc");
    let actual = json::parse(
        r#"{"a": 1.001, "b": {"c": 2.0000000000000004}, "rows": [{"name": "x", "v": 4.0}], "new": 1}"#,
    )
    .expect("test doc");
    let mut out = Vec::new();
    diff("summary", &expected, &actual, &mut out);
    let text = out.join("\n");
    assert!(text.contains("summary.a"), "beyond-tolerance field named");
    assert!(text.contains("summary.rows[0].v"), "nested path named");
    assert!(text.contains("summary.gone: missing"), "missing key named");
    assert!(text.contains("summary.new: not in snapshot"));
    assert!(!text.contains("summary.b"), "within-tolerance field silent");
    assert_eq!(out.len(), 4, "exactly the four real diffs:\n{text}");
}
