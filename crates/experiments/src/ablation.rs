//! Ablations of Memento's own design choices (the knobs DESIGN.md calls
//! out): the optional eager-replenish optimization of §3.1, the hardware
//! page-pool refill batch, and the AAC pointer-slot capacity.

use crate::context::EvalContext;
use crate::error::ExperimentError;
use crate::table::{f3, Table};
use memento_core::device::MementoConfig;
use memento_core::page_alloc::PageAllocatorConfig;
use memento_system::{stats, Machine, Mode, RunStats, SystemConfig};
use memento_workloads::spec::WorkloadSpec;
use std::fmt;

/// One ablation row.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Geometric-mean speedup over the baseline across the workload set.
    pub speedup: f64,
    /// Mean HOT-miss-path share of `obj-alloc` operations.
    pub alloc_miss_rate: f64,
}

/// Ablation results.
#[derive(Clone, Debug)]
pub struct AblationResult {
    /// Variant rows (first row is the paper-default configuration).
    pub rows: Vec<AblationRow>,
}

fn memento_with(mcfg: MementoConfig) -> SystemConfig {
    SystemConfig {
        mode: Mode::Memento(mcfg),
        ..SystemConfig::baseline()
    }
}

/// Aggregates one variant's per-spec runs against the shared baselines.
fn summarize(baselines: &[RunStats], runs: &[RunStats]) -> (f64, f64) {
    let speedups: Vec<f64> = baselines
        .iter()
        .zip(runs)
        .map(|(base, mem)| stats::speedup(base, mem))
        .collect();
    let miss_rates: Vec<f64> = runs
        .iter()
        .map(|mem| 1.0 - mem.hot.expect("memento run").alloc.hit_rate())
        .collect();
    (
        stats::geomean(&speedups),
        miss_rates.iter().sum::<f64>() / miss_rates.len().max(1) as f64,
    )
}

/// The ablation variants: label + Memento configuration.
fn variants() -> Vec<(String, MementoConfig)> {
    let default = MementoConfig::paper_default();
    let mut v = vec![
        ("paper default".to_owned(), default),
        // §3.1's optional optimization: eagerly replenish the next arena
        // so HOT-miss latency is hidden off the critical path.
        (
            "eager replenish".to_owned(),
            MementoConfig {
                eager_replenish: true,
                ..default
            },
        ),
        // No bypass (Fig. 9/10's ablation).
        (
            "no bypass".to_owned(),
            MementoConfig {
                bypass_enabled: false,
                ..default
            },
        ),
    ];
    // Pool refill batch: tiny (4) and large (64) grants.
    for batch in [4u64, 64] {
        v.push((
            format!("pool batch {batch}"),
            MementoConfig {
                page_alloc: PageAllocatorConfig {
                    refill_batch: batch,
                    low_water: (batch / 4).max(1) as usize,
                    ..default.page_alloc
                },
                ..default
            },
        ));
    }
    // AAC slots per entry: 1 (near-no caching) vs the default 8.
    v.push((
        "aac 1 slot".to_owned(),
        MementoConfig {
            page_alloc: PageAllocatorConfig {
                aac_slots: 1,
                ..default.page_alloc
            },
            ..default
        },
    ));
    v
}

/// Runs the ablation suite over `names` at half the context's size
/// ([`crate::context::HALF_SIZE_DIVISOR`]) on its worker pool. Every
/// (variant, workload) pair is one shard and each baseline runs once
/// (shared across variants, which a serial per-variant sweep would
/// re-run); aggregation is in fixed variant order, so output is identical
/// at any jobs count.
pub fn run(ctx: &mut EvalContext, names: &[&str]) -> Result<AblationResult, ExperimentError> {
    let specs: Vec<WorkloadSpec> = ctx.try_half_size_workloads(names)?;
    let variants = variants();

    // One work item per simulation: the shared baselines first, then every
    // variant x spec cell.
    let mut points: Vec<(SystemConfig, WorkloadSpec)> = specs
        .iter()
        .map(|s| (SystemConfig::baseline(), s.clone()))
        .collect();
    for (_, mcfg) in &variants {
        points.extend(specs.iter().map(|s| (memento_with(*mcfg), s.clone())));
    }
    let results = ctx.map(&points, |(cfg, spec)| Machine::new(cfg.clone()).run(spec));

    let (baselines, variant_runs) = results.split_at(specs.len());
    let rows = variants
        .iter()
        .zip(variant_runs.chunks(specs.len()))
        .map(|((label, _), runs)| {
            let (speedup, alloc_miss_rate) = summarize(baselines, runs);
            AblationRow {
                variant: label.clone(),
                speedup,
                alloc_miss_rate,
            }
        })
        .collect();
    Ok(AblationResult { rows })
}

/// §4 future-work extension study: an enhanced GC that proactively frees
/// dead ephemeral objects through `obj-free` instead of deferring to the
/// sweep, on the Golang workloads.
#[derive(Clone, Debug)]
pub struct ProactiveGcResult {
    /// `(workload, memento speedup, memento+proactive speedup, LLC miss
    /// ratio proactive/deferred)` rows.
    pub rows: Vec<(String, f64, f64, f64)>,
}

/// Runs the proactive-GC extension comparison over the Go workloads
/// `names`, at half the context's size, on its worker pool.
pub fn proactive_gc(
    ctx: &mut EvalContext,
    names: &[&str],
) -> Result<ProactiveGcResult, ExperimentError> {
    let specs: Vec<WorkloadSpec> = ctx.try_half_size_workloads(names)?;
    // Three independent systems per workload; each is one shard.
    let points: Vec<(SystemConfig, WorkloadSpec)> = specs
        .iter()
        .flat_map(|spec| {
            [
                SystemConfig::baseline(),
                SystemConfig::memento(),
                SystemConfig::memento_proactive_gc(),
            ]
            .map(|cfg| (cfg, spec.clone()))
        })
        .collect();
    let results = ctx.map(&points, |(cfg, spec)| Machine::new(cfg.clone()).run(spec));
    let rows = specs
        .iter()
        .zip(results.chunks(3))
        .map(|(spec, runs)| {
            let (base, memento, proactive) = (&runs[0], &runs[1], &runs[2]);
            let llc_ratio = (proactive.mem.llc.demand.misses.max(1)) as f64
                / (memento.mem.llc.demand.misses.max(1)) as f64;
            (
                spec.name.clone(),
                stats::speedup(base, memento),
                stats::speedup(base, proactive),
                llc_ratio,
            )
        })
        .collect();
    Ok(ProactiveGcResult { rows })
}

impl fmt::Display for ProactiveGcResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§4 extension — GC with proactive ephemeral frees via obj-free (Golang)"
        )?;
        let mut t = Table::new(vec!["workload", "Memento", "+proactive", "LLC-miss ratio"]);
        for (name, m, p, llc) in &self.rows {
            t.row(vec![name.clone(), f3(*m), f3(*p), f3(*llc)]);
        }
        write!(f, "{t}")
    }
}

impl fmt::Display for AblationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Design-choice ablations (geomean speedup over baseline)")?;
        let mut t = Table::new(vec!["variant", "speedup", "HOT alloc-miss"]);
        for r in &self.rows {
            t.row(vec![
                r.variant.clone(),
                f3(r.speedup),
                format!("{:.3}%", r.alloc_miss_rate * 100.0),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_is_a_typed_error() {
        let mut ctx = EvalContext::scaled(4);
        let err = run(&mut ctx, &["nope"]).expect_err("must fail");
        assert_eq!(err, ExperimentError::UnknownWorkload("nope".into()));
        assert!(proactive_gc(&mut ctx, &["also-nope"]).is_err());
    }

    #[test]
    fn proactive_gc_is_sane() {
        let result =
            proactive_gc(&mut EvalContext::scaled(4), &["aes-go"]).expect("known workloads");
        let (_, memento, proactive, llc_ratio) = result.rows[0].clone();
        assert!(memento > 1.0);
        assert!(proactive > 1.0);
        // Proactive frees recycle ephemeral slots, so cache pressure must
        // not grow (the paper's motivating intuition).
        assert!(llc_ratio < 1.15, "LLC miss ratio {llc_ratio}");
        assert!(result.to_string().contains("proactive"));
    }

    #[test]
    fn ablations_order_sanely() {
        let result = run(&mut EvalContext::scaled(4), &["html"]).expect("known workloads");
        let get = |label: &str| {
            result
                .rows
                .iter()
                .find(|r| r.variant == label)
                .map(|r| r.speedup)
                .expect("variant present")
        };
        let default = get("paper default");
        assert!(default > 1.0);
        assert!(get("no bypass") <= default + 1e-9, "bypass can only help");
        assert!(
            get("eager replenish") >= default - 1e-9,
            "hiding miss latency can only help"
        );
        // Pool batch size is a memory/perf trade-off, not a perf cliff.
        assert!((get("pool batch 4") - default).abs() < 0.05);
        assert!((get("aac 1 slot") - default).abs() < 0.05);
    }
}
