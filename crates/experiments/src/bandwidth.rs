//! Fig. 10: normalized main-memory bandwidth reduction, with the bypass
//! mechanism's contribution highlighted (the paper's yellow caps).

use crate::context::{ConfigKind, EvalContext};
use crate::table::Table;
use memento_workloads::spec::{Category, WorkloadSpec};
use std::fmt;

/// One Fig. 10 bar.
#[derive(Clone, Debug)]
pub struct BandwidthRow {
    /// Workload name.
    pub name: String,
    /// Paper grouping.
    pub category: Category,
    /// Total DRAM-traffic reduction: 1 − memento/baseline.
    pub reduction: f64,
    /// Portion of the reduction contributed by main-memory bypass.
    pub bypass_share: f64,
}

/// Fig. 10 results.
#[derive(Clone, Debug)]
pub struct BandwidthResult {
    /// Per-workload bars.
    pub rows: Vec<BandwidthRow>,
    /// Mean reduction over function workloads.
    pub func_avg: f64,
    /// Mean reduction over data-processing applications.
    pub data_avg: f64,
    /// Mean reduction over platform operations.
    pub pltf_avg: f64,
    /// Mean bypass contribution over all workloads.
    pub bypass_avg: f64,
}

fn mean(rows: &[BandwidthRow], cat: Category) -> f64 {
    let v: Vec<f64> = rows
        .iter()
        .filter(|r| r.category == cat)
        .map(|r| r.reduction)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Runs Fig. 10 over `specs`.
pub fn run(ctx: &mut EvalContext, specs: &[WorkloadSpec]) -> BandwidthResult {
    let rows: Vec<BandwidthRow> = specs
        .iter()
        .map(|spec| {
            let base = ctx.run(spec, ConfigKind::Baseline).dram_bytes() as f64;
            let mem = ctx.run(spec, ConfigKind::Memento).dram_bytes() as f64;
            let nobypass = ctx.run(spec, ConfigKind::MementoNoBypass).dram_bytes() as f64;
            let base = base.max(1.0);
            BandwidthRow {
                name: spec.name.clone(),
                category: spec.category,
                reduction: 1.0 - mem / base,
                bypass_share: ((nobypass - mem) / base).max(0.0),
            }
        })
        .collect();
    let bypass_avg = rows.iter().map(|r| r.bypass_share).sum::<f64>() / rows.len().max(1) as f64;
    BandwidthResult {
        func_avg: mean(&rows, Category::Function),
        data_avg: mean(&rows, Category::DataProc),
        pltf_avg: mean(&rows, Category::Platform),
        bypass_avg,
        rows,
    }
}

impl fmt::Display for BandwidthResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 10 — Normalized memory-bandwidth reduction (bypass share highlighted)"
        )?;
        let mut t = Table::new(vec!["workload", "reduction", "of which bypass"]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                format!("{:.3}", r.reduction),
                format!("{:.3}", r.bypass_share),
            ]);
        }
        t.row(vec![
            "func-avg".into(),
            format!("{:.3}", self.func_avg),
            String::new(),
        ]);
        t.row(vec![
            "data-avg".into(),
            format!("{:.3}", self.data_avg),
            String::new(),
        ]);
        t.row(vec![
            "pltf-avg".into(),
            format!("{:.3}", self.pltf_avg),
            String::new(),
        ]);
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_reduction_positive_for_alloc_heavy() {
        let mut ctx = EvalContext::quick();
        let specs = vec![ctx.workload("html")];
        let result = run(&mut ctx, &specs);
        let r = &result.rows[0];
        assert!(r.reduction > 0.0, "reduction {}", r.reduction);
        assert!(r.bypass_share >= 0.0);
        assert!(r.bypass_share <= r.reduction + 0.05);
        assert!(result.to_string().contains("Fig. 10"));
    }
}
