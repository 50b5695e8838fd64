//! Fig. 8: normalized speedup of Memento over the baseline, per workload
//! plus func-avg / data-avg / pltf-avg.

use crate::context::EvalContext;
use crate::table::{f3, Table};
use memento_system::stats;
use memento_workloads::spec::{Category, WorkloadSpec};
use std::fmt;

/// One Fig. 8 bar.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Workload name.
    pub name: String,
    /// Paper grouping.
    pub category: Category,
    /// Baseline cycles / Memento cycles.
    pub speedup: f64,
}

/// Fig. 8 results.
#[derive(Clone, Debug)]
pub struct SpeedupResult {
    /// Per-workload bars in suite order.
    pub rows: Vec<SpeedupRow>,
    /// Geometric-mean speedup over the function workloads.
    pub func_avg: f64,
    /// Geometric-mean speedup over the data-processing applications.
    pub data_avg: f64,
    /// Geometric-mean speedup over the platform operations.
    pub pltf_avg: f64,
}

impl SpeedupResult {
    /// Speedup of one workload.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.speedup)
    }

    fn avg(&self, cat: Category) -> f64 {
        let v: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.category == cat)
            .map(|r| r.speedup)
            .collect();
        stats::geomean(&v)
    }
}

/// Runs Fig. 8 over `specs`.
pub fn run(ctx: &mut EvalContext, specs: &[WorkloadSpec]) -> SpeedupResult {
    use crate::context::ConfigKind;
    ctx.prefetch_kinds(specs, &[ConfigKind::Baseline, ConfigKind::Memento]);
    let rows: Vec<SpeedupRow> = specs
        .iter()
        .map(|spec| {
            let (base, mem) = ctx.pair(spec);
            SpeedupRow {
                name: spec.name.clone(),
                category: spec.category,
                speedup: stats::speedup(&base, &mem),
            }
        })
        .collect();
    let mut result = SpeedupResult {
        rows,
        func_avg: 1.0,
        data_avg: 1.0,
        pltf_avg: 1.0,
    };
    result.func_avg = result.avg(Category::Function);
    result.data_avg = result.avg(Category::DataProc);
    result.pltf_avg = result.avg(Category::Platform);
    result
}

impl fmt::Display for SpeedupResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 8 — Normalized speedup (baseline = 1.0)")?;
        let mut t = Table::new(vec!["workload", "speedup"]);
        for r in &self.rows {
            t.row(vec![r.name.clone(), f3(r.speedup)]);
        }
        t.row(vec!["func-avg".into(), f3(self.func_avg)]);
        t.row(vec!["data-avg".into(), f3(self.data_avg)]);
        t.row(vec!["pltf-avg".into(), f3(self.pltf_avg)]);
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_speedups_positive() {
        let mut ctx = EvalContext::quick();
        let specs = vec![ctx.workload("aes"), ctx.workload("Redis")];
        let result = run(&mut ctx, &specs);
        assert_eq!(result.rows.len(), 2);
        for r in &result.rows {
            assert!(r.speedup > 1.0, "{} not sped up: {}", r.name, r.speedup);
        }
        assert!(result.get("aes").is_some());
        assert!(result.get("nope").is_none());
        assert!(result.to_string().contains("Fig. 8"));
    }
}
