//! Fig. 13: arena-list operation frequency — the fraction of
//! `obj-alloc`/`obj-free` operations that performed available/full-list
//! surgery (the paper shows <1 % of allocations and <0.6 % of frees).

use crate::context::{ConfigKind, EvalContext};
use crate::table::Table;
use memento_workloads::spec::WorkloadSpec;
use std::fmt;

/// One Fig. 13 bar pair.
#[derive(Clone, Debug)]
pub struct ArenaListRow {
    /// Workload name.
    pub name: String,
    /// Fraction of allocations with list surgery.
    pub alloc_rate: f64,
    /// Fraction of frees with list surgery.
    pub free_rate: f64,
}

/// Fig. 13 results.
#[derive(Clone, Debug)]
pub struct ArenaListResult {
    /// Per-workload rates.
    pub rows: Vec<ArenaListRow>,
    /// Maximum alloc-side rate (the paper bounds it below 1 %).
    pub max_alloc_rate: f64,
    /// Maximum free-side rate (the paper bounds it below 0.6 %).
    pub max_free_rate: f64,
}

/// Runs Fig. 13 over `specs`.
pub fn run(ctx: &mut EvalContext, specs: &[WorkloadSpec]) -> ArenaListResult {
    let rows: Vec<ArenaListRow> = specs
        .iter()
        .map(|spec| {
            let obj = ctx
                .run(spec, ConfigKind::Memento)
                .obj
                .expect("memento run has obj stats");
            ArenaListRow {
                name: spec.name.clone(),
                alloc_rate: obj.alloc_list_ops as f64 / obj.allocs.max(1) as f64,
                free_rate: obj.free_list_ops as f64 / obj.frees.max(1) as f64,
            }
        })
        .collect();
    ArenaListResult {
        max_alloc_rate: rows.iter().map(|r| r.alloc_rate).fold(0.0, f64::max),
        max_free_rate: rows.iter().map(|r| r.free_rate).fold(0.0, f64::max),
        rows,
    }
}

impl fmt::Display for ArenaListResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 13 — Arena list operation frequency (% of obj-alloc / obj-free)"
        )?;
        let mut t = Table::new(vec!["workload", "alloc %", "free %"]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                format!("{:.3}", r.alloc_rate * 100.0),
                format!("{:.3}", r.free_rate * 100.0),
            ]);
        }
        writeln!(f, "{t}")?;
        write!(
            f,
            "max: alloc {:.3}% free {:.3}%",
            self.max_alloc_rate * 100.0,
            self.max_free_rate * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_operations_are_rare() {
        let mut ctx = EvalContext::quick();
        let specs = vec![ctx.workload("US"), ctx.workload("html")];
        let result = run(&mut ctx, &specs);
        // Paper bound: <1% of allocations, <0.6% of frees... allow slack
        // for the shrunk quick workloads.
        assert!(
            result.max_alloc_rate < 0.02,
            "alloc {}",
            result.max_alloc_rate
        );
        assert!(result.max_free_rate < 0.02, "free {}", result.max_free_rate);
        assert!(result.to_string().contains("Fig. 13"));
    }
}
