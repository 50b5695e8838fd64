//! Fig. 12: Hardware Object Table hit rates for `obj-alloc` and
//! `obj-free`, plus AAC behaviour (§6.4).

use crate::context::{ConfigKind, EvalContext};
use crate::table::Table;
use memento_workloads::spec::{Category, WorkloadSpec};
use std::fmt;

/// One Fig. 12 bar pair.
#[derive(Clone, Debug)]
pub struct HotRow {
    /// Workload name.
    pub name: String,
    /// Paper grouping.
    pub category: Category,
    /// `obj-alloc` HOT hit rate.
    pub alloc_hit: f64,
    /// `obj-free` HOT hit rate.
    pub free_hit: f64,
    /// `obj-free` operations observed.
    pub frees: u64,
    /// AAC hit rate (§6.4: uniformly high).
    pub aac_hit: f64,
}

/// Fig. 12 results.
#[derive(Clone, Debug)]
pub struct HotResult {
    /// Per-workload hit rates.
    pub rows: Vec<HotRow>,
    /// Mean alloc hit rate over functions.
    pub func_alloc_avg: f64,
    /// Mean free hit rate over functions (weighted by free count).
    pub func_free_avg: f64,
}

/// Runs Fig. 12 over `specs`.
pub fn run(ctx: &mut EvalContext, specs: &[WorkloadSpec]) -> HotResult {
    let rows: Vec<HotRow> = specs
        .iter()
        .map(|spec| {
            let stats = ctx.run(spec, ConfigKind::Memento);
            let hot = stats.hot.expect("memento run has HOT stats");
            let page = stats.page.expect("memento run has page stats");
            HotRow {
                name: spec.name.clone(),
                category: spec.category,
                alloc_hit: hot.alloc.hit_rate(),
                free_hit: hot.free.hit_rate(),
                frees: hot.free.total(),
                aac_hit: page.aac.hit_rate(),
            }
        })
        .collect();
    let funcs: Vec<&HotRow> = rows
        .iter()
        .filter(|r| r.category == Category::Function)
        .collect();
    let func_alloc_avg = if funcs.is_empty() {
        1.0
    } else {
        funcs.iter().map(|r| r.alloc_hit).sum::<f64>() / funcs.len() as f64
    };
    let total_frees: u64 = funcs.iter().map(|r| r.frees).sum();
    let func_free_avg = if total_frees == 0 {
        1.0
    } else {
        funcs
            .iter()
            .map(|r| r.free_hit * r.frees as f64)
            .sum::<f64>()
            / total_frees as f64
    };
    HotResult {
        rows,
        func_alloc_avg,
        func_free_avg,
    }
}

impl fmt::Display for HotResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 12 — Hardware object table hit rate (%)")?;
        let mut t = Table::new(vec!["workload", "obj-alloc", "obj-free", "(aac)"]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                format!("{:.1}", r.alloc_hit * 100.0),
                format!("{:.1}", r.free_hit * 100.0),
                format!("{:.1}", r.aac_hit * 100.0),
            ]);
        }
        t.row(vec![
            "func-avg".into(),
            format!("{:.1}", self.func_alloc_avg * 100.0),
            format!("{:.1}", self.func_free_avg * 100.0),
            String::new(),
        ]);
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_hit_rates_high() {
        let mut ctx = EvalContext::quick();
        let specs = vec![ctx.workload("aes"), ctx.workload("US")];
        let result = run(&mut ctx, &specs);
        for r in &result.rows {
            assert!(r.alloc_hit > 0.95, "{}: alloc hit {}", r.name, r.alloc_hit);
            // The AAC is only exercised on arena allocations; tiny quick
            // runs may only take compulsory misses.
            assert!((0.0..=1.0).contains(&r.aac_hit));
        }
        assert!(result.to_string().contains("Fig. 12"));
    }
}
