//! Fig. 9: where Memento's saved cycles come from — hardware object
//! allocation (obj-alloc), hardware frees (obj-free), hardware page
//! management (page-mgmt), and main-memory bypass.
//!
//! Attribution follows the buckets the simulator charges: for each
//! component, saving = baseline bucket − Memento bucket(s); the bypass
//! share is measured directly by toggling the mechanism off.

use crate::context::{ConfigKind, EvalContext};
use crate::table::Table;
use memento_simcore::cycles::CycleBucket;
use memento_workloads::spec::{Category, WorkloadSpec};
use std::fmt;

/// One workload's gain attribution (shares sum to ~100).
#[derive(Clone, Copy, Debug, Default)]
pub struct GainShares {
    /// Share from hardware object allocation.
    pub obj_alloc: f64,
    /// Share from hardware object frees.
    pub obj_free: f64,
    /// Share from hardware page management.
    pub page_mgmt: f64,
    /// Share from main-memory bypass.
    pub bypass: f64,
}

/// One Fig. 9 bar.
#[derive(Clone, Debug)]
pub struct BreakdownRow {
    /// Workload name.
    pub name: String,
    /// Paper grouping.
    pub category: Category,
    /// Attribution shares (percent of saved cycles).
    pub shares: GainShares,
}

/// Fig. 9 results.
#[derive(Clone, Debug)]
pub struct BreakdownResult {
    /// Per-workload bars (function workloads, as the paper plots).
    pub rows: Vec<BreakdownRow>,
    /// func-avg shares.
    pub func_avg: GainShares,
    /// data-avg shares.
    pub data_avg: GainShares,
    /// pltf-avg shares.
    pub pltf_avg: GainShares,
}

fn attribute(ctx: &mut EvalContext, spec: &WorkloadSpec) -> GainShares {
    let base = ctx.run(spec, ConfigKind::Baseline).clone();
    let mem = ctx.run(spec, ConfigKind::Memento).clone();
    let nobypass = ctx.run(spec, ConfigKind::MementoNoBypass).clone();

    // Bypass saving measured by ablation.
    let bypass = nobypass
        .total_cycles()
        .raw()
        .saturating_sub(mem.total_cycles().raw()) as f64;

    // Component savings from bucket deltas (baseline software path vs. the
    // Memento hardware path that replaced it).
    let b = |s: &memento_system::RunStats, bucket| s.bucket(bucket).raw() as f64;
    let alloc = (b(&base, CycleBucket::UserAlloc)
        - b(&mem, CycleBucket::UserAlloc)
        - b(&mem, CycleBucket::HwAlloc))
    .max(0.0);
    let free = (b(&base, CycleBucket::UserFree)
        - b(&mem, CycleBucket::UserFree)
        - b(&mem, CycleBucket::HwFree))
    .max(0.0);
    let page = (b(&base, CycleBucket::KernelMm)
        - b(&mem, CycleBucket::KernelMm)
        - b(&mem, CycleBucket::HwPage))
    .max(0.0);

    let total = alloc + free + page + bypass;
    if total <= 0.0 {
        return GainShares::default();
    }
    GainShares {
        obj_alloc: alloc * 100.0 / total,
        obj_free: free * 100.0 / total,
        page_mgmt: page * 100.0 / total,
        bypass: bypass * 100.0 / total,
    }
}

fn avg_shares(rows: &[BreakdownRow], cat: Category) -> GainShares {
    let group: Vec<&GainShares> = rows
        .iter()
        .filter(|r| r.category == cat)
        .map(|r| &r.shares)
        .collect();
    if group.is_empty() {
        return GainShares::default();
    }
    let n = group.len() as f64;
    GainShares {
        obj_alloc: group.iter().map(|s| s.obj_alloc).sum::<f64>() / n,
        obj_free: group.iter().map(|s| s.obj_free).sum::<f64>() / n,
        page_mgmt: group.iter().map(|s| s.page_mgmt).sum::<f64>() / n,
        bypass: group.iter().map(|s| s.bypass).sum::<f64>() / n,
    }
}

/// Runs Fig. 9 over `specs`.
pub fn run(ctx: &mut EvalContext, specs: &[WorkloadSpec]) -> BreakdownResult {
    let rows: Vec<BreakdownRow> = specs
        .iter()
        .map(|spec| BreakdownRow {
            name: spec.name.clone(),
            category: spec.category,
            shares: attribute(ctx, spec),
        })
        .collect();
    BreakdownResult {
        func_avg: avg_shares(&rows, Category::Function),
        data_avg: avg_shares(&rows, Category::DataProc),
        pltf_avg: avg_shares(&rows, Category::Platform),
        rows,
    }
}

impl fmt::Display for BreakdownResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 9 — Performance-gain breakdown (% of saved cycles)")?;
        let mut t = Table::new(vec![
            "workload",
            "obj-alloc",
            "obj-free",
            "page-mgmt",
            "bypass",
        ]);
        let fmt_row = |name: &str, s: &GainShares| {
            vec![
                name.to_owned(),
                format!("{:.0}", s.obj_alloc),
                format!("{:.0}", s.obj_free),
                format!("{:.0}", s.page_mgmt),
                format!("{:.0}", s.bypass),
            ]
        };
        for r in self
            .rows
            .iter()
            .filter(|r| r.category == Category::Function)
        {
            t.row(fmt_row(&r.name, &r.shares));
        }
        t.row(fmt_row("func-avg", &self.func_avg));
        t.row(fmt_row("data-avg", &self.data_avg));
        t.row(fmt_row("pltf-avg", &self.pltf_avg));
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_hundred() {
        let mut ctx = EvalContext::quick();
        let specs = vec![ctx.workload("html")];
        let result = run(&mut ctx, &specs);
        let s = &result.rows[0].shares;
        let total = s.obj_alloc + s.obj_free + s.page_mgmt + s.bypass;
        assert!((total - 100.0).abs() < 1e-6, "total {total}");
        // Both object management and page management must contribute
        // (the paper's argument for needing both mechanisms).
        assert!(s.obj_alloc > 0.0);
        assert!(s.page_mgmt > 0.0);
        assert!(result.to_string().contains("Fig. 9"));
    }
}
