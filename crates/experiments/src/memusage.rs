//! Fig. 11: normalized aggregate memory usage (user / kernel / total),
//! Memento relative to the baseline.
//!
//! Long-running categories are measured over a warm container's
//! steady-state window ([`crate::context::STEADY_INVOCATIONS`]): the pool
//! serves warm invocations from recycled frames, so only genuinely fresh
//! OS grants count toward the aggregate — the paper's §6.3 direction.

use crate::context::EvalContext;
use crate::ratio::page_ratio;
use crate::table::Table;
use memento_workloads::spec::{Category, WorkloadSpec};
use std::fmt;

/// One Fig. 11 bar triple.
#[derive(Clone, Debug)]
pub struct MemUsageRow {
    /// Workload name.
    pub name: String,
    /// Paper grouping.
    pub category: Category,
    /// Memento/baseline ratio of aggregate user pages.
    pub user: f64,
    /// Memento/baseline ratio of aggregate kernel pages.
    pub kernel: f64,
    /// Memento/baseline ratio of total aggregate pages.
    pub total: f64,
}

/// Physical-page lifecycle counters summed over the Memento runs behind
/// the figure (from the device's page-allocator statistics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Pool refill batches requested from the OS.
    pub refills: u64,
    /// Frames granted fresh by the OS.
    pub frames_granted: u64,
    /// Frames reclaimed from freed arenas back into the pool.
    pub frames_recycled: u64,
    /// Frames handed back to the OS (overflow return + detach).
    pub frames_returned: u64,
    /// High-water overflow returns performed.
    pub overflows: u64,
}

/// Fig. 11 results.
#[derive(Clone, Debug)]
pub struct MemUsageResult {
    /// Per-workload ratios.
    pub rows: Vec<MemUsageRow>,
    /// Workloads dropped because the baseline allocated zero pages while
    /// Memento allocated some (no meaningful normalization exists).
    pub skipped: Vec<String>,
    /// Pool lifecycle counters aggregated over the Memento runs.
    pub pool: PoolCounters,
    /// (user, kernel, total) means over functions.
    pub func_avg: (f64, f64, f64),
    /// Means over data-processing applications.
    pub data_avg: (f64, f64, f64),
    /// Means over platform operations.
    pub pltf_avg: (f64, f64, f64),
}

fn avg(rows: &[MemUsageRow], cat: Category) -> (f64, f64, f64) {
    let group: Vec<&MemUsageRow> = rows.iter().filter(|r| r.category == cat).collect();
    if group.is_empty() {
        return (1.0, 1.0, 1.0);
    }
    let n = group.len() as f64;
    (
        group.iter().map(|r| r.user).sum::<f64>() / n,
        group.iter().map(|r| r.kernel).sum::<f64>() / n,
        group.iter().map(|r| r.total).sum::<f64>() / n,
    )
}

/// Runs Fig. 11 over `specs`.
pub fn run(ctx: &mut EvalContext, specs: &[WorkloadSpec]) -> MemUsageResult {
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    let mut pool = PoolCounters::default();
    for spec in specs {
        let (base, mem) = ctx.pair(spec);
        if let Some(ps) = mem.page {
            pool.refills += ps.pool_refills;
            pool.frames_granted += ps.frames_granted;
            pool.frames_recycled += ps.frames_recycled;
            pool.frames_returned += ps.frames_returned;
            pool.overflows += ps.pool_overflows;
        }
        let user = page_ratio(mem.user_pages_agg, base.user_pages_agg);
        let kernel = page_ratio(mem.kernel_pages_agg, base.kernel_pages_agg);
        let total = page_ratio(
            mem.user_pages_agg + mem.kernel_pages_agg,
            base.user_pages_agg + base.kernel_pages_agg,
        );
        match (user, kernel, total) {
            (Some(user), Some(kernel), Some(total)) => rows.push(MemUsageRow {
                name: spec.name.clone(),
                category: spec.category,
                user,
                kernel,
                total,
            }),
            _ => {
                eprintln!(
                    "memusage: skipping {}: baseline allocated 0 pages but \
                     Memento allocated some; no ratio exists",
                    spec.name
                );
                skipped.push(spec.name.clone());
            }
        }
    }
    MemUsageResult {
        func_avg: avg(&rows, Category::Function),
        data_avg: avg(&rows, Category::DataProc),
        pltf_avg: avg(&rows, Category::Platform),
        rows,
        skipped,
        pool,
    }
}

impl fmt::Display for MemUsageResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 11 — Normalized aggregate memory usage (baseline = 1.0)"
        )?;
        let mut t = Table::new(vec!["workload", "user", "kernel", "total"]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                format!("{:.2}", r.user),
                format!("{:.2}", r.kernel),
                format!("{:.2}", r.total),
            ]);
        }
        for (label, (u, k, tot)) in [
            ("func-avg", self.func_avg),
            ("data-avg", self.data_avg),
            ("pltf-avg", self.pltf_avg),
        ] {
            t.row(vec![
                label.into(),
                format!("{u:.2}"),
                format!("{k:.2}"),
                format!("{tot:.2}"),
            ]);
        }
        write!(f, "{t}")?;
        if !self.skipped.is_empty() {
            writeln!(f)?;
            write!(
                f,
                "skipped (zero-page baseline): {}",
                self.skipped.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::page_ratio;

    #[test]
    fn memusage_matches_paper_directions() {
        let mut ctx = EvalContext::new();
        let mut py = ctx.workload("aes");
        py.total_instructions = 2_000_000;
        let result = run(&mut ctx, &[py]);
        // Paper §6.3: "Memento increases userspace memory usage for Python
        // and Golang workloads" (per-class arenas trade memory for a
        // simpler hardware design).
        let py_row = &result.rows[0];
        assert!(
            py_row.user > 1.0,
            "Python user usage should rise, got {}",
            py_row.user
        );
        assert!(result.to_string().contains("Fig. 11"));
    }

    #[test]
    fn memusage_steady_state_total_drops() {
        // Warm-container steady state: Redis (jemalloc data proc) at full
        // length. The pool recycles frames across invocations while the
        // baseline keeps allocating; total usage must drop (§6.3: ~23%
        // savings for data processing).
        let mut ctx = EvalContext::new();
        let steady = ctx.workload("Redis");
        let result = run(&mut ctx, &[steady]);
        let redis_row = &result.rows[0];
        assert!(
            redis_row.total < 1.0,
            "steady-state total should drop, got {}",
            redis_row.total
        );
        assert!(
            result.pool.frames_recycled > 0,
            "warm invocations must be served from recycled frames"
        );

        // And the data-processing group average shows the same direction
        // at the scale-64 CI fidelity.
        let mut quick = EvalContext::scaled(64);
        let data: Vec<_> = quick
            .workloads()
            .into_iter()
            .filter(|s| s.category == Category::DataProc)
            .collect();
        let group = run(&mut quick, &data);
        assert!(
            group.data_avg.2 < 1.0,
            "data-proc average total should show §6.3-direction savings, got {}",
            group.data_avg.2
        );
    }

    #[test]
    fn zero_page_baseline_skips_row_instead_of_faking_ratio() {
        // The shared helper is what `run` consults; the m>0, b==0 case
        // must be reported as undefined, never as an absolute count.
        assert_eq!(page_ratio(12, 0), None);
        assert_eq!(page_ratio(0, 0), Some(1.0));
    }
}
