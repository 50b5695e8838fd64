//! Figs. 2–3 and Tables 1–2: the memory-management characterization of
//! §2.2, regenerated from the workload suite.

use crate::context::{ConfigKind, EvalContext};
use crate::table::{pct, Table};
use memento_workloads::analysis::{self, Characterization};
use memento_workloads::generator::generate;
use memento_workloads::spec::{Category, Language, WorkloadSpec};
use std::fmt;

/// One characterization group (the paper plots Python / C++ / Golang /
/// Data Proc / Serverless Pltf series).
#[derive(Clone, Debug)]
pub struct GroupCharacterization {
    /// Series label.
    pub label: String,
    /// Merged characterization over the group's workloads.
    pub ch: Characterization,
}

/// Fig. 2 + Fig. 3 + Table 1 results.
#[derive(Clone, Debug)]
pub struct CharacterizationResult {
    /// Per-group distributions in the paper's series order.
    pub groups: Vec<GroupCharacterization>,
    /// Table 1 quadrants over the function workloads.
    pub function_quadrants: memento_workloads::analysis::JointQuadrants,
}

fn group_of(spec: &WorkloadSpec) -> &'static str {
    match (spec.category, spec.language) {
        (Category::DataProc, _) => "Data Proc",
        (Category::Platform, _) => "Serverless Pltf",
        (_, Language::Python) => "Python",
        (_, Language::Cpp) => "C++",
        (_, Language::Golang) => "Golang",
    }
}

/// Runs the characterization over `specs` on the context's worker pool.
/// Trace generation + characterization per spec is pure and deterministic,
/// and results merge in input order, so output is jobs-independent.
pub fn run(ctx: &mut EvalContext, specs: &[WorkloadSpec]) -> CharacterizationResult {
    let order = ["Python", "C++", "Golang", "Data Proc", "Serverless Pltf"];
    let mut per_group: Vec<Vec<Characterization>> = vec![Vec::new(); order.len()];
    let mut function_chs = Vec::new();
    let chs = ctx.map(specs, |spec| analysis::characterize(&generate(spec)));
    for (spec, ch) in specs.iter().zip(chs) {
        let gi = order
            .iter()
            .position(|g| *g == group_of(spec))
            .expect("known group");
        if spec.category == Category::Function {
            function_chs.push(ch.clone());
        }
        per_group[gi].push(ch);
    }
    let groups = order
        .iter()
        .zip(per_group)
        .filter(|(_, chs)| !chs.is_empty())
        .map(|(label, chs)| GroupCharacterization {
            label: (*label).to_owned(),
            ch: analysis::merge(&chs),
        })
        .collect();
    let function_quadrants = analysis::merge(&function_chs).quadrants;
    CharacterizationResult {
        groups,
        function_quadrants,
    }
}

impl fmt::Display for CharacterizationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 2 — Allocation size (bytes), % of total allocations"
        )?;
        let mut t = Table::new(vec![
            "group",
            "[1,512]",
            "[513,1024]",
            "[1025,1536]",
            "[1537,2048]",
            "[2049+]",
        ]);
        for g in &self.groups {
            let h = &g.ch.size_hist;
            let tail: f64 = (4..h.bins()).map(|b| h.percent(b)).sum::<f64>()
                + h.percent_overflow()
                + h.percent(3);
            t.row(vec![
                g.label.clone(),
                format!("{:.1}", h.percent(0)),
                format!("{:.1}", h.percent(1)),
                format!("{:.1}", h.percent(2)),
                format!("{:.1}", h.percent(3)),
                format!("{:.1}", tail - h.percent(3)),
            ]);
        }
        writeln!(f, "{t}")?;

        writeln!(
            f,
            "Fig. 3 — Allocation lifetime (malloc-free distance), % of total"
        )?;
        let mut t = Table::new(vec![
            "group",
            "[1-16]",
            "[17-32]",
            "[33-64]",
            "[65-256]",
            "[257-Inf]",
        ]);
        for g in &self.groups {
            let h = &g.ch.lifetime_hist;
            let b33_64: f64 = h.percent(2) + h.percent(3);
            let b65_256: f64 = (4..16).map(|b| h.percent(b)).sum();
            t.row(vec![
                g.label.clone(),
                format!("{:.1}", h.percent(0)),
                format!("{:.1}", h.percent(1)),
                format!("{b33_64:.1}"),
                format!("{b65_256:.1}"),
                format!("{:.1}", h.percent_overflow()),
            ]);
        }
        writeln!(f, "{t}")?;

        writeln!(
            f,
            "Table 1 — Combined size × lifetime distribution (functions)"
        )?;
        let q = self.function_quadrants;
        writeln!(f, "              Small     Large")?;
        writeln!(
            f,
            "Short-lived   {:>5.1}%   {:>5.2}%",
            q.small_short, q.large_short
        )?;
        writeln!(
            f,
            "Long-lived    {:>5.1}%   {:>5.2}%",
            q.small_long, q.large_long
        )?;
        Ok(())
    }
}

/// Table 2: user/kernel memory-management cycle split per language group,
/// measured on the baseline system.
#[derive(Clone, Debug)]
pub struct MmBreakdownResult {
    /// `(group label, user share, kernel share)` rows.
    pub rows: Vec<(String, f64, f64)>,
}

/// Runs Table 2 over `specs`.
pub fn mm_breakdown(ctx: &mut EvalContext, specs: &[WorkloadSpec]) -> MmBreakdownResult {
    ctx.prefetch_kinds(specs, &[ConfigKind::Baseline]);
    let order = ["Python", "C++", "Golang", "FaaS Platform", "Data Proc."];
    let mut user: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    let mut kernel: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    for spec in specs {
        let stats = ctx.run(spec, ConfigKind::Baseline);
        let gi = match (spec.category, spec.language) {
            (Category::Platform, _) => 3,
            (Category::DataProc, _) => 4,
            (_, Language::Python) => 0,
            (_, Language::Cpp) => 1,
            (_, Language::Golang) => 2,
        };
        user[gi].push(stats.user_mm_share());
        kernel[gi].push(stats.kernel_mm_share());
    }
    let rows = order
        .iter()
        .enumerate()
        .filter(|(i, _)| !user[*i].is_empty())
        .map(|(i, label)| {
            let n = user[i].len() as f64;
            (
                (*label).to_owned(),
                user[i].iter().sum::<f64>() / n,
                kernel[i].iter().sum::<f64>() / n,
            )
        })
        .collect();
    MmBreakdownResult { rows }
}

impl fmt::Display for MmBreakdownResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2 — Memory-management cycles breakdown (user/kernel)"
        )?;
        let mut t = Table::new(vec!["group", "user", "kernel"]);
        for (label, u, k) in &self.rows {
            t.row(vec![label.clone(), pct(*u), pct(*k)]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_workloads::suite;

    #[test]
    fn characterization_matches_paper_shape() {
        let result = run(&mut EvalContext::new(), &suite::all_workloads());
        assert_eq!(result.groups.len(), 5);
        // Fig. 2: small allocations dominate everywhere.
        for g in &result.groups {
            assert!(
                g.ch.size_hist.percent(0) > 85.0,
                "{}: small bin {:.1}%",
                g.label,
                g.ch.size_hist.percent(0)
            );
        }
        // Table 1: small+short is the dominant quadrant for functions.
        let q = result.function_quadrants;
        assert!(q.small_short > q.small_long);
        assert!(q.small_short + q.small_long > 85.0);
        // Fig. 3 per-language ordering: C++ shortest-lived, Go longest.
        let get = |label: &str| {
            result
                .groups
                .iter()
                .find(|g| g.label == label)
                .map(|g| g.ch.short16_fraction())
                .expect("group present")
        };
        assert!(get("C++") > get("Golang"));
        assert!(get("Python") > get("Golang"));
    }

    #[test]
    fn display_renders_all_sections() {
        let result = run(&mut EvalContext::new(), &suite::function_workloads()[..3]);
        let s = result.to_string();
        assert!(s.contains("Fig. 2"));
        assert!(s.contains("Fig. 3"));
        assert!(s.contains("Table 1"));
    }

    #[test]
    fn mm_breakdown_runs_on_subset() {
        let mut ctx = EvalContext::quick();
        let specs = vec![ctx.workload("aes"), ctx.workload("US")];
        let result = mm_breakdown(&mut ctx, &specs);
        assert_eq!(result.rows.len(), 2);
        for (label, u, k) in &result.rows {
            assert!((u + k - 1.0).abs() < 1e-9, "{label}: shares must sum to 1");
        }
        assert!(result.to_string().contains("Table 2"));
    }
}
