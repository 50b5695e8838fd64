//! §6.1 iso-storage comparison and §6.7 idealized-Mallacc comparison.

use crate::context::{ConfigKind, EvalContext};
use crate::table::{f3, Table};
use memento_system::stats;
use memento_workloads::spec::{Category, Language, WorkloadSpec};
use std::fmt;

/// §6.1: what happens if the HOT's SRAM is given to the L1D instead
/// (hypothetical 36 KB 9-way L1D at unchanged latency).
#[derive(Clone, Debug)]
pub struct IsoStorageResult {
    /// `(workload, iso-storage speedup, memento speedup)` rows.
    pub rows: Vec<(String, f64, f64)>,
    /// Mean iso-storage speedup.
    pub iso_avg: f64,
    /// Mean Memento speedup on the same set.
    pub memento_avg: f64,
}

/// Runs the iso-storage comparison over the function members of `specs`.
pub fn iso_storage(ctx: &mut EvalContext, specs: &[WorkloadSpec]) -> IsoStorageResult {
    let specs: Vec<WorkloadSpec> = specs
        .iter()
        .filter(|s| s.category == Category::Function)
        .cloned()
        .collect();
    ctx.prefetch_kinds(
        &specs,
        &[
            ConfigKind::Baseline,
            ConfigKind::IsoStorage,
            ConfigKind::Memento,
        ],
    );
    let rows: Vec<(String, f64, f64)> = specs
        .iter()
        .map(|spec| {
            let base = ctx.run(spec, ConfigKind::Baseline).clone();
            let iso = ctx.run(spec, ConfigKind::IsoStorage).clone();
            let mem = ctx.run(spec, ConfigKind::Memento).clone();
            (
                spec.name.clone(),
                stats::speedup(&base, &iso),
                stats::speedup(&base, &mem),
            )
        })
        .collect();
    let n = rows.len().max(1) as f64;
    IsoStorageResult {
        iso_avg: rows.iter().map(|r| r.1).sum::<f64>() / n,
        memento_avg: rows.iter().map(|r| r.2).sum::<f64>() / n,
        rows,
    }
}

impl fmt::Display for IsoStorageResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§6.1 — Iso-storage comparison (HOT SRAM donated to a 9-way L1D)"
        )?;
        let mut t = Table::new(vec!["workload", "iso-L1D", "Memento"]);
        for (name, iso, mem) in &self.rows {
            t.row(vec![name.clone(), f3(*iso), f3(*mem)]);
        }
        writeln!(f, "{t}")?;
        write!(
            f,
            "avg: iso-storage {:.3} vs Memento {:.3}",
            self.iso_avg, self.memento_avg
        )
    }
}

/// §6.7: idealized Mallacc (zero-latency, always-hit malloc acceleration,
/// userspace only) vs. Memento on the C++ DeathStarBench functions.
#[derive(Clone, Debug)]
pub struct MallaccResult {
    /// `(workload, mallacc speedup, memento speedup)` rows.
    pub rows: Vec<(String, f64, f64)>,
    /// Mean Mallacc speedup.
    pub mallacc_avg: f64,
    /// Mean Memento speedup on the same workloads.
    pub memento_avg: f64,
}

/// Runs the Mallacc comparison over the C++ members of `specs`.
pub fn mallacc(ctx: &mut EvalContext, specs: &[WorkloadSpec]) -> MallaccResult {
    let cpp: Vec<WorkloadSpec> = specs
        .iter()
        .filter(|s| s.language == Language::Cpp)
        .cloned()
        .collect();
    ctx.prefetch_kinds(
        &cpp,
        &[
            ConfigKind::Baseline,
            ConfigKind::IdealMallacc,
            ConfigKind::Memento,
        ],
    );
    let rows: Vec<(String, f64, f64)> = cpp
        .iter()
        .map(|spec| {
            let base = ctx.run(spec, ConfigKind::Baseline).clone();
            let mallacc = ctx.run(spec, ConfigKind::IdealMallacc).clone();
            let mem = ctx.run(spec, ConfigKind::Memento).clone();
            (
                spec.name.clone(),
                stats::speedup(&base, &mallacc),
                stats::speedup(&base, &mem),
            )
        })
        .collect();
    let n = rows.len().max(1) as f64;
    MallaccResult {
        mallacc_avg: rows.iter().map(|r| r.1).sum::<f64>() / n,
        memento_avg: rows.iter().map(|r| r.2).sum::<f64>() / n,
        rows,
    }
}

impl fmt::Display for MallaccResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§6.7 — Idealized Mallacc vs. Memento (C++ DeathStarBench)"
        )?;
        let mut t = Table::new(vec!["workload", "Mallacc", "Memento"]);
        for (name, mal, mem) in &self.rows {
            t.row(vec![name.clone(), f3(*mal), f3(*mem)]);
        }
        writeln!(f, "{t}")?;
        write!(
            f,
            "avg: Mallacc {:.3} vs Memento {:.3}",
            self.mallacc_avg, self.memento_avg
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memento_beats_iso_storage() {
        let mut ctx = EvalContext::quick();
        let specs = vec![ctx.workload("html")];
        let result = iso_storage(&mut ctx, &specs);
        let (_, iso, mem) = result.rows[0].clone();
        assert!(
            mem > iso,
            "Memento {mem} must beat the iso-storage L1D {iso}"
        );
        assert!(result.to_string().contains("Iso-storage"));
    }

    #[test]
    fn memento_beats_mallacc_on_cpp() {
        let mut ctx = EvalContext::quick();
        let specs = vec![ctx.workload("US"), ctx.workload("MI")];
        let result = mallacc(&mut ctx, &specs);
        assert_eq!(result.rows.len(), 2);
        for (name, mal, _mem) in &result.rows {
            assert!(*mal > 1.0, "{name}: mallacc {mal}");
        }
        // Per-row margins are noisy at quick scale; the average must hold.
        assert!(
            result.memento_avg > result.mallacc_avg,
            "memento {} vs mallacc {}",
            result.memento_avg,
            result.mallacc_avg
        );
        assert!(result.to_string().contains("Mallacc"));
    }
}
