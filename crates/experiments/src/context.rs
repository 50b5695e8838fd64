//! Memoized evaluation context: one simulation per (workload, config), one
//! calibration per (workload, config, samples), and the wall-clock of
//! every study.

use crate::error::ExperimentError;
use crate::runner::{self, RunnerTiming, Timed};
use crate::sharding::{self, SimPoint, SpecKey};
use memento_cluster::{calibrate, ServiceProfile};
use memento_system::{Machine, RunStats, SystemConfig};
use memento_workloads::spec::{Category, WorkloadSpec};
use memento_workloads::suite;
use std::collections::HashMap;

/// Invocations per warm container for the steady-state categories:
/// invocation 0 is the cold start, the measured window covers the rest
/// (see [`Machine::run_invocations`]). Three is the smallest count with a
/// multi-invocation steady window.
pub const STEADY_INVOCATIONS: usize = 3;

/// System design points evaluated across the figures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConfigKind {
    /// Software stack (the paper's baseline).
    Baseline,
    /// Full Memento.
    Memento,
    /// Memento with main-memory bypass disabled (Figs. 9/10 attribution).
    MementoNoBypass,
    /// §6.1 iso-storage baseline (HOT SRAM donated to the L1D).
    IsoStorage,
    /// §6.7 idealized Mallacc.
    IdealMallacc,
    /// §6.6 `MAP_POPULATE` baseline.
    BaselinePopulate,
}

impl ConfigKind {
    /// The system configuration for this design point.
    pub fn system_config(self) -> SystemConfig {
        match self {
            ConfigKind::Baseline => SystemConfig::baseline(),
            ConfigKind::Memento => SystemConfig::memento(),
            ConfigKind::MementoNoBypass => SystemConfig::memento_no_bypass(),
            ConfigKind::IsoStorage => SystemConfig::iso_storage(),
            ConfigKind::IdealMallacc => SystemConfig::ideal_mallacc(),
            ConfigKind::BaselinePopulate => SystemConfig::baseline_populate(),
        }
    }
}

/// Runs `spec` on `machine` the way every table measures it. Functions
/// run cold once; the long-running categories run as a warm container
/// serving back-to-back invocations and report the steady-state window
/// (§6.3), as the paper measures data-processing applications and
/// platform services.
pub(crate) fn measure(machine: &mut Machine, spec: &WorkloadSpec) -> RunStats {
    if spec.category == Category::Function {
        machine.run(spec)
    } else {
        machine.run_invocations(spec, STEADY_INVOCATIONS).steady
    }
}

/// Warm invocations per service-profile calibration (the last is taken
/// as steady state). Part of the profile memo's key.
pub const CALIBRATION_WARM_SAMPLES: usize = 3;

/// Extra divisor for the studies that build fresh machines per cell
/// instead of reading the memo (multicore, ablations, proactive GC): they
/// run at half the context's workload size.
pub const HALF_SIZE_DIVISOR: u64 = 2;

/// Memoizing evaluation context: the one entry point every study takes.
///
/// The context owns the harness's scale (the divisor applied to every
/// workload), its parallelism (every sweep fans across `jobs` worker
/// threads through [`EvalContext::map`] or [`EvalContext::prefetch`]),
/// two memos — simulation runs keyed by (spec, design point) and
/// service-profile calibrations keyed by (spec, design point, samples) —
/// and the wall-clock of every study run through [`EvalContext::study`].
/// Sweeps slot results by input index and aggregation reads the memos
/// serially, so result tables are byte-identical at any `jobs` setting.
pub struct EvalContext {
    runs: HashMap<(SpecKey, ConfigKind), RunStats>,
    profiles: HashMap<((SpecKey, ConfigKind), usize), ServiceProfile>,
    scale_divisor: u64,
    /// Worker count (`timing.jobs`) and everything timed so far.
    timing: RunnerTiming,
    /// Label of the study running now (empty outside any study).
    study: &'static str,
}

impl EvalContext {
    /// Full-fidelity context (the workload sizes behind EXPERIMENTS.md).
    /// Worker count comes from `MEMENTO_JOBS` or the machine; override with
    /// [`EvalContext::with_jobs`].
    pub fn new() -> Self {
        Self::scaled(1)
    }

    /// Quick context for tests/CI: workloads shrunk 8× (shapes preserved,
    /// absolute numbers noisier).
    pub fn quick() -> Self {
        Self::scaled(8)
    }

    /// Context at an explicit scale divisor (golden-snapshot tests pin a
    /// small fixed scale so the fixture stays cheap to regenerate).
    pub fn scaled(scale_divisor: u64) -> Self {
        EvalContext {
            runs: HashMap::new(),
            profiles: HashMap::new(),
            scale_divisor: scale_divisor.max(1),
            timing: RunnerTiming::default(),
            study: "",
        }
        .with_jobs(runner::effective_jobs(None))
    }

    /// Sets the worker-thread count for parallel sweeps (1 = serial).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.timing.jobs = jobs.max(1);
        self
    }

    /// The divisor this context applies to every workload's instruction
    /// count (1 = full fidelity).
    pub fn scale_divisor(&self) -> u64 {
        self.scale_divisor
    }

    /// Wall-clock of every study and shard this context ran.
    pub fn timing(&self) -> &RunnerTiming {
        &self.timing
    }

    /// Number of memoized service-profile calibrations.
    #[cfg(test)]
    pub(crate) fn calibrations(&self) -> usize {
        self.profiles.len()
    }

    /// The workload suite at this context's scale.
    pub fn workloads(&self) -> Vec<WorkloadSpec> {
        suite::all_workloads()
            .into_iter()
            .map(|mut s| {
                s.total_instructions /= self.scale_divisor;
                s
            })
            .collect()
    }

    /// One workload by paper name, at this context's scale, with unknown
    /// names reported as a typed error.
    pub fn try_workload(&self, name: &str) -> Result<WorkloadSpec, ExperimentError> {
        Ok(self.try_workloads(&[name])?.remove(0))
    }

    /// Workloads by paper name, at this context's scale, failing on the
    /// first unknown name.
    pub fn try_workloads(&self, names: &[&str]) -> Result<Vec<WorkloadSpec>, ExperimentError> {
        resolve(names, self.scale_divisor)
    }

    /// Workloads by paper name at half this context's size
    /// ([`HALF_SIZE_DIVISOR`]), for the studies that build a fresh machine
    /// per cell.
    pub(crate) fn try_half_size_workloads(
        &self,
        names: &[&str],
    ) -> Result<Vec<WorkloadSpec>, ExperimentError> {
        resolve(names, self.scale_divisor.saturating_mul(HALF_SIZE_DIVISOR))
    }

    /// One workload by paper name, at this context's scale.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name; fallible callers use
    /// [`EvalContext::try_workload`].
    pub fn workload(&self, name: &str) -> WorkloadSpec {
        // lint:allow(panic-in-lib): documented panicking variant; fallible callers use try_workload
        self.try_workload(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs `f` as the study `label` and records its wall-clock. A study
    /// run inside another is timed as part of the outer one.
    pub fn study<R>(&mut self, label: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let outer = std::mem::replace(&mut self.study, label);
        let (result, wall) = runner::timed(|| f(self));
        self.study = outer;
        if outer.is_empty() {
            self.timing.wall += wall;
            self.timing.studies.push(Timed {
                label: label.to_owned(),
                wall,
            });
        }
        result
    }

    /// Maps `f` over `items` on the context's worker pool, results in
    /// input order; each item is timed as a shard of the current study.
    pub fn map<T: Sync, R: Send>(&mut self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let study = self.study;
        self.map_labelled(items, |i, _| format!("{study}[{i}]"), f)
    }

    fn map_labelled<T: Sync, R: Send>(
        &mut self,
        items: &[T],
        label: impl Fn(usize, &T) -> String,
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        let mut results = Vec::with_capacity(items.len());
        let timed = runner::map_timed(self.timing.jobs, items, f);
        for (i, (item, (r, wall))) in items.iter().zip(timed).enumerate() {
            self.timing.shards.push(Timed {
                label: label(i, item),
                wall,
            });
            results.push(r);
        }
        results
    }

    /// Simulates one point from scratch (no memoization) — the worker body
    /// every shard executes, identical on the serial and parallel paths.
    pub fn simulate(point: &SimPoint) -> RunStats {
        measure(&mut Machine::new(point.kind.system_config()), &point.spec)
    }

    /// Fans the uncached members of `points` across the context's worker
    /// pool and memoizes their results. Already-cached points cost
    /// nothing; the plan (dedup + shard-id order) is independent of caller
    /// order and thread scheduling, so any later cache read sees the same
    /// stats a serial sweep would have produced.
    pub fn prefetch(&mut self, points: Vec<SimPoint>) {
        let todo: Vec<SimPoint> = sharding::plan(points)
            .into_iter()
            .filter(|p| !self.runs.contains_key(&p.key()))
            .collect();
        let stats = self.map_labelled(&todo, |_, p| p.label(), Self::simulate);
        for (point, stat) in todo.iter().zip(stats) {
            self.runs.insert(point.key(), stat);
        }
    }

    /// Convenience: prefetches `specs` under every kind in `kinds`.
    pub fn prefetch_kinds(&mut self, specs: &[WorkloadSpec], kinds: &[ConfigKind]) {
        self.prefetch(points(kinds, specs));
    }

    /// Runs (or returns the memoized run of) `spec` under `kind`.
    /// Long-running categories are measured at steady state.
    pub fn run(&mut self, spec: &WorkloadSpec, kind: ConfigKind) -> &RunStats {
        let point = SimPoint::new(spec.clone(), kind);
        self.runs
            .entry(point.key())
            .or_insert_with(|| EvalContext::simulate(&point))
    }

    /// Convenience: the (baseline, memento) pair for `spec`.
    pub fn pair(&mut self, spec: &WorkloadSpec) -> (RunStats, RunStats) {
        let base = self.run(spec, ConfigKind::Baseline).clone();
        let mem = self.run(spec, ConfigKind::Memento).clone();
        (base, mem)
    }

    /// Service profiles of every spec under every kind, kind-major:
    /// memoized calibrations are reused, the rest fan across the worker
    /// pool ([`calibrate`] with [`CALIBRATION_WARM_SAMPLES`]).
    pub fn profiles(
        &mut self,
        kinds: &[ConfigKind],
        specs: &[WorkloadSpec],
    ) -> Vec<ServiceProfile> {
        let key = |p: &SimPoint| (p.key(), CALIBRATION_WARM_SAMPLES);
        let points = points(kinds, specs);
        let todo: Vec<SimPoint> = sharding::plan(points.clone())
            .into_iter()
            .filter(|p| !self.profiles.contains_key(&key(p)))
            .collect();
        let fresh = self.map_labelled(
            &todo,
            |_, p| format!("calibrate {}", p.label()),
            |p| calibrate(&p.kind.system_config(), &p.spec, CALIBRATION_WARM_SAMPLES),
        );
        for (point, profile) in todo.iter().zip(fresh) {
            self.profiles.insert(key(point), profile);
        }
        points
            .iter()
            .map(|p| self.profiles[&key(p)].clone())
            .collect()
    }
}

/// Every spec under every kind, kind-major.
fn points(kinds: &[ConfigKind], specs: &[WorkloadSpec]) -> Vec<SimPoint> {
    kinds
        .iter()
        .flat_map(|&k| specs.iter().map(move |s| SimPoint::new(s.clone(), k)))
        .collect()
}

/// Resolves `names` against the suite at `1/divisor` compute scale,
/// failing on the first unknown name.
fn resolve(names: &[&str], divisor: u64) -> Result<Vec<WorkloadSpec>, ExperimentError> {
    names
        .iter()
        .map(|n| match suite::by_name(n) {
            Some(mut s) => {
                s.total_instructions /= divisor;
                Ok(s)
            }
            None => Err(ExperimentError::UnknownWorkload((*n).to_owned())),
        })
        .collect()
}

impl Default for EvalContext {
    fn default() -> Self {
        EvalContext::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_scales_workloads() {
        let f = EvalContext::new().workload("aes");
        let q = EvalContext::quick().workload("aes");
        assert_eq!(f.total_instructions, q.total_instructions * 8);
        let half = EvalContext::scaled(4).try_half_size_workloads(&["aes"]);
        assert_eq!(
            half.expect("known")[0].total_instructions,
            f.total_instructions / (4 * HALF_SIZE_DIVISOR)
        );
    }

    #[test]
    fn runs_are_memoized() {
        let mut ctx = EvalContext::quick();
        let mut spec = ctx.workload("aes");
        spec.total_instructions = 50_000;
        let a = ctx.run(&spec, ConfigKind::Baseline).total_cycles();
        let b = ctx.run(&spec, ConfigKind::Baseline).total_cycles();
        assert_eq!(a, b);
        assert_eq!(ctx.runs.len(), 1);
    }

    #[test]
    fn resized_spec_is_not_served_a_stale_run() {
        let mut ctx = EvalContext::quick();
        let mut small = ctx.workload("aes");
        small.total_instructions = 50_000;
        let large = WorkloadSpec {
            total_instructions: 400_000,
            ..small.clone()
        };
        let small_cycles = ctx.run(&small, ConfigKind::Baseline).total_cycles();
        let large_cycles = ctx.run(&large, ConfigKind::Baseline).total_cycles();
        let fresh = EvalContext::quick()
            .run(&large, ConfigKind::Baseline)
            .total_cycles();
        assert_eq!(large_cycles, fresh, "the larger spec must get its own run");
        assert_ne!(small_cycles, large_cycles);
        small.seed ^= 1;
        ctx.run(&small, ConfigKind::Baseline);
        assert_eq!(ctx.runs.len(), 3, "size and seed are part of the key");
    }

    #[test]
    fn studies_are_timed_at_the_top_level_only() {
        let mut ctx = EvalContext::quick().with_jobs(2);
        let doubled = ctx.study("outer", |ctx| {
            ctx.study("inner", |ctx| ctx.map(&[1u64, 2, 3], |x| x * 2))
        });
        assert_eq!(doubled, vec![2, 4, 6]);
        let timing = ctx.timing();
        assert_eq!(timing.studies.len(), 1);
        assert_eq!(timing.studies[0].label, "outer");
        assert_eq!(timing.wall, timing.studies[0].wall);
        assert_eq!(timing.shards[0].label, "inner[0]");
    }

    #[test]
    fn prefetch_matches_serial_run() {
        let mut serial = EvalContext::quick().with_jobs(1);
        let mut parallel = EvalContext::quick().with_jobs(4);
        let mut spec = serial.workload("aes");
        spec.total_instructions = 100_000;
        let kinds = [ConfigKind::Baseline, ConfigKind::Memento];
        serial.prefetch_kinds(std::slice::from_ref(&spec), &kinds);
        parallel.prefetch_kinds(std::slice::from_ref(&spec), &kinds);
        assert_eq!(parallel.timing().shards.len(), 2);
        for kind in kinds {
            assert_eq!(
                serial.run(&spec, kind).total_cycles(),
                parallel.run(&spec, kind).total_cycles(),
                "{kind:?} diverged between serial and parallel"
            );
        }
        // A second prefetch of the same points is a cached no-op.
        parallel.prefetch_kinds(std::slice::from_ref(&spec), &kinds);
        assert_eq!(parallel.timing().shards.len(), 2);
    }

    #[test]
    fn config_kinds_materialize() {
        for kind in [
            ConfigKind::Baseline,
            ConfigKind::Memento,
            ConfigKind::MementoNoBypass,
            ConfigKind::IsoStorage,
            ConfigKind::IdealMallacc,
            ConfigKind::BaselinePopulate,
        ] {
            let cfg = kind.system_config();
            assert!(cfg.cores >= 1);
        }
    }
}
