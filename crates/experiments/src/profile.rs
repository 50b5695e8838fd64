//! Per-run profiling: one traced simulation rendered as a cycle flame
//! table, a metrics appendix, and a heap-profile sample table.
//!
//! This is the reporting end of the observability layer: the machine
//! mirrors every cycle charge into `memento_obs` during the run, and this
//! module turns the result into the three plain-text views EXPERIMENTS.md
//! calls the profiling appendix. The run measures the workload exactly as
//! the tables do ([`crate::context::EvalContext::simulate`]), so its
//! [`RunStats`] are byte-identical to an untraced run — tracing only
//! *observes*.

use crate::context::{measure, ConfigKind};
use memento_obs::profile::render_samples;
use memento_system::{Machine, RunStats};
use memento_workloads::spec::WorkloadSpec;
use std::fmt;
use std::path::Path;

/// Everything one profiled run produces, pre-rendered for printing.
pub struct ProfileReport {
    /// Workload/config the run profiled (header for the appendix).
    pub title: String,
    /// The run's ordinary statistics — byte-identical to an untraced run.
    pub stats: RunStats,
    /// Flame-style per-phase cycle breakdown from the tracer.
    pub flame: String,
    /// Counters + histograms rendered by the metrics registry.
    pub metrics: String,
    /// Heap-profile samples (live bytes, pool frames, HOT residency).
    pub samples: String,
    /// Total cycles attributed across all trace spans. Reconciles with the
    /// machine's cycle ledger by construction: every ledger charge becomes
    /// exactly one span of the same length. For a long-running workload
    /// the trace covers the whole container (cold start, warm invocations
    /// and teardown), while `stats` covers the steady window only.
    pub charged_cycles: u64,
}

/// Runs `spec` under `kind` with tracing enabled and renders the
/// profiling views. When `trace_path` is given the machine also writes the
/// Chrome/Perfetto `trace_event` JSON there at run end (open it in
/// `ui.perfetto.dev`); otherwise the trace stays in memory.
pub fn profile_run(
    spec: &WorkloadSpec,
    kind: ConfigKind,
    trace_path: Option<&Path>,
) -> ProfileReport {
    let cfg = kind.system_config();
    let cfg = match trace_path {
        Some(p) => cfg.traced(p),
        None => cfg.traced_in_memory(),
    };
    let mut machine = Machine::new(cfg);
    let stats = measure(&mut machine, spec);
    let obs = machine
        .observability()
        .expect("profile_run enables tracing");
    ProfileReport {
        title: format!("{}/{:?}", spec.name, kind),
        flame: obs.tracer().flame_table(),
        metrics: obs.metrics().render(),
        samples: render_samples(obs.samples()),
        charged_cycles: obs.tracer().total_charged(),
        stats,
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Profile — {}", self.title)?;
        writeln!(
            f,
            "measured window {} cycles  (what the tables report: a function's \
             cold run, a service's steady invocations)",
            self.stats.total_cycles().raw()
        )?;
        writeln!(
            f,
            "traced {} cycles  (cold start through teardown)",
            self.charged_cycles
        )?;
        writeln!(f)?;
        writeln!(f, "{}", self.flame)?;
        writeln!(f, "metrics appendix")?;
        writeln!(f, "{}", self.metrics)?;
        if !self.samples.is_empty() {
            writeln!(f, "heap-profile samples")?;
            write!(f, "{}", self.samples)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalContext;

    #[test]
    fn profile_renders_all_sections() {
        let ctx = EvalContext::quick();
        let mut spec = ctx.workload("aes");
        spec.total_instructions = 200_000;
        let report = profile_run(&spec, ConfigKind::Memento, None);
        assert!(report.charged_cycles > 0, "spans were attributed");
        let text = report.to_string();
        assert!(text.contains("Profile — aes/Memento"));
        assert!(text.contains("metrics appendix"));
        assert!(text.contains("tlb.l1.hits"), "layer stats ingested");
        assert!(text.contains("user"), "flame table has the user phase");
    }

    #[test]
    fn header_names_the_measured_and_traced_windows() {
        // A service's steady window is shorter than its traced container
        // life, so the header must say which number is which.
        let ctx = EvalContext::quick();
        let mut spec = ctx.workload("Redis");
        spec.total_instructions = 200_000;
        let report = profile_run(&spec, ConfigKind::Baseline, None);
        let measured = report.stats.total_cycles().raw();
        assert!(measured < report.charged_cycles);
        let text = report.to_string();
        assert!(text.contains(&format!("measured window {measured} cycles")));
        assert!(text.contains(&format!(
            "traced {} cycles  (cold start through teardown)",
            report.charged_cycles
        )));
    }

    #[test]
    fn profiled_stats_match_untraced_run() {
        // A function (one cold run) and a platform service (the steady
        // window of a warm container): tracing must not move a field.
        let ctx = EvalContext::quick();
        for (name, kind) in [
            ("aes", ConfigKind::Baseline),
            ("Redis", ConfigKind::Baseline),
            ("Redis", ConfigKind::Memento),
        ] {
            let mut spec = ctx.workload(name);
            spec.total_instructions = 200_000;
            let report = profile_run(&spec, kind, None);
            let plain = EvalContext::simulate(&crate::sharding::SimPoint::new(spec.clone(), kind));
            assert_eq!(
                format!("{:?}", report.stats),
                format!("{plain:?}"),
                "{name}/{kind:?}: tracing must be invisible in the statistics"
            );
        }
    }
}
