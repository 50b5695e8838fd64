//! Machine-side observability: glue between the simulation loop and
//! [`memento_obs`].
//!
//! [`MachineObs`] exists only when [`crate::SystemConfig`] carries a
//! [`crate::TraceConfig`]; when absent the machine takes the exact same
//! code paths and the layer costs nothing. When present it mirrors every
//! cycle charge into a [`Tracer`] span (one track per core) and into its
//! own [`CycleAccount`] ledger, so the exported Perfetto trace reconciles
//! with the machine's reported cycle totals *by construction*: the
//! machine charges every cycle through one private method,
//! `Machine::charge`, which writes the run's ledger and calls
//! [`MachineObs::charge`] together, so each charge becomes exactly one
//! span of the same length. Device events reach
//! [`MachineObs::on_device_events`] through one fan-out as well,
//! `Machine::fan_out_events`, which hands the same batch to the
//! sanitizer.
//!
//! The ledger covers the whole execution. For warm containers
//! ([`crate::Machine::run_invocations`], [`crate::WarmContainer`]) the
//! run's own account restarts at each invocation, and the invocation
//! boundary's quiesce stays out of it, while the trace keeps the cold
//! start, every boundary and the teardown — a trace that dropped the
//! warm-up would be useless for profiling.
//!
//! Span vocabulary (`cat: "charge"`): `user` (application compute and data
//! access), `mm` (allocator fast paths, software and hardware),
//! `hot_miss` (hardware alloc/free that missed the HOT), `walk`
//! (Memento page-table work), `arena_fill` (arena handout/reclaim in the
//! hardware page allocator), `kernel` (kernel memory management), `gc`
//! (Go mark phase), `setup` (container bring-up). A scoped `gc` phase span
//! (`cat: "phase"`) additionally brackets whole collections.

use crate::config::TraceConfig;
use memento_core::device::DeviceEvent;
use memento_obs::{MetricsRegistry, ProfileSample, Tracer};
use memento_simcore::cycles::{CycleAccount, CycleBucket, Cycles};

/// Per-machine observability state (tracer + metrics + profile samples).
#[derive(Clone, Debug)]
pub struct MachineObs {
    cfg: TraceConfig,
    tracer: Tracer,
    metrics: MetricsRegistry,
    samples: Vec<ProfileSample>,
    next_due: Vec<u64>,
    account: CycleAccount,
}

impl MachineObs {
    /// Builds the layer for a machine with `cores` cores.
    pub fn new(cfg: TraceConfig, cores: usize) -> Self {
        MachineObs {
            tracer: Tracer::new(cores),
            metrics: MetricsRegistry::default(),
            samples: Vec::new(),
            next_due: vec![cfg.sample_every; cores],
            account: CycleAccount::new(),
            cfg,
        }
    }

    /// The trace configuration in force.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Mirrors one cycle charge: ledger entry plus one trace span.
    pub fn charge(
        &mut self,
        core: usize,
        bucket: CycleBucket,
        label: &'static str,
        cycles: Cycles,
    ) {
        self.account.charge(bucket, cycles);
        self.tracer.span(core, label, cycles);
    }

    /// Consumes a batch of drained device events into counters.
    pub fn on_device_events(&mut self, events: &[DeviceEvent]) {
        for e in events {
            match e {
                DeviceEvent::ArenaInstalled { .. } => self.metrics.add("device.arena_installs", 1),
                DeviceEvent::ArenaReclaimed { .. } => self.metrics.add("device.arena_reclaims", 1),
                DeviceEvent::HeaderInvalidated { .. } => {
                    self.metrics.add("device.header_invalidations", 1)
                }
                DeviceEvent::PmParked { .. } => self.metrics.add("device.pm_parks", 1),
                DeviceEvent::PmRestored { .. } => self.metrics.add("device.pm_restores", 1),
            }
        }
    }

    /// Whether `core` has crossed its next sampling threshold.
    pub fn sample_due(&self, core: usize) -> bool {
        self.tracer.now(core) >= self.next_due[core]
    }

    /// Records a heap-profile sample and mirrors it onto the trace's
    /// counter tracks; re-arms the core's sampling threshold.
    pub fn push_sample(&mut self, s: ProfileSample) {
        self.tracer.sample(s.core, "live_bytes", s.live_bytes);
        self.tracer.sample(s.core, "pool_frames", s.pool_frames);
        self.tracer.sample(s.core, "hot_resident", s.hot_resident);
        self.next_due[s.core] = self.tracer.now(s.core) + self.cfg.sample_every;
        self.samples.push(s);
    }

    /// The mirrored cycle ledger (reconciles with the tracer's spans).
    pub fn account(&self) -> &CycleAccount {
        &self.account
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access (phase spans, fault-injection tests).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable registry access (layer-stat ingest).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Heap-profile samples taken so far.
    pub fn samples(&self) -> &[ProfileSample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_mirrors_ledger_and_span() {
        let mut obs = MachineObs::new(TraceConfig::default(), 1);
        obs.charge(0, CycleBucket::Compute, "user", Cycles::new(100));
        obs.charge(0, CycleBucket::KernelMm, "kernel", Cycles::new(40));
        assert_eq!(obs.account().get(CycleBucket::Compute), Cycles::new(100));
        assert_eq!(obs.tracer().total_charged(), 140);
        assert_eq!(obs.tracer().charge_totals().get("kernel"), Some(&40));
    }

    #[test]
    fn sampling_rearms_per_core() {
        let mut obs = MachineObs::new(
            TraceConfig {
                sample_every: 50,
                ..TraceConfig::default()
            },
            2,
        );
        assert!(!obs.sample_due(0));
        obs.charge(0, CycleBucket::Compute, "user", Cycles::new(60));
        assert!(obs.sample_due(0));
        assert!(!obs.sample_due(1), "core 1 clock has not advanced");
        obs.push_sample(ProfileSample {
            core: 0,
            cycles: 60,
            live_bytes: 1,
            pool_frames: 0,
            hot_resident: 0,
        });
        assert!(!obs.sample_due(0), "threshold re-armed");
        assert_eq!(obs.samples().len(), 1);
    }
}
