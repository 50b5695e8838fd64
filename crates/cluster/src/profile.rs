//! Service profiles: calibrated per-(workload, config) cost tables that
//! let the simulator scale to millions of invocations.
//!
//! The Measured engine runs a real
//! [`WarmContainer`](memento_system::WarmContainer) machine for every
//! container in the fleet — exact, but each invocation simulates the full
//! memory hierarchy. The Profiled engine instead *calibrates once* per
//! (workload, system config): [`calibrate`] runs one fixed op script
//! through the Measured engine's runner (boot, a handful of park/invoke
//! rounds, park, park to PM) and reads a [`ServiceProfile`] — cold/warm
//! service times, active/idle frame footprints, restore and re-fault
//! costs — from the records those ops return. The fleet simulation then
//! replays those numbers. Because the underlying machine is
//! deterministic, the profile is a pure function of (spec, config) and
//! the profiled fleet remains byte-deterministic.
//!
//! The Profiled service model (`Profiled`, crate-private) turns a
//! mix's profiles into one constant cost record per (workload, container
//! state): booted, restored, invoked, PM-restored, parked, parked to PM.
//! It rejects a profile whose largest per-invocation charge, summed over
//! a run, could overflow the simulated clock.

use std::collections::BTreeMap;

use memento_system::SystemConfig;
use memento_workloads::spec::WorkloadSpec;

use crate::arrival::WorkloadMix;
use crate::error::ClusterError;
use crate::lineage::{strictly_between, Runner};
use crate::model::{Op, Record, ServiceModel};
use crate::policy::ColdStart;
use crate::sim::MAX_CYCLES;

/// Calibrated per-(workload, config) service costs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceProfile {
    /// Workload name (suite name).
    pub workload: String,
    /// Cycles for a cold start: container bring-up + first invocation.
    pub cold_cycles: u64,
    /// Cycles for a steady warm invocation.
    pub warm_cycles: u64,
    /// Peak unreclaimable frames while the container actively serves a
    /// request (mapped data + tables; free pool staging excluded).
    pub active_frames: u64,
    /// Unreclaimable frames while the container idles warm and *parked*
    /// (pool reserve shed): page tables + whatever heap the allocator
    /// cannot give back. This is the keep-alive footprint a fleet pays
    /// per warm container.
    pub idle_frames: u64,
    /// Cycles for a REAP-style snapshot restore: the steady warm
    /// invocation plus the stable-working-set prefetch read after its
    /// park, clamped strictly between `warm_cycles` and
    /// `cold_cycles`. (The Measured engine's snapshot boot prices the
    /// first warm invocation after a cold start instead.)
    pub restore_cycles: u64,
    /// Frames a pressure squeeze cannot reclaim from this container while
    /// it idles warm (page tables + kernel metadata; never above
    /// `idle_frames`).
    pub squeeze_floor_frames: u64,
    /// Cycles the next warm start pays to re-fault the squeezed-out
    /// `idle_frames - squeeze_floor_frames` frames. Memento machines
    /// re-grant through the hardware pool; baselines demand-fault — the
    /// cost edge shows up here.
    pub squeeze_refault_cycles: u64,
    /// Cycles a park-to-PM restore costs on top of a warm invocation:
    /// PM recovery plus sealed-image replay (Memento) or whole-working-set
    /// demand refault (baselines persist an empty image). Clamped strictly
    /// between `warm_cycles` and `restore_cycles` — PM is byte-addressable,
    /// so replaying a compact image always undercuts a snapshot's bulk
    /// page-in, but a restored container is never as cheap as one that
    /// never left DRAM.
    pub pm_restore_cycles: u64,
    /// Background cycles one park-to-PM persist costs (checkpoint record
    /// flushes + working-set writeback). Off the latency path — the
    /// container is idle when it parks — but reported so operators can see
    /// the PM write traffic the policy generates.
    pub pm_persist_cycles: u64,
}

/// Calibrates a profile by running a real machine through the cluster's
/// warm lifecycle on the Measured engine's runner: boot, then
/// `warm_samples` park → invoke rounds (the last invocation is taken as
/// steady state, so its cycles include the post-park pool refill a
/// scheduled warm start pays), then park and park to PM. `warm_samples`
/// is clamped to ≥ 1.
pub fn calibrate(cfg: &SystemConfig, spec: &WorkloadSpec, warm_samples: usize) -> ServiceProfile {
    let mut runner = Runner::new(Box::new(cfg.clone()), vec![spec.clone()]);
    let (mut m, cold) = runner.boot(0, ColdStart::Boot);
    let mut warm = cold;
    for _ in 0..warm_samples.max(1) {
        runner.apply(&mut m, Op::Park);
        warm = runner.apply(&mut m, Op::Invoke { pm_restore: false });
    }
    let parked = runner.apply(&mut m, Op::Park);
    // The two costs no record carries: the snapshot prefetch of the
    // parked container, and the PM restore premium after a park to PM.
    let prefetch = m.snapshot_restore_cycles();
    let persist = runner.apply(&mut m, Op::ParkToPm);
    let pm_extra = m.restore_from_pm();
    let cold_cycles = cold.cycles.max(1);
    let warm_cycles = warm.cycles.max(1);
    let restore_cycles = strictly_between(warm_cycles, prefetch, cold_cycles);
    ServiceProfile {
        workload: spec.name.clone(),
        cold_cycles,
        warm_cycles,
        active_frames: parked.serving_peak,
        idle_frames: parked.idle_frames,
        restore_cycles,
        squeeze_floor_frames: parked.squeeze_floor,
        squeeze_refault_cycles: parked.squeeze_refault,
        pm_restore_cycles: strictly_between(warm_cycles, pm_extra, restore_cycles),
        pm_persist_cycles: persist.cycles,
    }
}

/// A lookup table of profiles keyed by workload name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileTable {
    profiles: BTreeMap<String, ServiceProfile>,
}

impl ProfileTable {
    /// An empty table.
    pub fn new() -> Self {
        ProfileTable::default()
    }

    /// Builds a table from calibrated profiles (last one wins per name).
    pub fn from_profiles(profiles: Vec<ServiceProfile>) -> Self {
        let mut t = ProfileTable::new();
        for p in profiles {
            t.insert(p);
        }
        t
    }

    /// Adds or replaces a profile.
    pub fn insert(&mut self, profile: ServiceProfile) {
        self.profiles.insert(profile.workload.clone(), profile);
    }

    /// The profile for `workload`, if calibrated.
    pub fn get(&self, workload: &str) -> Option<&ServiceProfile> {
        self.profiles.get(workload)
    }

    /// Number of calibrated workloads.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when nothing has been calibrated.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

/// A Profiled container's state: the last op that reached it.
#[derive(Clone, Copy, Debug)]
enum State {
    Boot,
    Restore,
    Invoke,
    PmInvoke,
    Park,
    PmPark,
}

/// A Profiled container's position: its workload and its state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProfiledPos {
    workload: u32,
    state: State,
}

/// The Profiled service model: one constant [`Record`] per (workload,
/// [`State`]), precomputed in mix order from the calibrated profiles.
pub(crate) struct Profiled {
    records: Vec<[Record; 6]>,
}

impl Profiled {
    /// The model for `mix` over a run of `invocations`. A workload
    /// without a profile is [`ClusterError::MissingProfile`]. Costs that
    /// could overflow the clock are [`ClusterError::InvalidProfile`]: the
    /// largest cycle charge one invocation can carry, times
    /// `invocations`, above [`MAX_CYCLES`], or a frame count above
    /// `u32::MAX`.
    pub(crate) fn new(
        table: &ProfileTable,
        mix: &WorkloadMix,
        invocations: usize,
    ) -> Result<Self, ClusterError> {
        let mut records = Vec::with_capacity(mix.len());
        for spec in mix.specs() {
            let p = table
                .get(&spec.name)
                .ok_or_else(|| ClusterError::MissingProfile(spec.name.clone()))?;
            let squeeze_floor = p.squeeze_floor_frames.min(p.idle_frames);
            let record = |cycles| Record {
                cycles,
                serving_peak: p.active_frames,
                idle_frames: p.idle_frames,
                squeeze_floor,
                squeeze_refault: p.squeeze_refault_cycles,
            };
            // In `State` order.
            let rs = [
                record(p.cold_cycles),
                record(p.restore_cycles),
                record(p.warm_cycles),
                record(p.pm_restore_cycles),
                record(0),
                // A PM-parked container holds no DRAM while idle, as
                // `Record::read` reads a PM-parked machine.
                Record {
                    idle_frames: 0,
                    squeeze_floor: 0,
                    ..record(p.pm_persist_cycles)
                },
            ];
            let invalid = |why| ClusterError::InvalidProfile(format!("'{}': {why}", spec.name));
            // One invocation's worst charge: its start or persist, plus
            // a squeeze re-fault.
            let start = rs.iter().map(|r| r.cycles).max().unwrap_or(0);
            let charge = start.saturating_add(p.squeeze_refault_cycles);
            if charge
                .checked_mul(invocations as u64)
                .is_none_or(|t| t > MAX_CYCLES)
            {
                return Err(invalid(format!(
                    "{invocations} invocations of up to {charge} cycles \
                     exceed the clock bound {MAX_CYCLES}"
                )));
            }
            if rs
                .iter()
                .any(|r| r.serving_peak.max(r.idle_frames) > u64::from(u32::MAX))
            {
                return Err(invalid(format!("a frame count exceeds {}", u32::MAX)));
            }
            records.push(rs);
        }
        Ok(Profiled { records })
    }
}

impl ServiceModel for Profiled {
    type Pos = ProfiledPos;

    fn boot(&mut self, workload: u32, kind: ColdStart) -> (ProfiledPos, Record) {
        let state = match kind {
            ColdStart::Boot => State::Boot,
            ColdStart::Snapshot => State::Restore,
        };
        let pos = ProfiledPos { workload, state };
        (pos, self.record(pos))
    }

    fn apply(&mut self, pos: &mut ProfiledPos, op: Op) -> Record {
        pos.state = match op {
            Op::Invoke { pm_restore: false } => State::Invoke,
            Op::Invoke { pm_restore: true } => State::PmInvoke,
            Op::Park => State::Park,
            Op::ParkToPm => State::PmPark,
        };
        self.record(*pos)
    }

    fn record(&self, pos: ProfiledPos) -> Record {
        self.records[pos.workload as usize][pos.state as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_workloads::suite;

    fn small(name: &str) -> WorkloadSpec {
        let mut s = suite::by_name(name).expect("known workload");
        s.total_instructions = 300_000;
        s
    }

    #[test]
    fn calibration_captures_cold_warm_gap_and_footprints() {
        let spec = small("aes");
        let p = calibrate(&SystemConfig::memento(), &spec, 3);
        assert_eq!(p.workload, "aes");
        assert!(p.cold_cycles > p.warm_cycles, "cold start must cost more");
        assert!(
            p.active_frames >= p.idle_frames,
            "serving needs at least idle frames"
        );
        assert!(p.idle_frames > 0, "a warm container keeps frames resident");
        assert!(
            p.warm_cycles < p.restore_cycles && p.restore_cycles < p.cold_cycles,
            "snapshot restore must land strictly between warm ({}) and cold ({}): {}",
            p.warm_cycles,
            p.cold_cycles,
            p.restore_cycles
        );
        assert!(
            p.squeeze_floor_frames > 0 && p.squeeze_floor_frames <= p.idle_frames,
            "squeeze floor must be a nonzero fraction of the idle footprint"
        );
    }

    #[test]
    fn pm_restore_lands_between_warm_and_snapshot_restore() {
        for cfg in [SystemConfig::memento(), SystemConfig::baseline()] {
            let p = calibrate(&cfg, &small("aes"), 2);
            assert!(
                p.warm_cycles < p.pm_restore_cycles && p.pm_restore_cycles < p.restore_cycles,
                "pm restore must sit strictly inside (warm {}, snapshot {}): {}",
                p.warm_cycles,
                p.restore_cycles,
                p.pm_restore_cycles
            );
            assert!(p.pm_persist_cycles > 0, "persist work is accounted");
        }
    }

    /// Every field of four calibrations, pinned to recorded values: the
    /// PM and squeeze costs reach no other golden.
    #[test]
    fn calibration_matches_recorded_profiles() {
        let recorded = [
            (
                SystemConfig::baseline(),
                ServiceProfile {
                    workload: "aes".into(),
                    cold_cycles: 271_706,
                    warm_cycles: 228_446,
                    active_frames: 28,
                    idle_frames: 11,
                    restore_cycles: 235_496,
                    squeeze_floor_frames: 5,
                    squeeze_refault_cycles: 12_960,
                    pm_restore_cycles: 235_495,
                    pm_persist_cycles: 5_370,
                },
            ),
            (
                SystemConfig::memento(),
                ServiceProfile {
                    workload: "aes".into(),
                    cold_cycles: 206_753,
                    warm_cycles: 158_964,
                    active_frames: 71,
                    idle_frames: 12,
                    restore_cycles: 166_464,
                    squeeze_floor_frames: 5,
                    squeeze_refault_cycles: 4_970,
                    pm_restore_cycles: 162_654,
                    pm_persist_cycles: 7_860,
                },
            ),
            (
                SystemConfig::baseline(),
                ServiceProfile {
                    workload: "html".into(),
                    cold_cycles: 393_775,
                    warm_cycles: 301_922,
                    active_frames: 43,
                    idle_frames: 18,
                    restore_cycles: 312_122,
                    squeeze_floor_frames: 5,
                    squeeze_refault_cycles: 28_080,
                    pm_restore_cycles: 312_121,
                    pm_persist_cycles: 8_520,
                },
            ),
            (
                SystemConfig::memento(),
                ServiceProfile {
                    workload: "html".into(),
                    cold_cycles: 277_813,
                    warm_cycles: 177_228,
                    active_frames: 102,
                    idle_frames: 19,
                    restore_cycles: 187_878,
                    squeeze_floor_frames: 5,
                    squeeze_refault_cycles: 9_940,
                    pm_restore_cycles: 181_638,
                    pm_persist_cycles: 11_970,
                },
            ),
        ];
        for (cfg, want) in recorded {
            let got = calibrate(&cfg, &small(&want.workload), 3);
            assert_eq!(got, want, "{} under {:?}", want.workload, cfg.mode);
        }
    }

    #[test]
    fn calibration_is_deterministic() {
        let spec = small("html");
        let a = calibrate(&SystemConfig::baseline(), &spec, 2);
        let b = calibrate(&SystemConfig::baseline(), &spec, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn table_lookup_by_name() {
        let spec = small("aes");
        let p = calibrate(&SystemConfig::memento(), &spec, 1);
        let t = ProfileTable::from_profiles(vec![p.clone()]);
        assert_eq!(t.get("aes"), Some(&p));
        assert!(t.get("html").is_none());
        assert_eq!(t.len(), 1);
    }
}
