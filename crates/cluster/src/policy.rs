//! Scheduler policy surface: placement, keep-alive, cold-start mechanism,
//! reclamation, node autoscaling, and typed admission rejection. The
//! keep-alive TTL rule and the keep-alive and autoscaler config checks
//! live here, on the policy types; the fleet simulator only calls them.

use std::fmt;

use crate::error::ClusterError;
use crate::sim::MAX_CYCLES;

/// How the scheduler picks a node for an accepted arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Strict rotation over nodes; an arrival landing on a saturated node
    /// is rejected even if another node has room (cheap, cache-oblivious).
    RoundRobin,
    /// Among nodes with queue room, prefer one holding a warm container
    /// for the arriving workload, then least queued work, then lowest node
    /// id — deterministic warm-affinity load balancing.
    LeastLoaded,
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Placement::RoundRobin => f.write_str("round-robin"),
            Placement::LeastLoaded => f.write_str("least-loaded"),
        }
    }
}

/// What happens to a container after its invocation completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeepAlive {
    /// Tear down immediately: every invocation cold-starts. The
    /// no-warm-pool baseline.
    None,
    /// Keep the container idle-warm for this many simulated cycles; reuse
    /// cancels the pending expiry, expiry tears it down and returns its
    /// frames to the fleet.
    Fixed(u64),
    /// Never expire: maximal warm-start rate, maximal idle footprint.
    Infinite,
    /// KiSS-style size-aware keep-alive: a container's TTL is inversely
    /// proportional to its idle footprint, so small containers linger and
    /// large ones make way. The TTL is `budget_frame_cycles /
    /// idle_frames` (a fixed frame·cycle budget per container), clamped
    /// to `[min_cycles, max_cycles]`.
    SizeAware {
        /// Frame·cycle budget each idle container may spend
        /// (TTL × idle frames ≤ budget before clamping).
        budget_frame_cycles: u64,
        /// TTL floor in cycles (even huge containers get this long).
        min_cycles: u64,
        /// TTL ceiling in cycles (even tiny containers expire by then).
        max_cycles: u64,
    },
    /// Park the idle container to persistent memory: its Memento state is
    /// checkpointed into a crash-consistent PM image and its DRAM frames
    /// are shed, so an idle container contributes (near-)zero DRAM
    /// footprint; the next hit on it pays the calibrated PM restore —
    /// strictly between a warm hit and a snapshot restore on Memento
    /// fleets — instead of a free warm start. Parked containers still
    /// expire after this many cycles (PM capacity is not free either).
    ParkToPM {
        /// Cycles a parked image is retained before eviction.
        ttl_cycles: u64,
    },
}

impl KeepAlive {
    /// The keep-alive deadline rule: cycles a container that idles at
    /// `idle_frames` stays warm before it expires, or `None` when it gets
    /// no deadline (`None` tears it down at once, `Infinite` never
    /// expires). The TTL never grows with `idle_frames`, so `ttl(0)` is
    /// the longest the policy grants: a size-aware container with no idle
    /// frames spends none of its budget and keeps the ceiling.
    pub(crate) fn ttl(self, idle_frames: u64) -> Option<u64> {
        match self {
            KeepAlive::None | KeepAlive::Infinite => None,
            KeepAlive::Fixed(cycles) | KeepAlive::ParkToPM { ttl_cycles: cycles } => Some(cycles),
            // KiSS-style: TTL inversely proportional to the parked
            // footprint — big containers make way first.
            KeepAlive::SizeAware {
                budget_frame_cycles,
                min_cycles,
                max_cycles,
            } => Some(
                budget_frame_cycles
                    .checked_div(idle_frames)
                    .map_or(max_cycles, |ttl| ttl.clamp(min_cycles, max_cycles)),
            ),
        }
    }

    /// Rejects a zero size-aware budget, an empty TTL clamp range, a zero
    /// park-to-PM retention and any TTL past [`MAX_CYCLES`].
    pub(crate) fn validate(self) -> Result<(), ClusterError> {
        let why = match self {
            KeepAlive::SizeAware {
                budget_frame_cycles: 0,
                ..
            } => "size-aware frame-cycle budget must be positive".to_owned(),
            KeepAlive::SizeAware {
                min_cycles: lo,
                max_cycles: hi,
                ..
            } if lo == 0 || lo > hi => format!("TTL clamp range [{lo}, {hi}] is empty"),
            KeepAlive::ParkToPM { ttl_cycles: 0 } => {
                "park-to-pm retention TTL must be positive".to_owned()
            }
            _ => match self.ttl(0) {
                Some(longest) if longest > MAX_CYCLES => {
                    format!("TTL of {longest} cycles exceeds the clock bound {MAX_CYCLES}")
                }
                _ => return Ok(()),
            },
        };
        Err(ClusterError::InvalidKeepAlive(why))
    }
}

impl fmt::Display for KeepAlive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeepAlive::None => f.write_str("none"),
            KeepAlive::Fixed(cycles) => write!(f, "fixed({cycles})"),
            KeepAlive::Infinite => f.write_str("infinite"),
            KeepAlive::SizeAware {
                budget_frame_cycles,
                ..
            } => write!(f, "size-aware({budget_frame_cycles})"),
            KeepAlive::ParkToPM { ttl_cycles } => write!(f, "park-to-pm({ttl_cycles})"),
        }
    }
}

/// How a container with no warm pool hit comes up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ColdStart {
    /// Full cold boot: the container pays the calibrated cold-start
    /// service time (bring-up + first invocation).
    #[default]
    Boot,
    /// REAP-style snapshot restore: the container's stable working set is
    /// prefetched from a snapshot instead of rebuilt, so the start pays
    /// the calibrated restore cost — strictly between a warm hit and a
    /// full cold boot.
    Snapshot,
}

impl fmt::Display for ColdStart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColdStart::Boot => f.write_str("boot"),
            ColdStart::Snapshot => f.write_str("snapshot"),
        }
    }
}

/// Fleet-pressure-driven reclamation of idle-warm containers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Reclamation {
    /// No pressure response: idle-warm containers keep their full parked
    /// footprint until keep-alive expires them.
    #[default]
    None,
    /// Squeezy-style squeeze: when the fleet's unreclaimable footprint
    /// crosses `watermark_frames`, idle-warm containers are squeezed back
    /// toward their unreclaimable floor (page tables + kernel metadata);
    /// the squeezed-out frames are re-faulted by that container's next
    /// warm start, at a per-frame cost where Memento's pool re-grant path
    /// holds a hardware-assisted edge over baseline demand faults.
    Squeeze {
        /// Fleet footprint (frames) above which idle containers squeeze.
        watermark_frames: u64,
    },
}

impl fmt::Display for Reclamation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reclamation::None => f.write_str("none"),
            Reclamation::Squeeze { watermark_frames } => {
                write!(f, "squeeze({watermark_frames})")
            }
        }
    }
}

/// Target-utilization autoscaler parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AutoscalerConfig {
    /// Controller period in simulated cycles.
    pub interval_cycles: u64,
    /// Target percentage of serving capacity in use; the controller sizes
    /// the active fleet so `in_flight / (nodes × cores)` tracks this.
    pub target_load_pct: u64,
    /// Never scale below this many nodes.
    pub min_nodes: usize,
    /// Never scale above this many nodes (the region's hardware bound).
    pub max_nodes: usize,
    /// Cold-node spin-up delay: cycles between the scale-up decision and
    /// the node accepting placements.
    pub spinup_cycles: u64,
}

impl AutoscalerConfig {
    /// Rejects a zero interval or target, a target whose capacity unit
    /// (`cores_per_node × target_load_pct`) overflows `u64`, an empty node
    /// range, an initial fleet of `nodes` outside it, more than 2^16
    /// nodes, and an interval or spin-up delay past [`MAX_CYCLES`].
    pub(crate) fn validate(&self, nodes: usize, cores_per_node: usize) -> Result<(), ClusterError> {
        let (min, max) = (self.min_nodes, self.max_nodes);
        let pct = self.target_load_pct;
        let why = if self.interval_cycles == 0 {
            "controller interval must be positive".to_owned()
        } else if pct == 0 {
            "target load percentage must be positive".to_owned()
        } else if (cores_per_node as u64).checked_mul(pct).is_none() {
            format!("target load of {pct}% on {cores_per_node} cores per node overflows")
        } else if min == 0 || min > max {
            format!("node range [{min}, {max}] is empty")
        } else if nodes < min || nodes > max {
            format!("initial fleet of {nodes} nodes is outside [{min}, {max}]")
        } else if max > 1 << 16 {
            return Err(ClusterError::FleetTooLarge);
        } else if self.interval_cycles > MAX_CYCLES || self.spinup_cycles > MAX_CYCLES {
            format!(
                "interval {} or spin-up {} cycles exceeds the clock bound {MAX_CYCLES}",
                self.interval_cycles, self.spinup_cycles
            )
        } else {
            return Ok(());
        };
        Err(ClusterError::InvalidAutoscaler(why))
    }
}

/// Whether and how the fleet resizes itself under load.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Autoscaler {
    /// Fixed fleet: every configured node is active for the whole run.
    #[default]
    None,
    /// A target-utilization controller: every `interval_cycles` it
    /// compares in-flight work against active serving capacity, boots
    /// cold nodes (after `spinup_cycles`) when over target, and drains
    /// the highest-numbered active nodes when under.
    TargetUtilization(AutoscalerConfig),
}

impl fmt::Display for Autoscaler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Autoscaler::None => f.write_str("none"),
            Autoscaler::TargetUtilization(c) => {
                write!(f, "target-util({}%)", c.target_load_pct)
            }
        }
    }
}

/// Why an arrival was turned away at admission. Every rejection is typed
/// and counted — the simulator never silently drops traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RejectReason {
    /// The placed node's bounded queue was full (round-robin does not
    /// retry elsewhere).
    QueueFull,
    /// Every node's queue was full — the whole cluster is saturated.
    ClusterSaturated,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull => f.write_str("queue-full"),
            RejectReason::ClusterSaturated => f.write_str("cluster-saturated"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_stable_report_tokens() {
        assert_eq!(Placement::LeastLoaded.to_string(), "least-loaded");
        assert_eq!(KeepAlive::Fixed(1000).to_string(), "fixed(1000)");
        assert_eq!(KeepAlive::Infinite.to_string(), "infinite");
        assert_eq!(
            KeepAlive::SizeAware {
                budget_frame_cycles: 500,
                min_cycles: 1,
                max_cycles: 10,
            }
            .to_string(),
            "size-aware(500)"
        );
        assert_eq!(
            KeepAlive::ParkToPM { ttl_cycles: 9000 }.to_string(),
            "park-to-pm(9000)"
        );
        assert_eq!(ColdStart::Boot.to_string(), "boot");
        assert_eq!(ColdStart::Snapshot.to_string(), "snapshot");
        assert_eq!(Reclamation::None.to_string(), "none");
        assert_eq!(
            Reclamation::Squeeze {
                watermark_frames: 4096
            }
            .to_string(),
            "squeeze(4096)"
        );
        assert_eq!(Autoscaler::None.to_string(), "none");
        assert_eq!(
            Autoscaler::TargetUtilization(AutoscalerConfig {
                interval_cycles: 1_000,
                target_load_pct: 70,
                min_nodes: 1,
                max_nodes: 8,
                spinup_cycles: 100,
            })
            .to_string(),
            "target-util(70%)"
        );
        assert_eq!(
            RejectReason::ClusterSaturated.to_string(),
            "cluster-saturated"
        );
    }

    #[test]
    fn defaults_are_the_fixed_fleet_cold_boot_path() {
        assert_eq!(ColdStart::default(), ColdStart::Boot);
        assert_eq!(Reclamation::default(), Reclamation::None);
        assert_eq!(Autoscaler::default(), Autoscaler::None);
    }
}
