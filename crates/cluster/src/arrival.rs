//! Open-loop arrival process: seeded deterministic inter-arrival times and
//! workload-mix sampling.
//!
//! The generator is *open-loop* — arrival times are drawn up front from a
//! Poisson process (exponential inter-arrival gaps) and never react to how
//! the cluster is coping, exactly how production traffic behaves. A slow
//! fleet therefore builds queues and tail latency instead of politely
//! slowing the offered load, which is the failure mode the tail-latency
//! evaluation exists to measure.
//!
//! # Determinism
//!
//! Everything is a pure function of the seed: the same
//! [`ArrivalConfig`] produces byte-identical arrival sequences on every
//! run, so baseline and Memento fleets can be offered the *same* traffic.
//! [`generate_arrivals`] is [`generate_trace`] over a [`UniformTrace`],
//! whose single piece never ends (see [`crate::trace`]), so it draws one
//! gap and one workload per arrival. A workload draw picks the first
//! bucket whose cumulative weight exceeds a uniform `u`, computed as a
//! branchless count of the weights at or below `u`; the two agree on
//! every draw (see `WorkloadMix::index`).

use crate::error::ClusterError;
use crate::trace::{generate_trace, UniformTrace};
use memento_workloads::spec::WorkloadSpec;

/// A weighted set of workloads that arrivals sample from.
#[derive(Clone, Debug)]
pub struct WorkloadMix {
    specs: Vec<WorkloadSpec>,
    /// Cumulative weights, normalised to end at 1.0.
    cumulative: Vec<f64>,
}

impl WorkloadMix {
    /// A mix with explicit per-workload weights (relative shares; they
    /// need not sum to one). Zero-weight entries are allowed and simply
    /// never sampled.
    pub fn weighted(entries: Vec<(WorkloadSpec, f64)>) -> Result<Self, ClusterError> {
        let total: f64 = entries.iter().map(|(_, w)| w.max(0.0)).sum();
        if entries.is_empty() || total <= 0.0 {
            return Err(ClusterError::EmptyMix);
        }
        let mut specs = Vec::with_capacity(entries.len());
        let mut cumulative = Vec::with_capacity(entries.len());
        let mut acc = 0.0;
        for (spec, w) in entries {
            acc += w.max(0.0) / total;
            specs.push(spec);
            cumulative.push(acc);
        }
        // Guard against float drift so the last bucket always catches 1.0.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Ok(WorkloadMix { specs, cumulative })
    }

    /// An equal-share mix over `specs`.
    pub fn uniform(specs: Vec<WorkloadSpec>) -> Result<Self, ClusterError> {
        WorkloadMix::weighted(specs.into_iter().map(|s| (s, 1.0)).collect())
    }

    /// The workloads in the mix, in sampling-index order.
    pub fn specs(&self) -> &[WorkloadSpec] {
        &self.specs
    }

    /// The spec at mix index `idx`.
    pub fn spec(&self, idx: usize) -> &WorkloadSpec {
        &self.specs[idx]
    }

    /// Number of workloads in the mix.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the mix holds no workloads (unreachable via constructors).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The mix index a uniform draw `u ∈ [0, 1)` selects: the first
    /// bucket whose cumulative weight exceeds `u`. The cumulative weights
    /// only fall where float drift carried one past 1.0 and the last is
    /// clamped back to 1.0, and `u` lies below both; so that index is
    /// the number of weights at or below `u` — a branchless count, where
    /// an early-exit scan would mispredict its exit on most draws.
    #[inline]
    pub(crate) fn index(&self, u: f64) -> usize {
        let below: usize = self.cumulative.iter().map(|&c| usize::from(c <= u)).sum();
        below.min(self.specs.len() - 1)
    }

    /// The early-exit scan [`Self::index`] replaces: the oracle it is
    /// checked against.
    #[cfg(test)]
    pub(crate) fn scan_index(&self, u: f64) -> usize {
        self.cumulative
            .iter()
            .position(|c| u < *c)
            .unwrap_or(self.specs.len() - 1)
    }
}

/// Parameters of the open-loop arrival process.
#[derive(Clone, Copy, Debug)]
pub struct ArrivalConfig {
    /// Seed for inter-arrival gaps and workload sampling.
    pub seed: u64,
    /// Number of invocations to offer.
    pub count: u64,
    /// Mean inter-arrival gap in simulated cycles (1 / arrival rate). At
    /// 3 GHz, 3_000 cycles = 1 µs between arrivals fleet-wide.
    pub mean_interarrival_cycles: f64,
}

/// One offered invocation: its arrival time in simulated cycles, and the
/// mix index of the workload it runs. Its place in an arrival sequence is
/// its submission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time in simulated cycles.
    pub time: u64,
    /// Index into the [`WorkloadMix`].
    pub workload: usize,
}

/// Draws the full arrival sequence: a pure function of
/// `(cfg.seed, cfg.count, cfg.mean_interarrival_cycles, mix)`, strictly
/// increasing in time (gaps are clamped to ≥ 1 cycle). This is
/// [`generate_trace`] over the homogeneous [`UniformTrace`].
pub fn generate_arrivals(
    cfg: &ArrivalConfig,
    mix: &WorkloadMix,
) -> Result<Vec<Arrival>, ClusterError> {
    generate_trace(cfg, mix, &UniformTrace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_workloads::suite;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn two_mix() -> WorkloadMix {
        WorkloadMix::uniform(vec![
            suite::by_name("aes").expect("known workload"),
            suite::by_name("html").expect("known workload"),
        ])
        .expect("non-empty mix")
    }

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let cfg = ArrivalConfig {
            seed: 42,
            count: 500,
            mean_interarrival_cycles: 10_000.0,
        };
        let mix = two_mix();
        let a = generate_arrivals(&cfg, &mix).expect("valid config");
        let b = generate_arrivals(&cfg, &mix).expect("valid config");
        assert_eq!(a, b);
        let c = generate_arrivals(&ArrivalConfig { seed: 43, ..cfg }, &mix).expect("valid config");
        assert_ne!(a, c, "different seeds must produce different traffic");
    }

    #[test]
    fn times_strictly_increase_and_mean_gap_is_plausible() {
        let cfg = ArrivalConfig {
            seed: 7,
            count: 20_000,
            mean_interarrival_cycles: 5_000.0,
        };
        let arrivals = generate_arrivals(&cfg, &two_mix()).expect("valid config");
        assert_eq!(arrivals.len(), 20_000);
        for w in arrivals.windows(2) {
            assert!(
                w[0].time < w[1].time,
                "open-loop times must strictly increase"
            );
        }
        let mean = arrivals.last().expect("non-empty").time as f64 / arrivals.len() as f64;
        assert!(
            (4_500.0..5_500.0).contains(&mean),
            "empirical mean gap {mean} should be near 5000"
        );
    }

    #[test]
    fn mix_sampling_respects_weights() {
        let mix = WorkloadMix::weighted(vec![
            (suite::by_name("aes").expect("known workload"), 3.0),
            (suite::by_name("html").expect("known workload"), 1.0),
        ])
        .expect("non-empty mix");
        let cfg = ArrivalConfig {
            seed: 1,
            count: 40_000,
            mean_interarrival_cycles: 100.0,
        };
        let arrivals = generate_arrivals(&cfg, &mix).expect("valid config");
        let first = arrivals.iter().filter(|a| a.workload == 0).count();
        let share = first as f64 / arrivals.len() as f64;
        assert!((0.72..0.78).contains(&share), "3:1 mix share was {share}");
    }

    #[test]
    fn branchless_sample_equals_the_linear_scan() {
        let spec = || suite::by_name("aes").expect("known workload");
        let weight_sets: [&[f64]; 6] = [
            &[1.0],
            &[0.0, 1.0, 0.0, 2.0, 0.0],
            // Float drift: these shares sum to 0.9999999999999999, so the
            // last bucket is raised to 1.0 ...
            &[0.1, 0.2, 0.3],
            // ... and these pass 1.0 one bucket early, so the zero-weight
            // last bucket is clamped below its predecessor.
            &[0.3, 0.3, 0.3, 0.1, 0.0],
            &[1.0; 7],
            &[1e-300, 3.0, 1e-17, 0.0, 7.0, 0.0],
        ];
        let mut rng = StdRng::seed_from_u64(9);
        for weights in weight_sets {
            let mix = WorkloadMix::weighted(weights.iter().map(|&w| (spec(), w)).collect())
                .expect("positive total");
            // Every cumulative boundary and its float neighbours, plus
            // random draws.
            let mut us: Vec<f64> = vec![0.0, f64::from_bits(1.0f64.to_bits() - 1)];
            for &c in &mix.cumulative {
                for bits in [c.to_bits().saturating_sub(1), c.to_bits(), c.to_bits() + 1] {
                    let u = f64::from_bits(bits);
                    if (0.0..1.0).contains(&u) {
                        us.push(u);
                    }
                }
            }
            us.extend((0..10_000).map(|_| rng.gen_range(0.0..1.0)));
            for u in us {
                assert_eq!(mix.index(u), mix.scan_index(u), "u = {u} in {weights:?}");
            }
        }
    }

    #[test]
    fn invalid_inputs_are_typed() {
        assert_eq!(
            WorkloadMix::uniform(vec![]).err(),
            Some(ClusterError::EmptyMix)
        );
        let mix = two_mix();
        let bad = ArrivalConfig {
            seed: 0,
            count: 1,
            mean_interarrival_cycles: 0.0,
        };
        assert!(matches!(
            generate_arrivals(&bad, &mix),
            Err(ClusterError::InvalidArrivalRate(_))
        ));
    }
}
