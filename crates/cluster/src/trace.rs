//! Arrival traces beyond homogeneous Poisson: diurnal day curves and
//! flash-crowd burst overlays, generated by Lewis–Shedler thinning.
//!
//! Real serverless traffic is not a flat Poisson stream: Azure Functions
//! traces show day-scale sinusoids with several-fold peak-to-trough
//! swings, punctuated by flash crowds that multiply the rate for minutes.
//! [`ArrivalTrace`] describes a time-varying intensity as an integer
//! parts-per-million multiplier of the base rate, and [`generate_trace`]
//! turns it into a concrete arrival sequence by **thinning**: candidates
//! are drawn from a homogeneous Poisson process at the trace's peak
//! intensity, and each candidate at time `t` is accepted with probability
//! `intensity(t) / peak`. The result is a non-homogeneous Poisson process
//! with exactly the requested intensity profile.
//!
//! # Determinism
//!
//! Everything is a pure function of the seed. Two properties are
//! load-bearing:
//!
//! - Intensities are *integers* (ppm) computed with integer arithmetic —
//!   no `sin`/`cos`/`exp`, whose libm implementations vary across
//!   platforms. The diurnal curve is a piecewise-linear triangle wave.
//! - When a candidate lands where `intensity == peak`, the accept draw is
//!   **skipped** (it would accept with probability 1). A [`UniformTrace`]
//!   therefore draws one gap and one workload per arrival: the
//!   homogeneous Poisson process
//!   [`crate::arrival::generate_arrivals`] returns, which is this
//!   generator over a [`UniformTrace`].

use crate::arrival::{Arrival, ArrivalConfig, WorkloadMix};
use crate::error::ClusterError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One million ppm: the base arrival rate, unmodulated.
pub const PPM: u64 = 1_000_000;

/// A deterministic time-varying arrival-intensity profile.
///
/// Implementations must be pure functions of `t` (no interior state), so
/// the generated trace is a pure function of `(seed, trace, mix)`.
pub trait ArrivalTrace {
    /// Instantaneous intensity at simulated cycle `t`, as a
    /// parts-per-million multiplier of the base rate ([`PPM`] = 1.0×).
    fn intensity_ppm(&self, t: u64) -> u64;

    /// The maximum of [`Self::intensity_ppm`] over all `t` — the thinning
    /// envelope. Must be an exact upper bound: an instant whose intensity
    /// exceeds the claimed peak would be silently under-sampled.
    fn peak_ppm(&self) -> u64;

    /// Stable label for report tables.
    fn label(&self) -> String;
}

/// The homogeneous trace: intensity 1.0× everywhere.
/// [`crate::arrival::generate_arrivals`] is [`generate_trace`] over it.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformTrace;

impl ArrivalTrace for UniformTrace {
    fn intensity_ppm(&self, _t: u64) -> u64 {
        PPM
    }

    fn peak_ppm(&self) -> u64 {
        PPM
    }

    fn label(&self) -> String {
        "uniform".to_owned()
    }
}

/// A seeded diurnal day curve: a piecewise-linear triangle wave rising
/// from `trough_ppm` at the day boundary to `peak_ppm` at mid-day and
/// back. The triangle (rather than a sinusoid) keeps the intensity in
/// exact integer arithmetic — byte-identical across platforms — while
/// preserving what matters for the fleet: a smooth several-fold swing
/// between quiet and busy hours.
#[derive(Clone, Copy, Debug)]
pub struct DiurnalTrace {
    /// Period of one "day" in simulated cycles.
    pub day_cycles: u64,
    /// Intensity at the day boundary (the quiet trough), in ppm.
    pub trough_ppm: u64,
    /// Intensity at mid-day (the busy peak), in ppm.
    pub peak_ppm: u64,
}

impl ArrivalTrace for DiurnalTrace {
    fn intensity_ppm(&self, t: u64) -> u64 {
        let day = self.day_cycles.max(2);
        let phase = t % day;
        let half = day / 2;
        let swing = self.peak_ppm.saturating_sub(self.trough_ppm);
        if phase <= half {
            self.trough_ppm + swing * phase / half
        } else {
            self.peak_ppm - swing * (phase - half) / (day - half)
        }
    }

    fn peak_ppm(&self) -> u64 {
        self.peak_ppm.max(self.trough_ppm)
    }

    fn label(&self) -> String {
        format!("diurnal(day={})", self.day_cycles)
    }
}

/// A flash-crowd overlay: multiplies the base trace's intensity by
/// `multiplier` during a burst window of `burst_cycles` at the start of
/// every `period_cycles` — the tail-risk regime where a fleet that sized
/// itself for the day curve suddenly sees several-fold traffic.
#[derive(Clone, Copy, Debug)]
pub struct FlashCrowd<T> {
    /// The underlying trace the bursts overlay.
    pub base: T,
    /// Cycles between burst onsets.
    pub period_cycles: u64,
    /// Burst duration in cycles (clamped to the period).
    pub burst_cycles: u64,
    /// Intensity multiplier during a burst (≥ 1).
    pub multiplier: u64,
}

impl<T: ArrivalTrace> FlashCrowd<T> {
    /// True when `t` falls inside a burst window.
    fn in_burst(&self, t: u64) -> bool {
        let period = self.period_cycles.max(1);
        t % period < self.burst_cycles.min(period)
    }
}

impl<T: ArrivalTrace> ArrivalTrace for FlashCrowd<T> {
    fn intensity_ppm(&self, t: u64) -> u64 {
        let base = self.base.intensity_ppm(t);
        if self.in_burst(t) {
            base * self.multiplier.max(1)
        } else {
            base
        }
    }

    fn peak_ppm(&self) -> u64 {
        self.base.peak_ppm() * self.multiplier.max(1)
    }

    fn label(&self) -> String {
        format!("flash(x{}, {})", self.multiplier, self.base.label())
    }
}

/// An empirical day curve replayed from a checked-in hourly rate table —
/// the Azure-trace analogue of [`DiurnalTrace`]. The table gives one
/// integer-ppm intensity per hour of a `day_cycles`-long day; intensity
/// between samples is linearly interpolated in integer arithmetic (so the
/// trace stays byte-identical across platforms), wrapping from the last
/// hour back to hour zero.
#[derive(Clone, Debug)]
pub struct EmpiricalTrace {
    /// Period of one replayed "day" in simulated cycles.
    day_cycles: u64,
    /// Hourly intensity samples, in ppm of the base rate.
    rates_ppm: Vec<u64>,
}

/// The checked-in Azure-style day curve (see the fixture header for the
/// shape it preserves).
const AZURE_DAY_CURVE: &str = include_str!("../fixtures/azure_day_curve.csv");

impl EmpiricalTrace {
    /// Builds a trace from hourly ppm samples spread over `day_cycles`.
    pub fn new(day_cycles: u64, rates_ppm: Vec<u64>) -> Result<Self, ClusterError> {
        if rates_ppm.is_empty() {
            return Err(ClusterError::InvalidTrace(
                "empirical trace needs at least one hourly sample".to_owned(),
            ));
        }
        if rates_ppm.iter().all(|&r| r == 0) {
            return Err(ClusterError::InvalidTrace(
                "empirical trace has zero intensity everywhere".to_owned(),
            ));
        }
        Ok(EmpiricalTrace {
            day_cycles: day_cycles.max(rates_ppm.len() as u64),
            rates_ppm,
        })
    }

    /// Parses an `hour,intensity_ppm` CSV (`#` comments allowed). The
    /// hour column must count up from 0 — it exists so the fixture is
    /// self-describing, not to permit gaps.
    pub fn from_csv(day_cycles: u64, csv: &str) -> Result<Self, ClusterError> {
        let mut rates = Vec::new();
        for line in csv.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (hour, rate) = line.split_once(',').ok_or_else(|| {
                ClusterError::InvalidTrace(format!("empirical trace line '{line}' is not CSV"))
            })?;
            let parse = |s: &str| {
                s.trim().parse::<u64>().map_err(|_| {
                    ClusterError::InvalidTrace(format!(
                        "empirical trace line '{line}' is not integer CSV"
                    ))
                })
            };
            if parse(hour)? != rates.len() as u64 {
                return Err(ClusterError::InvalidTrace(format!(
                    "empirical trace hours must count up from 0, got '{line}' at index {}",
                    rates.len()
                )));
            }
            rates.push(parse(rate)?);
        }
        EmpiricalTrace::new(day_cycles, rates)
    }

    /// The checked-in Azure-style day curve replayed over `day_cycles`.
    pub fn azure_day(day_cycles: u64) -> Self {
        EmpiricalTrace::from_csv(day_cycles, AZURE_DAY_CURVE)
            .expect("checked-in fixture is well-formed")
    }

    /// Number of hourly samples in the table.
    pub fn samples(&self) -> usize {
        self.rates_ppm.len()
    }
}

impl ArrivalTrace for EmpiricalTrace {
    fn intensity_ppm(&self, t: u64) -> u64 {
        let n = self.rates_ppm.len() as u64;
        let day = self.day_cycles;
        let phase = t % day;
        // Sample i covers [i*day/n, (i+1)*day/n); interpolate toward the
        // next sample (wrapping) with pure integer arithmetic.
        let idx = (phase * n / day).min(n - 1);
        let seg_start = idx * day / n;
        let seg_len = ((idx + 1) * day / n - seg_start).max(1);
        let off = phase - seg_start;
        let a = self.rates_ppm[idx as usize];
        let b = self.rates_ppm[((idx + 1) % n) as usize];
        if b >= a {
            a + (b - a) * off / seg_len
        } else {
            a - (a - b) * off / seg_len
        }
    }

    fn peak_ppm(&self) -> u64 {
        // Linear interpolation never exceeds its endpoints.
        *self.rates_ppm.iter().max().expect("validated non-empty")
    }

    fn label(&self) -> String {
        format!(
            "empirical(day={}, samples={})",
            self.day_cycles,
            self.rates_ppm.len()
        )
    }
}

/// Draws a full arrival sequence from a non-homogeneous Poisson process
/// with the trace's intensity profile, by Lewis–Shedler thinning against
/// the trace's peak intensity. A pure function of
/// `(cfg, mix, trace)`; times strictly increase.
///
/// For a [`UniformTrace`] the accept test is never drawn (intensity
/// equals the envelope everywhere), so the output is a homogeneous
/// Poisson process ([`crate::arrival::generate_arrivals`]). Generic, so
/// a concrete trace's intensity is called directly, not through a vtable.
pub fn generate_trace<T: ArrivalTrace + ?Sized>(
    cfg: &ArrivalConfig,
    mix: &WorkloadMix,
    trace: &T,
) -> Result<Vec<Arrival>, ClusterError> {
    // Rejects NaN, infinities, zero, and negatives in one test.
    if !cfg.mean_interarrival_cycles.is_finite() || cfg.mean_interarrival_cycles <= 0.0 {
        return Err(ClusterError::InvalidArrivalRate(
            cfg.mean_interarrival_cycles,
        ));
    }
    let peak = trace.peak_ppm();
    if peak == 0 {
        return Err(ClusterError::InvalidTrace(format!(
            "trace '{}' has zero peak intensity",
            trace.label()
        )));
    }
    // Candidates arrive at the envelope rate: base rate × peak multiplier,
    // i.e. mean gap shrunk by peak/PPM.
    let candidate_mean = cfg.mean_interarrival_cycles * PPM as f64 / peak as f64;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut arrivals = Vec::with_capacity(cfg.count as usize);
    let mut t = 0u64;
    let mut id = 0u64;
    while id < cfg.count {
        // Exponential gap via inverse transform; u ∈ [0, 1) keeps ln
        // finite.
        let u = rng.gen_range(0.0..1.0);
        let gap = (-candidate_mean * (1.0 - u).ln()).round() as u64;
        t += gap.max(1);
        let lam = trace.intensity_ppm(t);
        debug_assert!(lam <= peak, "trace intensity exceeds its claimed peak");
        if lam < peak {
            // Thinning accept test — skipped at full intensity, so a
            // uniform trace draws one gap and one workload per arrival.
            let a = rng.gen_range(0.0..1.0);
            if a * peak as f64 >= lam as f64 {
                continue;
            }
        }
        let workload = mix.sample(&mut rng);
        arrivals.push(Arrival {
            id,
            time: t,
            workload,
        });
        id += 1;
    }
    Ok(arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::generate_arrivals;
    use memento_workloads::suite;

    /// A plain homogeneous Poisson generator (one exponential gap and one
    /// workload draw per arrival): the oracle the uniform path is checked
    /// against.
    fn poisson_oracle(cfg: &ArrivalConfig, mix: &WorkloadMix) -> Vec<Arrival> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut arrivals = Vec::with_capacity(cfg.count as usize);
        let mut t = 0u64;
        for id in 0..cfg.count {
            let u = rng.gen_range(0.0..1.0);
            let gap = (-cfg.mean_interarrival_cycles * (1.0 - u).ln()).round() as u64;
            t += gap.max(1);
            let workload = mix.sample(&mut rng);
            arrivals.push(Arrival {
                id,
                time: t,
                workload,
            });
        }
        arrivals
    }

    fn two_mix() -> WorkloadMix {
        WorkloadMix::uniform(vec![
            suite::by_name("aes").expect("known workload"),
            suite::by_name("html").expect("known workload"),
        ])
        .expect("non-empty mix")
    }

    #[test]
    fn uniform_trace_is_byte_identical_to_poisson_generator() {
        let cfg = ArrivalConfig {
            seed: 42,
            count: 5_000,
            mean_interarrival_cycles: 7_000.0,
        };
        let mix = two_mix();
        let traced = generate_trace(&cfg, &mix, &UniformTrace).expect("valid");
        assert_eq!(
            poisson_oracle(&cfg, &mix),
            traced,
            "uniform trace must replay the generator"
        );
        assert_eq!(generate_arrivals(&cfg, &mix).expect("valid"), traced);
    }

    #[test]
    fn diurnal_intensity_is_a_triangle_wave() {
        let d = DiurnalTrace {
            day_cycles: 1_000,
            trough_ppm: 200_000,
            peak_ppm: 1_800_000,
        };
        assert_eq!(d.intensity_ppm(0), 200_000);
        assert_eq!(d.intensity_ppm(500), 1_800_000);
        assert_eq!(d.intensity_ppm(1_000), 200_000, "periodic");
        assert_eq!(d.intensity_ppm(250), 1_000_000, "linear rise");
        assert_eq!(d.intensity_ppm(750), 1_000_000, "linear fall");
        assert_eq!(d.peak_ppm(), 1_800_000);
        // Monotone on each half-day.
        for t in 0..500 {
            assert!(d.intensity_ppm(t) <= d.intensity_ppm(t + 1));
        }
        for t in 500..999 {
            assert!(d.intensity_ppm(t) >= d.intensity_ppm(t + 1));
        }
    }

    #[test]
    fn diurnal_concentrates_arrivals_at_midday() {
        let cfg = ArrivalConfig {
            seed: 7,
            count: 40_000,
            mean_interarrival_cycles: 1_000.0,
        };
        let day = 10_000_000u64;
        let trace = DiurnalTrace {
            day_cycles: day,
            trough_ppm: 100_000,
            peak_ppm: 1_000_000,
        };
        let arrivals = generate_trace(&cfg, &two_mix(), &trace).expect("valid");
        assert_eq!(arrivals.len(), 40_000);
        for w in arrivals.windows(2) {
            assert!(w[0].time < w[1].time, "times strictly increase");
        }
        // Mid-day quarters must see several-fold the boundary quarters.
        let quarter = day / 4;
        let mut counts = [0u64; 4];
        for a in &arrivals {
            counts[((a.time % day) / quarter).min(3) as usize] += 1;
        }
        let busy = counts[1] + counts[2];
        let quiet = counts[0] + counts[3];
        assert!(
            busy > 2 * quiet,
            "mid-day must dominate: busy={busy} quiet={quiet}"
        );
    }

    #[test]
    fn flash_crowd_bursts_compress_interarrivals() {
        let cfg = ArrivalConfig {
            seed: 11,
            count: 30_000,
            mean_interarrival_cycles: 1_000.0,
        };
        let trace = FlashCrowd {
            base: UniformTrace,
            period_cycles: 1_000_000,
            burst_cycles: 100_000,
            multiplier: 8,
        };
        assert_eq!(trace.peak_ppm(), 8 * PPM);
        let arrivals = generate_trace(&cfg, &two_mix(), &trace).expect("valid");
        let in_burst = arrivals
            .iter()
            .filter(|a| a.time % 1_000_000 < 100_000)
            .count() as f64;
        let share = in_burst / arrivals.len() as f64;
        // Bursts cover 10% of time at 8× intensity: expected share
        // 0.8 / 1.7 ≈ 0.47.
        assert!(
            (0.40..0.55).contains(&share),
            "burst share {share} should be near 0.47"
        );
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let cfg = ArrivalConfig {
            seed: 3,
            count: 2_000,
            mean_interarrival_cycles: 5_000.0,
        };
        let mix = two_mix();
        let trace = FlashCrowd {
            base: DiurnalTrace {
                day_cycles: 5_000_000,
                trough_ppm: 300_000,
                peak_ppm: 1_000_000,
            },
            period_cycles: 700_000,
            burst_cycles: 70_000,
            multiplier: 4,
        };
        let a = generate_trace(&cfg, &mix, &trace).expect("valid");
        let b = generate_trace(&cfg, &mix, &trace).expect("valid");
        assert_eq!(a, b);
        let c = generate_trace(&ArrivalConfig { seed: 4, ..cfg }, &mix, &trace).expect("valid");
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn empirical_trace_replays_the_azure_fixture() {
        let day = 24_000u64;
        let trace = EmpiricalTrace::azure_day(day);
        assert_eq!(trace.samples(), 24, "one sample per hour");
        assert_eq!(trace.peak_ppm(), PPM, "fixture peaks at 1.0x");
        // Exact table values at hour boundaries, interpolation between.
        assert_eq!(trace.intensity_ppm(0), 340_000);
        assert_eq!(trace.intensity_ppm(3 * 1_000), 200_000, "03:00 trough");
        assert_eq!(trace.intensity_ppm(14 * 1_000), PPM, "14:00 peak");
        assert_eq!(
            trace.intensity_ppm(3 * 1_000 + 500),
            205_000,
            "midpoint of the 03:00->04:00 segment interpolates linearly"
        );
        assert_eq!(trace.intensity_ppm(day), 340_000, "wraps at the day");
        // The envelope really is an upper bound everywhere.
        for t in 0..day {
            assert!(trace.intensity_ppm(t) <= trace.peak_ppm());
        }
        // Replay concentrates arrivals in business hours.
        let cfg = ArrivalConfig {
            seed: 13,
            count: 30_000,
            mean_interarrival_cycles: 50.0,
        };
        // A short day so 30k arrivals span many replayed days.
        let short_day = EmpiricalTrace::azure_day(240_000);
        let arrivals = generate_trace(&cfg, &two_mix(), &short_day).expect("valid");
        let busy = arrivals
            .iter()
            .filter(|a| {
                let h = (a.time % 240_000) / 10_000;
                (8..=17).contains(&h)
            })
            .count() as f64;
        assert!(
            busy / arrivals.len() as f64 > 0.5,
            "business hours must carry most traffic"
        );
    }

    #[test]
    fn empirical_trace_rejects_malformed_tables() {
        assert!(matches!(
            EmpiricalTrace::new(1_000, vec![]),
            Err(ClusterError::InvalidTrace(_))
        ));
        assert!(matches!(
            EmpiricalTrace::new(1_000, vec![0, 0]),
            Err(ClusterError::InvalidTrace(_))
        ));
        assert!(matches!(
            EmpiricalTrace::from_csv(1_000, "0,100\n2,200\n"),
            Err(ClusterError::InvalidTrace(_)),
        ));
        assert!(matches!(
            EmpiricalTrace::from_csv(1_000, "not a csv line\n"),
            Err(ClusterError::InvalidTrace(_)),
        ));
    }

    #[test]
    fn invalid_traces_are_typed_errors() {
        let cfg = ArrivalConfig {
            seed: 1,
            count: 10,
            mean_interarrival_cycles: 1_000.0,
        };
        let mix = two_mix();
        let dead = DiurnalTrace {
            day_cycles: 100,
            trough_ppm: 0,
            peak_ppm: 0,
        };
        assert!(matches!(
            generate_trace(&cfg, &mix, &dead),
            Err(ClusterError::InvalidTrace(_))
        ));
        let bad_rate = ArrivalConfig {
            mean_interarrival_cycles: 0.0,
            ..cfg
        };
        assert!(matches!(
            generate_trace(&bad_rate, &mix, &UniformTrace),
            Err(ClusterError::InvalidArrivalRate(_))
        ));
    }
}
