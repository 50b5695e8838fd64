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
//! Everything is a pure function of the seed. Three properties are
//! load-bearing:
//!
//! - Intensities are *integers* (ppm) computed with integer arithmetic —
//!   no `sin`/`cos`/`exp`, whose libm implementations vary across
//!   platforms. The diurnal curve is a piecewise-linear triangle wave.
//! - Every intensity comes from a [`Piece`]: a stretch of time on which
//!   the trace is one integer formula `(base ± num·(t − origin)/den)·mult`.
//!   A diurnal half-day, an empirical hourly segment and a flash-crowd
//!   burst window (intersected with its base trace's piece) are each one
//!   piece. [`ArrivalTrace::piece`] is the one formula a trace states;
//!   its [`ArrivalTrace::intensity_ppm`] is always `piece(t).at(t)`.
//!   [`generate_trace`] fetches a piece only when a candidate passes the
//!   current one's end, checks once per piece that the formula cannot
//!   overflow, and then evaluates it per candidate with no division: the
//!   quotient comes from a reciprocal fixed per piece plus one exact
//!   correction step. The arrivals are the ones the from-scratch
//!   formulas give, bit for bit.
//! - When a candidate lands where `intensity == peak`, the accept draw is
//!   **skipped** (it would accept with probability 1). A [`UniformTrace`]
//!   therefore draws one gap and one workload per arrival: the
//!   homogeneous Poisson process
//!   [`crate::arrival::generate_arrivals`] returns, which is this
//!   generator over a [`UniformTrace`].
//!
//! A long trace may draw its random numbers on a helper thread
//! ([`generate_trace`]). The helper steps the same seeded generator and
//! the walk reads its draws in the same order, so only the thread that
//! computes a draw changes, never its value or its use.

use crate::arrival::{Arrival, ArrivalConfig, WorkloadMix};
use crate::error::ClusterError;
use crate::sim::MAX_CYCLES;
use memento_simcore::cycles::round_u64;
use memento_simcore::pool::{self, Filled};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One million ppm: the base arrival rate, unmodulated.
pub const PPM: u64 = 1_000_000;

/// A stretch of time on which a trace is one integer formula:
/// `intensity(t) = (base ± num·(t − origin) / den) · mult`, with the
/// quotient rounded down, for every `t` from the time the piece was
/// asked for up to (not including) [`Piece::end`].
///
/// [`ArrivalTrace::piece`] hands these out, and [`generate_trace`]
/// evaluates one per thinning candidate instead of recomputing the
/// trace's phase, segment and quotients from scratch.
#[derive(Clone, Copy, Debug)]
pub struct Piece {
    origin: u64,
    base: u64,
    num: u64,
    den: u64,
    /// `floor(2^64 / den)`, or `u64::MAX` for `den == 1`: the quotient
    /// estimate it gives is the true quotient or one less.
    recip: u64,
    falling: bool,
    mult: u64,
    end: u64,
}

impl Piece {
    fn linear(origin: u64, base: u64, num: u64, den: u64, falling: bool, end: u64) -> Self {
        let den = den.max(1);
        let recip = ((1u128 << 64) / u128::from(den)).min(u128::from(u64::MAX)) as u64;
        Piece {
            origin,
            base,
            num,
            den,
            recip,
            falling,
            mult: 1,
            end,
        }
    }

    /// The constant `value`, valid until `end`.
    pub(crate) fn constant(value: u64, end: u64) -> Self {
        Piece::linear(0, value, 0, 1, false, end)
    }

    /// `base + num·(t − origin)/den` (a `den` of 0 counts as 1), valid
    /// from `origin` until `end`.
    pub(crate) fn rising(origin: u64, base: u64, num: u64, den: u64, end: u64) -> Self {
        Piece::linear(origin, base, num, den, false, end)
    }

    /// `base − num·(t − origin)/den` (a `den` of 0 counts as 1), valid
    /// from `origin` until `end`.
    pub(crate) fn falling(origin: u64, base: u64, num: u64, den: u64, end: u64) -> Self {
        Piece::linear(origin, base, num, den, true, end)
    }

    /// This piece multiplied by `mult` (saturating: a product past
    /// `u64::MAX` fails [`generate_trace`]'s overflow check).
    pub(crate) fn scaled(self, mult: u64) -> Self {
        Piece {
            mult: self.mult.saturating_mul(mult),
            ..self
        }
    }

    /// This piece cut short at `end` if it would run past it.
    pub(crate) fn until(self, end: u64) -> Self {
        Piece {
            end: self.end.min(end),
            ..self
        }
    }

    /// The first cycle the piece no longer covers.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The intensity at `t`, for `t` in the piece (`origin <= t < end`).
    /// Division-free: `⌊n/den⌋` is `⌊n·recip/2^64⌋`, which is exact or one
    /// short, plus one when the remainder it leaves is still `>= den`.
    #[inline]
    pub fn at(&self, t: u64) -> u64 {
        let n = self.num * (t - self.origin);
        let est = ((u128::from(n) * u128::from(self.recip)) >> 64) as u64;
        let q = est + u64::from(n - est * self.den >= self.den);
        let v = if self.falling {
            self.base - q
        } else {
            self.base + q
        };
        v * self.mult
    }

    /// [`Self::at`] in checked arithmetic with a true division: `None`
    /// where the formula overflows at `t` (or `t` precedes the origin).
    fn checked_at(&self, t: u64) -> Option<u64> {
        let q = self.num.checked_mul(t.checked_sub(self.origin)?)? / self.den;
        let v = if self.falling {
            self.base.checked_sub(q)?
        } else {
            self.base.checked_add(q)?
        };
        v.checked_mul(self.mult)
    }

    /// True when the formula stays in range on every cycle from `t`
    /// through `last`. The value is monotone in `t` and the product
    /// `num·(t − origin)` grows with it, so the two ends decide.
    fn fits(&self, t: u64, last: u64) -> bool {
        self.checked_at(t).is_some() && self.checked_at(last).is_some()
    }
}

/// A deterministic time-varying arrival-intensity profile.
///
/// Implementations must be pure functions of `t` (no interior state), so
/// the generated trace is a pure function of `(seed, trace, mix)`.
pub trait ArrivalTrace {
    /// The piece of the trace that covers `t`: the trace's intensity
    /// formula on every cycle from `t` until the piece's end, which must
    /// lie after `t`. The traces in this crate return whole half-days,
    /// hourly segments and burst windows, so [`generate_trace`] evaluates
    /// one formula per candidate instead of recomputing the trace's phase
    /// and segment; a wrapper trace may forward its inner trace's pieces.
    fn piece(&self, t: u64) -> Piece;

    /// Instantaneous intensity at simulated cycle `t`, as a
    /// parts-per-million multiplier of the base rate ([`PPM`] = 1.0×):
    /// the covering piece evaluated at `t`.
    fn intensity_ppm(&self, t: u64) -> u64 {
        self.piece(t).at(t)
    }

    /// The maximum of [`Self::intensity_ppm`] over all `t` — the thinning
    /// envelope. Must be an exact upper bound: an instant whose intensity
    /// exceeds the claimed peak would be silently under-sampled. A peak
    /// that saturates at `u64::MAX` is rejected by [`generate_trace`].
    fn peak_ppm(&self) -> u64;

    /// Stable label for report tables.
    fn label(&self) -> String;
}

/// The homogeneous trace: intensity 1.0× everywhere.
/// [`crate::arrival::generate_arrivals`] is [`generate_trace`] over it.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformTrace;

impl ArrivalTrace for UniformTrace {
    fn piece(&self, _t: u64) -> Piece {
        Piece::constant(PPM, u64::MAX)
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
/// between quiet and busy hours. With `trough_ppm > peak_ppm` the
/// triangle is inverted: it falls to `peak_ppm` at mid-day and rises back.
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
    /// The rising half-day `[day start, mid-day]` or the falling one
    /// `(mid-day, next day start)`.
    fn piece(&self, t: u64) -> Piece {
        let day = self.day_cycles.max(2);
        let phase = t % day;
        let half = day / 2;
        let start = t - phase;
        let swing = self.peak_ppm.abs_diff(self.trough_ppm);
        let inverted = self.trough_ppm > self.peak_ppm;
        if phase <= half {
            let end = start.saturating_add(half + 1);
            Piece::linear(start, self.trough_ppm, swing, half, inverted, end)
        } else {
            let end = start.saturating_add(day);
            Piece::linear(
                start + half,
                self.peak_ppm,
                swing,
                day - half,
                !inverted,
                end,
            )
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

impl<T: ArrivalTrace> ArrivalTrace for FlashCrowd<T> {
    /// The base trace's piece, scaled inside a burst window and cut at
    /// the window's end (or at the next onset outside one).
    fn piece(&self, t: u64) -> Piece {
        let base = self.base.piece(t);
        let period = self.period_cycles.max(1);
        let phase = t % period;
        let onset = t - phase;
        let burst = self.burst_cycles.min(period);
        if phase < burst {
            base.scaled(self.multiplier.max(1))
                .until(onset.saturating_add(burst))
        } else {
            base.until(onset.saturating_add(period))
        }
    }

    fn peak_ppm(&self) -> u64 {
        self.base.peak_ppm().saturating_mul(self.multiplier.max(1))
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
    /// One hourly segment. Sample `i` interpolates from `⌊i·day/n⌋`
    /// toward the next sample (wrapping) and covers the phases whose
    /// `⌊phase·n/day⌋` is `i`: `[⌈i·day/n⌉, ⌈(i+1)·day/n⌉)`. The products
    /// are taken in 128 bits, so no day length overflows them.
    fn piece(&self, t: u64) -> Piece {
        let n = self.rates_ppm.len() as u64;
        let day = self.day_cycles;
        let phase = t % day;
        let start = t - phase;
        let wide = |i: u64| u128::from(i) * u128::from(day);
        let idx = (u128::from(phase) * u128::from(n) / u128::from(day)) as u64;
        let seg_start = (wide(idx) / u128::from(n)) as u64;
        let seg_len = ((wide(idx + 1) / u128::from(n)) as u64 - seg_start).max(1);
        let covered = wide(idx + 1).div_ceil(u128::from(n)) as u64;
        let end = start.saturating_add(covered);
        let a = self.rates_ppm[idx as usize];
        let b = self.rates_ppm[((idx + 1) % n) as usize];
        if b >= a {
            Piece::rising(start + seg_start, a, b - a, seg_len, end)
        } else {
            Piece::falling(start + seg_start, a, a - b, seg_len, end)
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

/// The piece of `trace` covering candidate time `t`, checked once: its
/// formula must stay in 64-bit range up to its end or [`MAX_CYCLES`],
/// whichever comes first.
fn checked_piece<T: ArrivalTrace + ?Sized>(trace: &T, t: u64) -> Result<Piece, ClusterError> {
    let piece = trace.piece(t);
    debug_assert!(
        piece.end > t,
        "a trace piece must cover the cycle it was asked for"
    );
    if !piece.fits(t, piece.end.min(MAX_CYCLES + 1) - 1) {
        return Err(ClusterError::InvalidTrace(format!(
            "trace '{}' overflows 64-bit intensity arithmetic on cycles {t}..{}",
            trace.label(),
            piece.end
        )));
    }
    Ok(piece)
}

/// Draws a full arrival sequence from a non-homogeneous Poisson process
/// with the trace's intensity profile, by Lewis–Shedler thinning against
/// the trace's peak intensity. A pure function of
/// `(cfg, mix, trace)`; times strictly increase.
///
/// For a [`UniformTrace`] the accept test is never drawn (intensity
/// equals the envelope everywhere), so the output is a homogeneous
/// Poisson process ([`crate::arrival::generate_arrivals`]). The walk
/// fetches the trace's pieces through one dynamic call per piece, not per
/// candidate, so it compiles once per draw source, whatever the trace
/// type.
///
/// A trace of at least 2^14 arrivals on a host with a spare thread
/// draws its random numbers on a helper thread from
/// [`pool::with_producer`], which also takes every draw's gap logarithm;
/// the thinning walk stays on the calling thread. The arrivals and
/// errors are the same with and without the helper.
///
/// Fails with [`ClusterError::InvalidTrace`] when the trace's peak is 0
/// or saturates, or a piece's arithmetic would overflow, and with
/// [`ClusterError::InvalidArrivals`] when a candidate would land past
/// [`MAX_CYCLES`] before `cfg.count` arrivals are drawn.
pub fn generate_trace<T: ArrivalTrace + ?Sized>(
    cfg: &ArrivalConfig,
    mix: &WorkloadMix,
    trace: &T,
) -> Result<Vec<Arrival>, ClusterError> {
    let helpers = draw_helpers(cfg.count, pool::effective_jobs(None));
    generate_trace_on(cfg, mix, trace, helpers)
}

/// Draws per block the helper fills: 64 KiB of [`Draw`]s.
const BLOCK_DRAWS: usize = 4_096;

/// Blocks the caller allocates for the helper (256 KiB): the walk reads
/// one, the helper fills one, and two queue between them so neither
/// thread waits on the other's jitter.
const BLOCKS: usize = 4;

/// The fewest arrivals a trace needs before a helper draws them. Below
/// it the saving is a few hundred microseconds at most, and starting the
/// thread and filling blocks the walk never reads eat most of it: a
/// uniform trace, whose helper takes twice the serial path's logarithms,
/// breaks even only near 2^15 arrivals (EXPERIMENTS.md "Arrival draws on
/// two threads").
const AHEAD_MIN_ARRIVALS: u64 = 1 << 14;

/// Draw helper threads for a trace of `count` arrivals on `jobs` host
/// threads: one when there is a spare thread and the trace is long
/// enough, so `MEMENTO_JOBS=1` starts none.
fn draw_helpers(count: u64, jobs: usize) -> usize {
    if count < AHEAD_MIN_ARRIVALS {
        0
    } else {
        jobs.saturating_sub(1).min(1)
    }
}

/// [`generate_trace`] with `helpers` draw helper threads: none at 0,
/// one at any other count.
fn generate_trace_on<T: ArrivalTrace + ?Sized>(
    cfg: &ArrivalConfig,
    mix: &WorkloadMix,
    trace: &T,
    helpers: usize,
) -> Result<Vec<Arrival>, ClusterError> {
    // Rejects NaN, infinities, zero, and negatives in one test.
    if !cfg.mean_interarrival_cycles.is_finite() || cfg.mean_interarrival_cycles <= 0.0 {
        return Err(ClusterError::InvalidArrivalRate(
            cfg.mean_interarrival_cycles,
        ));
    }
    let peak = trace.peak_ppm();
    if peak == 0 || peak == u64::MAX {
        return Err(ClusterError::InvalidTrace(format!(
            "trace '{}' has {} peak intensity",
            trace.label(),
            if peak == 0 { "zero" } else { "an overflowing" }
        )));
    }
    draw_arrivals(cfg, mix, &mut |t| checked_piece(trace, t), peak, helpers)
}

/// The walk's source of trace pieces: the checked piece covering a
/// candidate time.
type Pieces<'a> = dyn FnMut(u64) -> Result<Piece, ClusterError> + 'a;

/// The thinning walk over a validated rate and `peak`, with `helpers`
/// draw helper threads; the trace enters only through `pieces`.
fn draw_arrivals(
    cfg: &ArrivalConfig,
    mix: &WorkloadMix,
    pieces: &mut Pieces<'_>,
    peak: u64,
    helpers: usize,
) -> Result<Vec<Arrival>, ClusterError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    if helpers == 0 {
        return walk(&mut rng, cfg, mix, pieces, peak);
    }
    let blocks = (0..BLOCKS)
        .map(|_| vec![Draw::default(); BLOCK_DRAWS].into_boxed_slice())
        .collect();
    let fill = move |block: &mut Box<[Draw]>| {
        for d in block.iter_mut() {
            *d = Draw::from_unit(rng.gen_range(0.0..1.0));
        }
    };
    pool::with_producer(blocks, fill, |filled| {
        walk(&mut Ahead::new(filled), cfg, mix, pieces, peak)
    })
}

/// One uniform draw `u ∈ [0, 1)` and the exponential gap logarithm
/// `ln(1 − u)` it gives if the walk reads it as a gap.
#[derive(Clone, Copy, Debug, Default)]
struct Draw {
    u: f64,
    ln: f64,
}

impl Draw {
    fn from_unit(u: f64) -> Self {
        // u ∈ [0, 1) keeps ln finite.
        Draw {
            u,
            ln: (1.0 - u).ln(),
        }
    }
}

/// The walk's stream of uniform draws. Each call consumes the next draw
/// of the seeded generator's `gen_range(0.0..1.0)` sequence, so every
/// source yields the same values in the same order.
trait Draws {
    /// The next draw's `u`.
    fn unit(&mut self) -> f64;
    /// The next draw's `ln(1 − u)`.
    fn gap_ln(&mut self) -> f64;
}

/// The serial source: draws straight from the generator and takes `ln`
/// of gap draws only.
impl Draws for StdRng {
    #[inline]
    fn unit(&mut self) -> f64 {
        self.gen_range(0.0..1.0)
    }

    #[inline]
    fn gap_ln(&mut self) -> f64 {
        Draw::from_unit(self.unit()).ln
    }
}

/// The helper's source: draws it computed ahead, read in order from
/// recycled blocks.
struct Ahead<'a> {
    filled: &'a Filled<Box<[Draw]>>,
    block: Box<[Draw]>,
    next: usize,
}

impl<'a> Ahead<'a> {
    fn new(filled: &'a Filled<Box<[Draw]>>) -> Self {
        Ahead {
            filled,
            block: filled.next(),
            next: 0,
        }
    }

    #[inline]
    fn draw(&mut self) -> Draw {
        if self.next == self.block.len() {
            // Recycle first, so the helper can refill while we wait.
            self.filled.recycle(std::mem::take(&mut self.block));
            self.block = self.filled.next();
            self.next = 0;
        }
        let d = self.block[self.next];
        self.next += 1;
        d
    }
}

impl Draws for Ahead<'_> {
    #[inline]
    fn unit(&mut self) -> f64 {
        self.draw().u
    }

    #[inline]
    fn gap_ln(&mut self) -> f64 {
        self.draw().ln
    }
}

/// The thinning walk over validated inputs, reading its draws from
/// `draws` and its pieces from `pieces`: the arrivals of
/// [`generate_trace`].
fn walk(
    draws: &mut impl Draws,
    cfg: &ArrivalConfig,
    mix: &WorkloadMix,
    pieces: &mut Pieces<'_>,
    peak: u64,
) -> Result<Vec<Arrival>, ClusterError> {
    // Candidates arrive at the envelope rate: base rate × peak multiplier,
    // i.e. mean gap shrunk by peak/PPM.
    let candidate_mean = cfg.mean_interarrival_cycles * PPM as f64 / peak as f64;
    let mut arrivals = Vec::with_capacity(cfg.count as usize);
    let mut t = 0u64;
    // An empty piece: the first candidate fetches the real one.
    let mut piece = Piece::constant(0, 0);
    let mut end = 0;
    while (arrivals.len() as u64) < cfg.count {
        // Exponential gap via inverse transform.
        let gap = round_u64(-candidate_mean * draws.gap_ln());
        t = t.saturating_add(gap.max(1));
        if t >= end {
            // `end` never passes MAX_CYCLES + 1, so the clock bound is
            // checked here, once per piece, not once per candidate.
            if t > MAX_CYCLES {
                return Err(ClusterError::InvalidArrivals(format!(
                    "arrival {} would land at cycle {t}, past the clock bound {MAX_CYCLES}",
                    arrivals.len()
                )));
            }
            piece = pieces(t)?;
            end = piece.end.min(MAX_CYCLES + 1);
        }
        let lam = piece.at(t);
        debug_assert!(lam <= peak, "trace intensity exceeds its claimed peak");
        if lam < peak {
            // Thinning accept test — skipped at full intensity, so a
            // uniform trace draws one gap and one workload per arrival.
            let a = draws.unit();
            if a * peak as f64 >= lam as f64 {
                continue;
            }
        }
        let workload = mix.index(draws.unit());
        arrivals.push(Arrival { time: t, workload });
    }
    Ok(arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::generate_arrivals;
    use memento_workloads::suite;

    use proptest::prelude::*;

    /// A plain homogeneous Poisson generator (one exponential gap and one
    /// workload draw per arrival), with libm `round` and the early-exit
    /// mix scan: the oracle the uniform path is checked against.
    fn poisson_oracle(cfg: &ArrivalConfig, mix: &WorkloadMix) -> Vec<Arrival> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut arrivals = Vec::with_capacity(cfg.count as usize);
        let mut t = 0u64;
        for _ in 0..cfg.count {
            let u = rng.gen_range(0.0..1.0);
            let gap = (-cfg.mean_interarrival_cycles * (1.0 - u).ln()).round() as u64;
            t += gap.max(1);
            let workload = mix.scan_index(rng.gen_range(0.0..1.0));
            arrivals.push(Arrival { time: t, workload });
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

    /// The diurnal curve as an independent i128 interpolation: from
    /// `trough_ppm` at the day boundary to `peak_ppm` at mid-day and back,
    /// truncated toward the start of each half-day's segment.
    fn diurnal_lerp(d: &DiurnalTrace, t: u64) -> u64 {
        let day = i128::from(d.day_cycles.max(2));
        let phase = i128::from(t) % day;
        let half = day / 2;
        let (trough, peak) = (i128::from(d.trough_ppm), i128::from(d.peak_ppm));
        let v = if phase <= half {
            trough + (peak - trough) * phase / half
        } else {
            peak + (trough - peak) * (phase - half) / (day - half)
        };
        u64::try_from(v).expect("between trough and peak")
    }

    #[test]
    fn inverted_diurnal_is_an_inverted_triangle() {
        let d = DiurnalTrace {
            day_cycles: 1_000,
            trough_ppm: 1_800_000,
            peak_ppm: 200_000,
        };
        assert_eq!(d.intensity_ppm(250), 1_000_000, "linear fall");
        assert_eq!(d.intensity_ppm(750), 1_000_000, "linear rise");
        for t in 0..3_001 {
            assert_eq!(d.intensity_ppm(t), diurnal_lerp(&d, t), "cycle {t}");
            assert!(d.intensity_ppm(t) <= d.peak_ppm());
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

    /// The from-scratch intensity formulas the pieces replaced, kept as
    /// the oracle every piece is checked against.
    trait Oracle {
        fn oracle(&self, t: u64) -> u64;
    }

    impl Oracle for UniformTrace {
        fn oracle(&self, _t: u64) -> u64 {
            PPM
        }
    }

    impl Oracle for DiurnalTrace {
        fn oracle(&self, t: u64) -> u64 {
            let day = self.day_cycles.max(2);
            let phase = t % day;
            let half = day / 2;
            let swing = self.peak_ppm.abs_diff(self.trough_ppm);
            let inverted = self.trough_ppm > self.peak_ppm;
            let (from, step, falls) = if phase <= half {
                (self.trough_ppm, swing * phase / half, inverted)
            } else {
                let step = swing * (phase - half) / (day - half);
                (self.peak_ppm, step, !inverted)
            };
            if falls {
                from - step
            } else {
                from + step
            }
        }
    }

    impl<T: Oracle> Oracle for FlashCrowd<T> {
        fn oracle(&self, t: u64) -> u64 {
            let base = self.base.oracle(t);
            let period = self.period_cycles.max(1);
            if t % period < self.burst_cycles.min(period) {
                base * self.multiplier.max(1)
            } else {
                base
            }
        }
    }

    impl Oracle for EmpiricalTrace {
        fn oracle(&self, t: u64) -> u64 {
            let n = self.rates_ppm.len() as u64;
            let day = self.day_cycles;
            let phase = t % day;
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
    }

    /// `trace.piece(t)` must equal the oracle on every cycle of
    /// `[t, end)` (exhaustively near both ends and at `probe` inside),
    /// and at `end` the next piece must take over.
    fn check_piece<T: ArrivalTrace + Oracle>(
        trace: &T,
        t: u64,
        probe: u64,
    ) -> Result<(), TestCaseError> {
        let piece = trace.piece(t);
        let end = piece.end();
        prop_assert!(end > t, "piece at {} ends at {}", t, end);
        let span = end - t;
        let edge = span.min(512);
        let points = (t..t + edge)
            .chain(end - edge..end)
            .chain([t + probe % span]);
        for p in points {
            prop_assert_eq!(piece.at(p), trace.oracle(p), "cycle {} of {:?}", p, piece);
            prop_assert_eq!(trace.intensity_ppm(p), trace.oracle(p));
        }
        prop_assert_eq!(trace.piece(end).at(end), trace.oracle(end));
        Ok(())
    }

    fn arb_diurnal() -> impl Strategy<Value = DiurnalTrace> {
        (0u64..10_000_000, 0u64..4_000_000, 0u64..4_000_000).prop_map(|(day, trough, peak)| {
            DiurnalTrace {
                day_cycles: day,
                trough_ppm: trough,
                peak_ppm: peak,
            }
        })
    }

    fn arb_empirical() -> impl Strategy<Value = EmpiricalTrace> {
        (0u64..10_000_000, collection::vec(0u64..4_000_000, 1..30)).prop_map(|(day, mut rates)| {
            rates[0] += 1;
            EmpiricalTrace::new(day, rates).expect("non-zero table")
        })
    }

    /// Every cycle within one of an edge: `start + offset ± 1` for each
    /// offset. Pieces end at these edges, so off-by-one errors show here.
    fn around(start: u64, offsets: &[u64]) -> Vec<u64> {
        offsets
            .iter()
            .flat_map(|&o| {
                let e = start + o;
                [e.saturating_sub(1), e, e + 1]
            })
            .collect()
    }

    fn flash<T>(base: T, (period, burst, multiplier): (u64, u64, u64)) -> FlashCrowd<T> {
        FlashCrowd {
            base,
            period_cycles: period,
            burst_cycles: burst,
            multiplier,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn diurnal_pieces_match_the_oracle(
            trace in arb_diurnal(),
            (t, probe) in (0u64..1 << 36, any::<u64>()),
        ) {
            let day = trace.day_cycles.max(2);
            for p in around(t - t % day, &[0, day / 2, day]).into_iter().chain([t]) {
                check_piece(&trace, p, probe)?;
            }
            check_piece(&UniformTrace, t, probe)?;
        }

        #[test]
        fn diurnal_matches_an_i128_interpolation(
            trace in arb_diurnal(),
            t in 0u64..1 << 36,
        ) {
            let day = trace.day_cycles.max(2);
            for p in around(t - t % day, &[0, day / 4, day / 2, 3 * day / 4, day]).into_iter().chain([t]) {
                prop_assert_eq!(trace.intensity_ppm(p), diurnal_lerp(&trace, p), "cycle {}", p);
            }
        }

        #[test]
        fn empirical_pieces_match_the_oracle(
            trace in arb_empirical(),
            (t, probe) in (0u64..1 << 36, any::<u64>()),
        ) {
            // Segment `k` starts at ⌊k·day/n⌋ and is entered at ⌈k·day/n⌉.
            let (day, n) = (trace.day_cycles, trace.samples() as u64);
            let k = t % n + 1;
            let edges = [(k - 1) * day / n, k * day / n, (k * day).div_ceil(n), day];
            for p in around(t - t % day, &edges).into_iter().chain([t]) {
                check_piece(&trace, p, probe)?;
            }
        }

        #[test]
        fn flash_crowd_pieces_match_the_oracle(
            diurnal in arb_diurnal(),
            empirical in arb_empirical(),
            (period, burst, multiplier) in (0u64..2_000_000, 0u64..3_000_000, 0u64..9),
            (t, probe) in (0u64..1 << 36, any::<u64>()),
        ) {
            let shape = (period, burst, multiplier);
            let period = period.max(1);
            for p in around(t - t % period, &[0, burst.min(period), period]).into_iter().chain([t]) {
                check_piece(&flash(diurnal, shape), p, probe)?;
                check_piece(&flash(empirical.clone(), shape), p, probe)?;
                check_piece(&flash(UniformTrace, shape), p, probe)?;
                check_piece(&flash(flash(diurnal, shape), shape), p, probe)?;
            }
        }

        #[test]
        fn draws_ahead_match_serial_draws(
            seed in any::<u64>(),
            count in 1u64..3 * BLOCK_DRAWS as u64,
            mean in 1.0f64..1e7,
            shape in 0usize..6,
        ) {
            let cfg = ArrivalConfig { seed, count, mean_interarrival_cycles: mean };
            let (label, trace) = all_shapes(6_000_000).swap_remove(shape);
            let [serial, ahead] = both_sides(&cfg, trace.as_ref());
            prop_assert_eq!(serial, ahead, "{}", label);
        }

        #[test]
        fn reciprocal_division_is_exact(n in any::<u64>(), den in 1u64..u64::MAX) {
            let piece = Piece::rising(0, 0, 1, den, u64::MAX);
            prop_assert_eq!(piece.at(n), n / den);
            prop_assert_eq!(Piece::rising(0, 0, 1, n.max(1), u64::MAX).at(n), n / n.max(1));
        }
    }

    #[test]
    fn reciprocal_division_is_exact_at_the_edges() {
        let dens = [
            1,
            2,
            3,
            7,
            1 << 32,
            (1 << 32) + 1,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for den in dens {
            let piece = Piece::rising(0, 0, 1, den, u64::MAX);
            for n in [
                0,
                1,
                den - 1,
                den,
                den.saturating_add(1),
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(piece.at(n), n / den, "{n} / {den}");
            }
        }
    }

    /// FNV-1a over every arrival's id, time and workload index.
    fn arrivals_digest(arrivals: &[Arrival]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        // Each arrival hashes its index where it once carried it as an
        // id, so the recorded digests still hold.
        for (i, a) in (0u64..).zip(arrivals) {
            for word in [i, a.time, a.workload as u64] {
                for b in word.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Pins `generate_trace` output for every trace shape, over a mix with
    /// a zero-weight entry. The digests were recorded with the
    /// from-scratch intensity formulas, libm `round` and the early-exit
    /// mix scan; pieces, branchless rounding and the branchless mix count
    /// must reproduce them bit for bit.
    #[test]
    fn generated_traces_match_recorded_digests() {
        let cfg = ArrivalConfig {
            seed: 2024,
            count: 20_000,
            mean_interarrival_cycles: 3_000.0,
        };
        let mix = WorkloadMix::weighted(vec![
            (suite::by_name("aes").expect("known workload"), 3.0),
            (suite::by_name("html").expect("known workload"), 0.0),
            (suite::by_name("US").expect("known workload"), 1.0),
            (suite::by_name("jl").expect("known workload"), 0.7),
        ])
        .expect("non-empty mix");
        let day = 6_000_000;
        let diurnal = DiurnalTrace {
            day_cycles: day,
            trough_ppm: 250_000,
            peak_ppm: 1_000_000,
        };
        let flash = FlashCrowd {
            base: diurnal,
            period_cycles: 900_000,
            burst_cycles: 120_000,
            multiplier: 4,
        };
        // A day that 24 hours do not divide: segment bounds are not whole.
        let azure = FlashCrowd {
            base: EmpiricalTrace::azure_day(day + 7),
            period_cycles: 900_000,
            burst_cycles: 120_000,
            multiplier: 3,
        };
        let empirical = EmpiricalTrace::azure_day(day / 3);
        let traces: [(&str, &dyn ArrivalTrace, &str); 5] = [
            ("uniform", &UniformTrace, "081be4528957d243"),
            ("diurnal", &diurnal, "f2fa0baca6921842"),
            ("flash-diurnal", &flash, "290f2d3e573af321"),
            ("flash-azure", &azure, "10c66dff462a8019"),
            ("empirical", &empirical, "37c371ecf47e076e"),
        ];
        for (label, trace, want) in traces {
            let arrivals = generate_trace(&cfg, &mix, trace).expect("valid");
            assert_eq!(arrivals.len(), 20_000);
            assert_eq!(
                format!("{:016x}", arrivals_digest(&arrivals)),
                want,
                "{label} arrivals changed"
            );
        }
    }

    /// Every trace shape the generator serves, over `day`-cycle days.
    fn all_shapes(day: u64) -> Vec<(&'static str, Box<dyn ArrivalTrace>)> {
        let diurnal = DiurnalTrace {
            day_cycles: day,
            trough_ppm: 250_000,
            peak_ppm: 1_000_000,
        };
        let inverted = DiurnalTrace {
            trough_ppm: 1_000_000,
            peak_ppm: 250_000,
            ..diurnal
        };
        vec![
            ("uniform", Box::new(UniformTrace)),
            ("diurnal", Box::new(diurnal)),
            ("inverted", Box::new(inverted)),
            (
                "flash-diurnal",
                Box::new(flash(diurnal, (day / 7, day / 70, 4))),
            ),
            (
                "flash-azure",
                Box::new(flash(
                    EmpiricalTrace::azure_day(day + 7),
                    (day / 7, day / 70, 3),
                )),
            ),
            ("empirical", Box::new(EmpiricalTrace::azure_day(day / 3))),
        ]
    }

    /// The trace drawn serially and with a draw helper, as one string
    /// per side: the arrivals or the error.
    fn both_sides(cfg: &ArrivalConfig, trace: &dyn ArrivalTrace) -> [String; 2] {
        let mix = two_mix();
        [0, 1].map(
            |helpers| match generate_trace_on(cfg, &mix, trace, helpers) {
                Ok(arrivals) => format!("{:016x}", arrivals_digest(&arrivals)),
                Err(e) => e.to_string(),
            },
        )
    }

    #[test]
    fn draws_ahead_match_serial_draws_at_every_block_edge() {
        // A uniform arrival reads two draws, so `BLOCK_DRAWS / 2` arrivals
        // end exactly on a block edge; the other shapes read a varying
        // number, so their counts land anywhere in a block.
        let block = BLOCK_DRAWS as u64;
        let counts = [
            1,
            block / 2 - 1,
            block / 2,
            block / 2 + 1,
            block - 1,
            block,
            block + 1,
            BLOCKS as u64 * block + 3,
            AHEAD_MIN_ARRIVALS - 1,
            AHEAD_MIN_ARRIVALS,
            AHEAD_MIN_ARRIVALS + 1,
        ];
        let mix = two_mix();
        for (label, trace) in all_shapes(6_000_000) {
            for count in counts {
                let cfg = ArrivalConfig {
                    seed: 77 + count,
                    count,
                    mean_interarrival_cycles: 3_000.0,
                };
                let serial = generate_trace_on(&cfg, &mix, trace.as_ref(), 0).expect("valid");
                let ahead = generate_trace_on(&cfg, &mix, trace.as_ref(), 1).expect("valid");
                assert_eq!(serial.len() as u64, count);
                assert!(serial == ahead, "{label} at {count} arrivals");
                // The public entry, which picks its own helper count.
                let public = generate_trace(&cfg, &mix, trace.as_ref()).expect("valid");
                assert!(serial == public, "{label} at {count} arrivals");
            }
        }
    }

    #[test]
    fn draw_helpers_start_only_for_long_traces_with_a_spare_thread() {
        assert_eq!(draw_helpers(AHEAD_MIN_ARRIVALS - 1, 2), 0);
        assert_eq!(draw_helpers(AHEAD_MIN_ARRIVALS, 1), 0, "MEMENTO_JOBS=1");
        assert_eq!(draw_helpers(AHEAD_MIN_ARRIVALS, 2), 1);
        assert_eq!(draw_helpers(u64::MAX, 8), 1, "one helper at most");
    }

    #[test]
    fn draws_ahead_give_the_serial_errors() {
        let overflowing: [(f64, Box<dyn ArrivalTrace>); 3] = [
            (
                1e10,
                Box::new(DiurnalTrace {
                    day_cycles: 1 << 40,
                    trough_ppm: 0,
                    peak_ppm: 1 << 30,
                }),
            ),
            (
                1_000.0,
                Box::new(flash(UniformTrace, (1_000, 100, u64::MAX / 2))),
            ),
            (1e15, Box::new(EmpiricalTrace::azure_day(u64::MAX / 2))),
        ];
        for (mean, trace) in &overflowing {
            let [serial, ahead] = both_sides(&slow_config(*mean), trace.as_ref());
            assert!(serial.contains("overflow"), "{serial}");
            assert_eq!(serial, ahead);
        }
        let [serial, ahead] = both_sides(&slow_config(1e18), &UniformTrace);
        assert!(serial.contains("clock bound"), "{serial}");
        assert_eq!(serial, ahead);
    }

    #[test]
    fn a_walk_that_fails_after_its_first_block_stops_the_helper() {
        // A uniform trace (two draws an arrival) that passes the clock
        // bound near arrival 3,000, and a rising half-day cut into short
        // pieces by flash windows whose formula overflows only once a
        // piece reaches 2^34 cycles past the day start (dozens of draws an
        // arrival). Each fits `ok` arrivals, which read several blocks.
        let rising = flash(
            DiurnalTrace {
                day_cycles: 1 << 40,
                trough_ppm: 0,
                peak_ppm: 1 << 30,
            },
            (1 << 20, 1 << 19, 1),
        );
        let cases: [(&dyn ArrivalTrace, f64, u64, &str); 2] = [
            (
                &UniformTrace,
                MAX_CYCLES as f64 / 3_000.0,
                2_500,
                "clock bound",
            ),
            (&rising, 1e8, 1_000, "overflow"),
        ];
        for (seed, (trace, mean, ok, want)) in cases.into_iter().enumerate() {
            let cfg = ArrivalConfig {
                seed: seed as u64,
                count: 100_000,
                mean_interarrival_cycles: mean,
            };
            let fits = ArrivalConfig { count: ok, ..cfg };
            assert!(generate_trace_on(&fits, &two_mix(), trace, 1).is_ok());
            let [serial, ahead] = both_sides(&cfg, trace);
            assert!(serial.contains(want), "{serial}");
            assert_eq!(serial, ahead);
        }
    }

    /// A half-intensity trace that panics when asked for a piece past
    /// cycle 10^7.
    struct PanicsLate;

    impl ArrivalTrace for PanicsLate {
        fn piece(&self, t: u64) -> Piece {
            assert!(t < 10_000_000, "piece asked for past the panic point");
            Piece::constant(PPM / 2, t + 1)
        }

        fn peak_ppm(&self) -> u64 {
            PPM
        }

        fn label(&self) -> String {
            "panics".to_owned()
        }
    }

    #[test]
    fn a_walk_panic_stops_the_helper_and_reaches_the_caller() {
        let cfg = ArrivalConfig {
            seed: 3,
            count: 100_000,
            mean_interarrival_cycles: 1_000.0,
        };
        let walk_panic =
            std::panic::catch_unwind(|| generate_trace_on(&cfg, &two_mix(), &PanicsLate, 1))
                .expect_err("the walk's panic reaches the caller");
        assert_eq!(
            walk_panic.downcast_ref::<&str>(),
            Some(&"piece asked for past the panic point")
        );
    }

    fn slow_config(mean: f64) -> ArrivalConfig {
        ArrivalConfig {
            seed: 1,
            count: 100,
            mean_interarrival_cycles: mean,
        }
    }

    #[test]
    fn candidates_past_the_clock_bound_are_typed_errors() {
        let cfg = slow_config(1e18);
        assert!(matches!(
            generate_trace(&cfg, &two_mix(), &UniformTrace),
            Err(ClusterError::InvalidArrivals(_))
        ));
        // Just inside the bound every arrival is kept.
        let fits = ArrivalConfig {
            count: 4,
            ..slow_config(1e17)
        };
        let arrivals = generate_trace(&fits, &two_mix(), &UniformTrace).expect("within bound");
        assert!(arrivals.iter().all(|a| a.time <= MAX_CYCLES));
    }

    #[test]
    fn overflowing_diurnal_is_a_typed_error() {
        let trace = DiurnalTrace {
            day_cycles: 1 << 40,
            trough_ppm: 0,
            peak_ppm: 1 << 30,
        };
        assert!(matches!(
            generate_trace(&slow_config(1e10), &two_mix(), &trace),
            Err(ClusterError::InvalidTrace(_))
        ));
    }

    #[test]
    fn overflowing_flash_crowd_is_a_typed_error() {
        let trace = FlashCrowd {
            base: UniformTrace,
            period_cycles: 1_000,
            burst_cycles: 100,
            multiplier: u64::MAX / 2,
        };
        assert_eq!(trace.peak_ppm(), u64::MAX, "saturates");
        assert!(matches!(
            generate_trace(&slow_config(1_000.0), &two_mix(), &trace),
            Err(ClusterError::InvalidTrace(_))
        ));
    }

    #[test]
    fn overflowing_empirical_is_a_typed_error() {
        // Day-long phases times 24 samples pass 2^64.
        let trace = EmpiricalTrace::azure_day(u64::MAX / 2);
        assert!(matches!(
            generate_trace(&slow_config(1e15), &two_mix(), &trace),
            Err(ClusterError::InvalidTrace(_))
        ));
    }
}
