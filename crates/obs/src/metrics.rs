//! Typed counters and log2-bucketed histograms.
//!
//! The registry replaces scattered one-off statistics fields as the
//! *reporting* surface: layers keep their cheap native counters, and the
//! machine ingests them here under stable names so `experiments::report`
//! can render one "metrics appendix" per run. Everything iterates in
//! `BTreeMap` order, so rendered output is deterministic.

use memento_simcore::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A histogram with power-of-two buckets.
///
/// Bucket `0` holds the value `0`; bucket `b >= 1` holds values in
/// `[2^(b-1), 2^b - 1]`. Buckets grow lazily, so a histogram that only ever
/// saw small values carries a short bucket vector — merging therefore
/// extends the destination to the source's length *before* adding (a
/// zip-style merge would silently drop the longer side's tail; see
/// [`Log2Hist::merge`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Log2Hist {
    buckets: Vec<u64>,
    count: u64,
    /// 128 bits wide: `count` samples below 2^64 cannot overflow it.
    sum: u128,
}

/// The bucket index for `v`: 0 for 0, otherwise `floor(log2(v)) + 1`.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Log2Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v` at once (bulk ingest of a counter).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = bucket_of(v);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += n;
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Occupied bucket vector (index = `bucket_of(value)`).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Inclusive value range covered by bucket `b`.
    pub fn bucket_range(b: usize) -> (u64, u64) {
        if b == 0 {
            (0, 0)
        } else {
            (1u64 << (b - 1), (1u64 << b) - 1)
        }
    }

    /// Estimates the `q`-quantile of the recorded distribution.
    ///
    /// **This is an approximation.** It uses the same nearest-rank
    /// convention as [`crate::percentile::nearest_rank_sorted`] (rank
    /// `ceil(q * count)`, clamped to `[1, count]`) — but the histogram
    /// only knows which log2 bucket the rank's sample fell in, so the
    /// sample is reconstructed by linear interpolation across the
    /// bucket's value range. Distributions whose mass falls on bucket
    /// boundaries (0, 1, powers of two minus one) come back exact; inside
    /// a wide bucket `[2^(b-1), 2^b - 1]` the answer can be off by up to
    /// the bucket span (a factor of 2 in the worst case), degrading
    /// gracefully instead of snapping to a power-of-two edge. When the
    /// full sample vector is retained, prefer the exact helper; use this
    /// for merged shards and layer histograms where only buckets survive.
    /// Deterministic, integer-only. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = Self::bucket_range(b);
                // Position of the rank within this bucket, 1..=n, mapped
                // linearly over the bucket's span of `hi - lo + 1` values.
                let within = rank - seen; // 1..=n
                let span = hi - lo; // 0 for the 0- and 1-buckets
                                    // In 128 bits: a high bucket's span times a large count
                                    // overflows u64; the quotient is at most `span`.
                return lo + (u128::from(span) * u128::from(within) / u128::from(*n)) as u64;
            }
            seen += n;
        }
        // Unreachable while count equals the bucket sum; be safe anyway.
        Self::bucket_range(self.buckets.len().saturating_sub(1)).1
    }

    /// The (p50, p95, p99) triple — the tail-latency summary the cluster
    /// report tabulates.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }

    /// Adds `other` into `self`, preserving every bucket of both sides.
    ///
    /// Shards of uneven size produce bucket vectors of *different lengths*
    /// (a tail shard that saw only small values has a short vector). The
    /// destination is extended to cover the source before adding; a
    /// `zip`-based merge would truncate to the shorter vector and silently
    /// drop the longer side's high buckets.
    pub fn merge(&mut self, other: &Log2Hist) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// A named registry of monotonic counters and [`Log2Hist`] histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Log2Hist>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `name` (created at zero on first use).
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += n;
    }

    /// Sets counter `name` to an absolute value (for ingesting a layer's
    /// own cumulative counter — idempotent across repeated ingests).
    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Records one sample into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.hists.entry(name.to_owned()).or_default().record(v);
    }

    /// Replaces histogram `name` with a layer's own cumulative histogram
    /// (idempotent across repeated ingests).
    pub fn set_hist(&mut self, name: &str, hist: Log2Hist) {
        self.hists.insert(name.to_owned(), hist);
    }

    /// The current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, when present.
    pub fn hist(&self, name: &str) -> Option<&Log2Hist> {
        self.hists.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Log2Hist)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges `other` into `self`: counters add, histograms merge
    /// bucket-preservingly (see [`Log2Hist::merge`]).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Renders the registry as a plain-text "metrics appendix": a counter
    /// table followed by one bar chart per histogram.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {v:>14}");
            }
        }
        for (name, h) in &self.hists {
            let _ = writeln!(
                out,
                "hist {name}  (count {}, sum {}, mean {:.1})",
                h.count(),
                h.sum(),
                h.mean()
            );
            let peak = h.buckets().iter().copied().max().unwrap_or(0).max(1);
            for (b, n) in h.buckets().iter().enumerate() {
                if *n == 0 {
                    continue;
                }
                let (lo, hi) = Log2Hist::bucket_range(b);
                let bar = "#".repeat((n * 40).div_ceil(peak) as usize);
                let _ = writeln!(out, "  [{lo:>10}..{hi:>10}]  {n:>12}  {bar}");
            }
        }
        out
    }

    /// The registry as a JSON document (counters object + histograms with
    /// explicit bucket bounds).
    pub fn to_json(&self) -> Value {
        let mut counters = Value::object();
        for (name, v) in &self.counters {
            counters.set(name, *v as f64);
        }
        let mut hists = Value::object();
        for (name, h) in &self.hists {
            let mut doc = Value::object();
            doc.set("count", h.count() as f64)
                .set("sum", h.sum() as f64)
                .set(
                    "buckets",
                    Value::Array(
                        h.buckets()
                            .iter()
                            .enumerate()
                            .filter(|(_, n)| **n > 0)
                            .map(|(b, n)| {
                                let (lo, hi) = Log2Hist::bucket_range(b);
                                let mut row = Value::object();
                                row.set("lo", lo as f64)
                                    .set("hi", hi as f64)
                                    .set("n", *n as f64);
                                row
                            })
                            .collect(),
                    ),
                );
            hists.set(name, doc);
        }
        let mut out = Value::object();
        out.set("counters", counters).set("histograms", hists);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        for b in 1..20 {
            let (lo, hi) = Log2Hist::bucket_range(b);
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi), b);
            assert_eq!(bucket_of(hi + 1), b + 1);
        }
    }

    #[test]
    fn record_and_mean() {
        let mut h = Log2Hist::new();
        h.record(0);
        h.record(1);
        h.record(7);
        h.record_n(4, 2);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 16);
        assert!((h.mean() - 3.2).abs() < 1e-12);
        assert_eq!(h.buckets(), &[1, 1, 0, 3]);
    }

    /// The tail-shard regression: when a sweep's event count is not
    /// divisible by the job count, the tail shard sees fewer (and often
    /// only small) values, so its bucket vector is *shorter* than the main
    /// shards'. The old zip-style merge iterated the shorter vector and
    /// silently dropped the longer side's high buckets. This test fails on
    /// that implementation: merging a long histogram into a short one must
    /// preserve every sample.
    #[test]
    fn merge_preserves_tail_shard_buckets() {
        // Shard A (tail, 1 event): one tiny value -> 2 buckets.
        let mut tail = Log2Hist::new();
        tail.record(1);
        // Shard B (main, 4 events): values up to 5000 -> 14 buckets.
        let mut main = Log2Hist::new();
        for v in [3, 40, 500, 5000] {
            main.record(v);
        }
        assert!(tail.buckets().len() < main.buckets().len());

        // Merge the longer into the shorter — the direction that truncated.
        let mut merged = tail.clone();
        merged.merge(&main);
        assert_eq!(merged.count(), 5, "no sample may be dropped");
        assert_eq!(merged.sum(), 1 + 3 + 40 + 500 + 5000);
        assert_eq!(merged.buckets()[bucket_of(5000)], 1, "high bucket kept");

        // And the merge is symmetric up to bucket order.
        let mut other_way = main.clone();
        other_way.merge(&tail);
        assert_eq!(merged, other_way);
    }

    #[test]
    fn quantile_is_exact_on_bucket_boundary_distributions() {
        // Each value sits alone at its bucket's upper edge (2^k - 1), so
        // interpolation has no slack: quantiles are exact order statistics.
        let mut h = Log2Hist::new();
        for v in [0u64, 1, 3, 7, 15, 31, 63, 127, 255, 511] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0, "q=0 clamps to the first sample");
        assert_eq!(h.quantile(0.10), 0);
        assert_eq!(h.quantile(0.20), 1);
        assert_eq!(h.quantile(0.50), 15);
        assert_eq!(h.quantile(0.90), 255);
        assert_eq!(h.quantile(1.0), 511);
        let (p50, p95, p99) = h.percentiles();
        assert_eq!((p50, p95, p99), (15, 511, 511));
    }

    #[test]
    fn quantile_interpolates_within_wide_buckets() {
        // 100 samples of value 600 land in bucket [512, 1023]; every
        // quantile must stay inside that bucket and grow monotonically.
        let mut h = Log2Hist::new();
        h.record_n(600, 100);
        let (lo, hi) = Log2Hist::bucket_range(bucket_of(600));
        let mut prev = 0;
        for q in [0.01, 0.25, 0.50, 0.75, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((lo..=hi).contains(&v), "q={q}: {v} outside [{lo},{hi}]");
            assert!(v >= prev, "quantiles must be monotone in q");
            prev = v;
        }
        assert_eq!(h.quantile(1.0), hi, "last rank maps to the bucket top");
    }

    #[test]
    fn quantile_tail_dominates_p99() {
        // A bimodal latency shape: 990 fast requests, 10 slow ones. p50
        // stays in the fast bucket; p99 must land in the slow mode.
        let mut h = Log2Hist::new();
        h.record_n(100, 990);
        h.record_n(100_000, 10);
        assert!(h.quantile(0.50) <= 127, "p50 in the fast mode");
        assert!(h.quantile(0.99) <= 127, "rank 990 is still fast");
        assert!(h.quantile(0.995) >= 65_536, "tail rank reaches slow mode");
        assert_eq!(h.quantile(1.0), h.quantile(0.9999));
    }

    #[test]
    fn quantile_empty_and_merge_consistency() {
        let empty = Log2Hist::new();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.percentiles(), (0, 0, 0));
        // Quantiles of a merged histogram match recording the union.
        let mut a = Log2Hist::new();
        let mut b = Log2Hist::new();
        let mut union = Log2Hist::new();
        for v in [1u64, 3, 3, 7] {
            a.record(v);
            union.record(v);
        }
        for v in [15u64, 31, 31, 63] {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), union.quantile(q), "q={q}");
        }
    }

    #[test]
    fn registry_counters_and_hists() {
        let mut r = MetricsRegistry::new();
        r.add("bypass_fills", 3);
        r.add("bypass_fills", 2);
        r.set("dram_row_hits", 100);
        r.set("dram_row_hits", 120); // absolute: overwrites
        r.observe("walk_depth", 4);
        r.observe("walk_depth", 4);
        assert_eq!(r.counter("bypass_fills"), 5);
        assert_eq!(r.counter("dram_row_hits"), 120);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.hist("walk_depth").map(|h| h.count()), Some(2));
        let text = r.render();
        assert!(text.contains("bypass_fills"));
        assert!(text.contains("hist walk_depth"));
    }

    #[test]
    fn registry_merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        a.add("x", 1);
        a.observe("h", 1);
        let mut b = MetricsRegistry::new();
        b.add("x", 2);
        b.add("y", 5);
        b.observe("h", 4096);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
        let h = a.hist("h").expect("merged hist");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 4097);
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let mut r = MetricsRegistry::new();
        r.add("c", 7);
        r.observe("h", 9);
        let doc = r.to_json();
        let parsed =
            memento_simcore::json::parse(&doc.to_pretty()).expect("registry JSON parses back");
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("c")),
            Some(&Value::Num(7.0))
        );
    }
}
