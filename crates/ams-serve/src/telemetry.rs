//! Per-request latency telemetry: log-bucketed histograms and the summary
//! quantiles the serving report publishes.
//!
//! A serving front-end cares about the *tail*, not the mean, and about
//! where time went: a request that waited 80 ms in a queue and executed in
//! 5 ms needs more shards or workers, one that executed in 80 ms needs a
//! bigger batch or a faster model. The server therefore keeps two
//! histograms per worker — queue wait and execute — and merges them at
//! drain, exactly like [`StreamStats`] shards. The total (wait + execute)
//! rides each `Labeled` event and is recorded per class in the
//! conservation ledger, so the drain report and the live snapshot read
//! the same histogram.
//!
//! [`StreamStats`]: ams_core::streaming::StreamStats

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Geometric bucket growth per step: ~25% relative error ceiling on any
/// reported quantile, constant memory, exact (integer-count) merging.
const GROWTH: f64 = 1.25;
/// Bucket count: `1.25^128` µs ≈ 30 days — anything beyond lands in the
/// last bucket (whose quantile reads report the observed max) instead of
/// being dropped.
const BUCKETS: usize = 128;

/// A log-bucketed latency histogram over microseconds.
///
/// Recording is O(1), merging is element-wise addition (order-independent,
/// like every serving statistic), and quantiles are read by walking the
/// cumulative counts. Values are clamped into the last bucket rather than
/// dropped, so `count` is always the number of recorded requests.
///
/// The histogram serializes at full bucket resolution (not just the
/// [`LatencySummary`] quantiles), so a consumer of a serialized snapshot
/// can compute *arbitrary* quantiles — and merging serialized histograms
/// by element-wise count addition commutes with quantile reads (see the
/// `merge_then_quantile_equals_quantile_over_merged_counts` property).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

/// `num / denom`, or 0 when the denominator is 0 — the shape of every
/// rate a report or snapshot derives from two counters.
pub(crate) fn ratio(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

/// A duration as whole microseconds, saturating.
pub(crate) fn micros(d: std::time::Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Strictly increasing bucket upper bounds (µs), computed once.
///
/// Bucket `i` holds values `bound(i-1) < us <= bound(i)`. The bounds follow
/// the geometric series `GROWTH^(i+1)` truncated to integers, forced
/// strictly increasing at the small-integer head where truncation would
/// otherwise produce duplicate bounds — the duplicates are what used to
/// leave buckets 1–2 unreachable (the index formula jumped from 0 to 3 at
/// `us = 2`) while their reported bounds all truncated to 1 µs. Deriving
/// index *and* bound from this one table makes the two consistent by
/// construction: every recorded value is ≤ its bucket's reported bound,
/// and every bucket's bound is strictly above its predecessor's.
fn bucket_bounds() -> &'static [u64; BUCKETS] {
    static BOUNDS: OnceLock<[u64; BUCKETS]> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut bounds = [0u64; BUCKETS];
        let mut prev = 0u64;
        for (i, b) in bounds.iter_mut().enumerate() {
            prev = (GROWTH.powi(i as i32 + 1) as u64).max(prev + 1);
            *b = prev;
        }
        bounds
    })
}

/// Upper bound (µs) of bucket `i`.
fn bucket_bound_us(i: usize) -> u64 {
    bucket_bounds()[i]
}

/// Bucket index for a value in microseconds: the first bucket whose bound
/// covers the value (values past the last bound clamp into the overflow
/// bucket, whose quantile reads report the observed max instead).
fn bucket_index(us: u64) -> usize {
    bucket_bounds()
        .partition_point(|&bound| bound < us)
        .min(BUCKETS - 1)
}

impl LatencyHistogram {
    /// Record one latency in microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.counts[bucket_index(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Record a [`std::time::Duration`].
    pub fn record(&mut self, d: std::time::Duration) {
        self.record_us(micros(d));
    }

    /// Number of recorded latencies.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        ratio(self.sum_us, self.count)
    }

    /// Largest recorded latency in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Summed recorded latency in microseconds (saturating).
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// The raw per-bucket counts, aligned with [`Self::bucket_bounds_us`].
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Upper bounds (µs) of every bucket, aligned with
    /// [`Self::bucket_counts`]. Bucket `i` holds values
    /// `bounds[i-1] < us <= bounds[i]`; the last bucket is the unbounded
    /// overflow bucket (quantile reads there report the observed max).
    pub fn bucket_bounds_us() -> &'static [u64] {
        bucket_bounds()
    }

    /// The latency at quantile `q` in `[0, 1]`, as the upper bound of the
    /// bucket holding that rank (≤ ~25% relative overestimate). Returns 0
    /// when empty; the top quantile reports the exact observed max.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == BUCKETS - 1 {
                    // The overflow bucket is unbounded; its only honest
                    // upper bound is the observed max.
                    self.max_us
                } else {
                    bucket_bound_us(i).min(self.max_us)
                };
            }
        }
        self.max_us
    }

    /// Fold another histogram into this one (shard merge).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Condense into the serializable summary the report publishes.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_us: self.mean_us(),
            p50_us: self.quantile_us(0.50),
            p95_us: self.quantile_us(0.95),
            p99_us: self.quantile_us(0.99),
            max_us: self.max_us,
        }
    }
}

/// The published latency quantiles (all wall-clock microseconds).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Requests measured.
    pub count: u64,
    /// Mean latency.
    pub mean_us: f64,
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Observed maximum.
    pub max_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq, proptest};

    #[test]
    fn every_bucket_bound_exceeds_its_predecessor() {
        let bounds = bucket_bounds();
        for i in 1..BUCKETS {
            assert!(
                bounds[i] > bounds[i - 1],
                "bucket {i}: bound {} <= predecessor {}",
                bounds[i],
                bounds[i - 1]
            );
        }
        // The head buckets are all reachable: each small value indexes a
        // distinct bucket whose bound covers it (the old derivation jumped
        // from bucket 0 to 3 at us = 2 and reported bounds 0–2 all as 1).
        for us in 0..=4u64 {
            let i = bucket_index(us);
            assert!(
                us <= bucket_bound_us(i),
                "us={us} above bound of bucket {i}"
            );
        }
        assert_eq!(bucket_index(2), bucket_index(1) + 1, "bucket 1 reachable");
    }

    proptest! {
        /// Index/bound consistency: every recorded value lands in a bucket
        /// whose reported bound covers it (overflow bucket excepted — its
        /// quantile reads report the observed max instead), and the bound
        /// sequence is monotone around every landing point.
        #[test]
        fn recorded_value_is_covered_by_its_buckets_bound(us in 0u64..u64::MAX) {
            let i = bucket_index(us);
            if i < BUCKETS - 1 {
                prop_assert!(us <= bucket_bound_us(i), "us={us} bucket {i}");
            }
            if i > 0 {
                prop_assert!(bucket_bound_us(i) > bucket_bound_us(i - 1));
                prop_assert!(us > bucket_bound_us(i - 1), "us={us} belongs below bucket {i}");
            }
            // Round-trip: a histogram holding only `us` reports it exactly
            // (bound clamped to the observed max).
            let mut h = LatencyHistogram::default();
            h.record_us(us);
            prop_assert_eq!(h.quantile_us(0.99), us);
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = LatencyHistogram::default();
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_us(0.50);
        let p99 = h.quantile_us(0.99);
        // Bucket upper bounds overestimate by at most the growth factor.
        assert!((400..=650).contains(&p50), "p50 = {p50}");
        assert!((950..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile_us(1.0), 1000);
        assert!((h.mean_us() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 0, "q={q}");
        }
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.max_us(), 0);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.p95_us, 0);
        assert_eq!(s.p99_us, 0);
        assert_eq!(s.max_us, 0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        for us in [0u64, 1, 7, 900, 123_456] {
            let mut h = LatencyHistogram::default();
            h.record_us(us);
            // With one sample every rank lands in its bucket, and the
            // bucket bound is clamped to the observed max — so every
            // quantile reports the sample exactly.
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(h.quantile_us(q), us, "us={us} q={q}");
            }
            assert_eq!(h.mean_us(), us as f64);
            let s = h.summary();
            assert_eq!(
                (s.count, s.p50_us, s.p95_us, s.p99_us, s.max_us),
                (1, us, us, us, us)
            );
        }
    }

    #[test]
    fn merge_of_disjoint_bucket_ranges_preserves_both_tails() {
        // `a` holds only sub-millisecond samples, `b` only multi-second
        // ones: no bucket is occupied in both.
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        for us in [2u64, 5, 11, 40, 100] {
            a.record_us(us);
        }
        for us in [2_000_000u64, 5_000_000, 9_000_000] {
            b.record_us(us);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 8);
        // The low half of the distribution still reads from `a`'s range...
        assert!(
            merged.quantile_us(0.25) <= 100,
            "{}",
            merged.quantile_us(0.25)
        );
        // ...and the tail from `b`'s.
        assert!(merged.quantile_us(0.99) >= 2_000_000);
        assert_eq!(merged.max_us(), 9_000_000);
        // Merging the other way round is identical (commutativity).
        let mut other = b.clone();
        other.merge(&a);
        for q in [0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile_us(q), other.quantile_us(q), "q={q}");
        }
        // Merging an empty histogram is the identity.
        let before = merged.summary();
        merged.merge(&LatencyHistogram::default());
        let after = merged.summary();
        assert_eq!(before.count, after.count);
        assert_eq!(before.p99_us, after.p99_us);
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        let mut whole = LatencyHistogram::default();
        for us in [3u64, 17, 170, 1700, 90_000, 2_000_000] {
            whole.record_us(us);
            if us < 1000 { &mut a } else { &mut b }.record_us(us);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max_us(), whole.max_us());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile_us(q), whole.quantile_us(q), "q={q}");
        }
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        let mut h = LatencyHistogram::default();
        h.record_us(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(0.5), u64::MAX);
    }

    proptest! {
        /// Merge-then-quantile equals quantile-over-merged-counts: folding
        /// two histograms with [`LatencyHistogram::merge`] and rebuilding
        /// one from the element-wise sum of their *serialized* bucket
        /// counts are the same histogram, at every quantile. This is the
        /// contract that lets a snapshot consumer merge per-shard (or
        /// per-scrape) serialized histograms client-side.
        #[test]
        fn merge_then_quantile_equals_quantile_over_merged_counts(
            xs in proptest::prop::collection::vec(0u64..10_000_000, 0..40),
            ys in proptest::prop::collection::vec(0u64..10_000_000, 0..40),
        ) {
            let mut a = LatencyHistogram::default();
            let mut b = LatencyHistogram::default();
            for &us in &xs {
                a.record_us(us);
            }
            for &us in &ys {
                b.record_us(us);
            }
            let mut merged = a.clone();
            merged.merge(&b);
            // Rebuild independently from the serialized bucket counts.
            let counts: Vec<u64> = a
                .bucket_counts()
                .iter()
                .zip(b.bucket_counts())
                .map(|(x, y)| x + y)
                .collect();
            let json = format!(
                "{{\"counts\":{:?},\"count\":{},\"sum_us\":{},\"max_us\":{}}}",
                counts,
                a.count() + b.count(),
                a.sum_us() + b.sum_us(),
                a.max_us().max(b.max_us()),
            );
            let rebuilt: LatencyHistogram =
                serde_json::from_str(&json).expect("counts-merged histogram parses");
            prop_assert_eq!(&rebuilt, &merged);
            for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                prop_assert_eq!(rebuilt.quantile_us(q), merged.quantile_us(q), "q={}", q);
            }
        }
    }

    #[test]
    fn histogram_serializes_at_full_bucket_resolution() {
        let mut h = LatencyHistogram::default();
        for us in [10u64, 100, 1000, 90_000] {
            h.record_us(us);
        }
        let json = serde_json::to_string(&h).expect("histogram serializes");
        let back: LatencyHistogram = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, h);
        assert_eq!(back.bucket_counts().iter().sum::<u64>(), 4);
        assert_eq!(
            back.bucket_counts().len(),
            LatencyHistogram::bucket_bounds_us().len()
        );
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut h = LatencyHistogram::default();
        for us in [10u64, 100, 1000] {
            h.record_us(us);
        }
        let s = h.summary();
        let json = serde_json::to_string(&s).expect("summary serializes");
        let back: LatencySummary = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.count, 3);
        assert_eq!(back.p99_us, s.p99_us);
    }
}
