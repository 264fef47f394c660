//! A lock-free log₂-bucketed histogram for span durations.
//!
//! Values (nanoseconds, in practice) land in the bucket indexed by
//! their bit length: bucket 0 holds exactly 0, bucket `b ≥ 1` holds
//! `[2^(b-1), 2^b - 1]`. Sixty-five buckets therefore cover the whole
//! `u64` range with a fixed ~2x relative error — plenty for latency
//! telemetry, where the interesting signal is orders of magnitude —
//! and every operation is a relaxed atomic add, so recording from the
//! worker pool's hot path never takes a lock.
//!
//! Invariants the test suite leans on:
//!
//! * *conservation* — the sum of bucket counts always equals the number
//!   of recorded samples,
//! * *lossless merge* — merging two histograms produces exactly the
//!   histogram of the concatenated sample streams,
//! * *monotone, bracketed quantiles* — `quantile(p)` is non-decreasing
//!   in `p` and inside the observed `[min, max]`, so
//!   min ≤ p50 ≤ p95 ≤ p99 ≤ max by construction.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per possible bit length.
const BUCKETS: usize = 65;

/// A concurrent log₂-scale histogram (see the module docs for the
/// bucket layout and invariants).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket a value lands in: its bit length (0 for 0).
    fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The largest value a bucket can hold.
    fn bucket_upper_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            64 => u64::MAX,
            b => (1u64 << b) - 1,
        }
    }

    /// The smallest value a bucket can hold.
    fn bucket_lower_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            b => 1u64 << (b - 1),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping beyond `u64::MAX`).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Largest recorded sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples, or 0.0 when empty.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) with within-bucket
    /// linear interpolation: the rank `ceil(q * count)` sample's bucket
    /// is located by a cumulative walk, then the estimate interpolates
    /// across the bucket's `[lower, upper]` value range by the rank's
    /// position among the bucket's samples (assumed uniformly spread).
    /// Without interpolation every quantile inside one coarse log₂
    /// bucket collapses to the same upper bound — e.g. p95 = p99 =
    /// 131071 ns for any sub-sweep span — which is the saturation this
    /// repairs. Non-decreasing in `q` (within a bucket the position is
    /// non-decreasing; across buckets each upper bound is below the
    /// next bucket's lower bound); always inside the rank's bucket
    /// bounds and clamped to the observed `[min, max]`, since
    /// interpolation alone can land past the extreme samples of the
    /// first or last occupied bucket; returns 0 when empty.
    #[must_use]
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            cumulative += n;
            if cumulative >= rank {
                // 1-based position of the rank within this bucket's
                // `n` samples, in `1..=n`.
                let position = n - (cumulative - rank);
                let lower = Self::bucket_lower_bound(index);
                let upper = Self::bucket_upper_bound(index);
                let width = (upper - lower) as f64;
                let fraction = position as f64 / n as f64;
                // `saturating_add` + the clamp absorb f64 rounding in
                // the widest buckets (width > 2^53). `max` then `min`,
                // not `clamp`: a concurrent `record` can briefly leave
                // min above max, and this must not panic.
                return lower
                    .saturating_add((width * fraction) as u64)
                    .min(upper)
                    .max(self.min())
                    .min(self.max());
            }
        }
        self.max()
    }

    /// A snapshot of all bucket counts (index = bit length of the
    /// values the bucket holds).
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Folds another histogram's samples into this one, exactly as if
    /// every sample of `other` had been recorded here.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Empties the histogram. Not atomic with respect to concurrent
    /// `record` calls; callers quiesce recording first (the registry
    /// only resets between test runs).
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_by_bit_length() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(2), 3);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn records_conserve_count_and_extremes() {
        let h = Histogram::new();
        for v in [0, 1, 5, 1000, 12, 7, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1028);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert!((h.mean() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
        // A log2 bucket upper bound is at most 2x above the true value.
        assert!((500..=1023).contains(&p50), "p50={p50}");
        assert_eq!(h.quantile(1.0), h.max());
    }

    /// Regression (ISSUE 6): coarse log₂ buckets used to collapse every
    /// quantile inside one bucket to the same upper bound (p95 = p99 =
    /// 131071 in the bench export). Interpolation makes them
    /// distinguishable — and exact for uniformly spread samples.
    #[test]
    fn interpolation_distinguishes_quantiles_within_one_bucket() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Uniform 1..=1000: interpolation recovers the true p50.
        assert_eq!(h.quantile(0.50), 500);
        assert!(
            h.quantile(0.95) < h.quantile(0.99),
            "p95={} p99={}",
            h.quantile(0.95),
            h.quantile(0.99)
        );
    }

    /// Property: over a deterministic pseudo-random sample set, the
    /// interpolated quantile is non-decreasing in `q`, always lies
    /// inside its rank's bucket bounds, and stays inside the observed
    /// `[min, max]`.
    #[test]
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn interpolated_quantiles_are_monotone_and_bucket_bounded() {
        // Inline LCG: keeps the test deterministic with no dependencies.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let h = Histogram::new();
        for _ in 0..4096 {
            h.record(next() % 1_000_000);
        }
        let counts = h.bucket_counts();
        let mut previous = 0u64;
        for i in 0..=1000u32 {
            let q = f64::from(i) / 1000.0;
            let estimate = h.quantile(q);
            assert!(
                estimate >= previous,
                "quantile must be monotone: q={q}, {estimate} < {previous}"
            );
            previous = estimate;
            // Recompute the rank's bucket independently and check the
            // estimate is bounded by that bucket's value range.
            let rank = ((q * h.count() as f64).ceil() as u64).max(1);
            let mut cumulative = 0u64;
            let bucket = counts
                .iter()
                .position(|&n| {
                    cumulative += n;
                    cumulative >= rank
                })
                .expect("rank is within the recorded samples");
            assert!(
                (Histogram::bucket_lower_bound(bucket)..=Histogram::bucket_upper_bound(bucket))
                    .contains(&estimate),
                "q={q}: estimate {estimate} escapes bucket {bucket}"
            );
        }
        let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
        assert!(
            h.min() <= p50 && p50 <= p95 && p95 <= p99 && p99 <= h.max(),
            "min={} p50={p50} p95={p95} p99={p99} max={}",
            h.min(),
            h.max()
        );
    }

    #[test]
    fn merge_equals_concatenation() {
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 9, 200, 0] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 9, 4096] {
            b.record(v);
            both.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.bucket_counts(), both.bucket_counts());
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
    }

    #[test]
    fn reset_returns_to_the_empty_state() {
        let h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 0);
        assert_eq!(h.min(), 0);
        // And a fresh record after reset still tracks extremes.
        h.record(9);
        assert_eq!(h.min(), 9);
        assert_eq!(h.max(), 9);
    }
}
