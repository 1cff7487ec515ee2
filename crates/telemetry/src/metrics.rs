//! The two metric primitives: gauges and log-scale histograms.

use std::sync::atomic::{AtomicU64, Ordering};

/// An instantaneous level (queue depth, pool occupancy, round number).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the level.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raises the level to at least `value` (running high-water mark).
    pub fn set_max(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i < 31` counts samples in
/// `(2^(i-1), 2^i]` microseconds (bucket 0 is `[0, 1]`); bucket 31 is the
/// overflow bucket (`> 2^30 µs ≈ 17.9 min`), whose exact maximum is
/// tracked separately.
pub const BUCKET_COUNT: usize = 32;

const OVERFLOW: usize = BUCKET_COUNT - 1;

/// Fixed-bucket log-scale latency histogram.
///
/// Buckets are powers of two of microseconds — dependency-free, branch-light
/// (`leading_zeros`), and wide enough (1 µs … ~18 min) for every pipeline
/// stage. Recording is three relaxed atomic operations (bucket count, total
/// count + sum are folded into two adds plus a `fetch_max` for the exact
/// maximum). Aggregation happens on [`HistogramSnapshot`]s, never on the
/// live histogram.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

/// The bucket index holding `micros`.
fn bucket_index(micros: u64) -> usize {
    if micros <= 1 {
        0
    } else {
        ((64 - (micros - 1).leading_zeros()) as usize).min(OVERFLOW)
    }
}

/// The inclusive upper bound of finite bucket `index`, in microseconds.
fn bucket_upper_micros(index: usize) -> u64 {
    1 << index
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration sample in microseconds.
    pub fn record(&self, micros: u64) {
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// An immutable point-in-time copy for quantile math and merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKET_COUNT];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

/// An immutable histogram copy: quantiles, merging, exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKET_COUNT],
    sum_micros: u64,
    max_micros: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKET_COUNT],
            sum_micros: 0,
            max_micros: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sum of all samples in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros
    }

    /// Exact maximum sample in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max_micros
    }

    /// Mean sample in seconds (0 when empty).
    pub fn mean_s(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.sum_micros as f64 / count as f64 / crate::SECOND_MICROS as f64
    }

    /// The `q`-quantile in seconds, estimated by ceil nearest-rank over the
    /// buckets with linear interpolation inside the selected bucket (the
    /// same estimator `histogram_quantile` uses). The overflow bucket
    /// interpolates toward the exact tracked maximum, so `quantile_s(1.0)`
    /// returns the true maximum.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_s(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut before = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            if bucket == 0 {
                before += bucket;
                continue;
            }
            if before + bucket >= rank {
                let lower = if index == 0 {
                    0
                } else {
                    bucket_upper_micros(index - 1)
                };
                let upper = if index == OVERFLOW {
                    self.max_micros.max(lower)
                } else {
                    bucket_upper_micros(index).min(self.max_micros)
                };
                let fraction = (rank - before) as f64 / bucket as f64;
                let micros = lower as f64 + fraction * (upper.saturating_sub(lower)) as f64;
                return micros / crate::SECOND_MICROS as f64;
            }
            before += bucket;
        }
        crate::as_secs_f64(self.max_micros)
    }

    /// Median in seconds.
    pub fn p50_s(&self) -> f64 {
        self.quantile_s(0.5)
    }

    /// 99th percentile in seconds.
    pub fn p99_s(&self) -> f64 {
        self.quantile_s(0.99)
    }

    /// Merges `other` into `self` (bucket-wise addition). Associative and
    /// commutative: merging per-validator snapshots in any order yields the
    /// same cluster-wide histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (slot, value) in self.buckets.iter_mut().zip(&other.buckets) {
            *slot += value;
        }
        self.sum_micros += other.sum_micros;
        self.max_micros = self.max_micros.max(other.max_micros);
    }

    /// Cumulative `(upper_bound_seconds, count_le)` pairs for Prometheus
    /// exposition; the final pair is the `+Inf` bucket rendered as
    /// `f64::INFINITY`.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(BUCKET_COUNT);
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            let le = if index == OVERFLOW {
                f64::INFINITY
            } else {
                crate::as_secs_f64(bucket_upper_micros(index))
            };
            out.push((le, cumulative));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Log-scale edges: value 2^k lands in the bucket whose upper bound
        // is 2^k (inclusive), value 2^k + 1 in the next one.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        for k in 1..30 {
            assert_eq!(bucket_index(1 << k), k, "2^{k} on its own edge");
            assert_eq!(bucket_index((1 << k) + 1), k + 1, "2^{k}+1 spills");
        }
    }

    #[test]
    fn overflow_bucket_catches_the_tail() {
        let histogram = Histogram::new();
        histogram.record(1 << 30); // last finite bucket edge
        histogram.record((1 << 30) + 1); // first overflow value
        histogram.record(u64::MAX); // extreme overflow
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count(), 3);
        assert_eq!(snapshot.max_micros(), u64::MAX);
        assert_eq!(snapshot.cumulative_buckets()[OVERFLOW].1, 3);
        assert_eq!(snapshot.cumulative_buckets()[OVERFLOW - 1].1, 1);
        assert!(snapshot.cumulative_buckets()[OVERFLOW].0.is_infinite());
        // The maximum quantile reports the exact tracked maximum.
        let max_s = snapshot.quantile_s(1.0);
        assert!((max_s - u64::MAX as f64 / 1e6).abs() / max_s < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let histogram = Histogram::new();
        for micros in 1..=1000u64 {
            histogram.record(micros * 100); // 100 µs … 100 ms, uniform
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count(), 1000);
        // With log-scale buckets the estimate is bucket-resolution bounded:
        // the true quantile and the estimate differ by at most 2× (one
        // bucket width), and interpolation keeps typical error far smaller.
        let p50 = snapshot.p50_s();
        assert!((0.025..=0.1).contains(&p50), "p50 {p50}");
        let p99 = snapshot.p99_s();
        assert!((0.05..=0.2).contains(&p99), "p99 {p99}");
        assert!(p50 < p99);
        // The mean is exact (sum / count), unaffected by bucketing.
        assert!((snapshot.mean_s() - 0.050_05).abs() < 1e-9);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let parts: Vec<HistogramSnapshot> = (0u64..3)
            .map(|part| {
                let histogram = Histogram::new();
                for i in 0..50 {
                    histogram.record((part + 1) * 1000 + i * 37);
                }
                histogram.snapshot()
            })
            .collect();
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) == c ⊕ a ⊕ b
        let mut left = parts[0];
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut right_inner = parts[1];
        right_inner.merge(&parts[2]);
        let mut right = parts[0];
        right.merge(&right_inner);
        let mut shuffled = parts[2];
        shuffled.merge(&parts[0]);
        shuffled.merge(&parts[1]);
        assert_eq!(left, right);
        assert_eq!(left, shuffled);
        assert_eq!(left.count(), 150);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let snapshot = Histogram::new().snapshot();
        assert!(snapshot.is_empty());
        assert_eq!(snapshot.mean_s(), 0.0);
        assert_eq!(snapshot.p99_s(), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_bounds_checked() {
        let histogram = Histogram::new();
        histogram.record(5);
        let _ = histogram.snapshot().quantile_s(1.01);
    }

    #[test]
    fn gauge_basics() {
        let gauge = Gauge::new();
        gauge.set(7);
        gauge.set_max(3); // lower: no effect
        assert_eq!(gauge.get(), 7);
        gauge.set_max(11);
        assert_eq!(gauge.get(), 11);
    }
}
