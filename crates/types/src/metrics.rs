//! Lightweight metrics: counters and log-bucketed latency histograms.
//!
//! The paper's headline numbers are quantiles (median 7 s, p99 15 s), so the
//! workspace needs an inexpensive quantile sketch. [`Histogram`] uses
//! HDR-style log₂ buckets with linear sub-buckets: bounded relative error
//! (≈ 1/32 per bucket), O(1) record, O(buckets) quantile, no allocation
//! after construction.

use crate::time::Duration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of linear sub-buckets per power-of-two bucket. 32 sub-buckets
/// bounds relative quantile error at ~3%.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// Number of power-of-two buckets: values up to 2^40 µs ≈ 12.7 days.
const POW_BUCKETS: usize = 41;

/// Total bucket count — the length [`Histogram::bucket_counts`] returns
/// and [`Histogram::from_raw_parts`] expects. Exposed so an external
/// accumulator (the `magicrecs-obs` striped atomic histogram) can share
/// this sketch's exact bucket layout and merge associatively.
pub const NUM_BUCKETS: usize = POW_BUCKETS * SUB_BUCKETS;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A log-bucketed histogram of microsecond values.
#[derive(Clone, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>, // POW_BUCKETS * SUB_BUCKETS
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; POW_BUCKETS * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index a raw value lands in (`0..NUM_BUCKETS`). Public so
    /// external recorders can increment the same sketch layout.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            // Values below 32 get exact buckets.
            return value as usize;
        }
        let pow = 63 - value.leading_zeros(); // floor(log2(value)), >= SUB_BITS
        let sub = (value >> (pow - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
        let p = (pow - SUB_BITS + 1).min(POW_BUCKETS as u32 - 1) as usize;
        p * SUB_BUCKETS + sub
    }

    /// Representative (upper-bound) value for a bucket index; the inverse of
    /// [`Histogram::bucket_index`] up to bucket granularity.
    pub fn bucket_value(idx: usize) -> u64 {
        let p = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if p == 0 {
            return sub;
        }
        let pow = p as u32 + SUB_BITS - 1;
        ((1u64 << SUB_BITS) | sub) << (pow - SUB_BITS)
    }

    /// Records a raw microsecond value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a [`Duration`].
    #[inline]
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_micros());
    }

    /// Number of recorded values.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the value at quantile `q ∈ [0, 1]` (approximate, within the
    /// bucket's relative error), or `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample (1-based), ceil to be conservative.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp to observed extremes: the bucket bound can exceed
                // the true max (or undershoot the min for low quantiles).
                return Some(Self::bucket_value(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median (p50).
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest recorded value.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Reassembles a histogram from externally-accumulated raw parts —
    /// the scrape path of an atomic recorder that kept this sketch's
    /// bucket layout (see [`NUM_BUCKETS`], [`Histogram::bucket_index`]).
    ///
    /// `buckets` must be exactly [`NUM_BUCKETS`] long. `count`/`sum`/
    /// `min`/`max` are taken as observed (an empty histogram normalizes
    /// `min`/`max` to the internal sentinels regardless of input).
    pub fn from_raw_parts(buckets: Vec<u64>, count: u64, sum: u128, min: u64, max: u64) -> Self {
        assert_eq!(buckets.len(), NUM_BUCKETS, "bucket layout mismatch");
        if count == 0 {
            return Histogram {
                buckets,
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            };
        }
        Histogram {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// The raw per-bucket counts (length [`NUM_BUCKETS`]).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Sum of all recorded values (µs).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Produces an immutable summary.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            count: self.count,
            mean_us: self.mean().unwrap_or(0.0),
            p50_us: self.median().unwrap_or(0),
            p90_us: self.quantile(0.9).unwrap_or(0),
            p99_us: self.p99().unwrap_or(0),
            min_us: self.min().unwrap_or(0),
            max_us: self.max().unwrap_or(0),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram(n={}, p50={}µs, p99={}µs, max={}µs)",
            s.count, s.p50_us, s.p99_us, s.max_us
        )
    }
}

/// An immutable summary of a [`Histogram`], in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Number of samples.
    pub count: u64,
    /// Mean in µs.
    pub mean_us: f64,
    /// Median in µs.
    pub p50_us: u64,
    /// 90th percentile in µs.
    pub p90_us: u64,
    /// 99th percentile in µs.
    pub p99_us: u64,
    /// Minimum in µs.
    pub min_us: u64,
    /// Maximum in µs.
    pub max_us: u64,
}

impl Snapshot {
    /// Median as seconds, for report tables.
    pub fn p50_secs(&self) -> f64 {
        self.p50_us as f64 / 1e6
    }

    /// p99 as seconds, for report tables.
    pub fn p99_secs(&self) -> f64 {
        self.p99_us as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.median(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.median(), Some(3));
        assert_eq!(h.quantile(1.0), Some(5));
        assert_eq!(h.mean(), Some(3.0));
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = Histogram::new();
        // 1..=100_000 µs uniformly.
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.median().unwrap() as f64;
        let p99 = h.p99().unwrap() as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.05, "p50={p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.05, "p99={p99}");
    }

    #[test]
    fn seven_second_median_fifteen_second_p99_shape() {
        // Quantile accuracy at second scale (the paper's 7 s / 15 s shape).
        let mut h = Histogram::new();
        for _ in 0..980 {
            h.record(Duration::from_secs(7).as_micros());
        }
        for _ in 0..20 {
            h.record(Duration::from_secs(15).as_micros());
        }
        let snap = h.snapshot();
        assert!((snap.p50_secs() - 7.0).abs() < 0.5, "{snap:?}");
        assert!((snap.p99_secs() - 15.0).abs() < 1.0, "{snap:?}");
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1_000_000));
    }

    #[test]
    fn bucket_roundtrip_error_bounded() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            100,
            1_000,
            65_535,
            1 << 20,
            u32::MAX as u64,
        ] {
            let idx = Histogram::bucket_index(v);
            let rep = Histogram::bucket_value(idx);
            let err = (rep as f64 - v as f64).abs() / (v.max(1) as f64);
            assert!(err <= 0.04, "v={v} rep={rep} err={err}");
        }
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(u64::MAX));
        // Quantile stays within the observed range.
        assert!(h.quantile(0.99).unwrap() >= h.min().unwrap());
    }

    #[test]
    fn monotone_quantiles() {
        let mut h = Histogram::new();
        for v in (0..10_000u64).map(|i| i * 37 % 9_001) {
            h.record(v);
        }
        let qs: Vec<u64> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            .iter()
            .map(|&q| h.quantile(q).unwrap())
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles not monotone: {qs:?}");
        }
    }
}
