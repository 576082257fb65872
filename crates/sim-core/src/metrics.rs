//! Counters, time-series recorders and summary statistics.
//!
//! The paper's figures come in two flavours: bar charts of mean running time
//! with standard deviation over five repetitions (Figs. 3, 5, 7, 9) and
//! per-second time-series of tmem occupancy (Figs. 4, 6, 8, 10). [`Summary`]
//! serves the former, [`TimeSeries`] the latter. [`Counter`] is a plain
//! saturating event counter used throughout the hypervisor and guest.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Reset to zero, returning the previous value. Used when the hypervisor
    /// closes a sampling interval.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.0)
    }
}

/// A sampled time-series: `(instant, value)` pairs in non-decreasing time
/// order. Backing storage for the occupancy figures.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample. Samples must arrive in non-decreasing time order;
    /// out-of-order appends panic in debug builds.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(t >= last, "time series went backwards");
        }
        self.points.push((t, value));
    }

    /// All samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Largest sampled value, or `None` for an empty series.
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |m, v| {
            Some(match m {
                None => v,
                Some(m) => m.max(v),
            })
        })
    }
}

/// Online mean / standard deviation accumulator (Welford), used to summarize
/// the five repetitions of every scenario run exactly as the paper's bar
/// charts do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator; 0 for fewer than two
    /// observations).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
}

/// A log2-bucketed histogram of `u64` observations (latencies in
/// sim-nanoseconds, queue depths). Bucket `i ≥ 1` covers
/// `[2^(i-1), 2^i - 1]`; bucket 0 holds exact zeros. Merging is exact and
/// associative — bucket counts are plain sums — which is what lets
/// per-cell trace metrics be folded across an experiment grid without any
/// loss.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

/// Number of buckets in a [`Histogram`]: one per possible bit length of a
/// `u64`, plus the dedicated zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i` (the value reported for any
    /// percentile that lands in that bucket).
    fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Upper bound of the bucket containing the `p`-quantile
    /// (`0.0 < p <= 1.0`), clamped to the observed maximum. `None` when
    /// empty. Guarantee: at least `ceil(p · count)` observations are ≤ the
    /// returned value.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another histogram into this one. Exact: the result is
    /// indistinguishable from having recorded every observation here.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(xs: &[f64]) -> Summary {
        let mut s = Summary::new();
        for &x in xs {
            s.record(x);
        }
        s
    }

    #[test]
    fn counter_take_resets() {
        let mut c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = summary(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample stddev of that classic dataset is ~2.138.
        assert!((s.stddev() - 2.1380899352993947).abs() < 1e-12);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn summary_degenerate_cases() {
        let empty = Summary::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.stddev(), 0.0);
        assert_eq!(empty.count(), 0);
        let one = summary(&[3.5]);
        assert_eq!(one.mean(), 3.5);
        assert_eq!(one.stddev(), 0.0);
    }

    #[test]
    fn histogram_percentiles_bound_from_above() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 3, 8, 9, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), Some(1000));
        // Rank 1 is the zero bucket.
        assert_eq!(h.percentile(0.1), Some(0));
        // Median rank 4 lands in bucket [2,3] → upper bound 3.
        assert_eq!(h.percentile(0.5), Some(3));
        // p100 is clamped to the observed max, not the bucket top (1023).
        assert_eq!(h.percentile(1.0), Some(1000));
        let empty = Histogram::new();
        assert_eq!(empty.percentile(0.5), None);
        assert_eq!(empty.max(), None);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [4u64, 5, 6] {
            a.record(v);
            whole.record(v);
        }
        for v in [0u64, 100, 7] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn empty_series_helpers() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert_eq!(ts.max(), None);
    }
}
