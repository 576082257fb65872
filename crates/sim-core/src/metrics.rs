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
    fn empty_series_helpers() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert_eq!(ts.max(), None);
    }
}
