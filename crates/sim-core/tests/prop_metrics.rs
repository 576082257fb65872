//! Property tests pinning the [`Histogram`] behind the trace metrics
//! registry against naive reference folds: bucketing and percentiles
//! against the value list, and merge exactness and associativity — the
//! property the experiment grid relies on when folding per-cell trace
//! metrics in arbitrary tree shapes.

use proptest::prelude::*;
use sim_core::metrics::{Histogram, HISTOGRAM_BUCKETS};

/// Reference histogram bucket index: 0 for zero, else bit length.
fn ref_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Reference inclusive upper bound of bucket `i`.
fn ref_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Count, max and every percentile match a naive fold into reference
    /// buckets: the zero/log2 bucketing contract holds for every value.
    #[test]
    fn histogram_matches_reference_fold(
        vs in proptest::collection::vec(any::<u64>(), 1..120),
        p in 0.01f64..1.0,
    ) {
        let mut h = Histogram::new();
        let mut ref_buckets = vec![0u64; HISTOGRAM_BUCKETS];
        for &v in &vs {
            h.record(v);
            ref_buckets[ref_bucket(v)] += 1;
        }
        prop_assert_eq!(h.count(), vs.len() as u64);
        let max = vs.iter().max().copied();
        prop_assert_eq!(h.max(), max);
        let rank = ((p * vs.len() as f64).ceil() as u64).clamp(1, vs.len() as u64);
        let mut seen = 0;
        let bucket = ref_buckets
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .expect("the buckets hold every value");
        prop_assert_eq!(h.percentile(p), max.map(|m| ref_upper(bucket).min(m)));
    }

    /// Percentile guarantee: at least ceil(p·count) observations are ≤ the
    /// returned bound, the bound never exceeds the observed max, and
    /// percentiles are monotone in p.
    #[test]
    fn histogram_percentile_rank_guarantee(
        vs in proptest::collection::vec(0u64..1_000_000, 1..120),
        p in 0.01f64..1.0,
    ) {
        let mut h = Histogram::new();
        for &v in &vs {
            h.record(v);
        }
        let bound = h.percentile(p).expect("non-empty");
        let rank = (p * vs.len() as f64).ceil() as usize;
        let at_or_below = vs.iter().filter(|&&v| v <= bound).count();
        prop_assert!(
            at_or_below >= rank.clamp(1, vs.len()),
            "p={p}: only {at_or_below} of {} values <= {bound}, need {rank}",
            vs.len()
        );
        prop_assert!(bound <= h.max().unwrap());
        let p50 = h.percentile(0.5).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        prop_assert!(p50 <= p99, "percentiles must be monotone: {p50} > {p99}");
    }

    /// Histogram merge is exact and associative: bucket-for-bucket equal to
    /// recording the concatenation, in either association order.
    #[test]
    fn histogram_merge_is_exact_and_associative(
        xs in proptest::collection::vec(any::<u64>(), 0..60),
        ys in proptest::collection::vec(any::<u64>(), 0..60),
        zs in proptest::collection::vec(any::<u64>(), 0..60),
    ) {
        let h = |v: &[u64]| {
            let mut h = Histogram::new();
            for &x in v {
                h.record(x);
            }
            h
        };
        let all: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        let mut left = h(&xs);
        left.merge(&h(&ys));
        left.merge(&h(&zs));
        let mut right_tail = h(&ys);
        right_tail.merge(&h(&zs));
        let mut right = h(&xs);
        right.merge(&right_tail);
        prop_assert_eq!(&left, &right, "associativity must be bit-exact");
        prop_assert_eq!(&left, &h(&all), "merge must equal concatenation");
    }
}
