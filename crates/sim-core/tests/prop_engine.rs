//! Property tests on the simulation engine primitives.

use proptest::prelude::*;
use sim_core::event::EventQueue;
use sim_core::metrics::Summary;
use sim_core::rng::SplitMix64;
use sim_core::time::SimTime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events pop in non-decreasing time order with FIFO tie-break.
    #[test]
    fn event_queue_is_a_stable_priority_queue(
        times in proptest::collection::vec(0u64..1000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime(t), seq);
        }
        let mut popped = Vec::new();
        while let Some((t, seq)) = q.pop() {
            popped.push((t, seq));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// SplitMix64 streams are reproducible and label-derivation is stable.
    #[test]
    fn rng_streams_reproduce(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(seed).derive(&label);
            (0..32).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(seed).derive(&label);
            (0..32).map(|_| r.next()).collect()
        };
        prop_assert_eq!(a, b);
    }

    /// next_below respects its bound for arbitrary bounds.
    #[test]
    fn rng_next_below_in_range(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut r = SplitMix64::new(seed);
        for _ in 0..64 {
            prop_assert!(r.next_below(bound) < bound);
        }
    }

    /// Welford summary agrees with the two-pass formulas.
    #[test]
    fn summary_matches_two_pass(
        xs in proptest::collection::vec(-1e6f64..1e6, 2..100),
    ) {
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.stddev() - var.sqrt()).abs() < 1e-5 * var.sqrt().max(1.0));
    }
}
