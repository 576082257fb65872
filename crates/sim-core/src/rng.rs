//! Deterministic pseudo-random number generation.
//!
//! Every stochastic decision in the simulator (workload access patterns,
//! dataset synthesis, jitter) draws from a [`SplitMix64`] generator seeded
//! from an experiment-level root seed plus a stable component label. This
//! keeps components statistically independent while making whole-experiment
//! replay bit-exact — the determinism integration test relies on it.
//!
//! `SplitMix64` (Steele, Lea & Flood, OOPSLA'14) is tiny, passes BigCrush
//! when used as a 64-bit stream, and needs no feature flags from the `rand`
//! crate; we only implement [`rand::RngCore`] on top of it so the usual
//! distribution adaptors work.

use rand::{Error, RngCore, SeedableRng};

/// What each output adds to the state (the golden-ratio increment).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// A 64-bit SplitMix generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a raw 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive a child generator from this experiment seed and a component
    /// label, e.g. `root.derive("vm1/usemem")`. Labels are hashed with FNV-1a
    /// so adding a component never perturbs the streams of existing ones.
    pub fn derive(&self, label: &str) -> SplitMix64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // Mix the label hash with the parent state without advancing the
        // parent, so derivation order is irrelevant.
        SplitMix64::new(self.state ^ h.rotate_left(17))
    }

    /// Next 64 bits of the stream.
    ///
    /// Named like (but distinct from) `Iterator::next` on purpose: this is
    /// the conventional name for a raw PRNG step.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Advance the stream past `n` outputs without computing them: the
    /// state is a counter, so this equals `n` calls to [`next`](Self::next).
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Uniform integer in `[0, bound)`. Uses Lemire's multiply-shift
    /// rejection method to avoid modulo bias.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        loop {
            let x = self.next();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl RngCore for SplitMix64 {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for SplitMix64 {
    type Seed = [u8; 8];
    fn from_seed(seed: Self::Seed) -> Self {
        SplitMix64::new(u64::from_le_bytes(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn derive_is_order_independent_and_label_sensitive() {
        let root = SplitMix64::new(7);
        let mut x1 = root.derive("vm1");
        let mut y1 = root.derive("vm2");
        // Deriving in the opposite order yields the same children.
        let mut y2 = root.derive("vm2");
        let mut x2 = root.derive("vm1");
        assert_eq!(x1.next(), x2.next());
        assert_eq!(y1.next(), y2.next());
        // Distinct labels yield distinct streams.
        assert_ne!(root.derive("vm1").next(), root.derive("vm2").next());
    }

    #[test]
    fn skip_equals_that_many_next_calls() {
        for (seed, n) in [(0, 0), (42, 1), (7, 2), (u64::MAX, 33), (99, 1000)] {
            let mut stepped = SplitMix64::new(seed);
            for _ in 0..n {
                stepped.next();
            }
            let mut skipped = SplitMix64::new(seed);
            skipped.skip(n);
            assert_eq!(skipped, stepped, "seed {seed}, n {n}");
            assert_eq!(skipped.next(), stepped.next());
        }
    }

    #[test]
    fn next_below_respects_bound_and_covers_range() {
        let mut rng = SplitMix64::new(123);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_f64_in_unit_interval_with_reasonable_mean() {
        let mut rng = SplitMix64::new(99);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn fill_bytes_handles_partial_chunks() {
        let mut rng = SplitMix64::new(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        // A second fill from the same state must differ (stream advances).
        let snapshot = buf;
        rng.fill_bytes(&mut buf);
        assert_ne!(snapshot, buf);
    }
}
