//! Synthetic dataset generators.
//!
//! The paper's workloads consume two public datasets we substitute with
//! statistically similar synthetic ones (see DESIGN.md §2):
//!
//! * **MovieLens-shaped ratings** (Harper & Konstan) for
//!   in-memory-analytics: `(user, item)` pairs where item popularity
//!   follows a Zipf law — the skew that makes some factor rows hot — and
//!   users rate in bursts. The rating values are not kept: the workload
//!   is data-oblivious, so only who rated what shapes its page references.
//! * **soc-twitter-follows-shaped graph** (Rossi & Ahmed) for
//!   graph-analytics: a Chung–Lu style power-law multigraph, degree
//!   exponent ≈ 2, stored as an edge list for CSR assembly.
//!
//! Generators are deterministic in the seed and O(output) in time.

use sim_core::rng::SplitMix64;

/// A synthetic rating: who rated what.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rating {
    /// User index in `[0, n_users)`.
    pub user: u32,
    /// Item index in `[0, n_items)`.
    pub item: u32,
}

/// Zipf-ish sampler over `[0, n)` via the inverse-power method: cheap,
/// deterministic and heavy enough in the head to create hot items.
struct Zipf {
    n: u32,
    /// `n^(1 - skew)`.
    head: f64,
    /// `1 / (1 - skew)`.
    exp: f64,
}

impl Zipf {
    fn new(n: u32, skew: f64) -> Self {
        assert!(n > 0);
        Zipf {
            n,
            head: (n as f64).powf(1.0 - skew),
            exp: 1.0 / (1.0 - skew),
        }
    }

    fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let u = rng.next_f64().max(1e-12);
        // Inverse CDF of a continuous power-law on [1, n].
        let x = (self.head * u + (1.0 - u)).powf(self.exp);
        (x as u32).min(self.n - 1)
    }
}

/// Generate `n_ratings` MovieLens-shaped ratings.
pub fn movielens_ratings(seed: u64, n_users: u32, n_items: u32, n_ratings: usize) -> Vec<Rating> {
    assert!(n_users > 0 && n_items > 0);
    let mut rng = SplitMix64::new(seed).derive("movielens");
    let items = Zipf::new(n_items, 1.1);
    let mut out = Vec::with_capacity(n_ratings);
    // Users rate in bursts: pick a user, emit a geometric burst of ratings
    // over Zipf-popular items. This clusters a user's ratings together in
    // the array, like a timestamp-sorted export.
    while out.len() < n_ratings {
        let user = rng.next_below(u64::from(n_users)) as u32;
        let burst = 1 + rng.next_below(16) as usize;
        for _ in 0..burst.min(n_ratings - out.len()) {
            let item = items.sample(&mut rng);
            // The rating value's user-noise draw: the value is not kept,
            // but the draw keeps the (user, item) stream unchanged.
            rng.next();
            out.push(Rating { user, item });
        }
    }
    out
}

/// Generate a power-law directed multigraph with `n_nodes` nodes and
/// `n_edges` edges as an unsorted edge list (Chung–Lu style: endpoints
/// sampled with probability proportional to a power-law weight).
pub fn powerlaw_edges(seed: u64, n_nodes: u32, n_edges: usize) -> Vec<(u32, u32)> {
    assert!(n_nodes > 1);
    let mut rng = SplitMix64::new(seed).derive("powerlaw-graph");
    // Sources are mildly skewed (active followers), destinations heavily
    // skewed (celebrity accounts) — the soc-twitter-follows shape.
    let srcs = Zipf::new(n_nodes, 1.05);
    let dsts = Zipf::new(n_nodes, 1.8);
    let mut out = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        let src = srcs.sample(&mut rng);
        let mut dst = dsts.sample(&mut rng);
        if dst == src {
            dst = (dst + 1) % n_nodes;
        }
        out.push((src, dst));
    }
    out
}

/// Assemble an edge list into CSR form: `(offsets, targets)` where node
/// `v`'s out-neighbours are `targets[offsets[v]..offsets[v+1]]`.
pub fn to_csr(n_nodes: u32, edges: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let n = n_nodes as usize;
    let mut degree = vec![0u32; n];
    for &(s, _) in edges {
        degree[s as usize] += 1;
    }
    let mut offsets = vec![0u32; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + degree[v];
    }
    let mut cursor = offsets.clone();
    let mut targets = vec![0u32; edges.len()];
    for &(s, d) in edges {
        let c = &mut cursor[s as usize];
        targets[*c as usize] = d;
        *c += 1;
    }
    (offsets, targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratings_are_deterministic_and_in_range() {
        let a = movielens_ratings(7, 100, 50, 1000);
        let b = movielens_ratings(7, 100, 50, 1000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
        assert!(a.iter().all(|r| r.user < 100 && r.item < 50));
    }

    #[test]
    fn ratings_item_popularity_is_skewed() {
        let ratings = movielens_ratings(3, 1000, 500, 50_000);
        let mut counts = vec![0u32; 500];
        for r in &ratings {
            counts[r.item as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = counts[..10].iter().sum();
        let total: u32 = counts.iter().sum();
        assert!(
            f64::from(top10) / f64::from(total) > 0.10,
            "top-10 items should capture a disproportionate share"
        );
    }

    #[test]
    fn graph_is_deterministic_with_skewed_in_degree() {
        let a = powerlaw_edges(5, 10_000, 100_000);
        let b = powerlaw_edges(5, 10_000, 100_000);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(s, d)| s < 10_000 && d < 10_000 && s != d));
        let mut indeg = vec![0u32; 10_000];
        for &(_, d) in &a {
            indeg[d as usize] += 1;
        }
        indeg.sort_unstable_by(|x, y| y.cmp(x));
        let top: u32 = indeg[..100].iter().sum();
        assert!(
            f64::from(top) / 100_000.0 > 0.3,
            "top-1% nodes should attract a large share of edges"
        );
    }

    #[test]
    fn csr_roundtrips_the_edge_list() {
        let edges = vec![(0u32, 1u32), (0, 2), (2, 0), (1, 2)];
        let (offsets, targets) = to_csr(3, &edges);
        assert_eq!(offsets, vec![0, 2, 3, 4]);
        // Node 0's neighbours.
        let n0: Vec<u32> = targets[offsets[0] as usize..offsets[1] as usize].to_vec();
        assert_eq!(n0, vec![1, 2]);
        assert_eq!(targets[offsets[2] as usize..offsets[3] as usize], [0]);
        assert_eq!(targets.len(), edges.len());
    }

    #[test]
    fn zipf_sampler_stays_in_bounds() {
        let mut rng = SplitMix64::new(11);
        let z = Zipf::new(37, 1.5);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 37);
        }
    }

    #[test]
    fn zipf_sampler_matches_the_per_draw_formula() {
        // The sampler computes `n^(1 - skew)` and `1 / (1 - skew)` once per
        // generator; recomputing them on every draw must give bit-identical
        // samples.
        fn per_draw(rng: &mut SplitMix64, n: u32, skew: f64) -> u32 {
            let u = rng.next_f64().max(1e-12);
            let x = ((n as f64).powf(1.0 - skew) * u + (1.0 - u)).powf(1.0 / (1.0 - skew));
            (x as u32).min(n - 1)
        }
        for (n, skew) in [
            (1, 1.1),
            (37, 1.5),
            (500, 1.1),
            (10_000, 1.05),
            (10_000, 1.8),
        ] {
            let z = Zipf::new(n, skew);
            let (mut a, mut b) = (SplitMix64::new(42), SplitMix64::new(42));
            for _ in 0..10_000 {
                assert_eq!(
                    z.sample(&mut a),
                    per_draw(&mut b, n, skew),
                    "n={n} skew={skew}"
                );
            }
        }
        // A few draws pinned outright.
        let mut rng = SplitMix64::new(42);
        let z = Zipf::new(10_000, 1.05);
        let got: Vec<u32> = (0..8).map(|_| z.sample(&mut rng)).collect();
        assert_eq!(got, [598, 3, 8, 15, 1, 2265, 5, 1101]);
    }
}
