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
//!   A `RatingStream` keeps only the items, bit-packed, and re-draws the
//!   users from generator checkpoints as it is read.
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
/// deterministic and heavy enough in the head to create hot items. The
/// file server draws its files from one too.
pub(crate) struct Zipf {
    n: u32,
    /// `n^(1 - skew)`.
    head: f64,
    /// `1 / (1 - skew)`.
    exp: f64,
}

impl Zipf {
    pub(crate) fn new(n: u32, skew: f64) -> Self {
        assert!(n > 0);
        Zipf {
            n,
            head: (n as f64).powf(1.0 - skew),
            exp: 1.0 / (1.0 - skew),
        }
    }

    pub(crate) fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let u = rng.next_f64().max(1e-12);
        // Inverse CDF of a continuous power-law on [1, n].
        let x = (self.head * u + (1.0 - u)).powf(self.exp);
        (x as u32).min(self.n - 1)
    }
}

/// Generator draws per rating: the Zipf item (one `next_f64`) and the
/// rating value's user-noise draw. The value is not kept, but the draw
/// keeps the `(user, item)` stream unchanged.
const DRAWS_PER_RATING: u64 = 2;

/// Items drawn before [`RatingStream::new`] packs them.
const PACK_RUN: usize = 4096;

/// Where the generator stood at a partition's first rating.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// The generator just before that rating's item draw.
    rng: SplitMix64,
    /// The open burst's user.
    user: u32,
    /// Ratings left in the open burst, that rating included (at least 1).
    left: u32,
}

/// `n_ratings` MovieLens-shaped ratings, kept in ⌈log2 `n_items`⌉ bits
/// each instead of a [`Rating`]'s 64.
///
/// Users rate in bursts: the generator picks a user, then emits a burst of
/// 1–16 ratings over Zipf-popular items. This clusters a user's ratings
/// together in the array, like a timestamp-sorted export. The stream keeps
/// each item in ⌈log2 `n_items`⌉ bits, and at the start of every
/// `partition` ratings a checkpoint of the generator. Users are not kept: a
/// read resumes from a checkpoint and re-draws each burst's user and
/// length, stepping over the item draws, so it needs no `powf`.
#[derive(Debug, Clone)]
pub(crate) struct RatingStream {
    n_users: u32,
    len: usize,
    partition: usize,
    /// Bits per item.
    width: u32,
    /// Items, packed `width` bits each, low bits first. The last word may
    /// be partly or wholly unused.
    words: Vec<u64>,
    checkpoints: Vec<Checkpoint>,
}

/// A read position in a [`RatingStream`], started at a partition's first
/// rating.
#[derive(Debug, Clone)]
struct RatingCursor {
    /// Index of the rating read next.
    pos: usize,
    /// The generator at the next burst's user draw.
    rng: SplitMix64,
    user: u32,
    /// Ratings left in the open burst.
    left: u32,
}

impl RatingStream {
    /// Generate `n_ratings` ratings, checkpointing every `partition`.
    pub(crate) fn new(
        seed: u64,
        n_users: u32,
        n_items: u32,
        n_ratings: usize,
        partition: usize,
    ) -> Self {
        assert!(n_users > 0 && n_items > 0 && partition > 0);
        let mut rng = SplitMix64::new(seed).derive("movielens");
        let items = Zipf::new(n_items, 1.1);
        let width = u32::BITS - (n_items - 1).leading_zeros();
        let mut stream = RatingStream {
            n_users,
            len: n_ratings,
            partition,
            width,
            words: vec![0; n_ratings * width as usize / 64 + 1],
            checkpoints: Vec::with_capacity(n_ratings.div_ceil(partition)),
        };
        // Items are drawn into `drawn` and packed in runs: packing between
        // the draws made generation ~1.5x slower. A burst may carry a run
        // up to 15 items past `PACK_RUN`.
        let mut drawn = Vec::with_capacity(PACK_RUN + 15);
        let (mut pos, mut next_checkpoint) = (0, 0);
        while pos < n_ratings {
            let user = rng.next_below(u64::from(n_users)) as u32;
            let burst = 1 + rng.next_below(16) as usize;
            let len = burst.min(n_ratings - pos);
            // Each partition that starts in this burst: where the
            // generator will stand at its first rating.
            while next_checkpoint < pos + len {
                let into = next_checkpoint - pos;
                let mut at = rng.clone();
                at.skip(DRAWS_PER_RATING * into as u64);
                stream.checkpoints.push(Checkpoint {
                    rng: at,
                    user,
                    left: (burst - into) as u32,
                });
                next_checkpoint += partition;
            }
            for _ in 0..len {
                drawn.push(items.sample(&mut rng));
                rng.skip(DRAWS_PER_RATING - 1);
            }
            pos += len;
            if drawn.len() >= PACK_RUN {
                stream.pack(pos - drawn.len(), &drawn);
                drawn.clear();
            }
        }
        stream.pack(pos - drawn.len(), &drawn);
        stream
    }

    /// Store `items` as the items of ratings `start..`, which follow the
    /// last rating stored.
    fn pack(&mut self, start: usize, items: &[u32]) {
        let width = self.width as usize;
        let bit = start * width;
        let (mut word, mut off) = (bit / 64, bit % 64);
        let mut acc = self.words[word];
        for &item in items {
            acc |= u64::from(item) << off;
            off += width;
            if off >= 64 {
                self.words[word] = acc;
                word += 1;
                off -= 64;
                // The item's top `off` bits, which did not fit.
                acc = u64::from(item) >> (width - off);
            }
        }
        self.words[word] = acc;
    }

    /// Replace `out` with the ratings of partition `part`.
    pub(crate) fn read_partition(&self, part: usize, out: &mut Vec<Rating>) {
        self.read(&mut self.cursor(part), self.partition, out);
    }

    /// A cursor at the first rating of partition `part`.
    fn cursor(&self, part: usize) -> RatingCursor {
        let cp = &self.checkpoints[part];
        let mut rng = cp.rng.clone();
        rng.skip(DRAWS_PER_RATING * u64::from(cp.left));
        RatingCursor {
            pos: part * self.partition,
            rng,
            user: cp.user,
            left: cp.left,
        }
    }

    /// Replace `out` with the `n` ratings at `c` (fewer at the end of the
    /// stream), and move `c` past them.
    fn read(&self, c: &mut RatingCursor, n: usize, out: &mut Vec<Rating>) {
        out.clear();
        let end = self.len.min(c.pos.saturating_add(n));
        out.reserve(end - c.pos);
        let mut items = BitReader::at(&self.words, self.width, c.pos);
        while c.pos < end {
            if c.left == 0 {
                c.user = c.rng.next_below(u64::from(self.n_users)) as u32;
                c.left = 1 + c.rng.next_below(16) as u32;
                c.rng.skip(DRAWS_PER_RATING * u64::from(c.left));
            }
            let run = (end - c.pos).min(c.left as usize);
            for _ in 0..run {
                out.push(Rating {
                    user: c.user,
                    item: items.next(),
                });
            }
            c.left -= run as u32;
            c.pos += run;
        }
    }
}

/// Sequential reader of items packed `width` bits each, low bits first.
struct BitReader<'a> {
    words: &'a [u64],
    width: u32,
    /// The unread bits of the current word, at the bottom; zeros above.
    bits: u64,
    /// How many bits of `bits` are unread.
    unread: u32,
}

impl<'a> BitReader<'a> {
    /// A reader at item `pos`.
    fn at(words: &'a [u64], width: u32, pos: usize) -> Self {
        let bit = pos * width as usize;
        let words = &words[bit / 64..];
        let off = (bit % 64) as u32;
        BitReader {
            words: &words[1..],
            width,
            bits: words[0] >> off,
            unread: 64 - off,
        }
    }

    #[inline]
    fn next(&mut self) -> u32 {
        let mask = (1u64 << self.width) - 1;
        if self.unread >= self.width {
            let item = self.bits & mask;
            self.bits >>= self.width;
            self.unread -= self.width;
            return item as u32;
        }
        // The item continues in the next word.
        let (next, rest) = self
            .words
            .split_first()
            .expect("the item's bits are stored");
        let item = (self.bits | next << self.unread) & mask;
        let used = self.width - self.unread;
        self.words = rest;
        self.bits = next >> used;
        self.unread = 64 - used;
        item as u32
    }
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
    use proptest::prelude::*;

    /// The generator as one loop into a `Vec`: the oracle for
    /// [`RatingStream`].
    fn movielens_ratings(seed: u64, n_users: u32, n_items: u32, n_ratings: usize) -> Vec<Rating> {
        let mut rng = SplitMix64::new(seed).derive("movielens");
        let items = Zipf::new(n_items, 1.1);
        let mut out = Vec::with_capacity(n_ratings);
        while out.len() < n_ratings {
            let user = rng.next_below(u64::from(n_users)) as u32;
            let burst = 1 + rng.next_below(16) as usize;
            for _ in 0..burst.min(n_ratings - out.len()) {
                let item = items.sample(&mut rng);
                rng.next();
                out.push(Rating { user, item });
            }
        }
        out
    }

    /// Every rating of `stream`, in one read from partition 0.
    fn read_all(stream: &RatingStream) -> Vec<Rating> {
        let mut all = Vec::new();
        if stream.len > 0 {
            stream.read(&mut stream.cursor(0), usize::MAX, &mut all);
        }
        all
    }

    /// The first index where `got` and `want` differ, with both ratings,
    /// or `None` when they are equal.
    fn first_difference(
        got: &[Rating],
        want: &[Rating],
    ) -> Option<(usize, Option<Rating>, Option<Rating>)> {
        (0..got.len().max(want.len()))
            .map(|i| (i, got.get(i).copied(), want.get(i).copied()))
            .find(|(_, g, w)| g != w)
    }

    #[test]
    fn stream_equals_the_oracle_at_analytics_sizes() {
        // A 128 MiB analytics VM's shape (`with_footprint`), shortened to
        // 200,000 ratings: 17-bit items that fill exactly 53,125 words.
        let (users, items, n, part) = (180_566, 120_378, 200_000, 32 * 1024);
        let want = movielens_ratings(42, users, items, n);
        let stream = RatingStream::new(42, users, items, n, part);
        assert_eq!(first_difference(&read_all(&stream), &want), None);
        let mut got = Vec::new();
        for p in 0..n.div_ceil(part) {
            stream.read_partition(p, &mut got);
            let range = p * part..n.min((p + 1) * part);
            assert_eq!(first_difference(&got, &want[range]), None, "partition {p}");
        }
        assert_eq!((stream.width, stream.words.len()), (17, 53_126));
    }

    /// Item counts where the packed width changes: 1 (0 bits), 2, and
    /// powers of two up to 2^31 and one either side of them (to 32 bits).
    fn item_counts() -> impl Strategy<Value = u32> {
        prop_oneof![
            Just(1u32),
            Just(2u32),
            (1u32..=31).prop_map(|k| (1u32 << k) - 1),
            (1u32..=31).prop_map(|k| 1u32 << k),
            (1u32..=31).prop_map(|k| (1u32 << k) + 1),
            3u32..5000,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A cursor from every partition start, and one pass from 0, read
        /// the oracle's `(user, item)` sequence, whatever the partition
        /// size, the packed width and where the bursts and the packed runs
        /// end.
        #[test]
        fn cursors_read_the_oracle_sequence(
            seed in any::<u64>(),
            n_users in 1u32..2000,
            n_items in item_counts(),
            n_ratings in 0usize..10_000,
            partition in 1usize..200,
        ) {
            let want = movielens_ratings(seed, n_users, n_items, n_ratings);
            let stream = RatingStream::new(seed, n_users, n_items, n_ratings, partition);
            prop_assert_eq!(stream.len, n_ratings);
            prop_assert_eq!(first_difference(&read_all(&stream), &want), None, "one pass from 0");
            let n_parts = n_ratings.div_ceil(partition);
            let mut got = Vec::new();
            for p in 0..n_parts {
                let range = p * partition..n_ratings.min((p + 1) * partition);
                let mut c = stream.cursor(p);
                prop_assert_eq!(c.pos, range.start);
                stream.read(&mut c, partition, &mut got);
                prop_assert_eq!(c.pos, range.end);
                prop_assert_eq!(first_difference(&got, &want[range]), None, "partition {}", p);
            }
        }
    }

    #[test]
    fn ratings_are_deterministic_and_in_range() {
        let a = read_all(&RatingStream::new(7, 100, 50, 1000, 64));
        let b = read_all(&RatingStream::new(7, 100, 50, 1000, 64));
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
        assert!(a.iter().all(|r| r.user < 100 && r.item < 50));
    }

    #[test]
    fn ratings_item_popularity_is_skewed() {
        let ratings = read_all(&RatingStream::new(3, 1000, 500, 50_000, 4096));
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
        // The file server's pick, as it drew on every request before it
        // held a sampler: `u64` file counts, skew 1.1. The shapes are the
        // small corpus (256 files), `with_footprint` at 4 MiB to 512 MiB
        // per VM (32 to 4,096 files), and the largest count the server
        // takes.
        fn per_request(rng: &mut SplitMix64, n: u64, s: f64) -> u64 {
            let u = rng.next_f64().max(1e-12);
            let x = ((n as f64).powf(1.0 - s) * u + (1.0 - u)).powf(1.0 / (1.0 - s));
            (x as u64).min(n - 1)
        }
        for n in [1, 32, 256, 1024, 4096, u32::MAX] {
            let z = Zipf::new(n, 1.1);
            let (mut a, mut b) = (SplitMix64::new(7), SplitMix64::new(7));
            for _ in 0..10_000 {
                assert_eq!(
                    u64::from(z.sample(&mut a)),
                    per_request(&mut b, u64::from(n), 1.1),
                    "n={n}"
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
