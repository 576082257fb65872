//! Differential property test: [`tmem::fastmap::LeafMap`] must behave as
//! a `BTreeMap<u32, u32>`.
//!
//! Random insert, replace, remove, get, window-scan and drain sequences run
//! against both maps in lockstep. Keys cluster on either side of leaf
//! boundaries (`64k - 1`, `64k`, `64k + 1`) and in the last leaves below
//! `u32::MAX`, where the leaf arithmetic can overflow. After every step the
//! length, the leaf count and every stored key's lookup must agree; the
//! key set seen by iteration and by draining must equal the model's, and a
//! window scan must return exactly the model's ascending range.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tmem::fastmap::LeafMap;

#[derive(Debug, Clone)]
enum Op {
    /// `insert`, which may replace.
    Insert(u32, u32),
    /// `insert` at the `n`-th stored key (mod len): always a replacement.
    Replace(u16, u32),
    Remove(u32),
    Get(u32),
    /// `range(lo..lo + width)`, saturating at `u32::MAX`.
    Scan(u32, u8),
    /// `drain`, checked against the model, which is then cleared.
    Drain,
}

fn key() -> impl Strategy<Value = u32> {
    prop_oneof![
        // Either side of a leaf boundary: 64k - 1, 64k, 64k + 1.
        4 => (1..6u32, 0..3u32).prop_map(|(k, d)| 64 * k + d - 1),
        // Dense runs across the first leaves.
        3 => 0..200u32,
        // The last three leaves of the key space.
        2 => (0..130u32).prop_map(|d| u32::MAX - d),
        1 => any::<u32>(),
    ]
}

/// Any storable value: everything but the vacant marker `u32::MAX`.
fn value() -> impl Strategy<Value = u32> {
    0..u32::MAX
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (key(), value()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (any::<u16>(), value()).prop_map(|(n, v)| Op::Replace(n, v)),
        4 => key().prop_map(Op::Remove),
        2 => key().prop_map(Op::Get),
        2 => (key(), 0..140u8).prop_map(|(k, w)| Op::Scan(k, w)),
        1 => Just(Op::Drain),
    ]
}

/// Distinct leaves the model's keys occupy.
fn leaves_of(model: &BTreeMap<u32, u32>) -> usize {
    model.keys().map(|k| k >> 6).collect::<BTreeSet<_>>().len()
}

fn check_state(map: &LeafMap, model: &BTreeMap<u32, u32>) -> Result<(), TestCaseError> {
    prop_assert_eq!(map.len(), model.len());
    prop_assert_eq!(map.is_empty(), model.is_empty());
    prop_assert_eq!(map.leaf_count(), leaves_of(model));
    for (&k, &v) in model {
        prop_assert_eq!(map.get(k), Some(v), "lookup of key {}", k);
        prop_assert!(map.contains_key(k));
    }
    Ok(())
}

fn check_iteration(map: &LeafMap, model: &BTreeMap<u32, u32>) -> Result<(), TestCaseError> {
    let mut seen: Vec<(u32, u32)> = map.iter().collect();
    seen.sort_unstable();
    let want: Vec<(u32, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    prop_assert_eq!(seen, want);
    Ok(())
}

fn run(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut map = LeafMap::new();
    let mut model: BTreeMap<u32, u32> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                prop_assert_eq!(map.insert(k, v), model.insert(k, v));
            }
            Op::Replace(n, v) => {
                if let Some(&k) = model.keys().nth(usize::from(n) % model.len().max(1)) {
                    let old = model.insert(k, v);
                    prop_assert!(old.is_some());
                    prop_assert_eq!(map.insert(k, v), old);
                }
            }
            Op::Remove(k) => {
                prop_assert_eq!(map.remove(k), model.remove(&k));
                prop_assert_eq!(map.get(k), None);
            }
            Op::Get(k) => {
                prop_assert_eq!(map.get(k), model.get(&k).copied());
                prop_assert_eq!(map.contains_key(k), model.contains_key(&k));
            }
            Op::Scan(lo, width) => {
                let hi = lo.saturating_add(u32::from(width));
                let got: Vec<(u32, u32)> = map.range(lo..hi).collect();
                let want: Vec<(u32, u32)> = model.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(got, want, "window {}..{}", lo, hi);
            }
            Op::Drain => {
                check_iteration(&map, &model)?;
                let mut drained: Vec<(u32, u32)> = map.drain().collect();
                drained.sort_unstable();
                let want: Vec<(u32, u32)> = std::mem::take(&mut model).into_iter().collect();
                prop_assert_eq!(drained, want);
            }
        }
        check_state(&map, &model)?;
    }
    check_iteration(&map, &model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mixed operation sequences, long enough to fill and empty leaves.
    #[test]
    fn leafmap_matches_btreemap(ops in proptest::collection::vec(op(), 1..200)) {
        run(&ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dense fills then removals of one boundary-straddling run, so leaves
    /// fill completely and are released as they empty.
    #[test]
    fn dense_runs_fill_and_release_leaves(
        start in key(),
        len in 1..300u32,
        removals in proptest::collection::vec(key(), 0..100),
    ) {
        let mut ops: Vec<Op> = (0..len)
            .map_while(|i| start.checked_add(i))
            .map(|k| Op::Insert(k, k ^ 0x5a5a))
            .collect();
        ops.extend((0..len).map_while(|i| start.checked_add(i)).map(|k| Op::Scan(k, 70)));
        ops.extend(removals.into_iter().map(Op::Remove));
        ops.extend((0..len).map_while(|i| start.checked_add(i)).map(Op::Remove));
        run(&ops)?;
    }
}

#[test]
#[should_panic(expected = "u32::MAX")]
fn storing_the_vacant_marker_panics() {
    LeafMap::new().insert(7, u32::MAX);
}

// Op mixes aimed at the remembered leaf: the map skips the table probe
// for a key in the last leaf a mutation touched, so these switch between
// leaves, release the remembered one and reuse freed leaf storage, each
// step still checked against the model by `run`.

/// The first key of a leaf near either end of the key space.
fn leaf_base() -> impl Strategy<Value = u32> {
    prop_oneof![
        (0..6u32).prop_map(|l| l << 6),
        (0..3u32).prop_map(|d| ((u32::MAX >> 6) - d) << 6),
    ]
}

/// Runs of neighbouring keys, as a tmem object's page index sees them:
/// ascending inserts, a get of the previous key and a removal two back,
/// then a scan of the run and removals in insertion order.
fn neighbour_runs() -> impl Strategy<Value = Vec<Op>> {
    (key(), 1..160u32).prop_map(|(start, len)| {
        let keys: Vec<u32> = (0..len).map_while(|i| start.checked_add(i)).collect();
        let mut ops = Vec::new();
        for (n, &k) in keys.iter().enumerate() {
            ops.push(Op::Insert(k, k >> 1));
            if n >= 1 {
                ops.push(Op::Get(keys[n - 1]));
            }
            if n >= 2 && n % 3 == 0 {
                ops.push(Op::Remove(keys[n - 2]));
            }
        }
        ops.push(Op::Scan(start, 140));
        ops.extend(keys.iter().map(|&k| Op::Remove(k)));
        ops
    })
}

/// Alternation between two leaves: every operation lands in the other
/// leaf than the one before.
fn two_leaf_alternation() -> impl Strategy<Value = Vec<Op>> {
    (leaf_base(), leaf_base(), 1..100u32).prop_map(|(a, b, n)| {
        let mut ops = Vec::new();
        for i in 0..n {
            let (ka, kb) = (a | (i % 64), b | ((i * 7) % 64));
            ops.push(Op::Insert(ka, i));
            ops.push(Op::Get(kb));
            ops.push(Op::Insert(kb, i + 1));
            ops.push(Op::Remove(a | ((i + 63) % 64)));
            ops.push(Op::Get(ka));
        }
        ops
    })
}

/// Removals that empty a leaf, then refills: first into the released
/// leaf itself (the remembered one), then into fresh leaves that reuse
/// its storage, and finally a full emptying that releases every leaf.
fn empty_and_refill() -> impl Strategy<Value = Vec<Op>> {
    (leaf_base(), leaf_base(), leaf_base(), 1..65u32).prop_map(|(a, b, c, fill)| {
        let mut ops = Vec::new();
        ops.extend((0..fill).map(|i| Op::Insert(a | i, i)));
        ops.push(Op::Insert(b | 5, 5));
        ops.extend((0..fill).map(|i| Op::Remove(a | i)));
        ops.push(Op::Insert(a | (fill - 1), 99));
        ops.push(Op::Get(a));
        ops.push(Op::Remove(a | (fill - 1)));
        ops.extend((0..fill).map(|i| Op::Insert(c | i, i + 7)));
        ops.push(Op::Get(a | (fill - 1)));
        ops.push(Op::Scan(a, 64));
        ops.push(Op::Remove(b | 5));
        ops.extend((0..fill).map(|i| Op::Remove(c | i)));
        ops.push(Op::Insert(c, 1));
        ops.push(Op::Insert(b | 6, 2));
        ops
    })
}

/// A drain in the middle of a run, then the same leaf again.
fn drain_mid_run() -> impl Strategy<Value = Vec<Op>> {
    (leaf_base(), 1..64u32).prop_map(|(a, n)| {
        let mut ops: Vec<Op> = (0..n).map(|i| Op::Insert(a | i, i)).collect();
        ops.push(Op::Drain);
        ops.push(Op::Get(a));
        ops.push(Op::Insert(a | (n - 1), 3));
        ops.push(Op::Remove(a));
        ops.push(Op::Insert(a, 4));
        ops.push(Op::Drain);
        ops
    })
}

/// Scans that straddle two or three leaves, some of them absent, after
/// scattered fills and removals around the boundaries.
fn boundary_scans() -> impl Strategy<Value = Vec<Op>> {
    (
        1..5u32,
        proptest::collection::vec((0..256u32, any::<bool>()), 1..80),
        proptest::collection::vec((0..256u32, 0..140u8), 1..10),
    )
        .prop_map(|(leaf, edits, scans)| {
            let base = (leaf << 6) - 64;
            let mut ops: Vec<Op> = edits
                .into_iter()
                .map(|(d, ins)| {
                    if ins {
                        Op::Insert(base + d, d)
                    } else {
                        Op::Remove(base + d)
                    }
                })
                .collect();
            ops.extend(scans.into_iter().map(|(d, w)| Op::Scan(base + d, w)));
            ops
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sequences of the mixes above, so one mix starts from the state
    /// (and the remembered leaf) another left behind.
    #[test]
    fn remembered_leaf_mixes_match_btreemap(
        mixes in proptest::collection::vec(
            prop_oneof![
                neighbour_runs(),
                two_leaf_alternation(),
                empty_and_refill(),
                drain_mid_run(),
                boundary_scans(),
            ],
            1..6,
        ),
    ) {
        run(&mixes.concat())?;
    }
}
