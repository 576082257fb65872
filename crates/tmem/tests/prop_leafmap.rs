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
