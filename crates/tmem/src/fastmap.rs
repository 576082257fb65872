//! Deterministic fast hashing for the tmem datapath.
//!
//! The datapath's hot maps are keyed by small fixed-size integers
//! (`(ObjectId, PageIndex)`, `PoolId`, `VmId`). `std`'s default SipHash is
//! both slower than necessary for such keys and randomly seeded per
//! process, which would make any accidental iteration-order dependence
//! nondeterministic. This module provides the Fx hash function (the
//! multiply-rotate hash used by rustc's `FxHashMap`) behind `std`'s
//! `HashMap`/`HashSet`:
//!
//! * ~5–10× cheaper than SipHash on 8–16 byte keys,
//! * deterministic across processes and runs — the experiment engine's
//!   byte-identical-output guarantee never depends on a per-process seed.
//!
//! Anything order-sensitive must still sort before iterating; determinism
//! of the *hash* keeps mistakes reproducible, not correct.
//!
//! [`LeafMap`] is the index for *dense* `u32` keys — a tmem object's page
//! indexes, a guest's swap slots. Neighbouring keys share a 64-entry leaf,
//! so a key costs about 4 bytes and the table of leaves, probed on every
//! access, is up to 64 times smaller than a hash map with one entry per
//! key and stays cache-warm.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Multiplier from the Fx hash (Firefox/rustc): a 64-bit odd constant with
/// good bit dispersion under multiplication.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx hasher: rotate–xor–multiply per word. Not DoS-resistant — do not
/// expose to untrusted keys (simulation state only).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Deterministic builder for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Key bits resolved inside a leaf: `key >> LEAF_BITS` finds the leaf,
/// the low bits the entry.
const LEAF_BITS: u32 = 6;
const LEAF_LEN: usize = 1 << LEAF_BITS;
const LEAF_MASK: u32 = LEAF_LEN as u32 - 1;

/// Marks a vacant leaf entry; [`LeafMap`] never stores it as a value.
const VACANT: u32 = u32::MAX;

/// 64 consecutive keys' values, [`VACANT`] where absent.
#[derive(Debug)]
struct Leaf {
    vals: [u32; LEAF_LEN],
    /// Entries that are not vacant; the leaf is released at zero.
    live: u32,
}

impl Leaf {
    fn boxed() -> Box<Leaf> {
        Box::new(Leaf {
            vals: [VACANT; LEAF_LEN],
            live: 0,
        })
    }

    /// `(key, value)` for the occupied entries at positions `lo..hi`,
    /// ascending; `base` is the leaf's first key.
    fn entries(&self, base: u32, lo: usize, hi: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        (lo..hi).filter_map(move |i| {
            let v = self.vals[i];
            (v != VACANT).then_some((base | i as u32, v))
        })
    }
}

/// A `u32 → u32` map for dense keys: 64-entry leaves of values, found
/// through an [`FxHashMap`] keyed by `key >> 6`.
///
/// A full leaf stores a value in 4 bytes, against 8 bytes plus control and
/// load-factor slack per entry of a hash map, and an ascending run of keys
/// walks one leaf's array. A leaf is released as soon as it empties, so
/// every leaf holds at least one key: an isolated key costs a whole leaf
/// (~260 B), which is why the map suits dense keys only. Values must not
/// be `u32::MAX`, which marks a vacant entry.
///
/// Iteration visits leaves in hash order and each leaf in ascending key
/// order; [`LeafMap::range`] is fully ascending. Both are deterministic.
#[derive(Debug, Default)]
pub struct LeafMap {
    leaves: FxHashMap<u32, Box<Leaf>>,
    len: usize,
}

impl LeafMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no key is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Leaves currently held: one per distinct `key >> 6` among the keys
    /// stored, since an emptied leaf is released at once.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// The value stored at `key`.
    #[inline]
    pub fn get(&self, key: u32) -> Option<u32> {
        let v = self.leaves.get(&(key >> LEAF_BITS))?.vals[(key & LEAF_MASK) as usize];
        (v != VACANT).then_some(v)
    }

    /// True if `key` holds a value.
    #[inline]
    pub fn contains_key(&self, key: u32) -> bool {
        self.get(key).is_some()
    }

    /// Store `value` at `key`, returning the value it replaced.
    ///
    /// # Panics
    /// If `value` is `u32::MAX`.
    #[inline]
    pub fn insert(&mut self, key: u32, value: u32) -> Option<u32> {
        assert_ne!(value, VACANT, "LeafMap cannot store u32::MAX");
        let leaf = self
            .leaves
            .entry(key >> LEAF_BITS)
            .or_insert_with(Leaf::boxed);
        let old = std::mem::replace(&mut leaf.vals[(key & LEAF_MASK) as usize], value);
        if old != VACANT {
            return Some(old);
        }
        leaf.live += 1;
        self.len += 1;
        None
    }

    /// Remove `key`, returning its value; releases the leaf if it empties.
    #[inline]
    pub fn remove(&mut self, key: u32) -> Option<u32> {
        let lk = key >> LEAF_BITS;
        let leaf = self.leaves.get_mut(&lk)?;
        let old = std::mem::replace(&mut leaf.vals[(key & LEAF_MASK) as usize], VACANT);
        if old == VACANT {
            return None;
        }
        leaf.live -= 1;
        if leaf.live == 0 {
            self.leaves.remove(&lk);
        }
        self.len -= 1;
        Some(old)
    }

    /// Every `(key, value)`: leaves in hash order, keys ascending within a
    /// leaf.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.leaves
            .iter()
            .flat_map(|(&lk, leaf)| leaf.entries(lk << LEAF_BITS, 0, LEAF_LEN))
    }

    /// The `(key, value)` pairs with keys in `keys`, in ascending key
    /// order. Probes each leaf the range overlaps once.
    pub fn range(&self, keys: Range<u32>) -> impl Iterator<Item = (u32, u32)> + '_ {
        let Range { start, end } = keys;
        let leaf_keys = (start < end).then(|| start >> LEAF_BITS..=(end - 1) >> LEAF_BITS);
        leaf_keys.into_iter().flatten().flat_map(move |lk| {
            // The range's part of this leaf; `base < end` by construction.
            let base = lk << LEAF_BITS;
            let lo = (start.max(base) - base) as usize;
            let hi = (end - base).min(LEAF_LEN as u32) as usize;
            self.leaves
                .get(&lk)
                .into_iter()
                .flat_map(move |leaf| leaf.entries(base, lo, hi))
        })
    }

    /// Remove every entry, yielding each `(key, value)`. The leaf table
    /// keeps its capacity.
    pub fn drain(&mut self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.len = 0;
        self.leaves.drain().flat_map(|(lk, leaf)| {
            let base = lk << LEAF_BITS;
            (0..LEAF_LEN).filter_map(move |i| {
                let v = leaf.vals[i];
                (v != VACANT).then_some((base | i as u32, v))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of((7u64, 9u32)), hash_of((7u64, 9u32)));
        assert_ne!(hash_of((7u64, 9u32)), hash_of((9u64, 7u32)));
    }

    #[test]
    fn byte_writes_match_padding_rules() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        b.write_u64(9);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_are_usable() {
        let mut m: FxHashMap<(u64, u32), u64> = FxHashMap::default();
        m.insert((1, 2), 3);
        assert_eq!(m.get(&(1, 2)), Some(&3));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(5));
        assert!(!s.insert(5));
    }
}
