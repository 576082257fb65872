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

/// No leaf: an empty free list, or no remembered leaf. Leaf keys are at
/// most `u32::MAX >> 6` and leaf indexes stay below them, so it is never
/// either.
const NONE: u32 = u32::MAX;

/// 64 consecutive keys' values, [`VACANT`] where absent.
#[derive(Debug)]
struct Leaf {
    vals: [u32; LEAF_LEN],
    /// Entries that are not vacant; the leaf is released at zero. A
    /// released leaf, all vacant, holds the index of the next released
    /// one here instead.
    live: u32,
}

impl Leaf {
    const EMPTY: Leaf = Leaf {
        vals: [VACANT; LEAF_LEN],
        live: 0,
    };

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
/// walks one leaf's array. Leaves live in one `Vec`; a leaf that empties
/// leaves the table at once and its storage goes on a free list for the
/// next new leaf, so every tabled leaf holds at least one key: an isolated
/// key costs a whole leaf (~260 B), which is why the map suits dense keys
/// only. The storage itself is released when the map empties. Values must
/// not be `u32::MAX`, which marks a vacant entry.
///
/// The map remembers the last leaf a mutation touched, and every
/// operation on a key of that leaf skips the table probe: the datapath's
/// keys (a tmem object's page indexes, a guest's swap slots) arrive in
/// runs of neighbours.
///
/// Iteration visits leaves in hash order and each leaf in ascending key
/// order; [`LeafMap::range`] is fully ascending. Both are deterministic,
/// and both depend only on the sequence of keys inserted and removed.
#[derive(Debug)]
pub struct LeafMap {
    /// `key >> 6` → index of its leaf in `leaves`.
    table: FxHashMap<u32, u32>,
    leaves: Vec<Leaf>,
    /// The first released leaf, reused before `leaves` grows ([`NONE`]
    /// when there is none); each links to the next through its `live`.
    free: u32,
    /// The last leaf a mutation touched, as `(key >> 6, index)`: always a
    /// tabled leaf, or [`NONE`] as the leaf key.
    last: (u32, u32),
    len: usize,
}

impl Default for LeafMap {
    fn default() -> Self {
        LeafMap {
            table: FxHashMap::default(),
            leaves: Vec::new(),
            free: NONE,
            last: (NONE, NONE),
            len: 0,
        }
    }
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
        self.table.len()
    }

    /// Index of the tabled leaf with leaf key `lk`: the remembered leaf
    /// without a probe, else a table lookup.
    #[inline]
    fn find(&self, lk: u32) -> Option<u32> {
        if self.last.0 == lk {
            return Some(self.last.1);
        }
        self.table.get(&lk).copied()
    }

    /// The value stored at `key`.
    #[inline]
    pub fn get(&self, key: u32) -> Option<u32> {
        let i = self.find(key >> LEAF_BITS)?;
        let v = self.leaves[i as usize].vals[(key & LEAF_MASK) as usize];
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
        let lk = key >> LEAF_BITS;
        let i = match self.find(lk) {
            Some(i) => i,
            None => self.new_leaf(lk),
        };
        self.last = (lk, i);
        let leaf = &mut self.leaves[i as usize];
        let old = std::mem::replace(&mut leaf.vals[(key & LEAF_MASK) as usize], value);
        if old != VACANT {
            return Some(old);
        }
        leaf.live += 1;
        self.len += 1;
        None
    }

    /// Table a fresh leaf under `lk`, reusing released storage first.
    #[inline]
    fn new_leaf(&mut self, lk: u32) -> u32 {
        let i = if self.free != NONE {
            let i = self.free;
            let leaf = &mut self.leaves[i as usize];
            self.free = std::mem::replace(&mut leaf.live, 0);
            i
        } else {
            self.leaves.push(Leaf::EMPTY);
            (self.leaves.len() - 1) as u32
        };
        // Iteration order follows the table's layout, which depends on
        // the exact calls made on it; the pinned outputs were recorded
        // with leaves tabled through `entry`.
        self.table.entry(lk).or_insert(i);
        i
    }

    /// Remove `key`, returning its value; releases the leaf if it empties.
    #[inline]
    pub fn remove(&mut self, key: u32) -> Option<u32> {
        let lk = key >> LEAF_BITS;
        let i = self.find(lk)?;
        self.last = (lk, i);
        let leaf = &mut self.leaves[i as usize];
        let old = std::mem::replace(&mut leaf.vals[(key & LEAF_MASK) as usize], VACANT);
        if old == VACANT {
            return None;
        }
        leaf.live -= 1;
        self.len -= 1;
        if leaf.live == 0 {
            self.release_leaf(lk, i);
        }
        Some(old)
    }

    /// Untable the emptied leaf `i` and forget it; its storage is kept
    /// for reuse unless the map is now empty, when all of it is freed
    /// (the table keeps its capacity).
    fn release_leaf(&mut self, lk: u32, i: u32) {
        self.table.remove(&lk);
        self.last = (NONE, NONE);
        if self.len == 0 {
            self.leaves = Vec::new();
            self.free = NONE;
        } else {
            self.leaves[i as usize].live = self.free;
            self.free = i;
        }
    }

    /// Every `(key, value)`: leaves in hash order, keys ascending within a
    /// leaf.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.table
            .iter()
            .flat_map(|(&lk, &i)| self.leaves[i as usize].entries(lk << LEAF_BITS, 0, LEAF_LEN))
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
            self.find(lk)
                .into_iter()
                .flat_map(move |i| self.leaves[i as usize].entries(base, lo, hi))
        })
    }

    /// Remove every entry, yielding each `(key, value)`. The leaf table
    /// keeps its capacity; the leaves' storage is released.
    pub fn drain(&mut self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.len = 0;
        self.last = (NONE, NONE);
        self.free = NONE;
        let leaves = std::mem::take(&mut self.leaves);
        self.table.drain().flat_map(move |(lk, i)| {
            let vals = leaves[i as usize].vals;
            let base = lk << LEAF_BITS;
            (0..LEAF_LEN)
                .filter_map(move |j| (vals[j] != VACANT).then_some((base | j as u32, vals[j])))
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
