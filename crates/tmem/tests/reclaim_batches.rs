//! The slow reclaim takes its victims in batches: it unlinks a batch
//! from the queue and the page index, then verifies and frees it. This
//! test checks it against the reference backend's page-at-a-time victim
//! stream, with corrupt pages (withheld from the output) and tombstones
//! (consumed or flushed pages, and re-put keys that keep their old queue
//! place) interleaved in the queue.
//!
//! The reference knows nothing of corruption, so the expected outcome of
//! one reclaim is built from it one victim at a time: a victim the model
//! marks corrupt is dropped and leaves its place in the quota open, as in
//! the fast backend. Each reclaim must return the same keys, drop and
//! detect the same pages, and leave both VMs' usage equal to the
//! reference's; the reclaims that follow check what the batch left in
//! the queue.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tmem::backend::{accounting_consistent, PoolKind, TmemBackend};
use tmem::error::TmemError;
use tmem::key::{ObjectId, PageIndex, PoolId, VmId};
use tmem::page::Fingerprint;
use tmem::reference::ReferenceBackend;

type Key = (PoolId, ObjectId, PageIndex);

/// Quotas: one page, two, a batch shorter than the queue, and more than
/// the queue holds.
const MAXES: [u64; 4] = [1, 2, 7, 10_000];

struct Rig {
    fast: TmemBackend<Fingerprint>,
    refr: ReferenceBackend<Fingerprint>,
    pools: [PoolId; 2],
    /// Keys whose fast-backend payload is corrupt.
    corrupt: BTreeSet<Key>,
    /// Corrupt keys whose corruption a get has already detected.
    flagged: BTreeSet<Key>,
    version: u64,
}

impl Rig {
    fn new() -> Rig {
        let mut fast = TmemBackend::new(4096);
        let mut refr = ReferenceBackend::new(4096);
        fast.arm_corruption();
        let pools = [VmId(1), VmId(2)].map(|vm| {
            let p = fast.new_pool(vm, PoolKind::Persistent).unwrap();
            assert_eq!(refr.new_pool(vm, PoolKind::Persistent).unwrap(), p);
            p
        });
        Rig {
            fast,
            refr,
            pools,
            corrupt: BTreeSet::new(),
            flagged: BTreeSet::new(),
            version: 0,
        }
    }

    fn key(&self, pool: usize, obj: u64, idx: PageIndex) -> Key {
        (self.pools[pool], ObjectId(obj), idx)
    }

    fn put(&mut self, (p, o, i): Key) {
        self.version += 1;
        let page = Fingerprint::of((o.0 << 32) | u64::from(i), self.version);
        let fast = self.fast.put(p, o, i, page);
        assert_eq!(fast, self.refr.put(p, o, i, page));
        // A replacement stores clean bytes.
        self.corrupt.remove(&(p, o, i));
        self.flagged.remove(&(p, o, i));
    }

    fn get(&mut self, k @ (p, o, i): Key) {
        if self.corrupt.contains(&k) {
            // Correct-or-error: the page stays and is flagged as detected.
            assert_eq!(self.fast.get(p, o, i), Err(TmemError::Corrupt));
            self.flagged.insert(k);
        } else {
            assert_eq!(self.fast.get(p, o, i), self.refr.get(p, o, i));
        }
    }

    fn flush(&mut self, k @ (p, o, i): Key) {
        assert_eq!(self.fast.flush_page(p, o, i), self.refr.flush_page(p, o, i));
        self.corrupt.remove(&k);
        self.flagged.remove(&k);
    }

    fn corrupt(&mut self, k @ (p, o, i): Key) {
        if !self.corrupt.contains(&k) && self.fast.corrupt_page(p, o, i) {
            self.corrupt.insert(k);
            self.flagged.remove(&k);
        }
    }

    /// One reclaim of up to `max` pages from pool `pool` on both sides.
    fn reclaim(&mut self, pool: usize, max: u64) {
        let p = self.pools[pool];
        let (mut want, mut dropped, mut detected) = (Vec::new(), 0u64, 0u64);
        while (want.len() as u64) < max {
            let Some(&(o, i)) = self.refr.reclaim_oldest_persistent(p, 1).first() else {
                break;
            };
            if self.corrupt.remove(&(p, o, i)) {
                dropped += 1;
                detected += u64::from(!self.flagged.remove(&(p, o, i)));
            } else {
                want.push((o, i));
            }
        }
        let before = self.fast.integrity();
        let got = self.fast.reclaim_oldest_persistent(p, max);
        let after = self.fast.integrity();
        assert_eq!(got, want, "victims of a reclaim of {max}");
        assert_eq!(after.corrupt_dropped - before.corrupt_dropped, dropped);
        assert_eq!(after.detections - before.detections, detected);
        for vm in [VmId(1), VmId(2)] {
            assert_eq!(self.fast.used_by(vm), self.refr.used_by(vm), "{vm}");
        }
        assert_eq!(self.fast.used(), self.refr.used());
        assert!(accounting_consistent(&self.fast));
    }

    /// Reclaim pool `pool` with quota `max` until both sides run dry.
    fn reclaim_all(&mut self, pool: usize, max: u64) {
        while self.fast.pool_page_count(self.pools[pool]) != Some(0) {
            self.reclaim(pool, max);
        }
        self.reclaim(pool, max);
        assert_eq!(self.refr.pool_page_count(self.pools[pool]), Some(0));
    }
}

/// Pool 0's queue, oldest first (`c` corrupt, `C` corrupt and already
/// detected, `t` a tombstone, `r` a re-put key that kept its old place):
///
/// ```text
/// 0 1 2t 3 4c 5c 6t 7C 8 9c 10c 11c 12r 13 .. 23 (23 c) 24t 25 .. 39
/// ```
///
/// Object 1 holds indexes 0..16, object 2 the rest, so a batch also
/// retires an object in its middle. Pool 1 holds a few pages of VM 2.
fn seeded() -> Rig {
    let mut r = Rig::new();
    for i in 0..40 {
        let obj = if i < 16 { 1 } else { 2 };
        r.put(r.key(0, obj, i));
    }
    for i in 0..5 {
        r.put(r.key(1, 9, i));
    }
    r.get(r.key(0, 1, 2));
    r.flush(r.key(0, 1, 6));
    r.flush(r.key(0, 1, 12));
    r.put(r.key(0, 1, 12));
    r.flush(r.key(0, 2, 24));
    for i in [4, 5, 7, 9, 10, 11] {
        r.corrupt(r.key(0, 1, i));
    }
    r.corrupt(r.key(0, 2, 23));
    r.get(r.key(0, 1, 7));
    assert_eq!(r.corrupt.len(), 7, "every injection landed");
    assert_eq!(r.flagged.len(), 1);
    r
}

#[test]
fn batched_reclaim_matches_the_page_at_a_time_stream() {
    for max in MAXES {
        let mut r = seeded();
        r.reclaim_all(0, max);
        assert!(
            r.corrupt.is_empty(),
            "max {max}: every corrupt page dropped"
        );
        assert_eq!(r.fast.used_by(VmId(2)), 5, "max {max}: VM 2 untouched");
        r.reclaim_all(1, max);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Put(usize, u64, PageIndex),
    Get(usize, u64, PageIndex),
    Flush(usize, u64, PageIndex),
    Corrupt(usize, u64, PageIndex),
    Reclaim(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    let key = || (0..2usize, 0..3u64, 0..48 as PageIndex);
    prop_oneof![
        8 => key().prop_map(|(p, o, i)| Op::Put(p, o, i)),
        2 => key().prop_map(|(p, o, i)| Op::Get(p, o, i)),
        2 => key().prop_map(|(p, o, i)| Op::Flush(p, o, i)),
        3 => key().prop_map(|(p, o, i)| Op::Corrupt(p, o, i)),
        2 => (0..2usize, 0..MAXES.len()).prop_map(|(p, m)| Op::Reclaim(p, m)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random schedules of puts, exclusive gets, flushes, corruptions and
    /// reclaims with every quota, then each pool reclaimed dry.
    #[test]
    fn batched_reclaim_matches_the_reference_under_any_schedule(
        ops in proptest::collection::vec(op(), 1..200),
        last in 0..MAXES.len(),
    ) {
        let mut r = Rig::new();
        for op in ops {
            match op {
                Op::Put(p, o, i) => r.put(r.key(p, o, i)),
                Op::Get(p, o, i) => r.get(r.key(p, o, i)),
                Op::Flush(p, o, i) => r.flush(r.key(p, o, i)),
                Op::Corrupt(p, o, i) => r.corrupt(r.key(p, o, i)),
                Op::Reclaim(p, m) => r.reclaim(p, MAXES[m]),
            }
        }
        r.reclaim_all(0, MAXES[last]);
        r.reclaim_all(1, MAXES[last]);
    }
}
