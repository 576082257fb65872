//! Differential property test: the flat-map fast-path backend must be
//! observably indistinguishable from the original nested-`BTreeMap`
//! implementation ([`tmem::reference::ReferenceBackend`]).
//!
//! Random operation sequences — puts, gets, flushes, object flushes,
//! persistent reclaim and pool teardown, over a mix of persistent and
//! ephemeral pools at tight capacities that force evictions — are driven
//! through both stores in lockstep. Every return value must agree,
//! including the *identity* of evicted ephemeral pages
//! (`PutOutcome::StoredAfterEviction`) and the exact persistent reclaim
//! victim stream, since figure output depends on those orders.

use proptest::prelude::*;
use sim_core::faults::{FaultInjector, FaultProfile, SampleFate};
use tmem::backend::{accounting_consistent, PoolKind, TmemBackend};
use tmem::key::{ObjectId, PageIndex, PoolId, VmId};
use tmem::page::Fingerprint;
use tmem::reference::ReferenceBackend;

#[derive(Debug, Clone)]
enum Op {
    Put {
        pool: u8,
        obj: u8,
        idx: u8,
        val: u64,
    },
    Get {
        pool: u8,
        obj: u8,
        idx: u8,
    },
    FlushPage {
        pool: u8,
        obj: u8,
        idx: u8,
    },
    FlushObject {
        pool: u8,
        obj: u8,
    },
    Reclaim {
        pool: u8,
        max: u8,
    },
    DestroyPool {
        pool: u8,
    },
}

/// Operation mix with explicit weights, so besides the balanced default
/// the suite can skew toward the bulk teardown paths (`flush_object`,
/// `destroy_pool`) whose per-object index rewrite made them O(pages
/// touched).
fn weighted_op_strategy(
    put: u32,
    get: u32,
    flush_page: u32,
    flush_object: u32,
    reclaim: u32,
    destroy: u32,
) -> impl Strategy<Value = Op> {
    prop_oneof![
        put => (0..4u8, 0..3u8, 0..16u8, any::<u64>())
            .prop_map(|(pool, obj, idx, val)| Op::Put { pool, obj, idx, val }),
        get => (0..4u8, 0..3u8, 0..16u8).prop_map(|(pool, obj, idx)| Op::Get { pool, obj, idx }),
        flush_page => (0..4u8, 0..3u8, 0..16u8)
            .prop_map(|(pool, obj, idx)| Op::FlushPage { pool, obj, idx }),
        flush_object => (0..4u8, 0..3u8).prop_map(|(pool, obj)| Op::FlushObject { pool, obj }),
        reclaim => (0..2u8, 1..6u8).prop_map(|(pool, max)| Op::Reclaim { pool, max }),
        destroy => (0..4u8).prop_map(|pool| Op::DestroyPool { pool }),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    weighted_op_strategy(8, 4, 3, 2, 2, 1)
}

/// Spread the 16 page indexes across the leaf boundaries at 64, 128, 192
/// and 256 of the backend's per-object index (64-entry leaves), so one
/// object spans leaves that fill, empty and are released.
fn across_leaves(op: Op) -> Op {
    const SPREAD: [u8; 16] = [
        0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 190, 191, 192, 193, 254, 255,
    ];
    let spread = |idx: u8| SPREAD[idx as usize];
    match op {
        Op::Put {
            pool,
            obj,
            idx,
            val,
        } => Op::Put {
            pool,
            obj,
            idx: spread(idx),
            val,
        },
        Op::Get { pool, obj, idx } => Op::Get {
            pool,
            obj,
            idx: spread(idx),
        },
        Op::FlushPage { pool, obj, idx } => Op::FlushPage {
            pool,
            obj,
            idx: spread(idx),
        },
        other => other,
    }
}

/// Drive one operation sequence through both backends in lockstep,
/// asserting every observable agrees after every step. With
/// `recreate_destroyed`, a destroyed pool is immediately re-created (in
/// both backends, with id agreement asserted) so destroy-heavy mixes keep
/// exercising live-pool traffic instead of degenerating into `NoSuchPool`
/// agreement checks.
fn drive_lockstep(
    ops: Vec<Op>,
    capacity: u64,
    recreate_destroyed: bool,
) -> Result<(), TestCaseError> {
    let mut fast: TmemBackend<Fingerprint> = TmemBackend::new(capacity);
    let mut refr: ReferenceBackend<Fingerprint> = ReferenceBackend::new(capacity);
    let kinds = [
        (VmId(1), PoolKind::Persistent),
        (VmId(2), PoolKind::Persistent),
        (VmId(1), PoolKind::Ephemeral),
        (VmId(2), PoolKind::Ephemeral),
    ];
    let mut pools: Vec<PoolId> = Vec::new();
    for (vm, kind) in kinds {
        let a = fast.new_pool(vm, kind).unwrap();
        let b = refr.new_pool(vm, kind).unwrap();
        prop_assert_eq!(a, b, "pool id allocation must agree");
        pools.push(a);
    }
    let mut destroyed = [false; 4];

    for op in ops {
        match op {
            Op::Put {
                pool,
                obj,
                idx,
                val,
            } => {
                let p = pools[pool as usize];
                let (o, i) = (ObjectId(obj as u64), idx as PageIndex);
                let payload = Fingerprint::of(val, 0);
                prop_assert_eq!(
                    fast.put(p, o, i, payload),
                    refr.put(p, o, i, payload),
                    "put({:?},{:?},{})",
                    p,
                    o,
                    i
                );
            }
            Op::Get { pool, obj, idx } => {
                let p = pools[pool as usize];
                let (o, i) = (ObjectId(obj as u64), idx as PageIndex);
                prop_assert_eq!(
                    fast.get(p, o, i),
                    refr.get(p, o, i),
                    "get({:?},{:?},{})",
                    p,
                    o,
                    i
                );
            }
            Op::FlushPage { pool, obj, idx } => {
                let p = pools[pool as usize];
                let (o, i) = (ObjectId(obj as u64), idx as PageIndex);
                prop_assert_eq!(fast.flush_page(p, o, i), refr.flush_page(p, o, i));
            }
            Op::FlushObject { pool, obj } => {
                let p = pools[pool as usize];
                let o = ObjectId(obj as u64);
                prop_assert_eq!(fast.flush_object(p, o), refr.flush_object(p, o));
            }
            Op::Reclaim { pool, max } => {
                let p = pools[pool as usize];
                if destroyed[pool as usize] {
                    continue; // reference reclaim asserts pool kind
                }
                prop_assert_eq!(
                    fast.reclaim_oldest_persistent(p, max as u64),
                    refr.reclaim_oldest_persistent(p, max as u64),
                    "reclaim victim streams diverged"
                );
            }
            Op::DestroyPool { pool } => {
                let p = pools[pool as usize];
                prop_assert_eq!(fast.destroy_pool(p), refr.destroy_pool(p));
                destroyed[pool as usize] = true;
                if recreate_destroyed {
                    let (vm, kind) = kinds[pool as usize];
                    let a = fast.new_pool(vm, kind).unwrap();
                    let b = refr.new_pool(vm, kind).unwrap();
                    prop_assert_eq!(a, b, "recreated pool ids must agree");
                    pools[pool as usize] = a;
                    destroyed[pool as usize] = false;
                }
            }
        }
        // Node-level observables after every step.
        prop_assert_eq!(fast.used(), refr.used());
        prop_assert_eq!(fast.free_pages(), refr.free_pages());
        prop_assert_eq!(fast.evictions(), refr.evictions());
        prop_assert_eq!(fast.used_by(VmId(1)), refr.used_by(VmId(1)));
        prop_assert_eq!(fast.used_by(VmId(2)), refr.used_by(VmId(2)));
        prop_assert!(accounting_consistent(&fast));
    }

    // Final sweep: page-level agreement over the whole key space.
    for (pi, &p) in pools.iter().enumerate() {
        prop_assert_eq!(fast.pool_page_count(p), refr.pool_page_count(p));
        if destroyed[pi] {
            continue;
        }
        for obj in 0..3u64 {
            for idx in 0..16u32 {
                prop_assert_eq!(
                    fast.contains(p, ObjectId(obj), idx),
                    refr.contains(p, ObjectId(obj), idx),
                    "contains({:?},{},{})",
                    p,
                    obj,
                    idx
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pools 0–1 persistent (VM1/VM2), pools 2–3 ephemeral (VM1/VM2).
    /// `Reclaim` only targets persistent pools, matching the hypervisor's
    /// use; everything else hits all four.
    #[test]
    fn fast_backend_matches_reference_semantics(
        ops in proptest::collection::vec(op_strategy(), 1..160),
        capacity in 1u64..24,
    ) {
        drive_lockstep(ops, capacity, false)?;
    }

    /// Flush-heavy mix — 7/18 of operations are `FlushObject` and
    /// another 2/18 `FlushPage` (≥25% flush traffic), hammering the
    /// per-object index drain and its queue-tombstone interaction.
    #[test]
    fn flush_heavy_mix_matches_reference(
        ops in proptest::collection::vec(weighted_op_strategy(5, 2, 2, 7, 1, 1), 1..160),
        capacity in 1u64..24,
    ) {
        drive_lockstep(ops, capacity, false)?;
    }

    /// Destroy-heavy mix — 5/18 of operations tear a whole pool down
    /// (plus 5/18 flush ops); destroyed pools are re-created on the spot
    /// so the stream keeps hitting live pools and fresh pool ids.
    #[test]
    fn destroy_pool_heavy_mix_matches_reference(
        ops in proptest::collection::vec(weighted_op_strategy(5, 2, 2, 3, 1, 5), 1..160),
        capacity in 1u64..24,
    ) {
        drive_lockstep(ops, capacity, true)?;
    }

    /// Objects whose pages straddle leaf boundaries of the per-object
    /// index: puts, gets, flushes and reclaim create and release leaves.
    #[test]
    fn objects_spanning_leaves_match_reference(
        ops in proptest::collection::vec(op_strategy().prop_map(across_leaves), 1..160),
        capacity in 1u64..24,
    ) {
        drive_lockstep(ops, capacity, false)?;
    }

    /// Robustness satellite: the backends stay in lockstep when a random
    /// *fault schedule* perturbs the operation stream exactly the way the
    /// control plane's sample channel perturbs VIRQ samples — operations
    /// dropped, duplicated, or delayed one slot (a delayed op lands before
    /// the next one, mirroring [`SampleFate::Delay`]'s one-slot buffer).
    /// Both backends see the *same* perturbed stream, so every observable
    /// must still agree, and — the chaos suite's core invariant — tmem
    /// accounting must stay consistent after every step no matter what the
    /// schedule does: `used ≤ capacity` and per-VM usage sums to the total.
    #[test]
    fn backends_agree_under_randomized_fault_schedules(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 1u64..24,
        fault_seed in any::<u64>(),
        drop_p in 0.0f64..0.4,
        delay_p in 0.0f64..0.2,
        dup_p in 0.0f64..0.2,
    ) {
        let profile = FaultProfile {
            virq_drop: drop_p,
            virq_delay: delay_p,
            virq_duplicate: dup_p,
            ..FaultProfile::none()
        };
        prop_assert!(profile.validate().is_ok());
        let mut inj = FaultInjector::new(profile, fault_seed);

        let mut fast: TmemBackend<Fingerprint> = TmemBackend::new(capacity);
        let mut refr: ReferenceBackend<Fingerprint> = ReferenceBackend::new(capacity);
        let kinds = [
            (VmId(1), PoolKind::Persistent),
            (VmId(2), PoolKind::Persistent),
            (VmId(1), PoolKind::Ephemeral),
            (VmId(2), PoolKind::Ephemeral),
        ];
        let mut pools: Vec<PoolId> = Vec::new();
        for (vm, kind) in kinds {
            let a = fast.new_pool(vm, kind).unwrap();
            let b = refr.new_pool(vm, kind).unwrap();
            prop_assert_eq!(a, b);
            pools.push(a);
        }
        let mut destroyed = [false; 4];

        let mut delayed: Option<Op> = None;
        for op in ops {
            // The fault schedule decides this op's fate; a previously
            // delayed op is flushed first, like the sample channel.
            let mut batch: Vec<Op> = delayed.take().into_iter().collect();
            match inj.sample_fate() {
                SampleFate::Deliver => batch.push(op),
                SampleFate::Drop => {}
                SampleFate::Delay => delayed = Some(op),
                SampleFate::Duplicate => {
                    batch.push(op.clone());
                    batch.push(op);
                }
            }
            for op in batch {
                match op {
                    Op::Put { pool, obj, idx, val } => {
                        let p = pools[pool as usize];
                        let (o, i) = (ObjectId(obj as u64), idx as PageIndex);
                        let payload = Fingerprint::of(val, 0);
                        prop_assert_eq!(fast.put(p, o, i, payload), refr.put(p, o, i, payload));
                    }
                    Op::Get { pool, obj, idx } => {
                        let p = pools[pool as usize];
                        let (o, i) = (ObjectId(obj as u64), idx as PageIndex);
                        prop_assert_eq!(fast.get(p, o, i), refr.get(p, o, i));
                    }
                    Op::FlushPage { pool, obj, idx } => {
                        let p = pools[pool as usize];
                        let (o, i) = (ObjectId(obj as u64), idx as PageIndex);
                        prop_assert_eq!(fast.flush_page(p, o, i), refr.flush_page(p, o, i));
                    }
                    Op::FlushObject { pool, obj } => {
                        let p = pools[pool as usize];
                        let o = ObjectId(obj as u64);
                        prop_assert_eq!(fast.flush_object(p, o), refr.flush_object(p, o));
                    }
                    Op::Reclaim { pool, max } => {
                        if destroyed[pool as usize] {
                            continue;
                        }
                        let p = pools[pool as usize];
                        prop_assert_eq!(
                            fast.reclaim_oldest_persistent(p, max as u64),
                            refr.reclaim_oldest_persistent(p, max as u64)
                        );
                    }
                    Op::DestroyPool { pool } => {
                        let p = pools[pool as usize];
                        prop_assert_eq!(fast.destroy_pool(p), refr.destroy_pool(p));
                        destroyed[pool as usize] = true;
                    }
                }
                // Accounting holds after every delivered operation.
                prop_assert_eq!(fast.used(), refr.used());
                prop_assert!(accounting_consistent(&fast));
                prop_assert!(fast.used() <= capacity, "used exceeds capacity");
                prop_assert_eq!(
                    fast.used_by(VmId(1)) + fast.used_by(VmId(2)),
                    fast.used(),
                    "per-VM usage must sum to the node total"
                );
            }
        }
        // Whatever the schedule injected, the ledger only ever counted
        // fates it actually drew.
        let l = inj.ledger();
        prop_assert_eq!(
            l.injected(),
            l.samples_dropped + l.samples_delayed + l.samples_duplicated
        );
    }
}
