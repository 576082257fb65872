//! The original (pre-fast-path) tmem store, kept as a differential oracle.
//!
//! This is the seed implementation of the backend verbatim: nested
//! `BTreeMap<ObjectId, BTreeMap<PageIndex, P>>` per pool and
//! lazily-validated `VecDeque` candidate streams. It is retained for two
//! jobs only:
//!
//! * **equivalence testing** — the property suite drives random operation
//!   sequences through both this and [`crate::backend::TmemBackend`] and
//!   asserts identical observable outcomes (including eviction victims and
//!   reclaim order);
//! * **benchmark baseline** — the micros of the `smartmem-cli bench`
//!   record (`BENCH.json`) measure the fast path's speedup against this
//!   code, not against a guess.
//!
//! Do not use it in the simulator proper; it is deliberately the slow path.

use crate::backend::{PoolKind, PutOutcome};
use crate::error::TmemError;
use crate::key::{ObjectId, PageIndex, PoolId, TmemKey, VmId};
use crate::page::PagePayload;
use std::collections::{BTreeMap, HashMap, VecDeque};

#[derive(Debug)]
struct Pool<P> {
    owner: VmId,
    kind: PoolKind,
    objects: BTreeMap<ObjectId, BTreeMap<PageIndex, P>>,
    page_count: u64,
    put_order: VecDeque<(ObjectId, PageIndex)>,
}

impl<P> Pool<P> {
    fn new(owner: VmId, kind: PoolKind) -> Self {
        Pool {
            owner,
            kind,
            objects: BTreeMap::new(),
            page_count: 0,
            put_order: VecDeque::new(),
        }
    }
}

/// The seed backend: nested ordered maps, lazily-validated queues.
#[derive(Debug)]
pub struct ReferenceBackend<P> {
    capacity: u64,
    used: u64,
    pools: HashMap<PoolId, Pool<P>>,
    next_pool_id: u32,
    per_vm_used: HashMap<VmId, u64>,
    ephemeral_fifo: VecDeque<TmemKey>,
    evictions: u64,
}

impl<P: PagePayload> ReferenceBackend<P> {
    /// A backend owning `capacity` page frames.
    pub fn new(capacity: u64) -> Self {
        ReferenceBackend {
            capacity,
            used: 0,
            pools: HashMap::new(),
            next_pool_id: 0,
            per_vm_used: HashMap::new(),
            ephemeral_fifo: VecDeque::new(),
            evictions: 0,
        }
    }

    /// Total page-frame budget.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Frames currently holding pages.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Frames currently free.
    pub fn free_pages(&self) -> u64 {
        self.capacity - self.used
    }

    /// Frames consumed by pools owned by `vm`.
    pub fn used_by(&self, vm: VmId) -> u64 {
        self.per_vm_used.get(&vm).copied().unwrap_or(0)
    }

    /// Ephemeral pages evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Create a pool for `owner`.
    pub fn new_pool(&mut self, owner: VmId, kind: PoolKind) -> Result<PoolId, TmemError> {
        let id = PoolId(self.next_pool_id);
        self.next_pool_id = self
            .next_pool_id
            .checked_add(1)
            .ok_or(TmemError::PoolLimit)?;
        self.pools.insert(id, Pool::new(owner, kind));
        Ok(id)
    }

    /// Store a page (seed semantics; see `TmemBackend::put`).
    pub fn put(
        &mut self,
        pool_id: PoolId,
        object: ObjectId,
        index: PageIndex,
        payload: P,
    ) -> Result<PutOutcome, TmemError> {
        let pool = self.pools.get(&pool_id).ok_or(TmemError::NoSuchPool)?;
        let kind = pool.kind;
        let owner = pool.owner;

        let exists = pool
            .objects
            .get(&object)
            .is_some_and(|o| o.contains_key(&index));
        if exists {
            let pool = self.pools.get_mut(&pool_id).expect("pool checked above");
            pool.objects
                .get_mut(&object)
                .expect("object checked above")
                .insert(index, payload);
            return Ok(PutOutcome::Replaced);
        }

        let mut evicted = None;
        if self.used >= self.capacity {
            if kind == PoolKind::Ephemeral {
                evicted = self.evict_one_ephemeral();
            }
            if self.used >= self.capacity {
                return Err(TmemError::NoCapacity);
            }
        }

        let pool = self.pools.get_mut(&pool_id).expect("pool checked above");
        pool.objects
            .entry(object)
            .or_default()
            .insert(index, payload);
        pool.page_count += 1;
        self.used += 1;
        *self.per_vm_used.entry(owner).or_insert(0) += 1;
        match kind {
            PoolKind::Ephemeral => self
                .ephemeral_fifo
                .push_back(TmemKey::new(pool_id, object, index)),
            PoolKind::Persistent => {
                let pool = self.pools.get_mut(&pool_id).expect("pool checked above");
                pool.put_order.push_back((object, index));
            }
        }
        Ok(match evicted {
            Some(k) => PutOutcome::StoredAfterEviction(k),
            None => PutOutcome::Stored,
        })
    }

    /// Retrieve a page (exclusive for persistent pools).
    pub fn get(
        &mut self,
        pool_id: PoolId,
        object: ObjectId,
        index: PageIndex,
    ) -> Result<P, TmemError> {
        let pool = self.pools.get_mut(&pool_id).ok_or(TmemError::NoSuchPool)?;
        match pool.kind {
            PoolKind::Ephemeral => pool
                .objects
                .get(&object)
                .and_then(|o| o.get(&index))
                .cloned()
                .ok_or(TmemError::NoSuchPage),
            PoolKind::Persistent => {
                let owner = pool.owner;
                let obj = pool.objects.get_mut(&object).ok_or(TmemError::NoSuchPage)?;
                let payload = obj.remove(&index).ok_or(TmemError::NoSuchPage)?;
                if obj.is_empty() {
                    pool.objects.remove(&object);
                }
                pool.page_count -= 1;
                self.used -= 1;
                self.debit(owner, 1);
                Ok(payload)
            }
        }
    }

    /// Invalidate one page.
    pub fn flush_page(
        &mut self,
        pool_id: PoolId,
        object: ObjectId,
        index: PageIndex,
    ) -> Result<bool, TmemError> {
        let pool = self.pools.get_mut(&pool_id).ok_or(TmemError::NoSuchPool)?;
        let owner = pool.owner;
        let Some(obj) = pool.objects.get_mut(&object) else {
            return Ok(false);
        };
        if obj.remove(&index).is_none() {
            return Ok(false);
        }
        if obj.is_empty() {
            pool.objects.remove(&object);
        }
        pool.page_count -= 1;
        self.used -= 1;
        self.debit(owner, 1);
        Ok(true)
    }

    /// Invalidate every page of an object.
    pub fn flush_object(&mut self, pool_id: PoolId, object: ObjectId) -> Result<u64, TmemError> {
        let pool = self.pools.get_mut(&pool_id).ok_or(TmemError::NoSuchPool)?;
        let owner = pool.owner;
        let Some(obj) = pool.objects.remove(&object) else {
            return Ok(0);
        };
        let n = obj.len() as u64;
        pool.page_count -= n;
        self.used -= n;
        self.debit(owner, n);
        Ok(n)
    }

    /// Destroy a pool and free everything in it.
    pub fn destroy_pool(&mut self, pool_id: PoolId) -> Result<u64, TmemError> {
        let pool = self.pools.remove(&pool_id).ok_or(TmemError::NoSuchPool)?;
        self.used -= pool.page_count;
        self.debit(pool.owner, pool.page_count);
        Ok(pool.page_count)
    }

    /// True if the key currently holds a page.
    pub fn contains(&self, pool_id: PoolId, object: ObjectId, index: PageIndex) -> bool {
        self.pools
            .get(&pool_id)
            .and_then(|p| p.objects.get(&object))
            .is_some_and(|o| o.contains_key(&index))
    }

    /// Number of pages held by one pool.
    pub fn pool_page_count(&self, pool_id: PoolId) -> Option<u64> {
        self.pools.get(&pool_id).map(|p| p.page_count)
    }

    fn debit(&mut self, owner: VmId, n: u64) {
        if n == 0 {
            return;
        }
        let e = self
            .per_vm_used
            .get_mut(&owner)
            .expect("accounting entry must exist for owner with pages");
        debug_assert!(*e >= n, "per-VM accounting underflow");
        *e -= n;
    }

    /// Remove and return up to `max` of the oldest persistent pages of a
    /// pool.
    pub fn reclaim_oldest_persistent(
        &mut self,
        pool_id: PoolId,
        max: u64,
    ) -> Vec<(ObjectId, PageIndex)> {
        let mut out = Vec::new();
        while (out.len() as u64) < max {
            let Some(pool) = self.pools.get_mut(&pool_id) else {
                break;
            };
            debug_assert_eq!(pool.kind, PoolKind::Persistent);
            let Some((obj, idx)) = pool.put_order.pop_front() else {
                break;
            };
            if self.contains(pool_id, obj, idx) {
                self.flush_page(pool_id, obj, idx)
                    .expect("pool existed a moment ago");
                out.push((obj, idx));
            }
        }
        out
    }

    fn evict_one_ephemeral(&mut self) -> Option<TmemKey> {
        while let Some(key) = self.ephemeral_fifo.pop_front() {
            let still_there = self.contains(key.pool, key.object, key.index);
            if still_there {
                self.flush_page(key.pool, key.object, key.index)
                    .expect("pool existed a moment ago");
                self.evictions += 1;
                return Some(key);
            }
        }
        None
    }
}
