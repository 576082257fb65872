//! The tmem key–value page store.
//!
//! Semantics follow Xen's `common/tmem.c` as described in the paper and in
//! Magenheimer et al. (OLS 2009):
//!
//! * **Persistent pools (frontswap).** A successful `put` consumes one page
//!   frame; `get` is *exclusive* — it returns the page and frees the frame
//!   (a swap slot is read back exactly once before being invalidated).
//!   When no frame is free the put fails and the guest falls back to disk.
//! * **Ephemeral pools (cleancache).** Pages are a cache of clean pagecache
//!   data: `get` returns a copy and leaves the page, and when the node is
//!   out of frames a new ephemeral put may recycle the least-recently-added
//!   ephemeral page. Persistent pages are never evicted.
//! * `flush_page` / `flush_object` invalidate one page / every page of an
//!   object; `destroy_pool` drops everything a VM owns (VM teardown or
//!   process exit invalidating its swap slots).
//!
//! The backend also maintains the node-level accounting the paper's
//! Table I calls `node_info.free_tmem` and per-VM `tmem_used`.
//!
//! # Datapath layout
//!
//! Each object's pages live in a [`LeafMap`] from `PageIndex` to arena
//! slot: 64-entry leaves of 4-byte slot numbers, found through an
//! Fx-hashed map keyed by `index >> 6`. This mirrors Xen's tmem, which
//! keeps an object's pages in a radix tree keyed by page index. The keys
//! are dense — frontswap's index is the swap offset, cleancache's the file
//! offset, and a kernel evicts and faults runs of neighbouring pages — so
//! a leaf is shared by up to 64 stored pages: a page costs 4 bytes of
//! index plus a share of its leaf, and a run of operations on neighbouring
//! indexes re-probes one small leaf table instead of missing the cache
//! once per page in a hash map with one entry per page; the map remembers
//! the last leaf a mutation touched, so most of such a run skips even that
//! probe. An emptied leaf leaves the table at once, and its storage serves
//! the next new leaf.
//!
//! Objects are reached through a small `ObjectId → object slot` map with
//! an MRU-object cache on the pool: runs of operations against one object
//! (the dominant guest pattern) skip the outer lookup entirely. This
//! replaces the original nested `BTreeMap<ObjectId, BTreeMap<..>>` layout
//! (kept as [`crate::reference::ReferenceBackend`] for differential
//! testing and as the bench baseline), the flat `(ObjectId, PageIndex) →
//! payload` map of the first datapath round, whose `flush_object` cold
//! path was a full-pool scan + sort, and the per-object hash map of one
//! entry per page that followed it.
//!
//! `flush_object` and `destroy_pool` are O(pages actually present): they
//! drain the object's own index and park it (leaf table capacity intact)
//! on a per-pool free list, so object churn reuses warm storage instead of
//! reallocating. Removal order within an object is leaf-table order, not
//! sorted — it is unobservable (`flush_object` returns only a count) and
//! still deterministic, since FxHash is unseeded. Payloads themselves sit
//! in a [`PageArena`] slab addressed by slot handles, which keeps index
//! entries small and lets put/flush churn reuse freed payload slots
//! instead of calling the allocator. Pool lookup is an array index (pool
//! ids are allocated sequentially and never reused) and per-VM accounting
//! is a dense counter slot ([`VmSlot`]) cached on the pool, so neither
//! costs a hash probe on the hot path; the hypervisor keeps its per-VM
//! state by the same slot.
//!
//! The eviction/reclaim candidate queues hold tombstones for pages that
//! were flushed or consumed after being queued; they are validated lazily
//! on pop, and swept once tombstones outnumber live entries (see
//! `TOMBSTONE_SLACK`). Queue memory stays proportional to live pages
//! plus surviving ghosts, and each entry is popped at most once.
//!
//! # Integrity
//!
//! Every stored page carries the checksum recorded at put time
//! ([`PagePayload::checksum`]), re-verified whenever the page leaves the
//! store (get, flush, reclaim, destroy) and by the periodic
//! [`TmemBackend::scrub`] pass. The tmem contract is asymmetric and the
//! verification enforces exactly that asymmetry:
//!
//! * **persistent** pages are correct-or-error — a corrupt page stays in
//!   place and every get returns [`TmemError::Corrupt`] until the guest
//!   flushes it or the scrubber quarantines its object; wrong bytes are
//!   never returned;
//! * **ephemeral** pages are correct-or-miss — a corrupt page is dropped on
//!   detection so the next get is a clean miss, matching cleancache's
//!   "may vanish at any time" license.
//!
//! Detections are counted once per page (a `flagged` bit dedups) in
//! monotonic [`IntegrityCounters`] that the hypervisor diffs around
//! operations to attribute faults without threading detection state
//! through every return type. Fault injection itself lives in the
//! hypervisor; the backend only offers [`TmemBackend::corrupt_page`],
//! which cross-wires a page's payload with an earlier, different payload
//! (kept only while [`TmemBackend::arm_corruption`] is on) while leaving
//! the recorded checksum alone — genuinely wrong bytes with guaranteed
//! detection, generic over any payload type.

use crate::error::TmemError;
use crate::fastmap::{FxHashMap, LeafMap};
use crate::key::{ObjectId, PageIndex, PoolId, TmemKey, VmId};
use crate::page::{PageArena, PagePayload, SlotHandle};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Compaction slack: a candidate queue is swept once it holds more than
/// `2 × live + TOMBSTONE_SLACK` entries. While sweeps remove the tombstone
/// half of the queue this is amortized O(1) per queued entry; the additive
/// slack keeps tiny pools from sweeping on every other operation.
///
/// One caveat is deliberate: a sweep keeps every entry whose key is live
/// *at sweep time*, including revived ghost entries (see
/// [`Pool::put_order`]), so a workload that fully drains a pool and then
/// re-puts the very same keys can hold the queue above the trigger with
/// little for the sweep to remove. That retention — and the exact sweep
/// points — is observable through the reclaim victim stream and is pinned
/// by the differential proptest and the scenario goldens, so the trigger
/// must not be "improved" (e.g. rate-limited) without regenerating both.
const TOMBSTONE_SLACK: usize = 16;

/// Whether a pool's contents must survive until flushed (frontswap) or may
/// be dropped under pressure (cleancache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Frontswap-backed: contents are the only copy, gets are exclusive.
    Persistent,
    /// Cleancache-backed: contents are a clean cache, evictable, gets copy.
    Ephemeral,
}

/// Outcome of a successful put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// A new page frame was consumed.
    Stored,
    /// The key already existed; its contents were replaced in place and no
    /// new frame was consumed.
    Replaced,
    /// A new frame was obtained by evicting an ephemeral page (the evicted
    /// key is carried for observability).
    StoredAfterEviction(TmemKey),
    /// The page was spilled to the host's far-memory tier instead of local
    /// tmem. Never produced by [`TmemBackend::put`] itself — the hypervisor
    /// synthesizes it when a `NoCapacity` put lands in the far tier — but it
    /// lives here so every put caller matches one outcome type.
    StoredFar,
}

/// A VM's dense accounting slot in one [`TmemBackend`]: the index of its
/// frame counter. A backend hands each `VmId` one slot, the first time it
/// sees the id, and never gives that slot to another id, so a caller may
/// keep per-VM state in a `Vec` indexed by [`VmSlot::index`] and reach it
/// from a pool through [`TmemBackend::pool_owner`] without a map probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmSlot(u32);

impl VmSlot {
    /// The slot as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A pool's owner as [`TmemBackend::pool_owner`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolOwner {
    /// The owning VM.
    pub vm: VmId,
    /// The owner's accounting slot.
    pub slot: VmSlot,
    /// The pool's kind.
    pub kind: PoolKind,
}

/// One object's pages: index → payload slot number ([`SlotHandle`]).
type ObjectPages = LeafMap;

/// What [`TmemBackend::export_pool`] hands the migration path: the
/// surviving pages in `(object, index)` order, plus the number of corrupt
/// pages purged at the boundary.
pub type ExportedPool<P> = (Vec<(ObjectId, PageIndex, P)>, u64);

/// Arena entry: the payload plus the integrity summary recorded when it was
/// put. `flagged` marks pages whose corruption has already been counted, so
/// repeated gets of a stuck persistent page report one detection, not many.
#[derive(Debug)]
struct StoredPage<P> {
    payload: P,
    sum: u64,
    flagged: bool,
}

/// Monotonic integrity counters, diffed by the hypervisor around operations
/// to attribute detections to the op that surfaced them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityCounters {
    /// Distinct corrupt pages detected (each page counted once).
    pub detections: u64,
    /// Pages silently removed because they were corrupt: ephemeral pages
    /// dropped on get, reclaim victims withheld from the swap writeback.
    /// Explicit removals (guest flushes, evictions) are not counted here —
    /// their occupancy change is already visible to the caller.
    pub corrupt_dropped: u64,
}

/// One object removed wholesale by the scrubber because at least one of its
/// pages failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedObject {
    /// Pool the object lived in.
    pub pool: PoolId,
    /// VM owning that pool (for fault attribution).
    pub owner: VmId,
    /// The quarantined object.
    pub object: ObjectId,
    /// Pages removed with it (corrupt and clean alike).
    pub pages: u64,
}

/// Result of one [`TmemBackend::scrub`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Pages whose checksums were verified this pass.
    pub pages_checked: u64,
    /// Pages that failed verification this pass.
    pub corrupt_pages: u64,
    /// Objects removed, in (pool id, object id) order.
    pub quarantined: Vec<QuarantinedObject>,
    /// Whether the accounting invariants held ([`accounting_consistent`]).
    pub accounting_ok: bool,
}

#[derive(Debug)]
struct Pool {
    owner: VmId,
    /// Index of the owner's counter in [`TmemBackend::vm_used`] — cached so
    /// accounting on the hot path is an array access, not a hash probe.
    owner_slot: u32,
    kind: PoolKind,
    /// Live objects → index into `obj_slots`.
    objects: FxHashMap<ObjectId, u32>,
    /// Per-object page indexes, indexed by object slot. Emptied indexes
    /// are parked on `free_objs` with their leaf tables' capacity intact,
    /// so object churn reuses warm storage.
    obj_slots: Vec<ObjectPages>,
    free_objs: Vec<u32>,
    /// Most-recently-used object: consecutive operations on one object (the
    /// dominant access pattern) skip the `objects` probe.
    mru: Option<(ObjectId, u32)>,
    /// Live pages across all objects in this pool.
    page_count: u64,
    /// Persistent pages in put order (oldest first) — the candidate stream
    /// for the hypervisor's slow reclaim. Entries whose page has since been
    /// consumed or flushed are tombstones, skipped on pop and swept out by
    /// [`Pool::maybe_compact`]. A tombstone whose key is later re-put
    /// *revives*: the key keeps its original queue position, exactly as in
    /// the reference backend's never-compacted queue, so sweeps must keep
    /// every entry whose key is currently live.
    put_order: VecDeque<(ObjectId, PageIndex)>,
}

impl Pool {
    fn new(owner: VmId, owner_slot: u32, kind: PoolKind) -> Self {
        Pool {
            owner,
            owner_slot,
            kind,
            objects: FxHashMap::default(),
            obj_slots: Vec::new(),
            free_objs: Vec::new(),
            mru: None,
            page_count: 0,
            put_order: VecDeque::new(),
        }
    }

    /// Object slot of an existing object, through the MRU cache.
    #[inline]
    fn obj_slot(&mut self, object: ObjectId) -> Option<u32> {
        if let Some((o, s)) = self.mru {
            if o == object {
                return Some(s);
            }
        }
        let s = *self.objects.get(&object)?;
        self.mru = Some((object, s));
        Some(s)
    }

    /// Object slot lookup, registering the object if it is new (put path).
    #[inline]
    fn obj_slot_or_create(&mut self, object: ObjectId) -> u32 {
        if let Some((o, s)) = self.mru {
            if o == object {
                return s;
            }
        }
        let s = match self.objects.entry(object) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(v) => match self.free_objs.pop() {
                Some(s) => {
                    debug_assert!(self.obj_slots[s as usize].is_empty());
                    *v.insert(s)
                }
                None => {
                    let s = self.obj_slots.len() as u32;
                    self.obj_slots.push(ObjectPages::default());
                    *v.insert(s)
                }
            },
        };
        self.mru = Some((object, s));
        s
    }

    /// Unregister an object whose page map just became empty, parking its
    /// storage (capacity intact) for reuse by the next new object.
    #[inline]
    fn retire_object(&mut self, object: ObjectId, slot: u32) {
        self.objects.remove(&object);
        self.free_objs.push(slot);
        if self.mru.is_some_and(|(o, _)| o == object) {
            self.mru = None;
        }
    }

    /// True if `(object, index)` currently holds a page. Immutable lookup
    /// (no MRU update) for queue-compaction predicates and `contains`.
    #[inline]
    fn contains_key(&self, object: ObjectId, index: PageIndex) -> bool {
        self.objects
            .get(&object)
            .is_some_and(|&s| self.obj_slots[s as usize].contains_key(index))
    }

    fn page_count(&self) -> u64 {
        self.page_count
    }

    /// Sweep tombstones once they dominate the reclaim queue (see
    /// [`TOMBSTONE_SLACK`] for the trigger and why its timing is pinned by
    /// the goldens). Every live persistent page is in `put_order`, so
    /// `page_count` is the live count. The check is inline; the scan itself
    /// is kept out of line so the put hot path stays one compare.
    #[inline]
    fn maybe_compact(&mut self) {
        if self.put_order.len() > 2 * self.page_count as usize + TOMBSTONE_SLACK {
            self.compact_put_order();
        }
    }

    #[cold]
    #[inline(never)]
    fn compact_put_order(&mut self) {
        let objects = &self.objects;
        let obj_slots = &self.obj_slots;
        // Entries sit in put order, so runs of one object are adjacent;
        // memoizing the object probe makes the scan one inner lookup per
        // live entry (and ~free for runs of dead objects).
        let mut last: Option<(ObjectId, Option<u32>)> = None;
        self.put_order.retain(|&(o, i)| {
            let slot = match last {
                Some((lo, s)) if lo == o => s,
                _ => {
                    let s = objects.get(&o).copied();
                    last = Some((o, s));
                    s
                }
            };
            slot.is_some_and(|s| obj_slots[s as usize].contains_key(i))
        });
    }
}

/// The node-wide tmem backend: a budget of page frames plus the pools that
/// consume them.
#[derive(Debug)]
pub struct TmemBackend<P> {
    capacity: u64,
    used: u64,
    /// Pools addressed directly by `PoolId` (sequentially allocated, never
    /// reused); destroyed pools leave a `None` hole.
    pools: Vec<Option<Pool>>,
    live_pools: usize,
    /// Payload storage shared by all pools; the page maps hold handles.
    /// Each slot carries the checksum recorded at put time.
    arena: PageArena<StoredPage<P>>,
    /// Dense per-VM frame counters, indexed by the slot in `vm_slots`.
    vm_used: Vec<u64>,
    vm_slots: FxHashMap<VmId, u32>,
    /// Insertion-ordered queue of ephemeral pages, oldest first. Entries are
    /// validated lazily on pop (flushed pages simply get skipped) and
    /// tombstones are compacted once they dominate.
    ephemeral_fifo: VecDeque<TmemKey>,
    /// Live ephemeral pages across all pools — the denominator for FIFO
    /// tombstone compaction.
    ephemeral_pages: u64,
    evictions: u64,
    /// Monotonic detection counters (see [`IntegrityCounters`]).
    integrity: IntegrityCounters,
    /// While set, puts retain recent payloads as corruption donors. Off by
    /// default so fault-free runs pay one branch per put and clone nothing.
    arm_corruption: bool,
    /// Scratch for [`TmemBackend::reclaim_oldest_persistent_into`]: the
    /// victims unlinked but not yet freed, as `(object, index, slot)`.
    reclaim_batch: Vec<(ObjectId, PageIndex, u32)>,
    /// Up to two recent payloads with distinct checksums: the byte source
    /// [`TmemBackend::corrupt_page`] cross-wires into a victim page.
    donors: Vec<(u64, P)>,
}

impl<P: PagePayload> TmemBackend<P> {
    /// A backend owning `capacity` page frames pooled from idle and fallow
    /// node memory.
    pub fn new(capacity: u64) -> Self {
        TmemBackend {
            capacity,
            used: 0,
            pools: Vec::new(),
            live_pools: 0,
            arena: PageArena::new(),
            vm_used: Vec::new(),
            vm_slots: FxHashMap::default(),
            ephemeral_fifo: VecDeque::new(),
            ephemeral_pages: 0,
            evictions: 0,
            integrity: IntegrityCounters::default(),
            arm_corruption: false,
            donors: Vec::new(),
            reclaim_batch: Vec::new(),
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

    /// Frames currently free (`node_info.free_tmem`).
    pub fn free_pages(&self) -> u64 {
        self.capacity - self.used
    }

    /// Frames currently consumed by pools owned by `vm`.
    pub fn used_by(&self, vm: VmId) -> u64 {
        self.vm_slots
            .get(&vm)
            .map(|&s| self.vm_used[s as usize])
            .unwrap_or(0)
    }

    /// Frames currently consumed by the VM holding `slot`.
    #[inline]
    pub fn used_by_slot(&self, slot: VmSlot) -> u64 {
        self.vm_used[slot.index()]
    }

    /// `vm`'s accounting slot, handed out on first sight of the id.
    pub fn vm_slot(&mut self, vm: VmId) -> VmSlot {
        let next = self.vm_used.len() as u32;
        let s = *self.vm_slots.entry(vm).or_insert(next);
        if s == next {
            self.vm_used.push(0);
        }
        VmSlot(s)
    }

    /// Number of ephemeral pages evicted so far (cleancache recycling).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of live pools.
    pub fn pool_count(&self) -> usize {
        self.live_pools
    }

    /// Owner and kind of a pool, if it exists.
    pub fn pool_info(&self, pool: PoolId) -> Option<(VmId, PoolKind)> {
        self.pool(pool).map(|p| (p.owner, p.kind))
    }

    /// Owner, owner's accounting slot and kind of a pool, if it exists: an
    /// array access, for callers that keep per-VM state by [`VmSlot`].
    #[inline]
    pub fn pool_owner(&self, pool: PoolId) -> Option<PoolOwner> {
        self.pool(pool).map(|p| PoolOwner {
            vm: p.owner,
            slot: VmSlot(p.owner_slot),
            kind: p.kind,
        })
    }

    /// Live pools owned by `owner`, in pool-id order (migration needs the
    /// full set: the frontswap pool travels, ephemeral pools are dropped).
    pub fn pools_owned_by(&self, owner: VmId) -> Vec<(PoolId, PoolKind)> {
        self.pools
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (i, p)))
            .filter(|(_, p)| p.owner == owner)
            .map(|(i, p)| (PoolId(i as u32), p.kind))
            .collect()
    }

    #[inline]
    fn pool(&self, id: PoolId) -> Option<&Pool> {
        self.pools.get(id.0 as usize).and_then(Option::as_ref)
    }

    #[inline]
    fn pool_mut(&mut self, id: PoolId) -> Option<&mut Pool> {
        self.pools.get_mut(id.0 as usize).and_then(Option::as_mut)
    }

    /// Create a pool for `owner`. Mirrors the guest kernel module
    /// registering with tmem at initialization.
    pub fn new_pool(&mut self, owner: VmId, kind: PoolKind) -> Result<PoolId, TmemError> {
        if self.pools.len() >= u32::MAX as usize {
            return Err(TmemError::PoolLimit);
        }
        let id = PoolId(self.pools.len() as u32);
        let owner_slot = self.vm_slot(owner).0;
        self.pools.push(Some(Pool::new(owner, owner_slot, kind)));
        self.live_pools += 1;
        Ok(id)
    }

    /// Store a page. See [`PutOutcome`] for the three success shapes.
    ///
    /// Capacity rules: replacing an existing key never needs a frame; a new
    /// key needs one free frame; if none is free, an ephemeral put may
    /// recycle the oldest ephemeral page, a persistent put fails with
    /// [`TmemError::NoCapacity`].
    ///
    /// The payload's checksum is recorded alongside it and re-verified
    /// whenever the page leaves the store (see the module's *Integrity*
    /// section).
    #[inline]
    pub fn put(
        &mut self,
        pool_id: PoolId,
        object: ObjectId,
        index: PageIndex,
        payload: P,
    ) -> Result<PutOutcome, TmemError> {
        let sum = payload.checksum();
        if self.arm_corruption {
            self.note_donor(sum, &payload);
        }
        let used = self.used;
        let Some(pool) = self
            .pools
            .get_mut(pool_id.0 as usize)
            .and_then(Option::as_mut)
        else {
            return Err(TmemError::NoSuchPool);
        };
        let kind = pool.kind;
        let owner_slot = pool.owner_slot;

        if used < self.capacity {
            // Fast path: a free frame is available, so the put succeeds
            // either in place or in a fresh arena slot.
            let s = pool.obj_slot_or_create(object);
            let inner = &mut pool.obj_slots[s as usize];
            if let Some(slot) = inner.get(index) {
                *self.arena.get_mut(SlotHandle(slot)) = StoredPage {
                    payload,
                    sum,
                    flagged: false,
                };
                return Ok(PutOutcome::Replaced);
            }
            let slot = self.arena.alloc(StoredPage {
                payload,
                sum,
                flagged: false,
            });
            inner.insert(index, slot.0);
            pool.page_count += 1;
            match kind {
                PoolKind::Persistent => {
                    pool.maybe_compact();
                    pool.put_order.push_back((object, index));
                }
                PoolKind::Ephemeral => {
                    self.ephemeral_pages += 1;
                    self.maybe_compact_fifo();
                    self.ephemeral_fifo
                        .push_back(TmemKey::new(pool_id, object, index));
                }
            }
            self.used = used + 1;
            self.vm_used[owner_slot as usize] += 1;
            return Ok(PutOutcome::Stored);
        }
        self.put_full(pool_id, object, index, payload, sum)
    }

    /// The node-full half of [`TmemBackend::put`]: replacement probe,
    /// ephemeral recycling, or failure. Out of line — a full node is the
    /// slow regime by definition and keeping it out of `put` keeps the fast
    /// path compact.
    #[cold]
    #[inline(never)]
    fn put_full(
        &mut self,
        pool_id: PoolId,
        object: ObjectId,
        index: PageIndex,
        payload: P,
        sum: u64,
    ) -> Result<PutOutcome, TmemError> {
        let pool = self.pool_mut(pool_id).expect("pool checked by caller");
        let kind = pool.kind;
        let owner_slot = pool.owner_slot;
        // Replacement in place still needs no frame.
        if let Some(s) = pool.obj_slot(object) {
            if let Some(slot) = pool.obj_slots[s as usize].get(index) {
                *self.arena.get_mut(SlotHandle(slot)) = StoredPage {
                    payload,
                    sum,
                    flagged: false,
                };
                return Ok(PutOutcome::Replaced);
            }
        }
        let mut evicted = None;
        if kind == PoolKind::Ephemeral {
            evicted = self.evict_one_ephemeral();
        }
        if self.used >= self.capacity {
            return Err(TmemError::NoCapacity);
        }
        let slot = self.arena.alloc(StoredPage {
            payload,
            sum,
            flagged: false,
        });
        let pool = self.pool_mut(pool_id).expect("pool checked above");
        let s = pool.obj_slot_or_create(object);
        pool.obj_slots[s as usize].insert(index, slot.0);
        pool.page_count += 1;
        if kind == PoolKind::Persistent {
            pool.maybe_compact();
            pool.put_order.push_back((object, index));
        }
        self.used += 1;
        self.vm_used[owner_slot as usize] += 1;
        if kind == PoolKind::Ephemeral {
            self.ephemeral_pages += 1;
            self.maybe_compact_fifo();
            self.ephemeral_fifo
                .push_back(TmemKey::new(pool_id, object, index));
        }
        Ok(match evicted {
            Some(k) => PutOutcome::StoredAfterEviction(k),
            None => PutOutcome::Stored,
        })
    }

    /// Retrieve a page.
    ///
    /// Persistent pools: the page is removed and its frame freed (exclusive
    /// get — frontswap semantics). Ephemeral pools: a copy is returned and
    /// the page stays cached.
    ///
    /// Integrity: a persistent page failing verification stays in place and
    /// returns [`TmemError::Corrupt`] (correct-or-error); a corrupt
    /// ephemeral page is dropped and returns [`TmemError::Corrupt`] once,
    /// after which the key is a clean miss (correct-or-miss).
    #[inline]
    pub fn get(
        &mut self,
        pool_id: PoolId,
        object: ObjectId,
        index: PageIndex,
    ) -> Result<P, TmemError> {
        let Some(pool) = self
            .pools
            .get_mut(pool_id.0 as usize)
            .and_then(Option::as_mut)
        else {
            return Err(TmemError::NoSuchPool);
        };
        let Some(s) = pool.obj_slot(object) else {
            return Err(TmemError::NoSuchPage);
        };
        match pool.kind {
            PoolKind::Ephemeral => {
                let Some(slot) = pool.obj_slots[s as usize].get(index) else {
                    return Err(TmemError::NoSuchPage);
                };
                let slot = SlotHandle(slot);
                let e = self.arena.get(slot);
                if e.payload.checksum() == e.sum {
                    return Ok(e.payload.clone());
                }
                self.drop_corrupt_ephemeral(pool_id, object, index, slot)
            }
            PoolKind::Persistent => {
                let owner_slot = pool.owner_slot;
                let inner = &mut pool.obj_slots[s as usize];
                let Some(slot) = inner.get(index) else {
                    return Err(TmemError::NoSuchPage);
                };
                let slot = SlotHandle(slot);
                let e = self.arena.get_mut(slot);
                if e.payload.checksum() != e.sum {
                    // Correct-or-error: the page stays so retries observe
                    // the same typed error, never the wrong bytes.
                    if !e.flagged {
                        e.flagged = true;
                        self.integrity.detections += 1;
                    }
                    return Err(TmemError::Corrupt);
                }
                inner.remove(index);
                if inner.is_empty() {
                    pool.retire_object(object, s);
                }
                pool.page_count -= 1;
                let sp = self.arena.free(slot);
                self.used -= 1;
                self.debit_one(owner_slot);
                Ok(sp.payload)
            }
        }
    }

    /// Correct-or-miss enforcement for ephemeral pools: drop the corrupt
    /// page so the next get is a clean miss. Out of line — detection is the
    /// rare path by construction.
    #[cold]
    #[inline(never)]
    fn drop_corrupt_ephemeral(
        &mut self,
        pool_id: PoolId,
        object: ObjectId,
        index: PageIndex,
        slot: SlotHandle,
    ) -> Result<P, TmemError> {
        let e = self.arena.get_mut(slot);
        if !e.flagged {
            e.flagged = true;
            self.integrity.detections += 1;
        }
        self.integrity.corrupt_dropped += 1;
        self.flush_page(pool_id, object, index)
            .expect("pool checked by caller");
        Err(TmemError::Corrupt)
    }

    /// Invalidate one page. Returns whether a page was actually removed.
    #[inline]
    pub fn flush_page(
        &mut self,
        pool_id: PoolId,
        object: ObjectId,
        index: PageIndex,
    ) -> Result<bool, TmemError> {
        let Some(pool) = self
            .pools
            .get_mut(pool_id.0 as usize)
            .and_then(Option::as_mut)
        else {
            return Err(TmemError::NoSuchPool);
        };
        let Some(s) = pool.obj_slot(object) else {
            return Ok(false);
        };
        let owner_slot = pool.owner_slot;
        let kind = pool.kind;
        let inner = &mut pool.obj_slots[s as usize];
        let Some(slot) = inner.remove(index) else {
            return Ok(false);
        };
        if inner.is_empty() {
            pool.retire_object(object, s);
        }
        pool.page_count -= 1;
        let sp = self.arena.free(SlotHandle(slot));
        if !sp.flagged && sp.payload.checksum() != sp.sum {
            // The flush itself is what the caller asked for, but the
            // corruption it surfaced must still be counted as detected.
            self.integrity.detections += 1;
        }
        if kind == PoolKind::Ephemeral {
            self.ephemeral_pages -= 1;
        }
        self.used -= 1;
        self.debit_one(owner_slot);
        Ok(true)
    }

    /// Invalidate every page of an object. Returns the number of pages
    /// removed.
    ///
    /// Drains the object's own page index — O(pages in the object), not a
    /// scan of the pool — and parks the index for reuse.
    pub fn flush_object(&mut self, pool_id: PoolId, object: ObjectId) -> Result<u64, TmemError> {
        let Some(pool) = self
            .pools
            .get_mut(pool_id.0 as usize)
            .and_then(Option::as_mut)
        else {
            return Err(TmemError::NoSuchPool);
        };
        let Some(s) = pool.obj_slot(object) else {
            return Ok(0);
        };
        let owner_slot = pool.owner_slot;
        let kind = pool.kind;
        let inner = &mut pool.obj_slots[s as usize];
        let n = inner.len() as u64;
        for (_, slot) in inner.drain() {
            let sp = self.arena.free(SlotHandle(slot));
            if !sp.flagged && sp.payload.checksum() != sp.sum {
                self.integrity.detections += 1;
            }
        }
        pool.retire_object(object, s);
        pool.page_count -= n;
        if kind == PoolKind::Ephemeral {
            self.ephemeral_pages -= n;
        }
        self.used -= n;
        self.debit(owner_slot, n);
        Ok(n)
    }

    /// Destroy a pool and free everything in it. Returns the number of pages
    /// freed.
    pub fn destroy_pool(&mut self, pool_id: PoolId) -> Result<u64, TmemError> {
        let Some(entry) = self.pools.get_mut(pool_id.0 as usize) else {
            return Err(TmemError::NoSuchPool);
        };
        let Some(pool) = entry.take() else {
            return Err(TmemError::NoSuchPool);
        };
        self.live_pools -= 1;
        let n = pool.page_count();
        for inner in &pool.obj_slots {
            for (_, slot) in inner.iter() {
                let sp = self.arena.free(SlotHandle(slot));
                if !sp.flagged && sp.payload.checksum() != sp.sum {
                    self.integrity.detections += 1;
                }
            }
        }
        if pool.kind == PoolKind::Ephemeral {
            self.ephemeral_pages -= n;
        }
        self.used -= n;
        self.debit(pool.owner_slot, n);
        Ok(n)
    }

    /// Remove a pool wholesale and hand back its verified contents — the
    /// migration export path. Returns the surviving pages in `(object,
    /// index)` order (deterministic regardless of index layout) plus the
    /// number of corrupt pages found and purged at the boundary: a page
    /// failing its recorded checksum is *never* exported, because the
    /// destination would re-checksum the wrong bytes at import and launder
    /// the corruption into a "clean" page. Purged pages are counted in
    /// [`IntegrityCounters`] like every other silent removal.
    pub fn export_pool(&mut self, pool_id: PoolId) -> Result<ExportedPool<P>, TmemError> {
        let Some(entry) = self.pools.get_mut(pool_id.0 as usize) else {
            return Err(TmemError::NoSuchPool);
        };
        let Some(pool) = entry.take() else {
            return Err(TmemError::NoSuchPool);
        };
        self.live_pools -= 1;
        let n = pool.page_count();
        let mut out = Vec::with_capacity(n as usize);
        let mut purged = 0u64;
        for (&obj, &s) in pool.objects.iter() {
            for (idx, slot) in pool.obj_slots[s as usize].iter() {
                let sp = self.arena.free(SlotHandle(slot));
                if sp.payload.checksum() == sp.sum {
                    out.push((obj, idx, sp.payload));
                } else {
                    if !sp.flagged {
                        self.integrity.detections += 1;
                    }
                    self.integrity.corrupt_dropped += 1;
                    purged += 1;
                }
            }
        }
        out.sort_unstable_by_key(|&(o, i, _)| (o, i));
        if pool.kind == PoolKind::Ephemeral {
            self.ephemeral_pages -= n;
        }
        self.used -= n;
        self.debit(pool.owner_slot, n);
        Ok((out, purged))
    }

    /// True if the key currently holds a page.
    pub fn contains(&self, pool_id: PoolId, object: ObjectId, index: PageIndex) -> bool {
        self.pool(pool_id)
            .is_some_and(|p| p.contains_key(object, index))
    }

    /// Number of pages held by one pool.
    pub fn pool_page_count(&self, pool_id: PoolId) -> Option<u64> {
        self.pool(pool_id).map(|p| p.page_count())
    }

    #[inline]
    fn debit(&mut self, owner_slot: u32, n: u64) {
        if n == 0 {
            return;
        }
        let e = &mut self.vm_used[owner_slot as usize];
        debug_assert!(*e >= n, "per-VM accounting underflow");
        *e -= n;
    }

    /// Single-page debit for the get/flush hot paths — skips the `n == 0`
    /// branch of [`TmemBackend::debit`].
    #[inline]
    fn debit_one(&mut self, owner_slot: u32) {
        let e = &mut self.vm_used[owner_slot as usize];
        debug_assert!(*e >= 1, "per-VM accounting underflow");
        *e -= 1;
    }

    /// Remove and return up to `max` of the oldest persistent pages of a
    /// pool (the hypervisor's slow-reclaim victim stream). The pages are
    /// flushed from the store; the caller is responsible for writing them
    /// to the owning VM's swap device.
    pub fn reclaim_oldest_persistent(
        &mut self,
        pool_id: PoolId,
        max: u64,
    ) -> Vec<(ObjectId, PageIndex)> {
        let mut out = Vec::new();
        self.reclaim_oldest_persistent_into(pool_id, max, &mut out);
        out
    }

    /// [`TmemBackend::reclaim_oldest_persistent`] appending into a
    /// caller-owned buffer — the per-interval reclaim trickle reuses one
    /// buffer across VMs and intervals instead of allocating per call.
    ///
    /// Each victim is removed with one index lookup and verified as it
    /// leaves: a corrupt page is dropped but **withheld** from the output
    /// (writing it to the owner's swap device would persist wrong bytes),
    /// counted in [`IntegrityCounters::corrupt_dropped`] and, unless
    /// already flagged, as a detection.
    ///
    /// Victims are taken in batches of the quota still open: the first
    /// phase pops and unlinks a batch from the queue and the page index,
    /// the second verifies and frees it in the same order. The payloads'
    /// arena slots are cold, and reading them in a loop of their own lets
    /// those misses overlap. A corrupt victim leaves its place in the quota
    /// open for the next batch, so the victims are those of a
    /// page-at-a-time loop.
    pub fn reclaim_oldest_persistent_into(
        &mut self,
        pool_id: PoolId,
        max: u64,
        out: &mut Vec<(ObjectId, PageIndex)>,
    ) {
        let start = out.len();
        let mut batch = std::mem::take(&mut self.reclaim_batch);
        loop {
            let want = max - (out.len() - start) as u64;
            let Some(pool) = self
                .pools
                .get_mut(pool_id.0 as usize)
                .and_then(Option::as_mut)
            else {
                break;
            };
            debug_assert_eq!(pool.kind, PoolKind::Persistent);
            batch.clear();
            while (batch.len() as u64) < want {
                let Some((obj, idx)) = pool.put_order.pop_front() else {
                    break;
                };
                // Lazy validation: the entry may have been consumed by an
                // exclusive get or flush already (a tombstone).
                let Some(s) = pool.obj_slot(obj) else {
                    continue;
                };
                let inner = &mut pool.obj_slots[s as usize];
                let Some(slot) = inner.remove(idx) else {
                    continue;
                };
                if inner.is_empty() {
                    pool.retire_object(obj, s);
                }
                batch.push((obj, idx, slot));
            }
            if batch.is_empty() {
                break;
            }
            let n = batch.len() as u64;
            pool.page_count -= n;
            let owner_slot = pool.owner_slot;
            self.used -= n;
            self.debit(owner_slot, n);
            for &(obj, idx, slot) in &batch {
                let sp = self.arena.free(SlotHandle(slot));
                if sp.payload.checksum() == sp.sum {
                    out.push((obj, idx));
                } else {
                    if !sp.flagged {
                        self.integrity.detections += 1;
                    }
                    self.integrity.corrupt_dropped += 1;
                }
            }
            if n < want {
                break;
            }
        }
        self.reclaim_batch = batch;
    }

    /// Drop the oldest still-present ephemeral page; returns its key.
    fn evict_one_ephemeral(&mut self) -> Option<TmemKey> {
        while let Some(key) = self.ephemeral_fifo.pop_front() {
            // Lazy validation: the entry may refer to a page that has since
            // been flushed or whose pool was destroyed (a tombstone).
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

    /// Sweep FIFO tombstones once they dominate (same trigger as
    /// [`Pool::maybe_compact`]). Pool ids are never reused, so membership in
    /// the owning pool's page maps is the liveness test.
    #[inline]
    fn maybe_compact_fifo(&mut self) {
        if self.ephemeral_fifo.len() > 2 * self.ephemeral_pages as usize + TOMBSTONE_SLACK {
            self.compact_fifo();
        }
    }

    #[cold]
    #[inline(never)]
    fn compact_fifo(&mut self) {
        let pools = &self.pools;
        self.ephemeral_fifo.retain(|k| {
            pools
                .get(k.pool.0 as usize)
                .and_then(Option::as_ref)
                .is_some_and(|p| p.contains_key(k.object, k.index))
        });
    }

    /// Monotonic integrity counters. Callers diff snapshots around
    /// operations to attribute detections.
    pub fn integrity(&self) -> IntegrityCounters {
        self.integrity
    }

    /// Enable donor retention so [`TmemBackend::corrupt_page`] has wrong
    /// bytes to cross-wire into victims. The hypervisor arms this exactly
    /// when a fault profile with corruption probabilities is installed;
    /// unarmed backends never clone payloads and hold no donors.
    pub fn arm_corruption(&mut self) {
        self.arm_corruption = true;
    }

    /// Remember a recent payload as a corruption donor. Keeps the two most
    /// recent payloads with distinct checksums.
    fn note_donor(&mut self, sum: u64, payload: &P) {
        if self.donors.last().is_some_and(|(s, _)| *s == sum) {
            return;
        }
        self.donors.retain(|(s, _)| *s != sum);
        self.donors.push((sum, payload.clone()));
        if self.donors.len() > 2 {
            self.donors.remove(0);
        }
    }

    /// Fault-injection hook: replace the page's payload with a previously
    /// stored payload whose checksum differs, while keeping the checksum
    /// recorded at put time — genuinely wrong bytes (cross-wired with
    /// another page's contents) that verification is guaranteed to catch.
    ///
    /// Returns whether the corruption was applied; it is a no-op when the
    /// key holds no page or no distinct-checksum donor is available
    /// (requires [`TmemBackend::arm_corruption`]).
    pub fn corrupt_page(&mut self, pool_id: PoolId, object: ObjectId, index: PageIndex) -> bool {
        let Some(pool) = self
            .pools
            .get_mut(pool_id.0 as usize)
            .and_then(Option::as_mut)
        else {
            return false;
        };
        let Some(s) = pool.obj_slot(object) else {
            return false;
        };
        let Some(slot) = pool.obj_slots[s as usize].get(index) else {
            return false;
        };
        let e = self.arena.get_mut(SlotHandle(slot));
        let Some((_, donor)) = self.donors.iter().find(|(ds, _)| *ds != e.sum) else {
            return false;
        };
        e.payload = donor.clone();
        e.flagged = false;
        true
    }

    /// One scrubber/auditor pass: verify every stored page against its
    /// recorded checksum, quarantine (flush wholesale) each object holding
    /// at least one corrupt page, and audit the accounting invariants.
    ///
    /// Quarantine runs in (pool id, object id) order, so the victim stream
    /// is independent of index iteration order and pinned by tests.
    /// Quarantining the whole object mirrors real scrubbers distrusting the
    /// blast radius of detected media errors, and keeps the guest's
    /// recovery story uniform: every page of the object becomes a miss /
    /// typed error, never wrong bytes.
    pub fn scrub(&mut self) -> ScrubReport {
        let mut pages_checked = 0u64;
        let mut corrupt_pages = 0u64;
        let mut to_quarantine: Vec<(PoolId, ObjectId)> = Vec::new();
        let arena = &mut self.arena;
        let integrity = &mut self.integrity;
        for (pid, pool) in self.pools.iter().enumerate() {
            let Some(pool) = pool.as_ref() else { continue };
            for (&obj, &s) in pool.objects.iter() {
                let mut corrupt_here = false;
                for (_, slot) in pool.obj_slots[s as usize].iter() {
                    pages_checked += 1;
                    let e = arena.get_mut(SlotHandle(slot));
                    if e.payload.checksum() != e.sum {
                        corrupt_pages += 1;
                        corrupt_here = true;
                        if !e.flagged {
                            e.flagged = true;
                            integrity.detections += 1;
                        }
                    }
                }
                if corrupt_here {
                    to_quarantine.push((PoolId(pid as u32), obj));
                }
            }
        }
        to_quarantine.sort_unstable();
        let mut quarantined = Vec::with_capacity(to_quarantine.len());
        for (pid, obj) in to_quarantine {
            let owner = self
                .pool_info(pid)
                .map(|(v, _)| v)
                .expect("pool existed during the scan");
            let pages = self
                .flush_object(pid, obj)
                .expect("pool existed during the scan");
            quarantined.push(QuarantinedObject {
                pool: pid,
                owner,
                object: obj,
                pages,
            });
        }
        ScrubReport {
            pages_checked,
            corrupt_pages,
            quarantined,
            accounting_ok: accounting_consistent(self),
        }
    }
}

/// Invariant check used by tests and debug assertions: global `used` equals
/// the sum of pool page counts, the sum of per-VM accounting, and the
/// arena's live slot count; the ephemeral live counter matches the
/// ephemeral pools' contents; every pool's cached page count matches its
/// object maps and its object-slot bookkeeping is balanced.
#[doc(hidden)]
pub fn accounting_consistent<P: PagePayload>(b: &TmemBackend<P>) -> bool {
    let pools_match = b.pools.iter().flatten().all(|p| {
        p.obj_slots.iter().map(|m| m.len() as u64).sum::<u64>() == p.page_count
            && p.objects.len() + p.free_objs.len() == p.obj_slots.len()
    });
    let by_pool: u64 = b.pools.iter().flatten().map(|p| p.page_count()).sum();
    let by_vm: u64 = b.vm_used.iter().sum();
    let ephemeral: u64 = b
        .pools
        .iter()
        .flatten()
        .filter(|p| p.kind == PoolKind::Ephemeral)
        .map(|p| p.page_count())
        .sum();
    pools_match
        && by_pool == b.used
        && by_vm == b.used
        && b.arena.live() as u64 == b.used
        && ephemeral == b.ephemeral_pages
        && b.used <= b.capacity
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{Fingerprint, PageBuf};

    fn persistent_pool(cap: u64) -> (TmemBackend<PageBuf>, PoolId) {
        let mut b = TmemBackend::new(cap);
        let p = b.new_pool(VmId(1), PoolKind::Persistent).unwrap();
        (b, p)
    }

    #[test]
    fn put_get_roundtrips_bytes_exactly() {
        let (mut b, pool) = persistent_pool(8);
        let page = PageBuf::filled(0xAB);
        b.put(pool, ObjectId(1), 0, page.clone()).unwrap();
        let got = b.get(pool, ObjectId(1), 0).unwrap();
        assert_eq!(got, page);
    }

    #[test]
    fn persistent_get_is_exclusive() {
        let (mut b, pool) = persistent_pool(8);
        b.put(pool, ObjectId(1), 0, PageBuf::filled(1)).unwrap();
        assert_eq!(b.used(), 1);
        b.get(pool, ObjectId(1), 0).unwrap();
        assert_eq!(b.used(), 0, "frontswap get must free the frame");
        assert_eq!(b.get(pool, ObjectId(1), 0), Err(TmemError::NoSuchPage));
    }

    #[test]
    fn ephemeral_get_is_a_copy() {
        let mut b: TmemBackend<PageBuf> = TmemBackend::new(8);
        let pool = b.new_pool(VmId(1), PoolKind::Ephemeral).unwrap();
        b.put(pool, ObjectId(1), 0, PageBuf::filled(2)).unwrap();
        b.get(pool, ObjectId(1), 0).unwrap();
        assert_eq!(b.used(), 1, "cleancache get must keep the page");
        assert!(b.get(pool, ObjectId(1), 0).is_ok());
    }

    #[test]
    fn persistent_put_fails_when_full() {
        let (mut b, pool) = persistent_pool(2);
        b.put(pool, ObjectId(1), 0, PageBuf::filled(1)).unwrap();
        b.put(pool, ObjectId(1), 1, PageBuf::filled(2)).unwrap();
        assert_eq!(
            b.put(pool, ObjectId(1), 2, PageBuf::filled(3)),
            Err(TmemError::NoCapacity)
        );
        assert_eq!(b.free_pages(), 0);
    }

    #[test]
    fn replacement_put_needs_no_frame() {
        let (mut b, pool) = persistent_pool(1);
        b.put(pool, ObjectId(1), 0, PageBuf::filled(1)).unwrap();
        let out = b.put(pool, ObjectId(1), 0, PageBuf::filled(9)).unwrap();
        assert_eq!(out, PutOutcome::Replaced);
        assert_eq!(b.get(pool, ObjectId(1), 0).unwrap(), PageBuf::filled(9));
    }

    #[test]
    fn replacement_put_works_at_full_capacity() {
        // The node-full path must still find the existing key and replace
        // in place rather than failing with NoCapacity.
        let (mut b, pool) = persistent_pool(2);
        b.put(pool, ObjectId(1), 0, PageBuf::filled(1)).unwrap();
        b.put(pool, ObjectId(1), 1, PageBuf::filled(2)).unwrap();
        assert_eq!(b.free_pages(), 0);
        let out = b.put(pool, ObjectId(1), 1, PageBuf::filled(9)).unwrap();
        assert_eq!(out, PutOutcome::Replaced);
        assert_eq!(b.get(pool, ObjectId(1), 1).unwrap(), PageBuf::filled(9));
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn ephemeral_put_recycles_oldest_when_full() {
        let mut b: TmemBackend<PageBuf> = TmemBackend::new(2);
        let pool = b.new_pool(VmId(1), PoolKind::Ephemeral).unwrap();
        b.put(pool, ObjectId(1), 0, PageBuf::filled(0)).unwrap();
        b.put(pool, ObjectId(1), 1, PageBuf::filled(1)).unwrap();
        let out = b.put(pool, ObjectId(1), 2, PageBuf::filled(2)).unwrap();
        assert_eq!(
            out,
            PutOutcome::StoredAfterEviction(TmemKey::new(pool, ObjectId(1), 0))
        );
        assert!(!b.contains(pool, ObjectId(1), 0));
        assert!(b.contains(pool, ObjectId(1), 2));
        assert_eq!(b.evictions(), 1);
    }

    #[test]
    fn ephemeral_eviction_never_touches_persistent_pages() {
        let mut b: TmemBackend<PageBuf> = TmemBackend::new(2);
        let pp = b.new_pool(VmId(1), PoolKind::Persistent).unwrap();
        let ep = b.new_pool(VmId(2), PoolKind::Ephemeral).unwrap();
        b.put(pp, ObjectId(1), 0, PageBuf::filled(1)).unwrap();
        b.put(pp, ObjectId(1), 1, PageBuf::filled(2)).unwrap();
        // Node full of persistent pages: ephemeral put has nothing to evict.
        assert_eq!(
            b.put(ep, ObjectId(9), 0, PageBuf::filled(3)),
            Err(TmemError::NoCapacity)
        );
        assert!(b.contains(pp, ObjectId(1), 0));
        assert!(b.contains(pp, ObjectId(1), 1));
    }

    #[test]
    fn flush_page_and_object() {
        let (mut b, pool) = persistent_pool(8);
        for i in 0..4 {
            b.put(pool, ObjectId(7), i, PageBuf::filled(i as u8))
                .unwrap();
        }
        assert!(b.flush_page(pool, ObjectId(7), 2).unwrap());
        assert!(
            !b.flush_page(pool, ObjectId(7), 2).unwrap(),
            "double flush is a no-op"
        );
        assert_eq!(b.flush_object(pool, ObjectId(7)).unwrap(), 3);
        assert_eq!(b.used(), 0);
        assert_eq!(b.flush_object(pool, ObjectId(7)).unwrap(), 0);
    }

    #[test]
    fn flush_object_spares_other_objects() {
        let (mut b, pool) = persistent_pool(8);
        for i in 0..3 {
            b.put(pool, ObjectId(7), i, PageBuf::filled(i as u8))
                .unwrap();
        }
        b.put(pool, ObjectId(8), 0, PageBuf::filled(9)).unwrap();
        assert_eq!(b.flush_object(pool, ObjectId(7)).unwrap(), 3);
        assert!(b.contains(pool, ObjectId(8), 0));
        assert_eq!(b.used(), 1);
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn flush_object_counts_only_live_pages_after_churn() {
        // Consume and flush some of an object's pages, then re-put one:
        // flush_object must count each live page exactly once.
        let (mut b, pool) = persistent_pool(32);
        for i in 0..8 {
            b.put(pool, ObjectId(3), i, PageBuf::filled(i as u8))
                .unwrap();
        }
        b.get(pool, ObjectId(3), 0).unwrap(); // exclusive: page gone
        b.flush_page(pool, ObjectId(3), 1).unwrap();
        b.put(pool, ObjectId(3), 1, PageBuf::filled(99)).unwrap();
        assert_eq!(b.flush_object(pool, ObjectId(3)).unwrap(), 7);
        assert_eq!(b.used(), 0);
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn drained_objects_release_and_reuse_their_map_storage() {
        // Exclusive gets drain object after object; each emptied object's
        // map must be parked and reused, not leaked.
        let (mut b, pool) = persistent_pool(64);
        for o in 0..16u64 {
            for i in 0..4u32 {
                b.put(pool, ObjectId(o), i, PageBuf::filled(o as u8))
                    .unwrap();
            }
            for i in 0..4u32 {
                b.get(pool, ObjectId(o), i).unwrap();
            }
        }
        let p = b.pools[pool.0 as usize].as_ref().unwrap();
        assert_eq!(p.objects.len(), 0, "all objects drained");
        assert!(
            p.obj_slots.len() <= 2,
            "object map storage must be reused across objects, \
             not grown per object (got {} slots)",
            p.obj_slots.len()
        );
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn interleaved_object_access_stays_correct_through_mru_cache() {
        // Alternate between two objects so ops keep missing the MRU cache,
        // then flush one object and keep using the other.
        let (mut b, pool) = persistent_pool(64);
        for i in 0..8u32 {
            b.put(pool, ObjectId(1), i, PageBuf::filled(1)).unwrap();
            b.put(pool, ObjectId(2), i, PageBuf::filled(2)).unwrap();
        }
        assert_eq!(b.flush_object(pool, ObjectId(1)).unwrap(), 8);
        // Object 1 is gone; object 2 must be fully intact.
        assert!(!b.contains(pool, ObjectId(1), 0));
        for i in 0..8u32 {
            assert_eq!(b.get(pool, ObjectId(2), i).unwrap(), PageBuf::filled(2));
        }
        // Re-put into the flushed object: it must come back cleanly.
        b.put(pool, ObjectId(1), 0, PageBuf::filled(9)).unwrap();
        assert_eq!(b.get(pool, ObjectId(1), 0).unwrap(), PageBuf::filled(9));
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn destroy_pool_frees_everything_and_invalidates_id() {
        let (mut b, pool) = persistent_pool(8);
        for i in 0..5 {
            b.put(pool, ObjectId(1), i, PageBuf::filled(i as u8))
                .unwrap();
        }
        assert_eq!(b.destroy_pool(pool).unwrap(), 5);
        assert_eq!(b.used(), 0);
        assert_eq!(b.used_by(VmId(1)), 0);
        assert_eq!(
            b.put(pool, ObjectId(1), 0, PageBuf::filled(0)),
            Err(TmemError::NoSuchPool)
        );
        assert_eq!(b.destroy_pool(pool), Err(TmemError::NoSuchPool));
    }

    #[test]
    fn pool_ids_keep_growing_past_destroyed_holes() {
        let mut b: TmemBackend<Fingerprint> = TmemBackend::new(8);
        let p0 = b.new_pool(VmId(1), PoolKind::Persistent).unwrap();
        let p1 = b.new_pool(VmId(2), PoolKind::Persistent).unwrap();
        b.destroy_pool(p0).unwrap();
        let p2 = b.new_pool(VmId(1), PoolKind::Ephemeral).unwrap();
        assert_eq!((p0.0, p1.0, p2.0), (0, 1, 2), "ids are never reused");
        assert_eq!(b.pool_count(), 2);
        assert_eq!(b.pool_info(p0), None);
        assert_eq!(b.pool_info(p2), Some((VmId(1), PoolKind::Ephemeral)));
    }

    #[test]
    fn per_vm_accounting_tracks_ownership() {
        let mut b: TmemBackend<Fingerprint> = TmemBackend::new(10);
        let p1 = b.new_pool(VmId(1), PoolKind::Persistent).unwrap();
        let p2 = b.new_pool(VmId(2), PoolKind::Persistent).unwrap();
        for i in 0..3 {
            b.put(p1, ObjectId(0), i, Fingerprint::of(i as u64, 0))
                .unwrap();
        }
        for i in 0..2 {
            b.put(p2, ObjectId(0), i, Fingerprint::of(i as u64, 0))
                .unwrap();
        }
        assert_eq!(b.used_by(VmId(1)), 3);
        assert_eq!(b.used_by(VmId(2)), 2);
        assert_eq!(b.used(), 5);
        b.get(p1, ObjectId(0), 0).unwrap();
        assert_eq!(b.used_by(VmId(1)), 2);
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn stale_fifo_entries_are_skipped_on_eviction() {
        let mut b: TmemBackend<PageBuf> = TmemBackend::new(2);
        let pool = b.new_pool(VmId(1), PoolKind::Ephemeral).unwrap();
        b.put(pool, ObjectId(1), 0, PageBuf::filled(0)).unwrap();
        b.put(pool, ObjectId(1), 1, PageBuf::filled(1)).unwrap();
        // Flush the oldest; its FIFO entry goes stale.
        b.flush_page(pool, ObjectId(1), 0).unwrap();
        b.put(pool, ObjectId(1), 2, PageBuf::filled(2)).unwrap();
        // Node is full again; the next eviction must skip the stale entry
        // and evict page 1, not fail.
        let out = b.put(pool, ObjectId(1), 3, PageBuf::filled(3)).unwrap();
        assert_eq!(
            out,
            PutOutcome::StoredAfterEviction(TmemKey::new(pool, ObjectId(1), 1))
        );
    }

    #[test]
    fn get_from_unknown_pool_errors() {
        let mut b: TmemBackend<PageBuf> = TmemBackend::new(2);
        assert_eq!(
            b.get(PoolId(42), ObjectId(0), 0),
            Err(TmemError::NoSuchPool)
        );
        assert_eq!(
            b.flush_page(PoolId(42), ObjectId(0), 0),
            Err(TmemError::NoSuchPool)
        );
    }

    #[test]
    fn reclaim_queue_compaction_preserves_victim_order() {
        // Churn a persistent pool hard enough to force several compactions,
        // then check the reclaim stream still yields oldest-first victims.
        let (mut b, pool) = persistent_pool(1024);
        for round in 0u64..8 {
            for i in 0..200u32 {
                b.put(pool, ObjectId(round), i, PageBuf::filled(i as u8))
                    .unwrap();
            }
            // Consume most of them via exclusive gets → tombstones.
            for i in 0..190u32 {
                b.get(pool, ObjectId(round), i).unwrap();
            }
        }
        // The queue must have been compacted below the raw 1600 insertions.
        let queued = {
            let p = b.pools[pool.0 as usize].as_ref().unwrap();
            p.put_order.len()
        };
        assert!(
            queued <= 2 * 80 + TOMBSTONE_SLACK + 200,
            "queue not compacted: {queued} entries for 80 live pages"
        );
        let victims = b.reclaim_oldest_persistent(pool, 3);
        assert_eq!(
            victims,
            vec![(ObjectId(0), 190), (ObjectId(0), 191), (ObjectId(0), 192)]
        );
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn corrupt_persistent_get_is_error_not_wrong_bytes() {
        let (mut b, pool) = persistent_pool(8);
        b.arm_corruption();
        b.put(pool, ObjectId(1), 0, PageBuf::filled(1)).unwrap();
        b.put(pool, ObjectId(1), 1, PageBuf::filled(2)).unwrap();
        assert!(b.corrupt_page(pool, ObjectId(1), 1));
        // Correct-or-error: the typed error, deterministically, on every
        // retry — the page stays in place and is counted detected once.
        assert_eq!(b.get(pool, ObjectId(1), 1), Err(TmemError::Corrupt));
        assert_eq!(b.get(pool, ObjectId(1), 1), Err(TmemError::Corrupt));
        assert!(b.contains(pool, ObjectId(1), 1));
        assert_eq!(b.integrity().detections, 1);
        assert_eq!(b.integrity().corrupt_dropped, 0);
        // The clean sibling is unaffected.
        assert_eq!(b.get(pool, ObjectId(1), 0).unwrap(), PageBuf::filled(1));
        // The guest's recovery flush removes it without another detection.
        assert!(b.flush_page(pool, ObjectId(1), 1).unwrap());
        assert_eq!(b.integrity().detections, 1);
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn corrupt_ephemeral_get_degrades_to_clean_miss() {
        let mut b: TmemBackend<PageBuf> = TmemBackend::new(8);
        b.arm_corruption();
        let pool = b.new_pool(VmId(1), PoolKind::Ephemeral).unwrap();
        b.put(pool, ObjectId(1), 0, PageBuf::filled(1)).unwrap();
        b.put(pool, ObjectId(1), 1, PageBuf::filled(2)).unwrap();
        assert!(b.corrupt_page(pool, ObjectId(1), 0));
        // Correct-or-miss: one typed error while dropping, then a miss.
        assert_eq!(b.get(pool, ObjectId(1), 0), Err(TmemError::Corrupt));
        assert_eq!(b.get(pool, ObjectId(1), 0), Err(TmemError::NoSuchPage));
        assert_eq!(b.used(), 1);
        assert_eq!(b.integrity().detections, 1);
        assert_eq!(b.integrity().corrupt_dropped, 1);
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn corrupt_page_needs_a_distinct_donor() {
        let (mut b, pool) = persistent_pool(8);
        // Unarmed: no donors are retained.
        b.put(pool, ObjectId(1), 0, PageBuf::filled(1)).unwrap();
        assert!(!b.corrupt_page(pool, ObjectId(1), 0));
        b.arm_corruption();
        // One payload value seen: the only donor checksum matches the
        // victim's, so cross-wiring cannot produce a mismatch.
        b.put(pool, ObjectId(1), 1, PageBuf::filled(1)).unwrap();
        assert!(!b.corrupt_page(pool, ObjectId(1), 1));
        // A second, different payload provides the wrong bytes.
        b.put(pool, ObjectId(1), 2, PageBuf::filled(2)).unwrap();
        assert!(b.corrupt_page(pool, ObjectId(1), 2));
        assert_eq!(b.get(pool, ObjectId(1), 2), Err(TmemError::Corrupt));
        // Absent keys cannot be corrupted.
        assert!(!b.corrupt_page(pool, ObjectId(9), 0));
    }

    #[test]
    fn reclaim_withholds_corrupt_victims_from_swap_writeback() {
        let (mut b, pool) = persistent_pool(8);
        b.arm_corruption();
        for i in 0..3 {
            b.put(pool, ObjectId(1), i, PageBuf::filled(i as u8))
                .unwrap();
        }
        assert!(b.corrupt_page(pool, ObjectId(1), 0));
        // The oldest victim is corrupt: it is flushed but never delivered,
        // so wrong bytes cannot reach the owner's swap device.
        let victims = b.reclaim_oldest_persistent(pool, 2);
        assert_eq!(victims, vec![(ObjectId(1), 1), (ObjectId(1), 2)]);
        assert!(!b.contains(pool, ObjectId(1), 0));
        assert_eq!(b.integrity().detections, 1);
        assert_eq!(b.integrity().corrupt_dropped, 1);
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn reclaim_counts_an_already_detected_victim_once() {
        let (mut b, pool) = persistent_pool(8);
        b.arm_corruption();
        b.put(pool, ObjectId(1), 63, PageBuf::filled(1)).unwrap();
        b.put(pool, ObjectId(1), 64, PageBuf::filled(2)).unwrap();
        assert!(b.corrupt_page(pool, ObjectId(1), 63));
        // A get detects (and flags) the corruption first.
        assert_eq!(b.get(pool, ObjectId(1), 63), Err(TmemError::Corrupt));
        assert_eq!(b.integrity().detections, 1);
        let victims = b.reclaim_oldest_persistent(pool, 8);
        assert_eq!(victims, vec![(ObjectId(1), 64)]);
        assert_eq!(
            b.integrity(),
            IntegrityCounters {
                detections: 1,
                corrupt_dropped: 1
            }
        );
        assert_eq!(b.used(), 0);
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn scrub_quarantines_corrupt_objects_in_key_order() {
        let (mut b, pool) = persistent_pool(32);
        b.arm_corruption();
        for obj in [5u64, 2, 9] {
            for i in 0..3u32 {
                b.put(
                    pool,
                    ObjectId(obj),
                    i,
                    PageBuf::filled((obj as u8) * 10 + i as u8),
                )
                .unwrap();
            }
        }
        assert!(b.corrupt_page(pool, ObjectId(9), 1));
        assert!(b.corrupt_page(pool, ObjectId(2), 0));
        let report = b.scrub();
        assert_eq!(report.pages_checked, 9);
        assert_eq!(report.corrupt_pages, 2);
        assert!(report.accounting_ok);
        // Whole objects are quarantined, in (pool, object) order regardless
        // of hash-map iteration order.
        let order: Vec<_> = report
            .quarantined
            .iter()
            .map(|q| (q.pool, q.owner, q.object, q.pages))
            .collect();
        assert_eq!(
            order,
            vec![
                (pool, VmId(1), ObjectId(2), 3),
                (pool, VmId(1), ObjectId(9), 3),
            ]
        );
        assert_eq!(b.integrity().detections, 2);
        // The clean object survives; a second pass finds nothing.
        assert!(b.contains(pool, ObjectId(5), 0));
        assert_eq!(b.used(), 3);
        let again = b.scrub();
        assert_eq!(again.corrupt_pages, 0);
        assert!(again.quarantined.is_empty());
        assert_eq!(again.pages_checked, 3);
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn destroying_a_pool_with_corrupt_pages_still_counts_detection() {
        let (mut b, pool) = persistent_pool(8);
        b.arm_corruption();
        b.put(pool, ObjectId(1), 0, PageBuf::filled(1)).unwrap();
        b.put(pool, ObjectId(1), 1, PageBuf::filled(2)).unwrap();
        assert!(b.corrupt_page(pool, ObjectId(1), 0));
        b.destroy_pool(pool).unwrap();
        assert_eq!(b.integrity().detections, 1);
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn export_pool_returns_sorted_contents_and_removes_the_pool() {
        let (mut b, pool) = persistent_pool(32);
        for obj in [7u64, 1, 4] {
            for i in [3u32, 0, 1] {
                b.put(
                    pool,
                    ObjectId(obj),
                    i,
                    PageBuf::filled((obj + i as u64) as u8),
                )
                .unwrap();
            }
        }
        let (pages, purged) = b.export_pool(pool).unwrap();
        assert_eq!(purged, 0);
        let keys: Vec<_> = pages.iter().map(|&(o, i, _)| (o, i)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "export order must be (object, index) order");
        assert_eq!(pages.len(), 9);
        assert_eq!(
            pages.iter().find(|&&(o, i, _)| o == ObjectId(4) && i == 1),
            Some(&(ObjectId(4), 1, PageBuf::filled(5)))
        );
        assert_eq!(b.used(), 0);
        assert_eq!(b.used_by(VmId(1)), 0);
        assert_eq!(b.export_pool(pool), Err(TmemError::NoSuchPool));
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn export_pool_purges_corrupt_pages_instead_of_laundering_them() {
        let (mut b, pool) = persistent_pool(8);
        b.arm_corruption();
        b.put(pool, ObjectId(1), 0, PageBuf::filled(1)).unwrap();
        b.put(pool, ObjectId(1), 1, PageBuf::filled(2)).unwrap();
        assert!(b.corrupt_page(pool, ObjectId(1), 0));
        let (pages, purged) = b.export_pool(pool).unwrap();
        assert_eq!(purged, 1);
        assert_eq!(pages, vec![(ObjectId(1), 1, PageBuf::filled(2))]);
        assert_eq!(b.integrity().detections, 1);
        assert_eq!(b.integrity().corrupt_dropped, 1);
        assert!(accounting_consistent(&b));
    }

    #[test]
    fn ephemeral_fifo_compaction_preserves_eviction_order() {
        let mut b: TmemBackend<PageBuf> = TmemBackend::new(1024);
        let pool = b.new_pool(VmId(1), PoolKind::Ephemeral).unwrap();
        for i in 0..400u32 {
            b.put(pool, ObjectId(0), i, PageBuf::filled(i as u8))
                .unwrap();
        }
        // Flush all but the last 10 → 390 tombstones, forcing compaction on
        // subsequent puts.
        for i in 0..390u32 {
            b.flush_page(pool, ObjectId(0), i).unwrap();
        }
        for i in 400..500u32 {
            b.put(pool, ObjectId(0), i, PageBuf::filled(i as u8))
                .unwrap();
        }
        assert!(
            b.ephemeral_fifo.len() <= 2 * 110 + TOMBSTONE_SLACK + 100,
            "fifo not compacted: {} entries for 110 live pages",
            b.ephemeral_fifo.len()
        );
        let evicted = b.evict_one_ephemeral().unwrap();
        assert_eq!(evicted, TmemKey::new(pool, ObjectId(0), 390));
        assert!(accounting_consistent(&b));
    }
}
