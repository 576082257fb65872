//! The hypervisor: Algorithm 1 enforcement over the tmem backend.
//!
//! The paper's Algorithm 1 (`hypervisor_op`) is implemented verbatim in
//! [`Hypervisor::put`]:
//!
//! ```text
//! if op == PUT:
//!     if tmem_used >= mm_target:        return E_TMEM
//!     else if node_info.free_tmem == 0: return E_TMEM
//!     else: allocate; tmem_used += 1; puts_succ += 1; return S_TMEM
//!     puts_total += 1                   (counted regardless of outcome)
//! else if op == FLUSH:
//!     deallocate; tmem_used -= 1;       return S_TMEM
//! ```
//!
//! A VM *can* hold more tmem than its target (paper §III-B): targets are
//! revised continuously and may drop below current use; the VM then simply
//! cannot acquire more pages until it releases enough or its target rises.
//! Exclusive gets and flushes release pages; additionally the hypervisor
//! "can reclaim tmem pages from a VM very slowly" (§III-B) — implemented as
//! [`Hypervisor::reclaim_over_target_into`], a per-interval trickle of a VM's
//! oldest persistent pages to its swap device while it exceeds its target.

use crate::host::FarConfig;
use crate::vm::VmConfig;
use sim_core::faults::{FaultInjector, FaultProfile, PutFate};
use sim_core::time::SimTime;
use sim_core::trace::{FaultKind, Payload, PutResult, Tracer};
use std::collections::BTreeMap;
use tmem::backend::{PoolKind, PoolOwner, PutOutcome, ScrubReport, TmemBackend, VmSlot};
use tmem::error::{ReturnCode, TmemError};
use tmem::key::{ObjectId, PageIndex, PoolId, VmId};
use tmem::page::PagePayload;
use tmem::stats::{MemStats, MmTarget, NodeInfo, StatsMsg, VmDataHyp};

/// Sampling intervals a VM's targets stay trusted without hearing from the
/// MM. Beyond this the hypervisor treats targets as stale and enforces the
/// graceful-degradation fallback instead (see [`Hypervisor::targets_stale`]).
pub const DEFAULT_TARGET_TTL: u64 = 5;

/// Outcome of a [`Hypervisor::get_checked`] lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GetOutcome<P> {
    /// The page, verified against its put-time checksum.
    Hit(P),
    /// The page, served from the host's far-memory tier after a local miss.
    /// Far hits are exclusive (the far copy is removed) and cost
    /// `CostModel::far_access` instead of a plain hypercall.
    FarHit(P),
    /// No page under this key.
    Miss,
    /// The stored page failed its integrity check. Persistent pools keep
    /// the page in place, so retries deterministically observe the same
    /// outcome until the guest flushes it (bounded retry/requeue recovery);
    /// ephemeral pools have already dropped it, so the next get is a clean
    /// miss.
    Corrupt,
}

/// The simulated hypervisor: tmem backend + per-VM Table I state + target
/// enforcement.
#[derive(Debug)]
pub struct Hypervisor<P> {
    backend: TmemBackend<P>,
    /// Table I state of each registered VM, indexed by the VM's
    /// [`VmSlot`] in `backend`. A hypercall reaches it through its pool's
    /// owner slot: two array accesses, no map probe. A backend never hands
    /// one slot to two ids, so no VM's counters land in another's.
    vm_data: Vec<Option<VmDataHyp>>,
    /// Registered VMs in id order (sample order) with their slots.
    vm_slots: BTreeMap<VmId, VmSlot>,
    /// Initial target handed to newly registered VMs. Greedy runs use the
    /// full node capacity ("VMs compete for tmem in a greedy way by
    /// default"); managed runs start VMs at the policy's choice (usually 0)
    /// until the first MM cycle installs real targets.
    default_initial_target: u64,
    /// Monotonic sample counter; stamps every `sample()` snapshot.
    sample_seq: u64,
    /// Sample seq at which the MM last proved liveness (a target push or an
    /// explicit keepalive). Targets older than [`DEFAULT_TARGET_TTL`]
    /// samples are stale.
    last_mm_refresh_seq: u64,
    /// Highest target-push sequence number applied (idempotence guard).
    last_target_seq: u64,
    /// Flight-recorder handle (disabled by default; one branch per op).
    tracer: Tracer,
    /// This host's fault injector: the runner and the dom0 relay draw
    /// control-plane fates from it, the datapath draws put fates and
    /// reports detections into it, and its ledger is the host's. Disabled
    /// by default, which keeps every datapath operation byte-identical to
    /// a fault-free build: no RNG, no donor retention, one flag check per
    /// put.
    faults: FaultInjector,
    /// Far-memory tier: a second backend whose pools mirror `backend`'s
    /// ids. Only the datapath below puts, gets and flushes there; MM
    /// targets, slow reclaim, the scrubber and fault injection never reach
    /// it. `None` (the default) keeps the datapath byte-identical to a host
    /// without far memory: one `Option` check on the capacity-reject, miss
    /// and flush paths, nothing else.
    far: Option<TmemBackend<P>>,
}

impl<P: PagePayload> Hypervisor<P> {
    /// A hypervisor owning `tmem_pages` page frames of pooled idle/fallow
    /// memory. `default_initial_target` is the target installed for a VM at
    /// registration, before the MM has spoken.
    pub fn new(tmem_pages: u64, default_initial_target: u64) -> Self {
        Hypervisor {
            backend: TmemBackend::new(tmem_pages),
            vm_data: Vec::new(),
            vm_slots: BTreeMap::new(),
            default_initial_target,
            sample_seq: 0,
            last_mm_refresh_seq: 0,
            last_target_seq: 0,
            tracer: Tracer::disabled(),
            faults: FaultInjector::disabled(),
            far: None,
        }
    }

    /// Attach a far-memory tier of `cfg.capacity_pages` pages. Persistent
    /// puts rejected for local capacity spill here, and gets that miss
    /// locally are served (exclusively) from it. Every pool created after
    /// this gets a far twin of the same id, so the tier must be attached
    /// before the first pool.
    pub fn set_far_tier(&mut self, cfg: FarConfig) {
        assert_eq!(
            self.backend.pool_count(),
            0,
            "a far tier is attached before the first pool"
        );
        self.far = Some(TmemBackend::new(cfg.capacity_pages));
    }

    /// Pages currently held in the far tier (0 without one).
    pub fn far_used(&self) -> u64 {
        self.far.as_ref().map_or(0, TmemBackend::used)
    }

    /// Far-tier pages held for `vm` (0 without a tier).
    pub fn far_used_by(&self, vm: VmId) -> u64 {
        self.far.as_ref().map_or(0, |f| f.used_by(vm))
    }

    /// Attach a flight-recorder handle; the tmem datapath, the target
    /// plumbing and the fault injector then emit structured events into it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.faults.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Install this host's fault injector for `profile`, seeded by `seed`,
    /// with a fresh ledger. Corruption probabilities additionally arm the
    /// backend's donor retention so injected corruptions have wrong bytes
    /// to cross-wire.
    pub fn set_faults(&mut self, profile: &FaultProfile, seed: u64) {
        if profile.page_bitflip > 0.0 || profile.torn_write > 0.0 {
            self.backend.arm_corruption();
        }
        self.faults = FaultInjector::new(profile.clone(), seed);
        self.faults.set_tracer(self.tracer.clone());
    }

    /// This host's fault injector.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Mutable access to this host's fault injector, for the control-plane
    /// edges that draw fates from it and the components that report
    /// degradation into its ledger.
    pub fn faults_mut(&mut self) -> &mut FaultInjector {
        &mut self.faults
    }

    /// Inject one `CorruptDetected` per detection the backend has made
    /// since the last call. The backend counts each corrupt page once
    /// regardless of how many ops observe it, so this converges on exactly
    /// one ledger entry and one event per detected corruption.
    fn emit_new_detections(&mut self, vm: Option<u32>) {
        let total = self.backend.integrity().detections;
        while self.faults.ledger().corruptions_detected < total {
            self.faults.inject(vm, FaultKind::CorruptDetected);
        }
    }

    /// Guest-side recovery callback: the kernel finished its bounded
    /// retry/requeue of a corrupt persistent page (flushed it and requeued
    /// a clean copy from its own memory).
    pub fn note_corrupt_recovered(&mut self, vm: VmId) {
        self.faults.inject(Some(vm.0), FaultKind::CorruptRecovered);
    }

    /// Register a VM (domain creation). Idempotent per id.
    pub fn register_vm(&mut self, config: VmConfig) {
        let id = config.id;
        if self.vm_slots.contains_key(&id) {
            return;
        }
        let slot = self.backend.vm_slot(id);
        self.vm_slots.insert(id, slot);
        if self.vm_data.len() <= slot.index() {
            self.vm_data.resize_with(slot.index() + 1, || None);
        }
        self.vm_data[slot.index()] = Some(VmDataHyp::new(id, self.default_initial_target));
    }

    /// Remove a VM from this host (outbound migration / domain teardown).
    /// The VM's pools must already be gone ([`Hypervisor::migrate_export`]
    /// or [`Hypervisor::destroy_pool`]); after this the host's samples and
    /// `node_info.vm_count` no longer include the VM. Returns whether the VM
    /// was registered here.
    pub fn unregister_vm(&mut self, vm: VmId) -> bool {
        assert_eq!(
            self.backend.used_by(vm),
            0,
            "unregistering {vm} while it still holds tmem pages"
        );
        let Some(slot) = self.vm_slots.remove(&vm) else {
            return false;
        };
        self.vm_data[slot.index()] = None;
        true
    }

    /// Live pools owned by `vm`, in pool-id order (see
    /// [`TmemBackend::pools_owned_by`]).
    pub fn pools_owned_by(&self, vm: VmId) -> Vec<(PoolId, PoolKind)> {
        self.backend.pools_owned_by(vm)
    }

    /// Create a tmem pool owned by `vm` (guest TKM initialization). The
    /// `PoolCreate` event makes the trace self-describing: replay learns
    /// each pool's kind here and can separate frontswap traffic from
    /// cleancache traffic without out-of-band context.
    pub fn new_pool(&mut self, vm: VmId, kind: PoolKind) -> Result<PoolId, TmemError> {
        assert!(
            self.vm_slots.contains_key(&vm),
            "pool created for unregistered {vm}"
        );
        let pool = self.backend.new_pool(vm, kind)?;
        if let Some(far) = self.far.as_mut() {
            let twin = far.new_pool(vm, kind)?;
            assert_eq!(twin, pool, "far pool ids mirror the local ones");
        }
        self.tracer.emit(|| {
            (
                Some(vm.0),
                Payload::PoolCreate {
                    pool: pool.0,
                    ephemeral: kind == PoolKind::Ephemeral,
                },
            )
        });
        Ok(pool)
    }

    /// Algorithm 1, `op == PUT`.
    ///
    /// Returns `Ok(outcome)` on `S_TMEM`; `Err(ReturnCode::Failure)` is the
    /// `E_TMEM` path (the guest falls back to its swap device).
    pub fn put(
        &mut self,
        pool: PoolId,
        object: ObjectId,
        index: PageIndex,
        payload: P,
    ) -> Result<PutOutcome, ReturnCode> {
        let Some(PoolOwner {
            vm: owner,
            slot,
            kind,
        }) = self.backend.pool_owner(pool)
        else {
            return Err(ReturnCode::Failure);
        };
        // Line 5: target check against the VM's current use. When the MM
        // has gone silent past the TTL the stored target is stale and is no
        // longer trusted as a ceiling below the fair-share floor (graceful
        // degradation; see `targets_stale`).
        let target = self.target_at(slot);
        // Line 15: puts_total incremented whether or not the put succeeds.
        vm_entry(&mut self.vm_data, slot).puts_total.incr();
        let tmem_used = self.backend.used_by_slot(slot);
        let mut fate = PutFate::Deliver;
        let stored = if tmem_used >= target {
            Err(PutResult::RejectTarget)
        } else {
            // Data-plane fault layer, after admission: a brownout window
            // rejects the put as a backend I/O failure; otherwise the
            // injector assigns this put its fate. Inactive layer ⇒ no RNG,
            // one branch.
            let io_fault = if !self.faults.data_plane() {
                None
            } else if self.faults.in_brownout() {
                Some(FaultKind::BrownoutReject)
            } else {
                fate = self.faults.put_fate(kind == PoolKind::Ephemeral);
                (fate == PutFate::IoFail).then_some(FaultKind::PutIoFail)
            };
            match io_fault {
                Some(fault) => {
                    self.faults.inject(Some(owner.0), fault);
                    Err(PutResult::RejectIo)
                }
                None => self.store(pool, kind, object, index, payload),
            }
        };
        if stored.is_ok() {
            // Lines 10-13.
            vm_entry(&mut self.vm_data, slot).puts_succ.incr();
        }
        self.tracer.emit(|| {
            let result = match stored {
                Ok(PutOutcome::Stored) => PutResult::Stored,
                Ok(PutOutcome::Replaced) => PutResult::Replaced,
                Ok(PutOutcome::StoredAfterEviction(_)) => PutResult::StoredEvict,
                Ok(PutOutcome::StoredFar) => PutResult::StoredFar,
                Err(rejected) => rejected,
            };
            (
                Some(owner.0),
                Payload::Put {
                    pool: pool.0,
                    result,
                    used: tmem_used,
                    target,
                },
            )
        });
        let outcome = stored.map_err(|_| ReturnCode::Failure)?;
        // The far tier takes no data-plane faults.
        if outcome != PutOutcome::StoredFar {
            if fate != PutFate::Deliver {
                self.apply_post_store_fault(fate, pool, owner, object, index);
            }
            // An eviction inside the put may have surfaced a corrupt
            // ephemeral page; mirror any new detections.
            self.emit_new_detections(Some(owner.0));
        }
        Ok(outcome)
    }

    /// Algorithm 1 line 7, the node free-page check, for an admitted put.
    /// Replacement puts and ephemeral recycling are resolved by the
    /// backend, so only a backend `NoCapacity` becomes `E_TMEM`. A host
    /// with a far tier spills persistent pages there instead of bouncing
    /// the guest to its swap disk; ephemeral pages are not worth fabric
    /// round-trips (re-reading the file is comparable).
    fn store(
        &mut self,
        pool: PoolId,
        kind: PoolKind,
        object: ObjectId,
        index: PageIndex,
        payload: P,
    ) -> Result<PutOutcome, PutResult> {
        // A persistent payload is cloned up front so the capacity-reject
        // path can spill it; hosts without a far tier skip the clone.
        let far_copy = match (&self.far, kind) {
            (Some(far), PoolKind::Persistent) if far.free_pages() > 0 => Some(payload.clone()),
            _ => None,
        };
        match self.backend.put(pool, object, index, payload) {
            Ok(outcome) => {
                self.trace_evict(outcome);
                Ok(outcome)
            }
            Err(TmemError::NoCapacity) => {
                if let (Some(far), Some(p)) = (self.far.as_mut(), far_copy) {
                    if far.put(pool, object, index, p).is_ok() {
                        return Ok(PutOutcome::StoredFar);
                    }
                }
                Err(PutResult::RejectCapacity)
            }
            Err(e) => panic!("unexpected tmem backend error on put: {e}"),
        }
    }

    /// A put that recycled an ephemeral page to make room: the `Evict`
    /// event attributes the loss to the page's owner.
    fn trace_evict(&self, outcome: PutOutcome) {
        if let PutOutcome::StoredAfterEviction(victim) = outcome {
            if let Some((victim_owner, _)) = self.backend.pool_info(victim.pool) {
                self.tracer.emit(|| {
                    (
                        Some(victim_owner.0),
                        Payload::Evict {
                            pool: victim.pool.0,
                        },
                    )
                });
            }
        }
    }

    /// Apply a non-`Deliver` fate to a page that was just stored: corrupt
    /// its contents in place (bitflip/torn write) or silently drop it
    /// (ephemeral loss). Out of line — fault injection is never the hot
    /// path. Fates that cannot land (no donor yet, page replaced-away)
    /// inject nothing and count nothing.
    #[cold]
    #[inline(never)]
    fn apply_post_store_fault(
        &mut self,
        fate: PutFate,
        pool: PoolId,
        owner: VmId,
        object: ObjectId,
        index: PageIndex,
    ) {
        match fate {
            PutFate::Bitflip | PutFate::Torn => {
                if self.backend.corrupt_page(pool, object, index) {
                    let kind = if fate == PutFate::Bitflip {
                        FaultKind::PageBitflip
                    } else {
                        FaultKind::TornWrite
                    };
                    self.faults.inject(Some(owner.0), kind);
                }
            }
            PutFate::Lose => {
                if self
                    .backend
                    .flush_page(pool, object, index)
                    .unwrap_or(false)
                {
                    self.faults.inject(Some(owner.0), FaultKind::EphemeralLoss);
                    self.tracer.emit(|| {
                        (
                            Some(owner.0),
                            Payload::DataPurge {
                                pool: pool.0,
                                pages: 1,
                            },
                        )
                    });
                }
            }
            PutFate::Deliver | PutFate::IoFail => unreachable!("handled before the store"),
        }
    }

    /// `tmem_get`. Persistent (frontswap) hits free the frame. Integrity
    /// failures surface as `None` here; recovery-aware callers use
    /// [`Hypervisor::get_checked`] to distinguish corruption from a miss.
    pub fn get(&mut self, pool: PoolId, object: ObjectId, index: PageIndex) -> Option<P> {
        match self.get_checked(pool, object, index) {
            GetOutcome::Hit(p) | GetOutcome::FarHit(p) => Some(p),
            GetOutcome::Miss | GetOutcome::Corrupt => None,
        }
    }

    /// `tmem_get` with integrity-aware outcomes: the guest kernel's
    /// recovery state machine needs to distinguish "no page" (refetch from
    /// disk) from "corrupt page" (bounded retry, then flush + requeue).
    pub fn get_checked(
        &mut self,
        pool: PoolId,
        object: ObjectId,
        index: PageIndex,
    ) -> GetOutcome<P> {
        let Some(PoolOwner {
            vm: owner,
            slot,
            kind,
        }) = self.backend.pool_owner(pool)
        else {
            return GetOutcome::Miss;
        };
        let data = vm_entry(&mut self.vm_data, slot);
        data.gets_total.incr();
        let out = match self.backend.get(pool, object, index) {
            Ok(p) => {
                data.gets_succ.incr();
                GetOutcome::Hit(p)
            }
            // An ephemeral pool has already dropped the corrupt page.
            Err(TmemError::Corrupt) => GetOutcome::Corrupt,
            // A local miss may still be a far-tier hit: the page was
            // spilled at put time. Far hits are exclusive (the far copy is
            // removed) but free no *local* frame, so the Get event carries
            // `freed: false` and a FarGet event attributes the fabric hit.
            Err(_) => match self
                .far
                .as_mut()
                .and_then(|f| f.get(pool, object, index).ok())
            {
                Some(p) => {
                    data.gets_succ.incr();
                    GetOutcome::FarHit(p)
                }
                None => GetOutcome::Miss,
            },
        };
        let hit = matches!(out, GetOutcome::Hit(_) | GetOutcome::FarHit(_));
        let far_hit = matches!(out, GetOutcome::FarHit(_));
        self.tracer.emit(|| {
            (
                Some(owner.0),
                Payload::Get {
                    pool: pool.0,
                    hit,
                    freed: hit && !far_hit && kind == PoolKind::Persistent,
                },
            )
        });
        if far_hit {
            self.tracer
                .emit(|| (Some(owner.0), Payload::FarGet { pool: pool.0 }));
        }
        if matches!(out, GetOutcome::Corrupt) {
            self.on_corrupt_get(pool, owner, kind);
        }
        out
    }

    /// Ledger/trace bookkeeping for a get that surfaced corruption. An
    /// ephemeral drop is both the purge and the recovery (the guest's next
    /// get is a clean miss and it refetches from disk); a persistent page
    /// stays put, so only the (deduplicated) detection is recorded here.
    #[cold]
    #[inline(never)]
    fn on_corrupt_get(&mut self, pool: PoolId, owner: VmId, kind: PoolKind) {
        self.emit_new_detections(Some(owner.0));
        if kind == PoolKind::Ephemeral {
            self.tracer.emit(|| {
                (
                    Some(owner.0),
                    Payload::DataPurge {
                        pool: pool.0,
                        pages: 1,
                    },
                )
            });
            self.faults
                .inject(Some(owner.0), FaultKind::CorruptRecovered);
        }
    }

    /// Algorithm 1, `op == FLUSH` (single page).
    pub fn flush_page(&mut self, pool: PoolId, object: ObjectId, index: PageIndex) -> ReturnCode {
        let Some(PoolOwner {
            vm: owner, slot, ..
        }) = self.backend.pool_owner(pool)
        else {
            return ReturnCode::Failure;
        };
        vm_entry(&mut self.vm_data, slot).flushes.incr();
        // A flush of an absent key (e.g. one the scrubber already
        // quarantined) succeeds but removes nothing — the event must carry
        // the real page count or occupancy replay would double-count.
        let (code, removed) = match self.backend.flush_page(pool, object, index) {
            Ok(removed) => (ReturnCode::Success, removed),
            Err(_) => (ReturnCode::Failure, false),
        };
        self.tracer.emit(|| {
            (
                Some(owner.0),
                Payload::Flush {
                    pool: pool.0,
                    pages: removed as u64,
                },
            )
        });
        self.flush_far(owner, pool, |far| {
            u64::from(far.flush_page(pool, object, index) == Ok(true))
        });
        // Flushing a corrupt page that nothing had observed yet still
        // counts as a detection.
        self.emit_new_detections(Some(owner.0));
        code
    }

    /// `tmem_flush_object`: invalidate a whole object; returns pages freed.
    pub fn flush_object(&mut self, pool: PoolId, object: ObjectId) -> u64 {
        let Some(PoolOwner {
            vm: owner, slot, ..
        }) = self.backend.pool_owner(pool)
        else {
            return 0;
        };
        vm_entry(&mut self.vm_data, slot).flushes.incr();
        let freed = self.backend.flush_object(pool, object).unwrap_or(0);
        self.tracer.emit(|| {
            (
                Some(owner.0),
                Payload::Flush {
                    pool: pool.0,
                    pages: freed,
                },
            )
        });
        self.flush_far(owner, pool, |far| {
            far.flush_object(pool, object).unwrap_or(0)
        });
        self.emit_new_detections(Some(owner.0));
        freed
    }

    /// `tmem_destroy_pool`: VM teardown / module unload; returns pages freed.
    pub fn destroy_pool(&mut self, pool: PoolId) -> u64 {
        let Some((owner, _)) = self.backend.pool_info(pool) else {
            return 0;
        };
        let freed = self.backend.destroy_pool(pool).unwrap_or(0);
        self.tracer.emit(|| {
            (
                Some(owner.0),
                Payload::PoolDestroy {
                    pool: pool.0,
                    pages: freed,
                },
            )
        });
        self.flush_far(owner, pool, |far| far.destroy_pool(pool).unwrap_or(0));
        self.emit_new_detections(Some(owner.0));
        freed
    }

    /// Run `flush` on the far tier, if there is one, and trace the far
    /// pages it removed. A spilled key lives there instead of in local
    /// tmem, and flush semantics cover it too; far removal is traced apart
    /// so that occupancy replay keeps the local and far ledgers distinct.
    fn flush_far(
        &mut self,
        owner: VmId,
        pool: PoolId,
        flush: impl FnOnce(&mut TmemBackend<P>) -> u64,
    ) {
        let Some(far) = self.far.as_mut() else {
            return;
        };
        let pages = flush(far);
        if pages > 0 {
            self.tracer.emit(|| {
                (
                    Some(owner.0),
                    Payload::FarFlush {
                        pool: pool.0,
                        pages,
                    },
                )
            });
        }
    }

    /// Slow reclaim (paper §III-B: "the hypervisor can reclaim tmem pages
    /// from a VM very slowly"): if the owner of `pool` uses more tmem than
    /// its target, remove up to `max_pages` of its **oldest** persistent
    /// pages and append their keys to `out`. The caller (runner) writes
    /// them to the VM's swap device and informs the guest kernel. The
    /// runner calls this once per VM per sampling interval, so at fleet
    /// scale (64+ VMs) reusing one buffer replaces thousands of
    /// short-lived allocations per simulated second.
    pub fn reclaim_over_target_into(
        &mut self,
        pool: PoolId,
        max_pages: u64,
        out: &mut Vec<(ObjectId, PageIndex)>,
    ) {
        let Some(PoolOwner {
            vm: owner,
            slot,
            kind,
        }) = self.backend.pool_owner(pool)
        else {
            return;
        };
        if kind != PoolKind::Persistent {
            return;
        }
        let target = self.target_at(slot);
        let used = self.backend.used_by_slot(slot);
        if used <= target {
            return;
        }
        let excess = used - target;
        let start = out.len();
        let dropped_before = self.backend.integrity().corrupt_dropped;
        self.backend
            .reclaim_oldest_persistent_into(pool, excess.min(max_pages), out);
        let pages = (out.len() - start) as u64;
        if pages > 0 {
            self.tracer.emit(|| {
                (
                    Some(owner.0),
                    Payload::Reclaim {
                        pool: pool.0,
                        pages,
                    },
                )
            });
        }
        // Corrupt victims were flushed but withheld from the swap
        // writeback: a silent occupancy drop, attributed to the owner.
        let dropped = self.backend.integrity().corrupt_dropped - dropped_before;
        if dropped > 0 {
            self.tracer.emit(|| {
                (
                    Some(owner.0),
                    Payload::DataPurge {
                        pool: pool.0,
                        pages: dropped,
                    },
                )
            });
        }
        self.emit_new_detections(Some(owner.0));
    }

    /// Install new targets from the MM (`SetTargets` hypercall). Stores them
    /// "and keeps them until the MM modifies them" (Algorithm 1 line 3).
    ///
    /// Unversioned convenience wrapper: stamps the push with the next
    /// sequence number, so it always applies. The relay path uses
    /// [`Hypervisor::apply_targets`] with the MM's own sequence numbers.
    pub fn set_targets(&mut self, targets: &[MmTarget]) {
        let seq = self.last_target_seq + 1;
        self.apply_targets(seq, targets);
    }

    /// Versioned, idempotent `SetTargets` application. A push whose `seq` is
    /// at or below the last applied one is a duplicate or a reordered stale
    /// message and is ignored (returns `false`) — re-applying the same push
    /// twice must be a no-op, and an old vector must never overwrite a newer
    /// one. Applying targets also counts as proof of MM liveness
    /// (refreshes the staleness TTL). Per-VM targets above node capacity
    /// are clamped (no policy can meaningfully target more than the pool).
    pub fn apply_targets(&mut self, seq: u64, targets: &[MmTarget]) -> bool {
        if seq <= self.last_target_seq {
            self.tracer.emit(|| {
                (
                    None,
                    Payload::TargetsApplied {
                        seq,
                        entries: targets.len() as u32,
                        applied: false,
                    },
                )
            });
            return false;
        }
        self.last_target_seq = seq;
        let capacity = self.backend.capacity();
        for t in targets {
            if let Some(&slot) = self.vm_slots.get(&t.vm_id) {
                vm_entry(&mut self.vm_data, slot).mm_target = t.mm_target.min(capacity);
            }
        }
        self.last_mm_refresh_seq = self.sample_seq;
        self.tracer.emit(|| {
            (
                None,
                Payload::TargetsApplied {
                    seq,
                    entries: targets.len() as u32,
                    applied: true,
                },
            )
        });
        true
    }

    /// MM liveness heartbeat: the privileged domain confirms the MM
    /// processed a snapshot this interval (even when target transmission was
    /// suppressed as unchanged). Refreshes the target-staleness TTL.
    pub fn keepalive(&mut self) {
        self.last_mm_refresh_seq = self.sample_seq;
    }

    /// Whether the stored targets have outlived their TTL: the MM has not
    /// proven liveness for more than [`DEFAULT_TARGET_TTL`] sampling
    /// intervals —
    /// crashed, or its relay channel is down. While stale, Algorithm 1
    /// stops trusting targets as ceilings below the per-VM fair-share floor
    /// (`capacity / vm_count`): VMs degrade to bounded greedy competition
    /// instead of being starved by a stale (possibly zero) target, and slow
    /// reclaim stops pulling VMs below that floor.
    pub fn targets_stale(&self) -> bool {
        self.sample_seq.saturating_sub(self.last_mm_refresh_seq) > DEFAULT_TARGET_TTL
    }

    /// The per-VM fallback floor while targets are stale: an equal share of
    /// node capacity.
    fn fallback_floor(&self) -> u64 {
        self.backend.capacity() / (self.vm_slots.len() as u64).max(1)
    }

    /// The target Algorithm 1 enforces right now for the VM at `slot` (0 if
    /// it is not registered): the MM-installed target while fresh, or
    /// `max(target, fair-share floor)` once stale. The floor's division is
    /// paid only while targets are stale.
    #[inline]
    fn target_at(&self, slot: VmSlot) -> u64 {
        let Some(data) = self.vm_data.get(slot.index()).and_then(Option::as_ref) else {
            return 0;
        };
        if self.targets_stale() {
            data.mm_target.max(self.fallback_floor())
        } else {
            data.mm_target
        }
    }

    /// Close the sampling interval and produce the sequence-stamped
    /// `memstats` snapshot that the VIRQ delivers to the privileged domain.
    /// Each VM's `tmem_used` is read from the backend, which owns it.
    pub fn sample(&mut self, at: SimTime) -> StatsMsg {
        self.sample_seq += 1;
        let (backend, vm_data) = (&self.backend, &mut self.vm_data);
        let vms: Vec<_> = self
            .vm_slots
            .values()
            .map(|&slot| vm_entry(vm_data, slot).close_interval(backend.used_by_slot(slot)))
            .collect();
        StatsMsg {
            seq: self.sample_seq,
            stats: MemStats {
                at,
                node: self.node_info(),
                vms,
            },
        }
    }

    /// Current `node_info`.
    pub fn node_info(&self) -> NodeInfo {
        NodeInfo {
            total_tmem: self.backend.capacity(),
            free_tmem: self.backend.free_pages(),
            vm_count: self.vm_slots.len() as u32,
        }
    }

    /// Current target for a VM (tests and figure recorders).
    pub fn target_of(&self, vm: VmId) -> Option<u64> {
        let slot = *self.vm_slots.get(&vm)?;
        self.vm_data[slot.index()].as_ref().map(|d| d.mm_target)
    }

    /// Pages of tmem currently used by a VM (figure recorders).
    pub fn tmem_used_by(&self, vm: VmId) -> u64 {
        self.backend.used_by(vm)
    }

    /// Read-only access to the backend (tests, invariant checks).
    pub fn backend(&self) -> &TmemBackend<P> {
        &self.backend
    }

    /// One scrubber/auditor pass over the whole backend: verify every
    /// stored page, quarantine corrupt objects, audit accounting. Emits one
    /// `DataPurge` per quarantined object (occupancy attribution) and one
    /// node-wide `Scrub` summary event, and panics if the accounting audit
    /// fails — a corrupted store must never keep running silently.
    pub fn scrub(&mut self) -> ScrubReport {
        let report = self.backend.scrub();
        assert!(
            report.accounting_ok,
            "tmem accounting invariants violated during scrub"
        );
        for q in &report.quarantined {
            let (owner, pool, pages) = (q.owner.0, q.pool.0, q.pages);
            self.tracer
                .emit(|| (Some(owner), Payload::DataPurge { pool, pages }));
        }
        let l = self.faults.ledger_mut();
        l.scrub_passes += 1;
        l.scrub_pages_checked += report.pages_checked;
        l.objects_quarantined += report.quarantined.len() as u64;
        self.emit_new_detections(None);
        let (checked, corrupt, quarantined) = (
            report.pages_checked,
            report.corrupt_pages,
            report.quarantined.len() as u64,
        );
        self.tracer.emit(|| {
            (
                None,
                Payload::Scrub {
                    checked,
                    corrupt,
                    quarantined,
                },
            )
        });
        report
    }

    /// Rip one persistent pool out of this host for live migration: every
    /// clean page (local and far) is returned in key order for the
    /// destination to re-admit; corrupt pages are *purged at the source* —
    /// never shipped, because re-checksumming wrong bytes on the
    /// destination would launder the corruption into a "clean" page. The
    /// pool itself is destroyed. The caller emits the `MigrateOut` event
    /// (it knows the transfer context); detections surfaced by the export
    /// are mirrored to ledger and trace here like any other op.
    pub fn migrate_export(&mut self, pool: PoolId) -> Option<PoolExport<P>> {
        let (owner, kind) = self.backend.pool_info(pool)?;
        assert_eq!(
            kind,
            PoolKind::Persistent,
            "only persistent (frontswap) pools migrate"
        );
        let (local, purged) = self.backend.export_pool(pool).ok()?;
        let far = self.far.as_mut().map_or_else(Vec::new, |f| {
            f.export_pool(pool).expect("every pool has a far twin").0
        });
        self.emit_new_detections(Some(owner.0));
        Some(PoolExport {
            owner,
            local,
            far,
            purged,
        })
    }

    /// Admit migrated pages into `pool` on this (destination) host,
    /// bypassing the target check — the pages were already admitted on the
    /// source and dropping them would lose guest data. Local tmem fills
    /// first, then the far tier; pages that fit nowhere are returned as
    /// spill keys for the caller to write to the VM's swap device (the
    /// swap-consistent overflow path). Imports are infrastructure traffic,
    /// not guest hypercalls: no put counters move and no `Put` events are
    /// emitted — the caller's `MigrateIn` event carries the occupancy.
    pub fn import_pages(
        &mut self,
        pool: PoolId,
        pages: Vec<(ObjectId, PageIndex, P)>,
    ) -> ImportOutcome {
        let (_, kind) = self
            .backend
            .pool_info(pool)
            .expect("import into a missing pool");
        assert_eq!(kind, PoolKind::Persistent, "imports target frontswap pools");
        let mut stored = 0u64;
        let mut stored_far = 0u64;
        let mut spilled = Vec::new();
        for (object, index, payload) in pages {
            match self.backend.put(pool, object, index, payload.clone()) {
                Ok(outcome @ (PutOutcome::Stored | PutOutcome::StoredAfterEviction(_))) => {
                    // A crowded destination recycles an ephemeral victim to
                    // make room, exactly like a guest put would.
                    self.trace_evict(outcome);
                    stored += 1;
                }
                Ok(other) => {
                    // The destination pool is fresh, so a Replaced outcome
                    // means unaccounted side effects.
                    panic!("import produced side-effecting outcome {other:?}")
                }
                Err(TmemError::NoCapacity) => {
                    let to_far = self
                        .far
                        .as_mut()
                        .is_some_and(|f| f.put(pool, object, index, payload).is_ok());
                    if to_far {
                        stored_far += 1;
                    } else {
                        spilled.push((object, index));
                    }
                }
                Err(e) => panic!("unexpected tmem backend error on import: {e}"),
            }
        }
        ImportOutcome {
            stored,
            stored_far,
            spilled,
        }
    }
}

/// The Table I state of the registered VM at `slot`.
#[inline]
fn vm_entry(vm_data: &mut [Option<VmDataHyp>], slot: VmSlot) -> &mut VmDataHyp {
    vm_data[slot.index()]
        .as_mut()
        .expect("pool owner must be registered")
}

/// Everything [`Hypervisor::migrate_export`] rips out of the source host
/// for one migrating pool.
#[derive(Debug)]
pub struct PoolExport<P> {
    /// The VM that owned the pool.
    pub owner: VmId,
    /// Clean local pages in `(object, index)` order.
    pub local: Vec<(ObjectId, PageIndex, P)>,
    /// Clean far-tier pages in `(object, index)` order.
    pub far: Vec<(ObjectId, PageIndex, P)>,
    /// Corrupt pages dropped at export (detected, never shipped).
    pub purged: u64,
}

/// Where [`Hypervisor::import_pages`] landed a migrated page set.
#[derive(Debug)]
pub struct ImportOutcome {
    /// Pages admitted into local tmem.
    pub stored: u64,
    /// Pages admitted into the far tier.
    pub stored_far: u64,
    /// Keys that fit nowhere; the caller writes them to the VM's swap.
    pub spilled: Vec<(ObjectId, PageIndex)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmem::page::Fingerprint;

    fn hv(cap: u64, target: u64) -> (Hypervisor<Fingerprint>, PoolId) {
        let mut h = Hypervisor::new(cap, target);
        h.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let pool = h.new_pool(VmId(1), PoolKind::Persistent).unwrap();
        (h, pool)
    }

    fn fp(i: u64) -> Fingerprint {
        Fingerprint::of(i, 0)
    }

    #[test]
    fn put_respects_target_before_capacity() {
        // Capacity 10 but target 3: the 4th put must fail with E_TMEM even
        // though the node has free pages (Algorithm 1 line 5 precedes 7).
        let (mut h, pool) = hv(10, 3);
        for i in 0..3 {
            h.put(pool, ObjectId(0), i, fp(i as u64)).unwrap();
        }
        assert!(h.put(pool, ObjectId(0), 3, fp(3)).is_err());
        assert_eq!(h.node_info().free_tmem, 7, "free pages remain unused");
    }

    #[test]
    fn put_fails_when_node_full_even_below_target() {
        let (mut h, pool) = hv(2, 100);
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        h.put(pool, ObjectId(0), 1, fp(1)).unwrap();
        assert!(h.put(pool, ObjectId(0), 2, fp(2)).is_err());
    }

    #[test]
    fn puts_total_counts_failures_too() {
        let (mut h, pool) = hv(10, 1);
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        let _ = h.put(pool, ObjectId(0), 1, fp(1));
        let _ = h.put(pool, ObjectId(0), 2, fp(2));
        let stats = h.sample(SimTime::from_secs(1)).stats;
        let vm = &stats.vms[0];
        assert_eq!(vm.puts_total, 3);
        assert_eq!(vm.puts_succ, 1);
        assert_eq!(vm.failed_puts(), 2);
    }

    #[test]
    fn target_ttl_expires_strictly_after_five_silent_intervals() {
        // The stored targets go stale only once the MM has been silent for
        // MORE than DEFAULT_TARGET_TTL (5) sampling intervals: the boundary
        // interval itself is still fresh.
        let (mut h, _pool) = hv(10, 10);
        assert!(h.apply_targets(
            1,
            &[MmTarget {
                vm_id: VmId(1),
                mm_target: 4,
            }]
        ));
        for k in 1..=DEFAULT_TARGET_TTL {
            h.sample(SimTime::from_secs(k));
            assert!(
                !h.targets_stale(),
                "interval {k}: targets must stay fresh through the TTL"
            );
        }
        h.sample(SimTime::from_secs(DEFAULT_TARGET_TTL + 1));
        assert!(h.targets_stale(), "interval 6: one past the TTL is stale");
        // A fresh push clears staleness immediately.
        assert!(h.apply_targets(
            2,
            &[MmTarget {
                vm_id: VmId(1),
                mm_target: 4,
            }]
        ));
        assert!(!h.targets_stale());
    }

    #[test]
    fn vm_may_exceed_lowered_target_but_cannot_grow() {
        let (mut h, pool) = hv(10, 5);
        for i in 0..5 {
            h.put(pool, ObjectId(0), i, fp(i as u64)).unwrap();
        }
        // MM lowers the target below current use.
        h.set_targets(&[MmTarget {
            vm_id: VmId(1),
            mm_target: 2,
        }]);
        assert_eq!(h.tmem_used_by(VmId(1)), 5, "existing pages are kept");
        assert!(h.put(pool, ObjectId(0), 9, fp(9)).is_err(), "no growth");
        // Exclusive gets release pages; once below target, puts work again.
        for i in 0..4 {
            h.get(pool, ObjectId(0), i).unwrap();
        }
        assert_eq!(h.tmem_used_by(VmId(1)), 1);
        assert!(h.put(pool, ObjectId(0), 10, fp(10)).is_ok());
    }

    #[test]
    fn get_releases_frames_and_counts() {
        let (mut h, pool) = hv(4, 4);
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        assert_eq!(h.get(pool, ObjectId(0), 0), Some(fp(0)));
        assert_eq!(h.get(pool, ObjectId(0), 0), None, "exclusive get");
        let s = h.sample(SimTime::from_secs(1)).stats;
        assert_eq!(s.vms[0].gets_total, 2);
        assert_eq!(s.vms[0].gets_succ, 1);
        assert_eq!(s.vms[0].tmem_used, 0);
    }

    #[test]
    fn flush_decrements_usage() {
        let (mut h, pool) = hv(4, 4);
        h.put(pool, ObjectId(3), 0, fp(0)).unwrap();
        h.put(pool, ObjectId(3), 1, fp(1)).unwrap();
        assert_eq!(h.flush_page(pool, ObjectId(3), 0), ReturnCode::Success);
        assert_eq!(h.tmem_used_by(VmId(1)), 1);
        assert_eq!(h.flush_object(pool, ObjectId(3)), 1);
        assert_eq!(h.tmem_used_by(VmId(1)), 0);
    }

    #[test]
    fn sample_resets_interval_counters() {
        let (mut h, pool) = hv(4, 4);
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        let s1 = h.sample(SimTime::from_secs(1));
        assert_eq!(s1.seq, 1, "samples are sequence-stamped");
        assert_eq!(s1.stats.vms[0].puts_total, 1);
        let s2 = h.sample(SimTime::from_secs(2));
        assert_eq!(s2.seq, 2);
        assert_eq!(s2.stats.vms[0].puts_total, 0, "interval counters reset");
        assert_eq!(s2.stats.vms[0].tmem_used, 1, "gauges persist");
    }

    #[test]
    fn cumulative_failed_puts_accumulate_across_intervals() {
        let (mut h, pool) = hv(10, 0);
        for i in 0..3 {
            let _ = h.put(pool, ObjectId(0), i, fp(i as u64));
        }
        let s1 = h.sample(SimTime::from_secs(1)).stats;
        assert_eq!(s1.vms[0].cumul_puts_failed, 3);
        let _ = h.put(pool, ObjectId(0), 9, fp(9));
        let s2 = h.sample(SimTime::from_secs(2)).stats;
        assert_eq!(s2.vms[0].cumul_puts_failed, 4);
    }

    #[test]
    fn set_targets_ignores_unknown_vms() {
        use sim_core::trace::Recorder;
        let (mut h, _) = hv(4, 4);
        let tracer = Tracer::new(Recorder::new(16));
        h.set_tracer(tracer.clone());
        h.set_targets(&[MmTarget {
            vm_id: VmId(99),
            mm_target: 1,
        }]);
        assert_eq!(h.target_of(VmId(99)), None);
        let applied: Vec<_> = tracer
            .finish()
            .expect("tracer enabled")
            .events
            .iter()
            .filter_map(|e| match e.payload {
                Payload::TargetsApplied {
                    seq,
                    entries,
                    applied,
                } => Some((seq, entries, applied)),
                _ => None,
            })
            .collect();
        assert_eq!(applied, [(1, 1, true)], "one push, received and applied");
    }

    #[test]
    fn brownout_windows_reject_admitted_puts() {
        let (mut h, pool) = hv(100, 100);
        let mut profile = FaultProfile::none();
        profile.brownout_every = 4;
        profile.brownout_for = 2;
        h.set_faults(&profile, 7);
        // The window is the tail of each period: intervals with
        // `interval % every >= every - brownout_for`, i.e. 2,3 then 6,7.
        let mut rejected = Vec::new();
        for interval in 1..=8u32 {
            h.faults_mut().tick_interval();
            if h.put(pool, ObjectId(0), interval, fp(interval as u64))
                .is_err()
            {
                rejected.push(interval);
            }
        }
        assert_eq!(rejected, vec![2, 3, 6, 7]);
        let ledger = h.faults().ledger();
        assert_eq!(ledger.brownout_rejections, 4);
        assert_eq!(ledger.brownout_ticks, 4);
    }

    #[test]
    fn injected_corruption_is_detected_never_returned() {
        let (mut h, pool) = hv(100, 100);
        let mut profile = FaultProfile::none();
        profile.page_bitflip = 1.0; // every admitted put corrupts
        h.set_faults(&profile, 7);
        // First put has no distinct-checksum donor yet; keep putting until
        // an injection lands.
        for i in 0..4u32 {
            h.put(pool, ObjectId(0), i, fp(i as u64)).unwrap();
        }
        let ledger = h.faults().ledger();
        assert!(ledger.bitflips_injected >= 3, "donor present from put 2 on");
        let injected = ledger.bitflips_injected;
        // Every corrupted page surfaces as Corrupt (never wrong bytes, page
        // held in place for retries), clean ones as verified hits.
        let mut corrupt = 0u64;
        for i in 0..4u32 {
            match h.get_checked(pool, ObjectId(0), i) {
                GetOutcome::Hit(p) => assert_eq!(p, fp(i as u64)),
                GetOutcome::Corrupt => {
                    assert_eq!(h.get_checked(pool, ObjectId(0), i), GetOutcome::Corrupt);
                    corrupt += 1;
                }
                GetOutcome::Miss => panic!("page {i} vanished"),
                GetOutcome::FarHit(_) => panic!("no far tier installed"),
            }
        }
        assert_eq!(corrupt, injected);
        assert_eq!(h.faults().ledger().corruptions_detected, injected);
    }

    #[test]
    fn scrub_quarantines_and_ledgers_detected_corruption() {
        let (mut h, pool) = hv(100, 100);
        let mut profile = FaultProfile::none();
        profile.torn_write = 1.0;
        profile.scrub_every = 1;
        h.set_faults(&profile, 7);
        for i in 0..3u32 {
            h.put(pool, ObjectId(0), i, fp(i as u64)).unwrap();
        }
        h.faults_mut().tick_interval();
        assert!(h.faults().scrub_due());
        let report = h.scrub();
        assert_eq!(report.pages_checked, 3);
        let ledger = h.faults().ledger();
        assert_eq!(report.corrupt_pages, ledger.torn_writes_injected);
        assert_eq!(ledger.objects_quarantined, 1);
        assert_eq!(ledger.scrub_passes, 1);
        assert_eq!(ledger.scrub_pages_checked, 3);
        assert_eq!(ledger.corruptions_detected, ledger.torn_writes_injected);
        // Quarantine removed the whole object and fixed up accounting.
        assert_eq!(h.tmem_used_by(VmId(1)), 0);
        // A second pass over the clean store finds nothing.
        let again = h.scrub();
        assert_eq!(again.corrupt_pages, 0);
        assert!(again.quarantined.is_empty());
    }

    #[test]
    fn ephemeral_loss_is_invisible_to_the_put_caller() {
        let mut h: Hypervisor<Fingerprint> = Hypervisor::new(100, 100);
        h.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let pool = h.new_pool(VmId(1), PoolKind::Ephemeral).unwrap();
        let mut profile = FaultProfile::none();
        profile.ephemeral_loss = 1.0;
        h.set_faults(&profile, 7);
        // The put succeeds from the guest's perspective...
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        // ...but the page is already gone: a clean miss, cleancache-legal.
        assert_eq!(h.get_checked(pool, ObjectId(0), 0), GetOutcome::Miss);
        assert_eq!(h.tmem_used_by(VmId(1)), 0);
        assert_eq!(h.faults().ledger().ephemeral_losses_injected, 1);
    }

    #[test]
    fn fault_free_profile_installs_no_data_layer() {
        let (mut h, pool) = hv(10, 10);
        h.set_faults(&FaultProfile::none(), 7);
        assert!(!h.faults().data_plane());
        assert!(!h.faults().scrub_due());
        h.faults_mut().tick_interval();
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        assert_eq!(h.get(pool, ObjectId(0), 0), Some(fp(0)));
    }

    #[test]
    fn samples_list_vms_in_id_order_across_re_registration() {
        let mut h: Hypervisor<Fingerprint> = Hypervisor::new(100, 100);
        let mut pools = BTreeMap::new();
        for id in [3, 1, 2] {
            h.register_vm(VmConfig::new(VmId(id), "VM", 1 << 20, 1));
            pools.insert(id, h.new_pool(VmId(id), PoolKind::Persistent).unwrap());
        }
        // VM 1 migrates away, VM 4 arrives, VM 1 comes back with a fresh
        // pool.
        let stale = pools[&1];
        h.put(stale, ObjectId(0), 0, fp(0)).unwrap();
        assert_eq!(h.migrate_export(stale).unwrap().local.len(), 1);
        assert!(h.unregister_vm(VmId(1)));
        for id in [4, 1] {
            h.register_vm(VmConfig::new(VmId(id), "VM", 1 << 20, 1));
            pools.insert(id, h.new_pool(VmId(id), PoolKind::Persistent).unwrap());
        }
        let ids = |s: &StatsMsg| s.stats.vms.iter().map(|d| d.vm_id.0).collect::<Vec<_>>();
        assert_eq!(ids(&h.sample(SimTime::from_secs(1))), [1, 2, 3, 4]);
        // VM n puts n pages, gets n - 1 of them back and flushes one
        // object; nothing lands in another VM's counters.
        for (&id, &pool) in &pools {
            for i in 0..id {
                h.put(pool, ObjectId(0), i, fp(u64::from(id * 100 + i)))
                    .unwrap();
            }
            for i in 1..id {
                assert_eq!(
                    h.get(pool, ObjectId(0), i),
                    Some(fp(u64::from(id * 100 + i)))
                );
            }
            assert_eq!(h.flush_object(pool, ObjectId(0)), 1);
        }
        // The exported pool is gone: its hypercalls count for nobody.
        assert!(h.put(stale, ObjectId(0), 1, fp(1)).is_err());
        assert_eq!(h.get(stale, ObjectId(0), 0), None);
        assert_eq!(h.flush_page(stale, ObjectId(0), 0), ReturnCode::Failure);
        let msg = h.sample(SimTime::from_secs(2));
        assert_eq!(ids(&msg), [1, 2, 3, 4]);
        for d in &msg.stats.vms {
            let n = u64::from(d.vm_id.0);
            assert_eq!(
                (
                    d.puts_total,
                    d.puts_succ,
                    d.gets_total,
                    d.gets_succ,
                    d.flushes
                ),
                (n, n, n - 1, n - 1, 1),
                "{}",
                d.vm_id
            );
            assert_eq!(d.tmem_used, 0);
        }
        assert_eq!(h.node_info().vm_count, 4);
    }

    /// A host with `cap` local frames and a `far`-page far tier, with VM 1
    /// and VM 2 registered and holding one persistent pool each.
    fn far_hv(cap: u64, far: u64) -> (Hypervisor<Fingerprint>, PoolId, PoolId) {
        let mut h = Hypervisor::new(cap, 100);
        h.set_far_tier(FarConfig {
            capacity_pages: far,
        });
        let [p1, p2] = [1, 2].map(|vm| {
            h.register_vm(VmConfig::new(VmId(vm), "VM", 1 << 20, 1));
            h.new_pool(VmId(vm), PoolKind::Persistent).unwrap()
        });
        (h, p1, p2)
    }

    fn record(h: &mut Hypervisor<Fingerprint>) -> Tracer {
        let tracer = Tracer::new(sim_core::trace::Recorder::new(64));
        h.set_tracer(tracer.clone());
        tracer
    }

    fn payloads(tracer: &Tracer) -> Vec<Payload> {
        let trace = tracer.finish().expect("tracer enabled");
        trace.events.into_iter().map(|e| e.payload).collect()
    }

    #[test]
    fn persistent_puts_spill_to_the_far_tier_once_local_tmem_is_full() {
        let (mut h, pool, _) = far_hv(2, 2);
        let cache = h.new_pool(VmId(1), PoolKind::Ephemeral).unwrap();
        let tracer = record(&mut h);
        let (stored, far, rejected) = (
            Ok(PutOutcome::Stored),
            Ok(PutOutcome::StoredFar),
            Err(ReturnCode::Failure),
        );
        // The cleancache put finds local tmem full and the far tier empty.
        let puts = [
            (pool, stored),
            (pool, stored),
            (cache, rejected),
            (pool, far),
            (pool, far),
            (pool, rejected),
        ];
        for (i, (p, want)) in (0u32..).zip(puts) {
            assert_eq!(h.put(p, ObjectId(0), i, fp(u64::from(i))), want, "put {i}");
        }
        assert_eq!((h.tmem_used_by(VmId(1)), h.far_used()), (2, 2));
        let results: Vec<_> = payloads(&tracer)
            .into_iter()
            .filter_map(|p| match p {
                Payload::Put { result, .. } => Some(result.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            results,
            [
                "stored",
                "stored",
                "reject_cap",
                "stored_far",
                "stored_far",
                "reject_cap"
            ]
        );
        let s = h.sample(SimTime::from_secs(1)).stats;
        assert_eq!((s.vms[0].puts_total, s.vms[0].puts_succ), (6, 4));
    }

    #[test]
    fn a_zero_page_far_tier_admits_nothing() {
        let (mut h, pool, _) = far_hv(1, 0);
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        assert!(h.put(pool, ObjectId(0), 1, fp(1)).is_err());
        let out = h.import_pages(pool, vec![(ObjectId(1), 0, fp(2))]);
        assert_eq!((out.stored, out.stored_far), (0, 0));
        assert_eq!(out.spilled, [(ObjectId(1), 0)]);
        assert_eq!(h.far_used(), 0);
    }

    #[test]
    fn a_far_hit_is_exclusive_and_traced() {
        let (mut h, pool, _) = far_hv(1, 1);
        h.put(pool, ObjectId(0), 0, fp(0)).unwrap();
        assert_eq!(
            h.put(pool, ObjectId(0), 1, fp(1)),
            Ok(PutOutcome::StoredFar)
        );
        let tracer = record(&mut h);
        assert_eq!(
            h.get_checked(pool, ObjectId(0), 1),
            GetOutcome::FarHit(fp(1))
        );
        assert_eq!(h.get_checked(pool, ObjectId(0), 1), GetOutcome::Miss);
        assert_eq!(h.far_used(), 0);
        assert_eq!(h.tmem_used_by(VmId(1)), 1, "the local page stays");
        let p = pool.0;
        assert_eq!(
            payloads(&tracer),
            [
                Payload::Get {
                    pool: p,
                    hit: true,
                    freed: false
                },
                Payload::FarGet { pool: p },
                Payload::Get {
                    pool: p,
                    hit: false,
                    freed: false
                },
            ]
        );
        let s = h.sample(SimTime::from_secs(1)).stats;
        assert_eq!((s.vms[0].gets_total, s.vms[0].gets_succ), (2, 1));
    }

    #[test]
    fn flushes_remove_far_copies_and_trace_their_count() {
        let (mut h, pool, _) = far_hv(1, 8);
        // (0, 0) stays local; the other four keys spill.
        for (o, i) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)] {
            h.put(pool, ObjectId(o), i, fp(o * 10 + u64::from(i)))
                .unwrap();
        }
        assert_eq!(h.far_used(), 4);
        let tracer = record(&mut h);
        assert_eq!(h.flush_page(pool, ObjectId(0), 1), ReturnCode::Success);
        assert_eq!(h.flush_page(pool, ObjectId(0), 1), ReturnCode::Success);
        assert_eq!(h.flush_object(pool, ObjectId(1)), 0, "no local page freed");
        assert_eq!(h.far_used(), 1);
        assert_eq!(h.destroy_pool(pool), 1);
        assert_eq!(h.far_used(), 0);
        let far_flushes: Vec<_> = payloads(&tracer)
            .into_iter()
            .filter_map(|p| match p {
                Payload::FarFlush { pool, pages } => Some((pool, pages)),
                _ => None,
            })
            .collect();
        assert_eq!(far_flushes, [(pool.0, 1), (pool.0, 2), (pool.0, 1)]);
    }

    #[test]
    fn far_use_is_tracked_per_vm() {
        let (mut h, p1, p2) = far_hv(1, 8);
        h.put(p1, ObjectId(0), 0, fp(0)).unwrap();
        h.put(p1, ObjectId(0), 1, fp(1)).unwrap();
        h.put(p2, ObjectId(0), 0, fp(2)).unwrap();
        h.put(p2, ObjectId(0), 1, fp(3)).unwrap();
        let use_of = |h: &Hypervisor<Fingerprint>| {
            (h.far_used_by(VmId(1)), h.far_used_by(VmId(2)), h.far_used())
        };
        assert_eq!(use_of(&h), (1, 2, 3));
        assert_eq!(h.get(p2, ObjectId(0), 0), Some(fp(2)));
        assert_eq!(use_of(&h), (1, 1, 2));
        assert_eq!(h.flush_object(p1, ObjectId(0)), 1);
        assert_eq!(use_of(&h), (0, 1, 1));
        assert_eq!(h.far_used_by(VmId(3)), 0, "unknown VM");
    }

    #[test]
    fn migrate_export_returns_far_pages_in_key_order() {
        let (mut h, p1, p2) = far_hv(1, 8);
        h.put(p1, ObjectId(5), 0, fp(50)).unwrap();
        for (o, i) in [(2, 1), (0, 9), (2, 0)] {
            h.put(p1, ObjectId(o), i, fp(o * 10 + u64::from(i)))
                .unwrap();
        }
        h.put(p2, ObjectId(0), 0, fp(77)).unwrap();
        let export = h.migrate_export(p1).unwrap();
        assert_eq!(export.local, [(ObjectId(5), 0, fp(50))]);
        let far: Vec<_> = export.far.iter().map(|&(o, i, p)| (o.0, i, p)).collect();
        assert_eq!(far, [(0, 9, fp(9)), (2, 0, fp(20)), (2, 1, fp(21))]);
        assert_eq!((h.far_used_by(VmId(1)), h.far_used()), (0, 1));
        assert_eq!(h.get(p1, ObjectId(2), 0), None, "the pool is gone");
    }

    #[test]
    fn import_fills_local_tmem_then_the_far_tier_then_spills() {
        let (mut h, pool, _) = far_hv(2, 2);
        let tracer = record(&mut h);
        let pages = (0..5).map(|i| (ObjectId(0), i, fp(u64::from(i))));
        let out = h.import_pages(pool, pages.collect());
        assert_eq!((out.stored, out.stored_far), (2, 2));
        assert_eq!(out.spilled, [(ObjectId(0), 4)]);
        assert!(payloads(&tracer).is_empty(), "imports are not hypercalls");
        assert_eq!(h.get(pool, ObjectId(0), 3), Some(fp(3)), "a far hit");
        assert_eq!(h.get(pool, ObjectId(0), 1), Some(fp(1)), "a local hit");
    }

    #[test]
    #[should_panic(expected = "before the first pool")]
    fn a_far_tier_is_refused_once_pools_exist() {
        let (mut h, _) = hv(4, 4);
        h.set_far_tier(FarConfig { capacity_pages: 4 });
    }

    #[test]
    fn destroy_pool_zeroes_usage() {
        let (mut h, pool) = hv(8, 8);
        for i in 0..6 {
            h.put(pool, ObjectId(0), i, fp(i as u64)).unwrap();
        }
        assert_eq!(h.destroy_pool(pool), 6);
        assert_eq!(h.tmem_used_by(VmId(1)), 0);
        assert_eq!(h.node_info().free_tmem, 8);
    }
}
