//! Replay verifier for the flight recorder.
//!
//! The trace event stream is a load-bearing contract, and [`TraceFold`] is
//! its one reading: [`TraceFold::observe`] takes one event per call, with
//! no lookahead, and keeps O(VMs) state — per-VM datapath tallies and
//! occupancy, the whole [`FaultLedger`], `Fault` events per kind, the MM
//! counters and relay sheds. [`verify`] and [`verify_cluster`] fold a run's
//! trace and check the fold against the live accounting carried by a
//! [`RunResult`]; `smartmem-cli trace` and `inspect` fold a trace with
//! [`TraceFold::of`] and print one summary of it, tallies and
//! [`TraceFold::checks`]. A run whose trace replays cleanly proves that
//! every subsystem emitted exactly the events its state changes imply — no
//! missing emission sites, no double counting, no schema drift. The
//! recorder's registry (`TraceMetrics`, the benchmark's nine counters) is
//! not re-derived here; `tests/trace_replay.rs` checks that on a drop-free
//! trace the fold's totals equal it.
//!
//! Fold rules:
//!
//! * occupancy: `Put` with a frame-consuming result is +1 for the putting
//!   VM; `Evict` is −1 for the victim; a persistent-pool `Get` hit frees the
//!   frame (−1); `Flush`/`PoolDestroy`/`Reclaim`/`DataPurge` subtract their
//!   page counts. An event that names no VM moves no VM's tallies.
//! * far tier: a `stored_far` put is +1 *far* occupancy (the local frame was
//!   never consumed); `FarGet` is −1 (far hits are exclusive; the paired
//!   `Get` event carries `freed: false`); `FarFlush` subtracts its page
//!   count.
//! * migration: `MigrateOut` empties the departing VM on the source host
//!   (local pages + purged corrupt pages from local occupancy, far pages
//!   from far occupancy); `MigrateIn` credits the destination with what
//!   landed locally and in far memory, and counts spilled pages into the
//!   VM's reclaim total (the import overflow path goes through the guest's
//!   reclaim callback, which has no `Reclaim` event of its own).
//! * pool kinds: `PoolCreate` events make the trace self-describing about
//!   each pool's kind, and a VM's datapath counts are kept per kind. The
//!   guest kernel's admission counters cover the *frontswap* datapath
//!   only, so the kernel-stat comparison reads the frontswap tally, and
//!   cleancache (ephemeral-pool) traffic moves occupancy alone.
//! * ledger: sample/netlink fates, relay push outcomes (a retry is any
//!   attempt ≥ 2 that is not a `Superseded` marker — superseding re-reports
//!   the old push's attempt count without making a new attempt), MM
//!   crash/restart/discard events, and sequence gaps re-derived with the
//!   MM's own rule: a fresh snapshot's `seq_in` more than one above the
//!   previous one is a gap, and a crash resets the high-water mark.
//! * event-only checks ([`TraceFold::checks`]): every control-plane
//!   `Fault` event must match the fate it caused — a dropped/delayed/
//!   duplicated sample, a dropped/reordered netlink message, a parked or
//!   abandoned push, an MM crash; corruptions detected must equal bit
//!   flips plus torn writes; `reject_io` puts must equal put I/O failures
//!   plus brownout rejections; recoveries never outnumber detections.
//!
//! Replay adds the live comparisons: the occupancy vector at the `k`-th
//! [`Payload::IntervalClose`] against the `k`-th point of the recorded
//! occupancy series; the final local and far vectors against
//! `RunResult::final_tmem_used`/`final_far_used` (a VM that appears in a
//! host's trace but not in its final `vm_results` must end at exactly zero
//! on that host); the ledger field by field; the MM cycle and transmission
//! counts; and the per-VM admission counters against the guest kernel
//! statistics.

use crate::runner::RunResult;
use guest_os::kernel::KernelStats;
use sim_core::faults::{FaultLedger, NetlinkFate, SampleFate};
use sim_core::trace::{FaultKind, Payload, PushOutcome, PutResult, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};

/// Datapath counts of one VM on one kind of pool.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolTally {
    /// Puts by result, in [`PutResult::ALL`] order.
    puts: [u64; PutResult::ALL.len()],
    /// Gets.
    pub gets: u64,
    /// Gets that hit (locally or in the far tier).
    pub hits: u64,
    /// Pages of this VM evicted to make room for another put.
    pub evictions: u64,
    /// Single-page flush operations.
    pub flushes: u64,
    /// Frames freed by flushes and pool destroys.
    pub flushed_pages: u64,
}

impl PoolTally {
    /// Puts that ended `result`.
    pub fn put(&self, result: PutResult) -> u64 {
        self.puts[result as usize]
    }

    /// Puts whose outcome [`PutResult::is_success`] is `success`.
    fn puts_where(&self, success: bool) -> u64 {
        PutResult::ALL
            .into_iter()
            .filter(|r| r.is_success() == success)
            .map(|r| self.put(r))
            .sum()
    }
}

/// One VM's tallies as its events imply them.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmTally {
    /// Datapath counts on frontswap pools: persistent pools, and any pool
    /// the trace never announced.
    frontswap: PoolTally,
    /// Datapath counts on cleancache (ephemeral) pools.
    cleancache: PoolTally,
    /// Pages handed back to the guest: reclaims plus migration spill.
    pub reclaimed: u64,
    /// Local tmem frames held.
    occupancy: i64,
    /// Far-tier entries held.
    far_occupancy: i64,
}

impl VmTally {
    /// Both pool kinds' datapath counts summed.
    pub fn datapath(&self) -> PoolTally {
        let (a, b) = (&self.frontswap, &self.cleancache);
        PoolTally {
            puts: std::array::from_fn(|i| a.puts[i] + b.puts[i]),
            gets: a.gets + b.gets,
            hits: a.hits + b.hits,
            evictions: a.evictions + b.evictions,
            flushes: a.flushes + b.flushes,
            flushed_pages: a.flushed_pages + b.flushed_pages,
        }
    }

    fn pool(&mut self, ephemeral: bool) -> &mut PoolTally {
        if ephemeral {
            &mut self.cleancache
        } else {
            &mut self.frontswap
        }
    }

    /// The frontswap admission counts the guest kernel keeps too, in
    /// [`kernel_admission`] order.
    fn admission(&self) -> [u64; 5] {
        let fs = &self.frontswap;
        [
            fs.puts_where(true),
            fs.puts_where(false),
            fs.hits,
            fs.flushes,
            self.reclaimed,
        ]
    }
}

/// The guest kernel's lifetime counts matching [`VmTally::admission`],
/// each with its name in replay's mismatch text.
fn kernel_admission(ks: &KernelStats) -> [(&'static str, u64); 5] {
    [
        ("puts_succ", ks.evictions_to_tmem),
        ("puts_failed", ks.failed_puts),
        ("get_hits", ks.tmem_faults),
        ("flushes", ks.tmem_flushes),
        ("reclaimed", ks.reclaimed_pages),
    ]
}

/// What a [`FaultCheck`] pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairing {
    /// `Fault` events of a control-plane kind against the fates they
    /// caused.
    Fate(FaultKind),
    /// Bit flips plus torn writes injected against corruptions detected.
    Detected,
    /// Put I/O failures plus brownout rejections injected against
    /// `reject_io` puts.
    RejectIo,
    /// Corruptions detected against recoveries: at most one per detection.
    Recovered,
}

/// One event-only check: two counts the stream carries for one kind of
/// fault, which must agree whatever the live accounting says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCheck {
    /// What is paired.
    pub pairs: Pairing,
    /// The injected side.
    pub injected: u64,
    /// The observed side.
    pub observed: u64,
}

impl FaultCheck {
    /// Whether the two sides agree.
    pub fn ok(&self) -> bool {
        match self.pairs {
            Pairing::Recovered => self.observed <= self.injected,
            _ => self.observed == self.injected,
        }
    }
}

/// Replay's mismatch text for a failed check.
impl std::fmt::Display for FaultCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (i, o) = (self.injected, self.observed);
        match self.pairs {
            Pairing::Fate(kind) => write!(
                f,
                "fault {} vs observed: replayed {i} != live {o}",
                kind.as_str()
            ),
            Pairing::Detected => {
                write!(f, "corruptions detected {o} != bit flips + torn writes {i}")
            }
            Pairing::RejectIo => write!(
                f,
                "reject_io puts {o} != put I/O failures + brownout rejections {i}"
            ),
            Pairing::Recovered => write!(f, "corruptions recovered {o} > detected {i}"),
        }
    }
}

/// Everything a trace's events alone say about its run, folded one event
/// at a time (see the module docs for the rules).
#[derive(Debug, Clone, Default)]
pub struct TraceFold {
    /// Per-VM tallies of every VM an event names.
    pub vms: BTreeMap<u32, VmTally>,
    /// The fault ledger as the event stream implies it.
    pub ledger: FaultLedger,
    /// `Fault` events per kind, in [`FaultKind::ALL`] order.
    injected: [u64; FaultKind::ALL.len()],
    /// Push attempts that ended parked or abandoned: one per failed
    /// `SetTargets` hypercall.
    failed_pushes: u64,
    /// Puts rejected with `reject_io`.
    reject_io_puts: u64,
    /// MM decisions (fresh snapshots processed).
    pub mm_decisions: u64,
    /// MM decisions that transmitted a target vector.
    pub mm_transmissions: u64,
    /// Stats messages the relay shed at queue capacity.
    pub sheds: u64,
    /// Pools announced ephemeral by `PoolCreate`.
    ephemeral_pools: BTreeSet<u32>,
    /// MM snapshot-sequence high-water mark (`None` after a crash, like
    /// the rebuilt `StatsHistory`).
    last_seq: Option<u64>,
}

impl TraceFold {
    /// Fold a whole event stream.
    pub fn of(events: &[TraceEvent]) -> Self {
        let mut fold = TraceFold::default();
        for ev in events {
            fold.observe(ev);
        }
        fold
    }

    /// Fold in the next event.
    pub fn observe(&mut self, ev: &TraceEvent) {
        let mut nobody = VmTally::default();
        let vm = match ev.vm {
            Some(id) => self.vms.entry(id).or_default(),
            None => &mut nobody,
        };
        let eph = &self.ephemeral_pools;
        let led = &mut self.ledger;
        match &ev.payload {
            Payload::PoolCreate { pool, ephemeral } => {
                if *ephemeral {
                    self.ephemeral_pools.insert(*pool);
                }
            }
            Payload::Put { pool, result, .. } => {
                vm.pool(eph.contains(pool)).puts[*result as usize] += 1;
                if result.consumed_frame() {
                    vm.occupancy += 1;
                }
                match result {
                    PutResult::StoredFar => vm.far_occupancy += 1,
                    PutResult::RejectIo => self.reject_io_puts += 1,
                    _ => {}
                }
            }
            Payload::Evict { pool } => {
                vm.pool(eph.contains(pool)).evictions += 1;
                vm.occupancy -= 1;
            }
            Payload::Get { pool, hit, freed } => {
                let t = vm.pool(eph.contains(pool));
                t.gets += 1;
                t.hits += u64::from(*hit);
                vm.occupancy -= i64::from(*freed);
            }
            Payload::Flush { pool, pages } => {
                let t = vm.pool(eph.contains(pool));
                t.flushes += 1;
                t.flushed_pages += pages;
                vm.occupancy -= *pages as i64;
            }
            Payload::PoolDestroy { pool, pages } => {
                vm.pool(eph.contains(pool)).flushed_pages += pages;
                vm.occupancy -= *pages as i64;
            }
            Payload::Reclaim { pages, .. } => {
                vm.reclaimed += pages;
                vm.occupancy -= *pages as i64;
            }
            // A silent occupancy drop: an injected ephemeral loss, a corrupt
            // ephemeral page dropped on get, corrupt reclaim victims withheld
            // from write-back, or a scrubber quarantine. The guest issued no
            // hypercall, so only occupancy moves.
            Payload::DataPurge { pages, .. } => vm.occupancy -= *pages as i64,
            Payload::FarGet { .. } => vm.far_occupancy -= 1,
            Payload::FarFlush { pages, .. } => vm.far_occupancy -= *pages as i64,
            Payload::MigrateOut {
                pages, far, purged, ..
            } => {
                led.migrations_out += 1;
                led.migrate_pages += pages + far;
                led.migrate_purged += purged;
                vm.occupancy -= (*pages + *purged) as i64;
                vm.far_occupancy -= *far as i64;
            }
            Payload::MigrateIn {
                pages,
                far,
                spilled,
            } => {
                led.migrations_in += 1;
                led.migrate_spilled += spilled;
                vm.occupancy += *pages as i64;
                vm.far_occupancy += *far as i64;
                vm.reclaimed += spilled;
            }
            Payload::VirqSample { fate, .. } => match fate {
                SampleFate::Deliver => led.samples_delivered += 1,
                SampleFate::Drop => led.samples_dropped += 1,
                SampleFate::Delay => led.samples_delayed += 1,
                SampleFate::Duplicate => led.samples_duplicated += 1,
            },
            Payload::IntervalClose { stale, ok, .. } => {
                led.invariant_checks += 1;
                led.stale_intervals += u64::from(*stale);
                led.invariant_violations += u64::from(!*ok);
            }
            Payload::NetlinkStats { fate, .. } => match fate {
                NetlinkFate::Deliver => {}
                NetlinkFate::Drop => led.netlink_dropped += 1,
                NetlinkFate::Reorder => led.netlink_reordered += 1,
            },
            Payload::RelayPush {
                attempt, outcome, ..
            } => {
                // Superseding re-reports the old push's attempt count
                // without making a new attempt, so it is never a retry.
                if *attempt >= 2 && *outcome != PushOutcome::Superseded {
                    led.hypercall_retries += 1;
                }
                match outcome {
                    PushOutcome::Landed => {}
                    PushOutcome::Superseded => led.hypercalls_superseded += 1,
                    PushOutcome::Parked => self.failed_pushes += 1,
                    PushOutcome::Abandoned => {
                        led.hypercalls_abandoned += 1;
                        self.failed_pushes += 1;
                    }
                }
            }
            Payload::MmDecision { seq_in, sent, .. } => {
                self.mm_decisions += 1;
                self.mm_transmissions += u64::from(*sent);
                if self.last_seq.is_some_and(|last| *seq_in > last + 1) {
                    led.seq_gaps += 1;
                }
                self.last_seq = Some(*seq_in);
            }
            Payload::RelayShed { .. } => self.sheds += 1,
            Payload::MmDiscard { .. } => led.snapshots_discarded += 1,
            Payload::MmCrash { .. } => {
                led.mm_crashes += 1;
                self.last_seq = None;
            }
            Payload::MmRestart => led.mm_restarts += 1,
            Payload::Fault { kind } => {
                self.injected[*kind as usize] += 1;
                match kind {
                    FaultKind::HypercallFail => led.hypercalls_failed += 1,
                    FaultKind::PageBitflip => led.bitflips_injected += 1,
                    FaultKind::TornWrite => led.torn_writes_injected += 1,
                    FaultKind::EphemeralLoss => led.ephemeral_losses_injected += 1,
                    FaultKind::PutIoFail => led.put_io_failures_injected += 1,
                    FaultKind::BrownoutReject => led.brownout_rejections += 1,
                    FaultKind::BrownoutTick => led.brownout_ticks += 1,
                    FaultKind::CorruptDetected => led.corruptions_detected += 1,
                    FaultKind::CorruptRecovered => led.corruptions_recovered += 1,
                    // Counted from the fates and MM events they caused.
                    FaultKind::SampleDrop
                    | FaultKind::SampleDelay
                    | FaultKind::SampleDuplicate
                    | FaultKind::NetlinkDrop
                    | FaultKind::NetlinkReorder
                    | FaultKind::MmCrash => {}
                }
            }
            Payload::Scrub {
                checked,
                quarantined,
                ..
            } => {
                led.scrub_passes += 1;
                led.scrub_pages_checked += checked;
                led.objects_quarantined += quarantined;
            }
            Payload::TargetsApplied { .. }
            | Payload::RelayEnqueue { .. }
            | Payload::MigrateDone { .. } => {}
        }
    }

    /// The tallies of VM `id` (all zero when no event named it).
    fn vm(&self, id: u32) -> VmTally {
        self.vms.get(&id).copied().unwrap_or_default()
    }

    /// `Fault` events of `kind`.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind as usize]
    }

    /// What a control-plane fault of `kind` is observed as elsewhere in
    /// the stream: the sample or netlink fate it assigned, the failed push
    /// attempt, the MM crash. `None` for data-plane kinds, which surface
    /// later as detections and `reject_io` puts instead.
    pub fn observed(&self, kind: FaultKind) -> Option<u64> {
        let l = &self.ledger;
        Some(match kind {
            FaultKind::SampleDrop => l.samples_dropped,
            FaultKind::SampleDelay => l.samples_delayed,
            FaultKind::SampleDuplicate => l.samples_duplicated,
            FaultKind::NetlinkDrop => l.netlink_dropped,
            FaultKind::NetlinkReorder => l.netlink_reordered,
            FaultKind::HypercallFail => self.failed_pushes,
            FaultKind::MmCrash => l.mm_crashes,
            _ => return None,
        })
    }

    /// The event-only checks: one [`Pairing::Fate`] per control-plane kind
    /// in [`FaultKind::ALL`] order, then detections, `reject_io` puts and
    /// recoveries.
    pub fn checks(&self) -> Vec<FaultCheck> {
        let l = &self.ledger;
        let check = |pairs, injected, observed| FaultCheck {
            pairs,
            injected,
            observed,
        };
        let fates = FaultKind::ALL.into_iter().filter_map(|kind| {
            Some(check(
                Pairing::Fate(kind),
                self.injected(kind),
                self.observed(kind)?,
            ))
        });
        fates
            .chain([
                check(
                    Pairing::Detected,
                    l.bitflips_injected + l.torn_writes_injected,
                    l.corruptions_detected,
                ),
                check(
                    Pairing::RejectIo,
                    l.put_io_failures_injected + l.brownout_rejections,
                    self.reject_io_puts,
                ),
                check(
                    Pairing::Recovered,
                    l.corruptions_detected,
                    l.corruptions_recovered,
                ),
            ])
            .collect()
    }
}

/// Outcome of one replay verification.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Events replayed.
    pub events: usize,
    /// Individual comparisons performed.
    pub checks: u64,
    /// Human-readable description of every comparison that failed. Empty
    /// means the trace replays the run exactly.
    pub mismatches: Vec<String>,
}

impl ReplayReport {
    /// True when every comparison passed.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Count one comparison, recording `mismatch` when it failed.
    fn expect(&mut self, ok: bool, mismatch: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.mismatches.push(mismatch());
        }
    }

    /// Compare a replayed value with its live counterpart.
    fn check<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, replayed: T, live: T) {
        self.expect(replayed == live, || {
            format!("{what}: replayed {replayed:?} != live {live:?}")
        });
    }
}

/// Replay `result.trace` and verify it against the run's live accounting:
/// [`verify_cluster`] over one host.
///
/// Errors when the run is not verifiable at all: no trace attached, or the
/// ring buffer dropped events (raise `TraceConfig::capacity`). Mismatches
/// found during replay are collected in the report, not errors.
pub fn verify(result: &RunResult) -> Result<ReplayReport, String> {
    verify_cluster(std::slice::from_ref(result))
}

/// Replay every host of a cluster run and verify the fleet-wide accounting.
///
/// Each host's trace is replayed independently (occupancy, fault ledger,
/// event-only checks, MM counters), then the per-VM admission counters are
/// *summed across hosts* and checked against the lifetime kernel statistics
/// reported by whichever host the VM finished on — a migrated VM's kernel
/// travels with it, so its counters span hosts while each host's trace only
/// saw its own residency window. With more than one host, each host's
/// mismatches are prefixed `hostN: `.
pub fn verify_cluster(hosts: &[RunResult]) -> Result<ReplayReport, String> {
    let mut report = ReplayReport::default();
    let mut admitted: BTreeMap<u32, [u64; 5]> = BTreeMap::new();
    for (h, host) in hosts.iter().enumerate() {
        let before = report.mismatches.len();
        let fold = replay_host(host, &mut report)?;
        if hosts.len() > 1 {
            for msg in &mut report.mismatches[before..] {
                *msg = format!("host{h}: {msg}");
            }
        }
        for (id, v) in &fold.vms {
            let sum = admitted.entry(*id).or_default();
            for (s, n) in sum.iter_mut().zip(v.admission()) {
                *s += n;
            }
        }
    }
    for vr in hosts.iter().flat_map(|h| &h.vm_results) {
        let replayed = admitted.get(&vr.vm_id.0).copied().unwrap_or_default();
        for ((what, live), r) in kernel_admission(&vr.kernel_stats).into_iter().zip(replayed) {
            report.check(&format!("{what}[{}]", vr.name), r, live);
        }
    }
    Ok(report)
}

/// Replay a single host's trace — one fold pass that also checks the
/// occupancy series at every interval close — then compare the fold with
/// the host's live accounting. Returns the fold so a cluster can sum
/// admission counters across hosts.
fn replay_host(result: &RunResult, report: &mut ReplayReport) -> Result<TraceFold, String> {
    let trace = result
        .trace
        .as_ref()
        .ok_or("run has no trace attached (RunConfig::trace was None)")?;
    if trace.dropped_oldest > 0 {
        return Err(format!(
            "trace dropped {} oldest events; raise TraceConfig::capacity to replay",
            trace.dropped_oldest
        ));
    }
    report.events += trace.events.len();
    let series = result.series.as_ref();
    let mut fold = TraceFold::default();
    let mut interval = 0usize;
    for ev in &trace.events {
        fold.observe(ev);
        if !matches!(ev.payload, Payload::IntervalClose { .. }) {
            continue;
        }
        if let Some(series) = series {
            for (i, vr) in result.vm_results.iter().enumerate() {
                report.checks += 1;
                let occ = fold.vm(vr.vm_id.0).occupancy;
                match series.used[i].points().get(interval) {
                    Some(&(_, live)) if live == occ as f64 => {}
                    Some(&(at, live)) => report.mismatches.push(format!(
                        "occupancy[{}] at interval {} ({:?}): replayed {} != live {}",
                        vr.name, interval, at, occ, live
                    )),
                    None => report
                        .mismatches
                        .push(format!("interval {interval} has no matching series point")),
                }
            }
        }
        interval += 1;
    }

    // Final per-VM occupancy against the hypervisor's closing accounting. A
    // VM that migrated away appears in the trace but not in this host's
    // vm_results: it must have left nothing behind.
    for (i, vr) in result.vm_results.iter().enumerate() {
        let v = fold.vm(vr.vm_id.0);
        report.check(
            &format!("final occupancy[{}]", vr.name),
            v.occupancy,
            result.final_tmem_used.get(i).copied().unwrap_or(0) as i64,
        );
        report.check(
            &format!("final far occupancy[{}]", vr.name),
            v.far_occupancy,
            result.final_far_used.get(i).copied().unwrap_or(0) as i64,
        );
    }
    for (&id, v) in &fold.vms {
        if !result.vm_results.iter().any(|vr| vr.vm_id.0 == id) {
            report.check(&format!("departed vm{id} occupancy"), v.occupancy, 0);
            report.check(
                &format!("departed vm{id} far occupancy"),
                v.far_occupancy,
                0,
            );
        }
    }
    // Per-interval alignment: every recorded series point was visited.
    if let Some(s) = series.and_then(|s| s.used.first()) {
        report.check("interval closes vs series points", interval, s.len());
    }
    for c in fold.checks() {
        report.expect(c.ok(), || c.to_string());
    }
    // The whole fault ledger, field by field.
    for ((name, replayed), (_, live)) in
        fold.ledger.fields().into_iter().zip(result.faults.fields())
    {
        report.check(&format!("ledger.{name}"), replayed, live);
    }
    // MM counters surfaced on the run result.
    report.check("mm_cycles", fold.mm_decisions, result.mm_cycles);
    report.check(
        "mm_transmissions",
        fold.mm_transmissions,
        result.mm_transmissions,
    );
    Ok(fold)
}
