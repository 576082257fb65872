//! Deterministic, seed-driven fault injection: one injector per host.
//!
//! SmarTmem's control loop crosses three failure domains: the hypervisor's
//! per-second VIRQ sampling, the dom0 TKM's netlink relay, and the
//! user-space Memory Manager process. Each edge can lose, delay, duplicate
//! or reorder its traffic, hypercall pushes can fail, and the MM can crash
//! outright. Below the control loop, the tmem datapath can corrupt, tear,
//! lose or refuse stored pages. This module centralizes *whether* each of
//! those faults happens: every host's hypervisor owns one
//! [`FaultInjector`], which the control-plane edges and the datapath
//! consult, and every injected fault is counted in its [`FaultLedger`] and
//! traced by the one call [`FaultInjector::inject`].
//!
//! Determinism contract: an injector is seeded explicitly and draws from
//! two private [`SplitMix64`] streams, a control-plane and a data-plane
//! one, independent of every workload stream, so a `(profile, seed)` pair
//! replays the exact same fault schedule — the sweep resume suite pins
//! this down to journaled ledgers at any job count. A disabled profile ([`FaultProfile::none`])
//! never alters any decision, keeping fault-free runs byte-identical to a
//! build without the injector.

use crate::rng::SplitMix64;
use crate::trace::{labelled_enum, FaultKind, Payload, Tracer};
use serde::{Deserialize, Serialize};

/// Probabilities and schedules for control- and data-plane faults.
///
/// All probabilities are per-message and must lie in `[0, 1]`. The default
/// profile is fully disabled (all zero, no crash scheduled).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Probability a VIRQ statistics sample is dropped before reaching dom0.
    pub virq_drop: f64,
    /// Probability a VIRQ sample is held back one interval (delivered late,
    /// behind the next sample).
    pub virq_delay: f64,
    /// Probability a VIRQ sample is delivered twice.
    pub virq_duplicate: f64,
    /// Probability a netlink stats message (dom0 → MM) is lost.
    pub netlink_drop: f64,
    /// Probability a netlink stats message is deferred behind the next one
    /// (reordering).
    pub netlink_reorder: f64,
    /// Probability a `SetTargets` hypercall push fails (timeout/EAGAIN).
    pub hypercall_fail: f64,
    /// Probability a stored page's contents are corrupted in flight by a
    /// bit flip (per admitted put, either pool kind).
    pub page_bitflip: f64,
    /// Probability a put is torn — only part of the page lands, leaving
    /// contents that do not match the recorded integrity summary.
    pub torn_write: f64,
    /// Probability an ephemeral page is silently dropped right after a
    /// successful put (the guest is told it stored; the pool forgets it).
    pub ephemeral_loss: f64,
    /// Probability a persistent put fails with a backend I/O error (the
    /// guest sees a failed put and falls back to its swap disk).
    pub put_io_fail: f64,
    /// MM cycle count at which the MM process crashes (once per run).
    pub mm_crash_at_cycle: Option<u64>,
    /// Sampling intervals the watchdog waits before restarting a crashed MM.
    pub mm_restart_after: u64,
    /// Brownout period in sampling intervals: every `brownout_every`
    /// intervals the backend goes dark for the last [`brownout_for`]
    /// intervals of the period, rejecting every put. 0 disables brownouts.
    ///
    /// [`brownout_for`]: FaultProfile::brownout_for
    pub brownout_every: u64,
    /// Length of each brownout window, in sampling intervals (must be
    /// `1..=brownout_every` when brownouts are enabled).
    pub brownout_for: u64,
    /// Run the pool scrubber every this many sampling intervals (plus one
    /// final pass at scenario end). 0 disables periodic scrubbing.
    pub scrub_every: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

impl FaultProfile {
    /// The disabled profile: no fault is ever injected.
    pub fn none() -> Self {
        FaultProfile {
            virq_drop: 0.0,
            virq_delay: 0.0,
            virq_duplicate: 0.0,
            netlink_drop: 0.0,
            netlink_reorder: 0.0,
            hypercall_fail: 0.0,
            page_bitflip: 0.0,
            torn_write: 0.0,
            ephemeral_loss: 0.0,
            put_io_fail: 0.0,
            mm_crash_at_cycle: None,
            mm_restart_after: 3,
            brownout_every: 0,
            brownout_for: 0,
            scrub_every: 0,
        }
    }

    /// True when any data-plane machinery (corruption, loss, put I/O
    /// failure, brownout windows or periodic scrubbing) is active. Only
    /// then does the hypervisor draw put fates or run the final scrub.
    pub fn has_data_plane(&self) -> bool {
        self.page_bitflip > 0.0
            || self.torn_write > 0.0
            || self.ephemeral_loss > 0.0
            || self.put_io_fail > 0.0
            || self.brownout_every > 0
            || self.scrub_every > 0
    }

    /// Validate the profile: probabilities in `[0, 1]` (and jointly ≤ 1 per
    /// edge, since the fates of one message are mutually exclusive), restart
    /// delay positive. Returns an actionable message on violation.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in self.probs() {
            check_prob(name, p)?;
        }
        let virq_sum = self.virq_drop + self.virq_delay + self.virq_duplicate;
        if virq_sum > 1.0 {
            return Err(format!(
                "virq fault probabilities sum to {virq_sum} > 1; drop, delay \
                 and duplicate are mutually exclusive fates of one sample"
            ));
        }
        let nl_sum = self.netlink_drop + self.netlink_reorder;
        if nl_sum > 1.0 {
            return Err(format!(
                "netlink fault probabilities sum to {nl_sum} > 1; drop and \
                 reorder are mutually exclusive fates of one message"
            ));
        }
        let pers_sum = self.page_bitflip + self.torn_write + self.put_io_fail;
        if pers_sum > 1.0 {
            return Err(format!(
                "persistent-put fault probabilities sum to {pers_sum} > 1; \
                 bit flip, torn write and I/O failure are mutually exclusive \
                 fates of one put"
            ));
        }
        let eph_sum = self.page_bitflip + self.torn_write + self.ephemeral_loss;
        if eph_sum > 1.0 {
            return Err(format!(
                "ephemeral-put fault probabilities sum to {eph_sum} > 1; bit \
                 flip, torn write and silent loss are mutually exclusive fates \
                 of one put"
            ));
        }
        if self.brownout_every > 0 && !(1..=self.brownout_every).contains(&self.brownout_for) {
            return Err(format!(
                "brownout_for = {} must lie in 1..={} (the brownout window \
                 cannot be empty or longer than its period brownout_every)",
                self.brownout_for, self.brownout_every
            ));
        }
        if self.brownout_every == 0 && self.brownout_for > 0 {
            return Err("brownout_for is set but brownout_every = 0 schedules no \
                 brownout window (set brownout_every or drop brownout_for)"
                .into());
        }
        if self.mm_crash_at_cycle.is_some() && self.mm_restart_after == 0 {
            return Err(
                "mm_restart_after must be >= 1 interval when an MM crash is \
                 scheduled (0 would model a crash the watchdog never observes)"
                    .into(),
            );
        }
        Ok(())
    }

    /// Set a probability field by its schema name. Rejects unknown names
    /// (listing the legal ones) and out-of-range values; cross-field
    /// constraints are still [`FaultProfile::validate`]'s job.
    pub fn set_prob(&mut self, field: &str, value: f64) -> Result<(), String> {
        let value = check_prob(field, value)?;
        let slot = self.prob_mut(field).ok_or_else(|| {
            format!(
                "unknown fault field '{field}' (known: {}, mm_crash_at_cycle, \
                 mm_restart_after, brownout_every, brownout_for, scrub_every)",
                Self::PROB_FIELDS.join(", ")
            )
        })?;
        *slot = value;
        Ok(())
    }
}

/// Names the per-message probability fields once: their schema names, the
/// values [`FaultProfile::validate`] range-checks and the slots
/// [`FaultProfile::set_prob`] writes all come from this one list.
macro_rules! prob_fields {
    ($($field:ident),+ $(,)?) => {
        impl FaultProfile {
            /// The per-message probability fields, in declaration order.
            /// These names are the schema of on-disk chaos-profile files:
            /// the scenario DSL reads profiles through
            /// [`FaultProfile::set_prob`], so a field added here is
            /// automatically legal in `.toml` profiles (and anything else
            /// is rejected by name).
            pub const PROB_FIELDS: [&'static str; 10] = [$(stringify!($field)),+];

            /// Each probability with its schema name, in declaration order.
            fn probs(&self) -> [(&'static str, f64); 10] {
                [$((stringify!($field), self.$field)),+]
            }

            /// The probability field named `field`, if there is one.
            fn prob_mut(&mut self, field: &str) -> Option<&mut f64> {
                match field {
                    $(stringify!($field) => Some(&mut self.$field),)+
                    _ => None,
                }
            }
        }
    };
}

prob_fields!(
    virq_drop,
    virq_delay,
    virq_duplicate,
    netlink_drop,
    netlink_reorder,
    hypercall_fail,
    page_bitflip,
    torn_write,
    ephemeral_loss,
    put_io_fail,
);

/// `p` if it lies in `[0, 1]` (NaN does not), else an error naming `name`.
fn check_prob(name: &str, p: f64) -> Result<f64, String> {
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!(
            "fault probability {name} = {p} is outside [0, 1]; \
             probabilities are per-message"
        ))
    }
}

labelled_enum! {
    /// What happens to one VIRQ statistics sample.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SampleFate as "sample fate" {
        /// Delivered normally.
        Deliver => "deliver",
        /// Lost; dom0 never sees this interval's sample.
        Drop => "drop",
        /// Held back one interval and delivered behind the next sample.
        Delay => "delay",
        /// Delivered twice (retransmission glitch).
        Duplicate => "dup",
    }
}

labelled_enum! {
    /// What happens to one netlink stats message (dom0 → MM).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum NetlinkFate as "netlink fate" {
        /// Delivered normally.
        Deliver => "deliver",
        /// Lost in the socket; the MM never sees it.
        Drop => "drop",
        /// Deferred behind the next message (reordering).
        Reorder => "reorder",
    }
}

/// Declare [`FaultLedger`] from one list of counters: the struct, its
/// name/value walk [`FaultLedger::fields`] and the inverse
/// [`FaultLedger::from_values`] all expand from the same names, in the same
/// order.
macro_rules! fault_ledger {
    ($( $(#[$meta:meta])* $field:ident, )*) => {
        /// Running totals of injected faults and degradation events for one
        /// run.
        ///
        /// The ledger mixes *injected* counts (the injector's own decisions)
        /// with *observed* counts the control-plane components report back
        /// (retries, restarts, stale intervals, invariant checks) so a sweep
        /// journal holds the whole episode in one place.
        #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct FaultLedger {
            $( $(#[$meta])* pub $field: u64, )*
        }

        impl FaultLedger {
            /// Number of counters.
            pub const LEN: usize = [$(stringify!($field)),*].len();

            /// Every counter with its field name, in declaration order: the
            /// one list the sweep journal and CSV columns, the result digest
            /// and the replay verifier walk.
            pub fn fields(&self) -> [(&'static str, u64); Self::LEN] {
                [$( (stringify!($field), self.$field), )*]
            }

            /// The ledger whose [`FaultLedger::fields`] values are `values`.
            pub fn from_values(values: [u64; Self::LEN]) -> Self {
                let [$($field),*] = values;
                FaultLedger { $($field),* }
            }
        }
    };
}

fault_ledger! {
/// VIRQ samples delivered normally.
samples_delivered,
/// VIRQ samples dropped.
samples_dropped,
/// VIRQ samples delayed one interval.
samples_delayed,
/// VIRQ samples duplicated.
samples_duplicated,
/// Netlink stats messages dropped.
netlink_dropped,
/// Netlink stats messages reordered.
netlink_reordered,
/// `SetTargets` pushes that failed (first attempts and retries).
hypercalls_failed,
/// Retry attempts issued by the dom0 relay.
hypercall_retries,
/// Pushes abandoned after exhausting the retry budget.
hypercalls_abandoned,
/// Pushes superseded by a newer target vector while pending retry.
hypercalls_superseded,
/// MM crash episodes.
mm_crashes,
/// MM watchdog restarts.
mm_restarts,
/// Snapshot sequence gaps the MM detected (each gap may span several
/// missing samples).
seq_gaps,
/// Duplicate/stale snapshots the MM discarded idempotently.
snapshots_discarded,
/// Sampling intervals the hypervisor spent in stale-target fallback.
stale_intervals,
/// tmem accounting invariant checks performed.
invariant_checks,
/// tmem accounting invariant violations observed (must stay 0).
invariant_violations,
/// Data plane: page bit flips injected into stored pages.
bitflips_injected,
/// Data plane: torn writes injected into stored pages.
torn_writes_injected,
/// Data plane: ephemeral pages silently dropped after a successful put.
ephemeral_losses_injected,
/// Data plane: persistent puts failed with an injected I/O error.
put_io_failures_injected,
/// Data plane: puts rejected inside a brownout window.
brownout_rejections,
/// Data plane: sampling intervals spent inside a brownout window.
brownout_ticks,
/// Data plane: checksum mismatches detected (each corrupted page is
/// counted once, at first detection — get, flush, reclaim or scrub).
corruptions_detected,
/// Data plane: detected corruptions the guest recovered from (clean
/// ephemeral miss, or persistent retry/requeue rebuilding the page).
corruptions_recovered,
/// Data plane: corrupt objects quarantined (removed wholesale) by the
/// scrubber.
objects_quarantined,
/// Data plane: scrubber passes completed.
scrub_passes,
/// Data plane: pages checksum-verified by the scrubber.
scrub_pages_checked,
/// Fleet: VMs migrated off this host.
migrations_out,
/// Fleet: VMs that landed on this host by migration.
migrations_in,
/// Fleet: tmem pages (local + far) exported by outbound migrations.
migrate_pages,
/// Fleet: corrupt pages found at migration export and dropped there
/// (never transferred or laundered into the destination).
migrate_purged,
/// Fleet: imported pages that found no tmem room on the destination
/// and spilled to its swap disk.
migrate_spilled,}

impl FaultLedger {
    /// Total faults injected at any edge (not counting degradation
    /// bookkeeping like retries or stale intervals).
    pub fn injected(&self) -> u64 {
        self.samples_dropped
            + self.samples_delayed
            + self.samples_duplicated
            + self.netlink_dropped
            + self.netlink_reordered
            + self.hypercalls_failed
            + self.mm_crashes
            + self.bitflips_injected
            + self.torn_writes_injected
            + self.ephemeral_losses_injected
            + self.put_io_failures_injected
            + self.brownout_rejections
    }
}

/// The fate the data plane assigns to one admitted tmem put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutFate {
    /// Stored intact.
    Deliver,
    /// Stored, then the page contents flip a bit (checksum now stale).
    Bitflip,
    /// Stored torn: the page contents do not match the recorded summary.
    Torn,
    /// The put fails with a backend I/O error (persistent pools only).
    IoFail,
    /// Stored, then silently dropped (ephemeral pools only).
    Lose,
}

/// One host's fault decision engine: a profile, two private RNG streams
/// and the ledger.
///
/// The control-plane stream (`"faults"`) decides sample, netlink and
/// hypercall fates; the data-plane stream (`"data-faults"`) decides put
/// fates, so enabling data faults never perturbs a control-plane schedule.
/// Every decision early-returns without drawing when the probabilities it
/// consults are all zero, and the brownout and scrub schedules are pure
/// functions of the interval clock, so a profile with (say) only
/// `scrub_every` set draws no RNG at all.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    profile: FaultProfile,
    rng: SplitMix64,
    data_rng: SplitMix64,
    /// [`FaultProfile::has_data_plane`], read once per tmem put.
    data_plane: bool,
    ledger: FaultLedger,
    crash_fired: bool,
    /// Sampling intervals closed: the brownout and scrub clock.
    intervals: u64,
    tracer: Tracer,
}

impl FaultInjector {
    /// An injector for `profile`, drawing from `"faults"` and
    /// `"data-faults"` streams derived from `seed`.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        let root = SplitMix64::new(seed);
        FaultInjector {
            data_plane: profile.has_data_plane(),
            profile,
            rng: root.derive("faults"),
            data_rng: root.derive("data-faults"),
            ledger: FaultLedger::default(),
            crash_fired: false,
            intervals: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// An injector that never injects anything.
    pub fn disabled() -> Self {
        FaultInjector::new(FaultProfile::none(), 0)
    }

    /// Attach a flight-recorder handle; every [`Self::inject`] then emits
    /// one [`Payload::Fault`] event.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The active profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Whether any data-plane machinery is active (see
    /// [`FaultProfile::has_data_plane`]).
    pub fn data_plane(&self) -> bool {
        self.data_plane
    }

    /// Record one fault of `kind` attributed to `vm`: bump its ledger
    /// counter and emit its `Fault` event. The one place either happens,
    /// so the ledger and the trace cannot drift apart.
    pub fn inject(&mut self, vm: Option<u32>, kind: FaultKind) {
        let l = &mut self.ledger;
        *match kind {
            FaultKind::SampleDrop => &mut l.samples_dropped,
            FaultKind::SampleDelay => &mut l.samples_delayed,
            FaultKind::SampleDuplicate => &mut l.samples_duplicated,
            FaultKind::NetlinkDrop => &mut l.netlink_dropped,
            FaultKind::NetlinkReorder => &mut l.netlink_reordered,
            FaultKind::HypercallFail => &mut l.hypercalls_failed,
            FaultKind::MmCrash => &mut l.mm_crashes,
            FaultKind::PageBitflip => &mut l.bitflips_injected,
            FaultKind::TornWrite => &mut l.torn_writes_injected,
            FaultKind::EphemeralLoss => &mut l.ephemeral_losses_injected,
            FaultKind::PutIoFail => &mut l.put_io_failures_injected,
            FaultKind::BrownoutReject => &mut l.brownout_rejections,
            FaultKind::BrownoutTick => &mut l.brownout_ticks,
            FaultKind::CorruptDetected => &mut l.corruptions_detected,
            FaultKind::CorruptRecovered => &mut l.corruptions_recovered,
        } += 1;
        self.tracer.emit(|| (vm, Payload::Fault { kind }));
    }

    /// Decide the fate of one VIRQ statistics sample.
    pub fn sample_fate(&mut self) -> SampleFate {
        let p = &self.profile;
        if p.virq_drop == 0.0 && p.virq_delay == 0.0 && p.virq_duplicate == 0.0 {
            self.ledger.samples_delivered += 1;
            return SampleFate::Deliver;
        }
        let x = self.rng.next_f64();
        let (fate, kind) = if x < p.virq_drop {
            (SampleFate::Drop, FaultKind::SampleDrop)
        } else if x < p.virq_drop + p.virq_delay {
            (SampleFate::Delay, FaultKind::SampleDelay)
        } else if x < p.virq_drop + p.virq_delay + p.virq_duplicate {
            (SampleFate::Duplicate, FaultKind::SampleDuplicate)
        } else {
            self.ledger.samples_delivered += 1;
            return SampleFate::Deliver;
        };
        self.inject(None, kind);
        fate
    }

    /// Decide the fate of one netlink stats message.
    pub fn netlink_fate(&mut self) -> NetlinkFate {
        let p = &self.profile;
        if p.netlink_drop == 0.0 && p.netlink_reorder == 0.0 {
            return NetlinkFate::Deliver;
        }
        let x = self.rng.next_f64();
        let (fate, kind) = if x < p.netlink_drop {
            (NetlinkFate::Drop, FaultKind::NetlinkDrop)
        } else if x < p.netlink_drop + p.netlink_reorder {
            (NetlinkFate::Reorder, FaultKind::NetlinkReorder)
        } else {
            return NetlinkFate::Deliver;
        };
        self.inject(None, kind);
        fate
    }

    /// Decide whether one `SetTargets` hypercall push fails.
    pub fn hypercall_fails(&mut self) -> bool {
        if self.profile.hypercall_fail == 0.0 {
            return false;
        }
        let fails = self.rng.next_f64() < self.profile.hypercall_fail;
        if fails {
            self.inject(None, FaultKind::HypercallFail);
        }
        fails
    }

    /// Whether the MM should crash now, given it has completed `cycle`
    /// processing cycles. Fires at most once per run.
    pub fn mm_should_crash(&mut self, cycle: u64) -> bool {
        match self.profile.mm_crash_at_cycle {
            Some(at) if !self.crash_fired && cycle >= at => {
                self.crash_fired = true;
                self.inject(None, FaultKind::MmCrash);
                true
            }
            _ => false,
        }
    }

    /// Decide the fate of one admitted put. A persistent put can fail with
    /// an I/O error, an ephemeral one can be silently lost. The fate is not
    /// counted here: it counts once the caller applies it (a put that then
    /// fails on capacity injected nothing).
    pub fn put_fate(&mut self, ephemeral: bool) -> PutFate {
        let p = &self.profile;
        let (third, fate) = if ephemeral {
            (p.ephemeral_loss, PutFate::Lose)
        } else {
            (p.put_io_fail, PutFate::IoFail)
        };
        if p.page_bitflip == 0.0 && p.torn_write == 0.0 && third == 0.0 {
            return PutFate::Deliver;
        }
        let x = self.data_rng.next_f64();
        if x < p.page_bitflip {
            PutFate::Bitflip
        } else if x < p.page_bitflip + p.torn_write {
            PutFate::Torn
        } else if x < p.page_bitflip + p.torn_write + third {
            fate
        } else {
            PutFate::Deliver
        }
    }

    /// Close one sampling interval: advance the brownout and scrub clock
    /// and, when the new interval sits inside a brownout window, inject a
    /// `BrownoutTick`. Draws no RNG.
    pub fn tick_interval(&mut self) {
        self.intervals += 1;
        if self.in_brownout() {
            self.inject(None, FaultKind::BrownoutTick);
        }
    }

    /// Whether the backend is currently inside a brownout window: the last
    /// `brownout_for` intervals of every `brownout_every`-interval period.
    pub fn in_brownout(&self) -> bool {
        let every = self.profile.brownout_every;
        every > 0 && self.intervals % every >= every - self.profile.brownout_for
    }

    /// Whether a periodic scrub pass is due at the interval that just
    /// closed ([`Self::tick_interval`] must have been called first).
    pub fn scrub_due(&self) -> bool {
        let every = self.profile.scrub_every;
        every > 0 && self.intervals.is_multiple_of(every)
    }

    /// Read access to the ledger.
    pub fn ledger(&self) -> &FaultLedger {
        &self.ledger
    }

    /// Mutable ledger access for components reporting observed degradation
    /// events (retries, restarts, stale intervals, invariant checks, scrub
    /// passes, migrations). Injected fault kinds go through
    /// [`Self::inject`].
    pub fn ledger_mut(&mut self) -> &mut FaultLedger {
        &mut self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_never_injects() {
        let mut inj = FaultInjector::disabled();
        for _ in 0..1000 {
            assert_eq!(inj.sample_fate(), SampleFate::Deliver);
            assert_eq!(inj.netlink_fate(), NetlinkFate::Deliver);
            assert!(!inj.hypercall_fails());
            assert!(!inj.mm_should_crash(u64::MAX));
        }
        assert_eq!(inj.ledger().injected(), 0);
        assert_eq!(inj.ledger().samples_delivered, 1000);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let profile = FaultProfile {
            virq_drop: 0.3,
            virq_delay: 0.1,
            virq_duplicate: 0.1,
            netlink_drop: 0.2,
            hypercall_fail: 0.25,
            ..FaultProfile::none()
        };
        let mut a = FaultInjector::new(profile.clone(), 99);
        let mut b = FaultInjector::new(profile, 99);
        for _ in 0..500 {
            assert_eq!(a.sample_fate(), b.sample_fate());
            assert_eq!(a.netlink_fate(), b.netlink_fate());
            assert_eq!(a.hypercall_fails(), b.hypercall_fails());
        }
        assert_eq!(a.ledger(), b.ledger());
        assert!(a.ledger().injected() > 0, "faults must actually fire");
    }

    #[test]
    fn fate_frequencies_track_probabilities() {
        let profile = FaultProfile {
            virq_drop: 0.5,
            ..FaultProfile::none()
        };
        let mut inj = FaultInjector::new(profile, 7);
        for _ in 0..10_000 {
            inj.sample_fate();
        }
        let dropped = inj.ledger().samples_dropped as f64 / 10_000.0;
        assert!((dropped - 0.5).abs() < 0.03, "drop rate was {dropped}");
    }

    #[test]
    fn crash_fires_exactly_once_at_threshold() {
        let profile = FaultProfile {
            mm_crash_at_cycle: Some(5),
            ..FaultProfile::none()
        };
        let mut inj = FaultInjector::new(profile, 1);
        assert!(!inj.mm_should_crash(4));
        assert!(inj.mm_should_crash(5));
        assert!(!inj.mm_should_crash(6), "one crash per run");
        assert_eq!(inj.ledger().mm_crashes, 1);
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        let mut p = FaultProfile::none();
        assert!(p.validate().is_ok());
        p.virq_drop = 1.5;
        assert!(p.validate().unwrap_err().contains("outside [0, 1]"));
        p.virq_drop = 0.7;
        p.virq_delay = 0.4;
        assert!(p.validate().unwrap_err().contains("sum"));
        p.virq_delay = 0.0;
        p.virq_drop = -0.1;
        assert!(p.validate().is_err());
        p.virq_drop = 0.0;
        p.mm_crash_at_cycle = Some(3);
        p.mm_restart_after = 0;
        assert!(p.validate().unwrap_err().contains("mm_restart_after"));
    }

    #[test]
    fn prob_fields_cover_every_probability() {
        // Each schema name sets its own field: distinct values by position
        // land exactly where the struct literal says.
        let mut p = FaultProfile::none();
        for (i, field) in FaultProfile::PROB_FIELDS.iter().enumerate() {
            p.set_prob(field, (i + 1) as f64 / 100.0).unwrap();
        }
        assert_eq!(
            p,
            FaultProfile {
                virq_drop: 0.01,
                virq_delay: 0.02,
                virq_duplicate: 0.03,
                netlink_drop: 0.04,
                netlink_reorder: 0.05,
                hypercall_fail: 0.06,
                page_bitflip: 0.07,
                torn_write: 0.08,
                ephemeral_loss: 0.09,
                put_io_fail: 0.10,
                ..FaultProfile::none()
            }
        );
        let err = p.set_prob("mm_crash_at_cycle", 0.1).unwrap_err();
        assert!(
            err.contains("unknown fault field"),
            "not a probability: {err}"
        );
        let err = p.set_prob("virq_flood", 0.1).unwrap_err();
        assert!(err.contains("unknown fault field"), "{err}");
        assert!(err.contains("virq_drop"), "should list known fields: {err}");
        let err = p.set_prob("virq_drop", 1.5).unwrap_err();
        assert!(err.contains("outside [0, 1]"), "{err}");
        assert!(p.set_prob("virq_drop", f64::NAN).is_err());
    }

    #[test]
    fn data_plane_validation_rejects_bad_profiles() {
        let mut p = FaultProfile::none();
        p.page_bitflip = 0.6;
        p.torn_write = 0.3;
        p.put_io_fail = 0.2;
        assert!(p.validate().unwrap_err().contains("persistent-put"));
        p.put_io_fail = 0.0;
        p.ephemeral_loss = 0.2;
        assert!(p.validate().unwrap_err().contains("ephemeral-put"));
        p = FaultProfile::none();
        p.brownout_every = 10;
        assert!(p.validate().unwrap_err().contains("brownout_for"));
        p.brownout_for = 11;
        assert!(p.validate().is_err(), "window longer than period");
        p.brownout_for = 10;
        assert!(p.validate().is_ok());
        p = FaultProfile::none();
        p.brownout_for = 2;
        assert!(p.validate().unwrap_err().contains("brownout_every"));
    }

    #[test]
    fn data_injector_same_seed_same_schedule() {
        let profile = FaultProfile {
            page_bitflip: 0.2,
            torn_write: 0.1,
            ephemeral_loss: 0.2,
            put_io_fail: 0.1,
            ..FaultProfile::none()
        };
        let mut a = FaultInjector::new(profile.clone(), 99);
        let mut b = FaultInjector::new(profile, 99);
        let mut non_deliver = 0;
        for _ in 0..500 {
            let (fa, fb) = (a.put_fate(false), b.put_fate(false));
            assert_eq!(fa, fb);
            assert_eq!(a.put_fate(true), b.put_fate(true));
            if fa != PutFate::Deliver {
                non_deliver += 1;
            }
        }
        assert!(non_deliver > 50, "fates must actually fire: {non_deliver}");
    }

    #[test]
    fn data_injector_zero_probs_draw_no_rng() {
        // A scrub-only profile must decide every put without touching its
        // RNG: two injectors stay in lockstep even when one also answers
        // thousands of put-fate queries the other never sees.
        let profile = FaultProfile {
            scrub_every: 5,
            ..FaultProfile::none()
        };
        let mut a = FaultInjector::new(profile.clone(), 7);
        let b = FaultInjector::new(profile, 7);
        assert!(a.data_plane());
        for _ in 0..1000 {
            assert_eq!(a.put_fate(false), PutFate::Deliver);
            assert_eq!(a.put_fate(true), PutFate::Deliver);
        }
        assert_eq!(
            a.data_rng, b.data_rng,
            "zero-probability paths must not draw"
        );
        assert_eq!(a.ledger(), b.ledger());
    }

    #[test]
    fn brownout_windows_are_the_tail_of_each_period() {
        let profile = FaultProfile {
            brownout_every: 10,
            brownout_for: 3,
            put_io_fail: 0.0,
            ..FaultProfile::none()
        };
        let mut inj = FaultInjector::new(profile, 0);
        let mut browned = Vec::new();
        for interval in 1..=20u64 {
            inj.tick_interval();
            if inj.in_brownout() {
                browned.push(interval);
            }
        }
        assert_eq!(browned, [7, 8, 9, 17, 18, 19]);
        assert_eq!(inj.ledger().brownout_ticks, 6);
    }

    #[test]
    fn scrub_schedule_fires_every_period() {
        let profile = FaultProfile {
            scrub_every: 4,
            ..FaultProfile::none()
        };
        let mut inj = FaultInjector::new(profile, 0);
        let due: Vec<u64> = (1..=12u64)
            .filter(|_| {
                inj.tick_interval();
                inj.scrub_due()
            })
            .collect();
        assert_eq!(due.len(), 3, "intervals 4, 8, 12");
    }

    #[test]
    fn inject_counts_and_traces_every_fault_kind_once() {
        use crate::trace::Recorder;
        let mut seen = Vec::new();
        for kind in FaultKind::ALL {
            let tracer = Tracer::new(Recorder::new(8));
            let mut inj = FaultInjector::disabled();
            inj.set_tracer(tracer.clone());
            inj.inject(Some(3), kind);
            // Exactly one counter moved, by one, and no other kind moves it.
            let bumped: Vec<_> = inj
                .ledger()
                .fields()
                .into_iter()
                .filter(|&(_, v)| v > 0)
                .collect();
            assert_eq!(bumped.len(), 1, "{kind:?} bumped {bumped:?}");
            assert_eq!(bumped[0].1, 1, "{kind:?}");
            assert!(!seen.contains(&bumped[0].0), "{kind:?} shares a counter");
            seen.push(bumped[0].0);
            // Injected totals include every injection class but not the
            // brownout clock or the detection/recovery bookkeeping.
            let bookkeeping = matches!(
                kind,
                FaultKind::BrownoutTick | FaultKind::CorruptDetected | FaultKind::CorruptRecovered
            );
            assert_eq!(inj.ledger().injected(), u64::from(!bookkeeping), "{kind:?}");
            let events = tracer.finish().unwrap().events;
            assert_eq!(events.len(), 1, "{kind:?}");
            assert_eq!(events[0].vm, Some(3));
            assert_eq!(events[0].payload, Payload::Fault { kind });
        }
    }

    #[test]
    fn from_values_inverts_fields() {
        let ledger = FaultLedger {
            samples_delivered: 1,
            invariant_checks: 7,
            migrate_spilled: 33,
            ..FaultLedger::default()
        };
        assert_eq!(
            FaultLedger::from_values(ledger.fields().map(|(_, v)| v)),
            ledger
        );
    }
}
