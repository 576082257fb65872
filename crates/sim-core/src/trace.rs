//! Flight recorder: zero-cost-when-disabled structured event tracing.
//!
//! The paper's evaluation is read off per-second telemetry; this module is
//! the simulator's equivalent of that telemetry plane, generalized into a
//! structured event stream every subsystem emits into:
//!
//! * tmem datapath: put/get/flush/evict with outcome and pool, including
//!   the `tmem_used < mm_target` admission operands from Algorithm 1,
//! * control plane: VIRQ sample fates, netlink relay enqueue/shed/retry,
//!   MM policy decisions with the per-VM target vector and the Eq. 1/2
//!   rescale inputs,
//! * fault layer: every injected fault.
//!
//! Events carry `(SimTime, vm, payload)`; the payload's kind fixes the
//! emitting subsystem. They flow into a bounded ring buffer inside a
//! [`Recorder`]; a [`TraceMetrics`] registry of nine datapath and relay
//! counters aggregates alongside, over every event the ring dropped too.
//! Summaries of the event stream itself are `scenarios::trace_check`'s
//! `TraceFold`, which `smartmem-cli trace` and `inspect` print. The handle
//! every component holds is a [`Tracer`] — a cheap clone of an
//! `Option<Arc<Mutex<Recorder>>>`, so a host and its recorder can move to
//! a worker thread. When tracing is disabled the option is `None` and
//! [`Tracer::emit`] is a single branch: the closure that would build the
//! event is never called, so disabled runs stay byte-identical to a build
//! without the recorder. A traced emit takes the recorder's lock, which
//! only the thread running the recorder's host ever holds.
//!
//! The schema is declared once: `payload_table!` lists every [`Payload`]
//! variant with its JSONL label, subsystem, field keys and docs, and
//! `labelled_enum!` gives each enum carried in a payload one two-way label
//! table. The JSONL writer and parser are generated from those tables. The
//! schema is a load-bearing contract: `scenarios::trace_check` re-derives
//! tmem occupancy and the fault ledger purely from the event stream and
//! asserts they match the live accounting, and a golden JSONL file pins
//! the serialized form byte-exactly.

use crate::faults::{NetlinkFate, SampleFate};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

/// Version stamped into every JSONL trace header. Bump when the event
/// schema changes shape; `inspect`/replay reject traces from other versions.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Default ring-buffer capacity (events) when a [`TraceConfig`] does not
/// override it. Large enough to hold every event of the shipped scenarios
/// at report scale.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Switch + sizing for the flight recorder, carried inside the run
/// configuration. Absent (`None` at the config level) means tracing is
/// fully disabled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Ring-buffer capacity in events; the oldest event is dropped (and
    /// counted) once the ring is full.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// Declares a fieldless enum together with its two-way label table: each
/// variant's doc comment and its JSONL label sit side by side, and `ALL`,
/// `as_str`, `from_label` and the JSONL field codec are generated from the
/// one list. `$what` names the enum in parse errors.
macro_rules! labelled_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident as $what:literal {
            $( $(#[$vmeta:meta])* $variant:ident => $label:literal, )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: [$name; [$($label),*].len()] = [$($name::$variant),*];

            /// Stable label used in the JSONL form.
            pub fn as_str(self) -> &'static str {
                match self {
                    $( $name::$variant => $label, )*
                }
            }

            /// Inverse of [`Self::as_str`].
            pub fn from_label(s: &str) -> Option<Self> {
                match s {
                    $( $label => Some($name::$variant), )*
                    _ => None,
                }
            }
        }

        impl $crate::trace::Field for $name {
            fn encode(&self, out: &mut String) {
                out.push('"');
                out.push_str(self.as_str());
                out.push('"');
            }

            fn decode(v: &$crate::trace::Json) -> Result<Self, String> {
                let s = <String as $crate::trace::Field>::decode(v)?;
                Self::from_label(&s).ok_or_else(|| format!("unknown {} '{s}'", $what))
            }
        }
    };
}
pub(crate) use labelled_enum;

labelled_enum! {
    /// Which layer of the stack emitted an event.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Subsystem as "subsystem" {
        /// The tmem datapath (put/get/flush/evict/reclaim).
        Tmem => "tmem",
        /// Hypervisor control state (target-vector application).
        Hypervisor => "hyp",
        /// Per-second VIRQ sampling (sample fates, interval closes).
        Virq => "virq",
        /// The dom0 TKM netlink relay (enqueue/shed/push/retry).
        Relay => "relay",
        /// The user-space Memory Manager (decisions, discards, crashes).
        Mm => "mm",
        /// The fault-injection layer (one event per injected fault).
        Fault => "fault",
        /// The fleet layer (VM migrations between hosts).
        Fleet => "fleet",
    }
}

labelled_enum! {
    /// Outcome of one tmem put as seen by the admission path.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum PutResult as "put result" {
        /// Stored into a free frame.
        Stored => "stored",
        /// Overwrote an existing copy of the same key (no frame consumed).
        Replaced => "replaced",
        /// Stored after evicting an ephemeral victim page.
        StoredEvict => "stored_evict",
        /// Rejected by Algorithm 1: `tmem_used >= mm_target`.
        RejectTarget => "reject_target",
        /// Admitted by the target check but no free frame existed.
        RejectCapacity => "reject_cap",
        /// Admitted by the target check but rejected by the data-fault layer
        /// (injected I/O failure or backend brownout window).
        RejectIo => "reject_io",
        /// Admitted by the target check, found local tmem full, and spilled
        /// into the far-memory tier instead. No local frame consumed.
        StoredFar => "stored_far",
    }
}

impl PutResult {
    /// Whether the page ended up in tmem (local or far tier).
    pub fn is_success(self) -> bool {
        matches!(
            self,
            PutResult::Stored | PutResult::Replaced | PutResult::StoredEvict | PutResult::StoredFar
        )
    }

    /// Whether a new frame was consumed.
    pub fn consumed_frame(self) -> bool {
        matches!(self, PutResult::Stored | PutResult::StoredEvict)
    }
}

labelled_enum! {
    /// Outcome of one `SetTargets` push attempt through the dom0 relay.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum PushOutcome as "push outcome" {
        /// The hypercall went through (fresh or stale-rejected — see the
        /// separate `TargetsApplied` event for which).
        Landed => "landed",
        /// The hypercall failed; the push is parked for backoff retry.
        Parked => "parked",
        /// A parked push was replaced by a newer target vector.
        Superseded => "superseded",
        /// The retry budget was exhausted; the push is dropped.
        Abandoned => "abandoned",
    }
}

labelled_enum! {
    /// One injected fault, as decided by the fault layer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind as "fault kind" {
        /// A VIRQ sample was dropped.
        SampleDrop => "sample_drop",
        /// A VIRQ sample was delayed one interval.
        SampleDelay => "sample_delay",
        /// A VIRQ sample was duplicated.
        SampleDuplicate => "sample_dup",
        /// A netlink stats message was lost.
        NetlinkDrop => "netlink_drop",
        /// A netlink stats message was reordered.
        NetlinkReorder => "netlink_reorder",
        /// A `SetTargets` hypercall failed.
        HypercallFail => "hypercall_fail",
        /// The MM process crashed.
        MmCrash => "mm_crash",
        /// A stored page's contents were bit-flipped.
        PageBitflip => "page_bitflip",
        /// A put landed torn (contents do not match the integrity summary).
        TornWrite => "torn_write",
        /// An ephemeral page was silently dropped after a successful put.
        EphemeralLoss => "ephemeral_loss",
        /// A persistent put failed with an injected backend I/O error.
        PutIoFail => "put_io_fail",
        /// A put was rejected inside a backend brownout window.
        BrownoutReject => "brownout_reject",
        /// One sampling interval spent inside a brownout window.
        BrownoutTick => "brownout_tick",
        /// A checksum mismatch was detected (first detection of that page).
        CorruptDetected => "corrupt_detected",
        /// The guest recovered from a detected corruption (clean miss or
        /// retry/requeue rebuild).
        CorruptRecovered => "corrupt_recovered",
    }
}

/// The JSONL key of a payload field: its name, unless the table renames it.
macro_rules! field_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Declares [`Payload`] from one table: each variant's doc comment, its
/// JSONL `ev` label, the [`Subsystem`] that emits it and its fields (keyed
/// by field name, or by the `as "key"` rename) appear once, and the JSONL
/// writer and parser are generated from the table.
macro_rules! payload_table {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident => $label:literal in $sub:ident $({
            $( $(#[$fmeta:meta])* $field:ident $(as $key:literal)? : $ty:ty, )*
        })?,
    )*) => {
        /// The typed body of one trace event.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Payload {
            $( $(#[$vmeta])* $variant $({ $( $(#[$fmeta])* $field: $ty, )* })?, )*
        }

        impl Payload {
            /// Every `ev` label, in declaration order.
            pub const LABELS: [&'static str; [$($label),*].len()] = [$($label),*];

            /// The event's `ev` label in the JSONL form.
            pub fn label(&self) -> &'static str {
                match self {
                    $( Payload::$variant { .. } => $label, )*
                }
            }

            /// The subsystem that emits this kind of event.
            pub fn subsystem(&self) -> Subsystem {
                match self {
                    $( Payload::$variant { .. } => Subsystem::$sub, )*
                }
            }

            /// Append the payload's fields as `,"key":value` pairs.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $( Payload::$variant $({ $($field),* })? => {
                        $($( $field.write_field(field_key!($field $($key)?), out); )*)?
                    } )*
                }
            }

            /// Rebuild the payload whose `ev` label is `label`.
            fn read_fields(label: &str, obj: &[(String, Json)]) -> Result<Self, String> {
                Ok(match label {
                    $( $label => Payload::$variant $({
                        $( $field: Field::read_field(obj, field_key!($field $($key)?))?, )*
                    })?, )*
                    other => return Err(format!("unknown event kind '{other}'")),
                })
            }
        }
    };
}

payload_table! {
    /// One tmem put with its Algorithm 1 admission operands: `used` and
    /// `target` are the values of `tmem_used` and `mm_target` the admission
    /// check compared (after any stale-target fallback).
    Put => "put" in Tmem {
        /// Pool the put targeted.
        pool: u32,
        /// Admission/storage outcome.
        result as "res": PutResult,
        /// `tmem_used` operand of the admission check.
        used: u64,
        /// Effective `mm_target` operand of the admission check.
        target: u64,
    },
    /// An ephemeral page was evicted to make room (the event's `vm` is the
    /// *victim* owner; the beneficiary emits a `Put` with
    /// [`PutResult::StoredEvict`]).
    Evict => "evict" in Tmem {
        /// Pool the victim page belonged to.
        pool: u32,
    },
    /// One tmem get.
    Get => "get" in Tmem {
        /// Pool queried.
        pool: u32,
        /// Whether the page was present.
        hit: bool,
        /// Whether the hit freed the frame (persistent-pool exclusive get).
        freed: bool,
    },
    /// One flush (single page).
    Flush => "flush" in Tmem {
        /// Pool flushed.
        pool: u32,
        /// Frames actually freed (0 when the page was absent).
        pages: u64,
    },
    /// A tmem pool was created. Makes the trace self-describing: replay
    /// learns each pool's kind here, so ephemeral (cleancache) traffic can
    /// be told apart from frontswap traffic without out-of-band context.
    PoolCreate => "pool_create" in Tmem {
        /// Pool created.
        pool: u32,
        /// True for ephemeral (cleancache) pools, false for persistent
        /// (frontswap) pools.
        ephemeral: bool,
    },
    /// A whole object or pool was destroyed.
    PoolDestroy => "pool_destroy" in Tmem {
        /// Pool destroyed.
        pool: u32,
        /// Frames freed.
        pages: u64,
    },
    /// The hypervisor reclaimed over-target persistent pages back to the
    /// guest (they fall through to disk).
    Reclaim => "reclaim" in Tmem {
        /// Pool reclaimed from.
        pool: u32,
        /// Frames reclaimed.
        pages: u64,
    },
    /// A `SetTargets` hypercall reached the hypervisor.
    TargetsApplied => "targets_applied" in Hypervisor {
        /// Push sequence number.
        seq: u64,
        /// Entries in the target vector.
        entries: u32,
        /// False when the idempotence guard rejected a stale sequence.
        applied: bool,
    },
    /// The hypervisor emitted a VIRQ statistics sample with this fate.
    VirqSample => "sample" in Virq {
        /// Sample sequence number.
        seq: u64,
        /// Fate assigned by the fault layer.
        fate: SampleFate,
    },
    /// One sampling interval closed (after MM drive, reclaim and the
    /// accounting invariant check). The `k`-th `IntervalClose` aligns with
    /// the `k`-th point of every recorded time-series.
    IntervalClose => "interval" in Virq {
        /// Sample sequence number of the interval.
        seq: u64,
        /// Whether the hypervisor spent this interval in stale-target
        /// fallback (only ever true when an MM is attached).
        stale: bool,
        /// Result of the tmem accounting invariant check.
        ok: bool,
    },
    /// A netlink stats message crossed (or failed to cross) the dom0 → MM
    /// edge.
    NetlinkStats => "stats_msg" in Relay {
        /// Sample sequence number carried by the message.
        seq: u64,
        /// Fate assigned by the fault layer.
        fate: NetlinkFate,
    },
    /// The relay enqueued a stats message for the MM.
    RelayEnqueue => "enqueue" in Relay {
        /// Sample sequence number.
        seq: u64,
        /// Queue depth after the enqueue.
        depth: u64,
    },
    /// The relay shed its oldest queued message at capacity.
    RelayShed => "shed" in Relay {
        /// Sample sequence number of the shed (oldest) message.
        seq: u64,
    },
    /// One `SetTargets` push attempt through the relay.
    RelayPush => "push" in Relay {
        /// Push sequence number.
        seq: u64,
        /// Attempt number (1 = first try; ≥ 2 = backoff retry).
        attempt: u32,
        /// What happened to the attempt.
        outcome: PushOutcome,
    },
    /// The MM processed one fresh snapshot and decided.
    MmDecision => "decision" in Mm {
        /// Sequence of the snapshot consumed.
        seq_in: u64,
        /// Push sequence assigned (0 when not sent).
        push_seq: u64,
        /// Whether a target vector was transmitted (false = suppressed or
        /// warming up).
        sent: bool,
        /// Whether the MM was inside its post-restart rebuild window.
        warming: bool,
        /// The computed per-VM target vector `(vm, mm_target)`.
        targets: Vec<(u32, u64)>,
        /// When the policy rescaled (Eq. 2): `(sum_targets, local_tmem)`
        /// inputs of the proportional rescale.
        rescale: Option<(u64, u64)>,
    },
    /// The MM discarded a duplicate/stale snapshot idempotently.
    MmDiscard => "discard" in Mm {
        /// Sequence of the discarded snapshot.
        seq_in: u64,
    },
    /// The MM process crashed.
    MmCrash => "crash" in Mm {
        /// MM cycle count at the crash.
        cycle: u64,
    },
    /// The watchdog restarted a crashed MM.
    MmRestart => "restart" in Mm,
    /// The fault layer injected a fault.
    Fault => "fault" in Fault {
        /// Which fault fired.
        kind: FaultKind,
    },
    /// The data-fault layer silently removed stored pages (ephemeral loss,
    /// a corrupt ephemeral page dropped on get, a corrupt persistent
    /// victim dropped during reclaim, or a scrubber quarantine). The
    /// event's `vm` is the owner whose occupancy shrank.
    DataPurge => "data_purge" in Tmem {
        /// Pool the pages were removed from.
        pool: u32,
        /// Frames freed.
        pages: u64,
    },
    /// One pool-scrubber pass completed (node-wide).
    Scrub => "scrub" in Tmem {
        /// Pages checksum-verified.
        checked: u64,
        /// Corrupt pages found by this pass.
        corrupt: u64,
        /// Corrupt objects quarantined by this pass.
        quarantined: u64,
    },
    /// A get missed local tmem and was serviced by the far-memory tier
    /// (the far copy is consumed — exclusive read). Emitted in addition
    /// to the `Get` event, which reports `freed: false` because no
    /// *local* frame was released.
    FarGet => "far_get" in Tmem {
        /// Pool the far copy belonged to.
        pool: u32,
    },
    /// Far-tier entries were purged by a flush/destroy of their pool.
    FarFlush => "far_flush" in Tmem {
        /// Pool flushed.
        pool: u32,
        /// Far entries removed.
        pages: u64,
    },
    /// A VM began migrating off this host. Emitted on the *source* host's
    /// trace; the pages named here leave this host's accounting.
    MigrateOut => "migrate_out" in Fleet {
        /// Clean local tmem pages exported.
        pages: u64,
        /// Far-tier entries exported.
        far: u64,
        /// Corrupt pages found at export and dropped (never transferred).
        purged: u64,
        /// Resident RAM pages transferred alongside.
        ram: u64,
    },
    /// A migrating VM landed on this host. Emitted on the *destination*
    /// host's trace. `pages + far + spilled` equals the source's
    /// `pages + far` — conservation, checked by replay.
    MigrateIn => "migrate_in" in Fleet {
        /// Pages stored into the destination's local tmem.
        pages: u64,
        /// Entries stored into the destination's far tier.
        far: u64,
        /// Pages that found no tmem room and spilled to the destination's
        /// swap disk.
        spilled: u64,
    },
    /// A migrated VM resumed on its destination host.
    MigrateDone => "migrate_done" in Fleet {
        /// Pause-to-resume downtime in sim-nanoseconds.
        downtime: u64,
    },
}

/// One recorded event: `(SimTime, vm, payload)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated instant of the event.
    pub at: SimTime,
    /// VM the event is attributed to (`None` for node-wide control-plane
    /// events).
    pub vm: Option<u32>,
    /// Typed body.
    pub payload: Payload,
}

impl TraceEvent {
    /// The emitting subsystem, fixed by the payload's kind.
    pub fn subsystem(&self) -> Subsystem {
        self.payload.subsystem()
    }
}

/// The benchmark's nine trace counters, maintained by the [`Recorder`] as
/// events arrive. It stays beside `scenarios::trace_check::TraceFold`, the
/// one summary of the event stream, for two reasons: it counts every event,
/// including those the ring dropped, which no fold of [`TraceData::events`]
/// can see; and perfbench reads it. All fields are exact counts; merging
/// across cells is exact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceMetrics {
    /// Total puts attempted.
    pub puts: u64,
    /// Puts that did not end in tmem (rejected by target, capacity or an
    /// injected I/O failure).
    pub puts_rejected: u64,
    /// Total gets.
    pub gets: u64,
    /// Gets that hit.
    pub get_hits: u64,
    /// Frames freed by flushes and pool destroys.
    pub flush_pages: u64,
    /// Ephemeral evictions.
    pub evictions: u64,
    /// Frames reclaimed over target.
    pub reclaimed_pages: u64,
    /// VIRQ samples emitted.
    pub virq_samples: u64,
    /// Stats messages shed at queue capacity.
    pub relay_shed: u64,
}

impl TraceMetrics {
    /// Fold another registry into this one (exact).
    pub fn merge(&mut self, other: &TraceMetrics) {
        self.puts += other.puts;
        self.puts_rejected += other.puts_rejected;
        self.gets += other.gets;
        self.get_hits += other.get_hits;
        self.flush_pages += other.flush_pages;
        self.evictions += other.evictions;
        self.reclaimed_pages += other.reclaimed_pages;
        self.virq_samples += other.virq_samples;
        self.relay_shed += other.relay_shed;
    }
}

/// The per-run event sink: a clock cell, a bounded ring of events, and the
/// metrics registry. Owned behind `Arc<Mutex<…>>` by every [`Tracer`]
/// clone of one host; the host's worker thread is the only one that
/// records into it.
#[derive(Debug)]
pub struct Recorder {
    now: SimTime,
    capacity: usize,
    ring: VecDeque<TraceEvent>,
    dropped_oldest: u64,
    metrics: TraceMetrics,
}

impl Recorder {
    /// A recorder holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Recorder {
            now: SimTime::ZERO,
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            dropped_oldest: 0,
            metrics: TraceMetrics::default(),
        }
    }

    fn record(&mut self, vm: Option<u32>, payload: Payload) {
        match &payload {
            Payload::Put { result, .. } => {
                self.metrics.puts += 1;
                if !result.is_success() {
                    self.metrics.puts_rejected += 1;
                }
            }
            Payload::Evict { .. } => self.metrics.evictions += 1,
            Payload::Get { hit, .. } => {
                self.metrics.gets += 1;
                if *hit {
                    self.metrics.get_hits += 1;
                }
            }
            Payload::Flush { pages, .. } | Payload::PoolDestroy { pages, .. } => {
                self.metrics.flush_pages += pages;
            }
            Payload::Reclaim { pages, .. } => self.metrics.reclaimed_pages += pages,
            Payload::VirqSample { .. } => self.metrics.virq_samples += 1,
            Payload::RelayShed { .. } => self.metrics.relay_shed += 1,
            Payload::PoolCreate { .. }
            | Payload::TargetsApplied { .. }
            | Payload::IntervalClose { .. }
            | Payload::NetlinkStats { .. }
            | Payload::RelayEnqueue { .. }
            | Payload::RelayPush { .. }
            | Payload::MmDecision { .. }
            | Payload::MmDiscard { .. }
            | Payload::MmCrash { .. }
            | Payload::MmRestart
            | Payload::Fault { .. }
            | Payload::DataPurge { .. }
            | Payload::Scrub { .. }
            | Payload::FarGet { .. }
            | Payload::FarFlush { .. }
            | Payload::MigrateOut { .. }
            | Payload::MigrateIn { .. }
            | Payload::MigrateDone { .. } => {}
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped_oldest += 1;
        }
        self.ring.push_back(TraceEvent {
            at: self.now,
            vm,
            payload,
        });
    }
}

/// The cheap, cloneable handle every component holds. Disabled tracers
/// carry `None`: [`Tracer::emit`] is then a single branch and the event
/// closure is never evaluated.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<Recorder>>>);

impl Tracer {
    /// A tracer that records nothing (the default).
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// A tracer backed by a fresh recorder.
    pub fn new(recorder: Recorder) -> Self {
        Tracer(Some(Arc::new(Mutex::new(recorder))))
    }

    /// Build from an optional [`TraceConfig`] (the run-config plumbing).
    pub fn from_config(cfg: Option<&TraceConfig>) -> Self {
        match cfg {
            Some(tc) => Tracer::new(Recorder::new(tc.capacity)),
            None => Tracer::disabled(),
        }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Advance the recorder's clock; every subsequent event is stamped with
    /// `t`. The simulation driver calls this once per dispatched event.
    #[inline]
    pub fn set_now(&self, t: SimTime) {
        if let Some(rec) = &self.0 {
            lock(rec).now = t;
        }
    }

    /// Emit one event. The closure builds `(vm, payload)` and is only
    /// evaluated when tracing is enabled — call sites pay one branch when
    /// disabled.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> (Option<u32>, Payload)) {
        if let Some(rec) = &self.0 {
            let (vm, payload) = f();
            lock(rec).record(vm, payload);
        }
    }

    /// Drain the recorder into a plain, `Send` [`TraceData`]. Returns
    /// `None` for disabled tracers. Other live handles keep pointing at the
    /// (now empty) recorder.
    pub fn finish(&self) -> Option<TraceData> {
        let mut rec = lock(self.0.as_ref()?);
        Some(TraceData {
            events: std::mem::take(&mut rec.ring).into_iter().collect(),
            dropped_oldest: std::mem::take(&mut rec.dropped_oldest),
            metrics: std::mem::take(&mut rec.metrics),
        })
    }
}

fn lock(rec: &Mutex<Recorder>) -> MutexGuard<'_, Recorder> {
    rec.lock().expect("a thread panicked while recording")
}

/// Identity stamped into a JSONL trace header.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceHeader {
    /// Scenario name.
    pub scenario: String,
    /// Policy name.
    pub policy: String,
    /// Root seed of the run.
    pub seed: u64,
}

/// The extracted, thread-safe result of one recording: the event list plus
/// aggregate metrics. This is what crosses from a worker cell back to the
/// experiment engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceData {
    /// Recorded events in emission order.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring because capacity was exceeded. A
    /// replay verifier requires this to be 0.
    pub dropped_oldest: u64,
    /// The registry's counts over every recorded event, dropped ones too.
    pub metrics: TraceMetrics,
}

/// A trace parsed back from JSONL: header fields plus events.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrace {
    /// Schema version from the header.
    pub version: u32,
    /// Scenario name from the header.
    pub scenario: String,
    /// Policy name from the header.
    pub policy: String,
    /// Root seed from the header.
    pub seed: u64,
    /// Ring-buffer drops declared by the header.
    pub dropped_oldest: u64,
    /// Write-time subsystem filter, if any.
    pub filter: Option<String>,
    /// Parsed events in file order.
    pub events: Vec<TraceEvent>,
}

impl TraceData {
    /// Serialize as JSONL: one header object, then one compact object per
    /// event, with a fixed key order so equal traces are byte-equal.
    /// `filter` restricts the written events to the listed subsystems (the
    /// recorder always records everything; filtering is a write-time view).
    pub fn to_jsonl(&self, header: &TraceHeader, filter: Option<&[Subsystem]>) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"smartmem-trace\",\"version\":{},\"scenario\":{},\"policy\":{},\"seed\":{},\"dropped\":{}",
            TRACE_SCHEMA_VERSION,
            json_string(&header.scenario),
            json_string(&header.policy),
            header.seed,
            self.dropped_oldest
        );
        let filter_label = filter.map(|subs| {
            subs.iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(",")
        });
        if let Some(label) = &filter_label {
            let _ = write!(out, ",\"filter\":{}", json_string(label));
        }
        out.push_str("}\n");
        for ev in &self.events {
            if let Some(subs) = filter {
                if !subs.contains(&ev.subsystem()) {
                    continue;
                }
            }
            write_event(&mut out, ev);
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL trace produced by [`TraceData::to_jsonl`]. Strict:
    /// unknown schema names, versions, subsystems or event kinds, and a
    /// `sub` that is not the event kind's subsystem, are errors, so schema
    /// drift is caught at the boundary.
    pub fn parse_jsonl(s: &str) -> Result<ParsedTrace, String> {
        let mut lines = s.lines().enumerate();
        let (_, first) = lines
            .next()
            .ok_or_else(|| "empty trace: missing header line".to_string())?;
        let header = parse_json_object(first).map_err(|e| format!("header: {e}"))?;
        if String::read_field(&header, "schema")? != "smartmem-trace" {
            return Err("header: not a smartmem-trace file".into());
        }
        let version = u32::read_field(&header, "version")?;
        if version != TRACE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported trace schema version {version} (expected {TRACE_SCHEMA_VERSION})"
            ));
        }
        let mut events = Vec::new();
        for (i, line) in lines {
            if line.is_empty() {
                continue;
            }
            let obj = parse_json_object(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            events.push(event_from_fields(&obj).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(ParsedTrace {
            version,
            scenario: Field::read_field(&header, "scenario")?,
            policy: Field::read_field(&header, "policy")?,
            seed: Field::read_field(&header, "seed")?,
            dropped_oldest: Field::read_field(&header, "dropped")?,
            filter: Field::read_field(&header, "filter")?,
            events,
        })
    }
}

// ---------------------------------------------------------------------------
// JSONL codec: the envelope here, the payload keys in `payload_table!`, and
// one `Field` impl per value type, shared by the writer and the parser.
// ---------------------------------------------------------------------------

/// `s` as a quoted, escaped JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_event(out: &mut String, ev: &TraceEvent) {
    let _ = write!(out, "{{\"t\":{}", ev.at.as_nanos());
    ev.vm.write_field("vm", out);
    ev.subsystem().write_field("sub", out);
    let _ = write!(out, ",\"ev\":\"{}\"", ev.payload.label());
    ev.payload.write_fields(out);
    out.push('}');
}

/// A value carried under one key of a trace JSONL object: how it is
/// written, and how it is read back.
pub(crate) trait Field: Sized {
    /// Append the JSON value.
    fn encode(&self, out: &mut String);

    /// Read the JSON value back.
    fn decode(v: &Json) -> Result<Self, String>;

    /// Append `,"key":value`.
    fn write_field(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":");
        self.encode(out);
    }

    /// Read the value stored under `key`.
    fn read_field(obj: &[(String, Json)], key: &str) -> Result<Self, String> {
        let v = find(obj, key).ok_or_else(|| format!("missing field '{key}'"))?;
        Self::decode(v).map_err(|e| format!("field '{key}': {e}"))
    }
}

impl Field for u64 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn decode(v: &Json) -> Result<Self, String> {
        match v {
            Json::U(n) => Ok(*n),
            other => Err(format!("expected an integer, got {other:?}")),
        }
    }
}

impl Field for u32 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let n = u64::decode(v)?;
        u32::try_from(n).map_err(|_| format!("{n} does not fit in 32 bits"))
    }
}

impl Field for bool {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn decode(v: &Json) -> Result<Self, String> {
        match v {
            Json::B(b) => Ok(*b),
            other => Err(format!("expected a bool, got {other:?}")),
        }
    }
}

impl Field for String {
    fn encode(&self, out: &mut String) {
        out.push_str(&json_string(self));
    }

    fn decode(v: &Json) -> Result<Self, String> {
        match v {
            Json::S(s) => Ok(s.clone()),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }
}

/// `[a, b]`.
impl<A: Field, B: Field> Field for (A, B) {
    fn encode(&self, out: &mut String) {
        out.push('[');
        self.0.encode(out);
        out.push(',');
        self.1.encode(out);
        out.push(']');
    }

    fn decode(v: &Json) -> Result<Self, String> {
        match v {
            Json::A(pair) if pair.len() == 2 => Ok((A::decode(&pair[0])?, B::decode(&pair[1])?)),
            other => Err(format!("expected a [a, b] pair, got {other:?}")),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn encode(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.encode(out);
        }
        out.push(']');
    }

    fn decode(v: &Json) -> Result<Self, String> {
        match v {
            Json::A(items) => items.iter().map(T::decode).collect(),
            other => Err(format!("expected an array, got {other:?}")),
        }
    }
}

/// An optional field: written only when present, absent when read back
/// without its key.
impl<T: Field> Field for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(v) => v.encode(out),
            None => out.push_str("null"),
        }
    }

    fn decode(v: &Json) -> Result<Self, String> {
        T::decode(v).map(Some)
    }

    fn write_field(&self, key: &str, out: &mut String) {
        if let Some(v) = self {
            v.write_field(key, out);
        }
    }

    fn read_field(obj: &[(String, Json)], key: &str) -> Result<Self, String> {
        match find(obj, key) {
            Some(_) => T::read_field(obj, key).map(Some),
            None => Ok(None),
        }
    }
}

fn event_from_fields(obj: &[(String, Json)]) -> Result<TraceEvent, String> {
    let at = SimTime(u64::read_field(obj, "t")?);
    let vm = Field::read_field(obj, "vm")?;
    let sub = Subsystem::read_field(obj, "sub")?;
    let payload = Payload::read_fields(&String::read_field(obj, "ev")?, obj)?;
    if payload.subsystem() != sub {
        return Err(format!(
            "field 'sub': '{}' events belong to '{}', not '{}'",
            payload.label(),
            payload.subsystem().as_str(),
            sub.as_str()
        ));
    }
    Ok(TraceEvent { at, vm, payload })
}

// ---------------------------------------------------------------------------
// JSON parsing (hand-rolled: the vendored serde is a no-op stub)
// ---------------------------------------------------------------------------

/// Minimal JSON value for the flat objects the trace format uses.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    U(u64),
    B(bool),
    S(String),
    A(Vec<Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        match self.bump() {
            Some(x) if x == b => Ok(()),
            other => Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                other.map(|c| c as char)
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump().ok_or("unterminated string")? {
                b'"' => return Ok(out),
                b'\\' => match self.bump().ok_or("unterminated escape")? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or("truncated \\u escape")? as char;
                            code = code * 16 + d.to_digit(16).ok_or("bad \\u escape")?;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                },
                b => {
                    // Re-assemble multi-byte UTF-8 sequences byte-wise.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = if b >= 0xF0 {
                            4
                        } else if b >= 0xE0 {
                            3
                        } else {
                            2
                        };
                        let end = start + len;
                        let slice = self.bytes.get(start..end).ok_or("truncated UTF-8")?;
                        let s = std::str::from_utf8(slice).map_err(|_| "invalid UTF-8")?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek().ok_or("unexpected end of input")? {
            b'"' => Ok(Json::S(self.string()?)),
            b't' => {
                self.literal("true")?;
                Ok(Json::B(true))
            }
            b'f' => {
                self.literal("false")?;
                Ok(Json::B(false))
            }
            b'[' => {
                self.bump();
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.bump();
                    return Ok(Json::A(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Json::A(items)),
                        other => {
                            return Err(format!(
                                "expected ',' or ']' in array, found {:?}",
                                other.map(|c| c as char)
                            ))
                        }
                    }
                }
            }
            b'0'..=b'9' => {
                let mut n = 0u64;
                while let Some(d @ b'0'..=b'9') = self.peek() {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add((d - b'0') as u64))
                        .ok_or("integer overflow")?;
                    self.pos += 1;
                }
                Ok(Json::U(n))
            }
            other => Err(format!("unexpected character '{}'", other as char)),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        for &b in lit.as_bytes() {
            if self.bump() != Some(b) {
                return Err(format!("expected literal '{lit}'"));
            }
        }
        Ok(())
    }
}

fn parse_json_object(line: &str) -> Result<Vec<(String, Json)>, String> {
    let mut p = Parser::new(line);
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        return Ok(fields);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.expect(b':')?;
        let value = p.value()?;
        fields.push((key, value));
        p.skip_ws();
        match p.bump() {
            Some(b',') => continue,
            Some(b'}') => return Ok(fields),
            other => {
                return Err(format!(
                    "expected ',' or '}}' in object, found {:?}",
                    other.map(|c| c as char)
                ))
            }
        }
    }
}

fn find<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parse a `--filter subsys=a,b` value (the part after `subsys=`) into a
/// subsystem list. Rejects unknown names with the valid set in the message.
pub fn parse_subsystem_filter(list: &str) -> Result<Vec<Subsystem>, String> {
    let mut subs = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let sub = Subsystem::from_label(name).ok_or_else(|| {
            format!(
                "unknown subsystem '{name}' (valid: {})",
                Subsystem::ALL
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        if !subs.contains(&sub) {
            subs.push(sub);
        }
    }
    if subs.is_empty() {
        return Err("empty subsystem filter".into());
    }
    Ok(subs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<(Option<u32>, Payload)> {
        vec![
            (
                Some(1),
                Payload::Put {
                    pool: 0,
                    result: PutResult::Stored,
                    used: 10,
                    target: 100,
                },
            ),
            (
                Some(1),
                Payload::Put {
                    pool: 0,
                    result: PutResult::RejectTarget,
                    used: 100,
                    target: 100,
                },
            ),
            (
                Some(2),
                Payload::Get {
                    pool: 1,
                    hit: true,
                    freed: true,
                },
            ),
            (Some(2), Payload::Evict { pool: 1 }),
            (Some(1), Payload::Flush { pool: 0, pages: 1 }),
            (Some(1), Payload::PoolDestroy { pool: 0, pages: 4 }),
            (Some(3), Payload::Reclaim { pool: 2, pages: 5 }),
            (
                None,
                Payload::VirqSample {
                    seq: 1,
                    fate: SampleFate::Drop,
                },
            ),
            (None, Payload::RelayEnqueue { seq: 1, depth: 1 }),
            (None, Payload::RelayShed { seq: 1 }),
            (
                None,
                Payload::RelayPush {
                    seq: 1,
                    attempt: 2,
                    outcome: PushOutcome::Landed,
                },
            ),
            (
                None,
                Payload::MmDecision {
                    seq_in: 1,
                    push_seq: 1,
                    sent: true,
                    warming: false,
                    targets: vec![(1, 100), (2, 200)],
                    rescale: Some((400, 300)),
                },
            ),
            (
                None,
                Payload::Fault {
                    kind: FaultKind::SampleDrop,
                },
            ),
            (None, Payload::MmRestart),
            (
                Some(1),
                Payload::Put {
                    pool: 0,
                    result: PutResult::RejectIo,
                    used: 10,
                    target: 100,
                },
            ),
            (Some(2), Payload::DataPurge { pool: 1, pages: 3 }),
            (
                None,
                Payload::Scrub {
                    checked: 64,
                    corrupt: 2,
                    quarantined: 1,
                },
            ),
            (
                Some(1),
                Payload::Fault {
                    kind: FaultKind::CorruptDetected,
                },
            ),
        ]
    }

    fn record_all() -> TraceData {
        let tracer = Tracer::new(Recorder::new(1024));
        for (i, (vm, payload)) in sample_events().into_iter().enumerate() {
            tracer.set_now(SimTime(i as u64 * 1_000));
            tracer.emit(|| (vm, payload));
        }
        tracer.finish().expect("enabled tracer yields data")
    }

    #[test]
    fn disabled_tracer_never_evaluates_the_closure() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        tracer.set_now(SimTime(5));
        tracer.emit(|| unreachable!("closure must not run when disabled"));
        assert_eq!(tracer.finish(), None);
    }

    #[test]
    fn jsonl_round_trips_every_payload_kind() {
        let data = record_all();
        let header = TraceHeader {
            scenario: "scenario1".into(),
            policy: "smart-alloc".into(),
            seed: 42,
        };
        let jsonl = data.to_jsonl(&header, None);
        let parsed = TraceData::parse_jsonl(&jsonl).expect("own output parses");
        assert_eq!(parsed.version, TRACE_SCHEMA_VERSION);
        assert_eq!(parsed.scenario, "scenario1");
        assert_eq!(parsed.policy, "smart-alloc");
        assert_eq!(parsed.seed, 42);
        assert_eq!(parsed.dropped_oldest, 0);
        assert_eq!(parsed.events, data.events, "lossless round trip");
    }

    #[test]
    fn write_filter_restricts_subsystems() {
        let data = record_all();
        let header = TraceHeader::default();
        let jsonl = data.to_jsonl(&header, Some(&[Subsystem::Tmem]));
        let parsed = TraceData::parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed.filter.as_deref(), Some("tmem"));
        assert_eq!(parsed.events.len(), 10);
        assert!(parsed
            .events
            .iter()
            .all(|e| e.subsystem() == Subsystem::Tmem));
    }

    #[test]
    fn ring_drops_oldest_at_capacity() {
        let tracer = Tracer::new(Recorder::new(2));
        for seq in 0..5 {
            tracer.emit(|| (None, Payload::RelayShed { seq }));
        }
        let data = tracer.finish().unwrap();
        assert_eq!(data.dropped_oldest, 3);
        assert_eq!(data.events.len(), 2);
        assert_eq!(data.events[0].payload, Payload::RelayShed { seq: 3 });
        assert_eq!(data.events[1].payload, Payload::RelayShed { seq: 4 });
        assert_eq!(
            data.metrics.relay_shed, 5,
            "the registry counts dropped events"
        );
    }

    #[test]
    fn metrics_aggregate_alongside_events() {
        let data = record_all();
        let m = &data.metrics;
        assert_eq!(m.puts, 3);
        assert_eq!(m.puts_rejected, 2, "RejectIo counts as a reject");
        assert_eq!(m.gets, 1);
        assert_eq!(m.get_hits, 1);
        assert_eq!(m.evictions, 1);
        assert_eq!(m.flush_pages, 5, "flushes and pool destroys");
        assert_eq!(m.reclaimed_pages, 5);
        assert_eq!(m.virq_samples, 1);
        assert_eq!(m.relay_shed, 1);
    }

    #[test]
    fn filter_parser_rejects_unknown_names() {
        assert_eq!(
            parse_subsystem_filter("tmem,virq").unwrap(),
            vec![Subsystem::Tmem, Subsystem::Virq]
        );
        assert!(parse_subsystem_filter("bogus").is_err());
        assert!(parse_subsystem_filter("").is_err());
    }

    #[test]
    fn parser_reports_schema_drift() {
        assert!(TraceData::parse_jsonl("").is_err());
        assert!(TraceData::parse_jsonl("{\"schema\":\"other\",\"version\":1}").is_err());
        let wrong_version = format!(
            "{{\"schema\":\"smartmem-trace\",\"version\":{},\"scenario\":\"s\",\"policy\":\"p\",\"seed\":0,\"dropped\":0}}\n",
            TRACE_SCHEMA_VERSION + 1
        );
        assert!(TraceData::parse_jsonl(&wrong_version)
            .unwrap_err()
            .contains("version"));
    }

    #[test]
    fn label_tables_are_two_way_and_unique() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(
            all: &[T],
            as_str: fn(T) -> &'static str,
            from_label: fn(&str) -> Option<T>,
        ) {
            for (i, &v) in all.iter().enumerate() {
                assert_eq!(from_label(as_str(v)), Some(v));
                assert!(!all[..i].iter().any(|&w| as_str(w) == as_str(v)));
            }
            assert_eq!(from_label("bogus"), None);
        }
        check(&Subsystem::ALL, Subsystem::as_str, Subsystem::from_label);
        check(&PutResult::ALL, PutResult::as_str, PutResult::from_label);
        check(
            &PushOutcome::ALL,
            PushOutcome::as_str,
            PushOutcome::from_label,
        );
        check(&FaultKind::ALL, FaultKind::as_str, FaultKind::from_label);
        check(&SampleFate::ALL, SampleFate::as_str, SampleFate::from_label);
        check(
            &NetlinkFate::ALL,
            NetlinkFate::as_str,
            NetlinkFate::from_label,
        );
        for (i, label) in Payload::LABELS.iter().enumerate() {
            assert!(!Payload::LABELS[..i].contains(label), "{label}");
        }
    }

    #[test]
    fn parser_names_the_bad_field() {
        let header = "{\"schema\":\"smartmem-trace\",\"version\":1,\"scenario\":\"s\",\
                      \"policy\":\"p\",\"seed\":0,\"dropped\":0}\n";
        for (event, want) in [
            (
                "{\"t\":0,\"sub\":\"tmem\",\"ev\":\"put\",\"pool\":0,\"res\":\"bogus\",\"used\":1,\"target\":1}",
                "line 2: field 'res': unknown put result 'bogus'",
            ),
            (
                "{\"t\":0,\"sub\":\"tmem\",\"ev\":\"put\",\"pool\":0,\"res\":\"stored\",\"target\":1}",
                "line 2: missing field 'used'",
            ),
            (
                "{\"t\":0,\"sub\":\"tmem\",\"ev\":\"evict\",\"pool\":4294967296}",
                "field 'pool': 4294967296 does not fit in 32 bits",
            ),
            (
                "{\"t\":0,\"sub\":\"tmem\",\"ev\":\"get\",\"pool\":0,\"hit\":1,\"freed\":false}",
                "field 'hit': expected a bool",
            ),
            (
                "{\"t\":0,\"sub\":\"mm\",\"ev\":\"decision\",\"seq_in\":1,\"push_seq\":0,\
                 \"sent\":false,\"warming\":false,\"targets\":[[1]]}",
                "field 'targets': expected a [a, b] pair",
            ),
            (
                "{\"t\":0,\"sub\":\"disk\",\"ev\":\"restart\"}",
                "field 'sub': unknown subsystem 'disk'",
            ),
            (
                "{\"t\":0,\"sub\":\"mm\",\"ev\":\"nap\"}",
                "unknown event kind 'nap'",
            ),
            (
                "{\"t\":0,\"vm\":1,\"sub\":\"mm\",\"ev\":\"pool_create\",\"pool\":0,\"ephemeral\":false}",
                "line 2: field 'sub': 'pool_create' events belong to 'tmem', not 'mm'",
            ),
        ] {
            let err = TraceData::parse_jsonl(&format!("{header}{event}\n")).unwrap_err();
            assert!(err.contains(want), "for {event}:\n  got: {err}");
        }
    }

    #[test]
    fn strings_with_escapes_survive() {
        let s = "a \"quoted\" name\\with\nweird\tchars";
        let json = json_string(s);
        let mut p = Parser::new(&json);
        assert_eq!(p.string().unwrap(), s);
    }
}
