//! The Tmem Kernel Module (TKM), paper §III-C.
//!
//! Two roles, two types:
//!
//! * [`GuestTkm`] — loaded in every guest: registers the frontswap (or
//!   cleancache) pool with the hypervisor at module init and hands it to the
//!   guest kernel's swap path.
//! * [`Dom0Tkm`] — loaded in the privileged domain: receives the
//!   hypervisor's per-second statistics VIRQ, forwards the snapshot to the
//!   user-space Memory Manager over a netlink-like channel, and forwards
//!   the MM's target allocations back down via the custom `SetTargets`
//!   hypercall. The simulation performs the calls inline, but the relay
//!   keeps full message accounting so tests (and the communication-overhead
//!   ablation) can observe the traffic the paper describes.

use sim_core::faults::{FaultInjector, NetlinkFate};
use sim_core::trace::{Payload, PushOutcome, Tracer};
use std::collections::VecDeque;
use tmem::backend::PoolKind;
use tmem::error::TmemError;
use tmem::key::{PoolId, VmId};
use tmem::page::PagePayload;
use tmem::stats::{MmTarget, StatsMsg, TargetMsg};
use xen_sim::hypervisor::Hypervisor;

/// Guest-side TKM instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestTkm {
    pool: PoolId,
}

impl GuestTkm {
    /// Module init: create this VM's tmem pool in the hypervisor.
    pub fn init<P: PagePayload>(
        hyp: &mut Hypervisor<P>,
        vm: VmId,
        kind: PoolKind,
    ) -> Result<Self, TmemError> {
        let pool = hyp.new_pool(vm, kind)?;
        Ok(GuestTkm { pool })
    }

    /// The pool this module registered.
    pub fn pool(&self) -> PoolId {
        self.pool
    }
}

/// Depth of the netlink socket buffer between the relay and the MM. When a
/// burst (duplicates, flushed delays) overruns it, the oldest snapshot is
/// shed — the MM only ever needs recent data.
pub const NETLINK_QUEUE_DEPTH: usize = 2;

/// Total `SetTargets` push attempts (1 initial + retries) before the relay
/// abandons a target vector.
pub const MAX_PUSH_ATTEMPTS: u32 = 4;

/// A target push that failed and is waiting out its retry backoff.
#[derive(Debug, Clone)]
struct PendingPush {
    msg: TargetMsg,
    attempts: u32,
    /// Sampling intervals until the next retry attempt.
    wait: u64,
}

impl PendingPush {
    /// Exponential backoff: 1, 2, 4 intervals after the 1st, 2nd, 3rd
    /// failure.
    fn backoff(attempts: u32) -> u64 {
        1u64 << (attempts.saturating_sub(1).min(8))
    }
}

/// Privileged-domain TKM relay between the VIRQ and the user-space MM.
///
/// The stats path is a bounded queue (depth [`NETLINK_QUEUE_DEPTH`]) with a
/// one-slot reorder buffer: a `Reorder` fate holds the message back until
/// the next delivery. The target path retries failed `SetTargets` pushes
/// with exponential backoff ([`MAX_PUSH_ATTEMPTS`] attempts total); a newer
/// target vector supersedes a pending retry, since targets are absolute,
/// not incremental.
#[derive(Debug, Default)]
pub struct Dom0Tkm {
    queue: VecDeque<StatsMsg>,
    held: Option<StatsMsg>,
    pending: Option<PendingPush>,
    tracer: Tracer,
}

impl Dom0Tkm {
    /// A fresh relay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a flight-recorder handle; the relay then emits structured
    /// events for every stats message and target push attempt.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// VIRQ handler: accept a statistics snapshot from the hypervisor and
    /// queue it for the user-space MM (netlink send), applying the
    /// message's fault fate.
    pub fn deliver_stats(&mut self, msg: StatsMsg, fate: NetlinkFate) {
        self.tracer
            .emit(|| (None, Payload::NetlinkStats { seq: msg.seq, fate }));
        match fate {
            NetlinkFate::Drop => {}
            NetlinkFate::Reorder => {
                // Deliver whatever was held before parking this one.
                if let Some(old) = self.held.replace(msg) {
                    self.enqueue(old);
                }
            }
            NetlinkFate::Deliver => {
                if let Some(old) = self.held.take() {
                    self.enqueue(old);
                }
                self.enqueue(msg);
            }
        }
    }

    /// Deliver one interval's batch of snapshots (a sample channel can
    /// emit up to three when delays flush or duplicates fire), drawing a
    /// netlink fate from the injector *per logical message* — batching is
    /// a delivery optimization, so the fault stream and the resulting
    /// ledger are exactly those of message-at-a-time delivery. Drains
    /// `msgs` so the caller can reuse the buffer.
    pub fn deliver_stats_batch(&mut self, msgs: &mut Vec<StatsMsg>, inj: &mut FaultInjector) {
        for msg in msgs.drain(..) {
            let fate = inj.netlink_fate();
            self.deliver_stats(msg, fate);
        }
    }

    fn enqueue(&mut self, msg: StatsMsg) {
        if self.queue.len() == NETLINK_QUEUE_DEPTH {
            let shed = self.queue.pop_front();
            self.tracer.emit(|| {
                (
                    None,
                    Payload::RelayShed {
                        seq: shed.map(|m| m.seq).unwrap_or(0),
                    },
                )
            });
        }
        self.queue.push_back(msg);
        self.tracer.emit(|| {
            (
                None,
                Payload::RelayEnqueue {
                    seq: self.queue.back().map(|m| m.seq).unwrap_or(0),
                    depth: self.queue.len() as u64,
                },
            )
        });
    }

    /// User-space MM reads the next queued snapshot (netlink recv). `None`
    /// when no snapshot arrived since the last read.
    pub fn take_stats(&mut self) -> Option<StatsMsg> {
        self.queue.pop_front()
    }

    /// Forward target allocations from the MM to the hypervisor via the
    /// custom `SetTargets` hypercall. Whether the hypercall fails is the
    /// hypervisor's fault injector's call; on an injected failure the push
    /// is parked for retry-with-backoff (see [`Dom0Tkm::tick_retries`]);
    /// a push already pending is superseded. Returns whether the targets
    /// were installed immediately.
    pub fn forward_targets<P: PagePayload>(
        &mut self,
        hyp: &mut Hypervisor<P>,
        seq: u64,
        targets: &[MmTarget],
    ) -> bool {
        if let Some(old) = self.pending.take() {
            hyp.faults_mut().ledger_mut().hypercalls_superseded += 1;
            self.tracer.emit(|| {
                (
                    None,
                    Payload::RelayPush {
                        seq: old.msg.seq,
                        attempt: old.attempts,
                        outcome: PushOutcome::Superseded,
                    },
                )
            });
        }
        if hyp.faults_mut().hypercall_fails() {
            self.pending = Some(PendingPush {
                msg: TargetMsg {
                    seq,
                    targets: targets.to_vec(),
                },
                attempts: 1,
                wait: PendingPush::backoff(1),
            });
            self.tracer.emit(|| {
                (
                    None,
                    Payload::RelayPush {
                        seq,
                        attempt: 1,
                        outcome: PushOutcome::Parked,
                    },
                )
            });
            false
        } else {
            self.tracer.emit(|| {
                (
                    None,
                    Payload::RelayPush {
                        seq,
                        attempt: 1,
                        outcome: PushOutcome::Landed,
                    },
                )
            });
            hyp.apply_targets(seq, targets);
            true
        }
    }

    /// Advance the retry clock by one sampling interval and re-attempt a
    /// pending push whose backoff has elapsed. Abandons the push after
    /// [`MAX_PUSH_ATTEMPTS`] total attempts — by then the target vector is
    /// several intervals stale and the hypervisor's own TTL fallback is the
    /// safer authority.
    pub fn tick_retries<P: PagePayload>(&mut self, hyp: &mut Hypervisor<P>) {
        let Some(mut p) = self.pending.take() else {
            return;
        };
        p.wait -= 1;
        if p.wait > 0 {
            self.pending = Some(p);
            return;
        }
        let inj = hyp.faults_mut();
        inj.ledger_mut().hypercall_retries += 1;
        let attempt = p.attempts + 1;
        if inj.hypercall_fails() {
            p.attempts += 1;
            if p.attempts >= MAX_PUSH_ATTEMPTS {
                inj.ledger_mut().hypercalls_abandoned += 1;
                self.tracer.emit(|| {
                    (
                        None,
                        Payload::RelayPush {
                            seq: p.msg.seq,
                            attempt,
                            outcome: PushOutcome::Abandoned,
                        },
                    )
                });
            } else {
                p.wait = PendingPush::backoff(p.attempts);
                self.tracer.emit(|| {
                    (
                        None,
                        Payload::RelayPush {
                            seq: p.msg.seq,
                            attempt,
                            outcome: PushOutcome::Parked,
                        },
                    )
                });
                self.pending = Some(p);
            }
        } else {
            self.tracer.emit(|| {
                (
                    None,
                    Payload::RelayPush {
                        seq: p.msg.seq,
                        attempt,
                        outcome: PushOutcome::Landed,
                    },
                )
            });
            hyp.apply_targets(p.msg.seq, &p.msg.targets);
        }
    }

    /// Whether a failed push is still waiting to be retried.
    pub fn has_pending_push(&self) -> bool {
        self.pending.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::faults::FaultProfile;
    use sim_core::time::SimTime;
    use tmem::page::Fingerprint;
    use xen_sim::vm::VmConfig;

    #[test]
    fn guest_tkm_registers_and_destroys_a_pool() {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(10, 10);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let tkm = GuestTkm::init(&mut hyp, VmId(1), PoolKind::Persistent).unwrap();
        assert_eq!(
            hyp.backend().pool_info(tkm.pool()),
            Some((VmId(1), PoolKind::Persistent))
        );
        // VM teardown destroys the registered pool through the hypervisor.
        assert_eq!(hyp.destroy_pool(tkm.pool()), 0);
        assert_eq!(hyp.backend().pool_count(), 0);
    }

    /// A profile under which every `SetTargets` push fails.
    fn always_fail() -> FaultProfile {
        FaultProfile {
            hypercall_fail: 1.0,
            ..FaultProfile::none()
        }
    }

    #[test]
    fn dom0_relay_accounts_traffic() {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(10, 10);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let mut relay = Dom0Tkm::new();
        let snap = hyp.sample(SimTime::from_secs(1));
        relay.deliver_stats(snap, NetlinkFate::Deliver);
        let got = relay.take_stats().expect("snapshot queued");
        assert_eq!(got.stats.vms.len(), 1);
        assert_eq!(got.seq, 1);
        assert!(relay.take_stats().is_none(), "queue drained");

        let ok = relay.forward_targets(
            &mut hyp,
            1,
            &[MmTarget {
                vm_id: VmId(1),
                mm_target: 7,
            }],
        );
        assert!(ok);
        assert_eq!(hyp.target_of(VmId(1)), Some(7));
    }

    #[test]
    fn netlink_drop_and_reorder_fates() {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(10, 10);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let mut relay = Dom0Tkm::new();

        let s1 = hyp.sample(SimTime::from_secs(1));
        let s2 = hyp.sample(SimTime::from_secs(2));
        let s3 = hyp.sample(SimTime::from_secs(3));

        relay.deliver_stats(s1, NetlinkFate::Drop);
        assert!(
            relay.take_stats().is_none(),
            "dropped message never arrives"
        );

        // Reordered: 2 is parked, 3 arrives first, then 2 flushes behind it.
        relay.deliver_stats(s2, NetlinkFate::Reorder);
        assert!(relay.take_stats().is_none());
        relay.deliver_stats(s3, NetlinkFate::Deliver);
        assert_eq!(relay.take_stats().map(|m| m.seq), Some(2));
        assert_eq!(relay.take_stats().map(|m| m.seq), Some(3));
    }

    #[test]
    fn bounded_queue_sheds_oldest() {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(10, 10);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let mut relay = Dom0Tkm::new();
        for sec in 1..=4 {
            let s = hyp.sample(SimTime::from_secs(sec));
            relay.deliver_stats(s, NetlinkFate::Deliver);
        }
        // Only the newest NETLINK_QUEUE_DEPTH survive.
        assert_eq!(relay.take_stats().map(|m| m.seq), Some(3));
        assert_eq!(relay.take_stats().map(|m| m.seq), Some(4));
        assert!(relay.take_stats().is_none());
    }

    #[test]
    fn failed_push_retries_with_backoff_then_lands() {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(10, 10);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let mut relay = Dom0Tkm::new();
        // Always fail, so the initial push parks a retry...
        hyp.set_faults(&always_fail(), 3);
        let targets = [MmTarget {
            vm_id: VmId(1),
            mm_target: 9,
        }];
        let initial = hyp.target_of(VmId(1));
        assert!(!relay.forward_targets(&mut hyp, 1, &targets));
        assert!(relay.has_pending_push());
        assert_eq!(hyp.target_of(VmId(1)), initial, "nothing installed yet");
        // ...backoff of 1 interval, then retry under a clean injector lands.
        hyp.set_faults(&FaultProfile::none(), 0);
        relay.tick_retries(&mut hyp);
        assert!(!relay.has_pending_push());
        assert_eq!(hyp.target_of(VmId(1)), Some(9));
        assert_eq!(hyp.faults().ledger().hypercall_retries, 1);
    }

    #[test]
    fn push_abandoned_after_retry_budget() {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(10, 10);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let mut relay = Dom0Tkm::new();
        hyp.set_faults(&always_fail(), 3);
        let targets = [MmTarget {
            vm_id: VmId(1),
            mm_target: 9,
        }];
        let initial = hyp.target_of(VmId(1));
        assert!(!relay.forward_targets(&mut hyp, 1, &targets));
        // Backoffs are 1, 2, 4 intervals; drive enough ticks to exhaust the
        // budget of MAX_PUSH_ATTEMPTS total attempts.
        for _ in 0..16 {
            relay.tick_retries(&mut hyp);
        }
        assert!(!relay.has_pending_push(), "push abandoned");
        let ledger = hyp.faults().ledger();
        assert_eq!(ledger.hypercalls_abandoned, 1);
        assert_eq!(ledger.hypercall_retries, (MAX_PUSH_ATTEMPTS - 1) as u64);
        assert_eq!(hyp.target_of(VmId(1)), initial, "never installed");
    }

    #[test]
    fn retry_backoff_fires_at_exactly_ticks_1_3_and_7() {
        // Backoffs of 1, 2 and 4 intervals after the 1st, 2nd and 3rd
        // failure put the retry attempts at ticks 1, 1+2=3 and 3+4=7; every
        // other tick must be a silent wait.
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(10, 10);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let mut relay = Dom0Tkm::new();
        hyp.set_faults(&always_fail(), 3);
        let targets = [MmTarget {
            vm_id: VmId(1),
            mm_target: 9,
        }];
        assert!(!relay.forward_targets(&mut hyp, 1, &targets));
        let mut retries_at = Vec::new();
        for tick in 1..=8u64 {
            let before = hyp.faults().ledger().hypercall_retries;
            relay.tick_retries(&mut hyp);
            if hyp.faults().ledger().hypercall_retries > before {
                retries_at.push(tick);
            }
        }
        assert_eq!(retries_at, vec![1, 3, 7], "1/2/4 backoff schedule");
        assert!(!relay.has_pending_push(), "abandoned on the 4th attempt");
        assert_eq!(hyp.faults().ledger().hypercalls_abandoned, 1);
    }

    #[test]
    fn supersede_mid_backoff_restarts_the_retry_schedule() {
        // Two failures park the push mid-way through a 2-interval backoff;
        // a newer vector then supersedes it and gets its own fresh
        // 1-interval backoff rather than inheriting the old clock.
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(10, 10);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let mut relay = Dom0Tkm::new();
        hyp.set_faults(&always_fail(), 3);
        let old = [MmTarget {
            vm_id: VmId(1),
            mm_target: 4,
        }];
        assert!(!relay.forward_targets(&mut hyp, 1, &old));
        relay.tick_retries(&mut hyp); // retry at tick 1 fails → wait 2
        assert!(relay.has_pending_push());

        let new = [MmTarget {
            vm_id: VmId(1),
            mm_target: 8,
        }];
        assert!(!relay.forward_targets(&mut hyp, 2, &new));
        assert_eq!(hyp.faults().ledger().hypercalls_superseded, 1);

        // One tick suffices for the superseding push to retry (and land).
        // A clean injector starts a fresh ledger.
        hyp.set_faults(&FaultProfile::none(), 0);
        relay.tick_retries(&mut hyp);
        assert!(!relay.has_pending_push());
        assert_eq!(hyp.target_of(VmId(1)), Some(8), "newer vector won");
        assert_eq!(hyp.faults().ledger().hypercall_retries, 1);
    }

    #[test]
    fn shed_at_capacity_drops_oldest_first_and_traces_the_order() {
        use sim_core::trace::{Recorder, Tracer};
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(10, 10);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let mut relay = Dom0Tkm::new();
        let tracer = Tracer::new(Recorder::new(64));
        relay.set_tracer(tracer.clone());
        for sec in 1..=4 {
            let s = hyp.sample(SimTime::from_secs(sec));
            relay.deliver_stats(s, NetlinkFate::Deliver);
        }
        let data = tracer.finish().expect("tracer enabled");
        let shed: Vec<u64> = data
            .events
            .iter()
            .filter_map(|e| match e.payload {
                Payload::RelayShed { seq } => Some(seq),
                _ => None,
            })
            .collect();
        assert_eq!(shed, vec![1, 2], "oldest snapshots shed first, in order");
        let depths: Vec<u64> = data
            .events
            .iter()
            .filter_map(|e| match e.payload {
                Payload::RelayEnqueue { depth, .. } => Some(depth),
                _ => None,
            })
            .collect();
        assert_eq!(depths.len(), 4, "every accepted snapshot enqueues once");
        assert!(
            depths.iter().all(|&d| d <= NETLINK_QUEUE_DEPTH as u64),
            "queue depth never exceeds capacity: {depths:?}"
        );
        assert_eq!(relay.take_stats().map(|m| m.seq), Some(3));
        assert_eq!(relay.take_stats().map(|m| m.seq), Some(4));
    }

    #[test]
    fn newer_push_supersedes_pending_retry() {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(10, 10);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let mut relay = Dom0Tkm::new();
        hyp.set_faults(&always_fail(), 3);
        let old = [MmTarget {
            vm_id: VmId(1),
            mm_target: 4,
        }];
        assert!(!relay.forward_targets(&mut hyp, 1, &old));
        // A fresh vector arrives before the retry fires; it replaces the
        // stale pending push and (under a clean injector) lands directly.
        let new = [MmTarget {
            vm_id: VmId(1),
            mm_target: 8,
        }];
        hyp.set_faults(&FaultProfile::none(), 0);
        assert!(relay.forward_targets(&mut hyp, 2, &new));
        assert_eq!(hyp.faults().ledger().hypercalls_superseded, 1);
        assert!(!relay.has_pending_push());
        assert_eq!(hyp.target_of(VmId(1)), Some(8));
    }
}
