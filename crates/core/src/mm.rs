//! The Memory Manager (MM) user-space process.
//!
//! Paper §III-D: "the MM receives information from the hypervisor regarding
//! the way the VMs make use of their memory. The MM keeps track of this
//! information across time, generating a history... The MM uses this
//! information to calculate a tmem capacity target per VM according to
//! custom-made high-level policies."
//!
//! The MM also implements the `send_to_hypervisor` contract shared by all
//! the paper's policies: "If no changes are detected, then no transmission
//! takes place, avoiding unnecessary communication overhead."

use crate::history::{SeqObservation, StatsHistory};
use crate::policy::{Policy, PolicyKind};
use sim_core::trace::{Payload, Tracer};
use tmem::stats::{MmTarget, StatsMsg};

/// Sampling cycles a restarted MM observes before computing targets again.
/// A crash loses the policy's accumulated state (history, reconf-static's
/// active set, smart-alloc's previous targets read back via `mm_target`);
/// the rebuild window lets the snapshot stream re-seed that state before
/// the policy's output is trusted.
pub const REBUILD_WINDOW: u64 = 2;

/// The user-space Memory Manager: a policy plus history plus transmission
/// suppression, with crash-and-restart support.
pub struct MemoryManager {
    policy: Box<dyn Policy>,
    kind: Option<PolicyKind>,
    history: StatsHistory,
    history_limit: usize,
    last_sent: Option<Vec<MmTarget>>,
    cycles: u64,
    transmissions: u64,
    push_seq: u64,
    warmup_remaining: u64,
    // Harness observability, not process state: these survive crashes so
    // chaos reports can show run-wide totals.
    discarded: u64,
    gaps_before_crashes: u64,
    tracer: Tracer,
}

impl MemoryManager {
    /// Wrap a policy. `history_limit` bounds the retained snapshots.
    pub fn new(policy: Box<dyn Policy>, history_limit: usize) -> Self {
        MemoryManager {
            policy,
            kind: None,
            history: StatsHistory::new(history_limit),
            history_limit,
            last_sent: None,
            cycles: 0,
            transmissions: 0,
            push_seq: 0,
            warmup_remaining: 0,
            discarded: 0,
            gaps_before_crashes: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a flight-recorder handle; every MM cycle then emits a
    /// decision event (with the target vector and any Eq. 2 rescale
    /// inputs), and discards/crashes are recorded too.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Build from a [`PolicyKind`] (the value-level selector), remembering
    /// the kind so [`MemoryManager::crash`] can rebuild the policy from
    /// scratch. Returns `None` for [`PolicyKind::NoTmem`], which runs no MM.
    pub fn from_kind(kind: PolicyKind, history_limit: usize) -> Option<Self> {
        let policy = kind.build()?;
        let mut mm = MemoryManager::new(policy, history_limit);
        mm.kind = Some(kind);
        Some(mm)
    }

    /// The wrapped policy's report name.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// Initial target for a VM registering with tmem, delegated to the
    /// policy.
    pub fn initial_target(&self, total_tmem: u64) -> u64 {
        self.policy.initial_target(total_tmem)
    }

    /// One MM cycle: ingest a sequence-stamped statistics snapshot and
    /// return `(push_seq, targets)` to transmit — or `None` when the
    /// vector is unchanged since the last transmission
    /// (`send_to_hypervisor` suppression), the snapshot is a duplicate or
    /// stale reorder (discarded idempotently, no cycle consumed), or the
    /// MM is still rebuilding state after a restart.
    pub fn on_stats(&mut self, msg: &StatsMsg) -> Option<(u64, Vec<MmTarget>)> {
        match self.history.observe(msg.seq) {
            SeqObservation::Fresh => {}
            SeqObservation::Duplicate | SeqObservation::Stale => {
                self.discarded += 1;
                self.tracer
                    .emit(|| (None, Payload::MmDiscard { seq_in: msg.seq }));
                return None;
            }
        }
        self.cycles += 1;
        self.history.push(msg.stats.clone());
        if self.warmup_remaining > 0 {
            // Rebuild window after a restart: let the policy see the
            // snapshot (its internal state re-seeds) but do not trust —
            // or transmit — its output yet.
            let targets = self.policy.compute(&msg.stats);
            self.warmup_remaining -= 1;
            self.tracer.emit(|| {
                (
                    None,
                    Payload::MmDecision {
                        seq_in: msg.seq,
                        push_seq: 0,
                        sent: false,
                        warming: true,
                        targets: targets.iter().map(|t| (t.vm_id.0, t.mm_target)).collect(),
                        rescale: self.policy.last_rescale(),
                    },
                )
            });
            return None;
        }
        let mut targets = self.policy.compute(&msg.stats);
        // Canonical order so comparison is population-change aware but
        // order-insensitive.
        targets.sort_by_key(|t| t.vm_id);
        let sent = self.last_sent.as_deref() != Some(&targets[..]);
        if sent {
            self.last_sent = Some(targets.clone());
            self.transmissions += 1;
            self.push_seq += 1;
        }
        let push_seq = self.push_seq;
        self.tracer.emit(|| {
            (
                None,
                Payload::MmDecision {
                    seq_in: msg.seq,
                    push_seq: if sent { push_seq } else { 0 },
                    sent,
                    warming: false,
                    targets: targets.iter().map(|t| (t.vm_id.0, t.mm_target)).collect(),
                    rescale: self.policy.last_rescale(),
                },
            )
        });
        if !sent {
            return None;
        }
        Some((self.push_seq, targets))
    }

    /// Simulate an MM process crash: all in-memory state — history, the
    /// policy's accumulated state, transmission suppression memory — is
    /// lost. The policy is rebuilt from its kind (when known) and the next
    /// [`REBUILD_WINDOW`] snapshots re-seed state before targets flow
    /// again. The push sequence survives conceptually (the hypervisor's
    /// idempotence guard keys on it), so it is monotonic across crashes —
    /// modeling the restart reading the last sequence from the relay.
    pub fn crash(&mut self) {
        let cycle = self.cycles;
        self.tracer.emit(|| (None, Payload::MmCrash { cycle }));
        if let Some(kind) = self.kind {
            if let Some(policy) = kind.build() {
                self.policy = policy;
            }
        }
        self.gaps_before_crashes += self.history.gaps();
        self.history = StatsHistory::new(self.history_limit);
        self.last_sent = None;
        self.warmup_remaining = REBUILD_WINDOW;
    }

    /// Snapshots retained so far.
    pub fn history(&self) -> &StatsHistory {
        &self.history
    }

    /// MM cycles run (one per fresh snapshot processed).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Target transmissions actually sent (≤ cycles thanks to suppression).
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Duplicate/stale snapshots discarded idempotently, run-wide (survives
    /// crashes).
    pub fn snapshots_discarded(&self) -> u64 {
        self.discarded
    }

    /// Sequence gaps detected, run-wide (survives crashes).
    pub fn seq_gaps(&self) -> u64 {
        self.gaps_before_crashes + self.history.gaps()
    }
}

impl std::fmt::Debug for MemoryManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryManager")
            .field("policy", &self.policy.name())
            .field("cycles", &self.cycles)
            .field("transmissions", &self.transmissions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::smart_alloc::SmartAlloc;
    use crate::policy::static_alloc::StaticAlloc;
    use sim_core::time::SimTime;
    use tmem::key::VmId;
    use tmem::stats::{MemStats, NodeInfo, VmStat};

    fn stats(seq: u64, n: usize, failed: u64) -> StatsMsg {
        StatsMsg {
            seq,
            stats: MemStats {
                at: SimTime::from_secs(seq),
                node: NodeInfo {
                    total_tmem: 900,
                    free_tmem: 900,
                    vm_count: n as u32,
                },
                vms: (0..n)
                    .map(|i| VmStat {
                        vm_id: VmId(i as u32 + 1),
                        puts_total: failed,
                        puts_succ: 0,
                        gets_total: 0,
                        gets_succ: 0,
                        flushes: 0,
                        tmem_used: 0,
                        mm_target: 0,
                        cumul_puts_failed: failed,
                    })
                    .collect(),
            },
        }
    }

    #[test]
    fn unchanged_targets_are_suppressed() {
        let mut mm = MemoryManager::new(Box::new(StaticAlloc), 16);
        assert!(
            mm.on_stats(&stats(1, 3, 0)).is_some(),
            "first cycle transmits"
        );
        assert!(
            mm.on_stats(&stats(2, 3, 0)).is_none(),
            "identical result suppressed"
        );
        assert!(mm.on_stats(&stats(3, 3, 0)).is_none());
        assert_eq!(mm.cycles(), 3);
        assert_eq!(mm.transmissions(), 1);
    }

    #[test]
    fn population_change_triggers_retransmission() {
        let mut mm = MemoryManager::new(Box::new(StaticAlloc), 16);
        assert!(mm.on_stats(&stats(1, 2, 0)).is_some());
        let (seq, t3) = mm.on_stats(&stats(2, 3, 0)).expect("new VM changes shares");
        assert_eq!(seq, 2, "second transmission");
        assert_eq!(t3.len(), 3);
        assert!(t3.iter().all(|t| t.mm_target == 300));
    }

    #[test]
    fn smart_alloc_keeps_transmitting_while_demand_changes() {
        let mm_policy = SmartAlloc::new(2.0);
        let mut mm = MemoryManager::new(Box::new(mm_policy), 16);
        // Swapping VMs: targets grow each cycle → transmission each cycle.
        // (The snapshot's mm_target field would normally reflect previous
        // targets; static zero here just means policy output repeats after
        // the first, exercising suppression.)
        assert!(mm.on_stats(&stats(1, 2, 5)).is_some());
        assert!(
            mm.on_stats(&stats(2, 2, 5)).is_none(),
            "same inputs, same output"
        );
    }

    #[test]
    fn history_is_retained_and_bounded() {
        let mut mm = MemoryManager::new(Box::new(StaticAlloc), 2);
        for seq in 1..=5 {
            mm.on_stats(&stats(seq, 1, 0));
        }
        assert_eq!(mm.history().len(), 2, "bounded by limit");
    }

    #[test]
    fn duplicates_and_stale_snapshots_are_discarded() {
        let mut mm = MemoryManager::new(Box::new(StaticAlloc), 16);
        assert!(mm.on_stats(&stats(2, 3, 0)).is_some());
        assert!(mm.on_stats(&stats(2, 3, 0)).is_none(), "duplicate");
        assert!(mm.on_stats(&stats(1, 3, 0)).is_none(), "stale reorder");
        assert_eq!(mm.cycles(), 1, "discards consume no cycle");
        assert_eq!(mm.history().len(), 1);
        // A gap (3, 4 lost) is fresh and counted.
        assert!(mm.on_stats(&stats(5, 3, 0)).is_none(), "same targets");
        assert_eq!(mm.history().gaps(), 1);
    }

    #[test]
    fn crash_loses_state_and_warms_up_before_transmitting() {
        let mut mm =
            MemoryManager::from_kind(PolicyKind::StaticAlloc, 16).expect("policy-backed MM");
        assert!(mm.on_stats(&stats(1, 3, 0)).is_some());
        assert!(mm.on_stats(&stats(2, 3, 0)).is_none(), "suppressed");

        mm.crash();
        assert!(mm.history().is_empty(), "history lost");
        // REBUILD_WINDOW snapshots re-seed state without transmission...
        assert!(mm.on_stats(&stats(3, 3, 0)).is_none());
        assert!(mm.on_stats(&stats(4, 3, 0)).is_none());
        // ...then targets flow again, with a push seq above the pre-crash
        // one so the hypervisor's idempotence guard accepts it.
        let (seq, t) = mm.on_stats(&stats(5, 3, 0)).expect("resumes after warmup");
        assert_eq!(seq, 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn from_kind_no_tmem_has_no_mm() {
        assert!(MemoryManager::from_kind(PolicyKind::NoTmem, 16).is_none());
    }
}
