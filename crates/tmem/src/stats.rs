//! Table I: the memory statistics exchanged between hypervisor and Memory
//! Manager.
//!
//! The paper's Table I defines the full vocabulary. The hypervisor-resident
//! state is [`VmDataHyp`] (`vm_data_hyp[id].*`) and [`NodeInfo`]
//! (`node_info.*`); the per-interval snapshot shipped to the MM over the
//! TKM/netlink path is [`MemStats`] (`memstats.*`); and the MM's reply is a
//! vector of [`MmTarget`] (`mm_out[i].*`). The sampling interval is one
//! second.

use crate::key::VmId;
use serde::{Deserialize, Serialize};
use sim_core::metrics::Counter;
use sim_core::time::SimTime;

/// Per-VM state kept by the hypervisor (`vm_data_hyp[id]` in Table I),
/// plus the cumulative failed-put count Algorithm 3 reads. Table I's
/// `tmem_used` is not stored here: the tmem backend owns it
/// ([`TmemBackend::used_by`](crate::backend::TmemBackend::used_by)), and
/// [`VmDataHyp::close_interval`] takes it at sample time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VmDataHyp {
    /// Identifier of the VM within Xen.
    pub vm_id: VmId,
    /// Target number of pages allocated to the VM, as set by the MM.
    pub mm_target: u64,
    /// Puts issued in the current sampling interval (success or not).
    pub puts_total: Counter,
    /// Puts that succeeded in the current sampling interval.
    pub puts_succ: Counter,
    /// Gets issued in the current sampling interval.
    pub gets_total: Counter,
    /// Gets that hit in the current sampling interval.
    pub gets_succ: Counter,
    /// Flush operations issued in the current sampling interval.
    pub flushes: Counter,
    /// Cumulative failed puts since VM registration. Algorithm 3
    /// (`reconf-static`) keys on this to decide whether a VM has ever been
    /// active on tmem.
    pub cumul_puts_failed: u64,
}

impl VmDataHyp {
    /// Fresh state for a VM that just registered with tmem. The initial
    /// target is supplied by the active policy (0 for reconf-static and
    /// smart-alloc, a fair share for static-alloc, the whole node for
    /// greedy).
    pub fn new(vm_id: VmId, initial_target: u64) -> Self {
        VmDataHyp {
            vm_id,
            mm_target: initial_target,
            puts_total: Counter::default(),
            puts_succ: Counter::default(),
            gets_total: Counter::default(),
            gets_succ: Counter::default(),
            flushes: Counter::default(),
            cumul_puts_failed: 0,
        }
    }

    /// Close the sampling interval: snapshot the interval counters, with
    /// `tmem_used` (the pages the VM holds now), into a [`VmStat`] and
    /// reset them.
    pub fn close_interval(&mut self, tmem_used: u64) -> VmStat {
        let puts_total = self.puts_total.take();
        let puts_succ = self.puts_succ.take();
        let gets_total = self.gets_total.take();
        let gets_succ = self.gets_succ.take();
        let flushes = self.flushes.take();
        self.cumul_puts_failed += puts_total - puts_succ;
        VmStat {
            vm_id: self.vm_id,
            puts_total,
            puts_succ,
            gets_total,
            gets_succ,
            flushes,
            tmem_used,
            mm_target: self.mm_target,
            cumul_puts_failed: self.cumul_puts_failed,
        }
    }
}

/// Node-level state (`node_info` in Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeInfo {
    /// Total pages available for tmem on the node.
    pub total_tmem: u64,
    /// Number of free pages available for tmem.
    pub free_tmem: u64,
    /// Number of VMs registered.
    pub vm_count: u32,
}

/// One VM's slice of a [`MemStats`] snapshot (`memstats.vm[i]` in Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmStat {
    /// Identifier of the VM within the MM.
    pub vm_id: VmId,
    /// Puts issued by the VM in the sampling interval.
    pub puts_total: u64,
    /// Puts that succeeded in the sampling interval.
    pub puts_succ: u64,
    /// Gets issued in the sampling interval.
    pub gets_total: u64,
    /// Gets that hit in the sampling interval.
    pub gets_succ: u64,
    /// Flushes issued in the sampling interval.
    pub flushes: u64,
    /// Pages of tmem in use by the VM at snapshot time.
    pub tmem_used: u64,
    /// The VM's target at snapshot time (policies read back their own
    /// previous decision from here, per Algorithm 4 line 10).
    pub mm_target: u64,
    /// Cumulative failed puts since registration (Algorithm 3 line 5).
    pub cumul_puts_failed: u64,
}

impl VmStat {
    /// Failed puts in this interval (Algorithm 4 line 8).
    pub fn failed_puts(&self) -> u64 {
        self.puts_total - self.puts_succ
    }
}

/// The statistics snapshot the hypervisor ships to the MM every sampling
/// interval (`memstats` in Table I).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Snapshot instant.
    pub at: SimTime,
    /// Node-level information.
    pub node: NodeInfo,
    /// Per-VM slices; `node.vm_count == vms.len()`.
    pub vms: Vec<VmStat>,
}

impl MemStats {
    /// Amount of active VMs as seen by the MM (`memstats.vm_count`).
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }
}

/// A sequence-stamped statistics message, as it travels the VIRQ + netlink
/// relay from the hypervisor to the user-space MM.
///
/// The hypervisor stamps every snapshot with a monotonically increasing
/// sequence number at sampling time. The relay path may drop, delay or
/// duplicate messages (fault injection); the sequence number lets the MM
/// detect gaps, discard duplicates idempotently and ignore stale reordered
/// snapshots — see `StatsHistory::observe` in the core crate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsMsg {
    /// Monotonic sample sequence number (1-based; assigned by the
    /// hypervisor at `sample()` time).
    pub seq: u64,
    /// The snapshot payload.
    pub stats: MemStats,
}

/// The MM's reply to a statistics message: a sequence-stamped target vector.
///
/// The MM numbers its pushes so the hypervisor can apply them idempotently:
/// a duplicate or reordered push with `seq` at or below the last applied one
/// is ignored rather than overwriting newer targets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetMsg {
    /// Monotonic push sequence number (1-based; assigned by the MM).
    pub seq: u64,
    /// The per-VM targets to install.
    pub targets: Vec<MmTarget>,
}

/// One entry of the MM's reply (`mm_out[i]` in Table I): a VM and its new
/// target allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MmTarget {
    /// VM identifier that maps a VM to its target allocation.
    pub vm_id: VmId,
    /// Memory allocation target as calculated by the policy in the MM.
    pub mm_target: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_interval_resets_and_accumulates() {
        let mut d = VmDataHyp::new(VmId(3), 0);
        d.puts_total.add(10);
        d.puts_succ.add(7);
        d.gets_total.add(4);
        d.gets_succ.add(4);
        d.flushes.add(2);
        let s = d.close_interval(7);
        assert_eq!(s.puts_total, 10);
        assert_eq!(s.puts_succ, 7);
        assert_eq!(s.failed_puts(), 3);
        assert_eq!(s.cumul_puts_failed, 3);
        assert_eq!(s.tmem_used, 7);
        // Interval counters reset; cumulative counters persist.
        assert_eq!(d.puts_total.get(), 0);
        assert_eq!(d.cumul_puts_failed, 3);
        d.puts_total.add(1);
        let s2 = d.close_interval(7);
        assert_eq!(s2.cumul_puts_failed, 4);
    }

    #[test]
    fn memstats_vm_count_matches() {
        let stats = MemStats {
            at: SimTime::from_secs(1),
            node: NodeInfo {
                total_tmem: 100,
                free_tmem: 50,
                vm_count: 2,
            },
            vms: vec![
                VmStat {
                    vm_id: VmId(1),
                    puts_total: 0,
                    puts_succ: 0,
                    gets_total: 0,
                    gets_succ: 0,
                    flushes: 0,
                    tmem_used: 25,
                    mm_target: 50,
                    cumul_puts_failed: 0,
                },
                VmStat {
                    vm_id: VmId(2),
                    puts_total: 0,
                    puts_succ: 0,
                    gets_total: 0,
                    gets_succ: 0,
                    flushes: 0,
                    tmem_used: 25,
                    mm_target: 50,
                    cumul_puts_failed: 0,
                },
            ],
        };
        assert_eq!(stats.vm_count(), 2);
        assert_eq!(stats.node.vm_count as usize, stats.vm_count());
    }
}
