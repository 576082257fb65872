//! A demand-predictive policy — the paper's future work, §VII: "This paper
//! provides a framework and baseline for future development of more
//! sophisticated tmem memory policies."
//!
//! Where Algorithm 4 reacts with fixed ±P% steps, `predictive` *estimates*
//! each VM's tmem need directly and jumps to it:
//!
//! ```text
//! need_i = tmem_used_i + α · ewma(failed_puts_i)
//! target_i = need_i, proportionally rescaled into the node (Eq. 2)
//! ```
//!
//! `tmem_used` is what the VM demonstrably holds; the smoothed failed-put
//! rate is the unmet demand it keeps presenting; `α` converts an
//! interval's failures into pages of headroom. The exponential window
//! forgets bursts geometrically, which is what distinguishes a phase
//! change from noise. Every target stays at or above a floor share of the
//! node.

use super::Policy;
use std::collections::HashMap;
use tmem::key::VmId;
use tmem::stats::{MemStats, MmTarget};

/// `α`: pages of headroom granted per smoothed failed put.
const HEADROOM_PER_FAILURE: f64 = 4.0;

/// EWMA decay per interval (0 = no memory, 1 = never forgets).
const DECAY: f64 = 0.6;

/// Minimum target as a fraction of the node (lets idle VMs re-enter
/// without the reconf-static activation stall).
const FLOOR_FRAC: f64 = 0.02;

/// The predictive policy.
#[derive(Debug, Clone, Default)]
pub struct Predictive {
    ewma: HashMap<VmId, f64>,
}

impl Policy for Predictive {
    fn name(&self) -> String {
        "predictive".into()
    }

    fn initial_target(&self, total_tmem: u64) -> u64 {
        ((total_tmem as f64) * FLOOR_FRAC) as u64
    }

    fn compute(&mut self, stats: &MemStats) -> Vec<MmTarget> {
        let total = stats.node.total_tmem;
        let floor = (total as f64 * FLOOR_FRAC).max(1.0);
        let mut needs = Vec::with_capacity(stats.vms.len());
        for vm in &stats.vms {
            let e = self.ewma.entry(vm.vm_id).or_insert(0.0);
            *e = *e * DECAY + vm.failed_puts() as f64;
            let need = vm.tmem_used as f64 + HEADROOM_PER_FAILURE * *e;
            needs.push(need.max(floor));
        }
        // Proportional rescale of the above-floor portions into the node
        // (Eq. 2 on headroom only, so the floor survives over-commit).
        let n = needs.len() as f64;
        let sum_above: f64 = needs.iter().map(|&x| x - floor).sum();
        let budget_above = (total as f64 - n * floor).max(0.0);
        let scale = if sum_above > budget_above && sum_above > 0.0 {
            budget_above / sum_above
        } else {
            1.0
        };
        stats
            .vms
            .iter()
            .zip(needs)
            .map(|(vm, need)| MmTarget {
                vm_id: vm.vm_id,
                mm_target: (floor + (need - floor) * scale).floor() as u64,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;
    use tmem::stats::{NodeInfo, VmStat};

    fn snapshot(vms: &[(u64, u64)], total: u64) -> MemStats {
        // (failed_puts, tmem_used)
        MemStats {
            at: SimTime::from_secs(1),
            node: NodeInfo {
                total_tmem: total,
                free_tmem: 0,
                vm_count: vms.len() as u32,
            },
            vms: vms
                .iter()
                .enumerate()
                .map(|(i, &(failed, used))| VmStat {
                    vm_id: VmId(i as u32 + 1),
                    puts_total: failed + 1,
                    puts_succ: 1,
                    gets_total: 0,
                    gets_succ: 0,
                    flushes: 0,
                    tmem_used: used,
                    mm_target: 0,
                    cumul_puts_failed: failed,
                })
                .collect(),
        }
    }

    #[test]
    fn demand_attracts_capacity_immediately() {
        let mut p = Predictive::default();
        // VM1 swaps hard, VM2 holds little and swaps nothing.
        let out = p.compute(&snapshot(&[(500, 400), (0, 50)], 1000));
        assert!(out[0].mm_target > 3 * out[1].mm_target, "got {out:?}");
        let sum: u64 = out.iter().map(|t| t.mm_target).sum();
        assert!(sum <= 1000);
    }

    #[test]
    fn bursts_are_forgotten_geometrically() {
        let mut p = Predictive::default();
        let first = p.compute(&snapshot(&[(500, 100), (0, 100)], 1000))[0].mm_target;
        // Quiet intervals: VM1's advantage decays toward parity.
        let mut last = first;
        for _ in 0..10 {
            last = p.compute(&snapshot(&[(0, 100), (0, 100)], 1000))[0].mm_target;
        }
        assert!(last < first, "target must decay: {first} -> {last}");
        let parity = p.compute(&snapshot(&[(0, 100), (0, 100)], 1000));
        let diff = parity[0].mm_target.abs_diff(parity[1].mm_target);
        assert!(diff < 50, "near parity after the burst fades: {parity:?}");
    }

    #[test]
    fn floor_keeps_idle_vms_admissible() {
        let mut p = Predictive::default();
        let out = p.compute(&snapshot(&[(1000, 900), (0, 0)], 1000));
        assert!(out[1].mm_target >= 10, "2% floor of 1000 pages: {out:?}");
    }

    #[test]
    fn never_overcommits_under_any_demand() {
        let mut p = Predictive::default();
        for failed in [0u64, 10, 10_000] {
            for used in [0u64, 500, 5_000] {
                let out = p.compute(&snapshot(&[(failed, used), (failed, used)], 1000));
                let sum: u64 = out.iter().map(|t| t.mm_target).sum();
                assert!(sum <= 1000, "failed={failed} used={used}: {out:?}");
            }
        }
    }

    #[test]
    fn initial_target_is_the_floor() {
        let p = Predictive::default();
        assert_eq!(p.initial_target(1000), 20);
    }
}
