//! Algorithm 4: the Smart Allocation policy (`smart-alloc`).
//!
//! Per VM and interval:
//!
//! * **grow** — if the VM had failed puts in the last interval (it is
//!   swapping), raise its target by `P`% of the node's total tmem
//!   (lines 9–12);
//! * **shrink** — otherwise, if the VM uses less than its target minus a
//!   threshold, decay the target to `(100 − P)`% of itself (lines 16–21;
//!   the threshold provides hysteresis: "this avoids premature target
//!   decrements which might cause the targets to oscillate");
//! * **rescale** — if the grown targets over-commit the node
//!   (`Σ targets > local_tmem`), scale every target proportionally
//!   (lines 27–33, Equation 2), restoring Equation 1's invariant that
//!   assigned targets never exceed the node's tmem.
//!
//! The paper fixes the sampling interval at one second and leaves the
//! threshold unspecified; here it is one increment's worth of pages (`P`%
//! of node tmem), the smallest value that prevents grow/shrink
//! oscillation. `P` is the policy's only parameter.

use super::Policy;
use tmem::stats::{MemStats, MmTarget};

/// The demand-driven smart allocation policy.
#[derive(Debug, Clone)]
pub struct SmartAlloc {
    /// The increment/decrement percentage `P` (0 < P ≤ 100). The paper
    /// sweeps 0.25–6 %.
    percent: f64,
    /// `(sum_targets, local_tmem)` of the last compute's Eq. 2 rescale,
    /// `None` when the last compute fit without rescaling.
    last_rescale: Option<(u64, u64)>,
}

impl SmartAlloc {
    /// A smart-alloc instance with percentage `p`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 100.0, "P must be in (0, 100], got {p}");
        SmartAlloc {
            percent: p,
            last_rescale: None,
        }
    }

    /// `incr ← (P × local_tmem) / 100` (Algorithm 4 line 11), which is
    /// also the hysteresis threshold of lines 16–21.
    fn increment(&self, total_tmem: u64) -> u64 {
        ((self.percent * total_tmem as f64) / 100.0).round() as u64
    }
}

impl Policy for SmartAlloc {
    fn name(&self) -> String {
        format!("smart-alloc({}%)", self.percent)
    }

    fn initial_target(&self, _total_tmem: u64) -> u64 {
        // A VM earns capacity by demonstrating demand (failed puts), so it
        // starts at zero like reconf-static.
        0
    }

    fn compute(&mut self, stats: &MemStats) -> Vec<MmTarget> {
        let local_tmem = stats.node.total_tmem;
        let incr = self.increment(local_tmem);

        let mut out = Vec::with_capacity(stats.vms.len());
        let mut sum_targets: u64 = 0;
        for vm in &stats.vms {
            // Lines 6-8.
            let failed_puts = vm.failed_puts();
            let curr_tgt = vm.mm_target;
            let mm_target = if failed_puts > 0 {
                // Lines 10-12: grow by P% of the node's tmem.
                curr_tgt.saturating_add(incr)
            } else {
                // Lines 14-21: shrink only past the hysteresis threshold,
                // one increment.
                let curr_use = vm.tmem_used;
                let difference = curr_tgt.saturating_sub(curr_use);
                if difference > incr {
                    (((100.0 - self.percent) * curr_tgt as f64) / 100.0).round() as u64
                } else {
                    curr_tgt
                }
            };
            sum_targets += mm_target;
            out.push(MmTarget {
                vm_id: vm.vm_id,
                mm_target,
            });
        }

        // Lines 27-33 / Equation 2: proportional rescale on over-commit.
        if sum_targets > local_tmem {
            let factor = local_tmem as f64 / sum_targets as f64;
            for t in &mut out {
                t.mm_target = (factor * t.mm_target as f64).floor() as u64;
            }
            self.last_rescale = Some((sum_targets, local_tmem));
        } else {
            self.last_rescale = None;
        }
        out
    }

    fn last_rescale(&self) -> Option<(u64, u64)> {
        self.last_rescale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;
    use tmem::key::VmId;
    use tmem::stats::{NodeInfo, VmStat};

    /// Build a snapshot from (failed_puts, tmem_used, mm_target) triples.
    fn stats(vms: &[(u64, u64, u64)], total: u64) -> MemStats {
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
                .map(|(i, &(failed, used, target))| VmStat {
                    vm_id: VmId(i as u32 + 1),
                    puts_total: failed + 10,
                    puts_succ: 10,
                    gets_total: 0,
                    gets_succ: 0,
                    flushes: 0,
                    tmem_used: used,
                    mm_target: target,
                    cumul_puts_failed: failed,
                })
                .collect(),
        }
    }

    fn smart(p: f64) -> SmartAlloc {
        SmartAlloc::new(p)
    }

    #[test]
    fn failed_puts_grow_the_target_by_p_percent_of_node() {
        let mut p = smart(2.0);
        // VM1 swapped; VM2 idle at target == use (no shrink).
        let out = p.compute(&stats(&[(5, 100, 100), (0, 50, 50)], 10_000));
        assert_eq!(out[0].mm_target, 100 + 200, "2% of 10000 = 200");
        assert_eq!(out[1].mm_target, 50, "no change without demand or slack");
    }

    #[test]
    fn underuse_beyond_threshold_decays_the_target() {
        // P = 10% of 10000: increment and threshold are 1000 pages.
        let mut p = smart(10.0);
        // Target 3000, using 100: slack 2900 > 1000 → decay to 90%.
        let out = p.compute(&stats(&[(0, 100, 3000)], 10_000));
        assert_eq!(out[0].mm_target, 2700);
        // One page past the threshold decays too.
        let out = p.compute(&stats(&[(0, 999, 2000)], 10_000));
        assert_eq!(out[0].mm_target, 1800, "slack 1001 > threshold 1000");
    }

    #[test]
    fn underuse_within_threshold_is_left_alone() {
        let mut p = smart(10.0);
        let out = p.compute(&stats(&[(0, 600, 1000)], 10_000));
        assert_eq!(out[0].mm_target, 1000, "slack 400 <= threshold 1000");
    }

    #[test]
    fn overcommit_rescales_proportionally_eq2() {
        let mut p = smart(50.0); // huge increments force over-commit
                                 // Both VMs swapped: each target grows by 5000 → sum 11000 > 10000.
        let out = p.compute(&stats(&[(1, 0, 1000), (1, 0, 5000)], 10_000));
        let sum: u64 = out.iter().map(|t| t.mm_target).sum();
        assert!(sum <= 10_000, "Equation 1 invariant, got {sum}");
        // Proportionality: VM2's grown target (10000) is 6000/11000 vs
        // 5000/11000 — ratio preserved within rounding.
        let r = out[1].mm_target as f64 / out[0].mm_target as f64;
        assert!((r - 10.0 / 6.0).abs() < 0.01, "ratio {r}");
    }

    #[test]
    fn all_vms_swapping_still_respects_node_capacity() {
        let mut p = smart(6.0);
        let mut targets = [(1u64, 0u64, 0u64); 3];
        // Iterate many intervals with everyone swapping; targets must never
        // sum above the node.
        for _ in 0..100 {
            let out = p.compute(&stats(&targets, 1_000));
            let sum: u64 = out.iter().map(|t| t.mm_target).sum();
            assert!(sum <= 1_000);
            for (i, t) in out.iter().enumerate() {
                targets[i].2 = t.mm_target;
            }
        }
        // Symmetric demand converges to near-equal shares.
        let spread =
            targets.iter().map(|t| t.2).max().unwrap() - targets.iter().map(|t| t.2).min().unwrap();
        assert!(spread <= 20, "near-fair split, spread={spread}");
    }

    #[test]
    fn grow_and_shrink_do_not_oscillate_with_default_threshold() {
        let mut p = smart(2.0);
        // Interval 1: VM swaps, target grows.
        let grown = p.compute(&stats(&[(3, 200, 200)], 10_000))[0].mm_target;
        assert_eq!(grown, 400);
        // Interval 2: VM stopped swapping, uses all but one increment of
        // its target. Slack (200) == threshold (200) → no decay.
        let held = p.compute(&stats(&[(0, 200, grown)], 10_000))[0].mm_target;
        assert_eq!(held, grown, "hysteresis holds the target");
    }

    #[test]
    fn fractional_percent_works() {
        let mut p = smart(0.25);
        let out = p.compute(&stats(&[(1, 0, 0)], 262_144)); // 1 GiB of pages
        assert_eq!(out[0].mm_target, 655, "0.25% of 262144 rounds to 655");
    }

    #[test]
    #[should_panic(expected = "P must be in (0, 100]")]
    fn zero_percent_is_rejected() {
        SmartAlloc::new(0.0);
    }

    #[test]
    fn name_embeds_percent() {
        assert_eq!(smart(0.75).name(), "smart-alloc(0.75%)");
    }

    #[test]
    fn rescale_inputs_are_exposed_for_tracing() {
        let mut p = smart(50.0);
        assert_eq!(p.last_rescale(), None, "before any compute");
        // Over-commit: both VMs grow by 5000 (P=50% of 10000), so the
        // grown sum is 6000 + 10000 = 16000 > node 10000 → rescale recorded.
        p.compute(&stats(&[(1, 0, 1000), (1, 0, 5000)], 10_000));
        assert_eq!(p.last_rescale(), Some((16_000, 10_000)));
        // A fitting compute clears it again.
        p.compute(&stats(&[(0, 50, 50)], 10_000));
        assert_eq!(p.last_rescale(), None);
    }
}
