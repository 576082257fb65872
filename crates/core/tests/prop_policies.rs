//! Property tests on the policies' capacity invariants.

use proptest::prelude::*;
use sim_core::time::SimTime;
use smartmem_core::policy::Policy;
use smartmem_core::{Greedy, ReconfStatic, SmartAlloc, StaticAlloc};
use tmem::key::VmId;
use tmem::stats::{MemStats, NodeInfo, VmStat};

/// Build a snapshot from per-VM (failed_puts, tmem_used, mm_target).
fn snapshot(vms: &[(u64, u64, u64)], total: u64) -> MemStats {
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
                puts_total: failed + 3,
                puts_succ: 3,
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

fn vm_strategy(total: u64) -> impl Strategy<Value = (u64, u64, u64)> {
    (0..100u64, 0..total, 0..2 * total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Equation 1 invariant: smart-alloc never over-commits the node, no
    /// matter the demand pattern or P.
    #[test]
    fn smart_alloc_never_overcommits(
        total in 100u64..1_000_000,
        p in 0.01f64..50.0,
        vms in proptest::collection::vec((0..100u64, 0..1_000_000u64, 0..2_000_000u64), 1..8),
    ) {
        let mut policy = SmartAlloc::new(p);
        let out = policy.compute(&snapshot(&vms, total));
        let sum: u64 = out.iter().map(|t| t.mm_target).sum();
        prop_assert!(sum <= total, "sum {sum} > total {total} at P={p}");
        prop_assert_eq!(out.len(), vms.len());
    }

    /// Iterating smart-alloc under symmetric demand contracts the spread
    /// between targets: the additive grow step followed by the
    /// proportional Eq. 2 rescale shrinks disparities geometrically.
    ///
    /// Note what is *not* guaranteed (and this test documents it): exact
    /// convergence to equal shares. Integer flooring in the rescale admits
    /// fixed points that retain part of the initial disparity — e.g.
    /// targets [324, 324, 350] of a 1000-page node are stable under
    /// P=0.5%. The paper's fairness claim is therefore approximate, and
    /// honest: shares end up *near* equal, the gap bounded by where the
    /// contraction stalls, never growing.
    #[test]
    fn smart_alloc_contracts_target_spread(
        total in 1_000u64..100_000,
        p in 0.5f64..10.0,
        starts in proptest::collection::vec(0u64..100_000, 3),
    ) {
        let mut policy = SmartAlloc::new(p);
        let spread_of = |t: &[u64]| t.iter().max().unwrap() - t.iter().min().unwrap();
        let mut targets: Vec<u64> = starts;
        let mut prev_spread = u64::MAX;
        for round in 0..300 {
            let vms: Vec<(u64, u64, u64)> =
                targets.iter().map(|&t| (5u64, t.min(total), t)).collect();
            let out = policy.compute(&snapshot(&vms, total));
            targets = out.iter().map(|t| t.mm_target).collect();
            let spread = spread_of(&targets);
            if round > 0 {
                // Contraction modulo flooring noise.
                prop_assert!(
                    spread <= prev_spread + 3,
                    "spread grew: {prev_spread} -> {spread} at round {round}"
                );
            }
            prev_spread = spread;
        }
        // And the final shares are sane: everyone holds a nonzero share of
        // a fully-committed node.
        let sum: u64 = targets.iter().sum();
        prop_assert!(sum <= total);
        prop_assert!(targets.iter().all(|&t| t > 0));
    }

    /// static-alloc always divides equally and never over-commits.
    #[test]
    fn static_alloc_divides_equally(
        total in 1u64..1_000_000,
        n in 1usize..16,
    ) {
        let mut policy = StaticAlloc;
        let vms = vec![(0u64, 0u64, 0u64); n];
        let out = policy.compute(&snapshot(&vms, total));
        let sum: u64 = out.iter().map(|t| t.mm_target).sum();
        prop_assert!(sum <= total);
        prop_assert!(out.iter().all(|t| t.mm_target == total / n as u64));
    }

    /// reconf-static gives every VM the same share and bases the split on
    /// the number of VMs with failed puts.
    #[test]
    fn reconf_static_splits_over_active_count(
        total in 1u64..1_000_000,
        activity in proptest::collection::vec(0u64..5, 1..10),
    ) {
        let mut policy = ReconfStatic;
        let vms: Vec<(u64, u64, u64)> = activity.iter().map(|&f| (f, 0, 0)).collect();
        let out = policy.compute(&snapshot(&vms, total));
        let active = activity.iter().filter(|&&f| f > 0).count() as u64;
        let expect = total.checked_div(active).unwrap_or(0);
        prop_assert!(out.iter().all(|t| t.mm_target == expect));
    }

    /// greedy always hands out the whole node.
    #[test]
    fn greedy_hands_out_everything(
        total in 1u64..1_000_000,
        vms in proptest::collection::vec((0u64..10, 0u64..100, 0u64..100), 1..8),
    ) {
        let mut policy = Greedy;
        let out = policy.compute(&snapshot(&vms, total));
        prop_assert!(out.iter().all(|t| t.mm_target == total));
    }

    /// Growth monotonicity: under identical prior targets, a VM that
    /// swapped gets at least as much as one that did not.
    #[test]
    fn smart_alloc_rewards_demand(
        total in 1_000u64..100_000,
        p in 0.1f64..20.0,
        prior in 0u64..50_000,
        used in 0u64..50_000,
    ) {
        let mut policy = SmartAlloc::new(p);
        let out = policy.compute(&snapshot(
            &[(10, used.min(prior), prior), (0, used.min(prior), prior)],
            total,
        ));
        prop_assert!(
            out[0].mm_target >= out[1].mm_target,
            "swapping VM got {} < idle VM {}",
            out[0].mm_target,
            out[1].mm_target
        );
    }
}

/// Non-proptest regression: `vm_strategy` helper stays in range (keeps the
/// helper exercised even though some tests inline their strategies).
#[test]
fn vm_strategy_smoke() {
    let _ = vm_strategy(1000);
}
