//! Chaos profiles and the degradation bound.
//!
//! The SmarTmem control loop (VIRQ sampling → dom0 TKM relay → user-space
//! MM → `SetTargets` hypercall) is asynchronous to the datapath, so the
//! system's correct response to a degraded control plane is *bounded
//! slowdown*, never corruption: targets go stale and the hypervisor falls
//! back to greedy-above-a-fair-share-floor, but tmem accounting invariants
//! must hold at every interval. The chaos grid is a sweep manifest,
//! `scenarios/chaos-grid.toml`: (scenario × policy) cells fault-free and
//! under each shipped profile, judged by [`crate::batch::verdict`] against
//! [`DEGRADATION_BOUND`] and the zero-invariant-violation and
//! zero-undetected-corruption rules.

use sim_core::faults::FaultProfile;

/// Maximum per-VM running-time ratio (faulty / fault-free) the shipped
/// profiles are allowed to cause in any cell of a sweep.
///
/// The chaos grid's measured worst ratios are in `results/chaos/`: lost
/// samples and a crashed MM leave targets stale, and the TTL fallback
/// keeps every VM at least its fair-share floor of tmem, so the datapath
/// keeps absorbing evictions. The bound is set at 3.0 to leave headroom
/// for seed and scale variation while still catching degradation cliffs
/// (an unbounded-starvation bug shows up as 10×+, not 3×).
pub const DEGRADATION_BOUND: f64 = 3.0;

/// A named fault profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosProfile {
    /// Profile name ("sample-loss", ...): the sweep's chaos label.
    pub name: String,
    /// The injected fault mix.
    pub profile: FaultProfile,
}

/// The shipped chaos profiles, in the chaos grid's order: `sample-loss`,
/// `flaky-hypercalls`, `mm-crash`, `bitrot`, `backend-brownout`. Each is
/// defined once, in `scenarios/chaos/<name>.toml` (embedded at compile
/// time), whose header says what the profile exercises.
pub fn shipped_profiles() -> Vec<ChaosProfile> {
    [
        include_str!("../../../scenarios/chaos/sample-loss.toml"),
        include_str!("../../../scenarios/chaos/flaky-hypercalls.toml"),
        include_str!("../../../scenarios/chaos/mm-crash.toml"),
        include_str!("../../../scenarios/chaos/bitrot.toml"),
        include_str!("../../../scenarios/chaos/backend-brownout.toml"),
    ]
    .into_iter()
    .map(|src| {
        crate::dsl::parse_chaos_src(src).unwrap_or_else(|e| panic!("shipped chaos profile: {e}"))
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_profiles_keep_their_names_and_order() {
        let profiles = shipped_profiles();
        let names: Vec<&str> = profiles.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "sample-loss",
                "flaky-hypercalls",
                "mm-crash",
                "bitrot",
                "backend-brownout"
            ]
        );
    }
}
