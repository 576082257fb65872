//! The policy trait and the policy registry.

pub mod greedy;
pub mod predictive;
pub mod reconf_static;
pub mod smart_alloc;
pub mod static_alloc;

use serde::{Deserialize, Serialize};
use std::fmt;
use tmem::stats::{MemStats, MmTarget};

/// A high-level tmem management policy, as run inside the MM.
///
/// Once per sampling interval the MM feeds the policy the latest
/// [`MemStats`] snapshot; the policy returns the full target vector (one
/// entry per VM in the snapshot). Transmission suppression for unchanged
/// vectors is the MM's job, not the policy's. A policy is `Send` because
/// its MM runs on the worker thread of its host.
pub trait Policy: Send {
    /// Short name for reports ("greedy", "smart-alloc(0.75%)", ...).
    fn name(&self) -> String;

    /// Target installed for a VM at registration time, before the first MM
    /// cycle runs. The paper's managed policies start VMs at zero (a VM
    /// must show demand first); greedy starts them at the full node.
    fn initial_target(&self, total_tmem: u64) -> u64;

    /// Compute the target vector for this interval.
    fn compute(&mut self, stats: &MemStats) -> Vec<MmTarget>;

    /// When the most recent [`Policy::compute`] had to rescale its targets
    /// to fit the node (Equation 2), the `(sum_targets, local_tmem)` inputs
    /// of that rescale; `None` otherwise. Observability only — the MM
    /// forwards this into the flight recorder.
    fn last_rescale(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Value-level policy selector used by scenario runners, benches and the
/// CLI. `NoTmem` is the guest-side baseline (frontswap disabled — no policy
/// runs at all).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// tmem disabled in the guests; all swap goes to disk.
    NoTmem,
    /// Stock Xen behaviour: first-come, first-served competition.
    Greedy,
    /// Algorithm 2: equal static shares.
    StaticAlloc,
    /// Algorithm 3: equal shares over VMs that have used tmem.
    ReconfStatic,
    /// Algorithm 4 with increment percentage `p` (e.g. 0.75 for P=0.75%).
    SmartAlloc {
        /// The increment/decrement percentage P of Algorithm 4.
        p: f64,
    },
    /// Demand-predictive extension policy (not in the paper; its §VII
    /// future work) — see [`predictive::Predictive`].
    Predictive,
}

impl PolicyKind {
    /// Instantiate the policy. `None` for [`PolicyKind::NoTmem`], which has
    /// no MM process at all.
    pub fn build(&self) -> Option<Box<dyn Policy>> {
        match *self {
            PolicyKind::NoTmem => None,
            PolicyKind::Greedy => Some(Box::new(greedy::Greedy)),
            PolicyKind::StaticAlloc => Some(Box::new(static_alloc::StaticAlloc)),
            PolicyKind::ReconfStatic => Some(Box::new(reconf_static::ReconfStatic)),
            PolicyKind::SmartAlloc { p } => Some(Box::new(smart_alloc::SmartAlloc::new(p))),
            PolicyKind::Predictive => Some(Box::new(predictive::Predictive::default())),
        }
    }

    /// Whether guests run with frontswap enabled under this policy.
    pub fn tmem_enabled(&self) -> bool {
        !matches!(self, PolicyKind::NoTmem)
    }

    /// The policy set the paper's figures sweep for a given scenario's
    /// smart-alloc percentages.
    pub fn paper_set(smart_ps: &[f64]) -> Vec<PolicyKind> {
        let mut v = vec![
            PolicyKind::NoTmem,
            PolicyKind::Greedy,
            PolicyKind::StaticAlloc,
            PolicyKind::ReconfStatic,
        ];
        v.extend(smart_ps.iter().map(|&p| PolicyKind::SmartAlloc { p }));
        v
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::NoTmem => write!(f, "no-tmem"),
            PolicyKind::Greedy => write!(f, "greedy"),
            PolicyKind::StaticAlloc => write!(f, "static-alloc"),
            PolicyKind::ReconfStatic => write!(f, "reconf-static"),
            PolicyKind::SmartAlloc { p } => write!(f, "smart-alloc({p}%)"),
            PolicyKind::Predictive => write!(f, "predictive"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_match_the_paper() {
        assert_eq!(PolicyKind::Greedy.to_string(), "greedy");
        assert_eq!(PolicyKind::NoTmem.to_string(), "no-tmem");
        assert_eq!(
            PolicyKind::SmartAlloc { p: 0.75 }.to_string(),
            "smart-alloc(0.75%)"
        );
    }

    #[test]
    fn build_returns_policy_except_no_tmem() {
        assert!(PolicyKind::NoTmem.build().is_none());
        for k in [
            PolicyKind::Greedy,
            PolicyKind::StaticAlloc,
            PolicyKind::ReconfStatic,
            PolicyKind::SmartAlloc { p: 2.0 },
            PolicyKind::Predictive,
        ] {
            assert!(k.build().is_some(), "{k} must build");
            assert!(k.tmem_enabled());
        }
        assert!(!PolicyKind::NoTmem.tmem_enabled());
    }

    #[test]
    fn paper_set_contains_baselines_plus_sweeps() {
        let set = PolicyKind::paper_set(&[0.25, 0.75]);
        assert_eq!(set.len(), 6);
        assert!(set.contains(&PolicyKind::SmartAlloc { p: 0.25 }));
        assert!(set.contains(&PolicyKind::NoTmem));
    }
}
