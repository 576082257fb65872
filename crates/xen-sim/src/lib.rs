#![warn(missing_docs)]

//! Simulated Xen hypervisor.
//!
//! This crate models the hypervisor half of SmarTmem (paper §III-B): it owns
//! the node's tmem page-frame budget (via [`tmem::TmemBackend`]), dispatches
//! the tmem hypercalls issued by guests, **enforces the per-VM target
//! allocations** exactly as the paper's Algorithm 1 prescribes, maintains the
//! Table I statistics, and closes a sampling interval every (simulated)
//! second to ship a [`tmem::stats::MemStats`] snapshot up to the privileged
//! domain.
//!
//! What is deliberately *not* here: the policy (lives in `smartmem-core`, as
//! the user-space MM), and the guest-side swap machinery (lives in
//! `smartmem-guest`). The crate boundary mirrors the paper's architecture
//! diagram (Fig. 2).

pub mod host;
pub mod hypervisor;
pub mod sched;
pub mod virq;
pub mod vm;

pub use host::FarConfig;
pub use hypervisor::{GetOutcome, Hypervisor};
pub use vm::VmConfig;

pub use tmem::key::VmId;
