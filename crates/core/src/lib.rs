#![warn(missing_docs)]

//! SmarTmem proper: the user-space Memory Manager and its policies.
//!
//! This crate is the paper's primary contribution (§III-D/E): a user-space
//! process in Xen's privileged domain that receives per-second memory
//! statistics from the hypervisor (via the TKM) and computes per-VM tmem
//! capacity targets according to a high-level policy:
//!
//! * [`policy::greedy::Greedy`] — the Xen default: no management, every VM
//!   may take the whole pool (the paper's baseline),
//! * [`policy::static_alloc::StaticAlloc`] — Algorithm 2: equal shares for
//!   all registered VMs,
//! * [`policy::reconf_static::ReconfStatic`] — Algorithm 3: equal shares
//!   for VMs that have actually used tmem,
//! * [`policy::smart_alloc::SmartAlloc`] — Algorithm 4: demand-driven
//!   targets, growing by `P`% of node tmem on failed puts, shrinking on
//!   sustained under-use, rescaled proportionally when over-committed
//!   (Equations 1–2),
//! * `no-tmem` — not a policy but a guest configuration (frontswap
//!   disabled); represented in [`PolicyKind`] so harnesses can sweep it.
//!
//! The [`mm::MemoryManager`] wraps a policy with the paper's
//! `send_to_hypervisor` behaviour: target vectors identical to the last
//! transmission are suppressed to avoid needless communication.

pub mod fleet;
pub mod history;
pub mod mm;
pub mod policy;

pub use fleet::{FleetConfig, FleetManager, HostLoad, MigrationPlan, VmPlacement};
pub use history::{SeqObservation, StatsHistory};
pub use mm::{MemoryManager, REBUILD_WINDOW};
pub use policy::greedy::Greedy;
pub use policy::predictive::Predictive;
pub use policy::reconf_static::ReconfStatic;
pub use policy::smart_alloc::SmartAlloc;
pub use policy::static_alloc::StaticAlloc;
pub use policy::{Policy, PolicyKind};
