#![warn(missing_docs)]

//! Guest operating system model.
//!
//! Each VM in the simulation runs this model of the Linux memory-management
//! datapath that tmem plugs into (paper §II-B, Fig. 1):
//!
//! * a paged anonymous address space with a fixed budget of RAM frames,
//! * a clock (second-chance) page-frame reclaim algorithm — the PFRA,
//! * a swap path where evictions first try **frontswap** (a tmem put
//!   hypercall) and fall back to the virtual disk when the put fails,
//! * a fault path where swapped pages are read back from tmem (get
//!   hypercall) or from disk (with cluster read-ahead, as Linux does),
//! * the **Tmem Kernel Module (TKM)**, the paper's §III-C glue: in guests it
//!   owns the tmem pool and issues the hypercalls; in the privileged domain
//!   it relays statistics snapshots to the user-space Memory Manager and
//!   target allocations back to the hypervisor,
//! * a **cleancache** front-end over ephemeral pools (the second tmem mode,
//!   implemented as the paper describes it even though the evaluation uses
//!   frontswap only),
//! * [`paged::PagedSpan`] — arrays whose element accesses are routed
//!   through the simulated paging layer. A span holds no element values:
//!   workloads generate the application's page-reference stream, not its
//!   arithmetic.
//!
//! Every operation charges simulated time to a [`budget::StepBudget`] using
//! the experiment's [`sim_core::CostModel`].

pub mod addr;
pub mod budget;
pub mod cleancache;
pub mod disk;
pub mod kernel;
pub mod machine;
pub mod paged;
pub mod tkm;

pub use addr::VirtPage;
pub use budget::StepBudget;
pub use disk::SharedDisk;
pub use kernel::{GuestConfig, GuestKernel, KernelStats};
pub use machine::Machine;
pub use paged::PagedSpan;
pub use tkm::{Dom0Tkm, GuestTkm};
