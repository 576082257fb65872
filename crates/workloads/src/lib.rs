#![warn(missing_docs)]

//! Workloads for the SmarTmem evaluation (paper §IV).
//!
//! Three workloads drive the scenarios of Table II:
//!
//! * [`usemem::Usemem`] — the paper's synthetic micro-benchmark,
//!   reimplemented exactly as described: allocate 128 MB, traverse it
//!   linearly with writes and reads, then reallocate 128 MB more, up to
//!   1 GB, then keep traversing until stopped.
//! * [`inmem::InMemoryAnalytics`] — stand-in for CloudSuite's
//!   in-memory-analytics (Spark ALS collaborative filtering over
//!   MovieLens): the memory behaviour of a stochastic-gradient
//!   matrix-factorization recommender over a synthetic MovieLens-shaped
//!   rating set, on paged arrays ([`guest_os::PagedSpan`]) so every rating
//!   scan and factor update drives the simulated paging layer.
//! * [`graph::GraphAnalytics`] — stand-in for CloudSuite's graph-analytics
//!   (GraphX PageRank over `soc-twitter-follows`): PageRank's memory
//!   behaviour over a synthetic power-law graph in CSR form.
//!
//! The workloads are data-oblivious (fixed epochs and iterations, no
//! convergence tests), so each one reproduces the application's
//! page-reference stream and compute charges, not its arithmetic: no
//! factor, rank or usemem word is ever computed or stored. The paper's
//! metrics — running time and tmem occupancy — depend only on that stream.
//!
//! Workloads are resumable state machines: the scenario event loop calls
//! [`traits::Workload::step`] with a time budget; the workload issues
//! memory references until the budget is exhausted, then yields. Milestones
//! (run completions, usemem allocation attempts) are drained by the runner
//! and double as cross-VM triggers (e.g. "VM3 starts when VM1 and VM2
//! attempt to allocate 640 MB").

pub mod appmodel;
pub mod datasets;
pub mod fileserver;
pub mod graph;
pub mod inmem;
pub mod traits;
pub mod usemem;

pub use fileserver::{FileServer, FileServerConfig};
pub use graph::{GraphAnalytics, GraphAnalyticsConfig};
pub use inmem::{InMemoryAnalytics, InMemoryAnalyticsConfig};
pub use traits::{Milestone, StepOutcome, Workload};
pub use usemem::{Usemem, UsememConfig};
