#![warn(missing_docs)]

//! Deterministic discrete-event simulation core for the SmarTmem reproduction.
//!
//! This crate is the substrate under every other crate in the workspace. It
//! provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution simulated clock,
//! * [`EventQueue`] — a stable (FIFO-on-tie) discrete-event queue,
//! * [`rng`] — seedable, dependency-light deterministic PRNGs,
//! * [`CostModel`] — the latency model that converts memory-system events
//!   (RAM touches, tmem hypercalls, disk accesses) into simulated time,
//! * [`metrics`] — counters, time-series recorders and summary statistics
//!   used to regenerate the paper's figures,
//! * [`faults`] — deterministic, seed-driven fault injection: one
//!   [`FaultInjector`] per host, with a control-plane stream (dropped,
//!   delayed or duplicated samples, lost netlink messages, failed
//!   hypercalls, MM crash schedules) and a data-plane stream (corrupted,
//!   torn, lost or refused tmem puts), counting and tracing every injected
//!   fault through one call,
//! * [`trace`] — the flight recorder: a zero-cost-when-disabled structured
//!   event layer every subsystem emits into, with a bounded ring buffer,
//!   the benchmark's nine trace counters and a hand-rolled JSONL codec.
//!
//! Everything here is deterministic: two runs with the same seeds produce
//! bit-identical event orders and metric streams. The integration tests in
//! the workspace root assert this property end-to-end.

pub mod cost;
pub mod event;
pub mod faults;
pub mod metrics;
pub mod netmodel;
pub mod rng;
pub mod time;
pub mod trace;

pub use cost::CostModel;
pub use event::EventQueue;
pub use faults::{FaultInjector, FaultLedger, FaultProfile, NetlinkFate, SampleFate};
pub use metrics::{Counter, Summary, TimeSeries};
pub use netmodel::{Link, NetModel};
pub use rng::SplitMix64;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceConfig, TraceData, Tracer};
