//! The `smartmem-cli bench` harness, its `BENCH.json` writer and the
//! wall-clock/peak-RSS measurement they share.

pub mod harness;
pub mod json;
pub mod measure;
