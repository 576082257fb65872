//! Measurement plumbing for the `smartmem-cli` bench subcommands.

pub mod measure;
