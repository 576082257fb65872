//! Capacity planning: how much tmem does this consolidation need?
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```
//!
//! A use the paper motivates but never shows: given a fixed set of VMs and
//! workloads, sweep the node's tmem capacity and watch where the knee is —
//! the point past which more pooled memory stops buying runtime. The sweep
//! runs Scenario 1 (three in-memory-analytics VMs) under `smart-alloc`
//! with the node's tmem scaled from 0.25× to 2× of the paper's 1 GB.

use smartmem::policies::PolicyKind;
use smartmem::scenarios::spec::{build_scenario, ScenarioKind};
use smartmem::scenarios::RunConfig;

fn main() {
    let policy = PolicyKind::SmartAlloc { p: 2.0 };
    println!("tmem capacity sweep — Scenario 1 under {policy}\n");
    println!(
        "{:>12}  {:>12}  {:>10}  {:>12}",
        "tmem factor", "mean run", "disk reads", "failed puts"
    );

    let cfg = RunConfig {
        scale: 0.08,
        seed: 7,
        ..RunConfig::default()
    };
    for factor in [0.25, 0.5, 0.75, 1.0, 1.5, 2.0] {
        let r = run_with(&cfg, factor, policy);
        let mean: f64 = {
            let all: Vec<f64> = r
                .vm_results
                .iter()
                .flat_map(|v| v.completions())
                .map(|d| d.as_secs_f64())
                .collect();
            all.iter().sum::<f64>() / all.len() as f64
        };
        let failed: u64 = r
            .vm_results
            .iter()
            .map(|v| v.kernel_stats.failed_puts)
            .sum();
        println!(
            "{factor:>12.2}  {mean:>11.2}s  {:>10}  {failed:>12}",
            r.disk_reads
        );
    }
    println!("\nThe knee sits where the VMs' combined overflow fits the pool;");
    println!("beyond it, extra tmem is idle capacity (the paper's 'fallow' memory).");
}

/// Run Scenario 1 with the node's tmem multiplied by `factor`.
///
/// Uses the spec-builder API: build the Table II spec, adjust the tmem
/// capacity, and drive it through the standard runner entry point.
fn run_with(cfg: &RunConfig, factor: f64, policy: PolicyKind) -> smartmem::scenarios::RunResult {
    let mut spec = build_scenario(ScenarioKind::Scenario1, cfg);
    spec.tmem_bytes = ((spec.tmem_bytes as f64 * factor) as u64 / 4096).max(4) * 4096;
    smartmem::scenarios::runner::run_spec(spec, policy, cfg)
}
