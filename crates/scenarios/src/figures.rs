//! Per-figure experiment harnesses.
//!
//! One producer per figure of the paper's evaluation (§V). Running-time
//! figures (3, 5, 9) repeat each scenario × policy `reps` times (the paper
//! uses five) and report mean ± standard deviation per VM per run; the
//! usemem figure (7) reports per-allocation spans; occupancy figures (4, 6,
//! 8, 10) record per-interval tmem usage and target series for the paper's
//! chosen policies.
//!
//! All (policy × rep) grids run through [`crate::par::run_indexed`] with
//! `RunConfig::jobs` workers: each cell is an independent simulation seeded
//! by its rep alone ([`RunConfig::for_rep`], the rule `sweep` cells share;
//! its doc says what that pairs); results come back in grid order, and the folding
//! below consumes them in exactly the order the old serial loops did — so
//! output is byte-identical at any job count.

use crate::config::RunConfig;
use crate::par::run_indexed;
use crate::runner::{run_scenario, RunResult, SeriesBundle};
use crate::spec::{build_scenario, usemem_alloc_label, ProgramStep, ScenarioKind, WorkloadSpec};
use sim_core::metrics::Summary;
use smartmem_core::PolicyKind;

/// One bar of a running-time figure: a (VM, run) cell under one policy.
#[derive(Debug, Clone)]
pub struct BarStat {
    /// Bar label, e.g. "VM1/run1" or "VM2@160MB".
    pub label: String,
    /// Mean running time over repetitions, seconds.
    pub mean_s: f64,
    /// Sample standard deviation, seconds.
    pub std_s: f64,
    /// Repetitions that produced this bar.
    pub n: u64,
}

/// All bars for one policy.
#[derive(Debug, Clone)]
pub struct BarGroup {
    /// Policy display name.
    pub policy: String,
    /// Bars in VM/run order.
    pub bars: Vec<BarStat>,
}

/// A complete running-time figure.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Paper figure id ("fig3", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// One group per policy.
    pub groups: Vec<BarGroup>,
}

impl FigureData {
    /// Mean running time of a (policy, bar-label) cell, if present.
    pub fn mean_of(&self, policy: &str, label: &str) -> Option<f64> {
        self.groups
            .iter()
            .find(|g| g.policy == policy)?
            .bars
            .iter()
            .find(|b| b.label == label)
            .map(|b| b.mean_s)
    }
}

/// A recorded occupancy run for one policy (Figs. 4, 6, 8, 10).
#[derive(Debug)]
pub struct SeriesFigure {
    /// Paper figure id.
    pub id: String,
    /// Human title.
    pub title: String,
    /// `(policy name, series)` panels, in paper order.
    pub panels: Vec<(String, SeriesBundle)>,
    /// VM names, for labelling columns.
    pub vm_names: Vec<String>,
    /// Sampling interval seconds (for rendering).
    pub interval_s: f64,
}

/// Run every (policy, rep) cell of a scenario's grid — in parallel when
/// `cfg.jobs > 1` — returning results policy-major, rep-minor: the exact
/// order the serial nested loops visited them.
fn run_grid(
    kind: ScenarioKind,
    policies: &[PolicyKind],
    cfg: &RunConfig,
    reps: u64,
) -> Vec<RunResult> {
    let grid: Vec<(PolicyKind, u64)> = policies
        .iter()
        .flat_map(|&policy| (0..reps).map(move |rep| (policy, rep)))
        .collect();
    run_indexed(grid, cfg.jobs, |_, (policy, rep)| {
        let r = run_scenario(kind, policy, &cfg.for_rep(rep));
        assert!(!r.truncated, "{kind:?}/{policy} hit the safety cutoff");
        r
    })
}

/// Run `kind × policies` `reps` times and fold each run's `(label,
/// seconds)` samples into one group per policy, its bars in the order
/// their labels first appear.
fn bar_groups(
    kind: ScenarioKind,
    policies: &[PolicyKind],
    cfg: &RunConfig,
    reps: u64,
    samples: impl Fn(&RunResult) -> Vec<(String, f64)>,
) -> Vec<BarGroup> {
    assert!(reps > 0);
    let results = run_grid(kind, policies, cfg, reps);
    policies
        .iter()
        .zip(results.chunks(reps as usize))
        .map(|(&policy, runs)| {
            let mut labels: Vec<String> = Vec::new();
            let mut sums: Vec<Summary> = Vec::new();
            for (label, secs) in runs.iter().flat_map(&samples) {
                let i = match labels.iter().position(|l| *l == label) {
                    Some(i) => i,
                    None => {
                        labels.push(label);
                        sums.push(Summary::new());
                        labels.len() - 1
                    }
                };
                sums[i].record(secs);
            }
            BarGroup {
                policy: policy.to_string(),
                bars: labels
                    .into_iter()
                    .zip(sums)
                    .map(|(label, s)| BarStat {
                        label,
                        mean_s: s.mean(),
                        std_s: s.stddev(),
                        n: s.count(),
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Run `scenario × policy` `reps` times and fold per-(VM, run) durations.
pub fn running_time_groups(
    kind: ScenarioKind,
    policies: &[PolicyKind],
    cfg: &RunConfig,
    reps: u64,
) -> Vec<BarGroup> {
    bar_groups(kind, policies, cfg, reps, |r| {
        r.vm_results
            .iter()
            .flat_map(|vm| {
                vm.completions()
                    .into_iter()
                    .enumerate()
                    .map(|(k, d)| (format!("{}/run{}", vm.name, k + 1), d.as_secs_f64()))
            })
            .collect()
    })
}

/// A running-time figure: the paper's policy set on `kind`.
fn running_time_figure(
    kind: ScenarioKind,
    id: &str,
    title: &str,
    cfg: &RunConfig,
    reps: u64,
) -> FigureData {
    let policies = PolicyKind::paper_set(kind.paper_smart_ps());
    FigureData {
        id: id.into(),
        title: title.into(),
        groups: running_time_groups(kind, &policies, cfg, reps),
    }
}

/// Fig. 3: running times for Scenario 1.
pub fn fig3(cfg: &RunConfig, reps: u64) -> FigureData {
    running_time_figure(
        ScenarioKind::Scenario1,
        "fig3",
        "Running times for Scenario 1 (3×1GB VMs, in-memory-analytics ×2)",
        cfg,
        reps,
    )
}

/// Fig. 5: running times for Scenario 2.
pub fn fig5(cfg: &RunConfig, reps: u64) -> FigureData {
    running_time_figure(
        ScenarioKind::Scenario2,
        "fig5",
        "Running times for Scenario 2 (3×512MB VMs, graph-analytics, VM3 +30s)",
        cfg,
        reps,
    )
}

/// Fig. 9: running times for Scenario 3.
pub fn fig9(cfg: &RunConfig, reps: u64) -> FigureData {
    running_time_figure(
        ScenarioKind::Scenario3,
        "fig9",
        "Running times for Scenario 3 (graph-analytics ×2 + in-memory-analytics)",
        cfg,
        reps,
    )
}

/// Fig. 7: usemem per-allocation running times. Bars are the spans from
/// each `alloc:<MiB>` milestone to the matching `block:<MiB>` completion.
pub fn fig7(cfg: &RunConfig, reps: u64) -> FigureData {
    let kind = ScenarioKind::UsememScenario;
    // Block sizes present in the scaled config: up to the stop trigger (the
    // 6th allocation), block 5 (640 MB full-scale) is the last completable.
    let ucfg = workloads::usemem::UsememConfig::paper(cfg.scale);
    let blocks: Vec<(String, String)> = (1..=5)
        .map(|k| {
            let alloc = usemem_alloc_label(&ucfg, k);
            let block = alloc.replacen("alloc", "block", 1);
            (alloc, block)
        })
        .collect();
    let policies = PolicyKind::paper_set(kind.paper_smart_ps());
    let groups = bar_groups(kind, &policies, cfg, reps, |r| {
        r.vm_results
            .iter()
            .flat_map(|vm| {
                blocks.iter().filter_map(|(alloc, block)| {
                    let span = vm.span_between(alloc, block)?;
                    let label = format!("{}@{}", vm.name, alloc.replacen("alloc:", "", 1));
                    Some((label, span.as_secs_f64()))
                })
            })
            .collect()
    });
    FigureData {
        id: "fig7".into(),
        title: "Running times for the Usemem scenario (per allocation, MiB scaled)".into(),
        groups,
    }
}

/// An occupancy figure: one recorded run of `kind` per policy.
fn occupancy_figure(
    kind: ScenarioKind,
    id: &str,
    title: &str,
    policies: &[PolicyKind],
    cfg: &RunConfig,
) -> SeriesFigure {
    let c = RunConfig {
        record_series: true,
        ..cfg.clone()
    };
    let panels = run_indexed(policies.to_vec(), cfg.jobs, |_, policy| {
        let r = run_scenario(kind, policy, &c);
        assert!(!r.truncated);
        (
            policy.to_string(),
            r.series.expect("series recording requested"),
        )
    });
    SeriesFigure {
        id: id.into(),
        title: title.into(),
        panels,
        vm_names: build_scenario(kind, cfg)
            .vms
            .iter()
            .map(|v| v.config.name.clone())
            .collect(),
        interval_s: cfg.sampling_interval().as_secs_f64(),
    }
}

/// Fig. 4: Scenario 1 tmem occupancy, greedy vs smart-alloc(0.75%).
pub fn fig4(cfg: &RunConfig) -> SeriesFigure {
    occupancy_figure(
        ScenarioKind::Scenario1,
        "fig4",
        "Tmem capacity per VM, Scenario 1: (a) greedy (b) smart-alloc P=0.75%",
        &[PolicyKind::Greedy, PolicyKind::SmartAlloc { p: 0.75 }],
        cfg,
    )
}

/// Fig. 6: Scenario 2 tmem occupancy, greedy vs smart-alloc(6%).
pub fn fig6(cfg: &RunConfig) -> SeriesFigure {
    occupancy_figure(
        ScenarioKind::Scenario2,
        "fig6",
        "Tmem use per VM, Scenario 2: (a) greedy (b) smart-alloc P=6%",
        &[PolicyKind::Greedy, PolicyKind::SmartAlloc { p: 6.0 }],
        cfg,
    )
}

/// Fig. 8: Usemem scenario occupancy, greedy / reconf-static /
/// smart-alloc(2%).
pub fn fig8(cfg: &RunConfig) -> SeriesFigure {
    occupancy_figure(
        ScenarioKind::UsememScenario,
        "fig8",
        "Tmem use per VM, usemem: (a) greedy (b) reconf-static (c) smart-alloc P=2%",
        &[
            PolicyKind::Greedy,
            PolicyKind::ReconfStatic,
            PolicyKind::SmartAlloc { p: 2.0 },
        ],
        cfg,
    )
}

/// Fig. 10: Scenario 3 occupancy, greedy / static / reconf-static /
/// smart-alloc(4%).
pub fn fig10(cfg: &RunConfig) -> SeriesFigure {
    occupancy_figure(
        ScenarioKind::Scenario3,
        "fig10",
        "Tmem use per VM, Scenario 3: (a) greedy (b) static (c) reconf-static (d) smart-alloc P=4%",
        &[
            PolicyKind::Greedy,
            PolicyKind::StaticAlloc,
            PolicyKind::ReconfStatic,
            PolicyKind::SmartAlloc { p: 4.0 },
        ],
        cfg,
    )
}

/// Table II as structured rows (scenario, VM parameters, program).
pub fn table2_rows(cfg: &RunConfig) -> Vec<(String, Vec<String>)> {
    ScenarioKind::ALL
        .iter()
        .map(|&kind| {
            let spec = build_scenario(kind, cfg);
            let rows = spec
                .vms
                .iter()
                .map(|vm| {
                    let prog: Vec<String> = vm
                        .program
                        .iter()
                        .map(|p| match p {
                            ProgramStep::Run(WorkloadSpec::Usemem(_)) => "usemem".to_string(),
                            ProgramStep::Run(WorkloadSpec::InMem(c)) => {
                                format!("in-memory-analytics ({} MiB)", c.footprint_bytes() >> 20)
                            }
                            ProgramStep::Run(WorkloadSpec::Graph(c)) => {
                                format!("graph-analytics ({} MiB)", c.footprint_bytes() >> 20)
                            }
                            ProgramStep::Run(WorkloadSpec::FileServer(c)) => {
                                format!("fileserver ({} MiB)", c.footprint_bytes() >> 20)
                            }
                            ProgramStep::Sleep(d) => format!("sleep {d}"),
                        })
                        .collect();
                    format!(
                        "{}: {} MiB RAM, {} vCPU — {}",
                        vm.config.name,
                        vm.config.ram_bytes >> 20,
                        vm.config.vcpus,
                        prog.join(", ")
                    )
                })
                .collect();
            (
                format!("{} (tmem {} MiB)", spec.name, spec.tmem_bytes >> 20),
                rows,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            scale: 0.01,
            seed: 11,
            ..RunConfig::default()
        }
    }

    #[test]
    fn running_time_groups_have_consistent_shape() {
        let groups = running_time_groups(
            ScenarioKind::Scenario2,
            &[PolicyKind::Greedy, PolicyKind::NoTmem],
            &tiny(),
            2,
        );
        assert_eq!(groups.len(), 2);
        for g in &groups {
            assert_eq!(g.bars.len(), 3, "one bar per VM single run: {g:?}");
            for b in &g.bars {
                assert_eq!(b.n, 2, "two repetitions folded");
                assert!(b.mean_s > 0.0);
            }
        }
    }

    #[test]
    fn fig4_produces_two_panels_with_series() {
        let f = fig4(&tiny());
        assert_eq!(f.panels.len(), 2);
        assert_eq!(f.vm_names, vec!["VM1", "VM2", "VM3"]);
        for (_, bundle) in &f.panels {
            assert_eq!(bundle.used.len(), 3);
            assert!(bundle.used[0].len() > 1);
        }
    }

    #[test]
    fn table2_lists_all_four_scenarios() {
        let rows = table2_rows(&tiny());
        assert_eq!(rows.len(), 4);
        assert!(rows[0].0.starts_with("scenario1"));
        assert_eq!(rows[0].1.len(), 3);
    }

    #[test]
    fn figure_helpers_locate_cells() {
        let groups =
            running_time_groups(ScenarioKind::Scenario2, &[PolicyKind::Greedy], &tiny(), 1);
        let fig = FigureData {
            id: "t".into(),
            title: "t".into(),
            groups,
        };
        assert!(fig.mean_of("greedy", "VM1/run1").is_some());
        assert!(fig.mean_of("greedy", "VM9/run1").is_none());
    }
}
