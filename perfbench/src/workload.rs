//! The benchmark's three workloads, and how each is set up, run, traced,
//! checked and summarized. Every run goes through the simulator's public
//! entry points: the figure functions for `paper`, `run_cluster` for the
//! fleet cells, and `run_scenario` for the traced walk of `paper`'s cells.

use crate::spans::{SpanId, Spans};
use guest_os::KernelStats;
use scenarios::config::RunConfig;
use scenarios::figures::{self, BarGroup, BarStat, FigureData, SeriesFigure};
use scenarios::runner::{
    run_cluster, run_scenario, ClusterConfig, ClusterResult, FleetMetrics, RunResult,
};
use scenarios::spec::{
    build_scenario, usemem_alloc_label, ProgramStep, ScenarioKind, ScenarioSpec, VmSpec,
    WorkloadSpec,
};
use scenarios::{dsl, par, report, trace_check};
use sim_core::metrics::Summary;
use sim_core::rng::SplitMix64;
use sim_core::trace::{Payload, TraceConfig, TraceMetrics, DEFAULT_TRACE_CAPACITY};
use smartmem_core::{FleetConfig, PolicyKind};
use std::collections::BTreeMap;
use std::path::Path;
use xen_sim::host::FarConfig;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's figure set (Figs. 3–10) on the parallel grid.
    Paper,
    /// 64 usemem VMs × 512 MiB on one host: the tmem put/reclaim path.
    FleetPaging,
    /// 2 hosts × 32 balanced VMs with migration and a far tier.
    Cluster,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::FleetPaging, Workload::Cluster];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::FleetPaging => "fleet-paging",
            Workload::Cluster => "cluster",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload '{s}' (paper, fleet-paging, cluster)"))
    }
}

/// The policy every fleet cell runs, and the one `paper`'s speed-up is
/// measured for.
pub const POLICY: PolicyKind = PolicyKind::SmartAlloc { p: 2.0 };

const PAPER_SCALE: f64 = 0.03;
const TINY_PAPER_SCALE: f64 = 0.01;
const PAPER_JOBS: usize = 2;

/// Ring capacity for traced runs whose trace fits in memory; fleet-paging
/// keeps the default ring and reports what it dropped instead.
const LARGE_TRACE_CAPACITY: usize = 1 << 24;

/// The running-time figures and their scenarios.
const BAR_FIGS: [(u32, ScenarioKind); 4] = [
    (3, ScenarioKind::Scenario1),
    (5, ScenarioKind::Scenario2),
    (7, ScenarioKind::UsememScenario),
    (9, ScenarioKind::Scenario3),
];

/// The occupancy figures: scenario and the policies each panel shows.
fn series_figs() -> [(u32, ScenarioKind, Vec<PolicyKind>); 4] {
    use PolicyKind::*;
    [
        (
            4,
            ScenarioKind::Scenario1,
            vec![Greedy, SmartAlloc { p: 0.75 }],
        ),
        (
            6,
            ScenarioKind::Scenario2,
            vec![Greedy, SmartAlloc { p: 6.0 }],
        ),
        (
            8,
            ScenarioKind::UsememScenario,
            vec![Greedy, ReconfStatic, SmartAlloc { p: 2.0 }],
        ),
        (
            10,
            ScenarioKind::Scenario3,
            vec![Greedy, StaticAlloc, ReconfStatic, SmartAlloc { p: 4.0 }],
        ),
    ]
}

/// One workload at one seed, at full or smoke-test size.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Shrink every size so the whole plan runs in about a second.
    pub tiny: bool,
}

/// One scenario × policy run of `paper`, as the figure functions make it.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Paper figure number.
    pub fig: u32,
    /// Scenario.
    pub kind: ScenarioKind,
    /// Policy.
    pub policy: PolicyKind,
    /// The exact configuration the figure function gives this cell.
    pub cfg: RunConfig,
}

/// Simulated outcomes: deterministic in the seed.
#[derive(Debug, Clone, Default)]
pub struct Sim {
    /// Simulated seconds until the last VM finished (see `sim_of_bars`
    /// for `paper`).
    pub makespan_s: f64,
    /// The worst (longest) VM runtime ÷ the fastest VM of its workload
    /// class.
    pub slowdown_max: f64,
    /// `paper` only: geomean of no-tmem ÷ smart-alloc over the VM bars of
    /// Figs. 3/5/7/9, with the per-figure geomeans.
    pub speedup_vs_notmem: Option<f64>,
    /// Per-figure no-tmem ÷ smart-alloc geomeans (`paper` only).
    pub fig_speedups: Vec<(u32, f64)>,
    /// `(VM name, total runtime s)` of fleet cells, for the speed-up
    /// against a no-tmem run of the same cell.
    pub vm_runtimes: Vec<(String, f64)>,
}

/// What one run of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Scenario × policy runs it contained.
    pub cells: u64,
    /// Runs that hit the simulator's safety cutoff.
    pub truncated: u64,
    /// Digest of the simulated outputs (figure CSV bytes; or per-VM
    /// runtimes, event count and final occupancy).
    pub digest: u64,
    /// Simulated metrics.
    pub sim: Sim,
}

/// Per-layer counts from a traced run.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// The flight recorder's metrics registry, summed over hosts/cells.
    pub trace: TraceMetrics,
    /// Far-tier hits seen in the recorded events.
    pub far_gets: u64,
    /// Far-tier pages held at the end.
    pub far_used_pages: u64,
    /// Guest kernel counters summed over every VM.
    pub kernel: KernelStats,
    /// Summed disk read wait, simulated seconds.
    pub disk_read_wait_s: f64,
    /// Summed disk write-throttle stall, simulated seconds.
    pub disk_throttle_s: f64,
    /// MM cycles and target transmissions.
    pub mm_cycles: u64,
    /// Target vectors the MM actually sent.
    pub mm_transmissions: u64,
    /// Fleet-wide accounting, summed over cells.
    pub migrations: u64,
    /// Summed migration pause, simulated seconds.
    pub migration_downtime_s: f64,
    /// Pages moved between hosts.
    pub cross_host_pages: u64,
    /// Free-page intervals stranded on healthy hosts.
    pub stranded_page_intervals: u64,
    /// Events dispatched by the run loop(s).
    pub events: u64,
    /// Trace events emitted (recorded + dropped).
    pub trace_events: u64,
    /// Trace events the ring dropped.
    pub trace_dropped: u64,
}

/// Replay verdict of a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// Every check passed.
    Pass,
    /// Some check failed.
    Fail,
    /// The ring dropped events, so replay was impossible.
    Unverifiable,
}

/// A traced run: the outcome, the counts and the replay verdict.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Outcome, digested exactly as an untraced run's.
    pub outcome: Outcome,
    /// Per-layer counts.
    pub counts: Counts,
    /// Replay verdict.
    pub replay: Replay,
    /// Host seconds spent in `trace_check`.
    pub replay_s: f64,
}

/// FNV-1a, 64-bit: a stable digest of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold in raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in an integer.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A workload's class name, as `workloads.step_ns.<class>` reports it.
pub fn class_of(ws: &WorkloadSpec) -> &'static str {
    match ws {
        WorkloadSpec::Usemem(_) => "usemem",
        WorkloadSpec::InMem(_) => "inmem",
        WorkloadSpec::Graph(_) => "graph",
        WorkloadSpec::FileServer(_) => "fileserver",
    }
}

/// The workload of a VM's first run.
pub fn first_run(vm: &VmSpec) -> Option<&WorkloadSpec> {
    vm.program.iter().find_map(|s| match s {
        ProgramStep::Run(ws) => Some(ws),
        ProgramStep::Sleep(_) => None,
    })
}

/// The class of each VM's first run, by VM name.
fn classes(spec: &ScenarioSpec) -> BTreeMap<String, &'static str> {
    spec.vms
        .iter()
        .filter_map(|vm| Some((vm.config.name.clone(), class_of(first_run(vm)?))))
        .collect()
}

impl Plan {
    /// The run configuration every cell of this plan starts from.
    pub fn config(&self) -> RunConfig {
        match self.workload {
            Workload::Paper => RunConfig {
                scale: if self.tiny {
                    TINY_PAPER_SCALE
                } else {
                    PAPER_SCALE
                },
                seed: self.seed,
                jobs: PAPER_JOBS,
                ..RunConfig::default()
            },
            // Fleet cells are sized by their own spec; the run keeps the
            // CLI's default configuration.
            Workload::FleetPaging | Workload::Cluster => RunConfig {
                seed: self.seed,
                jobs: 1,
                ..RunConfig::default()
            },
        }
    }

    /// The fleet cell in the CLI's `fleet:` vocabulary.
    pub fn fleet_cell(&self) -> &'static str {
        match (self.workload, self.tiny) {
            (Workload::FleetPaging, false) => "fleet:64:512:paging",
            (Workload::FleetPaging, true) => "fleet:8:16:paging",
            (Workload::Cluster, false) => "fleet:2x32:128",
            (Workload::Cluster, true) => "fleet:2x4:16",
            (Workload::Paper, _) => "-",
        }
    }

    /// The fleet cell's spec and topology: one plain host, or the
    /// multi-host topology with the default fleet scheduler, the
    /// datacenter link and a far tier of a quarter of each host's shard.
    pub fn fleet_spec(&self, cfg: &RunConfig) -> Result<(ScenarioSpec, ClusterConfig), String> {
        let cell = self.fleet_cell();
        let text = cell
            .strip_prefix("fleet:")
            .ok_or("paper has no fleet cell")?;
        let (params, hosts) = dsl::parse_fleet_cluster(text)?;
        let mut spec = build_scenario(ScenarioKind::Scenario5(params), cfg);
        spec.name = dsl::cluster_scenario_name(&spec.name, hosts);
        let cluster = if hosts == 1 {
            ClusterConfig::default()
        } else {
            ClusterConfig {
                hosts,
                far: Some(FarConfig {
                    capacity_pages: (spec.tmem_pages() / hosts as u64 / 4).max(1),
                }),
                migration: Some(FleetConfig::default()),
                ..ClusterConfig::default()
            }
        };
        Ok((spec, cluster))
    }

    /// `paper`'s cells in figure order, each with the configuration its
    /// figure function derives (reps 1).
    pub fn paper_cells(&self) -> Vec<Cell> {
        let cfg = self.config();
        // The figure functions' per-repetition seed for rep 0.
        let bar_cfg = RunConfig {
            seed: SplitMix64::new(cfg.seed).derive("rep0").next(),
            ..cfg.clone()
        };
        let series_cfg = RunConfig {
            record_series: true,
            ..cfg.clone()
        };
        let mut cells = Vec::new();
        for fig in 3..=10 {
            if let Some(&(_, kind)) = BAR_FIGS.iter().find(|(f, _)| *f == fig) {
                for policy in PolicyKind::paper_set(kind.paper_smart_ps()) {
                    cells.push(Cell {
                        fig,
                        kind,
                        policy,
                        cfg: bar_cfg.clone(),
                    });
                }
            } else if let Some((_, kind, policies)) =
                series_figs().into_iter().find(|(f, _, _)| *f == fig)
            {
                for policy in policies {
                    cells.push(Cell {
                        fig,
                        kind,
                        policy,
                        cfg: series_cfg.clone(),
                    });
                }
            }
        }
        cells
    }

    /// Every (spec, policy, seed) the plan runs.
    fn runs(&self) -> Result<Vec<(ScenarioSpec, PolicyKind, u64)>, String> {
        match self.workload {
            Workload::Paper => Ok(self
                .paper_cells()
                .into_iter()
                .map(|c| (build_scenario(c.kind, &c.cfg), c.policy, c.cfg.seed))
                .collect()),
            _ => {
                let cfg = self.config();
                let (spec, _) = self.fleet_spec(&cfg)?;
                Ok(vec![(spec, POLICY, cfg.seed)])
            }
        }
    }

    /// Set-up: build every scenario spec and synthesize every VM's
    /// dataset through `WorkloadSpec::build`, with the seeds the runner
    /// derives. Returns the number of datasets built; each is dropped at
    /// once, so set-up never holds more than one.
    pub fn setup(&self) -> Result<u64, String> {
        let mut built = 0;
        for (spec, policy, seed) in self.runs()? {
            let root = SplitMix64::new(seed);
            for (i, vm) in spec.vms.iter().enumerate() {
                let mut run = 0;
                for step in &vm.program {
                    if let ProgramStep::Run(ws) = step {
                        let label = format!("{}/{policy}/vm{i}/run{run}", spec.name);
                        let w = ws.build(root.derive(&label).next());
                        std::hint::black_box(w.name());
                        run += 1;
                        built += 1;
                    }
                }
            }
        }
        Ok(built)
    }

    /// Run the workload untraced. `policy` applies to fleet cells; `paper`
    /// always runs the paper's policy sets.
    pub fn run(
        &self,
        policy: PolicyKind,
        scratch: &Path,
        spans: &Spans,
        parent: Option<SpanId>,
    ) -> Result<Outcome, String> {
        let cfg = self.config();
        match self.workload {
            Workload::Paper => {
                let bars: Vec<(u32, FigureData)> = [3, 5, 7, 9]
                    .into_iter()
                    .map(|fig| {
                        let data = spans.time(&format!("fig{fig}"), parent, |_| match fig {
                            3 => figures::fig3(&cfg, 1),
                            5 => figures::fig5(&cfg, 1),
                            7 => figures::fig7(&cfg, 1),
                            _ => figures::fig9(&cfg, 1),
                        });
                        (fig, data)
                    })
                    .collect();
                let series: Vec<SeriesFigure> = [4, 6, 8, 10]
                    .into_iter()
                    .map(|fig| {
                        spans.time(&format!("fig{fig}"), parent, |_| match fig {
                            4 => figures::fig4(&cfg),
                            6 => figures::fig6(&cfg),
                            8 => figures::fig8(&cfg),
                            _ => figures::fig10(&cfg),
                        })
                    })
                    .collect();
                self.paper_outcome(&bars, &series, scratch)
            }
            _ => {
                let (spec, cluster) = self.fleet_spec(&cfg)?;
                let r = spans.time("run_cluster", parent, |_| {
                    run_cluster(spec, policy, &cfg, &cluster)
                });
                Ok(cluster_outcome(&r))
            }
        }
    }

    /// Run the workload with the flight recorder on, collect the per-layer
    /// counts and replay-verify wherever nothing was dropped.
    pub fn run_traced(
        &self,
        scratch: &Path,
        spans: &Spans,
        parent: Option<SpanId>,
    ) -> Result<Traced, String> {
        let capacity = match self.workload {
            Workload::FleetPaging => DEFAULT_TRACE_CAPACITY,
            _ => LARGE_TRACE_CAPACITY,
        };
        let trace = Some(TraceConfig { capacity });
        match self.workload {
            Workload::Paper => {
                let cells = self.paper_cells();
                let results: Vec<RunResult> =
                    par::run_indexed(cells.clone(), PAPER_JOBS, |_, c| {
                        let cfg = RunConfig {
                            trace: trace.clone(),
                            ..c.cfg
                        };
                        let name = format!("run_scenario:fig{}/{}", c.fig, c.policy);
                        spans.time(&name, parent, |_| run_scenario(c.kind, c.policy, &cfg))
                    });
                let (bars, series) = fold_figures(&cells, &results);
                let outcome = self.paper_outcome(&bars, &series, scratch)?;
                let t = std::time::Instant::now();
                let verdicts: Vec<Result<trace_check::ReplayReport, String>> =
                    spans.time("verify", parent, |_| {
                        results.iter().map(trace_check::verify).collect()
                    });
                let replay_s = t.elapsed().as_secs_f64();
                let counts =
                    counts_of(results.iter(), None, results.iter().map(|r| r.events).sum());
                Ok(Traced {
                    outcome,
                    counts,
                    replay: verdict(&verdicts),
                    replay_s,
                })
            }
            _ => {
                let cfg = RunConfig {
                    trace,
                    ..self.config()
                };
                let (spec, cluster) = self.fleet_spec(&cfg)?;
                let r = spans.time("run_cluster", parent, |_| {
                    run_cluster(spec, POLICY, &cfg, &cluster)
                });
                let outcome = cluster_outcome(&r);
                let t = std::time::Instant::now();
                let v = spans.time("verify", parent, |_| {
                    trace_check::verify_cluster(&r.host_results)
                });
                let replay_s = t.elapsed().as_secs_f64();
                let counts = counts_of(
                    r.host_results.iter(),
                    Some(&r.fleet),
                    r.host_results[0].events,
                );
                Ok(Traced {
                    outcome,
                    counts,
                    replay: verdict(&[v]),
                    replay_s,
                })
            }
        }
    }

    /// `paper`'s outcome: the digest of every figure's CSV bytes and the
    /// simulated metrics read off the running-time bars.
    fn paper_outcome(
        &self,
        bars: &[(u32, FigureData)],
        series: &[SeriesFigure],
        scratch: &Path,
    ) -> Result<Outcome, String> {
        let mut digest = Digest::default();
        let io = |e: std::io::Error| format!("figure CSV under {}: {e}", scratch.display());
        let mut csvs = Vec::new();
        for (_, fig) in bars {
            csvs.push(report::write_bars_csv(fig, scratch).map_err(io)?);
        }
        for fig in series {
            csvs.push(report::write_series_csv(fig, scratch).map_err(io)?);
        }
        csvs.sort();
        for path in csvs {
            let bytes = std::fs::read(&path).map_err(io)?;
            digest.bytes(path.file_name().map_or(&[][..], |n| n.as_encoded_bytes()));
            digest.bytes(&bytes);
            std::fs::remove_file(&path).map_err(io)?;
        }
        Ok(Outcome {
            cells: self.paper_cells().len() as u64,
            truncated: 0,
            digest: digest.value(),
            sim: self.sim_of_bars(bars),
        })
    }

    /// `paper`'s simulated metrics. The figure functions return per-VM
    /// bars, not whole runs, so on `paper` the makespan is the longest
    /// smart-alloc VM run (bar) of Figs. 3/5/9, and the slowdown divides
    /// that bar by the fastest bar of its smart-alloc group that ran the
    /// same workload class.
    fn sim_of_bars(&self, bars: &[(u32, FigureData)]) -> Sim {
        let cfg = self.config();
        let mut sim = Sim::default();
        let mut all = Vec::new();
        for (fig, data) in bars {
            let smart: Vec<&BarGroup> = data
                .groups
                .iter()
                .filter(|g| g.policy.starts_with("smart-alloc"))
                .collect();
            let ratios: Vec<f64> = smart
                .iter()
                .flat_map(|g| &g.bars)
                .filter_map(|b| Some(data.mean_of("no-tmem", &b.label)? / b.mean_s))
                .collect();
            sim.fig_speedups.push((*fig, geomean(&ratios)));
            all.extend(ratios);
            if *fig == 7 {
                // Usemem bars are per-allocation spans, not VM runs.
                continue;
            }
            let (_, kind) = BAR_FIGS
                .iter()
                .find(|(f, _)| f == fig)
                .expect("bars come from BAR_FIGS");
            let class = classes(&build_scenario(*kind, &cfg));
            let class_of_bar = |b: &BarStat| {
                let vm = b.label.split('/').next().unwrap_or_default();
                class.get(vm).copied().unwrap_or("?")
            };
            for g in &smart {
                for worst in &g.bars {
                    if worst.mean_s <= sim.makespan_s {
                        continue;
                    }
                    let fastest = g
                        .bars
                        .iter()
                        .filter(|b| class_of_bar(b) == class_of_bar(worst))
                        .map(|b| b.mean_s)
                        .fold(f64::INFINITY, f64::min);
                    sim.makespan_s = worst.mean_s;
                    sim.slowdown_max = worst.mean_s / fastest;
                }
            }
        }
        sim.speedup_vs_notmem = Some(geomean(&all));
        sim
    }
}

/// Rebuild `paper`'s figures from its traced cells exactly as the figure
/// functions fold them at reps 1, so the traced run's CSV digest can be
/// compared with the untraced one's.
fn fold_figures(
    cells: &[Cell],
    results: &[RunResult],
) -> (Vec<(u32, FigureData)>, Vec<SeriesFigure>) {
    let mut bars = Vec::new();
    let mut series = Vec::new();
    for fig in 3..=10u32 {
        let mine: Vec<(&Cell, &RunResult)> = cells
            .iter()
            .zip(results)
            .filter(|(c, _)| c.fig == fig)
            .collect();
        let Some((first, _)) = mine.first() else {
            continue;
        };
        if first.cfg.record_series {
            series.push(SeriesFigure {
                id: format!("fig{fig}"),
                title: String::new(),
                panels: mine
                    .iter()
                    .map(|(c, r)| {
                        let s = r.series.clone().expect("series cells record series");
                        (c.policy.to_string(), s)
                    })
                    .collect(),
                vm_names: build_scenario(first.kind, &first.cfg)
                    .vms
                    .iter()
                    .map(|v| v.config.name.clone())
                    .collect(),
                interval_s: first.cfg.sampling_interval().as_secs_f64(),
            });
            continue;
        }
        let groups = mine
            .iter()
            .map(|(c, r)| {
                let mut spans: Vec<(String, f64)> = Vec::new();
                for vm in &r.vm_results {
                    if fig == 7 {
                        let ucfg = workloads::usemem::UsememConfig::paper(c.cfg.scale);
                        for k in 1..=5 {
                            let alloc = usemem_alloc_label(&ucfg, k);
                            let block = alloc.replacen("alloc", "block", 1);
                            if let Some(d) = vm.span_between(&alloc, &block) {
                                let label =
                                    format!("{}@{}", vm.name, alloc.replacen("alloc:", "", 1));
                                spans.push((label, d.as_secs_f64()));
                            }
                        }
                    } else {
                        for (i, d) in vm.completions().iter().enumerate() {
                            spans.push((format!("{}/run{}", vm.name, i + 1), d.as_secs_f64()));
                        }
                    }
                }
                BarGroup {
                    policy: c.policy.to_string(),
                    bars: spans
                        .into_iter()
                        .map(|(label, x)| {
                            let mut s = Summary::new();
                            s.record(x);
                            BarStat {
                                label,
                                mean_s: s.mean(),
                                std_s: s.stddev(),
                                n: s.count(),
                            }
                        })
                        .collect(),
                }
            })
            .collect();
        bars.push((
            fig,
            FigureData {
                id: format!("fig{fig}"),
                title: String::new(),
                groups,
            },
        ));
    }
    (bars, series)
}

/// A fleet cell's outcome: digest of per-VM runtimes, the event count and
/// final occupancy, plus its simulated metrics.
pub fn cluster_outcome(c: &ClusterResult) -> Outcome {
    let mut digest = Digest::default();
    let mut sim = Sim {
        slowdown_max: 1.0,
        ..Sim::default()
    };
    let mut vms: Vec<(String, &str, u64)> = Vec::new();
    for r in &c.host_results {
        digest.u64(r.events);
        digest.u64(r.end_time.as_nanos());
        sim.makespan_s = sim.makespan_s.max(r.end_time.as_secs_f64());
        for vm in &r.vm_results {
            digest.bytes(vm.name.as_bytes());
            let mut total = 0;
            for run in &vm.runs {
                let ns = run.duration().map_or(u64::MAX, |d| d.as_nanos());
                digest.u64(ns);
                total += run.duration().map_or(0, |d| d.as_nanos());
            }
            let class = vm.runs.first().map_or("-", |run| run.workload.as_str());
            vms.push((vm.name.clone(), class, total));
        }
        for &u in r.final_tmem_used.iter().chain(&r.final_far_used) {
            digest.u64(u);
        }
    }
    // The worst (longest) VM runtime ÷ the fastest VM of its class.
    if let Some(&(_, class, worst)) = vms.iter().max_by_key(|v| v.2) {
        let fastest = vms
            .iter()
            .filter(|v| v.1 == class && v.2 > 0)
            .map(|v| v.2)
            .min()
            .unwrap_or(worst);
        sim.slowdown_max = worst as f64 / fastest as f64;
    }
    sim.vm_runtimes = vms
        .into_iter()
        .map(|(name, _, ns)| (name, ns as f64 / 1e9))
        .collect();
    Outcome {
        cells: 1,
        truncated: c.host_results.iter().filter(|r| r.truncated).count() as u64,
        digest: digest.value(),
        sim,
    }
}

fn verdict(reports: &[Result<trace_check::ReplayReport, String>]) -> Replay {
    if reports
        .iter()
        .any(|r| r.as_ref().is_ok_and(|rep| !rep.ok()))
    {
        Replay::Fail
    } else if reports.iter().any(|r| r.is_err()) {
        Replay::Unverifiable
    } else {
        Replay::Pass
    }
}

fn counts_of<'a>(
    results: impl Iterator<Item = &'a RunResult>,
    fleet: Option<&FleetMetrics>,
    events: u64,
) -> Counts {
    let mut c = Counts {
        events,
        ..Counts::default()
    };
    for r in results {
        if let Some(t) = &r.trace {
            c.trace.merge(&t.metrics);
            c.trace_dropped += t.dropped_oldest;
            c.trace_events += t.events.len() as u64 + t.dropped_oldest;
            c.far_gets += t
                .events
                .iter()
                .filter(|e| matches!(e.payload, Payload::FarGet { .. }))
                .count() as u64;
        }
        c.far_used_pages += r.final_far_used.iter().sum::<u64>();
        for vm in &r.vm_results {
            let k = &vm.kernel_stats;
            c.kernel.tmem_faults += k.tmem_faults;
            c.kernel.disk_faults += k.disk_faults;
            c.kernel.evictions_to_disk += k.evictions_to_disk;
            c.kernel.failed_puts += k.failed_puts;
        }
        c.disk_read_wait_s += r.disk_read_wait.as_secs_f64();
        c.disk_throttle_s += r.disk_throttle.as_secs_f64();
        c.mm_cycles += r.mm_cycles;
        c.mm_transmissions += r.mm_transmissions;
    }
    if let Some(f) = fleet {
        c.migrations = f.migrations;
        c.migration_downtime_s = f.migration_downtime.as_secs_f64();
        c.cross_host_pages = f.cross_host_pages;
        c.stranded_page_intervals = f.stranded_page_intervals;
    }
    c
}
