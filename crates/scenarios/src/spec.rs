//! The benchmark scenarios: Table II plus the fleet family.
//!
//! Each Table II scenario deploys three VMs with the paper's RAM/CPU
//! parameters and a per-VM *program* (a sequence of workload runs and
//! sleeps), plus start rules (fixed times or cross-VM milestone triggers)
//! and an optional global stop trigger — everything Table II specifies,
//! scaled by the run configuration. The four are defined once, in
//! `scenarios/{scenario1,scenario2,usemem,scenario3}.toml`;
//! [`build_scenario`] embeds those files and parses them with
//! [`crate::dsl`].
//!
//! [`ScenarioKind::Scenario5`] goes beyond the paper: a parameterized
//! fleet of 8–128 identical VMs with staggered arrivals and a mixed
//! `inmem`/`fileserver`/`usemem` workload population sized to millions of
//! logical sessions (ROADMAP item 1).

use crate::config::RunConfig;
use serde::{Deserialize, Serialize};
use sim_core::time::SimDuration;
use tmem::key::VmId;
use workloads::fileserver::FileServerConfig;
use workloads::graph::GraphAnalyticsConfig;
use workloads::inmem::InMemoryAnalyticsConfig;
use workloads::traits::Workload;
use workloads::usemem::UsememConfig;
use xen_sim::vm::VmConfig;

/// The four scenarios of Table II, plus the fleet family (Scenario 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// 3 × 1 GB VMs; in-memory-analytics twice with a 5 s sleep; 1 GB tmem.
    Scenario1,
    /// 3 × 512 MB VMs; graph-analytics once; VM3 starts 30 s later; 1 GB
    /// tmem.
    Scenario2,
    /// 3 × 512 MB VMs; usemem with cross-VM triggers; 384 MB tmem.
    UsememScenario,
    /// VM1/VM2 512 MB graph-analytics; VM3 1 GB in-memory-analytics 30 s
    /// later; 1 GB tmem.
    Scenario3,
    /// The fleet family: `vms` identical guests with per-VM footprints,
    /// staggered arrivals and a mixed workload population. Not in the
    /// paper (its evaluation tops out at 4 VMs); this is the ≥50-VM
    /// scale-out of ROADMAP item 1.
    Scenario5(FleetParams),
}

/// Which workloads a fleet's VMs run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadMix {
    /// Round-robin `inmem` / `fileserver` / `usemem` by VM index.
    Balanced,
    /// Every VM runs in-memory-analytics (frontswap-heavy).
    Analytics,
    /// Every VM runs the file server (cleancache-heavy).
    Serving,
    /// Every VM runs single-block usemem sized exactly to the footprint —
    /// the purest paging load, and the mix the peak-RSS guard uses.
    Paging,
}

impl WorkloadMix {
    /// Report name fragment.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadMix::Balanced => "balanced",
            WorkloadMix::Analytics => "analytics",
            WorkloadMix::Serving => "serving",
            WorkloadMix::Paging => "paging",
        }
    }
}

/// When a fleet's VMs come online.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arrival {
    /// All VMs start at t = 0.
    Simultaneous,
    /// VM `i` starts at `i × gap_ms` (time-scaled): a rolling deploy.
    Staggered {
        /// Gap between consecutive VM starts, in milliseconds.
        gap_ms: u32,
    },
}

/// Parameters of the Scenario-5 fleet family.
///
/// Unlike the Table II scenarios, fleet cells are *not* resized by
/// [`RunConfig::scale`] — `vms` and `footprint_mb` already say exactly how
/// big the cell is. Time scaling (`RunConfig::time_scale`) still applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetParams {
    /// Number of VMs to deploy (8–128 is the designed range).
    pub vms: u32,
    /// Per-VM workload footprint in MiB; VM RAM is 80% of this, so every
    /// guest runs under the paper's memory-pressure precondition.
    pub footprint_mb: u32,
    /// Workload population.
    pub mix: WorkloadMix,
    /// Arrival schedule.
    pub arrival: Arrival,
}

impl Default for FleetParams {
    /// The headline cell: 64 VMs × 512 MiB, balanced mix, 250 ms rolling
    /// arrivals.
    fn default() -> Self {
        FleetParams {
            vms: 64,
            footprint_mb: 512,
            mix: WorkloadMix::Balanced,
            arrival: Arrival::Staggered { gap_ms: 250 },
        }
    }
}

impl ScenarioKind {
    /// All paper scenarios, in paper order. (Fleet cells are parameterized,
    /// so they are constructed explicitly rather than enumerated.)
    pub const ALL: [ScenarioKind; 4] = [
        ScenarioKind::Scenario1,
        ScenarioKind::Scenario2,
        ScenarioKind::UsememScenario,
        ScenarioKind::Scenario3,
    ];

    /// Report name.
    pub fn name(&self) -> String {
        match self {
            ScenarioKind::Scenario1 => "scenario1".into(),
            ScenarioKind::Scenario2 => "scenario2".into(),
            ScenarioKind::UsememScenario => "usemem".into(),
            ScenarioKind::Scenario3 => "scenario3".into(),
            ScenarioKind::Scenario5(p) => {
                format!("scenario5-{}x{}mb-{}", p.vms, p.footprint_mb, p.mix.name())
            }
        }
    }

    /// The smart-alloc `P` values the paper evaluates for this scenario's
    /// running-time figure.
    pub fn paper_smart_ps(&self) -> &'static [f64] {
        match self {
            ScenarioKind::Scenario1 => &[0.25, 0.75, 2.0],
            ScenarioKind::Scenario2 => &[2.0, 6.0],
            ScenarioKind::UsememScenario => &[0.75, 2.0],
            ScenarioKind::Scenario3 => &[2.0, 4.0],
            ScenarioKind::Scenario5(_) => &[2.0],
        }
    }
}

/// What a VM executes, in order.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramStep {
    /// Run a workload to completion.
    Run(WorkloadSpec),
    /// Sleep for a fixed (already time-scaled) duration.
    Sleep(SimDuration),
}

/// Workload constructor parameters (kept as data so repetitions can reseed).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The usemem micro-benchmark.
    Usemem(UsememConfig),
    /// CloudSuite-equivalent in-memory-analytics.
    InMem(InMemoryAnalyticsConfig),
    /// CloudSuite-equivalent graph-analytics.
    Graph(GraphAnalyticsConfig),
    /// Zipf-popular static file serving (cleancache).
    FileServer(FileServerConfig),
}

impl WorkloadSpec {
    /// Instantiate the workload with its seed replaced by `seed` (each VM ×
    /// repetition gets an independent dataset).
    pub fn build(&self, seed: u64) -> Box<dyn Workload> {
        match self {
            WorkloadSpec::Usemem(c) => Box::new(workloads::usemem::Usemem::new(*c)),
            WorkloadSpec::InMem(c) => {
                let mut c = *c;
                c.seed = seed;
                Box::new(workloads::inmem::InMemoryAnalytics::new(c))
            }
            WorkloadSpec::Graph(c) => {
                let mut c = *c;
                c.seed = seed;
                Box::new(workloads::graph::GraphAnalytics::new(c))
            }
            WorkloadSpec::FileServer(c) => {
                let mut c = *c;
                c.seed = seed;
                Box::new(workloads::fileserver::FileServer::new(c))
            }
        }
    }
}

/// When a VM's program begins.
#[derive(Debug, Clone, PartialEq)]
pub enum StartRule {
    /// At a fixed instant.
    At(SimDuration),
    /// Once every listed `(vm_index, milestone_label)` has been observed.
    OnMilestonesAll(Vec<(usize, String)>),
}

/// One VM of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSpec {
    /// Hypervisor-facing configuration (RAM, vCPUs).
    pub config: VmConfig,
    /// The program to execute.
    pub program: Vec<ProgramStep>,
    /// When to begin.
    pub start: StartRule,
}

/// A fully-specified scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Report name: [`ScenarioKind::name`] for built-ins, the file's
    /// declared name for scenarios loaded from `.toml` files.
    pub name: String,
    /// tmem capacity enabled on the node, in bytes (already scaled).
    pub tmem_bytes: u64,
    /// The deployed VMs — 3 for the Table II scenarios, 8–128 for the
    /// fleet family.
    pub vms: Vec<VmSpec>,
    /// Stop every VM when this `(vm_index, milestone)` fires (the Usemem
    /// scenario's "stopped simultaneously when VM3 attempts to allocate
    /// 768 MB").
    pub stop_all_on: Option<(usize, String)>,
}

impl ScenarioSpec {
    /// tmem capacity in pages.
    pub fn tmem_pages(&self) -> u64 {
        self.tmem_bytes / 4096
    }

    /// Logical user sessions this spec simulates: one per in-memory
    /// analytics rating and one per file-server request. (Usemem and
    /// graph-analytics model batch jobs, not sessions.)
    pub fn logical_sessions(&self) -> u64 {
        self.vms
            .iter()
            .flat_map(|vm| &vm.program)
            .map(|step| match step {
                ProgramStep::Run(WorkloadSpec::InMem(c)) => c.n_ratings as u64,
                ProgramStep::Run(WorkloadSpec::FileServer(c)) => c.requests,
                _ => 0,
            })
            .sum()
    }

    /// Validate the spec, returning an actionable message on the first
    /// violation. Built-in Table II scenarios always pass; this guards
    /// customized specs (capacity sweeps, user-authored scenarios) before
    /// a runner consumes them.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario has an empty name; reports need one".into());
        }
        if self.vms.is_empty() {
            return Err("scenario deploys zero VMs; nothing would run".into());
        }
        if self.tmem_pages() == 0 {
            return Err(format!(
                "tmem_bytes = {} is less than one 4096-byte page; use \
                 PolicyKind::NoTmem to model a node without tmem",
                self.tmem_bytes
            ));
        }
        for (i, vm) in self.vms.iter().enumerate() {
            if vm.config.ram_pages() == 0 {
                return Err(format!(
                    "VM {} ({}) has zero pages of RAM",
                    i, vm.config.name
                ));
            }
            if vm.program.is_empty() {
                return Err(format!(
                    "VM {} ({}) has an empty program; it would never finish",
                    i, vm.config.name
                ));
            }
            let endless = vm.program.iter().any(|step| {
                matches!(step, ProgramStep::Run(WorkloadSpec::Usemem(c))
                    if c.max_steady_passes == u64::MAX)
            });
            if endless && self.stop_all_on.is_none() {
                return Err(format!(
                    "VM {} ({}) runs usemem with no pass count, which only a stop \
                     trigger ends, and the scenario has none; give the step a pass \
                     count (\"run usemem <start> <step> <max> <passes>\") or give the \
                     scenario a stop_on",
                    i, vm.config.name
                ));
            }
            if let StartRule::OnMilestonesAll(reqs) = &vm.start {
                for (src, label) in reqs {
                    if *src >= self.vms.len() {
                        return Err(format!(
                            "VM {} waits on milestone '{label}' of VM index \
                             {src}, but only {} VMs are deployed",
                            i,
                            self.vms.len()
                        ));
                    }
                    if *src == i {
                        return Err(format!(
                            "VM {i} waits on its own milestone '{label}'; it \
                             would never start"
                        ));
                    }
                }
            }
        }
        if let Some((vm, label)) = &self.stop_all_on {
            if *vm >= self.vms.len() {
                return Err(format!(
                    "stop_all_on references VM index {vm} (milestone \
                     '{label}'), but only {} VMs are deployed",
                    self.vms.len()
                ));
            }
        }
        Ok(())
    }
}

const MIB: u64 = 1 << 20;

/// The `alloc:<MiB>` milestone label usemem emits for its `k`-th block
/// (1-based) under `cfg`.
pub fn usemem_alloc_label(cfg: &UsememConfig, k: u64) -> String {
    let bytes = (cfg.start_bytes + (k - 1) * cfg.step_bytes).min(cfg.max_bytes);
    format!("alloc:{}", bytes >> 20)
}

/// Build a fleet cell: `p.vms` identical guests, each with 80% of the
/// workload footprint as RAM (the paper's pressure precondition), sharing
/// a tmem pool of a quarter of the aggregate footprint. Arrivals follow
/// `p.arrival`; the mix assigns workloads by VM index so the population is
/// stable under any VM count.
fn build_fleet(p: FleetParams, cfg: &RunConfig) -> ScenarioSpec {
    let n = p.vms.max(1);
    let fp = u64::from(p.footprint_mb.max(1)) * MIB;
    let ram = fp * 4 / 5;
    // One logical session per corpus page read, twice over: enough traffic
    // that the popular set cycles through cleancache several times.
    let fs_requests = 2 * fp / 4096;
    let inmem = || WorkloadSpec::InMem(InMemoryAnalyticsConfig::with_footprint(fp, 0));
    let fileserver =
        || WorkloadSpec::FileServer(FileServerConfig::with_footprint(fp, fs_requests, 0));
    // Ramping usemem (an eighth at a time) for the balanced mix; a single
    // footprint-sized block for the paging mix, where the page table must
    // stay exactly O(footprint) for the peak-RSS guard.
    let usemem = |single: bool| {
        let step = if single { fp } else { (fp / 8).max(4096) };
        WorkloadSpec::Usemem(UsememConfig {
            start_bytes: step,
            step_bytes: step,
            max_bytes: fp,
            compute_per_page: workloads::usemem::COMPUTE_PER_PAGE,
            max_steady_passes: 2,
        })
    };
    let vms = (0..n)
        .map(|i| {
            let workload = match p.mix {
                WorkloadMix::Analytics => inmem(),
                WorkloadMix::Serving => fileserver(),
                WorkloadMix::Paging => usemem(true),
                WorkloadMix::Balanced => match i % 3 {
                    0 => inmem(),
                    1 => fileserver(),
                    _ => usemem(false),
                },
            };
            let start = match p.arrival {
                Arrival::Simultaneous => SimDuration::ZERO,
                Arrival::Staggered { gap_ms } => {
                    cfg.scale_time(SimDuration::from_millis(u64::from(gap_ms) * u64::from(i)))
                }
            };
            VmSpec {
                config: VmConfig::new(VmId(i + 1), format!("VM{}", i + 1), ram, 1),
                program: vec![ProgramStep::Run(workload)],
                start: StartRule::At(start),
            }
        })
        .collect();
    ScenarioSpec {
        name: ScenarioKind::Scenario5(p).name(),
        tmem_bytes: (u64::from(n) * fp / 4).max(4 * 4096),
        vms,
        stop_all_on: None,
    }
}

/// Build a scenario spec: a Table II scenario from its shipped definition
/// in `scenarios/*.toml` (embedded at compile time, scaled by `cfg`), or a
/// fleet cell sized by its own [`FleetParams`].
pub fn build_scenario(kind: ScenarioKind, cfg: &RunConfig) -> ScenarioSpec {
    let src = match kind {
        ScenarioKind::Scenario5(p) => return build_fleet(p, cfg),
        ScenarioKind::Scenario1 => include_str!("../../../scenarios/scenario1.toml"),
        ScenarioKind::Scenario2 => include_str!("../../../scenarios/scenario2.toml"),
        ScenarioKind::UsememScenario => include_str!("../../../scenarios/usemem.toml"),
        ScenarioKind::Scenario3 => include_str!("../../../scenarios/scenario3.toml"),
    };
    crate::dsl::parse_scenario_src(src, cfg)
        .unwrap_or_else(|e| panic!("shipped {}.toml: {e}", kind.name()))
        .spec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RunConfig {
        RunConfig {
            scale: 1.0,
            ..RunConfig::default()
        }
    }

    /// Every Table II scenario, built from its embedded definition at
    /// 1.0, 0.125, 0.37 and 0.01. 0.37 is deliberately awkward:
    /// `scale_bytes` page rounding and `UsememConfig::paper`'s
    /// MiB-granular scaling both bite there.
    fn builtins_at_every_scale() -> Vec<(f64, ScenarioKind, ScenarioSpec)> {
        [1.0, 0.125, 0.37, 0.01]
            .into_iter()
            .flat_map(|scale| {
                let cfg = RunConfig {
                    scale,
                    ..RunConfig::default()
                };
                ScenarioKind::ALL.map(|kind| (scale, kind, build_scenario(kind, &cfg)))
            })
            .collect()
    }

    #[test]
    fn every_scenario_deploys_three_vms() {
        for (scale, kind, spec) in builtins_at_every_scale() {
            assert_eq!(spec.vms.len(), 3, "{kind:?} at scale {scale}");
            assert_eq!(spec.name, kind.name());
        }
    }

    #[test]
    fn scenario1_matches_table2() {
        let spec = build_scenario(ScenarioKind::Scenario1, &cfg());
        assert_eq!(spec.tmem_bytes, 1 << 30);
        for vm in &spec.vms {
            assert_eq!(vm.config.ram_bytes, 1 << 30);
            assert_eq!(vm.config.vcpus, 1);
            assert_eq!(vm.program.len(), 3, "run, sleep, run");
            assert!(
                matches!(vm.program[1], ProgramStep::Sleep(d) if d == SimDuration::from_secs(5))
            );
        }
    }

    #[test]
    fn scenario2_staggers_vm3_by_30s() {
        let spec = build_scenario(ScenarioKind::Scenario2, &cfg());
        assert!(matches!(spec.vms[0].start, StartRule::At(d) if d == SimDuration::ZERO));
        assert!(matches!(spec.vms[2].start, StartRule::At(d) if d == SimDuration::from_secs(30)));
        assert_eq!(spec.vms[0].config.ram_bytes, 512 << 20);
    }

    #[test]
    fn usemem_scenario_wires_cross_vm_triggers() {
        let spec = build_scenario(ScenarioKind::UsememScenario, &cfg());
        assert_eq!(spec.tmem_bytes, 384 << 20);
        match &spec.vms[2].start {
            StartRule::OnMilestonesAll(reqs) => {
                assert_eq!(
                    reqs,
                    &vec![(0, "alloc:640".to_string()), (1, "alloc:640".to_string())]
                );
            }
            other => panic!("unexpected start rule {other:?}"),
        }
        assert_eq!(spec.stop_all_on, Some((2, "alloc:768".to_string())));
    }

    #[test]
    fn scenario3_mixes_vm_sizes() {
        let spec = build_scenario(ScenarioKind::Scenario3, &cfg());
        assert_eq!(spec.vms[0].config.ram_bytes, 512 << 20);
        assert_eq!(spec.vms[2].config.ram_bytes, 1 << 30);
        assert!(matches!(
            spec.vms[2].program[0],
            ProgramStep::Run(WorkloadSpec::InMem(_))
        ));
    }

    #[test]
    fn scaling_shrinks_memory_and_triggers_consistently() {
        let half = RunConfig {
            scale: 0.25,
            ..RunConfig::default()
        };
        let spec = build_scenario(ScenarioKind::UsememScenario, &half);
        assert_eq!(spec.tmem_bytes, 96 << 20);
        match &spec.vms[2].start {
            StartRule::OnMilestonesAll(reqs) => {
                // 640 MB × 0.25 = 160 MB.
                assert_eq!(reqs[0].1, "alloc:160");
            }
            other => panic!("unexpected start rule {other:?}"),
        }
    }

    #[test]
    fn builtin_scenarios_validate_cleanly() {
        for (scale, kind, spec) in builtins_at_every_scale() {
            assert!(spec.validate().is_ok(), "{kind:?} at scale {scale}");
        }
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let mut spec = build_scenario(ScenarioKind::Scenario1, &cfg());
        spec.vms.clear();
        assert!(spec.validate().unwrap_err().contains("zero VMs"));

        let mut spec = build_scenario(ScenarioKind::Scenario1, &cfg());
        spec.tmem_bytes = 100;
        assert!(spec.validate().unwrap_err().contains("4096-byte page"));

        let mut spec = build_scenario(ScenarioKind::Scenario1, &cfg());
        spec.vms[1].program.clear();
        assert!(spec.validate().unwrap_err().contains("empty program"));

        let mut spec = build_scenario(ScenarioKind::UsememScenario, &cfg());
        spec.vms[2].start = StartRule::OnMilestonesAll(vec![(9, "alloc:640".into())]);
        assert!(spec.validate().unwrap_err().contains("only 3 VMs"));

        let mut spec = build_scenario(ScenarioKind::UsememScenario, &cfg());
        spec.vms[2].start = StartRule::OnMilestonesAll(vec![(2, "alloc:640".into())]);
        assert!(spec.validate().unwrap_err().contains("own milestone"));

        let mut spec = build_scenario(ScenarioKind::UsememScenario, &cfg());
        spec.stop_all_on = Some((7, "alloc:768".into()));
        assert!(spec.validate().unwrap_err().contains("stop_all_on"));

        let mut spec = build_scenario(ScenarioKind::UsememScenario, &cfg());
        spec.stop_all_on = None;
        assert!(spec
            .validate()
            .unwrap_err()
            .contains("VM 0 (VM1) runs usemem"));
    }

    fn fleet(vms: u32, footprint_mb: u32, mix: WorkloadMix, arrival: Arrival) -> FleetParams {
        FleetParams {
            vms,
            footprint_mb,
            mix,
            arrival,
        }
    }

    #[test]
    fn fleet_staggered_arrivals_are_strictly_ordered() {
        let p = fleet(
            8,
            64,
            WorkloadMix::Balanced,
            Arrival::Staggered { gap_ms: 250 },
        );
        let spec = build_scenario(ScenarioKind::Scenario5(p), &cfg());
        assert_eq!(spec.vms.len(), 8);
        let mut prev = None;
        for (i, vm) in spec.vms.iter().enumerate() {
            let StartRule::At(at) = vm.start else {
                panic!("fleet VMs start on the clock, not on milestones");
            };
            assert_eq!(
                at,
                SimDuration::from_millis(250 * i as u64),
                "VM{} must arrive exactly i × gap after t=0",
                i + 1
            );
            if let Some(p) = prev {
                assert!(at > p, "arrival order must be strictly increasing");
            }
            prev = Some(at);
        }
        // Simultaneous arrival collapses the schedule to t=0.
        let p0 = fleet(8, 64, WorkloadMix::Balanced, Arrival::Simultaneous);
        let spec0 = build_scenario(ScenarioKind::Scenario5(p0), &cfg());
        for vm in &spec0.vms {
            assert!(matches!(vm.start, StartRule::At(d) if d == SimDuration::ZERO));
        }
    }

    #[test]
    fn fleet_balanced_mix_round_robins_workloads() {
        let p = fleet(9, 64, WorkloadMix::Balanced, Arrival::Simultaneous);
        let spec = build_scenario(ScenarioKind::Scenario5(p), &cfg());
        for (i, vm) in spec.vms.iter().enumerate() {
            let ProgramStep::Run(w) = &vm.program[0] else {
                panic!("fleet programs are a single run");
            };
            match i % 3 {
                0 => assert!(matches!(w, WorkloadSpec::InMem(_)), "VM{}", i + 1),
                1 => assert!(matches!(w, WorkloadSpec::FileServer(_)), "VM{}", i + 1),
                _ => assert!(matches!(w, WorkloadSpec::Usemem(_)), "VM{}", i + 1),
            }
        }
    }

    #[test]
    fn fleet_keeps_the_pressure_precondition_and_validates() {
        for mix in [
            WorkloadMix::Balanced,
            WorkloadMix::Analytics,
            WorkloadMix::Serving,
            WorkloadMix::Paging,
        ] {
            let p = fleet(8, 128, mix, Arrival::Staggered { gap_ms: 100 });
            let spec = build_scenario(ScenarioKind::Scenario5(p), &cfg());
            assert!(spec.validate().is_ok(), "{mix:?}");
            let fp = 128 * MIB;
            assert_eq!(spec.tmem_bytes, 8 * fp / 4);
            for vm in &spec.vms {
                assert_eq!(vm.config.ram_bytes, fp * 4 / 5);
                match &vm.program[0] {
                    ProgramStep::Run(WorkloadSpec::InMem(c)) => {
                        assert!(c.footprint_bytes() > vm.config.ram_bytes)
                    }
                    ProgramStep::Run(WorkloadSpec::Usemem(c)) => {
                        assert!(c.max_bytes > vm.config.ram_bytes);
                        assert_ne!(c.max_steady_passes, u64::MAX, "fleet usemem terminates");
                    }
                    ProgramStep::Run(WorkloadSpec::FileServer(c)) => {
                        assert!(c.footprint_bytes() > fp / 4, "corpus exceeds its cache")
                    }
                    other => panic!("unexpected fleet program step {other:?}"),
                }
            }
        }
    }

    #[test]
    fn fleet_names_and_sessions_scale_with_parameters() {
        let p = FleetParams::default();
        assert_eq!(p.vms, 64);
        let spec = build_scenario(ScenarioKind::Scenario5(p), &cfg());
        assert_eq!(spec.name, "scenario5-64x512mb-balanced");
        assert!(
            spec.logical_sessions() > 1_000_000,
            "the headline fleet cell must simulate millions of sessions, got {}",
            spec.logical_sessions()
        );
        // The fleet is sized by its params, not by RunConfig::scale.
        let tiny_scale = RunConfig {
            scale: 0.01,
            ..RunConfig::default()
        };
        let same = build_scenario(ScenarioKind::Scenario5(p), &tiny_scale);
        assert_eq!(same.tmem_bytes, spec.tmem_bytes);
        assert_eq!(same.vms[0].config.ram_bytes, spec.vms[0].config.ram_bytes);
    }

    #[test]
    fn footprints_exceed_vm_ram() {
        // The pressure precondition of the whole evaluation: every
        // workload run needs more memory than its VM has.
        for (scale, kind, spec) in builtins_at_every_scale() {
            for vm in &spec.vms {
                let ram = vm.config.ram_bytes;
                for step in &vm.program {
                    let footprint = match step {
                        ProgramStep::Run(WorkloadSpec::InMem(c)) => c.footprint_bytes(),
                        ProgramStep::Run(WorkloadSpec::Graph(c)) => c.footprint_bytes(),
                        ProgramStep::Run(WorkloadSpec::Usemem(c)) => c.max_bytes,
                        _ => continue,
                    };
                    assert!(
                        footprint > ram,
                        "{kind:?} {} at scale {scale}: {footprint} <= {ram}",
                        vm.config.name
                    );
                }
            }
        }
    }
}
