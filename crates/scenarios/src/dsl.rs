//! The declarative scenario format: `.toml` scenarios, chaos profiles and
//! sweep manifests (ROADMAP item 2).
//!
//! Three file kinds share the [`crate::toml`] subset, all version-gated
//! with a root `version = 1`:
//!
//! **Scenario files** express everything [`ScenarioSpec`] can — VM sets
//! with programs and start rules, tmem capacity, cross-VM milestone
//! triggers — or, alternatively, a `[fleet]` cell by its
//! [`FleetParams`]. Sizes (`"512MiB"`) and durations (`"30s"`) are scaled
//! by the active [`RunConfig`]. The shipped Table II files are the only
//! definition of those scenarios: [`build_scenario`] embeds and parses
//! them, so `run usemem` and `run scenarios/usemem.toml` are the same
//! experiment.
//!
//! ```toml
//! version = 1
//! [scenario]
//! name = "scenario2"
//! tmem = "1GiB"
//! [[vm]]
//! count = 2
//! ram = "512MiB"
//! program = ["run graph 896MiB"]
//! [[vm]]
//! ram = "512MiB"
//! start = "30s"
//! program = ["run graph 896MiB"]
//! ```
//!
//! Program steps are strings: `run inmem <size>`, `run graph <size>`,
//! `run fileserver <size> <requests>`, `run usemem paper`,
//! `run usemem <start> <step> <max> [passes]`, `sleep <duration>`.
//! `run usemem paper`, and a usemem step without a pass count, traverse
//! until a stop trigger ends them, so a file may use them only when its
//! `[scenario]` has a `stop_on`.
//! Cross-VM rules are `start_on = ["vm1 block 5", ...]` (the label of the
//! named VM's k-th usemem allocation, computed scale-aware) or
//! `"vmN label <milestone>"` for a literal label; `[scenario]` may carry a
//! matching `stop_on`.
//!
//! A scenario file may additionally declare a `[cluster]` table — host
//! count, interconnect preset (`datacenter`/`commodity`), optional
//! per-host far-memory tier, and the fleet-scheduler migration knobs.
//!
//! **Cells.** [`resolve_scenario`] is the one place a scenario argument —
//! a Table II name, a `fleet:[<hosts>x]<vms>[:…]` spelling or a `.toml`
//! path — becomes the spec and topology [`crate::runner::run_cluster`]
//! takes. The CLI's `run`, `trace` and `bench` and a manifest's
//! scenario axis all read their scenarios through it.
//!
//! **Chaos files** name a [`FaultProfile`] field-by-field (the schema *is*
//! [`FaultProfile::PROB_FIELDS`] plus the crash pair and the data-plane
//! interval knobs `brownout_every` / `brownout_for` / `scrub_every`). The
//! shipped profiles are `scenarios/chaos/*.toml`, embedded by
//! [`shipped_profiles`].
//!
//! **Manifests** declare a sweep as axes that expand to a deterministic
//! permutation matrix, scenario-major to rep-minor ([`expand_cells`]);
//! the batch driver ([`crate::batch`]) journals one record per cell. An
//! optional `overrides` axis sets one [`RunConfig`] field per entry
//! ([`Override`]), for the ablations that vary the swap device, the
//! sampling interval or the slow-reclaim rate.
//!
//! Validation is strict: unknown tables and fields, bad literals,
//! duplicate axis entries and unsatisfiable milestone references are all
//! rejected with `line N:`-anchored messages, never panics.

use crate::chaos::{shipped_profiles, ChaosProfile};
use crate::config::RunConfig;
use crate::runner::ClusterConfig;
use crate::spec::{
    build_scenario, usemem_alloc_label, Arrival, FleetParams, ProgramStep, ScenarioKind,
    ScenarioSpec, StartRule, VmSpec, WorkloadMix, WorkloadSpec,
};
use crate::toml::{self, Table, TableReader, Value};
use sim_core::cost::CostModel;
use sim_core::faults::FaultProfile;
use sim_core::netmodel::NetModel;
use sim_core::time::SimDuration;
use smartmem_core::{FleetConfig, PolicyKind};
use std::path::Path;
use tmem::key::VmId;
use tmem::page::PAGE_SIZE;
use workloads::fileserver::FileServerConfig;
use workloads::graph::GraphAnalyticsConfig;
use workloads::inmem::InMemoryAnalyticsConfig;
use workloads::usemem::{self, UsememConfig};
use xen_sim::host::FarConfig;
use xen_sim::vm::VmConfig;

/// The one on-disk format version this build reads and writes.
pub const FORMAT_VERSION: i64 = 1;

// ---------------------------------------------------------------------------
// Shared vocabulary (also used by the CLI's positional arguments).
// ---------------------------------------------------------------------------

/// Parse a policy name (`no-tmem`, `greedy`, `static-alloc`,
/// `reconf-static`, `predictive`, `smart-alloc:<P>`).
pub fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    match s {
        "no-tmem" => Ok(PolicyKind::NoTmem),
        "greedy" => Ok(PolicyKind::Greedy),
        "static-alloc" => Ok(PolicyKind::StaticAlloc),
        "reconf-static" => Ok(PolicyKind::ReconfStatic),
        "predictive" => Ok(PolicyKind::Predictive),
        _ => {
            if let Some(p) = s.strip_prefix("smart-alloc:") {
                let p: f64 = p.parse().map_err(|e| format!("smart-alloc P: {e}"))?;
                Ok(PolicyKind::SmartAlloc { p })
            } else {
                Err(format!(
                    "unknown policy '{s}' (no-tmem, greedy, static-alloc, \
                     reconf-static, smart-alloc:<P>, predictive)"
                ))
            }
        }
    }
}

/// Parse a workload-mix name.
pub fn parse_mix(s: &str) -> Result<WorkloadMix, String> {
    match s {
        "balanced" => Ok(WorkloadMix::Balanced),
        "analytics" => Ok(WorkloadMix::Analytics),
        "serving" => Ok(WorkloadMix::Serving),
        "paging" => Ok(WorkloadMix::Paging),
        _ => Err(format!(
            "unknown workload mix '{s}' (balanced, analytics, serving, paging)"
        )),
    }
}

/// `fleet:<vms>[:<footprint_mb>[:<mix>[:<gap_ms>]]]` — unspecified parts
/// fall back to the headline defaults (512 MiB, balanced, 250 ms).
pub fn parse_fleet(s: &str) -> Result<FleetParams, String> {
    let mut p = FleetParams::default();
    let mut parts = s.split(':');
    let vms = parts.next().ok_or("fleet: needs a VM count")?;
    p.vms = vms
        .parse()
        .map_err(|e| format!("fleet VM count '{vms}': {e}"))?;
    if p.vms == 0 {
        return Err("fleet VM count must be at least 1".into());
    }
    if let Some(mb) = parts.next() {
        p.footprint_mb = mb
            .parse()
            .map_err(|e| format!("fleet footprint MiB '{mb}': {e}"))?;
        if p.footprint_mb == 0 {
            return Err("fleet footprint must be at least 1 MiB".into());
        }
    }
    if let Some(mix) = parts.next() {
        p.mix = parse_mix(mix)?;
    }
    if let Some(gap) = parts.next() {
        let gap_ms: u32 = gap
            .parse()
            .map_err(|e| format!("fleet arrival gap ms '{gap}': {e}"))?;
        p.arrival = if gap_ms == 0 {
            Arrival::Simultaneous
        } else {
            Arrival::Staggered { gap_ms }
        };
    }
    if let Some(extra) = parts.next() {
        return Err(format!(
            "fleet spec has a trailing part '{extra}' \
             (syntax: fleet:<vms>[:<footprint_mb>[:<mix>[:<gap_ms>]]])"
        ));
    }
    Ok(p)
}

/// Cluster-aware fleet spec: the first token may be `<hosts>x<vms>`
/// instead of a bare VM count (`fleet:2x32` = 32 VMs sharded over 2
/// hosts). Returns the cell parameters plus the host count (1 when the
/// token is a bare count).
pub fn parse_fleet_cluster(s: &str) -> Result<(FleetParams, usize), String> {
    let (first, rest) = match s.split_once(':') {
        Some((f, r)) => (f, Some(r)),
        None => (s, None),
    };
    let (hosts, vms_tok) = match first.split_once('x') {
        Some((h, v)) => {
            let hosts: usize = h
                .parse()
                .map_err(|e| format!("fleet host count '{h}': {e}"))?;
            if hosts == 0 {
                return Err("fleet host count must be at least 1".into());
            }
            (hosts, v)
        }
        None => (1, first),
    };
    let joined = match rest {
        Some(r) => format!("{vms_tok}:{r}"),
        None => vms_tok.to_string(),
    };
    Ok((parse_fleet(&joined)?, hosts))
}

/// Parse a built-in scenario name (`scenario1`, `scenario2`, `usemem`,
/// `scenario3`, `fleet:<params>`) with its host count: the `fleet:` family
/// also accepts a `<hosts>x<vms>` first token. Every other scenario is
/// single-host.
pub fn parse_kind_cluster(s: &str) -> Result<(ScenarioKind, usize), String> {
    let kind = match s {
        "scenario1" => ScenarioKind::Scenario1,
        "scenario2" => ScenarioKind::Scenario2,
        "usemem" => ScenarioKind::UsememScenario,
        "scenario3" => ScenarioKind::Scenario3,
        _ => {
            let params = s
                .strip_prefix("fleet:")
                .ok_or_else(|| format!("unknown scenario '{s}'"))?;
            let (p, hosts) = parse_fleet_cluster(params)?;
            return Ok((ScenarioKind::Scenario5(p), hosts));
        }
    };
    Ok((kind, 1))
}

/// Scenario display name of a cluster cell: the host count appears only
/// when the cluster actually has more than one host, so single-host runs
/// keep their historical (golden-pinned) names.
pub fn cluster_scenario_name(base: &str, hosts: usize) -> String {
    if hosts <= 1 {
        base.to_string()
    } else if let Some(rest) = base.strip_prefix("scenario5-") {
        // "scenario5-32x64mb-balanced" → "scenario5-2x32x64mb-balanced",
        // mirroring the `fleet:<hosts>x<vms>` spelling.
        format!("scenario5-{hosts}x{rest}")
    } else {
        format!("{base}-{hosts}hosts")
    }
}

/// Parse a size literal: an integer with an optional binary-unit suffix
/// (`B`, `KiB`, `MiB`, `GiB`, `TiB`); no suffix means bytes.
pub fn parse_size(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, mult) = if let Some(d) = s.strip_suffix("KiB") {
        (d, 1u64 << 10)
    } else if let Some(d) = s.strip_suffix("MiB") {
        (d, 1 << 20)
    } else if let Some(d) = s.strip_suffix("GiB") {
        (d, 1 << 30)
    } else if let Some(d) = s.strip_suffix("TiB") {
        (d, 1 << 40)
    } else if let Some(d) = s.strip_suffix('B') {
        (d, 1)
    } else {
        (s, 1)
    };
    let n: u64 = digits.trim().replace('_', "").parse().map_err(|_| {
        format!("cannot parse size '{s}' (examples: \"512MiB\", \"1GiB\", \"4096\")")
    })?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("size '{s}' overflows"))
}

/// Parse a duration literal: an integer with a unit (`ns`, `us`, `ms`,
/// `s`).
pub fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let s = s.trim();
    let (digits, unit): (&str, fn(u64) -> SimDuration) = if let Some(d) = s.strip_suffix("ns") {
        (d, SimDuration::from_nanos)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, SimDuration::from_micros)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, SimDuration::from_millis)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, SimDuration::from_secs)
    } else {
        return Err(format!(
            "duration '{s}' needs a unit (examples: \"5s\", \"250ms\", \"2us\")"
        ));
    };
    let n: u64 = digits
        .trim()
        .replace('_', "")
        .parse()
        .map_err(|_| format!("cannot parse duration '{s}'"))?;
    Ok(unit(n))
}

// ---------------------------------------------------------------------------
// Scenario files.
// ---------------------------------------------------------------------------

/// A parsed scenario file: the spec plus its declared topology.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDoc {
    /// The scenario, built against the `RunConfig` the parse was given.
    pub spec: ScenarioSpec,
    /// `[cluster]` topology, when the file declares one. `None` runs the
    /// classic single-host path.
    pub cluster: Option<ClusterConfig>,
}

fn check_version(reader: &mut TableReader<'_>) -> Result<(), String> {
    let v = reader.req("version")?;
    match v.value {
        Value::Int(n) if n == FORMAT_VERSION => Ok(()),
        Value::Int(n) => Err(format!(
            "line {}: unsupported format version {n} (this build reads version {FORMAT_VERSION})",
            v.line
        )),
        ref other => Err(format!(
            "line {}: version: expected an integer, got {}",
            v.line,
            other.type_name()
        )),
    }
}

fn known_tables(doc: &toml::Document, tables: &[&str], arrays: &[&str]) -> Result<(), String> {
    for (name, t) in &doc.tables {
        if !tables.contains(&name.as_str()) {
            return Err(format!("line {}: unknown table [{name}]", t.line));
        }
    }
    for (name, group) in &doc.arrays {
        if !arrays.contains(&name.as_str()) {
            let line = group.first().map_or(0, |t| t.line);
            return Err(format!("line {line}: unknown table [[{name}]]"));
        }
    }
    Ok(())
}

fn fleet_table(t: &Table) -> Result<FleetParams, String> {
    let mut r = TableReader::new("[fleet]", t);
    let vms = r.req_u64("vms")?;
    if vms == 0 {
        return Err(r.field_err("vms", "a fleet needs at least 1 VM"));
    }
    let vms = u32::try_from(vms).map_err(|_| r.field_err("vms", "too many VMs"))?;
    let footprint_mb = match r.opt_u64("footprint_mb")? {
        Some(0) => return Err(r.field_err("footprint_mb", "must be at least 1 MiB")),
        Some(n) => u32::try_from(n).map_err(|_| r.field_err("footprint_mb", "too large"))?,
        None => FleetParams::default().footprint_mb,
    };
    let mix = match r.opt_str("mix")? {
        Some(s) => parse_mix(&s).map_err(|e| r.field_err("mix", e))?,
        None => WorkloadMix::Balanced,
    };
    let arrival = match r.opt_u64("gap_ms")? {
        Some(0) => Arrival::Simultaneous,
        Some(n) => Arrival::Staggered {
            gap_ms: u32::try_from(n).map_err(|_| r.field_err("gap_ms", "too large"))?,
        },
        None => FleetParams::default().arrival,
    };
    r.finish()?;
    Ok(FleetParams {
        vms,
        footprint_mb,
        mix,
        arrival,
    })
}

/// `[cluster]` — the optional multi-host topology. `hosts` is required;
/// `net` names an interconnect preset (`datacenter`, `commodity`), `far`
/// sizes a per-host far-memory tier, and `migration = true` (or any of
/// the three scheduler tunables) turns on MM-driven VM migration.
fn cluster_table(t: &Table) -> Result<ClusterConfig, String> {
    let mut r = TableReader::new("[cluster]", t);
    let hosts = r.req_u64("hosts")?;
    if hosts == 0 {
        return Err(r.field_err("hosts", "a cluster needs at least 1 host"));
    }
    let hosts = usize::try_from(hosts).map_err(|_| r.field_err("hosts", "too many hosts"))?;
    let net = match r.opt_str("net")?.as_deref() {
        None | Some("datacenter") => NetModel::datacenter(),
        Some("commodity") => NetModel::commodity(),
        Some(other) => {
            return Err(r.field_err(
                "net",
                format!("unknown network preset '{other}' (datacenter, commodity)"),
            ))
        }
    };
    let far = match r.opt_str("far")? {
        Some(s) => {
            let bytes = parse_size(&s).map_err(|e| r.field_err("far", e))?;
            let pages = bytes / PAGE_SIZE as u64;
            if pages == 0 {
                return Err(r.field_err("far", "far tier is smaller than one page"));
            }
            Some(FarConfig {
                capacity_pages: pages,
            })
        }
        None => None,
    };
    let enabled = r.opt_bool("migration")?;
    let threshold = r.opt_f64("divergence_threshold")?;
    let cooldown = r.opt_u64("cooldown_intervals")?;
    let min_history = r.opt_u64("min_history")?;
    let tunables = threshold.is_some() || cooldown.is_some() || min_history.is_some();
    if enabled == Some(false) && tunables {
        return Err(r.field_err(
            "migration",
            "migration = false contradicts the migration tunables in this table",
        ));
    }
    let migration = if enabled.unwrap_or(false) || tunables {
        let mut f = FleetConfig::default();
        if let Some(v) = threshold {
            if !(v.is_finite() && v > 0.0) {
                return Err(r.field_err(
                    "divergence_threshold",
                    format!("must be a positive finite pressure ratio, got {v}"),
                ));
            }
            f.divergence_threshold = v;
        }
        if let Some(v) = cooldown {
            f.cooldown_intervals = v;
        }
        if let Some(v) = min_history {
            f.min_history = v;
        }
        Some(f)
    } else {
        None
    };
    r.finish()?;
    Ok(ClusterConfig {
        hosts,
        net,
        far,
        migration,
    })
}

/// One expanded VM awaiting milestone resolution: milestone start rules
/// reference other VMs, so they resolve after every VM exists.
struct PendingVm {
    config: VmConfig,
    program: Vec<ProgramStep>,
    /// `Ok` = resolved; `Err((rules, ctx))` = milestone strings to resolve.
    start: Result<StartRule, (Vec<String>, String)>,
}

fn program_step(
    step: &str,
    scale_b: &dyn Fn(u64) -> u64,
    scale_t: &dyn Fn(SimDuration) -> SimDuration,
    cfg: &RunConfig,
) -> Result<ProgramStep, String> {
    let toks: Vec<&str> = step.split_whitespace().collect();
    match toks.as_slice() {
        ["sleep", d] => Ok(ProgramStep::Sleep(scale_t(parse_duration(d)?))),
        ["run", "inmem", size] => Ok(ProgramStep::Run(WorkloadSpec::InMem(
            InMemoryAnalyticsConfig::with_footprint(scale_b(parse_size(size)?), 0),
        ))),
        ["run", "graph", size] => Ok(ProgramStep::Run(WorkloadSpec::Graph(
            GraphAnalyticsConfig::with_footprint(scale_b(parse_size(size)?), 0),
        ))),
        ["run", "fileserver", size, requests] => {
            let requests: u64 = requests
                .parse()
                .map_err(|_| format!("cannot parse request count '{requests}'"))?;
            Ok(ProgramStep::Run(WorkloadSpec::FileServer(
                FileServerConfig::with_footprint(scale_b(parse_size(size)?), requests, 0),
            )))
        }
        // The paper's exact usemem (128 MiB steps to 1 GiB, runs until
        // stopped), with its own MiB-granular scaling — byte-identical to
        // `UsememConfig::paper` at every scale.
        ["run", "usemem", "paper"] => Ok(ProgramStep::Run(WorkloadSpec::Usemem(
            UsememConfig::paper(cfg.scale),
        ))),
        ["run", "usemem", start, step_sz, max] | ["run", "usemem", start, step_sz, max, _] => {
            let passes = match toks.as_slice() {
                [.., p] if toks.len() == 6 => p
                    .parse()
                    .map_err(|_| format!("cannot parse steady-pass count '{p}'"))?,
                _ => u64::MAX,
            };
            Ok(ProgramStep::Run(WorkloadSpec::Usemem(UsememConfig {
                start_bytes: scale_b(parse_size(start)?),
                step_bytes: scale_b(parse_size(step_sz)?),
                max_bytes: scale_b(parse_size(max)?),
                compute_per_page: usemem::COMPUTE_PER_PAGE,
                max_steady_passes: passes,
            })))
        }
        _ => Err(format!(
            "cannot parse program step '{step}' (steps: \"run inmem <size>\", \
             \"run graph <size>\", \"run fileserver <size> <requests>\", \
             \"run usemem paper\", \"run usemem <start> <step> <max> [passes]\", \
             \"sleep <duration>\"; usemem may leave out the pass count, or run \
             \"paper\", only in a scenario with a stop_on)"
        )),
    }
}

/// Resolve one milestone rule string against the deployed VMs.
fn milestone(rule: &str, vms: &[PendingVm]) -> Result<(usize, String), String> {
    let toks: Vec<&str> = rule.split_whitespace().collect();
    let vm_tok = toks
        .first()
        .ok_or_else(|| "empty milestone rule".to_string())?;
    let n: usize = vm_tok
        .strip_prefix("vm")
        .and_then(|d| d.parse().ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("milestone rule '{rule}' must start with vm<N> (1-based)"))?;
    if n > vms.len() {
        return Err(format!(
            "milestone rule '{rule}' references vm{n}, but only {} VMs are deployed",
            vms.len()
        ));
    }
    let idx = n - 1;
    match toks.as_slice() {
        [_, "block", k] => {
            let k: u64 = k
                .parse()
                .ok()
                .filter(|&k| k >= 1)
                .ok_or_else(|| format!("'{rule}': block number must be a 1-based integer"))?;
            let ucfg = vms[idx].program.iter().find_map(|s| match s {
                ProgramStep::Run(WorkloadSpec::Usemem(c)) => Some(c),
                _ => None,
            });
            match ucfg {
                Some(c) => Ok((idx, usemem_alloc_label(c, k))),
                None => Err(format!(
                    "'{rule}': vm{n} runs no usemem, so it emits no block milestones \
                     (use \"vm{n} label <milestone>\" for other workloads)"
                )),
            }
        }
        [_, "label", l] => Ok((idx, (*l).to_string())),
        _ => Err(format!(
            "cannot parse milestone rule '{rule}' \
             (forms: \"vm<N> block <k>\", \"vm<N> label <milestone>\")"
        )),
    }
}

fn vm_scenario(doc: &toml::Document, cfg: &RunConfig) -> Result<ScenarioSpec, String> {
    let scenario_t = doc
        .table("scenario")
        .ok_or("scenario file needs a [scenario] table (or a [fleet] table)")?;
    let mut sr = TableReader::new("[scenario]", scenario_t);
    let name = sr.req_str("name")?;
    let tmem_str = sr.req_str("tmem")?;
    let scaled = sr.opt_bool("scaled")?.unwrap_or(true);
    let stop_on = sr.opt_str("stop_on")?;
    sr.finish()?;

    let scale_b = move |b: u64| if scaled { cfg.scale_bytes(b) } else { b };
    let scale_t = move |d: SimDuration| if scaled { cfg.scale_time(d) } else { d };
    let tmem_bytes = scale_b(
        parse_size(&tmem_str)
            .map_err(|e| format!("line {}: [scenario]: tmem: {e}", scenario_t.line))?,
    );

    let groups = doc.array("vm");
    if groups.is_empty() {
        return Err(format!(
            "line {}: [scenario] deploys no VMs (add [[vm]] tables)",
            scenario_t.line
        ));
    }
    let mut vms: Vec<PendingVm> = Vec::new();
    for (g, t) in groups.iter().enumerate() {
        let mut r = TableReader::new(format!("[[vm]] #{}", g + 1), t);
        let count = match r.opt_u64("count")? {
            Some(0) => return Err(r.field_err("count", "must be at least 1")),
            Some(n) => n,
            None => 1,
        };
        let ram = scale_b(parse_size(&r.req_str("ram")?).map_err(|e| r.field_err("ram", e))?);
        let vcpus = match r.opt_u64("vcpus")? {
            Some(0) => return Err(r.field_err("vcpus", "must be at least 1")),
            Some(n) => u32::try_from(n).map_err(|_| r.field_err("vcpus", "too large"))?,
            None => 1,
        };
        let custom_name = r.opt_str("name")?;
        if custom_name.is_some() && count > 1 {
            return Err(r.field_err(
                "name",
                "cannot name a multi-VM group (expanded VMs auto-name as VM<index>)",
            ));
        }
        let steps = r.req_str_array("program")?;
        if steps.is_empty() {
            return Err(r.field_err("program", "program is empty; the VM would never finish"));
        }
        let mut program = Vec::with_capacity(steps.len());
        for (i, s) in steps.iter().enumerate() {
            program.push(
                program_step(s, &scale_b, &scale_t, cfg)
                    .map_err(|e| r.field_err("program", format!("step {}: {e}", i + 1)))?,
            );
        }
        let start_at = r.opt_str("start")?;
        let start_on = r.opt_str_array("start_on")?;
        if start_at.is_some() && start_on.is_some() {
            return Err(r.field_err("start", "give 'start' or 'start_on', not both"));
        }
        let start = match (start_at, start_on) {
            (Some(d), None) => Ok(StartRule::At(scale_t(
                parse_duration(&d).map_err(|e| r.field_err("start", e))?,
            ))),
            (None, Some(rules)) => {
                if rules.is_empty() {
                    return Err(r.field_err("start_on", "milestone list is empty"));
                }
                Err((rules, r.field_err("start_on", "")))
            }
            (None, None) => Ok(StartRule::At(SimDuration::ZERO)),
            (Some(_), Some(_)) => unreachable!("rejected above"),
        };
        r.finish()?;
        for i in 0..count {
            let n = vms.len() as u32 + 1;
            let vm_name = match (&custom_name, i) {
                (Some(s), _) => s.clone(),
                _ => format!("VM{n}"),
            };
            vms.push(PendingVm {
                config: VmConfig::new(VmId(n), vm_name, ram, vcpus),
                program: program.clone(),
                start: start.clone(),
            });
        }
    }

    // Second pass: milestone rules can now see every deployed VM.
    let mut resolved = Vec::with_capacity(vms.len());
    for i in 0..vms.len() {
        let start = match &vms[i].start {
            Ok(rule) => rule.clone(),
            Err((rules, anchor)) => {
                let mut reqs = Vec::with_capacity(rules.len());
                for rule in rules {
                    reqs.push(milestone(rule, &vms).map_err(|e| format!("{anchor}{e}"))?);
                }
                StartRule::OnMilestonesAll(reqs)
            }
        };
        resolved.push(start);
    }
    let vms: Vec<VmSpec> = vms
        .into_iter()
        .zip(resolved)
        .map(|(vm, start)| VmSpec {
            config: vm.config,
            program: vm.program,
            start,
        })
        .collect();

    let stop_all_on = match stop_on {
        None => None,
        Some(rule) => {
            // `milestone` borrows PendingVm, so rebuild the minimal view.
            let view: Vec<PendingVm> = vms
                .iter()
                .map(|vm| PendingVm {
                    config: vm.config.clone(),
                    program: vm.program.clone(),
                    start: Ok(StartRule::At(SimDuration::ZERO)),
                })
                .collect();
            Some(
                milestone(&rule, &view)
                    .map_err(|e| format!("line {}: [scenario]: stop_on: {e}", scenario_t.line))?,
            )
        }
    };

    Ok(ScenarioSpec {
        name,
        tmem_bytes,
        vms,
        stop_all_on,
    })
}

/// Parse a scenario file from source. Sizes and durations are scaled by
/// `cfg` unless the file opts out with `scaled = false`. The spec is fully validated; all errors are
/// line-anchored.
pub fn parse_scenario_src(src: &str, cfg: &RunConfig) -> Result<ScenarioDoc, String> {
    let doc = toml::parse(src)?;
    let mut root = TableReader::new("top level", &doc.root);
    check_version(&mut root)?;
    root.finish()?;
    known_tables(&doc, &["scenario", "fleet", "cluster"], &["vm"])?;
    let cluster = match doc.table("cluster") {
        Some(t) => Some(cluster_table(t)?),
        None => None,
    };

    let mut spec = match doc.table("fleet") {
        Some(t) => {
            if doc.table("scenario").is_some() || !doc.array("vm").is_empty() {
                return Err(format!(
                    "line {}: a file declares either [fleet] or [scenario] + [[vm]], not both",
                    t.line
                ));
            }
            build_scenario(ScenarioKind::Scenario5(fleet_table(t)?), cfg)
        }
        None => vm_scenario(&doc, cfg)?,
    };
    // `validate` knows no lines; anchor its messages at the table that
    // declared the VMs.
    let table = doc.table("fleet").or(doc.table("scenario"));
    let line = table.map_or(1, |t| t.line);
    spec.validate().map_err(|e| format!("line {line}: {e}"))?;
    if let Some(c) = &cluster {
        spec.name = cluster_scenario_name(&spec.name, c.hosts);
    }
    Ok(ScenarioDoc { spec, cluster })
}

/// Read and parse a scenario file; errors are prefixed with the path.
pub fn load_scenario(path: &Path, cfg: &RunConfig) -> Result<ScenarioDoc, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_scenario_src(&src, cfg).map_err(|e| format!("{}: {e}", path.display()))
}

/// Resolve a scenario argument into the spec and topology
/// [`crate::runner::run_cluster`] takes, built against `cfg`:
///
/// - a `.toml` path (relative to `base_dir`) runs on its `[cluster]` table
///   as declared, or on one plain host without one;
/// - a multi-host `fleet:<hosts>x<vms>[:…]` cell runs on the datacenter
///   link with the fleet scheduler at its default tunables and a far tier
///   of a quarter of each host's tmem shard;
/// - any other [`parse_kind_cluster`] name runs on one plain host.
///
/// A multi-host cell's name carries its host count
/// ([`cluster_scenario_name`]).
pub fn resolve_scenario(
    arg: &str,
    base_dir: &Path,
    cfg: &RunConfig,
) -> Result<(ScenarioSpec, ClusterConfig), String> {
    if arg.ends_with(".toml") {
        let doc = load_scenario(&base_dir.join(arg), cfg)?;
        return Ok((doc.spec, doc.cluster.unwrap_or_default()));
    }
    let (kind, hosts) = parse_kind_cluster(arg)?;
    let mut spec = build_scenario(kind, cfg);
    if hosts == 1 {
        return Ok((spec, ClusterConfig::default()));
    }
    spec.name = cluster_scenario_name(&spec.name, hosts);
    let cluster = ClusterConfig {
        hosts,
        net: NetModel::datacenter(),
        far: Some(FarConfig {
            capacity_pages: (spec.tmem_pages() / hosts as u64 / 4).max(1),
        }),
        migration: Some(FleetConfig::default()),
    };
    Ok((spec, cluster))
}

// ---------------------------------------------------------------------------
// Chaos-profile files.
// ---------------------------------------------------------------------------

/// Parse a chaos-profile file: a `[chaos]` table whose fields are
/// [`FaultProfile::PROB_FIELDS`] plus the crash pair
/// (`mm_crash_at_cycle` / `mm_restart_after`) and the data-plane
/// interval knobs (`brownout_every` / `brownout_for` / `scrub_every`),
/// all optional.
pub fn parse_chaos_src(src: &str) -> Result<ChaosProfile, String> {
    let doc = toml::parse(src)?;
    let mut root = TableReader::new("top level", &doc.root);
    check_version(&mut root)?;
    root.finish()?;
    known_tables(&doc, &["chaos"], &[])?;
    let t = doc
        .table("chaos")
        .ok_or("chaos file needs a [chaos] table")?;
    let mut r = TableReader::new("[chaos]", t);
    let name = r.req_str("name")?;
    if name.is_empty() {
        return Err(r.field_err("name", "profile name is empty"));
    }
    let mut profile = FaultProfile::none();
    for field in FaultProfile::PROB_FIELDS {
        if let Some(v) = r.opt_f64(field)? {
            profile
                .set_prob(field, v)
                .map_err(|e| r.field_err(field, e))?;
        }
    }
    if let Some(c) = r.opt_u64("mm_crash_at_cycle")? {
        profile.mm_crash_at_cycle = Some(c);
    }
    if let Some(n) = r.opt_u64("mm_restart_after")? {
        profile.mm_restart_after = n;
    }
    if let Some(n) = r.opt_u64("brownout_every")? {
        profile.brownout_every = n;
    }
    if let Some(n) = r.opt_u64("brownout_for")? {
        profile.brownout_for = n;
    }
    if let Some(n) = r.opt_u64("scrub_every")? {
        profile.scrub_every = n;
    }
    profile
        .validate()
        .map_err(|e| format!("line {}: [chaos]: {e}", t.line))?;
    r.finish()?;
    Ok(ChaosProfile { name, profile })
}

/// Resolve a chaos axis entry: `none`/`off`/`baseline` → no faults, a
/// shipped profile name, or a `.toml` path (relative to `base_dir`).
pub fn resolve_chaos(entry: &str, base_dir: &Path) -> Result<Option<ChaosProfile>, String> {
    if matches!(entry, "none" | "off" | "baseline") {
        return Ok(None);
    }
    if let Some(p) = shipped_profiles().into_iter().find(|p| p.name == entry) {
        return Ok(Some(p));
    }
    if entry.ends_with(".toml") {
        let path = base_dir.join(entry);
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        return parse_chaos_src(&src)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()));
    }
    Err(format!(
        "unknown chaos profile '{entry}' (use 'none', a shipped profile [{}], or a .toml path)",
        shipped_profiles()
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ))
}

// ---------------------------------------------------------------------------
// Sweep manifests.
// ---------------------------------------------------------------------------

/// A parsed sweep manifest: axes as written, nothing resolved yet.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Sweep name: journal identity and report header.
    pub name: String,
    /// Scenario axis: `.toml` paths (relative to the manifest) or built-in
    /// names, in the [`resolve_scenario`] vocabulary.
    pub scenarios: Vec<String>,
    /// Policy axis.
    pub policies: Vec<PolicyKind>,
    /// Chaos axis entries ([`resolve_chaos`] vocabulary). Defaults to
    /// `["none"]`.
    pub chaos: Vec<String>,
    /// Overrides axis; empty when the manifest has none, in which case
    /// every cell runs the base configuration and its label has no
    /// override part.
    pub overrides: Vec<Override>,
    /// Repetitions per (scenario, policy, chaos) cell.
    pub reps: u32,
    /// Base seed; each cell runs at its rep's seed derived from it
    /// ([`RunConfig::for_rep`]).
    pub seed: u64,
    /// Memory scale for every cell.
    pub scale: f64,
}

/// Parse a manifest from source.
pub fn parse_manifest_src(src: &str) -> Result<Manifest, String> {
    let doc = toml::parse(src)?;
    let mut root = TableReader::new("top level", &doc.root);
    check_version(&mut root)?;
    root.finish()?;
    known_tables(&doc, &["sweep"], &[])?;
    let t = doc.table("sweep").ok_or("manifest needs a [sweep] table")?;
    let mut r = TableReader::new("[sweep]", t);
    let name = r.req_str("name")?;
    if name.is_empty() {
        return Err(r.field_err("name", "sweep name is empty"));
    }
    let scenarios = r.req_str_array("scenarios")?;
    if scenarios.is_empty() {
        return Err(r.field_err("scenarios", "scenario axis is empty"));
    }
    for (i, s) in scenarios.iter().enumerate() {
        if scenarios[..i].contains(s) {
            return Err(r.field_err("scenarios", format!("duplicate scenario '{s}'")));
        }
        if !s.ends_with(".toml") {
            parse_kind_cluster(s).map_err(|e| r.field_err("scenarios", e))?;
        }
    }
    let policy_names = r.req_str_array("policies")?;
    if policy_names.is_empty() {
        return Err(r.field_err("policies", "policy axis is empty"));
    }
    let mut policies = Vec::with_capacity(policy_names.len());
    for n in &policy_names {
        let p = parse_policy(n).map_err(|e| r.field_err("policies", e))?;
        if policies.contains(&p) {
            return Err(r.field_err("policies", format!("duplicate policy '{n}'")));
        }
        policies.push(p);
    }
    let chaos = match r.opt_str_array("chaos")? {
        Some(v) if v.is_empty() => {
            return Err(r.field_err("chaos", "chaos axis is empty (omit it for fault-free)"))
        }
        Some(v) => {
            for (i, c) in v.iter().enumerate() {
                if v[..i].contains(c) {
                    return Err(r.field_err("chaos", format!("duplicate chaos entry '{c}'")));
                }
            }
            v
        }
        None => vec!["none".to_string()],
    };
    let mut overrides = Vec::new();
    if let Some(entries) = r.opt_str_array("overrides")? {
        if entries.is_empty() {
            return Err(r.field_err(
                "overrides",
                "overrides axis is empty (omit it to run the base configuration)",
            ));
        }
        for e in &entries {
            let o = Override::parse(e).map_err(|msg| r.field_err("overrides", msg))?;
            if overrides.contains(&o) {
                return Err(r.field_err("overrides", format!("duplicate override '{e}'")));
            }
            overrides.push(o);
        }
    }
    let reps = match r.opt_u64("reps")? {
        Some(0) => return Err(r.field_err("reps", "must be at least 1")),
        Some(n) => u32::try_from(n).map_err(|_| r.field_err("reps", "too large"))?,
        None => 1,
    };
    let seed = r.opt_u64("seed")?.unwrap_or(RunConfig::default().seed);
    let scale = match r.opt_f64("scale")? {
        Some(s) if s.is_finite() && s > 0.0 => s,
        Some(s) => {
            return Err(r.field_err(
                "scale",
                format!("must be a positive finite number, got {s}"),
            ))
        }
        None => RunConfig::default().scale,
    };
    r.finish()?;
    Ok(Manifest {
        name,
        scenarios,
        policies,
        chaos,
        overrides,
        reps,
        seed,
        scale,
    })
}

/// Read and parse a manifest; errors are prefixed with the path.
pub fn load_manifest(path: &Path) -> Result<Manifest, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_manifest_src(&src).map_err(|e| format!("{}: {e}", path.display()))
}

/// A named latency preset.
type CostPreset = (&'static str, fn() -> CostModel);

/// The swap-device presets a `cost=` override names.
const COST_PRESETS: [CostPreset; 3] = [
    ("hdd", CostModel::hdd),
    ("ssd", CostModel::ssd),
    ("nvm", CostModel::nvm),
];

/// One `overrides` axis entry: a single [`RunConfig`] field set for the
/// whole cell, its scenario build included. Displays as the canonical
/// `key=value` it parses from, which is also its cell-label component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Override {
    /// `cost=hdd|ssd|nvm`: the [`RunConfig::cost`] preset.
    Cost(&'static str),
    /// `time_scale=<x>`: [`RunConfig::time_scale`], `x > 0`.
    TimeScale(f64),
    /// `reclaim_frac_per_interval=<f>`:
    /// [`RunConfig::reclaim_frac_per_interval`], `f` in [0, 1].
    ReclaimFrac(f64),
}

impl Override {
    /// Parse one `key=value` entry; values out of [`RunConfig::validate`]'s
    /// range are rejected here, not when the cell runs.
    pub fn parse(entry: &str) -> Result<Self, String> {
        let (key, value) = entry
            .split_once('=')
            .ok_or_else(|| format!("override '{entry}' is not key=value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{key}: '{value}' is not a number"))
        };
        let o = match key {
            "cost" => Override::Cost(
                COST_PRESETS
                    .iter()
                    .find(|(name, _)| *name == value)
                    .ok_or_else(|| format!("unknown cost preset '{value}' (use hdd, ssd or nvm)"))?
                    .0,
            ),
            "time_scale" => Override::TimeScale(number()?),
            "reclaim_frac_per_interval" => Override::ReclaimFrac(number()?),
            _ => {
                return Err(format!(
                    "unknown override key '{key}' (use cost, time_scale or \
                     reclaim_frac_per_interval)"
                ))
            }
        };
        let mut cfg = RunConfig::default();
        o.apply(&mut cfg);
        cfg.validate()?;
        Ok(o)
    }

    /// Set this override's field in `cfg`.
    pub fn apply(&self, cfg: &mut RunConfig) {
        match *self {
            Override::Cost(name) => {
                let (_, preset) = COST_PRESETS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .expect("Override::Cost holds a COST_PRESETS name");
                cfg.cost = preset();
            }
            Override::TimeScale(x) => cfg.time_scale = Some(x),
            Override::ReclaimFrac(f) => cfg.reclaim_frac_per_interval = f,
        }
    }
}

impl std::fmt::Display for Override {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Override::Cost(name) => write!(f, "cost={name}"),
            Override::TimeScale(x) => write!(f, "time_scale={x}"),
            Override::ReclaimFrac(x) => write!(f, "reclaim_frac_per_interval={x}"),
        }
    }
}

/// One cell of the expanded sweep matrix: indices into the manifest's
/// axes plus the repetition number (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellId {
    /// Scenario axis index.
    pub scenario: usize,
    /// Policy axis index.
    pub policy: usize,
    /// Chaos axis index.
    pub chaos: usize,
    /// Overrides axis index (0 when the manifest has none).
    pub over: usize,
    /// Repetition, 0-based.
    pub rep: u32,
}

/// Expand axis lengths to the full permutation matrix, scenario-major /
/// policy / chaos / overrides / rep-minor. The ordering is the journal's
/// cell numbering, so it must never change behind a format-version bump;
/// with one overrides entry it equals the four-axis numbering, which
/// keeps journals of manifests without the axis valid.
pub fn expand_cells(
    scenarios: usize,
    policies: usize,
    chaos: usize,
    overrides: usize,
    reps: u32,
) -> Vec<CellId> {
    let mut cells = Vec::with_capacity(scenarios * policies * chaos * overrides * reps as usize);
    for scenario in 0..scenarios {
        for policy in 0..policies {
            for c in 0..chaos {
                for over in 0..overrides {
                    for rep in 0..reps {
                        cells.push(CellId {
                            scenario,
                            policy,
                            chaos: c,
                            over,
                            rep,
                        });
                    }
                }
            }
        }
    }
    cells
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

    #[test]
    fn size_and_duration_literals() {
        assert_eq!(parse_size("4096").unwrap(), 4096);
        assert_eq!(parse_size("4KiB").unwrap(), 4096);
        assert_eq!(parse_size("512MiB").unwrap(), 512 << 20);
        assert_eq!(parse_size("1GiB").unwrap(), 1 << 30);
        assert_eq!(parse_size("1_280MiB").unwrap(), 1280 << 20);
        assert!(parse_size("1.5GiB").unwrap_err().contains("cannot parse"));
        assert_eq!(parse_duration("5s").unwrap(), SimDuration::from_secs(5));
        assert_eq!(
            parse_duration("250ms").unwrap(),
            SimDuration::from_millis(250)
        );
        assert!(parse_duration("5").unwrap_err().contains("needs a unit"));
    }

    #[test]
    fn minimal_scenario_parses() {
        let doc = parse_scenario_src(
            r#"
version = 1
[scenario]
name = "mini"
tmem = "64MiB"
[[vm]]
count = 2
ram = "32MiB"
program = ["run usemem 8MiB 8MiB 48MiB 2"]
"#,
            &cfg(),
        )
        .unwrap();
        assert_eq!(doc.spec.name, "mini");
        assert_eq!(doc.spec.tmem_bytes, 64 << 20);
        assert_eq!(doc.spec.vms.len(), 2);
        assert_eq!(doc.spec.vms[1].config.name, "VM2");
        assert!(doc.spec.validate().is_ok());
    }

    #[test]
    fn fleet_scenario_equals_constructor() {
        let doc = parse_scenario_src(
            "version = 1\n[fleet]\nvms = 8\nfootprint_mb = 64\nmix = \"balanced\"\ngap_ms = 250\n",
            &cfg(),
        )
        .unwrap();
        let p = FleetParams {
            vms: 8,
            footprint_mb: 64,
            mix: WorkloadMix::Balanced,
            arrival: Arrival::Staggered { gap_ms: 250 },
        };
        assert_eq!(doc.spec, build_scenario(ScenarioKind::Scenario5(p), &cfg()));
    }

    #[test]
    fn milestone_rules_resolve_against_usemem_blocks() {
        let doc = parse_scenario_src(
            r#"
version = 1
[scenario]
name = "trigger"
tmem = "384MiB"
stop_on = "vm3 block 6"
[[vm]]
count = 2
ram = "512MiB"
program = ["run usemem paper"]
[[vm]]
ram = "512MiB"
start_on = ["vm1 block 5", "vm2 block 5"]
program = ["run usemem paper"]
"#,
            &cfg(),
        )
        .unwrap();
        match &doc.spec.vms[2].start {
            StartRule::OnMilestonesAll(reqs) => assert_eq!(
                reqs,
                &vec![(0, "alloc:640".to_string()), (1, "alloc:640".to_string())]
            ),
            other => panic!("unexpected start rule {other:?}"),
        }
        assert_eq!(doc.spec.stop_all_on, Some((2, "alloc:768".to_string())));
    }

    #[test]
    fn rejections_are_field_anchored() {
        let c = cfg();
        for (src, needle) in [
            ("[scenario]\nname = \"x\"", "missing 'version'"),
            ("version = 2\n[scenario]\nname = \"x\"", "unsupported format version 2"),
            (
                "version = 1\n[scenario]\nname = \"x\"\ntmem = \"1GiB\"\nbogus = 1\n[[vm]]\nram = \"1GiB\"\nprogram = [\"sleep 1s\"]",
                "unknown field 'bogus'",
            ),
            (
                "version = 1\n[fleet]\nvms = 0",
                "vms: a fleet needs at least 1 VM",
            ),
            (
                "version = 1\n[fleet]\nvms = 4\nmix = \"chaotic\"",
                "unknown workload mix 'chaotic'",
            ),
            (
                "version = 1\n[scenario]\nname = \"x\"\ntmem = \"1GiB\"\n[[vm]]\ncount = 0\nram = \"1GiB\"\nprogram = [\"sleep 1s\"]",
                "count: must be at least 1",
            ),
            (
                "version = 1\n[scenario]\nname = \"x\"\ntmem = \"1GiB\"\n[[vm]]\nram = \"1GiB\"\nprogram = [\"dance\"]",
                "cannot parse program step 'dance'",
            ),
            (
                "version = 1\n[scenario]\nname = \"x\"\ntmem = \"1GiB\"\n[[vm]]\nram = \"1GiB\"\nprogram = [\"sleep 1s\"]\nstart_on = [\"vm9 block 1\"]",
                "references vm9",
            ),
            (
                "version = 1\n[scenario]\nname = \"x\"\ntmem = \"1GiB\"\n[[vm]]\nram = \"1GiB\"\nprogram = [\"sleep 1s\"]\nstart_on = [\"vm1 block 1\"]",
                "runs no usemem",
            ),
            (
                "version = 1\n[mystery]\nx = 1",
                "unknown table [mystery]",
            ),
            (
                "version = 1\n[scenario]\nname = \"x\"\ntmem = \"64MiB\"\n[[vm]]\nram = \"64MiB\"\nprogram = [\"run usemem 16MiB 16MiB 96MiB\"]",
                "VM 0 (VM1) runs usemem with no pass count",
            ),
            (
                "version = 1\n[scenario]\nname = \"x\"\ntmem = \"64MiB\"\n[[vm]]\nram = \"512MiB\"\nprogram = [\"run usemem paper\"]",
                "VM 0 (VM1) runs usemem with no pass count",
            ),
        ] {
            let e = parse_scenario_src(src, &c).unwrap_err();
            assert!(e.contains(needle), "for {src:?}:\n  got: {e}");
            assert!(e.contains("line "), "not line-anchored for {src:?}: {e}");
        }
    }

    #[test]
    fn fleet_cluster_spelling_parses() {
        let (p, hosts) = parse_fleet_cluster("2x32").unwrap();
        assert_eq!(hosts, 2);
        assert_eq!(p.vms, 32);
        let (p, hosts) = parse_fleet_cluster("4x16:128:paging:100").unwrap();
        assert_eq!(hosts, 4);
        assert_eq!(p.vms, 16);
        assert_eq!(p.footprint_mb, 128);
        assert_eq!(p.mix, WorkloadMix::Paging);
        assert_eq!(p.arrival, Arrival::Staggered { gap_ms: 100 });
        // A bare count is a 1-host cluster — the classic spelling.
        let (p, hosts) = parse_fleet_cluster("16").unwrap();
        assert_eq!((p.vms, hosts), (16, 1));
        assert!(parse_fleet_cluster("0x8").is_err(), "zero hosts");
        assert!(parse_fleet_cluster("2x0").is_err(), "zero VMs");
        assert!(parse_fleet_cluster("x8").is_err(), "empty host count");

        let (kind, hosts) = parse_kind_cluster("fleet:2x32").unwrap();
        assert_eq!(hosts, 2);
        assert_eq!(
            kind,
            ScenarioKind::Scenario5(FleetParams {
                vms: 32,
                ..FleetParams::default()
            })
        );
        assert_eq!(parse_kind_cluster("scenario1").unwrap().1, 1);
    }

    #[test]
    fn resolve_scenario_owns_the_topology() {
        let c = cfg();
        let here = Path::new("");
        let (spec, cluster) = resolve_scenario("fleet:8:64", here, &c).unwrap();
        assert_eq!(cluster, ClusterConfig::default());
        assert_eq!(spec.name, "scenario5-8x64mb-balanced");

        let (spec, cluster) = resolve_scenario("fleet:2x32:128", here, &c).unwrap();
        assert_eq!(spec.name, "scenario5-2x32x128mb-balanced");
        assert_eq!(
            cluster,
            ClusterConfig {
                hosts: 2,
                net: NetModel::datacenter(),
                far: Some(FarConfig {
                    capacity_pages: spec.tmem_pages() / 2 / 4
                }),
                migration: Some(FleetConfig::default()),
            }
        );

        let dir = std::env::temp_dir().join(format!("smartmem-dsl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = "version = 1\n[fleet]\nvms = 6\nfootprint_mb = 8\n\
                   [cluster]\nhosts = 3\nnet = \"commodity\"\nfar = \"4MiB\"\n";
        std::fs::write(dir.join("trio.toml"), src).unwrap();
        let resolved = resolve_scenario("trio.toml", &dir, &c);
        std::fs::remove_dir_all(&dir).ok();
        let (spec, cluster) = resolved.unwrap();
        let declared = parse_scenario_src(src, &c).unwrap().cluster;
        assert_eq!(Some(cluster), declared, "the table as declared");
        assert_eq!(spec.name, "scenario5-3x6x8mb-balanced");

        let e = resolve_scenario("scenario9", here, &c).unwrap_err();
        assert!(e.contains("'scenario9'"), "{e}");
        let e = resolve_scenario("no/such/cell.toml", here, &c).unwrap_err();
        assert!(e.starts_with("no/such/cell.toml: "), "{e}");
    }

    #[test]
    fn cluster_names_include_hosts_only_when_plural() {
        assert_eq!(
            cluster_scenario_name("scenario5-32x64mb-balanced", 1),
            "scenario5-32x64mb-balanced"
        );
        assert_eq!(
            cluster_scenario_name("scenario5-32x64mb-balanced", 2),
            "scenario5-2x32x64mb-balanced"
        );
        assert_eq!(cluster_scenario_name("mini", 3), "mini-3hosts");
    }

    #[test]
    fn cluster_table_parses_and_validates() {
        let doc = parse_scenario_src(
            "version = 1\n[fleet]\nvms = 8\nfootprint_mb = 64\n\
             [cluster]\nhosts = 2\nnet = \"commodity\"\nfar = \"4MiB\"\nmigration = true\n",
            &cfg(),
        )
        .unwrap();
        let c = doc.cluster.expect("[cluster] was declared");
        assert_eq!(c.hosts, 2);
        assert_eq!(c.net, NetModel::commodity());
        assert_eq!(
            c.far,
            Some(FarConfig {
                capacity_pages: (4 << 20) / PAGE_SIZE as u64
            })
        );
        assert_eq!(c.migration, Some(FleetConfig::default()));
        assert_eq!(doc.spec.name, "scenario5-2x8x64mb-balanced");

        // Tunables imply migration; omitting everything disables it.
        let doc = parse_scenario_src(
            "version = 1\n[fleet]\nvms = 8\n[cluster]\nhosts = 2\n\
             divergence_threshold = 0.5\ncooldown_intervals = 2\nmin_history = 1\n",
            &cfg(),
        )
        .unwrap();
        assert_eq!(
            doc.cluster.unwrap().migration,
            Some(FleetConfig {
                divergence_threshold: 0.5,
                cooldown_intervals: 2,
                min_history: 1,
            })
        );
        let doc = parse_scenario_src(
            "version = 1\n[fleet]\nvms = 8\n[cluster]\nhosts = 3\n",
            &cfg(),
        )
        .unwrap();
        let c = doc.cluster.unwrap();
        assert_eq!(c.net, NetModel::datacenter(), "datacenter is the default");
        assert_eq!(c.far, None);
        assert_eq!(c.migration, None);

        for (src, needle) in [
            (
                "version = 1\n[fleet]\nvms = 8\n[cluster]\nhosts = 0\n",
                "at least 1 host",
            ),
            (
                "version = 1\n[fleet]\nvms = 8\n[cluster]\nhosts = 2\nnet = \"carrier-pigeon\"\n",
                "unknown network preset",
            ),
            (
                "version = 1\n[fleet]\nvms = 8\n[cluster]\nhosts = 2\nfar = \"12B\"\n",
                "smaller than one page",
            ),
            (
                "version = 1\n[fleet]\nvms = 8\n[cluster]\nhosts = 2\nmigration = false\nmin_history = 1\n",
                "contradicts",
            ),
            (
                "version = 1\n[fleet]\nvms = 8\n[cluster]\nhosts = 2\ndivergence_threshold = -0.5\n",
                "positive finite",
            ),
            (
                "version = 1\n[fleet]\nvms = 8\n[cluster]\nhosts = 2\nwarp = 9\n",
                "unknown field 'warp'",
            ),
        ] {
            let e = parse_scenario_src(src, &cfg()).unwrap_err();
            assert!(e.contains(needle), "for {src:?}:\n  got: {e}");
        }
    }

    #[test]
    fn chaos_rejects_unknown_fields_and_bad_probabilities() {
        let e =
            parse_chaos_src("version = 1\n[chaos]\nname = \"x\"\nvirq_flood = 0.5\n").unwrap_err();
        assert!(e.contains("unknown field 'virq_flood'"), "{e}");
        let e =
            parse_chaos_src("version = 1\n[chaos]\nname = \"x\"\nvirq_drop = 1.5\n").unwrap_err();
        assert!(e.contains("virq_drop"), "{e}");
        assert!(e.contains("line 4"), "{e}");
        // Data-plane probabilities go through the same [0, 1] gate.
        let e = parse_chaos_src("version = 1\n[chaos]\nname = \"x\"\npage_bitflip = 1.5\n")
            .unwrap_err();
        assert!(e.contains("page_bitflip"), "{e}");
        assert!(e.contains("line 4"), "{e}");
        // Interval knobs are validated too: a brownout window without a
        // period is meaningless.
        let e =
            parse_chaos_src("version = 1\n[chaos]\nname = \"x\"\nbrownout_for = 2\n").unwrap_err();
        assert!(e.contains("brownout_for"), "{e}");
    }

    #[test]
    fn manifest_parses_and_rejects_duplicates() {
        let m = parse_manifest_src(
            r#"
version = 1
[sweep]
name = "smoke"
scenarios = ["scenario1", "mini.toml"]
policies = ["greedy", "smart-alloc:2"]
chaos = ["none", "sample-loss"]
reps = 2
seed = 7
scale = 0.05
"#,
        )
        .unwrap();
        assert_eq!(m.name, "smoke");
        assert_eq!(m.policies.len(), 2);
        assert_eq!(m.reps, 2);
        assert_eq!(m.seed, 7);

        let e = parse_manifest_src(
            "version = 1\n[sweep]\nname = \"x\"\nscenarios = [\"scenario1\"]\n\
             policies = [\"greedy\", \"greedy\"]\n",
        )
        .unwrap_err();
        assert!(e.contains("duplicate policy 'greedy'"), "{e}");
        assert!(e.contains("line 5"), "{e}");
    }

    #[test]
    fn expansion_is_the_full_ordered_matrix() {
        let cells = expand_cells(2, 3, 2, 1, 2);
        assert_eq!(cells.len(), 24);
        let mut sorted = cells.clone();
        sorted.sort();
        assert_eq!(cells, sorted, "expansion is ordered");
        sorted.dedup();
        assert_eq!(sorted.len(), 24, "no duplicates");
        assert_eq!(
            cells[0],
            CellId {
                scenario: 0,
                policy: 0,
                chaos: 0,
                over: 0,
                rep: 0
            }
        );
        assert_eq!(cells[1].rep, 1, "rep is the minor axis");
    }
}
