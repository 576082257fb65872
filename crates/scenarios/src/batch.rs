//! Resumable batch sweeps: run a manifest's cell matrix with per-cell
//! checkpointing, survive interrupts, and resume without redoing work.
//!
//! A sweep is the matrix [`dsl::expand_cells`] builds from a manifest's
//! axes. A cell of the optional overrides axis runs, scenario build
//! included, under the base configuration with that one field set. Each
//! completed cell appends one self-verifying record to a journal
//! (`journal.smj`) in the sweep directory:
//!
//! ```text
//! SMJ2 <payload-len> <fnv1a-64-hex> <payload>
//! ```
//!
//! The payload is tab-separated; the first record is a `header` pinning
//! the sweep's identity — an FNV-1a digest over the manifest source and
//! every referenced scenario/chaos file — so a journal can never silently
//! resume a *different* sweep. Cell records carry the result summary, the
//! cell's whole [`FaultLedger`] and a digest of the canonical
//! [`RunResult`] encoding ([`result_digest`]), which is what the
//! resume-equivalence suite pins. A journal of the older `SMJ1` format,
//! whose cells were seeded from their whole label, is refused.
//!
//! A cell is seeded by its rep alone ([`RunConfig::for_rep`], the figure
//! grid's rule), so cells that differ only in chaos profile or override
//! are paired, and a fault-free cell is the very run the figure grid
//! makes. Cells that differ in policy share the seed but not their
//! workload draws ([`RunConfig::for_rep`] says why). A scenario entry
//! resolves through [`dsl::resolve_scenario`]; one with more than one
//! host is refused, since a journal record holds one host's result.
//!
//! A complete sweep is judged by [`verdict`]: each faulty cell's per-VM
//! running time over its fault-free twin's stays within
//! [`DEGRADATION_BOUND`], and no cell violates a tmem invariant or leaves
//! an injected corruption undetected.
//!
//! On restart, [`run_sweep`] replays the journal: framed records that
//! fail the length or digest check (a mid-record kill, disk corruption)
//! are reported as warnings and their cells simply re-run — a torn
//! checkpoint costs one cell, never the sweep. Because every cell is
//! deterministic (seeded by its rep, executed through
//! [`crate::par::run_indexed`]), the final report and CSV are
//! byte-identical whether the sweep ran uninterrupted or was killed and
//! resumed any number of times, at any `--jobs` count.

use crate::chaos::DEGRADATION_BOUND;
use crate::config::RunConfig;
use crate::dsl::{self, expand_cells, CellId, Manifest, Override};
use crate::par::run_indexed;
use crate::runner::{run_cluster, ClusterConfig, RunResult};
use crate::spec::ScenarioSpec;
use sim_core::faults::{FaultLedger, FaultProfile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal file name inside a sweep directory.
pub const JOURNAL_FILE: &str = "journal.smj";
/// Human-readable report file name.
pub const REPORT_FILE: &str = "report.txt";
/// Per-cell CSV file name.
pub const CSV_FILE: &str = "cells.csv";

const MAGIC: &str = "SMJ2";
/// The format whose cells were seeded from their whole label: refused, so
/// a sweep never resumes with mixed seeds.
const OLD_MAGIC: &str = "SMJ1";

/// FNV-1a 64-bit hash — the journal's framing digest and the base of
/// every identity digest in this module.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Digest a [`RunResult`] over a canonical text encoding of every
/// deterministic field (times as nanoseconds, floats as IEEE-754 bit
/// patterns). Two runs of the same cell produce the same digest; the
/// resume-equivalence suite pins this across interrupts and job counts.
pub fn result_digest(r: &RunResult) -> u64 {
    let mut s = String::new();
    let _ = write!(
        s,
        "{}\x1f{}\x1f{}\x1f{}\x1f{}\x1f{}\x1f{}\x1f{}\x1f{}\x1f{}\x1f{}",
        r.scenario,
        r.policy,
        r.end_time.as_nanos(),
        r.events,
        r.truncated,
        r.mm_cycles,
        r.mm_transmissions,
        r.disk_reads,
        r.disk_writes,
        r.disk_read_wait.as_nanos(),
        r.disk_throttle.as_nanos(),
    );
    for used in &r.final_tmem_used {
        let _ = write!(s, "\x1fu{used}");
    }
    for vm in &r.vm_results {
        let _ = write!(s, "\x1fvm:{}:{}:{}", vm.name, vm.vm_id.0, vm.stopped_early);
        for run in &vm.runs {
            let _ = write!(
                s,
                "\x1fr:{}:{}:{}",
                run.workload,
                run.start.as_nanos(),
                run.end.map_or(-1i128, |e| i128::from(e.as_nanos()))
            );
        }
        for (label, t) in &vm.milestones {
            let _ = write!(s, "\x1fm:{label}:{}", t.as_nanos());
        }
        let k = &vm.kernel_stats;
        let _ = write!(
            s,
            "\x1fk:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}",
            k.minor_faults,
            k.tmem_faults,
            k.disk_faults,
            k.readahead_pages,
            k.evictions_to_tmem,
            k.evictions_to_disk,
            k.evictions_free,
            k.failed_puts,
            k.tmem_flushes,
            k.reclaimed_pages,
        );
    }
    s.push_str("\x1fl");
    for (_, v) in r.faults.fields() {
        let _ = write!(s, ":{v}");
    }
    if let Some(series) = &r.series {
        for (tag, group) in [("su", &series.used), ("st", &series.target)] {
            for ts in group {
                let _ = write!(s, "\x1f{tag}");
                for (t, v) in ts.points() {
                    let _ = write!(s, ":{}:{:016x}", t.as_nanos(), v.to_bits());
                }
            }
        }
    }
    fnv1a(s.as_bytes())
}

/// A fully-resolved sweep: the manifest, its scenario and chaos axes
/// loaded and validated, the per-cell run configuration, and the identity
/// digest that pins journals to this exact input set.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// The manifest as parsed.
    pub manifest: Manifest,
    /// Resolved scenario axis: `(label, cells)`, labels unique, one
    /// single-host [`dsl::resolve_scenario`] cell per
    /// [`SweepPlan::overrides`] entry (each built under its override).
    pub scenarios: Vec<(String, Vec<(ScenarioSpec, ClusterConfig)>)>,
    /// Resolved chaos axis: `(label, profile)`, `None` = fault-free.
    pub chaos: Vec<(String, Option<FaultProfile>)>,
    /// Resolved overrides axis: the manifest's entries, or `[None]` when
    /// it has none.
    pub overrides: Vec<Option<Override>>,
    /// Per-cell base configuration (manifest scale/seed; caller's jobs).
    pub cfg: RunConfig,
    /// FNV-1a digest over the manifest source and every referenced file.
    pub digest: u64,
}

impl SweepPlan {
    /// The expanded cell matrix, in journal/report order.
    pub fn cells(&self) -> Vec<CellId> {
        expand_cells(
            self.scenarios.len(),
            self.manifest.policies.len(),
            self.chaos.len(),
            self.overrides.len(),
            self.manifest.reps,
        )
    }

    /// The canonical label of one cell, as reports and verdicts name it:
    /// `scenario/policy/chaos/repN`, with the override inserted before the
    /// rep (`.../cost=ssd/rep0`) when the manifest has an overrides axis.
    pub fn cell_label(&self, cell: CellId) -> String {
        format!(
            "{}/{}/{}/{}rep{}",
            self.scenarios[cell.scenario].0,
            self.manifest.policies[cell.policy],
            self.chaos[cell.chaos].0,
            self.overrides[cell.over].map_or_else(String::new, |o| format!("{o}/")),
            cell.rep
        )
    }
}

fn with_override(cfg: &RunConfig, o: Option<Override>) -> RunConfig {
    let mut cfg = cfg.clone();
    if let Some(o) = o {
        o.apply(&mut cfg);
    }
    cfg
}

fn label_ok(label: &str) -> Result<(), String> {
    if label.contains(['\t', '\n', '/']) {
        return Err(format!(
            "label '{label}' contains a tab, newline or '/'; journal labels cannot"
        ));
    }
    Ok(())
}

/// Load a manifest from `path` and resolve every axis. `jobs` is the
/// parallelism the sweep will run with (execution-only: it never affects
/// results).
pub fn load_plan(path: &Path, jobs: usize) -> Result<SweepPlan, String> {
    let src = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let manifest = dsl::parse_manifest_src(&src).map_err(|e| format!("{}: {e}", path.display()))?;
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    resolve_plan(manifest, &src, dir, jobs)
}

/// Resolve a parsed manifest against `dir` (the directory scenario/chaos
/// paths are relative to). The identity digest covers `manifest_src` plus
/// the bytes of every referenced file, so editing any input invalidates
/// old journals instead of silently mixing results.
pub fn resolve_plan(
    manifest: Manifest,
    manifest_src: &str,
    dir: &Path,
    jobs: usize,
) -> Result<SweepPlan, String> {
    let cfg = RunConfig {
        scale: manifest.scale,
        seed: manifest.seed,
        jobs,
        ..RunConfig::default()
    };
    cfg.validate()?;

    let mut identity = String::new();
    let _ = write!(identity, "manifest\x1f{manifest_src}");

    let overrides: Vec<Option<Override>> = if manifest.overrides.is_empty() {
        vec![None]
    } else {
        manifest.overrides.iter().copied().map(Some).collect()
    };
    let configs: Vec<RunConfig> = overrides.iter().map(|&o| with_override(&cfg, o)).collect();

    let mut scenarios = Vec::with_capacity(manifest.scenarios.len());
    for entry in &manifest.scenarios {
        let cells = configs
            .iter()
            .map(|c| dsl::resolve_scenario(entry, dir, c))
            .collect::<Result<Vec<_>, _>>()?;
        let hosts = cells[0].1.hosts;
        if hosts > 1 {
            return Err(format!(
                "scenario '{entry}' runs on {hosts} hosts, but a sweep cell runs on one; \
                 run a multi-host cell with `smartmem-cli run`"
            ));
        }
        if entry.ends_with(".toml") {
            let src = fs::read_to_string(dir.join(entry)).expect("read by resolve_scenario");
            let _ = write!(identity, "\x1fscenario\x1f{src}");
        } else {
            let _ = write!(identity, "\x1fscenario\x1f{entry}");
        }
        let label = cells[0].0.name.clone();
        label_ok(&label)?;
        if scenarios.iter().any(|(l, _)| l == &label) {
            return Err(format!(
                "two scenario axis entries resolve to the same name '{label}'; \
                 journal cells would collide"
            ));
        }
        scenarios.push((label, cells));
    }

    let mut chaos = Vec::with_capacity(manifest.chaos.len());
    for entry in &manifest.chaos {
        let resolved = dsl::resolve_chaos(entry, dir)?;
        let label = match &resolved {
            None => "baseline".to_string(),
            Some(p) => p.name.clone(),
        };
        label_ok(&label)?;
        if entry.ends_with(".toml") {
            let src = fs::read_to_string(dir.join(entry)).expect("read by resolve_chaos");
            let _ = write!(identity, "\x1fchaos\x1f{src}");
        } else {
            let _ = write!(identity, "\x1fchaos\x1f{entry}");
        }
        if chaos.iter().any(|(l, _)| l == &label) {
            return Err(format!(
                "two chaos axis entries resolve to the same name '{label}'"
            ));
        }
        chaos.push((label, resolved.map(|p| p.profile)));
    }

    Ok(SweepPlan {
        digest: fnv1a(identity.as_bytes()),
        manifest,
        scenarios,
        chaos,
        overrides,
        cfg,
    })
}

/// One journaled cell: the label, the result digest, and the summary the
/// report/CSV are rebuilt from without re-running anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Position in the expanded matrix.
    pub index: usize,
    /// Scenario label.
    pub scenario: String,
    /// Policy display name.
    pub policy: String,
    /// Chaos label (`baseline` when fault-free).
    pub chaos: String,
    /// Override label (`cost=ssd`), empty when the manifest has no
    /// overrides axis.
    pub over: String,
    /// Repetition, 0-based.
    pub rep: u32,
    /// [`result_digest`] of the cell's `RunResult`.
    pub digest: u64,
    /// Scenario end time, nanoseconds.
    pub end_ns: u64,
    /// Events dispatched (determinism fingerprint).
    pub events: u64,
    /// MM cycles executed.
    pub mm_cycles: u64,
    /// Target transmissions sent.
    pub mm_transmissions: u64,
    /// Disk reads served.
    pub disk_reads: u64,
    /// Disk writes absorbed.
    pub disk_writes: u64,
    /// Per-VM total completed-run time, nanoseconds (0 for VMs whose runs
    /// were all stopped externally).
    pub vm_ns: Vec<u64>,
    /// The run's fault ledger: injections, degradation and the invariant
    /// and corruption audits.
    pub ledger: FaultLedger,
}

fn frame(payload: &str) -> String {
    debug_assert!(!payload.contains('\n'));
    format!(
        "{MAGIC} {} {:016x} {payload}\n",
        payload.len(),
        fnv1a(payload.as_bytes())
    )
}

fn unframe(line: &str) -> Result<&str, String> {
    let rest = line
        .strip_prefix(MAGIC)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or("not an SMJ2 record")?;
    let (len_s, rest) = rest.split_once(' ').ok_or("missing length field")?;
    let (fnv_s, payload) = rest.split_once(' ').ok_or("missing digest field")?;
    let len: usize = len_s
        .parse()
        .map_err(|_| format!("bad length field '{len_s}'"))?;
    if payload.len() != len {
        return Err(format!(
            "length mismatch: header says {len} bytes, found {} (truncated record?)",
            payload.len()
        ));
    }
    let fnv = u64::from_str_radix(fnv_s, 16).map_err(|_| format!("bad digest field '{fnv_s}'"))?;
    let actual = fnv1a(payload.as_bytes());
    if fnv != actual {
        return Err(format!(
            "digest mismatch: record says {fnv:016x}, payload hashes to {actual:016x} \
             (corrupted record?)"
        ));
    }
    Ok(payload)
}

fn join(values: impl IntoIterator<Item = u64>) -> String {
    values
        .into_iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn encode_cell(c: &CellRecord) -> String {
    format!(
        "cell\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        c.index,
        c.scenario,
        c.policy,
        c.chaos,
        c.over,
        c.rep,
        c.digest,
        c.end_ns,
        c.events,
        c.mm_cycles,
        c.mm_transmissions,
        c.disk_reads,
        c.disk_writes,
        join(c.vm_ns.iter().copied()),
        join(c.ledger.fields().map(|(_, v)| v)),
    )
}

fn decode_cell(payload: &str) -> Result<CellRecord, String> {
    let f: Vec<&str> = payload.split('\t').collect();
    if f.len() != 16 || f[0] != "cell" {
        return Err(format!("malformed cell record ({} fields)", f.len()));
    }
    let int = |s: &str, what: &str| -> Result<u64, String> {
        s.parse().map_err(|_| format!("bad {what} '{s}'"))
    };
    let list = |s: &str, what: &str| -> Result<Vec<u64>, String> {
        if s.is_empty() {
            return Ok(Vec::new());
        }
        s.split(',').map(|v| int(v, what)).collect()
    };
    let counts = list(f[15], "ledger count")?;
    let ledger = <[u64; FaultLedger::LEN]>::try_from(counts.as_slice()).map_err(|_| {
        format!(
            "ledger has {} counts, expected {}",
            counts.len(),
            FaultLedger::LEN
        )
    })?;
    Ok(CellRecord {
        index: int(f[1], "index")? as usize,
        scenario: f[2].to_string(),
        policy: f[3].to_string(),
        chaos: f[4].to_string(),
        over: f[5].to_string(),
        rep: int(f[6], "rep")? as u32,
        digest: u64::from_str_radix(f[7], 16).map_err(|_| format!("bad digest '{}'", f[7]))?,
        end_ns: int(f[8], "end_ns")?,
        events: int(f[9], "events")?,
        mm_cycles: int(f[10], "mm_cycles")?,
        mm_transmissions: int(f[11], "mm_transmissions")?,
        disk_reads: int(f[12], "disk_reads")?,
        disk_writes: int(f[13], "disk_writes")?,
        vm_ns: list(f[14], "vm time")?,
        ledger: FaultLedger::from_values(ledger),
    })
}

fn encode_header(plan: &SweepPlan, total: usize) -> String {
    format!(
        "header\t{}\t{:016x}\t{}\t{}\t{:016x}",
        plan.manifest.name,
        plan.digest,
        total,
        plan.manifest.seed,
        plan.manifest.scale.to_bits(),
    )
}

/// Journal replay: completed cells keyed by index, plus warnings for
/// every record that failed verification (those cells re-run).
struct Replay {
    done: BTreeMap<usize, CellRecord>,
    warnings: Vec<String>,
    /// The journal has a valid header for *this* sweep; append to it.
    header_ok: bool,
}

fn read_journal(path: &Path, plan: &SweepPlan, total: usize) -> Result<Replay, String> {
    let mut replay = Replay {
        done: BTreeMap::new(),
        warnings: Vec::new(),
        header_ok: false,
    };
    let src = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(replay),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    if src.starts_with(&format!("{OLD_MAGIC} ")) {
        return Err(format!(
            "{}: journal is in the old {OLD_MAGIC} format, whose cells were seeded \
             from their whole label; use a fresh --resume directory or delete the \
             stale journal",
            path.display()
        ));
    }
    let expected_header = encode_header(plan, total);
    for (i, line) in src.lines().enumerate() {
        let lineno = i + 1;
        let payload = match unframe(line) {
            Ok(p) => p,
            Err(e) => {
                replay.warnings.push(format!(
                    "journal line {lineno}: {e}; treating its cell as not done"
                ));
                continue;
            }
        };
        if i == 0 {
            if payload == expected_header {
                replay.header_ok = true;
                continue;
            }
            if let Some(rest) = payload.strip_prefix("header\t") {
                // A valid header for something else: refuse to mix sweeps.
                return Err(format!(
                    "{}: journal belongs to a different sweep or input set \
                     (header '{rest}'); use a fresh --resume directory or \
                     delete the stale journal",
                    path.display()
                ));
            }
            replay.warnings.push(format!(
                "journal line {lineno}: expected a header record; restarting the journal"
            ));
            return Ok(replay);
        }
        if !replay.header_ok {
            unreachable!("loop returns on line 1 unless the header matched");
        }
        match decode_cell(payload) {
            Ok(rec) if rec.index < total => {
                if let Some(prev) = replay.done.get(&rec.index) {
                    if *prev != rec {
                        replay.warnings.push(format!(
                            "journal line {lineno}: conflicting duplicate for cell \
                             {}; keeping the first record",
                            rec.index
                        ));
                    }
                } else {
                    replay.done.insert(rec.index, rec);
                }
            }
            Ok(rec) => replay.warnings.push(format!(
                "journal line {lineno}: cell index {} is outside this sweep's \
                 {total}-cell matrix; ignoring it",
                rec.index
            )),
            Err(e) => replay.warnings.push(format!(
                "journal line {lineno}: {e}; treating its cell as not done"
            )),
        }
    }
    Ok(replay)
}

/// Outcome of one [`run_sweep`] invocation.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Every known-complete cell, in matrix order. Covers the whole
    /// matrix iff [`SweepOutcome::complete`].
    pub records: Vec<CellRecord>,
    /// Cells executed by this invocation.
    pub ran: usize,
    /// Cells skipped because the journal already had them.
    pub resumed: usize,
    /// Matrix size.
    pub total: usize,
    /// Journal-replay warnings (corrupt/foreign records).
    pub warnings: Vec<String>,
}

impl SweepOutcome {
    /// Every cell of the matrix is done.
    pub fn complete(&self) -> bool {
        self.records.len() == self.total
    }
}

/// Run (or resume) a sweep in `dir`. Cells already journaled are skipped;
/// newly completed cells are appended and flushed one record at a time,
/// so a kill at any instant loses at most the cells in flight.
/// `stop_after` caps how many cells this invocation runs (the test
/// suite's in-process stand-in for a kill); `None` runs to completion.
pub fn run_sweep(
    plan: &SweepPlan,
    dir: &Path,
    stop_after: Option<usize>,
) -> Result<SweepOutcome, String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let jpath = dir.join(JOURNAL_FILE);
    let cells = plan.cells();
    let total = cells.len();
    let replay = read_journal(&jpath, plan, total)?;
    let mut done = replay.done;
    let warnings = replay.warnings;

    let file = if replay.header_ok {
        fs::OpenOptions::new()
            .append(true)
            .open(&jpath)
            .map_err(|e| format!("{}: {e}", jpath.display()))?
    } else {
        // Fresh (or unusable) journal: start over with a header record.
        done.clear();
        let mut f = fs::File::create(&jpath).map_err(|e| format!("{}: {e}", jpath.display()))?;
        f.write_all(frame(&encode_header(plan, total)).as_bytes())
            .map_err(|e| format!("{}: {e}", jpath.display()))?;
        f
    };
    let resumed = done.len();

    let grid: Vec<(usize, CellId)> = cells
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !done.contains_key(i))
        .take(stop_after.unwrap_or(usize::MAX))
        .collect();
    let ran = grid.len();

    let sink = Mutex::new((file, Vec::<String>::new()));
    let results = run_indexed(grid, plan.cfg.jobs, |_, (index, cell)| {
        let rec = run_cell(plan, index, cell);
        let line = frame(&encode_cell(&rec));
        let mut guard = sink.lock().expect("journal writer poisoned");
        let (f, errs) = &mut *guard;
        if let Err(e) = f.write_all(line.as_bytes()).and_then(|_| f.flush()) {
            errs.push(format!("journal append for cell {index}: {e}"));
        }
        rec
    });
    let (_, io_errors) = sink.into_inner().expect("journal writer poisoned");
    if let Some(e) = io_errors.into_iter().next() {
        return Err(e);
    }
    for rec in results {
        done.insert(rec.index, rec);
    }

    Ok(SweepOutcome {
        records: done.into_values().collect(),
        ran,
        resumed,
        total,
        warnings,
    })
}

fn run_cell(plan: &SweepPlan, index: usize, cell: CellId) -> CellRecord {
    let (scenario_label, cells) = &plan.scenarios[cell.scenario];
    let policy = plan.manifest.policies[cell.policy];
    let (chaos_label, faults) = &plan.chaos[cell.chaos];
    let over = plan.overrides[cell.over];
    let mut cfg = with_override(&plan.cfg, over).for_rep(u64::from(cell.rep));
    cfg.faults = faults.clone().unwrap_or_else(FaultProfile::none);
    let (spec, cluster) = &cells[cell.over];
    let r = run_cluster(spec.clone(), policy, &cfg, cluster)
        .host_results
        .pop()
        .expect("sweep cells run on one host");
    CellRecord {
        index,
        scenario: scenario_label.clone(),
        policy: policy.to_string(),
        chaos: chaos_label.clone(),
        over: over.map_or_else(String::new, |o| o.to_string()),
        rep: cell.rep,
        digest: result_digest(&r),
        end_ns: r.end_time.as_nanos(),
        events: r.events,
        mm_cycles: r.mm_cycles,
        mm_transmissions: r.mm_transmissions,
        disk_reads: r.disk_reads,
        disk_writes: r.disk_writes,
        vm_ns: r
            .vm_results
            .iter()
            .map(|vm| vm.completions().iter().map(|d| d.as_nanos()).sum())
            .collect(),
        ledger: r.faults,
    }
}

/// The chaos checks of a sweep, over its journaled records.
#[derive(Debug)]
pub struct Verdict {
    /// Per record, in record order: the worst per-VM ratio of the cell's
    /// running time over its fault-free twin's — the cell on the chaos
    /// axis's `none` entry with the same scenario, policy, override and
    /// rep. `None` for a fault-free cell or one without a twin.
    pub worst: Vec<Option<f64>>,
    /// One line per failed check, naming the cell.
    pub failures: Vec<String>,
}

impl Verdict {
    /// No check failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Injected page corruptions that no detection accounted for.
fn undetected(l: &FaultLedger) -> u64 {
    (l.bitflips_injected + l.torn_writes_injected).saturating_sub(l.corruptions_detected)
}

/// Each VM's running time in a cell: its completed runs, or the cell's end
/// time when none completed (a stopped scenario), so its ratio stays
/// meaningful.
fn vm_times(rec: &CellRecord) -> impl Iterator<Item = u64> + '_ {
    rec.vm_ns
        .iter()
        .map(|&ns| if ns > 0 { ns } else { rec.end_ns })
}

/// Judge `records` (in matrix order, as [`SweepOutcome::records`]):
/// every faulty cell's worst per-VM ratio stays within
/// [`DEGRADATION_BOUND`], and no cell has an invariant violation or an
/// undetected corruption.
pub fn verdict(plan: &SweepPlan, records: &[CellRecord]) -> Verdict {
    let cells = plan.cells();
    let fault_free = plan.chaos.iter().position(|(_, p)| p.is_none());
    let mut v = Verdict {
        worst: Vec::with_capacity(records.len()),
        failures: Vec::new(),
    };
    for rec in records {
        let cell = cells[rec.index];
        let label = plan.cell_label(cell);
        let twin = fault_free
            .filter(|&n| n != cell.chaos)
            .and_then(|n| cells.binary_search(&CellId { chaos: n, ..cell }).ok())
            .and_then(|i| records.binary_search_by_key(&i, |r| r.index).ok())
            .map(|j| &records[j]);
        let worst = twin.map(|twin| {
            vm_times(rec)
                .zip(vm_times(twin))
                .map(|(t, base)| t as f64 / base.max(1) as f64)
                .fold(0.0, f64::max)
        });
        if let Some(w) = worst.filter(|&w| w > DEGRADATION_BOUND) {
            v.failures.push(format!(
                "{label}: worst per-VM ratio {w:.3}x exceeds the {DEGRADATION_BOUND:.1}x bound"
            ));
        }
        if rec.ledger.invariant_violations > 0 {
            v.failures.push(format!(
                "{label}: {} invariant violation(s)",
                rec.ledger.invariant_violations
            ));
        }
        if undetected(&rec.ledger) > 0 {
            v.failures.push(format!(
                "{label}: {} undetected corruption(s)",
                undetected(&rec.ledger)
            ));
        }
        v.worst.push(worst);
    }
    v
}

/// Render the human-readable sweep report from journaled records only
/// (nothing re-runs). Byte-identical for identical record sets. A
/// complete sweep's report ends with its [`verdict`].
pub fn render_report(plan: &SweepPlan, out: &SweepOutcome) -> String {
    let m = &plan.manifest;
    let overrides = if m.overrides.is_empty() {
        String::new()
    } else {
        format!(" x {} overrides", m.overrides.len())
    };
    let mut s = format!(
        "sweep {} ({} cells: {} scenarios x {} policies x {} chaos{overrides} x {} reps, \
         scale {}, seed {})\n",
        m.name,
        out.total,
        plan.scenarios.len(),
        m.policies.len(),
        plan.chaos.len(),
        m.reps,
        m.scale,
        m.seed,
    );
    let cells = plan.cells();
    let v = verdict(plan, &out.records);
    for (rec, worst) in out.records.iter().zip(&v.worst) {
        let vm_total: u64 = rec.vm_ns.iter().sum();
        let worst = worst.map_or_else(String::new, |w| format!(" worst={w:.3}x"));
        let _ = writeln!(
            s,
            "[{:>3}] {}: end={:.6}s vm_time={:.6}s{worst} events={} injected={} digest={:016x}",
            rec.index,
            plan.cell_label(cells[rec.index]),
            rec.end_ns as f64 / 1e9,
            vm_total as f64 / 1e9,
            rec.events,
            rec.ledger.injected(),
            rec.digest,
        );
    }
    let _ = writeln!(
        s,
        "cells: {}/{} complete{}",
        out.records.len(),
        out.total,
        if out.complete() { "" } else { " (resumable)" }
    );
    if out.complete() {
        for f in &v.failures {
            let _ = writeln!(s, "fail: {f}");
        }
        let faulty: Vec<f64> = v.worst.iter().flatten().copied().collect();
        let ratios = if faulty.is_empty() {
            "0 chaos cells".to_string()
        } else {
            format!(
                "{} chaos cells, worst ratio {:.3}x, bound {DEGRADATION_BOUND:.1}x",
                faulty.len(),
                faulty.iter().copied().fold(0.0, f64::max)
            )
        };
        let _ = writeln!(
            s,
            "verdict: {} ({ratios}; {} invariant violations; {} undetected corruptions)",
            if v.passed() { "PASS" } else { "FAIL" },
            out.records
                .iter()
                .map(|r| r.ledger.invariant_violations)
                .sum::<u64>(),
            out.records
                .iter()
                .map(|r| undetected(&r.ledger))
                .sum::<u64>(),
        );
    }
    s
}

/// Render the per-cell CSV from journaled records: the run summary, the
/// cell's worst ratio (empty for a cell without a fault-free twin) and
/// every [`FaultLedger`] counter under its field name. The `override`
/// column is empty when the manifest has no overrides axis.
pub fn render_csv(plan: &SweepPlan, out: &SweepOutcome) -> String {
    let mut s = String::from(
        "index,scenario,policy,chaos,override,rep,digest,end_s,vm_time_s,worst_ratio,events,\
         mm_cycles,mm_transmissions,disk_reads,disk_writes,injected",
    );
    for (name, _) in FaultLedger::default().fields() {
        s.push(',');
        s.push_str(name);
    }
    s.push('\n');
    let v = verdict(plan, &out.records);
    for (rec, worst) in out.records.iter().zip(&v.worst) {
        let vm_total: u64 = rec.vm_ns.iter().sum();
        let _ = write!(
            s,
            "{},{},{},{},{},{},{:016x},{:.6},{:.6},{},{},{},{},{},{},{}",
            rec.index,
            rec.scenario,
            rec.policy,
            rec.chaos,
            rec.over,
            rec.rep,
            rec.digest,
            rec.end_ns as f64 / 1e9,
            vm_total as f64 / 1e9,
            worst.map_or_else(String::new, |w| format!("{w:.6}")),
            rec.events,
            rec.mm_cycles,
            rec.mm_transmissions,
            rec.disk_reads,
            rec.disk_writes,
            rec.ledger.injected(),
        );
        for (_, value) in rec.ledger.fields() {
            let _ = write!(s, ",{value}");
        }
        s.push('\n');
    }
    s
}

/// Write `report.txt` and `cells.csv` into the sweep directory, returning
/// their paths. Call only when the sweep is complete (asserted).
pub fn write_outputs(
    plan: &SweepPlan,
    dir: &Path,
    out: &SweepOutcome,
) -> Result<(PathBuf, PathBuf), String> {
    assert!(
        out.complete(),
        "outputs are only written for complete sweeps"
    );
    let report = dir.join(REPORT_FILE);
    let csv = dir.join(CSV_FILE);
    fs::write(&report, render_report(plan, out))
        .map_err(|e| format!("{}: {e}", report.display()))?;
    fs::write(&csv, render_csv(plan, out)).map_err(|e| format!("{}: {e}", csv.display()))?;
    Ok((report, csv))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn frame_round_trips_and_detects_tampering() {
        let line = frame("cell\t0\tx");
        let payload = unframe(line.trim_end()).unwrap();
        assert_eq!(payload, "cell\t0\tx");

        // Truncation (a torn write) fails the length check.
        let torn = &line[..line.len() - 3];
        assert!(unframe(torn.trim_end())
            .unwrap_err()
            .contains("length mismatch"));

        // A flipped payload byte fails the digest check.
        let corrupt = line.trim_end().replace("\tx", "\ty");
        assert!(unframe(&corrupt).unwrap_err().contains("digest mismatch"));

        assert!(unframe("garbage").unwrap_err().contains("not an SMJ2"));
    }

    /// A scenario1/greedy record at `index` on chaos label `chaos`.
    fn record(index: usize, chaos: &str, vm_ns: Vec<u64>) -> CellRecord {
        CellRecord {
            index,
            scenario: "scenario1".into(),
            policy: "greedy".into(),
            chaos: chaos.into(),
            over: String::new(),
            rep: 0,
            digest: 0xdead_beef_0123_4567,
            end_ns: 10,
            events: 99,
            mm_cycles: 10,
            mm_transmissions: 8,
            disk_reads: 1000,
            disk_writes: 2000,
            vm_ns,
            ledger: FaultLedger::default(),
        }
    }

    #[test]
    fn cell_records_encode_and_decode_exactly() {
        let mut rec = record(7, "sample-loss", vec![1, 2, 3]);
        rec.ledger.samples_dropped = 17;
        rec.ledger.migrate_spilled = 4;
        assert_eq!(decode_cell(&encode_cell(&rec)).unwrap(), rec);

        let empty_vms = CellRecord {
            vm_ns: Vec::new(),
            ..rec.clone()
        };
        assert_eq!(decode_cell(&encode_cell(&empty_vms)).unwrap(), empty_vms);

        // The override field is always written, empty or not.
        let with_override = CellRecord {
            over: "time_scale=0.5".into(),
            ..rec.clone()
        };
        for r in [&rec, &with_override] {
            assert_eq!(encode_cell(r).split('\t').count(), 16);
            assert_eq!(&decode_cell(&encode_cell(r)).unwrap(), r);
        }
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        assert!(decode_cell("cell\t1\tonly")
            .unwrap_err()
            .contains("malformed"));
        assert!(decode_cell("header\ta\tb")
            .unwrap_err()
            .contains("malformed"));
        let good = encode_cell(&record(0, "c", vec![10]));
        let bad = good.replace("\t10\t", "\tnope\t");
        assert!(decode_cell(&bad).unwrap_err().contains("bad end_ns"));
        let short = good.strip_suffix(",0").unwrap();
        assert!(decode_cell(short)
            .unwrap_err()
            .contains(&format!("expected {}", FaultLedger::LEN)));
    }

    /// A 3.5x VM, one invariant violation and one undetected corruption
    /// each fail the verdict, naming the cell.
    #[test]
    fn verdict_fails_and_names_each_broken_cell() {
        let src = "version = 1\n[sweep]\nname = \"v\"\nscenarios = [\"scenario1\"]\n\
                   policies = [\"greedy\"]\nchaos = [\"none\", \"sample-loss\", \"bitrot\"]\n";
        let manifest = dsl::parse_manifest_src(src).unwrap();
        let plan = resolve_plan(manifest, src, Path::new("."), 1).unwrap();
        let records = vec![
            record(0, "baseline", vec![4, 4, 0]),
            record(1, "sample-loss", vec![5, 4, 0]),
            record(2, "bitrot", vec![4, 2, 0]),
        ];
        let ok = verdict(&plan, &records);
        assert!(ok.passed(), "{:?}", ok.failures);
        assert_eq!(ok.worst, [None, Some(1.25), Some(1.0)]);

        let cell = "scenario1/greedy/sample-loss/rep0";
        let fails = |breaks: fn(&mut CellRecord), want: &str| {
            let mut bad = records.clone();
            breaks(&mut bad[1]);
            let v = verdict(&plan, &bad);
            assert!(!v.passed(), "{want}");
            assert_eq!(v.failures.len(), 1, "{:?}", v.failures);
            assert!(
                v.failures[0].starts_with(cell) && v.failures[0].contains(want),
                "{:?}",
                v.failures
            );
        };
        fails(|r| r.vm_ns[0] = 14, "worst per-VM ratio 3.500x");
        fails(
            |r| r.ledger.invariant_violations = 1,
            "1 invariant violation",
        );
        fails(
            |r| r.ledger.torn_writes_injected = 1,
            "1 undetected corruption",
        );
    }
}
