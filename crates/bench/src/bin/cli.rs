//! `smartmem-cli` — regenerate any table or figure of the paper.
//!
//! ```text
//! smartmem-cli table2 [--scale S]
//! smartmem-cli fig <3|4|5|6|7|8|9|10> [--scale S] [--reps N] [--seed S] [--out DIR] [--jobs N]
//! smartmem-cli all [--scale S] [--reps N] [--seed S] [--out DIR] [--jobs N]
//! smartmem-cli run <SCENARIO> <policy> [--scale S] [--seed S] [--chaos PROFILE]
//! smartmem-cli bench [--scale S] [--seed S] [--out DIR]
//! smartmem-cli trace <SCENARIO> <policy> [--scale S] [--seed S] [--chaos PROFILE] [--out trace.jsonl] [--filter subsys=a,b]
//! smartmem-cli inspect <trace.jsonl>
//! smartmem-cli sweep <manifest.toml> [--resume DIR] [--jobs N] [--stop-after N]
//! ```
//!
//! A flag a command does not read is an error, not a silent no-op.
//!
//! `SCENARIO` means what it means on a manifest's scenario axis: both are
//! read by [`scenarios::dsl::resolve_scenario`]. It is a Table II cell
//! (`scenario1`, `scenario2`, `usemem`, `scenario3`), a parameterized fleet
//! cell `fleet:[<hosts>x]<vms>[:<footprint_mb>[:<mix>[:<gap_ms>]]]`, e.g.
//! `fleet:64`, `fleet:32:256:paging`, `fleet:16:128:balanced:0` (gap 0 =
//! simultaneous arrivals; mixes `balanced`, `analytics`, `serving`,
//! `paging`), or a scenario file such as `scenarios/usemem.toml`. A
//! `<hosts>x<vms>` count (`fleet:2x32`) makes a multi-host cluster: tmem
//! sharded across the hosts, the fleet scheduler migrating VMs at its
//! default tunables, and a far tier of a quarter of each host's shard. A
//! file's `[cluster]` table declares its own topology. `run` prints a
//! multi-host cell's per-host results and its fleet report. A fleet name's
//! size is its name: `run` and `trace` refuse `--scale` on it (spell the
//! per-VM footprint as `fleet:<vms>:<mb>` instead); a file takes
//! `--scale`. `--chaos` takes what a manifest's chaos axis takes: a shipped
//! fault profile, a `.toml` profile file, or `none`/`off`/`baseline` for a
//! fault-free run.
//!
//! Policies: `no-tmem`, `greedy`, `static-alloc`, `reconf-static`,
//! `smart-alloc:<P>` (e.g. `smart-alloc:0.75`), `predictive`.
//!
//! `bench` runs the [`smartmem_bench::harness`] parts — the fleet cells
//! (`fleet:2x8` … `fleet:64`) first, then the paired tmem datapath micros,
//! then the figure set's jobs 1/2/4/8 sweep at a fixed scale — printing
//! each result as it lands, and writes one versioned `BENCH.json` to
//! `--out` (default `.`). `--scale` sizes only the fleet cells' per-VM
//! footprint off the 512 MiB headline cell (default 0.125 → 64 MiB — a
//! smoke pass; use `--scale 1` for the headline numbers). It exits
//! non-zero after writing the file when fewer than 2 cores make the jobs
//! curve invalid.
//!
//! `--jobs N` sets the number of worker threads the experiment grids fan
//! out over (default: all available cores). Output is byte-identical at
//! any job count; `--jobs 1` forces the serial engine.
//!
//! `sweep` expands a manifest's `scenarios × policies × chaos ×
//! overrides × reps` matrix (scale, seed and reps come from the manifest,
//! not from flags) and runs it with per-cell checkpointing: every
//! finished cell is journaled, so a killed sweep rerun with the same
//! `--resume DIR` picks up where it stopped and produces byte-identical
//! outputs. `--stop-after N` caps how many cells one invocation runs
//! (useful for exercising resume). A sweep cell runs on one host, so a
//! multi-host scenario entry is refused. A complete sweep writes
//! `report.txt` and `cells.csv`, then exits non-zero when its verdict
//! fails: a faulty cell slower than [`scenarios::chaos::DEGRADATION_BOUND`]
//! times its fault-free twin on some VM, a tmem accounting invariant
//! violation, or an injected corruption left undetected. The chaos grid is
//! the manifest `scenarios/chaos-grid.toml`.
//!
//! Every `print!`/`println!` goes through [`write_stdout`]: when the
//! reader closes stdout early (`| head -1`), the process exits 0 quietly.
//!
//! `trace` runs one cell with every host's flight recorder attached,
//! prints each host's trace summary, replays each host's event stream
//! (migration events included) through the [`scenarios::trace_check`]
//! verifier and prints the verdict, and (with `--out FILE`) writes host 0's
//! trace as JSONL to FILE and host N's to `FILE.hostN`. `--filter
//! subsys=tmem,mm` restricts the *written* file to those subsystems; the
//! recorder always records (and the verifier always replays) everything.
//! `inspect` reads a JSONL trace back and prints the same summary with the
//! transmitted target-vector timeline. The summary is one fold of the
//! events, [`scenarios::trace_check::TraceFold`]: per-VM
//! admission/reject/evict counts, the nonzero fault-ledger counters, the
//! MM decisions and transmissions and relay sheds, and the fold's
//! injected-vs-observed fault checks. A trace whose ring dropped its
//! oldest events is summarized as the tail it is, without the checks.

use scenarios::batch;
use scenarios::chaos;
use scenarios::config::RunConfig;
use scenarios::dsl;
use scenarios::figures;
use scenarios::report;
use scenarios::runner::{run_cluster, ClusterConfig, RunResult};
use scenarios::spec::{ScenarioKind, ScenarioSpec};
use scenarios::trace_check::{self, FaultCheck, Pairing, TraceFold};
use sim_core::trace::{
    self, FaultKind, Payload, PutResult, Subsystem, TraceConfig, TraceData, TraceEvent, TraceHeader,
};
use smartmem_bench::harness;
use smartmem_core::PolicyKind;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// These shadow the std macros for the whole file, so every write to stdout
// takes the one closed-pipe path in `write_stdout`.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write to stdout. A reader that went away (`EPIPE`) ends the process
/// with status 0 and nothing on stderr; any other write error fails it.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

#[derive(Debug)]
struct Args {
    scale: f64,
    reps: u64,
    seed: u64,
    out: Option<PathBuf>,
    jobs: usize,
    /// Subsystem restriction for the JSONL written by `trace --out`.
    filter: Option<Vec<Subsystem>>,
    /// Chaos profile to inject during `run` or `trace`; `None` when the
    /// flag is absent or names a fault-free cell (`none`, `off`,
    /// `baseline`).
    chaos: Option<chaos::ChaosProfile>,
    /// Sweep checkpoint directory (`sweep --resume`).
    resume: Option<PathBuf>,
    /// Cap on cells one `sweep` invocation runs (resume/CI kill stand-in).
    stop_after: Option<usize>,
}

/// The flags each command reads; [`parse_flags`] rejects any other.
fn command_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "table2" => &["--scale"],
        "fig" | "all" => &["--scale", "--reps", "--seed", "--out", "--jobs"],
        "run" => &["--scale", "--seed", "--chaos"],
        "bench" => &["--scale", "--seed", "--out"],
        "trace" => &["--scale", "--seed", "--chaos", "--out", "--filter"],
        "sweep" => &["--resume", "--jobs", "--stop-after"],
        _ => &[],
    }
}

fn parse_flags(cmd: &str, rest: &[String]) -> Result<Args, String> {
    let accepted = command_flags(cmd);
    let mut args = Args {
        scale: 0.125,
        reps: 3,
        seed: 42,
        out: None,
        jobs: scenarios::par::default_jobs(),
        filter: None,
        chaos: None,
        resume: None,
        stop_after: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if !accepted.contains(&flag.as_str()) {
            let hint = if cmd == "sweep" {
                "; the manifest's [sweep] table sets scale, seed and reps"
            } else {
                ""
            };
            return Err(format!(
                "{cmd} does not take {flag} (it reads {}){hint}",
                accepted.join(" ")
            ));
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--scale" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--scale: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--scale must be a positive finite number, got {s}"));
                }
                args.scale = s;
            }
            "--reps" => {
                let r: u64 = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if r == 0 {
                    return Err("--reps must be at least 1 (0 repetitions produce no data)".into());
                }
                args.reps = r;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--jobs" => {
                let n: usize = value()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1 (use --jobs 1 for a serial run)".into());
                }
                args.jobs = n;
            }
            "--chaos" => args.chaos = dsl::resolve_chaos(&value()?, Path::new(""))?,
            "--resume" => args.resume = Some(PathBuf::from(value()?)),
            "--stop-after" => {
                let n: usize = value()?.parse().map_err(|e| format!("--stop-after: {e}"))?;
                args.stop_after = Some(n);
            }
            "--filter" => {
                let v = value()?;
                let list = v
                    .strip_prefix("subsys=")
                    .ok_or_else(|| format!("--filter expects subsys=<name,name,...>, got '{v}'"))?;
                args.filter = Some(trace::parse_subsystem_filter(list)?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run_config(a: &Args) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        scale: a.scale,
        seed: a.seed,
        jobs: a.jobs,
        ..RunConfig::default()
    };
    if let Some(p) = &a.chaos {
        cfg.faults = p.profile.clone();
    }
    cfg.validate()?;
    Ok(cfg)
}

/// Whether `flag` was given on the command line, as opposed to left at its
/// default.
fn flag_given(flags: &[String], flag: &str) -> bool {
    flags.iter().any(|s| s == flag)
}

/// `run` and `trace` size a `fleet` name by the name itself: `--scale`
/// would only rescale its time base, so an explicit `--scale` is refused
/// with the spelling that does resize the cell. A scenario file takes it.
fn refuse_fleet_scale(cmd: &str, scenario: &str, flags: &[String]) -> Result<(), String> {
    let fleet = matches!(
        dsl::parse_kind_cluster(scenario),
        Ok((ScenarioKind::Scenario5(_), _))
    );
    if fleet && flag_given(flags, "--scale") {
        return Err(format!(
            "{cmd} does not take --scale on a fleet: cell (its size is in its name); \
             set the per-VM footprint with fleet:<vms>:<mb>, e.g. fleet:8:16, or \
             fleet:<hosts>x<vms>:<mb> for a cluster"
        ));
    }
    Ok(())
}

fn emit_bars(fig: figures::FigureData, out: &Option<PathBuf>) -> Result<(), String> {
    print!("{}", report::render_bars(&fig));
    if let Some(dir) = out {
        let p = report::write_bars_csv(&fig, dir)
            .map_err(|e| format!("writing {} CSV under {}: {e}", fig.id, dir.display()))?;
        println!("csv: {}", p.display());
    }
    Ok(())
}

fn emit_series(fig: figures::SeriesFigure, out: &Option<PathBuf>) -> Result<(), String> {
    print!("{}", report::render_series(&fig, 24));
    if let Some(dir) = out {
        let p = report::write_series_csv(&fig, dir)
            .map_err(|e| format!("writing {} CSV under {}: {e}", fig.id, dir.display()))?;
        println!("csv: {}", p.display());
    }
    Ok(())
}

fn figure(n: u32, a: &Args) -> Result<(), String> {
    let cfg = run_config(a)?;
    match n {
        3 => emit_bars(figures::fig3(&cfg, a.reps), &a.out),
        4 => emit_series(figures::fig4(&cfg), &a.out),
        5 => emit_bars(figures::fig5(&cfg, a.reps), &a.out),
        6 => emit_series(figures::fig6(&cfg), &a.out),
        7 => emit_bars(figures::fig7(&cfg, a.reps), &a.out),
        8 => emit_series(figures::fig8(&cfg), &a.out),
        9 => emit_bars(figures::fig9(&cfg, a.reps), &a.out),
        10 => emit_series(figures::fig10(&cfg), &a.out),
        other => Err(format!("no figure {other} in the paper's evaluation")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) => dispatch(cmd, rest),
        None => Err("usage: smartmem-cli <table2|fig N|all|run SCENARIO POLICY|\
             bench|trace SCENARIO POLICY|inspect FILE|sweep MANIFEST> [flags]"
            .into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `bench`: run the [`harness`] parts, printing each result as it lands,
/// and write `BENCH.json` under `--out`. Fails after writing the file when
/// the jobs curve is invalid.
fn bench_cmd(a: &Args) -> Result<(), String> {
    println!("== bench — fleet cells, tmem datapath micros, figure-set jobs sweep ==");
    let doc = harness::run(a.scale, a.seed, |line| println!("{line}"))?;
    let path = harness::write(&doc, a.out.as_deref().unwrap_or(Path::new(".")))?;
    println!("perf record: {}", path.display());
    match harness::jobs_warning() {
        Some(w) => Err(format!("jobs-scaling sweep invalid — {w}")),
        None => Ok(()),
    }
}

/// `trace`: run one (scenario × policy) cell with every host's flight
/// recorder attached, print each host's trace summary ([`print_summary`],
/// under `-- host N --` on a cluster), replay-verify the event streams
/// against the live accounting (migration events included), print the
/// fleet report of a cluster, and (with `--out FILE`) write host 0's JSONL
/// to FILE and host N's to `FILE.hostN`.
fn trace_cmd(
    spec: ScenarioSpec,
    cluster: &ClusterConfig,
    policy: PolicyKind,
    mut cfg: RunConfig,
    a: &Args,
) -> Result<(), String> {
    if a.filter.is_some() && a.out.is_none() {
        return Err(
            "--filter only shapes the JSONL written by --out; add --out FILE (the \
             recorder itself always records every subsystem)"
                .into(),
        );
    }
    // The replay verifier checks the occupancy series point-by-point, so
    // record it; series recording never changes simulation outcomes.
    cfg.record_series = true;
    cfg.trace = Some(TraceConfig::default());
    let hosts = cluster.hosts;
    let cr = run_cluster(spec, policy, &cfg, cluster);
    let head = &cr.host_results[0];
    let topology = if hosts > 1 {
        format!("{hosts} hosts, ")
    } else {
        String::new()
    };
    println!(
        "== trace {} / {} ({topology}scale {}, seed {}, chaos {}) ==",
        head.scenario,
        head.policy,
        a.scale,
        a.seed,
        a.chaos.as_ref().map_or("off", |p| p.name.as_str()),
    );
    let traces: Vec<&TraceData> = cr
        .host_results
        .iter()
        .map(|r| {
            r.trace
                .as_ref()
                .expect("trace was configured, so every host extracts one")
        })
        .collect();
    for (h, data) in traces.iter().enumerate() {
        if hosts > 1 {
            println!("-- host {h} --");
        }
        // The replay below runs the same checks and gives the verdict.
        print_summary(&data.events, data.dropped_oldest, None, false);
    }

    match trace_check::verify_cluster(&cr.host_results) {
        Ok(rep) if rep.ok() => {
            println!(
                "replay: PASS — {} checks over {} events re-derived the live accounting",
                rep.checks, rep.events
            );
        }
        Ok(rep) => {
            for mi in &rep.mismatches {
                eprintln!("replay mismatch: {mi}");
            }
            return Err(format!(
                "replay verification failed: {} mismatch(es) in {} checks",
                rep.mismatches.len(),
                rep.checks
            ));
        }
        Err(e) => return Err(format!("replay verification unavailable: {e}")),
    }
    if hosts > 1 {
        print!("{}", report::render_fleet(&cr));
    }

    if let Some(path) = &a.out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        for (h, (r, data)) in cr.host_results.iter().zip(&traces).enumerate() {
            let header = TraceHeader {
                scenario: r.scenario.clone(),
                policy: r.policy.clone(),
                seed: a.seed,
            };
            let jsonl = data.to_jsonl(&header, a.filter.as_deref());
            let written = jsonl.lines().count().saturating_sub(1);
            let host_path = if h == 0 {
                path.clone()
            } else {
                PathBuf::from(format!("{}.host{h}", path.display()))
            };
            std::fs::write(&host_path, &jsonl)
                .map_err(|e| format!("writing {}: {e}", host_path.display()))?;
            println!("trace: {} ({written} events)", host_path.display());
        }
    }
    Ok(())
}

/// `inspect`: parse a JSONL trace, fold it through
/// [`trace_check::TraceFold`] and print its summary ([`print_summary`])
/// with the transmitted target-vector timeline. Fails when an
/// injected-vs-observed check does.
fn inspect_cmd(path: &Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let t = TraceData::parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "== {} — {} / {} (seed {}, schema v{}) ==",
        path.display(),
        t.scenario,
        t.policy,
        t.seed,
        t.version
    );
    let mismatched = print_summary(&t.events, t.dropped_oldest, t.filter.as_deref(), true);
    if mismatched > 0 {
        return Err(format!(
            "fault ledger cross-check failed: {mismatched} kind(s) where injected \
             faults and observed fates disagree"
        ));
    }
    Ok(())
}

/// One host's trace summary, as `trace` and `inspect` print it, of the
/// [`TraceFold`] of `events`: the event, ring-drop and write-filter
/// counts; the per-VM admission table; the nonzero fault-ledger counters
/// under their `cells.csv` names; the MM decisions and transmissions and
/// the relay's sheds; with `timeline` (inspect's), the transmitted target
/// vectors; then the fold's injected-vs-observed checks, data-plane
/// pairings included when data-plane faults are in play. A trace whose
/// ring `dropped` its oldest events is a tail of the run: the summary says
/// so, and like a trace written with a subsystem `filter` it skips the
/// checks. Returns the number of failed checks.
fn print_summary(events: &[TraceEvent], dropped: u64, filter: Option<&str>, timeline: bool) -> u64 {
    let fold = TraceFold::of(events);
    println!(
        "events: {}  ring-dropped: {dropped}  write-filter: {}",
        events.len(),
        filter.unwrap_or("none")
    );
    if dropped > 0 {
        println!(
            "partial trace: the ring dropped the oldest {dropped} events, so the counts \
             below cover only the last {} events",
            events.len()
        );
    }
    // --- per-VM admission / reject / evict table -------------------------
    println!("-- per-VM tmem admission --");
    println!(
        "{:>3} {:>9} {:>9} {:>9} {:>8} {:>10} {:>8} {:>7} {:>9} {:>9} {:>8} {:>9}",
        "vm",
        "stored",
        "replaced",
        "st_evict",
        "st_far",
        "rej_targ",
        "rej_cap",
        "rej_io",
        "gets",
        "hits",
        "evicted",
        "flushed"
    );
    for (vm, v) in &fold.vms {
        let r = v.datapath();
        println!(
            "{vm:>3} {:>9} {:>9} {:>9} {:>8} {:>10} {:>8} {:>7} {:>9} {:>9} {:>8} {:>9}",
            r.put(PutResult::Stored),
            r.put(PutResult::Replaced),
            r.put(PutResult::StoredEvict),
            r.put(PutResult::StoredFar),
            r.put(PutResult::RejectTarget),
            r.put(PutResult::RejectCapacity),
            r.put(PutResult::RejectIo),
            r.gets,
            r.hits,
            r.evictions,
            r.flushed_pages,
        );
    }
    let l = &fold.ledger;
    print!("ledger:");
    for (name, n) in l.fields().into_iter().filter(|&(_, n)| n > 0) {
        print!(" {name}={n}");
    }
    println!();
    println!(
        "mm: decisions={} transmissions={}  relay: shed={}",
        fold.mm_decisions, fold.mm_transmissions, fold.sheds
    );
    if timeline {
        print_timeline(events);
    }

    // --- fault ledger cross-check ----------------------------------------
    // Every injected fault must have a matching observed fate elsewhere in
    // the stream; a filtered or ring-dropped trace can miss one side of a
    // pairing.
    println!("-- fault ledger cross-check --");
    let incomplete = if filter.is_some() {
        Some("trace was written with a subsystem filter")
    } else if dropped > 0 {
        Some("the ring dropped the run's oldest events")
    } else {
        None
    };
    if let Some(why) = incomplete {
        println!("  skipped: {why}, so fate");
        println!("  events and fault events are not both guaranteed present");
        return 0;
    }
    let mut mismatched = 0u64;
    let mut verdict = |c: &FaultCheck| {
        if c.ok() {
            "OK"
        } else {
            mismatched += 1;
            "MISMATCH"
        }
    };
    println!(
        "  {:<16} {:>9} {:>9}  verdict",
        "kind", "injected", "observed"
    );
    let (fates, data): (Vec<_>, Vec<_>) = fold
        .checks()
        .into_iter()
        .partition(|c| matches!(c.pairs, Pairing::Fate(_)));
    for c in &fates {
        if let Pairing::Fate(kind) = c.pairs {
            println!(
                "  {:<16} {:>9} {:>9}  {}",
                kind.as_str(),
                c.injected,
                c.observed,
                verdict(c)
            );
        }
    }
    // Data-plane faults pair with later events rather than with a fate of
    // their own: a corruption with its detection (get/flush/reclaim/scrub),
    // a put I/O failure or brownout rejection with a `reject_io` put.
    let data_active = l.scrub_passes > 0
        || data.iter().any(|c| !c.ok())
        || FaultKind::ALL
            .iter()
            .any(|&k| fold.observed(k).is_none() && fold.injected(k) > 0);
    if data_active {
        println!("-- data-plane integrity cross-check --");
        for c in &data {
            let (i, o) = (c.injected, c.observed);
            match c.pairs {
                Pairing::Detected => println!(
                    "  corruption: injected {i} (bitflip {} + torn {}), detected {o}  {}",
                    l.bitflips_injected,
                    l.torn_writes_injected,
                    verdict(c)
                ),
                Pairing::RejectIo => println!(
                    "  put I/O: injected {} + brownout-rejected {}, reject_io puts {o}  {}",
                    l.put_io_failures_injected,
                    l.brownout_rejections,
                    verdict(c)
                ),
                Pairing::Recovered => println!(
                    "  recovery: {o} of {i} detections recovered in-guest  {}",
                    verdict(c)
                ),
                Pairing::Fate(_) => {}
            }
        }
        println!(
            "  losses={} brownout_ticks={} scrubs={} quarantined_objects={}",
            l.ephemeral_losses_injected, l.brownout_ticks, l.scrub_passes, l.objects_quarantined
        );
    }
    mismatched
}

/// The transmitted MM decisions in `events`, with consecutive identical
/// target vectors collapsed to keep long runs legible.
fn print_timeline(events: &[TraceEvent]) {
    println!("-- target-vector timeline (transmitted MM decisions) --");
    // (first time, first push seq, target vector, consecutive repeats)
    type TargetRun = (sim_core::time::SimTime, u64, Vec<(u32, u64)>, u64);
    let mut pending: Option<TargetRun> = None;
    let flush_run = |run: &Option<TargetRun>| {
        if let Some((at, push_seq, targets, repeats)) = run {
            let vec: Vec<String> = targets
                .iter()
                .map(|(vm, pages)| format!("vm{vm}={pages}"))
                .collect();
            let tail = if *repeats > 1 {
                format!("  (x{repeats} consecutive)")
            } else {
                String::new()
            };
            println!(
                "  t={:>12}ns push={push_seq:<5} {}{tail}",
                at.as_nanos(),
                vec.join(" ")
            );
        }
    };
    for ev in events {
        if let Payload::MmDecision {
            push_seq,
            sent: true,
            targets,
            ..
        } = &ev.payload
        {
            match &mut pending {
                Some((_, _, prev, repeats)) if prev == targets => *repeats += 1,
                _ => {
                    flush_run(&pending);
                    pending = Some((ev.at, *push_seq, targets.clone(), 1));
                }
            }
        }
    }
    flush_run(&pending);
    if pending.is_none() {
        println!("  (none — policy never transmitted a target vector)");
    }
}

/// One host's result summary, as `run` prints it.
fn print_result(r: &RunResult) {
    println!(
        "{} / {}: end={} events={} disk_reads={} read_wait={} throttle={} mm_tx={}/{}",
        r.scenario,
        r.policy,
        r.end_time,
        r.events,
        r.disk_reads,
        r.disk_read_wait,
        r.disk_throttle,
        r.mm_transmissions,
        r.mm_cycles
    );
    for vm in &r.vm_results {
        let runs: Vec<String> = vm
            .runs
            .iter()
            .map(|rr| {
                let tail = format!(
                    " (df={} tf={} fp={})",
                    rr.stat_delta(|s| s.disk_faults).unwrap_or(0),
                    rr.stat_delta(|s| s.tmem_faults).unwrap_or(0),
                    rr.stat_delta(|s| s.failed_puts).unwrap_or(0),
                );
                match rr.duration() {
                    Some(d) => format!("{}={d}{tail}", rr.workload),
                    None => format!("{}=stopped{tail}", rr.workload),
                }
            })
            .collect();
        // Data-plane recovery counters only appear when the run actually
        // saw corruption or loss, keeping fault-free output unchanged.
        let k = &vm.kernel_stats;
        let integrity = if k.tmem_corrupt_faults + k.tmem_lost_pages > 0 {
            format!(
                " | corrupt={} retries={} lost={}",
                k.tmem_corrupt_faults, k.tmem_corrupt_retries, k.tmem_lost_pages
            )
        } else {
            String::new()
        };
        println!(
            "  {}: {} | tmem_ev={} disk_ev={} tmem_faults={} disk_faults={} failed_puts={}{}",
            vm.name,
            runs.join(", "),
            k.evictions_to_tmem,
            k.evictions_to_disk,
            k.tmem_faults,
            k.disk_faults,
            k.failed_puts,
            integrity,
        );
    }
}

/// `sweep`: expand a manifest and run (or resume) its cell matrix with
/// per-cell checkpointing in the `--resume` directory.
fn sweep_cmd(path: &Path, a: &Args) -> Result<(), String> {
    let plan = batch::load_plan(path, a.jobs)?;
    let dir = a.resume.clone().unwrap_or_else(|| {
        let stem = path
            .file_stem()
            .map_or_else(|| "sweep".to_string(), |s| s.to_string_lossy().into_owned());
        PathBuf::from(format!("{stem}-sweep"))
    });
    let outcome = batch::run_sweep(&plan, &dir, a.stop_after)?;
    for w in &outcome.warnings {
        eprintln!("warning: {w}");
    }
    print!("{}", batch::render_report(&plan, &outcome));
    if outcome.resumed > 0 {
        println!(
            "resumed: {} cell(s) restored from the journal, {} run by this invocation",
            outcome.resumed, outcome.ran
        );
    }
    if outcome.complete() {
        let (report, csv) = batch::write_outputs(&plan, &dir, &outcome)?;
        println!("report: {}", report.display());
        println!("csv: {}", csv.display());
        let verdict = batch::verdict(&plan, &outcome.records);
        if !verdict.passed() {
            return Err(format!(
                "sweep verdict FAIL:\n  {}",
                verdict.failures.join("\n  ")
            ));
        }
    } else {
        println!(
            "stopped with {}/{} cells done; rerun `smartmem-cli sweep {} --resume {}` to continue",
            outcome.records.len(),
            outcome.total,
            path.display(),
            dir.display()
        );
    }
    Ok(())
}

fn dispatch(cmd: &str, rest: &[String]) -> Result<(), String> {
    match cmd {
        "table2" => {
            let a = parse_flags(cmd, rest)?;
            let cfg = run_config(&a)?;
            println!("== Table II — scenarios (scale {}) ==", a.scale);
            for (name, rows) in figures::table2_rows(&cfg) {
                println!("{name}");
                for r in rows {
                    println!("  {r}");
                }
            }
            Ok(())
        }
        "fig" => {
            let (n, rest) = rest.split_first().ok_or("fig needs a number (3-10)")?;
            let n: u32 = n.parse().map_err(|e| format!("figure number: {e}"))?;
            let a = parse_flags(cmd, rest)?;
            figure(n, &a)
        }
        "all" => {
            let a = parse_flags(cmd, rest)?;
            for n in [3, 4, 5, 6, 7, 8, 9, 10] {
                figure(n, &a)?;
                println!();
            }
            Ok(())
        }
        "bench" => {
            let a = parse_flags(cmd, rest)?;
            bench_cmd(&a)
        }
        "run" | "trace" => {
            let (scenario, rest) = rest
                .split_first()
                .ok_or_else(|| format!("{cmd} needs a scenario"))?;
            let (policy, rest) = rest
                .split_first()
                .ok_or_else(|| format!("{cmd} needs a policy"))?;
            let policy = dsl::parse_policy(policy)?;
            let a = parse_flags(cmd, rest)?;
            refuse_fleet_scale(cmd, scenario, rest)?;
            let cfg = run_config(&a)?;
            let (spec, cluster) = dsl::resolve_scenario(scenario, Path::new(""), &cfg)?;
            if cmd == "trace" {
                return trace_cmd(spec, &cluster, policy, cfg, &a);
            }
            let cr = run_cluster(spec, policy, &cfg, &cluster);
            if let [r] = cr.host_results.as_slice() {
                print_result(r);
            } else {
                for (h, r) in cr.host_results.iter().enumerate() {
                    println!("-- host {h} --");
                    print_result(r);
                }
                print!("{}", report::render_fleet(&cr));
            }
            Ok(())
        }
        "sweep" => {
            let (file, rest) = rest
                .split_first()
                .ok_or("sweep needs a manifest .toml file")?;
            let a = parse_flags(cmd, rest)?;
            sweep_cmd(Path::new(file), &a)
        }
        "inspect" => match rest {
            [path] => inspect_cmd(Path::new(path)),
            [] => Err("inspect needs a trace file (as written by `trace --out`)".into()),
            _ => Err("inspect takes exactly one trace file and no flags".into()),
        },
        other => Err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenarios::spec::{build_scenario, Arrival, FleetParams, WorkloadMix};

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_with_defaults() {
        let a = parse_flags("fig", &args(&[])).unwrap();
        assert_eq!(a.scale, 0.125);
        assert_eq!(a.reps, 3);
        assert_eq!(a.seed, 42);
        assert!(a.out.is_none());
        assert_eq!(a.jobs, scenarios::par::default_jobs());
    }

    #[test]
    fn flags_parse_all_values() {
        let a = parse_flags(
            "fig",
            &args(&[
                "--scale", "0.5", "--reps", "5", "--seed", "7", "--out", "/tmp/x", "--jobs", "3",
            ]),
        )
        .unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.reps, 5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(a.jobs, 3);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse_flags("fig", &args(&["--bogus"])).is_err());
        assert!(
            parse_flags("fig", &args(&["--scale"])).is_err(),
            "missing value"
        );
        // Every command rejects a flag it would ignore, naming both.
        for (cmd, reads, ignores) in [
            ("table2", "--scale", "--seed"),
            ("fig", "--reps", "--chaos"),
            ("all", "--jobs", "--chaos"),
            ("run", "--chaos", "--jobs"),
            ("bench", "--seed", "--reps"),
            ("trace", "--filter", "--jobs"),
            ("sweep", "--stop-after", "--scale"),
        ] {
            let value = |flag: &str| match flag {
                "--chaos" => "bitrot",
                "--filter" => "subsys=tmem",
                _ => "2",
            };
            assert!(
                parse_flags(cmd, &args(&[reads, value(reads)])).is_ok(),
                "{cmd} should take {reads}"
            );
            let err = parse_flags(cmd, &args(&[ignores, value(ignores)])).unwrap_err();
            assert!(
                err.starts_with(&format!("{cmd} does not take {ignores}")),
                "{err}"
            );
        }
        let err = parse_flags("sweep", &args(&["--scale", "0.01"])).unwrap_err();
        assert!(err.contains("[sweep] table sets scale"), "{err}");
        // One spelling per input: `--resume` names the sweep directory.
        let err = parse_flags("sweep", &args(&["--out", "x"])).unwrap_err();
        assert!(err.starts_with("sweep does not take --out"), "{err}");
        // The chaos grid is a sweep manifest, a scenario file runs through
        // `run`, and `bench` runs the multi-host cells, the micros and the
        // jobs sweep: none is a command of its own.
        for cmd in [
            "chaos",
            "run-file",
            "bench-cluster",
            "bench-parallel",
            "bench-fleet",
        ] {
            let err = dispatch(cmd, &[]).unwrap_err();
            assert_eq!(err, format!("unknown command '{cmd}'"));
        }
    }

    #[test]
    fn zero_jobs_is_rejected_with_guidance() {
        let err = parse_flags("fig", &args(&["--jobs", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "unhelpful message: {err}");
        assert!(parse_flags("fig", &args(&["--jobs", "x"])).is_err());
    }

    #[test]
    fn degenerate_scale_and_reps_are_rejected() {
        assert!(parse_flags("fig", &args(&["--scale", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_flags("fig", &args(&["--scale", "-1"])).is_err());
        assert!(parse_flags("fig", &args(&["--scale", "NaN"])).is_err());
        assert!(parse_flags("fig", &args(&["--reps", "0"]))
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn chaos_flag_resolves_like_a_manifest_chaos_axis() {
        let a = parse_flags("trace", &args(&["--chaos", "sample-loss"])).unwrap();
        assert_eq!(a.chaos.map(|p| p.name).as_deref(), Some("sample-loss"));
        for fault_free in ["none", "off", "baseline"] {
            let a = parse_flags("run", &args(&["--chaos", fault_free])).unwrap();
            assert!(a.chaos.is_none(), "{fault_free}");
        }
        let err = parse_flags("trace", &args(&["--chaos", "meteor-strike"])).unwrap_err();
        for p in chaos::shipped_profiles() {
            assert!(err.contains(&p.name), "{} not listed: {err}", p.name);
        }
    }

    #[test]
    fn filter_flag_parses_subsystem_lists() {
        let a = parse_flags("trace", &args(&["--filter", "subsys=tmem,mm"])).unwrap();
        assert_eq!(a.filter, Some(vec![Subsystem::Tmem, Subsystem::Mm]));
        let err = parse_flags("trace", &args(&["--filter", "tmem"])).unwrap_err();
        assert!(err.contains("subsys="), "unhelpful message: {err}");
        let err = parse_flags("trace", &args(&["--filter", "subsys=warp"])).unwrap_err();
        assert!(err.contains("unknown subsystem"), "{err}");
        assert!(parse_flags("trace", &args(&["--filter", "subsys="])).is_err());
    }

    #[test]
    fn run_config_is_validated() {
        let a = parse_flags("fig", &args(&["--scale", "0.25"])).unwrap();
        assert!(run_config(&a).is_ok());
    }

    /// What `run` and `trace` resolve a scenario argument to at their
    /// default flags, next to the spec its kind builds.
    fn resolve(s: &str) -> Result<(ScenarioSpec, ClusterConfig), String> {
        dsl::resolve_scenario(s, Path::new(""), &default_cfg())
    }

    fn default_cfg() -> RunConfig {
        run_config(&parse_flags("run", &[]).unwrap()).unwrap()
    }

    fn one_host(kind: ScenarioKind) -> (ScenarioSpec, ClusterConfig) {
        (
            build_scenario(kind, &default_cfg()),
            ClusterConfig::default(),
        )
    }

    #[test]
    fn policies_parse() {
        assert_eq!(dsl::parse_policy("greedy").unwrap(), PolicyKind::Greedy);
        assert_eq!(dsl::parse_policy("no-tmem").unwrap(), PolicyKind::NoTmem);
        assert_eq!(
            dsl::parse_policy("smart-alloc:0.75").unwrap(),
            PolicyKind::SmartAlloc { p: 0.75 }
        );
        assert_eq!(
            dsl::parse_policy("predictive").unwrap(),
            PolicyKind::Predictive
        );
        assert!(dsl::parse_policy("smart-alloc:x").is_err());
        for cmd in ["run", "trace"] {
            let err = dispatch(cmd, &args(&["scenario1", "nonsense"])).unwrap_err();
            assert!(err.starts_with("unknown policy 'nonsense'"), "{err}");
        }
    }

    #[test]
    fn scenarios_parse() {
        assert_eq!(
            resolve("usemem").unwrap(),
            one_host(ScenarioKind::UsememScenario)
        );
        assert_eq!(
            resolve("scenario3").unwrap(),
            one_host(ScenarioKind::Scenario3)
        );
        for cmd in ["run", "trace"] {
            let err = dispatch(cmd, &args(&["scenario9", "greedy"])).unwrap_err();
            assert!(err.contains("'scenario9'"), "{err}");
        }
    }

    #[test]
    fn fleet_scenarios_parse() {
        // A fleet cell is spelled `fleet:<vms>`; the bare names are not
        // scenarios.
        for name in ["fleet", "scenario5"] {
            assert_eq!(
                resolve(name).unwrap_err(),
                format!("unknown scenario '{name}'")
            );
        }
        assert_eq!(
            resolve("fleet:16").unwrap(),
            one_host(ScenarioKind::Scenario5(FleetParams {
                vms: 16,
                ..FleetParams::default()
            }))
        );
        assert_eq!(
            resolve("fleet:32:256:paging:100").unwrap(),
            one_host(ScenarioKind::Scenario5(FleetParams {
                vms: 32,
                footprint_mb: 256,
                mix: WorkloadMix::Paging,
                arrival: Arrival::Staggered { gap_ms: 100 },
            }))
        );
        assert_eq!(
            resolve("fleet:8:64:serving:0").unwrap(),
            one_host(ScenarioKind::Scenario5(FleetParams {
                vms: 8,
                footprint_mb: 64,
                mix: WorkloadMix::Serving,
                arrival: Arrival::Simultaneous,
            })),
            "gap 0 means simultaneous arrivals"
        );
        let (spec, cluster) = resolve("fleet:2x32").unwrap();
        assert_eq!(cluster.hosts, 2, "cluster spelling carries the host count");
        let (single, _) = resolve("fleet:32").unwrap();
        assert_eq!(spec.name, dsl::cluster_scenario_name(&single.name, 2));
        assert_eq!(spec.vms, single.vms, "same VMs, spread over the hosts");
        for bad in [
            "fleet:0",
            "fleet:8:0",
            "fleet:8:64:warp",
            "fleet:8:64:paging:5:9",
            "fleet:x",
        ] {
            assert!(resolve(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn figure_numbers_are_validated() {
        let a = parse_flags("fig", &args(&[])).unwrap();
        assert!(figure(11, &a).is_err());
        assert!(figure(2, &a).is_err());
    }
}
