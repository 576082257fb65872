//! `smartmem-cli` — regenerate any table or figure of the paper.
//!
//! ```text
//! smartmem-cli table2 [--scale S]
//! smartmem-cli fig <3|4|5|6|7|8|9|10> [--scale S] [--reps N] [--seed S] [--out DIR] [--jobs N]
//! smartmem-cli all [--scale S] [--reps N] [--seed S] [--out DIR] [--jobs N]
//! smartmem-cli run <SCENARIO> <policy> [--scale S] [--seed S] [--chaos PROFILE]
//! smartmem-cli bench-parallel [--scale S] [--reps N] [--seed S] [--out DIR]
//! smartmem-cli bench-fleet [--scale S] [--seed S] [--out DIR]
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
//! `--scale`. `--chaos` injects a shipped fault profile.
//!
//! Policies: `no-tmem`, `greedy`, `static-alloc`, `reconf-static`,
//! `smart-alloc:<P>` (e.g. `smart-alloc:0.75`), `predictive`.
//!
//! `bench-fleet` runs the fleet family in ascending VM count, each 2-host
//! cell before its 1-host twin — `fleet:2x8`, `fleet:8`, `fleet:2x16`,
//! `fleet:16`, `fleet:2x32`, `fleet:32`, `fleet:64` — and writes
//! `BENCH_fleet.json`: wall-clock and peak RSS per cell (`null` for a cell
//! that did not raise the process's high-water mark), per-VM
//! occupancy/slowdown, and the fleet metrics (migrations, downtime,
//! cross-host traffic, stranded memory; zero on one host).
//! `--scale` sizes the per-VM footprint off the 512 MiB headline cell
//! (default 0.125 → 64 MiB — a smoke pass; use `--scale 1` for the
//! headline numbers). `--scale` resizes nothing else: every cell runs at
//! the default `RunConfig` scale 0.125, whose time scale samples every
//! 125 ms and staggers the 250 ms arrival gap to 31.25 ms; the command
//! prints the effective interval and gap and records them in its JSON
//! `config`.
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
//! injected-vs-observed fault checks.

use scenarios::batch;
use scenarios::chaos;
use scenarios::config::RunConfig;
use scenarios::dsl;
use scenarios::figures;
use scenarios::report;
use scenarios::runner::{run_cluster, ClusterConfig, RunResult};
use scenarios::spec::{Arrival, FleetParams, ScenarioKind, ScenarioSpec};
use scenarios::trace_check::{self, FaultCheck, Pairing, TraceFold};
use sim_core::time::SimDuration;
use sim_core::trace::{
    self, FaultKind, Payload, PutResult, Subsystem, TraceConfig, TraceData, TraceEvent, TraceHeader,
};
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
    /// Shipped chaos profile to inject during `run` or `trace`.
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
        "bench-parallel" => &["--scale", "--reps", "--seed", "--out"],
        "bench-fleet" => &["--scale", "--seed", "--out"],
        "trace" => &["--scale", "--seed", "--chaos", "--out", "--filter"],
        "sweep" => &["--resume", "--out", "--jobs", "--stop-after"],
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
            "--chaos" => {
                let v = value()?;
                let profile = chaos::shipped_profiles()
                    .into_iter()
                    .find(|p| p.name == v)
                    .ok_or_else(|| {
                        format!(
                            "unknown chaos profile '{v}' (shipped: {})",
                            chaos::shipped_profiles()
                                .iter()
                                .map(|p| p.name.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })?;
                args.chaos = Some(profile);
            }
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
             bench-parallel|bench-fleet|trace SCENARIO POLICY|inspect FILE|\
             sweep MANIFEST> [flags]"
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

/// Compute (and discard) every figure of `all` — the timed body of the
/// `bench-parallel` end-to-end comparison. No printing, no CSV: only the
/// simulation work itself is measured.
fn compute_all(cfg: &RunConfig, reps: u64) {
    std::hint::black_box(figures::fig3(cfg, reps));
    std::hint::black_box(figures::fig4(cfg));
    std::hint::black_box(figures::fig5(cfg, reps));
    std::hint::black_box(figures::fig6(cfg));
    std::hint::black_box(figures::fig7(cfg, reps));
    std::hint::black_box(figures::fig8(cfg));
    std::hint::black_box(figures::fig9(cfg, reps));
    std::hint::black_box(figures::fig10(cfg));
}

/// Paired steady-state micro harness. Each closure owns its long-lived
/// backend state and returns `(ops, time spent in its timed region)` per
/// round; warm-up rounds run first so maps and arenas reach their
/// steady-state high-water capacity (backends in real runs live for a
/// whole scenario, not one burst).
///
/// Fast and reference rounds are *interleaved in slices* so a load spike
/// or frequency change on the host hits both measurements alike and
/// cancels out of the speedup ratio, instead of landing on whichever
/// backend happened to be running. Within each slice the first rounds are
/// discarded: switching backends evicts the other's working set from
/// cache, and "steady state" means warm caches — the measured regime is a
/// backend serving a run, not a backend just context-switched in. The
/// reported rates cover the timed regions only, so a round can exclude
/// its setup (e.g. the fill before a `flush_object` burst).
fn paired_micro_ops_per_s(
    mut fast_round: impl FnMut() -> (u64, std::time::Duration),
    mut ref_round: impl FnMut() -> (u64, std::time::Duration),
    min_time: std::time::Duration,
) -> (f64, f64) {
    const WARM_ROUNDS: usize = 2;
    const TIMED_ROUNDS: usize = 6;
    let slice = |round: &mut dyn FnMut() -> (u64, std::time::Duration)| {
        for _ in 0..WARM_ROUNDS {
            round();
        }
        let (mut ops, mut spent) = (0u64, std::time::Duration::ZERO);
        for _ in 0..TIMED_ROUNDS {
            let (o, d) = round();
            ops += o;
            spent += d;
        }
        (ops, spent)
    };
    let wall = std::time::Instant::now();
    let (mut fast_ops, mut ref_ops) = (0u64, 0u64);
    let (mut fast_spent, mut ref_spent) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
    loop {
        let (o, d) = slice(&mut fast_round);
        fast_ops += o;
        fast_spent += d;
        let (o, d) = slice(&mut ref_round);
        ref_ops += o;
        ref_spent += d;
        if wall.elapsed() >= min_time {
            break;
        }
    }
    (
        fast_ops as f64 / fast_spent.as_secs_f64(),
        ref_ops as f64 / ref_spent.as_secs_f64(),
    )
}

fn bench_parallel(a: &Args) -> Result<(), String> {
    use tmem::backend::{PoolKind, TmemBackend};
    use tmem::key::{ObjectId, VmId};
    use tmem::page::Fingerprint;
    use tmem::reference::ReferenceBackend;

    const OBJECTS: u64 = 8;
    const PAGES: u32 = 512;
    const ROUND_PAGES: u64 = OBJECTS * PAGES as u64;
    let min_time = std::time::Duration::from_millis(400);

    println!("== bench-parallel — datapath + engine perf record ==");

    // --- Micros: fast datapath vs seed BTreeMap reference, four ops ---
    // One macro instantiation per backend type (the two backends share
    // their method surface but no trait); each expansion yields one
    // state-owning round closure per op, which the paired harness then
    // interleaves across the two backends.
    macro_rules! micro_rounds {
        ($Backend:ty) => {{
            fn fill(b: &mut $Backend, pool: tmem::key::PoolId) {
                for o in 0..OBJECTS {
                    for i in 0..PAGES {
                        b.put(pool, ObjectId(o), i, Fingerprint(o ^ u64::from(i)))
                            .unwrap();
                    }
                }
            }

            // put/get: sliding-window churn, the frontswap steady state —
            // swap slots are written once and read back once at fresh,
            // unordered offsets, so each round puts OBJECTS new objects
            // (page indices in a fixed permutation, not sequentially) and
            // exclusively drains the OBJECTS oldest while WINDOW objects
            // stay in flight. (Refilling the *same* keys after a full
            // drain instead would measure the backends' ghost-revival
            // corner, not the datapath.)
            const WINDOW: u64 = 16;
            let perm = |i: u32| (i * 167) % PAGES; // gcd(167, PAGES) == 1
            let mut b1 = <$Backend>::new((WINDOW + 1) * PAGES as u64);
            let pool1 = b1.new_pool(VmId(1), PoolKind::Persistent).unwrap();
            for o in 0..WINDOW {
                for i in 0..PAGES {
                    let i = perm(i);
                    b1.put(pool1, ObjectId(o), i, Fingerprint(o ^ u64::from(i)))
                        .unwrap();
                }
            }
            let mut next_obj = WINDOW;
            let put_get = move || {
                let t = std::time::Instant::now();
                for o in next_obj..next_obj + OBJECTS {
                    for i in 0..PAGES {
                        let i = perm(i);
                        b1.put(pool1, ObjectId(o), i, Fingerprint(o ^ u64::from(i)))
                            .unwrap();
                    }
                    let old = ObjectId(o - WINDOW);
                    for i in 0..PAGES {
                        std::hint::black_box(b1.get(pool1, old, perm(i)).unwrap());
                    }
                }
                next_obj += OBJECTS;
                (2 * ROUND_PAGES, t.elapsed())
            };

            // flush_object: refill untimed, time the per-object flush burst.
            let mut b2 = <$Backend>::new(8192);
            let pool2 = b2.new_pool(VmId(1), PoolKind::Persistent).unwrap();
            let flush_object = move || {
                fill(&mut b2, pool2);
                let t = std::time::Instant::now();
                let mut n = 0;
                for o in 0..OBJECTS {
                    n += b2.flush_object(pool2, ObjectId(o)).unwrap();
                }
                assert_eq!(n, ROUND_PAGES, "flush must drain every page");
                (n, t.elapsed())
            };

            // destroy_pool: fresh pool + fill untimed, time the teardown.
            let mut b3 = <$Backend>::new(8192);
            let destroy_pool = move || {
                let pool = b3.new_pool(VmId(1), PoolKind::Persistent).unwrap();
                fill(&mut b3, pool);
                let t = std::time::Instant::now();
                let n = b3.destroy_pool(pool).unwrap();
                assert_eq!(n, ROUND_PAGES, "teardown must free every page");
                (n, t.elapsed())
            };

            // ephemeral: an over-capacity cleancache stream — past the
            // 1024-frame budget every put of a fresh key evicts the oldest
            // page through the FIFO candidate queue.
            let mut b4 = <$Backend>::new(1024);
            let pool4 = b4.new_pool(VmId(1), PoolKind::Ephemeral).unwrap();
            let mut next_key = 0u64;
            let ephemeral = move || {
                let t = std::time::Instant::now();
                for k in next_key..next_key + ROUND_PAGES {
                    b4.put(pool4, ObjectId(k % 4), k as u32, Fingerprint(k))
                        .unwrap();
                }
                next_key += ROUND_PAGES;
                (ROUND_PAGES, t.elapsed())
            };

            (put_get, flush_object, destroy_pool, ephemeral)
        }};
    }

    let (f_pg, f_fl, f_dp, f_eph) = micro_rounds!(TmemBackend<Fingerprint>);
    let (r_pg, r_fl, r_dp, r_eph) = micro_rounds!(ReferenceBackend<Fingerprint>);
    let (fast_pg, ref_pg) = paired_micro_ops_per_s(f_pg, r_pg, min_time);
    let (fast_fl, ref_fl) = paired_micro_ops_per_s(f_fl, r_fl, min_time);
    let (fast_dp, ref_dp) = paired_micro_ops_per_s(f_dp, r_dp, min_time);
    let (fast_eph, ref_eph) = paired_micro_ops_per_s(f_eph, r_eph, min_time);

    let micros = [
        ("put_get", fast_pg, ref_pg),
        ("flush_object", fast_fl, ref_fl),
        ("destroy_pool", fast_dp, ref_dp),
        ("ephemeral", fast_eph, ref_eph),
    ];
    for (name, fast, reference) in micros {
        println!(
            "micro {name:>13}: fast {:8.2} Mops/s vs reference {:6.2} Mops/s — {:.2}x",
            fast / 1e6,
            reference / 1e6,
            fast / reference
        );
    }

    // --- Jobs scaling: the full `all` figure set at jobs 1/2/4/8 ---
    let cores = scenarios::par::default_jobs();
    let mut entries = Vec::new();
    for jobs in [1usize, 2, 4, 8] {
        let mut cfg = run_config(a)?;
        cfg.jobs = jobs;
        let m = smartmem_bench::measure::measure(|| compute_all(&cfg, a.reps));
        let wall_s = m.wall.as_secs_f64();
        println!("e2e all (jobs={jobs}): {wall_s:.2} s");
        entries.push((jobs, wall_s));
    }
    let serial_s = entries[0].1;
    let scaling_valid = cores >= 2;
    let warning = if scaling_valid {
        String::new()
    } else {
        format!(
            "only {cores} core available: every job count runs serialized, so the \
             jobs-scaling curve is not a parallelism measurement; rerun on a \
             multi-core host (the CI bench job provides one)"
        )
    };

    let micro_json = micros
        .iter()
        .map(|(name, fast, reference)| {
            format!(
                "    \"{name}\": {{\n      \"fast_ops_per_s\": {fast:.0},\n      \
                 \"reference_ops_per_s\": {reference:.0},\n      \"speedup\": {:.3}\n    }}",
                fast / reference
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let entries_json = entries
        .iter()
        .map(|(jobs, wall_s)| {
            format!(
                "      {{ \"jobs\": {jobs}, \"wall_s\": {wall_s:.3}, \"speedup\": {:.3} }}",
                serial_s / wall_s
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"host\": {{ \"available_cores\": {cores} }},\n  \"config\": {{ \"scale\": {}, \
         \"reps\": {}, \"seed\": {} }},\n  \"micro\": {{\n    \"workload\": \"long-lived backends; \
         put_get: sliding-window churn ({OBJECTS} objects x {PAGES} pages in flight, \
         put fresh / get oldest); flush_object, destroy_pool: {ROUND_PAGES} pages \
         filled untimed; ephemeral: {ROUND_PAGES} fresh puts into a 1024-frame \
         ephemeral pool; fast/reference rounds interleaved so host noise \
         cancels out of the ratio\",\n\
         {micro_json}\n  }},\n  \"jobs_scaling\": {{\n    \"valid\": {scaling_valid},\n    \
         \"warning\": \"{warning}\",\n    \"entries\": [\n{entries_json}\n    ]\n  }}\n}}\n",
        a.scale, a.reps, a.seed
    );
    let dir = a.out.clone().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("BENCH_scaling.json");
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("perf record: {}", path.display());
    if !scaling_valid {
        return Err(format!("jobs-scaling sweep invalid — {warning}"));
    }
    Ok(())
}

/// The `bench-fleet` cells, in ascending VM count with each 2-host cell
/// before its 1-host twin, which peaks higher: peak RSS is the process
/// high-water mark, so a cell's reading is its own only when the mark
/// rose across it.
const FLEET_CELLS: [&str; 7] = [
    "fleet:2x8",
    "fleet:8",
    "fleet:2x16",
    "fleet:16",
    "fleet:2x32",
    "fleet:32",
    "fleet:64",
];

/// `bench-fleet`: wall-clock and peak RSS of each [`FLEET_CELLS`] cell,
/// with per-VM occupancy/slowdown figures and the fleet metrics. Writes
/// `BENCH_fleet.json`.
fn bench_fleet(a: &Args) -> Result<(), String> {
    use smartmem_bench::measure::{measure, peak_rss_kb};

    // Fleet cells are not resized by `RunConfig::scale` (their size is
    // explicit in their name), so `--scale` instead sizes the per-VM
    // footprint off the 512 MiB headline cell. The run config keeps the
    // default scale 0.125, and with it the time scale: 125 ms sampling.
    let footprint_mb = ((512.0 * a.scale).round() as u32).max(8);
    let policy = PolicyKind::SmartAlloc { p: 2.0 };
    let cfg = RunConfig {
        seed: a.seed,
        ..RunConfig::default()
    };
    cfg.validate()?;
    // The default cell's arrival gap, and the sampling interval and gap
    // after time scaling.
    let gap_ms = match FleetParams::default().arrival {
        Arrival::Staggered { gap_ms } => gap_ms,
        Arrival::Simultaneous => 0,
    };
    let ms = |d: SimDuration| d.as_nanos() as f64 / 1e6;
    let sampling = ms(cfg.sampling_interval());
    let gap = ms(cfg.scale_time(SimDuration::from_millis(u64::from(gap_ms))));

    println!("== bench-fleet — wall-clock and peak RSS vs VM count ==");
    println!(
        "footprint {footprint_mb} MiB/VM, balanced mix, arrivals {gap} ms apart \
         ({gap_ms} ms gap, time-scaled), sampling every {sampling} ms, policy smart-alloc:2"
    );
    println!(
        "(peak RSS is the process high-water mark, so cells run in ascending order; \
         a cell that did not raise it reads n/a)"
    );

    let mut cells_json = Vec::new();
    let mut high_water = peak_rss_kb();
    for cell in FLEET_CELLS {
        let cell = format!("{cell}:{footprint_mb}");
        let (spec, cluster) = dsl::resolve_scenario(&cell, Path::new(""), &cfg)?;
        let sessions = spec.logical_sessions();
        let vms = spec.vms.len();
        let m = measure(|| run_cluster(spec, policy, &cfg, &cluster));
        // A mark that did not rise across the cell is an earlier cell's.
        let own_rss_kb = m
            .peak_rss_kb
            .filter(|&kb| high_water.is_none_or(|before| kb > before));
        high_water = m.peak_rss_kb;
        let cr = &m.value;
        let f = &cr.fleet;
        let head = &cr.host_results[0];
        let wall_s = m.wall.as_secs_f64();
        let rss = own_rss_kb.map_or("n/a".to_string(), |kb| {
            format!("{:.1} MiB", kb as f64 / 1024.0)
        });
        let end_s = cr
            .host_results
            .iter()
            .map(|r| r.end_time.as_secs_f64())
            .fold(0.0, f64::max);
        let truncated = cr.host_results.iter().any(|r| r.truncated);
        println!(
            "{cell:<14} wall {wall_s:7.2} s  peak RSS {rss:>12}  \
             events {:>12}  sessions {:>12}  sim end {end_s:.0} s{}",
            head.events,
            sessions,
            if truncated { "  TRUNCATED" } else { "" },
        );
        if cluster.hosts > 1 {
            println!(
                "  migrations {} (downtime {})  cross-host {} transfers / {} pages  \
                 stranded {}",
                f.migrations,
                f.migration_downtime,
                f.cross_host_transfers,
                f.cross_host_pages,
                f.stranded_page_intervals,
            );
        }

        // Per-VM occupancy and slowdown, in VM order across the hosts.
        // Slowdown is each VM's total program runtime relative to the
        // fastest VM running the same workload — 1.00 marks the
        // least-contended VM of its class.
        let mut per_vm: Vec<_> = cr
            .host_results
            .iter()
            .flat_map(|r| r.vm_results.iter().zip(&r.final_tmem_used))
            .collect();
        per_vm.sort_by_key(|(vm, _)| vm.vm_id);
        let runtime_ns: Vec<u64> = per_vm
            .iter()
            .map(|(vm, _)| {
                vm.runs
                    .iter()
                    .filter_map(|rr| rr.duration())
                    .map(|d| d.as_nanos())
                    .sum()
            })
            .collect();
        let class: Vec<&str> = per_vm
            .iter()
            .map(|(vm, _)| vm.runs.first().map_or("-", |rr| rr.workload.as_str()))
            .collect();
        let mut fastest: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for (&c, &ns) in class.iter().zip(&runtime_ns) {
            if ns > 0 {
                let e = fastest.entry(c).or_insert(u64::MAX);
                *e = (*e).min(ns);
            }
        }
        println!(
            "  {:<6} {:>22} {:>12} {:>9} {:>12}",
            "vm", "workload", "runtime_s", "slowdown", "occ_pages"
        );
        let mut per_vm_json = Vec::new();
        for (i, (vm, occ)) in per_vm.iter().enumerate() {
            let runtime_s = runtime_ns[i] as f64 / 1e9;
            let slowdown = match fastest.get(class[i]) {
                Some(&best) if runtime_ns[i] > 0 => runtime_ns[i] as f64 / best as f64,
                _ => f64::NAN,
            };
            println!(
                "  {:<6} {:>22} {:>12.1} {:>9.3} {:>12}",
                vm.name, class[i], runtime_s, slowdown, occ
            );
            per_vm_json.push(format!(
                "        {{ \"name\": \"{}\", \"workload\": \"{}\", \"runtime_s\": {:.3}, \
                 \"slowdown\": {}, \"occupancy_pages\": {} }}",
                vm.name,
                class[i],
                runtime_s,
                if slowdown.is_nan() {
                    "null".to_string()
                } else {
                    format!("{slowdown:.4}")
                },
                occ
            ));
        }
        cells_json.push(format!(
            "    {{\n      \"cell\": \"{cell}\",\n      \"hosts\": {},\n      \
             \"vms\": {vms},\n      \"scenario\": \"{}\",\n      \
             \"wall_s\": {wall_s:.3},\n      \"peak_rss_kb\": {},\n      \
             \"events\": {},\n      \"sim_end_s\": {end_s:.3},\n      \
             \"truncated\": {truncated},\n      \"logical_sessions\": {sessions},\n      \
             \"migrations\": {},\n      \"migration_downtime_ns\": {},\n      \
             \"cross_host_transfers\": {},\n      \"cross_host_pages\": {},\n      \
             \"net_queue_wait_ns\": {},\n      \"stranded_page_intervals\": {},\n      \
             \"per_vm\": [\n{}\n      ]\n    }}",
            cluster.hosts,
            head.scenario,
            own_rss_kb.map_or("null".to_string(), |kb| kb.to_string()),
            head.events,
            f.migrations,
            f.migration_downtime.as_nanos(),
            f.cross_host_transfers,
            f.cross_host_pages,
            f.net_queue_wait.as_nanos(),
            f.stranded_page_intervals,
            per_vm_json.join(",\n")
        ));
    }

    let json = format!(
        "{{\n  \"host\": {{ \"available_cores\": {} }},\n  \"config\": {{ \"scale\": {}, \
         \"footprint_mb\": {footprint_mb}, \"seed\": {}, \
         \"policy\": \"smart-alloc:2\", \"mix\": \"balanced\", \"arrival_gap_ms\": {gap_ms}, \
         \"effective_gap_ms\": {gap}, \"sampling_ms\": {sampling} }},\n  \
         \"note\": \"peak_rss_kb is the process-lifetime high-water mark (VmHWM) after the \
         cell; cells run in ascending VM order, each 2-host cell before its 1-host twin, and \
         a cell across which the mark did not rise reads null, since the mark is an earlier \
         cell's\",\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        scenarios::par::default_jobs(),
        a.scale,
        a.seed,
        cells_json.join(",\n")
    );
    let dir = a.out.clone().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("BENCH_fleet.json");
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("perf record: {}", path.display());
    Ok(())
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
    if let [data] = traces.as_slice() {
        println!(
            "events: {} recorded, {} dropped (ring capacity {})",
            data.events.len(),
            data.dropped_oldest,
            trace::DEFAULT_TRACE_CAPACITY,
        );
    } else {
        for (h, data) in traces.iter().enumerate() {
            println!(
                "host {h}: {} events recorded, {} dropped",
                data.events.len(),
                data.dropped_oldest
            );
        }
    }
    for (h, data) in traces.iter().enumerate() {
        if hosts > 1 {
            println!("-- host {h} --");
        }
        // The replay below runs the same checks and gives the verdict.
        print_summary(&TraceFold::of(&data.events), None, false);
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
                filter: None,
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
    println!(
        "events: {}  ring-dropped: {}  write-filter: {}",
        t.events.len(),
        t.dropped_oldest,
        t.filter.as_deref().unwrap_or("none")
    );
    let fold = TraceFold::of(&t.events);
    let mismatched = print_summary(&fold, Some(&t.events), t.filter.is_some());
    if mismatched > 0 {
        return Err(format!(
            "fault ledger cross-check failed: {mismatched} kind(s) where injected \
             faults and observed fates disagree"
        ));
    }
    Ok(())
}

/// One host's trace summary, as `trace` and `inspect` print it: the per-VM
/// admission table; the nonzero fault-ledger counters under their
/// `cells.csv` names; the MM decisions and transmissions and the relay's
/// sheds; with `timeline` (inspect's), the transmitted target vectors;
/// then the fold's injected-vs-observed checks, data-plane pairings
/// included when data-plane faults are in play. A `filtered` trace skips
/// the checks. Returns the number of failed checks.
fn print_summary(fold: &TraceFold, timeline: Option<&[TraceEvent]>, filtered: bool) -> u64 {
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
    if let Some(events) = timeline {
        print_timeline(events);
    }

    // --- fault ledger cross-check ----------------------------------------
    // Every injected fault must have a matching observed fate elsewhere in
    // the stream; a filtered trace drops one side of the pairing.
    println!("-- fault ledger cross-check --");
    if filtered {
        println!("  skipped: trace was written with a subsystem filter, so fate");
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
    let dir = a
        .resume
        .clone()
        .or_else(|| a.out.clone())
        .unwrap_or_else(|| {
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
        "bench-parallel" => {
            let a = parse_flags(cmd, rest)?;
            bench_parallel(&a)
        }
        "bench-fleet" => {
            let a = parse_flags(cmd, rest)?;
            bench_fleet(&a)
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
    use scenarios::spec::{build_scenario, WorkloadMix};

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
            ("bench-parallel", "--reps", "--jobs"),
            ("bench-fleet", "--scale", "--jobs"),
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
        // The chaos grid is a sweep manifest, a scenario file runs through
        // `run`, and `bench-fleet` runs the multi-host cells: none is a
        // command of its own.
        for cmd in ["chaos", "run-file", "bench-cluster"] {
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
    fn chaos_flag_accepts_only_shipped_profiles() {
        let a = parse_flags("trace", &args(&["--chaos", "sample-loss"])).unwrap();
        assert_eq!(a.chaos.map(|p| p.name).as_deref(), Some("sample-loss"));
        let err = parse_flags("trace", &args(&["--chaos", "meteor-strike"])).unwrap_err();
        assert!(err.contains("shipped:"), "unhelpful message: {err}");
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
        for name in ["fleet", "scenario5"] {
            assert_eq!(
                resolve(name).unwrap(),
                one_host(ScenarioKind::Scenario5(FleetParams::default()))
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
