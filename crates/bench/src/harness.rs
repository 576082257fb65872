//! The `smartmem-cli bench` harness: one run, one versioned `BENCH.json`.
//!
//! [`run`] measures three parts, in this order:
//!
//! 1. **Fleet cells.** Each [`FLEET_CELLS`] cell at `512 × scale` MiB per
//!    VM under smart-alloc:2: wall-clock, peak RSS, per-VM runtime,
//!    slowdown and tmem occupancy, and the fleet counters (zero on one
//!    host). `scale` sizes only the footprint: every cell runs at the
//!    default [`RunConfig`] scale 0.125, whose time scale samples every
//!    125 ms and staggers the 250 ms arrival gap to 31.25 ms; the record
//!    keeps the effective interval and gap. Peak RSS is the process
//!    high-water mark ([`crate::measure`]), so these cells run first, in
//!    ascending VM count with each 2-host cell before its 1-host twin,
//!    which peaks higher. A cell across which the mark did not rise reads
//!    `null`: its mark is an earlier cell's.
//! 2. **Micros.** Four tmem datapath operations on long-lived backends,
//!    the fast [`TmemBackend`] against the [`ReferenceBackend`] oracle,
//!    in interleaved rounds, so host noise cancels out of the ratio.
//! 3. **Jobs sweep.** The paper's figure set (Figs. 3–10) at
//!    [`JOBS_SCALE`] and [`JOBS_REPS`], once per [`JOBS`] worker count.
//!    The curve measures parallelism only on a host with at least 2 cores
//!    ([`jobs_warning`]).

use crate::json::Json;
use crate::measure::{measure, peak_rss_kb};
use scenarios::config::RunConfig;
use scenarios::dsl;
use scenarios::figures;
use scenarios::runner::{run_cluster, RunResult};
use scenarios::spec::{Arrival, FleetParams};
use sim_core::time::SimDuration;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tmem::backend::{PoolKind, TmemBackend};
use tmem::key::{ObjectId, VmId};
use tmem::page::Fingerprint;
use tmem::reference::ReferenceBackend;

/// `BENCH.json`'s schema version. Bump it when a key changes meaning.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// The fleet cells, in run order: ascending VM count, each 2-host cell
/// before its 1-host twin. `:<footprint_mb>` is appended per run.
pub const FLEET_CELLS: [&str; 7] = [
    "fleet:2x8",
    "fleet:8",
    "fleet:2x16",
    "fleet:16",
    "fleet:2x32",
    "fleet:32",
    "fleet:64",
];

/// The fleet cells' policy, as `run` spells it.
const FLEET_POLICY: &str = "smart-alloc:2";

/// The jobs sweep's worker counts.
pub const JOBS: [usize; 4] = [1, 2, 4, 8];

/// The jobs sweep's figure-set scale, fixed so every record runs one
/// protocol whatever `--scale` says.
pub const JOBS_SCALE: f64 = 0.02;

/// The jobs sweep's repetitions per bar figure.
pub const JOBS_REPS: u64 = 1;

/// Measure the three parts for `bench --scale scale --seed seed`, in
/// order, handing `progress` one line per result as it lands, and return
/// the `BENCH.json` document.
pub fn run(scale: f64, seed: u64, mut progress: impl FnMut(String)) -> Result<Json, String> {
    let fleet = fleet_part(scale, seed, &mut progress)?;
    let micro = micro_part(&mut progress);
    let jobs_scaling = jobs_part(seed, &mut progress)?;
    Ok(Json::Obj(vec![
        ("schema", Json::str("smartmem-bench")),
        ("version", Json::num(BENCH_SCHEMA_VERSION)),
        (
            "host",
            Json::Obj(vec![(
                "available_cores",
                Json::num(scenarios::par::default_jobs()),
            )]),
        ),
        (
            "config",
            Json::Obj(vec![("scale", Json::num(scale)), ("seed", Json::num(seed))]),
        ),
        ("fleet", fleet),
        ("micro", micro),
        ("jobs_scaling", jobs_scaling),
    ]))
}

/// Write `doc` as `BENCH.json` under `dir` (created if missing); returns
/// its path.
pub fn write(doc: &Json, dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("BENCH.json");
    std::fs::write(&path, doc.render()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Why the jobs curve is not a parallelism measurement on this host, if it
/// is not: with one core every job count runs serialized.
pub fn jobs_warning() -> Option<String> {
    let cores = scenarios::par::default_jobs();
    (cores < 2).then(|| {
        format!(
            "only {cores} core available: every job count runs serialized, so the \
             jobs-scaling curve is not a parallelism measurement; rerun on a multi-core \
             host (the CI bench job provides one)"
        )
    })
}

/// The fleet cells at `512 × scale` MiB per VM.
fn fleet_part(scale: f64, seed: u64, progress: &mut impl FnMut(String)) -> Result<Json, String> {
    let cfg = RunConfig {
        seed,
        ..RunConfig::default()
    };
    cfg.validate()?;
    let policy = dsl::parse_policy(FLEET_POLICY)?;
    let footprint_mb = ((512.0 * scale).round() as u32).max(8);
    let gap_ms = match FleetParams::default().arrival {
        Arrival::Staggered { gap_ms } => gap_ms,
        Arrival::Simultaneous => 0,
    };
    let ms = |d: SimDuration| d.as_nanos() as f64 / 1e6;
    let effective_gap_ms = ms(cfg.scale_time(SimDuration::from_millis(u64::from(gap_ms))));
    let sampling_ms = ms(cfg.sampling_interval());
    progress(format!(
        "fleet: footprint {footprint_mb} MiB/VM, balanced mix, arrivals {effective_gap_ms} ms \
         apart ({gap_ms} ms gap, time-scaled), sampling every {sampling_ms} ms, policy \
         {FLEET_POLICY}; a cell that did not raise the peak-RSS mark reads n/a"
    ));
    let mut cells = Vec::new();
    let mut high_water = peak_rss_kb();
    for cell in FLEET_CELLS {
        let cell = format!("{cell}:{footprint_mb}");
        let (spec, cluster) = dsl::resolve_scenario(&cell, Path::new(""), &cfg)?;
        let sessions = spec.logical_sessions();
        let vms = spec.vms.len();
        let m = measure(|| run_cluster(spec, policy, &cfg, &cluster));
        // A mark that did not rise across the cell is an earlier cell's.
        let rss_kb = m
            .peak_rss_kb
            .filter(|&kb| high_water.is_none_or(|before| kb > before));
        high_water = m.peak_rss_kb;
        let (hosts, f) = (&m.value.host_results, &m.value.fleet);
        let wall_s = m.wall.as_secs_f64();
        let end_s = hosts
            .iter()
            .map(|r| r.end_time.as_secs_f64())
            .fold(0.0, f64::max);
        let truncated = hosts.iter().any(|r| r.truncated);
        progress(format!(
            "{cell:<14} wall {wall_s:7.2} s  peak RSS {:>10}  events {:>9}  sessions {sessions:>11}  \
             sim end {end_s:.0} s{}  migrations {}  cross-host pages {}",
            rss_kb.map_or("n/a".into(), |kb| format!("{:.1} MiB", kb as f64 / 1024.0)),
            hosts[0].events,
            if truncated { "  TRUNCATED" } else { "" },
            f.migrations,
            f.cross_host_pages,
        ));
        cells.push(Json::Obj(vec![
            ("cell", Json::str(&cell)),
            ("hosts", Json::num(cluster.hosts)),
            ("vms", Json::num(vms)),
            ("scenario", Json::str(&hosts[0].scenario)),
            ("wall_s", Json::fixed(wall_s, 3)),
            ("peak_rss_kb", rss_kb.map_or_else(Json::null, Json::num)),
            ("events", Json::num(hosts[0].events)),
            ("sim_end_s", Json::fixed(end_s, 3)),
            ("truncated", Json::num(truncated)),
            ("logical_sessions", Json::num(sessions)),
            ("migrations", Json::num(f.migrations)),
            (
                "migration_downtime_ns",
                Json::num(f.migration_downtime.as_nanos()),
            ),
            ("cross_host_transfers", Json::num(f.cross_host_transfers)),
            ("cross_host_pages", Json::num(f.cross_host_pages)),
            ("net_queue_wait_ns", Json::num(f.net_queue_wait.as_nanos())),
            (
                "stranded_page_intervals",
                Json::num(f.stranded_page_intervals),
            ),
            ("per_vm", Json::Arr(vm_rows(hosts))),
        ]));
    }
    Ok(Json::Obj(vec![
        ("footprint_mb", Json::num(footprint_mb)),
        ("policy", Json::str(FLEET_POLICY)),
        ("mix", Json::str("balanced")),
        ("arrival_gap_ms", Json::num(gap_ms)),
        ("effective_gap_ms", Json::num(effective_gap_ms)),
        ("sampling_ms", Json::num(sampling_ms)),
        (
            "note",
            Json::str(
                "peak_rss_kb is the process-lifetime high-water mark (VmHWM) after the \
                 cell; the fleet cells run first, in ascending VM order, each 2-host cell \
                 before its 1-host twin, and a cell across which the mark did not rise \
                 reads null, since the mark is an earlier cell's",
            ),
        ),
        ("cells", Json::Arr(cells)),
    ]))
}

/// Per-VM rows of a cluster run, in VM order across the hosts. A VM's
/// slowdown is its program runtime over the fastest VM's of the same
/// workload (1.00 marks the least-contended VM of its class), `null` when
/// it finished no run.
fn vm_rows(hosts: &[RunResult]) -> Vec<Json> {
    let mut vms: Vec<_> = hosts
        .iter()
        .flat_map(|r| r.vm_results.iter().zip(&r.final_tmem_used))
        .map(|(vm, &occupancy)| {
            let ns: u64 = vm
                .runs
                .iter()
                .filter_map(|rr| rr.duration())
                .map(|d| d.as_nanos())
                .sum();
            let class = vm.runs.first().map_or("-", |rr| rr.workload.as_str());
            (vm, occupancy, class, ns)
        })
        .collect();
    vms.sort_by_key(|&(vm, ..)| vm.vm_id);
    let mut fastest: BTreeMap<&str, u64> = BTreeMap::new();
    for &(_, _, class, ns) in vms.iter().filter(|v| v.3 > 0) {
        let best = fastest.entry(class).or_insert(ns);
        *best = (*best).min(ns);
    }
    vms.iter()
        .map(|&(vm, occupancy, class, ns)| {
            let slowdown = if ns > 0 {
                ns as f64 / fastest[class] as f64
            } else {
                f64::NAN
            };
            Json::Obj(vec![
                ("name", Json::str(&vm.name)),
                ("workload", Json::str(class)),
                ("runtime_s", Json::fixed(ns as f64 / 1e9, 3)),
                ("slowdown", Json::fixed(slowdown, 4)),
                ("occupancy_pages", Json::num(occupancy)),
            ])
        })
        .collect()
}

/// The figure set at [`JOBS_SCALE`] and [`JOBS_REPS`], once per [`JOBS`]
/// worker count.
fn jobs_part(seed: u64, progress: &mut impl FnMut(String)) -> Result<Json, String> {
    let mut entries = Vec::new();
    let mut serial_s = None;
    for jobs in JOBS {
        let cfg = RunConfig {
            scale: JOBS_SCALE,
            seed,
            jobs,
            ..RunConfig::default()
        };
        cfg.validate()?;
        let wall_s = measure(|| figure_set(&cfg)).wall.as_secs_f64();
        let serial_s = *serial_s.get_or_insert(wall_s);
        progress(format!(
            "figure set (scale {JOBS_SCALE}, reps {JOBS_REPS}, jobs={jobs}): {wall_s:.2} s"
        ));
        entries.push(Json::Obj(vec![
            ("jobs", Json::num(jobs)),
            ("wall_s", Json::fixed(wall_s, 3)),
            ("speedup", Json::fixed(serial_s / wall_s, 3)),
        ]));
    }
    let warning = jobs_warning();
    Ok(Json::Obj(vec![
        ("scale", Json::num(JOBS_SCALE)),
        ("reps", Json::num(JOBS_REPS)),
        ("valid", Json::num(warning.is_none())),
        ("warning", Json::str(&warning.unwrap_or_default())),
        ("entries", Json::Arr(entries)),
    ]))
}

/// Compute (and discard) every figure of the paper's evaluation: the
/// timed body of the jobs sweep. No printing, no CSV.
fn figure_set(cfg: &RunConfig) {
    std::hint::black_box(figures::fig3(cfg, JOBS_REPS));
    std::hint::black_box(figures::fig4(cfg));
    std::hint::black_box(figures::fig5(cfg, JOBS_REPS));
    std::hint::black_box(figures::fig6(cfg));
    std::hint::black_box(figures::fig7(cfg, JOBS_REPS));
    std::hint::black_box(figures::fig8(cfg));
    std::hint::black_box(figures::fig9(cfg, JOBS_REPS));
    std::hint::black_box(figures::fig10(cfg));
}

/// One paired micro, named `name`: its fast and reference rates in
/// operations per second. Each closure owns its long-lived
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
fn paired(
    name: &'static str,
    mut fast_round: impl FnMut() -> (u64, Duration),
    mut ref_round: impl FnMut() -> (u64, Duration),
) -> (&'static str, f64, f64) {
    const WARM_ROUNDS: usize = 2;
    const TIMED_ROUNDS: usize = 6;
    // The smallest wall-clock span the paired rounds cover.
    const MIN_TIME: Duration = Duration::from_millis(400);
    let slice = |round: &mut dyn FnMut() -> (u64, Duration)| {
        for _ in 0..WARM_ROUNDS {
            round();
        }
        let (mut ops, mut spent) = (0u64, Duration::ZERO);
        for _ in 0..TIMED_ROUNDS {
            let (o, d) = round();
            ops += o;
            spent += d;
        }
        (ops, spent)
    };
    let wall = Instant::now();
    let (mut fast_ops, mut ref_ops) = (0u64, 0u64);
    let (mut fast_spent, mut ref_spent) = (Duration::ZERO, Duration::ZERO);
    loop {
        let (o, d) = slice(&mut fast_round);
        fast_ops += o;
        fast_spent += d;
        let (o, d) = slice(&mut ref_round);
        ref_ops += o;
        ref_spent += d;
        if wall.elapsed() >= MIN_TIME {
            break;
        }
    }
    (
        name,
        fast_ops as f64 / fast_spent.as_secs_f64(),
        ref_ops as f64 / ref_spent.as_secs_f64(),
    )
}

/// The four paired micros: the fast datapath against the seed
/// `BTreeMap` reference.
fn micro_part(progress: &mut impl FnMut(String)) -> Json {
    const OBJECTS: u64 = 8;
    const PAGES: u32 = 512;
    const ROUND_PAGES: u64 = OBJECTS * PAGES as u64;

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
                let t = Instant::now();
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
                let t = Instant::now();
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
                let t = Instant::now();
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
                let t = Instant::now();
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
    let mut micro = vec![(
        "workload",
        Json::str(&format!(
            "long-lived backends; put_get: sliding-window churn ({OBJECTS} objects x \
             {PAGES} pages in flight, put fresh / get oldest); flush_object, \
             destroy_pool: {ROUND_PAGES} pages filled untimed; ephemeral: \
             {ROUND_PAGES} fresh puts into a 1024-frame ephemeral pool; fast/reference \
             rounds interleaved so host noise cancels out of the ratio"
        )),
    )];
    for (name, fast, reference) in [
        paired("put_get", f_pg, r_pg),
        paired("flush_object", f_fl, r_fl),
        paired("destroy_pool", f_dp, r_dp),
        paired("ephemeral", f_eph, r_eph),
    ] {
        progress(format!(
            "micro {name:>13}: fast {:8.2} Mops/s vs reference {:6.2} Mops/s — {:.2}x",
            fast / 1e6,
            reference / 1e6,
            fast / reference
        ));
        micro.push((
            name,
            Json::Obj(vec![
                ("fast_ops_per_s", Json::fixed(fast, 0)),
                ("reference_ops_per_s", Json::fixed(reference, 0)),
                ("speedup", Json::fixed(fast / reference, 3)),
            ]),
        ));
    }
    Json::Obj(micro)
}
