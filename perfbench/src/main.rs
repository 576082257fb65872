//! `perfbench`: one measured run of a benchmark workload per process.
//!
//! ```text
//! perfbench rep   --workload W --seed N --scratch DIR [--policy no-tmem] [--tiny]
//! perfbench trace --workload W --seed N --scratch DIR [--spans FILE] [--tiny]
//! ```
//!
//! `rep` times set-up and one untraced run and reads the process's peak
//! RSS; `trace` runs the workload untraced and then traced, replay-checks
//! it and times each layer's drivers. Each prints one JSON object as its
//! last line of standard output. `run.py` starts these processes, repeats
//! them and reports medians.

mod drivers;
mod json;
mod spans;
mod workload;

use drivers::{Sizing, CLASSES};
use json::Object;
use smartmem_core::PolicyKind;
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Outcome, Plan, Replay, Workload, POLICY};

/// Set-up repeats (at least once) until this much host time has gone into
/// it; the median repeat is reported, and `run.py` takes the median over
/// its runs. A long window keeps a microsecond set-up from being timed
/// inside one burst of load from elsewhere on the host.
const SETUP_BUDGET: Duration = Duration::from_millis(500);

#[derive(Debug)]
struct Args {
    command: String,
    plan: Plan,
    policy: PolicyKind,
    scratch: PathBuf,
    spans_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (command, rest) = argv
        .split_first()
        .ok_or("usage: perfbench <rep|trace> --workload W --seed N --scratch DIR")?;
    if command != "rep" && command != "trace" {
        return Err(format!("unknown command '{command}' (rep, trace)"));
    }
    let mut workload = None;
    let mut seed = 42;
    let mut tiny = false;
    let mut policy = POLICY;
    let mut scratch = None;
    let mut spans_out = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--policy" => policy = scenarios::dsl::parse_policy(value()?)?,
            "--scratch" => scratch = Some(PathBuf::from(value()?)),
            "--spans" => spans_out = Some(PathBuf::from(value()?)),
            "--tiny" => tiny = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        command: command.clone(),
        plan: Plan {
            workload: workload.ok_or("--workload is required")?,
            seed,
            tiny,
        },
        policy,
        scratch: scratch.ok_or("--scratch is required")?,
        spans_out,
    })
}

/// This process's CPU time (user + system, every thread), seconds.
fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 per second).
    let tail = stat.rsplit_once(')').map_or("", |(_, t)| t);
    let f: Vec<u64> = tail
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    if f.len() < 13 {
        return f64::NAN;
    }
    (f[11] + f[12]) as f64 / 100.0
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The plan's part of a result's context.
fn plan_fields(o: &mut Object, plan: &Plan) {
    let cfg = plan.config();
    o.str("workload", plan.workload.name())
        .int("seed", plan.seed)
        .num("scale", cfg.scale)
        .int("jobs", cfg.jobs as u64);
}

fn outcome_fields(o: &mut Object, out: &Outcome) {
    o.int("cells", out.cells)
        .int("truncated", out.truncated)
        .str("digest", &format!("{:016x}", out.digest))
        .num("sim_makespan_s", out.sim.makespan_s)
        .num("sim_slowdown_max", out.sim.slowdown_max)
        .num(
            "sim_speedup_vs_notmem",
            out.sim.speedup_vs_notmem.unwrap_or(f64::NAN),
        );
    let mut figs = Object::default();
    for (fig, s) in &out.sim.fig_speedups {
        figs.num(&format!("fig{fig}"), *s);
    }
    o.raw("fig_speedups", figs.render());
    let mut vms = Object::default();
    for (name, s) in &out.sim.vm_runtimes {
        vms.num(name, *s);
    }
    o.raw("vm_runtimes_s", vms.render());
}

/// One measured run: set-up (repeated, median reported), then the
/// workload once with tracing off.
fn rep(a: &Args) -> Result<String, String> {
    let mut setup = Vec::new();
    let mut datasets = 0;
    let started = Instant::now();
    while setup.is_empty() || started.elapsed() < SETUP_BUDGET {
        let t = Instant::now();
        datasets = a.plan.setup()?;
        setup.push(t.elapsed().as_secs_f64());
    }
    let setup_s = drivers::median(&mut setup);

    let spans = Spans::default();
    let cpu0 = cpu_s();
    let t = Instant::now();
    let out = spans.time("rep", None, |id| {
        a.plan.run(a.policy, &a.scratch, &spans, Some(id))
    })?;
    let wall_s = t.elapsed().as_secs_f64();
    let cpu = cpu_s() - cpu0;

    let mut o = Object::default();
    plan_fields(&mut o, &a.plan);
    o.str("policy", &a.policy.to_string())
        .num("wall_s", wall_s)
        .num("cpu_s", cpu)
        .num("setup_s", setup_s)
        .int("setup_repeats", setup.len() as u64)
        .int("setup_datasets", datasets)
        .num("peak_rss_mb", peak_rss_mb());
    outcome_fields(&mut o, &out);
    Ok(o.render())
}

/// The traced pass: the workload untraced and traced, replay, the
/// per-call drivers, and every per-layer metric derived from them.
fn trace(a: &Args) -> Result<String, String> {
    let plan = a.plan;
    let sz = Sizing::of(&plan)?;
    let spans = Spans::default();

    let cpu0 = cpu_s();
    let t = Instant::now();
    let untraced = spans.time("untraced", None, |id| {
        plan.run(POLICY, &a.scratch, &spans, Some(id))
    })?;
    let wall_u = t.elapsed().as_secs_f64();
    let cpu_u = cpu_s() - cpu0;

    let t = Instant::now();
    let traced = spans.time("traced", None, |id| {
        plan.run_traced(&a.scratch, &spans, Some(id))
    })?;
    let wall_t = t.elapsed().as_secs_f64();

    let (step, touch, hyp, backend, on_stats, queue) = spans.time("drivers", None, |id| {
        let p = Some(id);
        let step: Vec<f64> = CLASSES
            .iter()
            .map(|c| drivers::step_ns(&sz, c, plan.seed, &spans, p))
            .collect();
        (
            step,
            drivers::touch_ns(&sz, &spans, p),
            drivers::hypervisor_ns(&sz, &spans, p),
            drivers::backend_ns(&sz, &spans, p),
            drivers::on_stats_ns(&sz, plan.seed, &spans, p),
            drivers::queue_ns(&sz, plan.seed, &spans, p),
        )
    });

    let c = &traced.counts;
    let k = &c.kernel;
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let events = c.events as f64;
    // Estimated shares of host CPU time: count × ns per call ÷ the
    // untraced run's CPU time (equal to its wall time on the serial fleet
    // workloads; on paper's 2-thread grid, wall time would count twice).
    let cpu_ns = cpu_u * 1e9;
    let weighted_step = sz
        .weights
        .iter()
        .map(|(c, w)| w * step[CLASSES.iter().position(|k| k == c).expect("known class")])
        .sum::<f64>();
    let share_workloads = events * weighted_step / cpu_ns;
    let share_core = c.mm_cycles as f64 * on_stats / cpu_ns;
    let share_sim = events * queue / cpu_ns;

    let mut m = Object::default();
    m.num("tmem.puts", c.trace.puts as f64)
        .num(
            "tmem.put_reject_frac",
            frac(c.trace.puts_rejected, c.trace.puts),
        )
        .num("tmem.gets", c.trace.gets as f64)
        .num("tmem.get_hit_frac", frac(c.trace.get_hits, c.trace.gets))
        .num("tmem.evictions", c.trace.evictions as f64)
        .num("tmem.flush_pages", c.trace.flush_pages as f64)
        .num("xen-sim.reclaimed_pages", c.trace.reclaimed_pages as f64)
        .num("xen-sim.virq_samples", c.trace.virq_samples as f64)
        .num("xen-sim.far_gets", c.far_gets as f64)
        .num("xen-sim.far_used_pages", c.far_used_pages as f64)
        .num("guest-os.tmem_faults", k.tmem_faults as f64)
        .num("guest-os.disk_faults", k.disk_faults as f64)
        .num(
            "guest-os.tmem_fault_frac",
            frac(k.tmem_faults, k.tmem_faults + k.disk_faults),
        )
        .num("guest-os.evictions_to_disk", k.evictions_to_disk as f64)
        .num("guest-os.failed_puts", k.failed_puts as f64)
        .num("guest-os.disk_read_wait_s", c.disk_read_wait_s)
        .num("guest-os.disk_throttle_s", c.disk_throttle_s)
        .num("guest-os.relay_shed", c.trace.relay_shed as f64)
        .num("core.mm_cycles", c.mm_cycles as f64)
        .num("core.mm_tx_frac", frac(c.mm_transmissions, c.mm_cycles))
        .num("core.migrations", c.migrations as f64)
        .num("core.migration_downtime_s", c.migration_downtime_s)
        .num("core.cross_host_pages", c.cross_host_pages as f64)
        .num(
            "core.stranded_page_intervals",
            c.stranded_page_intervals as f64,
        )
        .num("scenarios.events", events)
        .num("scenarios.host_ns_per_event", wall_u * 1e9 / events)
        .num("scenarios.par_cpu_util", cpu_u / (wall_u * 2.0))
        .num("scenarios.replay_s", traced.replay_s)
        .num(
            "scenarios.replay_ok",
            match traced.replay {
                Replay::Pass => 1.0,
                Replay::Unverifiable => 0.0,
                Replay::Fail => -1.0,
            },
        )
        .num("sim-core.trace_overhead_frac", wall_t / wall_u - 1.0)
        .num("sim-core.trace_events", c.trace_events as f64)
        .num("sim-core.trace_dropped", c.trace_dropped as f64);
    for (class, ns) in CLASSES.iter().zip(&step) {
        m.num(&format!("workloads.step_ns.{class}"), *ns);
    }
    m.num("guest-os.touch_ns.resident", touch[0])
        .num("guest-os.touch_ns.tmem", touch[1])
        .num("guest-os.touch_ns.disk", touch[2])
        .num("xen-sim.put_ns", hyp[0])
        .num("xen-sim.get_ns", hyp[1])
        .num("tmem.put_get_ns", backend[0])
        .num("tmem.ephemeral_ns", backend[1])
        .num("core.on_stats_ns", on_stats)
        .num("sim-core.queue_ns", queue)
        .num("workloads.host_share", share_workloads)
        .num(
            "guest-os.host_share",
            (k.tmem_faults as f64 * touch[1] + k.disk_faults as f64 * touch[2]) / cpu_ns,
        )
        .num(
            "xen-sim.host_share",
            (c.trace.puts as f64 * hyp[0] + c.trace.gets as f64 * hyp[1]) / cpu_ns,
        )
        .num(
            "tmem.host_share",
            (c.trace.puts + c.trace.gets) as f64 / 2.0 * backend[0] / cpu_ns,
        )
        .num("core.host_share", share_core)
        .num("sim-core.host_share", share_sim)
        .num(
            "unattributed_frac",
            1.0 - share_workloads - share_core - share_sim,
        );

    let mut totals = Object::default();
    for (name, t) in spans.totals() {
        let mut o = Object::default();
        o.int("count", t.count)
            .num("total_s", t.total_ns as f64 / 1e9)
            .num("self_s", t.self_ns as f64 / 1e9);
        totals.raw(&name, o.render());
    }
    if let Some(path) = &a.spans_out {
        write_file(path, &spans.to_json())?;
    }

    let mut o = Object::default();
    plan_fields(&mut o, &plan);
    o.num("wall_untraced_s", wall_u)
        .num("wall_traced_s", wall_t)
        .str("digest_untraced", &format!("{:016x}", untraced.digest))
        .str("replay", &format!("{:?}", traced.replay).to_lowercase());
    outcome_fields(&mut o, &traced.outcome);
    o.raw("metrics", m.render()).raw("spans", totals.render());
    Ok(o.render())
}

fn write_file(path: &Path, body: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|a| {
        std::fs::create_dir_all(&a.scratch)
            .map_err(|e| format!("creating {}: {e}", a.scratch.display()))?;
        if a.command == "rep" {
            rep(&a)
        } else {
            trace(&a)
        }
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(command: &str, w: Workload, dir: &Path) -> Args {
        Args {
            command: command.into(),
            plan: Plan {
                workload: w,
                seed: 3,
                tiny: true,
            },
            policy: POLICY,
            scratch: dir.to_path_buf(),
            spans_out: Some(dir.join("spans.json")),
        }
    }

    #[test]
    fn args_parse_and_reject_unknown_input() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("rep --workload cluster --seed 7 --scratch d --tiny")).unwrap();
        assert_eq!(a.plan.workload, Workload::Cluster);
        assert_eq!((a.plan.seed, a.plan.tiny), (7, true));
        assert!(parse_args(&v("rep --workload nope --scratch d")).is_err());
        assert!(parse_args(&v("rep --workload paper")).is_err());
        assert!(parse_args(&v("bench --workload paper --scratch d")).is_err());
    }

    /// Every workload's rep and traced pass run at tiny size; the traced
    /// run reproduces the untraced digest, replays where nothing dropped,
    /// and reports every per-layer metric as a number.
    #[test]
    fn rep_and_trace_smoke_at_tiny_size() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        for w in Workload::ALL {
            let r = rep(&args("rep", w, &dir)).expect("rep runs");
            assert!(r.contains("\"wall_s\": ") && !r.contains("\"sim_makespan_s\": null"));
            let t = trace(&args("trace", w, &dir)).expect("trace runs");
            let digest = |key: &str, s: &str| {
                let at = s.find(key).expect("digest present") + key.len();
                s[at..at + 20].to_string()
            };
            assert_eq!(
                digest("\"digest_untraced\": ", &t),
                digest("\"digest\": ", &t),
                "{w:?}: tracing changed the outputs"
            );
            assert!(t.contains("\"replay\": \"pass\""), "{w:?}: {t}");
            let metrics = &t[t.find("\"metrics\": ").expect("metrics present")..];
            assert!(
                !metrics.contains("null"),
                "{w:?}: a metric is not a number: {t}"
            );
            for name in ["tmem.puts", "core.on_stats_ns", "unattributed_frac"] {
                assert!(t.contains(&format!("\"{name}\": ")), "{w:?} lacks {name}");
            }
        }
        let spans = std::fs::read_to_string(dir.join("spans.json")).expect("spans written");
        assert!(spans.contains("\"name\": \"verify\""));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
