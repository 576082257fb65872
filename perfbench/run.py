#!/usr/bin/env python3
"""The repository benchmark: one command for every workload and metric.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cluster --trace 1
    python3 perfbench/run.py compare BASE.json NEW.json

The first call builds ``perfbench/`` (a package of its own) with cargo, into
``$CARGO_TARGET_DIR`` (default ``.bench_build``). Each measured run of a
workload is a fresh ``perfbench rep`` process, so its peak RSS is that of the
workload alone; runs repeat until ``--seconds`` have passed (at least three)
and every end-to-end metric is reported as the median over them.
``--trace 1`` instead runs the traced pass (``perfbench trace``) and one run
at a held-out seed, and reports the per-layer metrics.

Workloads and metrics are declared in BENCHMARK.json. Human-readable lines go
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every result is also
written, with its context, under ``perfbench/out/``; ``compare`` reads two of
those files and refuses them when their contexts differ.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

WORKLOADS = ("paper", "fleet-paging", "cluster")
# The median of at least three runs; the slowest workload's run takes over
# 10 s, so a call still ends well within its 180 s on a loaded 2-core host.
MIN_REPS = 3
HELD_OUT_SEED = 7
# No new run starts once this much of the 180 s a call may take is gone.
START_DEADLINE_S = 120.0
CHILD_TIMEOUT_S = 170.0
# The paper's reported improvement of the tmem policies over no-tmem, per
# running-time figure (EXPERIMENTS.md, claim column), in percent.
PAPER_BANDS = {3: (28.0, 36.0), 5: (21.0, 28.0), 9: (22.0, 40.0)}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the benchmark binary; the simulator crates must be present."""
    for needed in ("Cargo.toml", "crates"):
        if not (ROOT / needed).exists():
            fail(f"{ROOT / needed} is missing: run from a full source checkout")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if p.returncode != 0:
        fail(f"building the benchmark failed ({' '.join(cmd)})")
    binary = target_dir() / "release" / "perfbench"
    if not binary.is_absolute():
        binary = ROOT / binary
    return binary


def digest_files(paths):
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def context(args):
    """Where and how a result was measured; the workload's scale and jobs
    are added from the first ``perfbench`` result."""
    def out(cmd):
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return p.stdout.strip() if p.returncode == 0 else "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    bench_files = [p for p in HERE.rglob("*") if p.is_file() and "out" not in p.relative_to(HERE).parts
                   and "__pycache__" not in p.parts]
    src_files = [p for p in (ROOT / "crates").rglob("*") if p.is_file()]
    src_files += [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": out(["rustc", "-V"]),
        "commit": out(["git", "rev-parse", "HEAD"]),
        "source_digest": digest_files([p for p in src_files if p.exists()]),
        "benchmark_digest": digest_files(bench_files + [ROOT / "BENCHMARK.json"]),
        "tiny": args.tiny,
    }


class Runner:
    """Starts ``perfbench`` processes within the call's time limit."""

    def __init__(self, binary, args, scratch):
        self.binary = binary
        self.args = args
        self.scratch = scratch
        self.started = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.started

    def child(self, command, seed, extra=()):
        """Run one child; returns its JSON result, or None on failure."""
        cmd = [str(self.binary), command, "--workload", self.args.workload,
               "--seed", str(seed), "--scratch", str(self.scratch), *extra]
        if self.args.tiny:
            cmd.append("--tiny")
        timeout = max(1.0, CHILD_TIMEOUT_S - self.elapsed())
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"  {command} seed {seed}: timed out after {timeout:.0f} s")
            return None
        if p.returncode != 0:
            tail = (p.stderr.strip().splitlines() or ["(no output)"])[-1]
            print(f"  {command} seed {seed}: exit {p.returncode}: {tail}")
            return None
        try:
            return json.loads(p.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            print(f"  {command} seed {seed}: unreadable output")
            return None


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def speedup_vs(notmem, smart):
    """Geomean over VMs of no-tmem runtime ÷ smart-alloc runtime."""
    pairs = [(notmem[vm], s) for vm, s in smart.items() if vm in notmem and s > 0]
    return geomean([n / s for n, s in pairs]) if pairs else None


def fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def print_fidelity(fig_speedups, label=""):
    print(f"fidelity{label} — the model is validated only against the paper's reported "
          "no-tmem improvement bands:")
    for key, s in sorted(fig_speedups.items(), key=lambda kv: int(kv[0][3:])):
        fig = int(key[3:])
        gain = (1.0 - 1.0 / s) * 100.0
        band = PAPER_BANDS.get(fig)
        if band is None:
            print(f"  fig{fig}: smart-alloc beats no-tmem by {gain:5.1f} % (no band reported)")
            continue
        lo, hi = band
        if gain > hi:
            where = f"{gain - hi:+.1f} points above the band"
        elif gain < lo:
            where = f"{gain - lo:+.1f} points below the band"
        else:
            where = "inside the band"
        print(f"  fig{fig}: smart-alloc beats no-tmem by {gain:5.1f} % "
              f"(paper {lo:.0f}–{hi:.0f} %; {where})")


def measure(runner, spec, args):
    """``--trace 0``: repeated untraced runs; every end-to-end metric."""
    reps, failures = [], 0
    cells_per_run = 1
    while len(reps) + failures < MIN_REPS or runner.elapsed() < args.seconds:
        if runner.elapsed() > START_DEADLINE_S:
            break
        r = runner.child("rep", args.seed)
        if r is None or r["truncated"]:
            failures += 1
        else:
            reps.append(r)
            cells_per_run = r["cells"]
    attempted = (len(reps) + failures) * cells_per_run
    failed = failures * cells_per_run

    # Same seed, same inputs: every run must produce the same outputs.
    if reps:
        counts = {}
        for r in reps:
            counts[r["digest"]] = counts.get(r["digest"], 0) + 1
        good = max(counts, key=counts.get)
        bad = [r for r in reps if r["digest"] != good]
        failed += len(bad) * cells_per_run
        reps = [r for r in reps if r["digest"] == good]
    if not reps:
        fail("no run of the workload succeeded", 1)

    first = reps[0]
    sim = {
        "sim_makespan_s": first["sim_makespan_s"],
        "sim_slowdown_max": first["sim_slowdown_max"],
        "sim_speedup_vs_notmem": first["sim_speedup_vs_notmem"],
    }
    if args.workload != "paper":
        notmem = runner.child("rep", args.seed, ["--policy", "no-tmem"])
        attempted += 1
        speedup = notmem and speedup_vs(notmem["vm_runtimes_s"], first["vm_runtimes_s"])
        if speedup is None:
            failed += 1
        else:
            sim["sim_speedup_vs_notmem"] = speedup

    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    values.update(sim)

    print(f"runs: {len(reps)} measured, cells {attempted - failed}/{attempted} ok; "
          f"digest {first['digest']}")
    print(f"{'metric':24} {'median':>14} {'unit':8} {'q1':>12} {'q3':>12} {'n':>3} {'spread':>7}  bound")
    for m in spec["end_to_end"]:
        name = m["name"]
        v = values.get(name)
        xs = samples.get(name, [v])
        q1, _, q3 = stats.quartiles(xs)
        print(f"{name:24} {fmt(v):>14} {m['unit']:8} {fmt(q1):>12} {fmt(q3):>12} {len(xs):>3} "
              f"{stats.spread(xs):7.4f}  {m['bound']}")
    print(f"{'fail_frac':24} {fmt(failed / attempted):>14} {'fraction':8}")
    if args.workload == "paper":
        print_fidelity(first["fig_speedups"])
    return values, samples, attempted, failed, {"reps": reps}


def traced(runner, spec, args):
    """``--trace 1``: the traced pass, the drivers and the held-out seed."""
    spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
    t = runner.child("trace", args.seed, ["--spans", str(spans_path)])
    held_seed = HELD_OUT_SEED if args.seed != HELD_OUT_SEED else 42
    if t is None:
        fail("the traced pass failed", 1)
    held = runner.child("rep", held_seed)
    cells = t["cells"]
    attempted, failed = 2 * cells, 0
    if t["truncated"] or t["replay"] == "fail" or t["digest"] != t["digest_untraced"]:
        failed += cells
    if held is None or held["truncated"]:
        failed += cells

    values = t["metrics"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"traced pass: replay {t['replay'].upper()}, digest untraced {t['digest_untraced']} "
          f"traced {t['digest']} ({'equal' if t['digest'] == t['digest_untraced'] else 'DIFFERENT'})")
    if t["replay"] == "unverifiable":
        print(f"  replay impossible: the ring dropped {values['sim-core.trace_dropped']:.0f} of "
              f"{values['sim-core.trace_events']:.0f} events")
    print("per-layer metrics (host_share values are estimates: count × ns per call ÷ host "
          "CPU time, not span self times):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:34} {fmt(values.get(m['name'])):>14} {units[m['name']]}")
    print(f"{'fail_frac':36} {fmt(failed / attempted):>14} fraction")
    print("spans (benchmark-side calls into each layer; self time excludes nested spans):")
    for name, s in sorted(t["spans"].items(), key=lambda kv: -kv[1]["total_s"])[:12]:
        print(f"  {name:34} n={s['count']:<7} total {s['total_s']:9.3f} s  self {s['self_s']:9.3f} s")
    print(f"spans written: {spans_path.relative_to(ROOT)}")
    if held is not None:
        print(f"held-out seed {held_seed} beside seed {args.seed}:")
        main_vals = {"wall_s": t["wall_untraced_s"], "sim_makespan_s": t["sim_makespan_s"],
                     "sim_slowdown_max": t["sim_slowdown_max"],
                     "sim_speedup_vs_notmem": t["sim_speedup_vs_notmem"]}
        for name, v in main_vals.items():
            if v is not None:
                print(f"  {name:24} seed {args.seed}: {fmt(v):>14}   seed {held_seed}: {fmt(held[name]):>14}")
        if args.workload == "paper":
            print_fidelity(t["fig_speedups"], f" at seed {args.seed}")
            print_fidelity(held["fig_speedups"], f" at seed {held_seed}")
    return values, {}, attempted, failed, {"trace": t, "held_out": held}


def run(argv):
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args(argv)

    binary = build()
    ctx = context(args)
    out_dir = HERE / "out"
    scratch = out_dir / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    print(f"== perfbench {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {'on' if args.trace else 'off'}) ==")
    runner = Runner(binary, args, scratch)
    try:
        if args.trace:
            values, samples, attempted, failed, raw = traced(runner, spec, args)
            declared = spec["per_layer"]
        else:
            values, samples, attempted, failed, raw = measure(runner, spec, args)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    first = raw["trace"] if args.trace else raw["reps"][0]
    ctx.update(scale=first["scale"], jobs=first["jobs"])
    print("context: " + " ".join(f"{k}={ctx[k]}" for k in
                                 ("nproc", "commit", "rustc", "scale", "jobs", "source_digest")))

    metrics = {}
    for m in declared:
        v = values.get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {m['name']} was not measured ({v!r})", 1)
        metrics[m["name"]] = {"value": float(v), "unit": m["unit"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, context=ctx, samples=samples, raw=raw)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"result: {path.relative_to(ROOT)} ({runner.elapsed():.1f} s)")
    print(json.dumps(result))


def compare_cmd(argv):
    spec = load_spec()
    if len(argv) != 2:
        fail("usage: run.py compare BASE.json NEW.json")
    base, new = (json.loads(Path(a).read_text()) for a in argv)
    declared = spec["per_layer"] if base["context"].get("trace") else spec["end_to_end"]
    try:
        rows, regressions = stats.compare(base, new, declared)
    except ValueError as e:
        fail(str(e), 3)
    print(f"{'metric':34} {'unit':8} {'base':>12} {'new':>12} {'worse by':>9}  bound  verdict")
    for name, unit, b, n, w, bound, verdict in rows:
        print(f"{name:34} {unit:8} {fmt(b):>12} {fmt(n):>12} {w:>+9.3f}  {fmt(bound):5}  {verdict}")
    if regressions:
        print("regressed: " + ", ".join(regressions))
        sys.exit(1)


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        compare_cmd(argv[1:])
    else:
        run(argv)


if __name__ == "__main__":
    main()
