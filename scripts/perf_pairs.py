#!/usr/bin/env python3
"""Paired benchmark runs: the working tree against a parent revision.

Run from the root of a source checkout:

    python3 scripts/perf_pairs.py PARENT_REV [--workloads cluster,paper]
        [--seed 42] [--pairs 10] [--tiny] [--work DIR]

Builds ``perfbench`` twice, each into a target directory of its own under
``--work`` (default ``.perf_pairs``): once from PARENT_REV, exported there
with ``git archive``, and once from the working tree. Then, for each
workload, it runs ``--pairs`` pairs of ``perfbench rep`` processes, one per
side, alternating the sides and flipping which side goes first every pair,
so that drift on a shared host falls on both sides alike.

It prints every run, then per end-to-end metric of BENCHMARK.json both
sides' median and quartiles, the pairs the change won, and ``worse_by``
(``perfbench/stats.py``) against the metric's bound. A fleet workload's
``rep`` reports no ``sim_speedup_vs_notmem`` (``run.py`` needs an extra
no-tmem run for it); equal digests imply an equal value. Exits 1 when a
run fails or is truncated, when a digest differs between runs, or when a
metric's median is worse than its bound. With ``--tiny`` the bounds are
printed but not enforced: runs of a few milliseconds say nothing about
host cost, so a tiny run checks only that both sides build, run and
agree.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import stats  # noqa: E402

SIDES = ("parent", "change")


def fail(msg):
    print(f"perf_pairs: {msg}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    p = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        fail(f"git {' '.join(args)}: {p.stderr.strip()}")
    return p.stdout.strip()


def export(rev, dest):
    """Write the tree of ``rev`` to ``dest``, replacing what was there."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or tar.returncode != 0:
        fail(f"exporting {rev} to {dest} failed")


def build(src, target):
    """Build ``src``'s perfbench into ``target``; the binary's path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(src / "perfbench" / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, cwd=src, env=env, stdout=sys.stderr).returncode != 0:
        fail(f"building {src / 'perfbench'} failed")
    return target / "release" / "perfbench"


def rep(binary, src, workload, seed, tiny):
    """One ``perfbench rep`` process in ``src``; its JSON result or None."""
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        cmd = [str(binary), "rep", "--workload", workload, "--seed", str(seed),
               "--scratch", scratch] + (["--tiny"] if tiny else [])
        p = subprocess.run(cmd, cwd=src, capture_output=True, text=True)
    if p.returncode != 0:
        tail = (p.stderr.strip().splitlines() or ["(no output)"])[-1]
        print(f"    exit {p.returncode}: {tail}")
        return None
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print("    unreadable output")
        return None


def fmt(x):
    return "n/a" if x is None else f"{x:.6g}"


def compare(pairs, spec):
    """Print the per-metric table of one workload's pairs (each a dict from
    side to its result, None for a failed run); True when a bound breaks."""
    breached = False
    print(f"{'metric':22} {'unit':6} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6} {'worse_by':>9}  bound  verdict")
    for m in spec["end_to_end"]:
        name = m["name"]
        xs = {s: [r[name] for r in (pr[s] for pr in pairs) if r and r.get(name) is not None]
              for s in SIDES}
        if not xs["parent"] or not xs["change"]:
            print(f"{name:22} {m['unit']:6} {'n/a':>34} {'n/a':>34}")
            continue
        cols = []
        for s in SIDES:
            q1, q2, q3 = stats.quartiles(xs[s])
            cols.append((q2, f"{fmt(q2)} [{fmt(q1)}, {fmt(q3)}]"))
        both = [(pr["parent"][name], pr["change"][name]) for pr in pairs
                if pr["parent"] and pr["change"]]
        wins = sum(stats.worse_by(p, c, m["better"]) < 0 for p, c in both)
        w = stats.worse_by(cols[0][0], cols[1][0], m["better"])
        verdict = "REGRESSED" if w > m["bound"] else "ok"
        breached |= w > m["bound"]
        print(f"{name:22} {m['unit']:6} {cols[0][1]:>34} {cols[1][1]:>34} "
              f"{wins:>2}/{len(both):<3} {w:>+9.4f}  {m['bound']:<5}  {verdict}")
    return breached


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", metavar="PARENT_REV")
    p.add_argument("--workloads", default=",".join(names),
                   help=f"comma-separated subset of {', '.join(names)} (default: all)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--tiny", action="store_true",
                   help="perfbench's smoke-test sizes; bounds are printed, not enforced")
    p.add_argument("--work", type=Path, default=ROOT / ".perf_pairs",
                   help="build directory (default: .perf_pairs)")
    args = p.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    workloads = args.workloads.split(",")
    if unknown := [w for w in workloads if w not in names]:
        fail(f"unknown workload {', '.join(unknown)} (known: {', '.join(names)})")
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    work = args.work.resolve()
    srcs = {"parent": work / "parent-src", "change": ROOT}
    export(rev, srcs["parent"])
    binaries = {s: build(srcs[s], work / f"{s}-target") for s in SIDES}
    dirty = git("status", "--porcelain", "--untracked-files=no")
    print(f"parent {rev[:12]}; change: working tree at {git('rev-parse', 'HEAD')[:12]}"
          f"{' with uncommitted changes' if dirty else ''}; nproc {len(os.sched_getaffinity(0))}")

    failed = False
    for workload in workloads:
        print(f"== {workload} (seed {args.seed}, {args.pairs} pairs"
              f"{', tiny' if args.tiny else ''}) ==")
        pairs = []
        for i in range(args.pairs):
            pair = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                r = rep(binaries[side], srcs[side], workload, args.seed, args.tiny)
                if r is None or r["truncated"]:
                    print(f"  pair {i + 1} {side}: run failed")
                    failed, r = True, None
                else:
                    print(f"  pair {i + 1} {side:6}  wall {r['wall_s']:7.3f} s  setup "
                          f"{r['setup_s']:7.4f} s  rss {r['peak_rss_mb']:8.2f} MiB  "
                          f"digest {r['digest']}")
                pair[side] = r
            pairs.append(pair)
        digests = {s: sorted({pr[s]["digest"] for pr in pairs if pr[s]}) for s in SIDES}
        same = digests["parent"] == digests["change"] and len(digests["parent"]) == 1
        print(f"digests: parent {' '.join(digests['parent'])}, change {' '.join(digests['change'])} "
              f"({'equal' if same else 'DIFFERENT'})")
        failed |= not same
        failed |= compare(pairs, spec) and not args.tiny
    if failed:
        print("perf_pairs: FAIL (a failed run, a digest mismatch or a bound breach)")
        sys.exit(1)
    print("perf_pairs: ok" + (" (tiny sizes: bounds printed, not enforced)" if args.tiny else ""))


if __name__ == "__main__":
    main()
