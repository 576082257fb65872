#!/usr/bin/env python3
"""Simulated-output equivalence: the working tree against a revision.

Run from the root of a source checkout:

    python3 scripts/equiv.py REV [--smoke] [--work DIR]

Builds ``smartmem-cli`` twice, each into a target directory of its own
under ``--work`` (default ``.equiv``): once from REV, exported there with
``git archive``, and once from the working tree. Then it runs every
command line of the corpus ``scenarios/equiv/corpus.txt`` on both builds.
Each cell runs in a directory of its own per side, in which ``scenarios``
names the working tree's ``scenarios/``, so an ``--out`` or ``--resume``
path is the same relative path on both sides and the ``trace:`` lines of
stdout compare equal. ``--smoke`` runs only the lines tagged ``[smoke]``.

Per cell it compares the exit status, stdout, stderr and every file the
cell wrote (each host's trace JSONL, each sweep's ``report.txt`` and
``cells.csv``) byte for byte. A sweep's ``journal.smj`` is left out: its
records follow the order in which cells finished. For each cell that
differs it prints the file and its first differing line, with the event
index for a JSONL trace (line 1 is the header), and then it exits 1.
"""

import argparse
import os
import shlex
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from perf_pairs import ROOT, SIDES, export, fail, git

CORPUS = ROOT / "scenarios" / "equiv" / "corpus.txt"
SMOKE_TAG = "[smoke]"
SKIPPED = {"scenarios", "journal.smj"}


def read_corpus(path, smoke):
    """The corpus's command lines, without tags; only ``[smoke]`` ones
    when ``smoke``."""
    cells = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tagged = line.startswith(SMOKE_TAG)
        if tagged:
            line = line[len(SMOKE_TAG):].strip()
        if tagged or not smoke:
            cells.append(line)
    return cells


def cell_dir(side_dir, i):
    return side_dir / f"{i:03d}"


def build(src, target):
    """Build ``src``'s ``smartmem-cli`` into ``target``; the binary's path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "-p", "smartmem-bench", "--bin", "smartmem-cli"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, cwd=src, env=env, stdout=sys.stderr).returncode != 0:
        fail(f"building smartmem-cli in {src} failed")
    return target / "release" / "smartmem-cli"


def run_cell(binary, d, line):
    """Run one corpus line in the fresh directory ``d``."""
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    (d / "scenarios").symlink_to(ROOT / "scenarios")
    with open(d / "stdout", "wb") as out, open(d / "stderr", "wb") as err:
        p = subprocess.run([str(binary), *shlex.split(line)], cwd=d, stdout=out, stderr=err)
    (d / "status").write_text(f"{p.returncode}\n")


def files_of(d):
    """Every file under ``d`` that a comparison reads, relative to ``d``."""
    found = set()
    for dirpath, dirnames, filenames in os.walk(d):
        dirnames[:] = [n for n in dirnames if n not in SKIPPED]
        for n in filenames:
            if n not in SKIPPED:
                found.add(Path(dirpath, n).relative_to(d).as_posix())
    return found


def first_difference(a, b):
    """1-based number and both sides' text of the first differing line."""
    la, lb = a.splitlines(), b.splitlines()
    for n in range(max(len(la), len(lb))):
        x = la[n] if n < len(la) else None
        y = lb[n] if n < len(lb) else None
        if x != y:
            return n + 1, x, y
    # Equal lines, different bytes: only the line endings differ.
    return len(la), la[-1] if la else "", lb[-1] if lb else ""


def show(text):
    return "(no such line)" if text is None else text.decode(errors="replace")[:300]


def compare(sides, cells):
    """Compare each cell's directories under ``sides`` (side -> directory);
    print every difference. 0 when all cells agree, else 1."""
    differing = 0
    for i, line in enumerate(cells):
        dirs = {s: cell_dir(sides[s], i) for s in SIDES}
        names = {s: files_of(dirs[s]) for s in SIDES}
        found = []
        for name in sorted(names["parent"] | names["change"]):
            missing = [s for s in SIDES if name not in names[s]]
            if missing:
                found.append(f"  {name}: only on the {'change' if missing == ['parent'] else 'parent'} side")
                continue
            a, b = ((dirs[s] / name).read_bytes() for s in SIDES)
            if a == b:
                continue
            n, x, y = first_difference(a, b)
            where = f"line {n}" + (f" (event {n - 2})" if ".jsonl" in name and n > 1 else "")
            found.append(f"  {name} {where}:\n    parent: {show(x)}\n    change: {show(y)}")
        if found:
            differing += 1
            print(f"cell {i} `{line}` differs:")
            print("\n".join(found))
        elif (dirs["change"] / "status").read_text().strip() != "0":
            print(f"note: cell {i} `{line}` exits non-zero on both sides")
    if differing:
        print(f"equiv: FAIL ({differing} of {len(cells)} cells differ)")
        return 1
    print(f"equiv: ok ({len(cells)} cells identical)")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev", metavar="REV")
    p.add_argument("--smoke", action="store_true",
                   help=f"run only the corpus lines tagged {SMOKE_TAG}")
    p.add_argument("--work", type=Path, default=ROOT / ".equiv",
                   help="build and run directory (default: .equiv)")
    args = p.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    cells = read_corpus(CORPUS, args.smoke)
    if not cells:
        fail(f"{CORPUS} names no cell")

    rev = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    work = args.work.resolve()
    srcs = {"parent": work / "parent-src", "change": ROOT}
    export(rev, srcs["parent"])
    binaries = {s: build(srcs[s], work / f"{s}-target") for s in SIDES}
    sides = {s: work / f"{s}-cells" for s in SIDES}
    for d in sides.values():
        shutil.rmtree(d, ignore_errors=True)
    dirty = git("status", "--porcelain", "--untracked-files=no")
    print(f"parent {rev[:12]}; change: working tree at {git('rev-parse', 'HEAD')[:12]}"
          f"{' with uncommitted changes' if dirty else ''}; {len(cells)} cells"
          f"{' (smoke)' if args.smoke else ''}")

    jobs = len(os.sched_getaffinity(0))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        runs = [pool.submit(run_cell, binaries[s], cell_dir(sides[s], i), line)
                for i, line in enumerate(cells) for s in SIDES]
        for r in runs:
            r.result()
    sys.exit(compare(sides, cells))


if __name__ == "__main__":
    main()
