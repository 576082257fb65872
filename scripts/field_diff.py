#!/usr/bin/env python3
"""Which fields of committed result files differ from a revision's.

Run from the root of a source checkout:

    python3 scripts/field_diff.py REV PATH [PATH ...]

For every file tracked under each PATH, compares the content at REV with
the working tree, field by field, and prints per file the fields that
changed and how many of their values did:

* ``.csv``: a field is a column; rows are matched by position.
* ``.json``: a field is a leaf's path with list positions written ``[]``,
  so ``fleet.cells[].wall_s`` counts every cell's wall.
* anything else (``report.txt``): lines are matched by position and a
  field is the key of a ``key=value`` token; another changed token counts
  as ``<text>``.

A file whose shape changed (rows, lines, keys) says so. The exit status
is 0 either way: the printout is the answer.
"""

import csv
import io
import json
import subprocess
import sys
from collections import Counter


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, check=True).stdout


def csv_fields(old, new):
    a = list(csv.DictReader(io.StringIO(old)))
    b = list(csv.DictReader(io.StringIO(new)))
    if len(a) != len(b) or (a and a[0].keys() != b[0].keys()):
        return None
    return [(k, ra[k], rb[k]) for ra, rb in zip(a, b) for k in ra]


def leaves(value, path=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for v in value:
            yield from leaves(v, f"{path}[]")
    else:
        yield path, value


def json_fields(old, new):
    a, b = list(leaves(json.loads(old))), list(leaves(json.loads(new)))
    if [p for p, _ in a] != [p for p, _ in b]:
        return None
    return [(p, x, y) for (p, x), (_, y) in zip(a, b)]


def field(token):
    return token.split("=", 1)[0] if "=" in token else "<text>"


def text_fields(old, new):
    a, b = old.splitlines(), new.splitlines()
    out = []
    for la, lb in zip(a, b):
        ta, tb = la.split(), lb.split()
        if len(ta) != len(tb) or any(field(x) != field(y) for x, y in zip(ta, tb)):
            return None
        out += [(field(x), x, y) for x, y in zip(ta, tb)]
    return out if len(a) == len(b) else None


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    rev, paths = sys.argv[1], sys.argv[2:]
    files = git("ls-files", "--", *paths).decode().split()
    for f in files:
        old = git("show", f"{rev}:{f}").decode()
        with open(f) as fh:
            new = fh.read()
        compare = {"csv": csv_fields, "json": json_fields}.get(f.rsplit(".", 1)[-1], text_fields)
        pairs = compare(old, new)
        if pairs is None:
            print(f"{f}: shape changed")
            continue
        total = Counter(k for k, _, _ in pairs)
        changed = Counter(k for k, x, y in pairs if x != y)
        if not changed:
            print(f"{f}: identical")
            continue
        print(f"{f}: " + ", ".join(f"{k} ({c} of {total[k]})" for k, c in sorted(changed.items())))


if __name__ == "__main__":
    main()
