"""Statistics and comparison rules of the benchmark.

Medians and quartiles follow Python's ``statistics`` module (quartiles as
``statistics.quantiles(values, n=4)`` gives them). A metric regresses when
the new median is worse than the base median by more than the metric's
bound, as a share of the base median.
"""

import statistics

# Context keys that must match before two result sets may be compared.
# The commit and source digest identify the two sides, so they may differ.
COMPARABLE_CONTEXT = (
    "benchmark_digest",
    "jobs",
    "nproc",
    "rustc",
    "scale",
    "seconds",
    "seed",
    "trace",
    "workload",
)


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty sequence."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def worse_by(base, new, better):
    """Share of ``base`` by which ``new`` is worse (negative when better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    if better == "lower":
        return (new - base) / abs(base)
    if better == "higher":
        return (base - new) / abs(base)
    raise ValueError(f"'better' must be 'lower' or 'higher', not {better!r}")


def context_mismatch(a, b):
    """Keys of the comparable context on which two result sets differ."""
    return [k for k in COMPARABLE_CONTEXT if a.get(k) != b.get(k)]


def compare(base, new, metrics):
    """Compare two result sets metric by metric.

    ``base`` and ``new`` are result files as ``run.py`` writes them;
    ``metrics`` is the ``end_to_end`` (or ``per_layer``) list of
    BENCHMARK.json. Returns ``(rows, regressions)`` where each row is
    ``(name, unit, base median, new median, worse_by, bound, verdict)``.
    Raises ``ValueError`` when the contexts differ.
    """
    diff = context_mismatch(base["context"], new["context"])
    if diff:
        raise ValueError(
            "refusing to compare result sets whose context differs in: "
            + ", ".join(f"{k} ({base['context'].get(k)!r} vs {new['context'].get(k)!r})" for k in diff)
        )
    rows, regressions = [], []
    for m in metrics:
        name = m["name"]
        if name not in base["metrics"] or name not in new["metrics"]:
            continue
        b = base["metrics"][name]["value"]
        n = new["metrics"][name]["value"]
        bound = m.get("bound")
        w = worse_by(b, n, m["better"])
        if bound is None:
            verdict = "-"
        elif w > bound:
            verdict = "REGRESSED"
            regressions.append(name)
        else:
            verdict = "ok"
        rows.append((name, m["unit"], b, n, w, bound, verdict))
    return rows, regressions
