"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The statistics and comparison rules, a guard that fails when a workload or
metric recorded in BENCHMARK.json disappears or changes unit, and a smoke run
of every workload, untraced and traced, at tiny sizes. The Rust side has its
own tests (``cargo test --release --manifest-path perfbench/Cargo.toml``),
which smoke-run every driver and the traced path.
"""

import json
import re
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Names and units later results are compared under. Adding entries is fine;
# removing or re-uniting one breaks comparability with earlier results.
RECORDED_WORKLOADS = ["paper", "fleet-paging", "cluster"]
RECORDED_END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_makespan_s": "sim_s",
    "sim_slowdown_max": "ratio",
    "sim_speedup_vs_notmem": "ratio",
}
RECORDED_PER_LAYER = {
    "tmem.puts": "count",
    "tmem.put_reject_frac": "fraction",
    "tmem.gets": "count",
    "tmem.get_hit_frac": "fraction",
    "tmem.evictions": "count",
    "tmem.flush_pages": "pages",
    "xen-sim.reclaimed_pages": "pages",
    "xen-sim.virq_samples": "count",
    "xen-sim.far_gets": "count",
    "xen-sim.far_used_pages": "pages",
    "guest-os.tmem_faults": "count",
    "guest-os.disk_faults": "count",
    "guest-os.tmem_fault_frac": "fraction",
    "guest-os.evictions_to_disk": "count",
    "guest-os.failed_puts": "count",
    "guest-os.disk_read_wait_s": "sim_s",
    "guest-os.disk_throttle_s": "sim_s",
    "guest-os.relay_shed": "count",
    "core.mm_cycles": "count",
    "core.mm_tx_frac": "fraction",
    "core.migrations": "count",
    "core.migration_downtime_s": "sim_s",
    "core.cross_host_pages": "pages",
    "core.stranded_page_intervals": "page-intervals",
    "scenarios.events": "count",
    "scenarios.host_ns_per_event": "ns",
    "scenarios.par_cpu_util": "fraction",
    "scenarios.replay_s": "s",
    "scenarios.replay_ok": "verdict",
    "sim-core.trace_overhead_frac": "fraction",
    "sim-core.trace_events": "count",
    "sim-core.trace_dropped": "count",
    "workloads.step_ns.inmem": "ns",
    "workloads.step_ns.graph": "ns",
    "workloads.step_ns.fileserver": "ns",
    "workloads.step_ns.usemem": "ns",
    "guest-os.touch_ns.resident": "ns",
    "guest-os.touch_ns.tmem": "ns",
    "guest-os.touch_ns.disk": "ns",
    "xen-sim.put_ns": "ns",
    "xen-sim.get_ns": "ns",
    "tmem.put_get_ns": "ns",
    "tmem.ephemeral_ns": "ns",
    "core.on_stats_ns": "ns",
    "sim-core.queue_ns": "ns",
    "workloads.host_share": "fraction",
    "guest-os.host_share": "fraction",
    "xen-sim.host_share": "fraction",
    "tmem.host_share": "fraction",
    "core.host_share": "fraction",
    "sim-core.host_share": "fraction",
    "unattributed_frac": "fraction",
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles_follow_the_statistics_module(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, q2, q3 = stats.quartiles(xs)
        self.assertEqual([q1, q2, q3], statistics.quantiles(xs, n=4))
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_spread_is_quartile_distance_over_median(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / q2)
        self.assertEqual(stats.spread([3.0, 3.0, 3.0]), 0.0)

    def test_bound_check_respects_direction(self):
        self.assertAlmostEqual(stats.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(stats.worse_by(10.0, 9.0, "higher"), 0.1)
        self.assertLess(stats.worse_by(10.0, 9.0, "lower"), 0)
        self.assertLess(stats.worse_by(1.0, 1.2, "higher"), 0)
        with self.assertRaises(ValueError):
            stats.worse_by(1.0, 2.0, "sideways")

    def _result(self, wall, **ctx):
        context = {k: 1 for k in stats.COMPARABLE_CONTEXT}
        context["commit"] = "abc"
        context.update(ctx)
        return {"context": context, "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    def test_compare_refuses_differing_context(self):
        metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]
        with self.assertRaises(ValueError) as e:
            stats.compare(self._result(1.0), self._result(1.0, nproc=4), metrics)
        self.assertIn("nproc", str(e.exception))
        # The commit identifies the side; it may differ.
        rows, regressed = stats.compare(self._result(1.0), self._result(1.05, commit="def"), metrics)
        self.assertEqual(regressed, [])
        self.assertEqual(rows[0][-1], "ok")
        _, regressed = stats.compare(self._result(1.0), self._result(1.2), metrics)
        self.assertEqual(regressed, ["wall_s"])


class BenchmarkJsonGuard(unittest.TestCase):
    def test_recorded_workloads_and_metrics_keep_their_names_and_units(self):
        workloads = [w["name"] for w in SPEC["workloads"]]
        for name in RECORDED_WORKLOADS:
            self.assertIn(name, workloads)
        for section, recorded in (("end_to_end", RECORDED_END_TO_END), ("per_layer", RECORDED_PER_LAYER)):
            units = {m["name"]: m["unit"] for m in SPEC[section]}
            for name, unit in recorded.items():
                self.assertIn(name, units, f"{section} metric {name} disappeared")
                self.assertEqual(units[name], unit, f"{section} metric {name} changed unit")

    def test_file_follows_the_benchmark_contract(self):
        self.assertEqual(
            set(SPEC),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


@unittest.skipIf(shutil.which("cargo") is None, "needs cargo to build the benchmark")
class SmokeRun(unittest.TestCase):
    """Every workload, untraced and traced, at tiny sizes through run.py."""

    def run_bench(self, workload, trace):
        p = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
             "--seconds", "1", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        return p.stdout, json.loads(p.stdout.strip().splitlines()[-1])

    def test_every_workload_reports_every_metric(self):
        for workload in RECORDED_WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out, result = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    declared = {m["name"]: m["unit"] for m in SPEC[section]}
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], declared[name])
                        self.assertIsInstance(m["value"], float)
                    if trace:
                        self.assertIn("replay PASS", out)
                        self.assertIn("held-out seed 7", out)
                    elif workload == "paper":
                        self.assertIn("fidelity", out)


if __name__ == "__main__":
    unittest.main()
