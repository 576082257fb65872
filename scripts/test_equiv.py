"""Self-tests of scripts/equiv.py's comparison, over synthetic side
directories (no build, no CLI run).

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import contextlib
import io
import tempfile
import unittest
from pathlib import Path

import equiv

CELLS = ["run scenario1 greedy --scale 0.03 --seed 42",
         "trace fleet:2x8:16 greedy --seed 42 --out trace.jsonl"]
TRACE = ['{"schema":"smartmem-trace","version":1}',
         '{"t":0,"vm":1,"sub":"tmem","ev":"pool_create","pool":0,"ephemeral":false}',
         '{"t":5,"vm":1,"sub":"tmem","ev":"put","res":"stored"}',
         '{"t":9,"vm":1,"sub":"tmem","ev":"get","hit":true}']


class CompareTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.sides = {s: Path(tmp.name, s) for s in equiv.SIDES}
        for side in self.sides.values():
            for i in range(len(CELLS)):
                d = equiv.cell_dir(side, i)
                d.mkdir(parents=True)
                (d / "status").write_text("0\n")
                (d / "stderr").write_text("")
                (d / "stdout").write_text(f"cell {i}: end=24.713s throttle=1.795s\n")
            (equiv.cell_dir(side, 1) / "trace.jsonl").write_text("\n".join(TRACE) + "\n")
            # A sweep journal's record order is not compared.
            (equiv.cell_dir(side, 1) / "journal.smj").write_text(side.name)

    def compare(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = equiv.compare(self.sides, CELLS)
        return status, out.getvalue()

    def test_identical_sides_exit_0(self):
        status, out = self.compare()
        self.assertEqual(status, 0, out)
        self.assertIn("equiv: ok (2 cells identical)", out)

    def test_one_changed_jsonl_line_names_cell_file_and_line(self):
        trace = equiv.cell_dir(self.sides["change"], 1) / "trace.jsonl"
        lines = list(TRACE)
        lines[2] = lines[2].replace('"t":5', '"t":6')
        trace.write_text("\n".join(lines) + "\n")
        status, out = self.compare()
        self.assertEqual(status, 1, out)
        self.assertIn(f"cell 1 `{CELLS[1]}` differs:", out)
        self.assertIn("trace.jsonl line 3 (event 1):", out)
        self.assertIn(f"parent: {TRACE[2]}", out)
        self.assertIn('change: {"t":6,', out)
        self.assertNotIn("cell 0", out)
        self.assertIn("equiv: FAIL (1 of 2 cells differ)", out)

    def test_a_file_on_one_side_only_exits_1(self):
        (equiv.cell_dir(self.sides["parent"], 0) / "trace.jsonl.host1").write_text("{}\n")
        status, out = self.compare()
        self.assertEqual(status, 1, out)
        self.assertIn(f"cell 0 `{CELLS[0]}` differs:", out)
        self.assertIn("trace.jsonl.host1: only on the parent side", out)

    def test_a_changed_stdout_field_is_shown(self):
        stdout = equiv.cell_dir(self.sides["change"], 0) / "stdout"
        stdout.write_text("cell 0: end=24.713s throttle=1.800s\n")
        status, out = self.compare()
        self.assertEqual(status, 1, out)
        self.assertIn("stdout line 1:", out)
        self.assertIn("change: cell 0: end=24.713s throttle=1.800s", out)

    def test_smoke_lines_are_a_tagged_subset_of_the_corpus(self):
        every = equiv.read_corpus(equiv.CORPUS, smoke=False)
        smoke = equiv.read_corpus(equiv.CORPUS, smoke=True)
        self.assertTrue(smoke)
        self.assertLess(len(smoke), len(every))
        self.assertTrue(set(smoke) <= set(every))
        self.assertFalse(any(line.startswith(("[", "#")) for line in every))
        self.assertFalse(any("chaos-grid" in line for line in smoke))


if __name__ == "__main__":
    unittest.main()
