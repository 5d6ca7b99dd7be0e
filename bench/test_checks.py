"""Each of the benchmark's checks passes on real ejsp output and fails on a
deliberately wrong copy of it.

    python3 bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from ejsp.cli import run_cli  # noqa: E402
from ejsp.io import read_instance_file  # noqa: E402
from ejsp.solver import SolverConfig, dispatch  # noqa: E402

FIVE = checks.grid(5)

# two jobs over two machines, one speed: job 0 runs 5 + 5, job 1 runs 3 + 3
TWO_BY_TWO = b"""jobs 2
machines 2
tasks 2
speeds 1
multipliers 1.000000
seed 0
index 0
dist uniform a=0.000000 b=1.000000
rrdd none
variant orig
prng splitmix64
version 0.1.0
0 0 0 5 0 inf 5 1
0 1 1 5 0 inf 5 1
1 0 1 3 0 inf 3 1
1 1 0 3 0 inf 3 1
"""


def ejsp(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(list(argv))
    assert code == 0, argv
    return out.getvalue()


def edit_task(data: bytes, row: int, column: int, value: str) -> bytes:
    """Copy of `.ejsp` bytes with one field of one task row replaced."""
    lines = data.decode("ascii").split("\n")
    fields = lines[len(checks.HEADER_KEYS) + row].split(" ")
    fields[column] = value
    lines[len(checks.HEADER_KEYS) + row] = " ".join(fields)
    return "\n".join(lines).encode("ascii")


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        root = Path(cls.tmp.name)
        cls.suite = root / "suite"
        ejsp("generate", "--paper-suite", "--count", "2", "--seed", "11", "--out", str(cls.suite))
        cls.orig_dir, cls.relaxed_dir = root / "orig", root / "relaxed"
        ejsp("generate", "--count", "2", "--jobs", "3", "--machines", "3", "--speeds", "3",
             "--dist", "uniform", "--rrdd", "tight", "--seed", "4", "--out", str(cls.orig_dir))
        ejsp("derive", "--variants", "relax", "--in", str(cls.orig_dir), "--out", str(cls.relaxed_dir))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def read(self, path: Path, data: bytes | None = None) -> checks.EjspFile:
        return checks.parse_ejsp(path.read_bytes() if data is None else data, path.name)

    def test_real_outputs_pass(self):
        checks.check_manifest(self.suite)
        orig = self.read(self.suite / "inst_0000_orig.ejsp")
        checks.check_shape(orig, (30, 250), (3, 20), 5)
        checks.check_instance(orig, checks.Curves(), FIVE, (1, 100))
        checks.check_projection(orig, self.read(self.suite / "inst_0000_s1-3-5.ejsp"), (0, 2, 4))
        checks.check_projection(orig, self.read(self.suite / "inst_0000_s3.ejsp"), (2,))
        small = self.read(self.orig_dir / "inst_0000_orig.ejsp")
        checks.check_instance(small, checks.Curves(), checks.grid(3), (1, 100))
        checks.check_relaxed(small, self.read(self.relaxed_dir / "inst_0000_relaxed.ejsp"))
        path = self.orig_dir / "inst_0000_orig.ejsp"
        checks.check_schedule(small, dispatch(read_instance_file(path), SolverConfig()).entries)

    def test_flipped_manifest_digest(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp)
            for p in self.suite.iterdir():
                (copy / p.name).write_bytes(p.read_bytes())
            checks.check_manifest(copy)
            manifest = json.loads((copy / "manifest.json").read_bytes())
            digest = manifest["entries"][1]["sha256"]
            manifest["entries"][1]["sha256"] = ("1" if digest[0] == "0" else "0") + digest[1:]
            (copy / "manifest.json").write_text(json.dumps(manifest))
            with self.assertRaisesRegex(CheckFailed, "manifest digest"):
                checks.check_manifest(copy)

    def test_manifest_missing_a_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp)
            for p in self.suite.iterdir():
                (copy / p.name).write_bytes(p.read_bytes())
            (copy / "inst_0099_orig.ejsp").write_bytes((copy / "inst_0000_orig.ejsp").read_bytes())
            with self.assertRaisesRegex(CheckFailed, "directory holds"):
                checks.check_manifest(copy)

    def test_energy_off_by_one(self):
        path = self.suite / "inst_0000_orig.ejsp"
        f = self.read(path)
        column = 6 + 5 + 2  # the third speed's energy
        wrong = edit_task(path.read_bytes(), 3, column, str(f.tasks[3].energies[2] + 1))
        with self.assertRaisesRegex(CheckFailed, "energies .* != curve"):
            checks.check_instance(self.read(path, wrong), checks.Curves(), FIVE, (1, 100))

    def test_time_not_monotone(self):
        path = self.suite / "inst_0000_orig.ejsp"
        f = self.read(path)
        wrong = edit_task(path.read_bytes(), 0, 6 + 4, str(f.tasks[0].times[3] + 1))
        with self.assertRaisesRegex(CheckFailed, "times increase"):
            checks.check_instance(self.read(path, wrong), checks.Curves(), FIVE, (1, 100))

    def test_projection_keeps_wrong_column(self):
        orig = self.read(self.suite / "inst_0001_orig.ejsp")
        path = self.suite / "inst_0001_s3.ejsp"
        wrong = path.read_bytes()
        for row, task in enumerate(orig.tasks):
            wrong = edit_task(wrong, row, 6, str(task.times[1]))
            wrong = edit_task(wrong, row, 7, str(task.energies[1]))
        with self.assertRaisesRegex(CheckFailed, r"is not columns \[2\]"):
            checks.check_projection(orig, self.read(path, wrong), (2,))

    def test_relaxed_keeps_a_due_date(self):
        orig = self.read(self.orig_dir / "inst_0001_orig.ejsp")
        path = self.relaxed_dir / "inst_0001_relaxed.ejsp"
        wrong = path.read_bytes()
        for row in range(orig.tasks_per_job):  # every task of job 0, so its dates stay uniform
            wrong = edit_task(wrong, row, 5, str(orig.tasks[row].due))
        with self.assertRaisesRegex(CheckFailed, "release 0 and due inf"):
            checks.check_relaxed(orig, self.read(path, wrong))

    def test_schedule_with_machine_overlap(self):
        f = checks.parse_ejsp(TWO_BY_TWO, "two_by_two.ejsp")
        entries = {(0, 0): (0, 0), (1, 0): (0, 0), (0, 1): (5, 0), (1, 1): (5, 0)}
        self.assertEqual(checks.check_schedule(f, entries), (10, 4, 0))
        entries[(1, 1)] = (3, 0)  # right after its job predecessor, inside (0, 0) on machine 0
        with self.assertRaisesRegex(CheckFailed, "machine 0 overlap"):
            checks.check_schedule(f, entries)

    def test_schedule_before_job_predecessor(self):
        f = checks.parse_ejsp(TWO_BY_TWO, "two_by_two.ejsp")
        entries = {(0, 0): (0, 0), (1, 0): (0, 0), (0, 1): (4, 0), (1, 1): (5, 0)}
        with self.assertRaisesRegex(CheckFailed, "job 0 task 1 starts at 4 before 5"):
            checks.check_schedule(f, entries)

    def test_solve_row_energy_not_policy_sum(self):
        path = self.orig_dir / "inst_0000_orig.ejsp"
        f = self.read(path)
        out = ejsp("solve", str(path), "--speed-policy", "fastest")
        row = checks.parse_solve_csv(out)[0]
        checks.check_solve_row(row, f)
        row["total_energy"] += 1
        with self.assertRaisesRegex(CheckFailed, "policy column sum"):
            checks.check_solve_row(row, f)

    def test_improve_worse_than_dispatch(self):
        rows = [{"file": "a.ejsp", "makespan": 10}]
        checks.check_improve_rows(rows, [{"file": "a.ejsp", "makespan": 10}])
        with self.assertRaisesRegex(CheckFailed, "improve makespan 11 > dispatch"):
            checks.check_improve_rows(rows, [{"file": "a.ejsp", "makespan": 11}])


if __name__ == "__main__":
    unittest.main()
