"""The three workloads: their inputs, their `ejsp` commands and their checks.

A workload is planned from the run's seed alone. Each round runs its
commands into a fresh directory, stage by stage (make, validate, solve),
and the workload then checks what they wrote and printed with `checks`.

Inputs are sized so that the work of a round hardly depends on the seed:
`paper-suite` takes the prefix of the paper preset whose original task rows
come closest to a fixed total, and solves originals picked to fill a fixed
dispatch scan size; the other two workloads use fixed shapes and counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import checks
from checks import CheckFailed, require

PRESET_JOBS = (30, 250)
PRESET_MACHINES = (3, 20)
PRESET_DISTS = ("exponential", "gaussian", "uniform")
PRESET_RRDD = ("loose", "tight")
PRESET_MAX = 500  # the full preset; prefixes never go beyond it
PAPER_COLUMNS = {"s1-3-5": (0, 2, 4), "s3": (2,)}
BASE_RANGE = (1, 100)

MASK64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 as the paper preset uses it to draw its shapes."""

    def __init__(self, seed: int, index: int):
        self.state = _mix((seed ^ (index * GAMMA & MASK64)) & MASK64)

    def int_range(self, lo: int, hi: int) -> int:
        self.state = (self.state + GAMMA) & MASK64
        unit = (_mix(self.state) >> 11) * 2.0**-53
        return min(lo + math.floor(unit * (hi - lo + 1)), hi)


@dataclass(frozen=True)
class Shape:
    jobs: int
    machines: int
    dist: str
    rrdd: str


def preset_shapes(seed: int, count: int) -> list[Shape]:
    """Shapes of the first `count` preset originals: one meta stream at index
    2^32 draws jobs, machines, distribution and date mode per original."""
    meta = SplitMix64(seed, 2**32)
    return [
        Shape(
            meta.int_range(*PRESET_JOBS),
            meta.int_range(*PRESET_MACHINES),
            PRESET_DISTS[meta.int_range(0, 2)],
            PRESET_RRDD[meta.int_range(0, 1)],
        )
        for _ in range(count)
    ]


@dataclass(frozen=True)
class Solve:
    """One `ejsp solve` command: inputs relative to the round directory."""

    inputs: tuple[str, ...]
    rule: str
    policy: str
    budget: int

    def argv(self, d: Path) -> list[str]:
        return ["solve", *(str(d / p) for p in self.inputs), "--rule", self.rule,
                "--speed-policy", self.policy, "--budget", str(self.budget)]


@dataclass(frozen=True)
class Result:
    argv: list[str]
    code: int
    out: str
    err: str
    seconds: float


class Workload:
    """Commands of one round, by stage, and the checks of their outputs."""

    name = ""
    suites: tuple[str, ...] = ()  # output directories the make stage creates

    def __init__(self, seed: int):
        self.seed = seed % 2**64

    def make(self, d: Path) -> list[list[str]]:
        raise NotImplementedError

    def solves(self) -> list[Solve]:
        raise NotImplementedError

    def stages(self, d: Path) -> dict[str, list[list[str]]]:
        return {
            "make": self.make(d),
            "validate": [["validate", *(str(d / s) for s in self.suites)]],
            "solve": [s.argv(d) for s in self.solves()],
        }

    def check_files(self, d: Path, made: dict[str, list[str]], curves: checks.Curves) -> dict:
        """Full check of every made file (`made` lists each suite's manifest
        files); returns the input's make-up."""
        raise NotImplementedError

    def check_round(self, d: Path, results: dict[str, list[Result]], full: bool) -> dict:
        """Check one round's outputs.

        Every round: the manifest digests, the validate summary and which
        files the solve rows name. `full` (a run's first round) adds the
        per-file checks, each solve row's properties and its schedule.
        Returns what later rounds must reproduce (manifest bytes, solve rows)
        and, when `full`, the input's make-up.
        """
        made = {s: [e["file"] for e in checks.check_manifest(d / s)] for s in self.suites}
        checks.check_validate_output(results["validate"][0].err, sum(map(len, made.values())))
        rows = [checks.parse_solve_csv(r.out) for r in results["solve"]]
        for solve, solve_rows in zip(self.solves(), rows):
            require([r["file"] for r in solve_rows] == [p.name for p in solve_inputs(d, solve)],
                    f"solve {solve.inputs} printed rows for other files")
        kept = {"manifests": {s: (d / s / "manifest.json").read_bytes() for s in self.suites}, "solve_rows": rows}
        if full:
            kept["makeup"] = self.check_files(d, made, checks.Curves())
            verify_schedules(self.solves(), d, rows, self.check_solve_rows(d, rows))
        return kept

    def check_solve_rows(self, d: Path, rows: list[list[dict]]) -> dict[Path, checks.EjspFile]:
        parsed: dict[Path, checks.EjspFile] = {}
        for solve, solve_rows in zip(self.solves(), rows):
            for row, path in zip(solve_rows, solve_inputs(d, solve)):
                if path not in parsed:
                    parsed[path] = checks.read_ejsp(path)
                require((row["rule"], row["speed_policy"], row["budget"]) == (solve.rule, solve.policy, solve.budget),
                        f"solve {row['file']}: row names another configuration")
                checks.check_solve_row(row, parsed[path])
        dispatched = {(s.inputs, s.rule, s.policy): r for s, r in zip(self.solves(), rows) if not s.budget}
        for solve, solve_rows in zip(self.solves(), rows):
            if solve.budget:
                checks.check_improve_rows(dispatched[(solve.inputs, solve.rule, solve.policy)], solve_rows)
        return parsed


def fill(weights: list[int], target: int, unit: int = 1000) -> tuple[int, ...]:
    """Indices of a subset of `weights` whose sum is at most `target` and
    within 2% of the largest such sum, with as many members as can be.

    Sums are kept in `unit` steps, rounded up, so a few thousand states cover
    any target the benchmark uses.
    """
    best: dict[int, tuple[int, ...]] = {0: ()}  # sum in units -> largest subset found
    for q, w in enumerate(weights):
        step = -(-w // unit)
        for total, chosen in list(best.items()):
            t = total + step
            if t * unit <= target and len(chosen) + 1 > len(best.get(t, ())):
                best[t] = chosen + (q,)
    top = max(best)
    return max((c for t, c in best.items() if t >= 0.98 * top), key=len)


def solve_inputs(d: Path, solve: Solve) -> list[Path]:
    """The files an `ejsp solve` command reads, in the order it reads them."""
    paths = []
    for p in solve.inputs:
        path = d / p
        paths.extend(sorted(path.glob("*.ejsp")) if path.is_dir() else [path])
    return paths


def verify_schedules(solves: list[Solve], d: Path, rows: list[list[dict]], parsed: dict) -> None:
    """Re-solve every row through the public solver functions and check each
    schedule's feasibility and objectives with the benchmark's own code."""
    from ejsp.io import read_instance_file
    from ejsp.solver import SolverConfig, dispatch, improve

    for solve, solve_rows in zip(solves, rows):
        config = SolverConfig(rule=solve.rule, speed_policy=solve.policy)
        for row, path in zip(solve_rows, solve_inputs(d, solve)):
            instance = read_instance_file(path)
            schedule = dispatch(instance, config)
            if solve.budget:
                schedule = improve(instance, schedule, solve.budget)
            got = checks.check_schedule(parsed[path], schedule.entries)
            want = (row["makespan"], row["total_energy"], row["total_tardiness"])
            require(got == want, f"solve {path.name}: schedule gives {got}, the row says {want}")


def makeup_of(files: list[checks.EjspFile], d: Path, suites) -> dict:
    """Instances, task rows, bytes, and distinct speed vectors per task row
    (counted within each instance, where the program's memos work)."""
    tasks = sum(len(f.tasks) for f in files)
    distinct = sum(len({(t.times, t.energies) for t in f.tasks}) for f in files)
    return {"instances": len(files), "task_rows": tasks,
            "bytes": sum(p.stat().st_size for s in suites for p in (d / s).glob("*.ejsp")),
            "distinct_vectors_per_task": round(distinct / tasks, 4)}


class PaperSuite(Workload):
    """A prefix of `generate --paper-suite`, validated whole, a few originals solved."""

    name = "paper-suite"
    suites = ("suite",)
    ROWS = 40_000  # original task rows the prefix comes closest to
    # cost of solving an original: jobs^2 x machines for the dispatch scan, plus
    # 40 x jobs x machines per task (read, dispatch step), fitted on 2 vCPU
    SOLVE_COST = 1_100_000

    def __init__(self, seed: int):
        super().__init__(seed)
        shapes = preset_shapes(self.seed, PRESET_MAX)
        totals = list(accumulate(s.jobs * s.machines for s in shapes))
        self.count = 1 + min(range(len(totals)), key=lambda n: abs(totals[n] - self.ROWS))
        self.shapes = shapes[: self.count]
        self.solved = fill([(s.jobs + 40) * s.jobs * s.machines for s in self.shapes], self.SOLVE_COST)

    def make(self, d):
        return [["generate", "--paper-suite", "--count", str(self.count),
                 "--seed", str(self.seed), "--out", str(d / "suite")]]

    def solves(self):
        files = tuple(f"suite/inst_{q:04d}_orig.ejsp" for q in self.solved)
        return [Solve(files, "edd", "reference", 0)]

    def check_files(self, d, made, curves):
        suite = d / "suite"
        names = made["suite"]
        want = [f"inst_{q:04d}_{v}.ejsp" for q in range(self.count) for v in ("orig", *PAPER_COLUMNS)]
        checks.check_names(names, want, "suite")
        five = checks.grid(5)
        seen = []
        for q in range(self.count):
            orig = checks.read_ejsp(suite / f"inst_{q:04d}_orig.ejsp")
            checks.check_shape(orig, PRESET_JOBS, PRESET_MACHINES, 5)
            require(orig.header["dist"][0] in PRESET_DISTS and orig.header["rrdd"][0] in PRESET_RRDD,
                    f"{orig.name}: dist {orig.header['dist'][0]} / rrdd {orig.header['rrdd'][0]} not in the preset")
            checks.check_instance(orig, curves, five, BASE_RANGE)
            seen.append(orig)
            for tag, cols in PAPER_COLUMNS.items():
                proj = checks.read_ejsp(suite / f"inst_{q:04d}_{tag}.ejsp")
                checks.check_projection(orig, proj, cols)
                seen.append(proj)
        return makeup_of(seen, d, self.suites)


class ManySmall(Workload):
    """A thousand tiny dated instances and their relaxed copies, all validated and solved."""

    name = "many-small"
    suites = ("orig", "relaxed")
    COUNT = 1000
    JOBS, MACHINES, SPEEDS = 4, 3, 3
    BASES = (1, 50_000)  # wide, so tasks almost never share a speed vector

    def make(self, d):
        return [
            ["generate", "--count", str(self.COUNT), "--jobs", str(self.JOBS),
             "--machines", str(self.MACHINES), "--speeds", str(self.SPEEDS),
             "--dist", "exponential", "--rrdd", "loose", "--seed", str(self.seed),
             "--base-lo", str(self.BASES[0]), "--base-hi", str(self.BASES[1]),
             "--out", str(d / "orig")],
            ["derive", "--variants", "relax", "--in", str(d / "orig"), "--out", str(d / "relaxed")],
        ]

    def solves(self):
        return [Solve(("orig", "relaxed"), "fifo", "slowest", 0)]

    def check_files(self, d, made, curves):
        orig_names = made["orig"]
        checks.check_names(orig_names, [f"inst_{q:04d}_orig.ejsp" for q in range(self.COUNT)], "orig")
        checks.check_names(made["relaxed"], [n.replace("_orig", "_relaxed") for n in orig_names], "relaxed")
        grid = checks.grid(self.SPEEDS)
        seen = []
        for name in orig_names:
            orig = checks.read_ejsp(d / "orig" / name)
            checks.check_shape(orig, (self.JOBS, self.JOBS), (self.MACHINES, self.MACHINES), self.SPEEDS)
            checks.check_instance(orig, curves, grid, self.BASES)
            require(orig.header["rrdd"] == ("loose",) and all(t.due is not None for t in orig.tasks),
                    f"{orig.name}: not dated")
            relaxed = checks.read_ejsp(d / "relaxed" / name.replace("_orig", "_relaxed"))
            checks.check_relaxed(orig, relaxed)
            seen += [orig, relaxed]
        return makeup_of(seen, d, self.suites)


class SolveShapes(Workload):
    """A handful of instances at the ROADMAP shapes, dispatched and improved."""

    name = "solve"
    suites = ("j30", "j100", "j250")
    # suite -> (jobs, machines, count): more instances are made than solved at
    # 250x20, so that make and validate time stay measurable next to solve
    SHAPES = {"j30": (30, 5, 8), "j100": (100, 10, 4), "j250": (250, 20, 10)}
    IMPROVE_BUDGET = 1
    IMPROVED = 4  # 30x5 instances improved: how far a first-improvement climb scans varies a lot per instance

    def make(self, d):
        return [
            ["generate", "--count", str(n), "--jobs", str(j), "--machines", str(m),
             "--speeds", "5", "--dist", "uniform", "--rrdd", "tight",
             "--seed", str(self.seed), "--out", str(d / suite)]
            for suite, (j, m, n) in self.SHAPES.items()
        ]

    def solves(self):
        # improve runs at 30x5 only: at 100x10 its first improving move costs
        # 2.5-12 s depending on the seed, more than a round can hold
        improved = tuple(f"j30/inst_{q:04d}_orig.ejsp" for q in range(self.IMPROVED))
        return [
            Solve(("j30",), "fifo", "reference", 0),
            Solve(improved, "spt", "slowest", 0),
            Solve(improved, "spt", "slowest", self.IMPROVE_BUDGET),
            Solve(("j100/inst_0000_orig.ejsp", "j100/inst_0001_orig.ejsp"), "edd", "reference", 0),
            Solve(("j250/inst_0000_orig.ejsp",), "fifo", "fastest", 0),
        ]

    def check_files(self, d, made, curves):
        five = checks.grid(5)
        seen = []
        for suite, (j, m, n) in self.SHAPES.items():
            names = made[suite]
            checks.check_names(names, [f"inst_{q:04d}_orig.ejsp" for q in range(n)], suite)
            for name in names:
                f = checks.read_ejsp(d / suite / name)
                checks.check_shape(f, (j, j), (m, m), 5)
                checks.check_instance(f, curves, five, BASE_RANGE)
                seen.append(f)
        return makeup_of(seen, d, self.suites)


WORKLOADS = {w.name: w for w in (PaperSuite, ManySmall, SolveShapes)}


def check_repeat(first: dict, later: dict) -> None:
    """A later round of the same seed reproduces the first byte for byte."""
    for suite, data in first["manifests"].items():
        require(later["manifests"][suite] == data, f"{suite}: manifest differs between two runs of the same seed")
    require(later["solve_rows"] == first["solve_rows"], "solve output differs between two runs of the same seed")

