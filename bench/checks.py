"""Checks of ejsp outputs, made apart from the program.

Nothing here imports ejsp. The `.ejsp` reader follows FORMAT.md, the
calibration curves and the speed grid follow the paper's formulas, and the
schedule check recomputes feasibility and objectives from the parsed file,
so a fault in the program cannot hide behind its own validator.

Every check raises ``CheckFailed`` with a message naming the file and the
fault; a check that returns has passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

# The paper's time-fraction curve: TIME_SCALE * ln 2 / ln(1 + (x * MULTIPLIER_SCALE)^3)
TIME_SCALE = 4.0704
MULTIPLIER_SCALE = 2.5093
GRID_LO, GRID_HI = 0.5, 3.0

HEADER_KEYS = (
    "jobs", "machines", "tasks", "speeds", "multipliers", "seed",
    "index", "dist", "rrdd", "variant", "prng", "version",
)
UNBOUNDED = "inf"


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Task:
    job: int
    position: int
    machine: int
    base: int
    release: int
    due: Optional[int]
    times: tuple[int, ...]
    energies: tuple[int, ...]


@dataclass(frozen=True)
class EjspFile:
    """One parsed `.ejsp` file: header tokens by key, and its task rows."""

    name: str
    header: dict[str, tuple[str, ...]]
    tasks: tuple[Task, ...]

    def int_header(self, key: str) -> int:
        return int(self.header[key][0])

    @property
    def jobs(self) -> int:
        return self.int_header("jobs")

    @property
    def machines(self) -> int:
        return self.int_header("machines")

    @property
    def tasks_per_job(self) -> int:
        return self.int_header("tasks")

    @property
    def speeds(self) -> int:
        return self.int_header("speeds")

    @property
    def multipliers(self) -> tuple[float, ...]:
        return tuple(float(tok) for tok in self.header["multipliers"])

    @property
    def variant(self) -> str:
        return self.header["variant"][0]

    def routes(self) -> list[tuple[Task, ...]]:
        t = self.tasks_per_job
        return [self.tasks[j * t:(j + 1) * t] for j in range(self.jobs)]


def parse_ejsp(data: bytes, name: str = "<bytes>") -> EjspFile:
    """Read `.ejsp` bytes as FORMAT.md defines them; CheckFailed if malformed."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise CheckFailed(f"{name}: not ASCII") from None
    require(text.endswith("\n"), f"{name}: no trailing newline")
    lines = text[:-1].split("\n")
    require(len(lines) >= len(HEADER_KEYS), f"{name}: header cut short")
    header = {}
    for key, line in zip(HEADER_KEYS, lines):
        parts = line.split(" ")
        require(parts[0] == key and len(parts) > 1, f"{name}: expected header {key!r}, got {line!r}")
        header[key] = tuple(parts[1:])
    try:
        jobs, tasks_per_job, speeds = (int(header[k][0]) for k in ("jobs", "tasks", "speeds"))
        rows = lines[len(HEADER_KEYS):]
        require(len(rows) == jobs * tasks_per_job,
                f"{name}: {len(rows)} task rows for {jobs}x{tasks_per_job}")
        tasks = []
        for n, line in enumerate(rows):
            f = line.split(" ")
            require(len(f) == 6 + 2 * speeds, f"{name}: task row {n} has {len(f)} fields")
            j, p, machine, base, release = (int(tok) for tok in f[:5])
            require((j, p) == divmod(n, tasks_per_job), f"{name}: task row {n} labelled ({j}, {p})")
            due = None if f[5] == UNBOUNDED else int(f[5])
            times = tuple(int(tok) for tok in f[6:6 + speeds])
            energies = tuple(int(tok) for tok in f[6 + speeds:])
            tasks.append(Task(j, p, machine, base, release, due, times, energies))
    except ValueError as exc:
        raise CheckFailed(f"{name}: bad number: {exc}") from None
    return EjspFile(name, header, tuple(tasks))


def read_ejsp(path: Path) -> EjspFile:
    return parse_ejsp(path.read_bytes(), path.name)


# -- the paper's calibration curves -----------------------------------------

def energy_percentage(base: int) -> int:
    return math.floor(math.exp(-base / 100.0) * 100.0)


def time_fraction(x: float) -> float:
    return TIME_SCALE * math.log(2.0) / math.log(1.0 + (x * MULTIPLIER_SCALE) ** 3)


def half_up(v: float) -> int:
    return math.floor(v + 0.5)


def grid(speeds: int) -> tuple[float, ...]:
    """The speed grid: `speeds` equally spaced points on [0.5, 3.0], or {1.0}."""
    if speeds == 1:
        return (1.0,)
    step = (GRID_HI - GRID_LO) / (speeds - 1)
    return tuple(GRID_LO + s * step for s in range(speeds))


class Curves:
    """Expected per-speed times and energies of a base time, memoized here."""

    def __init__(self):
        self._memo: dict[tuple[int, tuple[float, ...]], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def expected(self, base: int, multipliers: tuple[float, ...]):
        key = (base, multipliers)
        out = self._memo.get(key)
        if out is None:
            pct = energy_percentage(base)
            out = self._memo[key] = (
                tuple(max(1, half_up(base * time_fraction(m))) for m in multipliers),
                tuple(max(1, half_up(pct * m)) for m in multipliers),
            )
        return out


def policy_speed(policy: str, multipliers: Sequence[float]) -> int:
    """Speed index a dispatch speed policy must use on this grid."""
    if policy == "slowest":
        return 0
    if policy == "fastest":
        return len(multipliers) - 1
    return min(range(len(multipliers)), key=lambda s: (abs(multipliers[s] - 1.0), s))


# -- instance checks ---------------------------------------------------------

def check_instance(f: EjspFile, curves: Curves, mults: tuple[float, ...], base_range: tuple[int, int]) -> None:
    """Grid, curves, monotonicity, routes and dates of one file.

    `mults` are the grid points the file must carry (at 6 decimals); every
    task's times and energies must be the curves at those points.
    """
    require(f.header["multipliers"] == tuple(f"{m:.6f}" for m in mults),
            f"{f.name}: multipliers {f.header['multipliers']} are not grid points {mults}")
    lo, hi = base_range
    for route in f.routes():
        machines = [t.machine for t in route]
        require(len(set(machines)) == len(machines), f"{f.name}: job {route[0].job} repeats a machine")
        for t in route:
            where = f"{f.name}: job {t.job} task {t.position}"
            require(0 <= t.machine < f.machines, f"{where}: machine {t.machine} out of range")
            require(lo <= t.base <= hi, f"{where}: base time {t.base} outside [{lo}, {hi}]")
            require((t.release, t.due) == (route[0].release, route[0].due), f"{where}: dates differ within the job")
            require(t.release >= 0 and (t.due is None or t.due >= t.release), f"{where}: bad dates")
            require(all(a >= b for a, b in zip(t.times, t.times[1:])), f"{where}: times increase with speed")
            require(all(a <= b for a, b in zip(t.energies, t.energies[1:])), f"{where}: energies decrease with speed")
            times, energies = curves.expected(t.base, mults)
            require(t.times == times, f"{where}: times {t.times} != curve {times}")
            require(t.energies == energies, f"{where}: energies {t.energies} != curve {energies}")


def check_shape(f: EjspFile, jobs: tuple[int, int], machines: tuple[int, int], speeds: int) -> None:
    """Jobs and machines within the given ranges, a full route per job."""
    require(jobs[0] <= f.jobs <= jobs[1], f"{f.name}: {f.jobs} jobs outside {jobs}")
    require(machines[0] <= f.machines <= machines[1], f"{f.name}: {f.machines} machines outside {machines}")
    require(f.tasks_per_job == f.machines, f"{f.name}: {f.tasks_per_job} tasks per job on {f.machines} machines")
    require(f.speeds == speeds, f"{f.name}: {f.speeds} speeds, expected {speeds}")


def _same_header_but(orig: EjspFile, other: EjspFile, keys: set[str]) -> None:
    for key in HEADER_KEYS:
        if key not in keys:
            require(orig.header[key] == other.header[key],
                    f"{other.name}: header {key} {other.header[key]} != original {orig.header[key]}")


def check_projection(orig: EjspFile, proj: EjspFile, columns: Sequence[int]) -> None:
    """`proj` is `orig` keeping only the named speed columns."""
    tag = "s" + "-".join(str(c + 1) for c in columns)
    require(proj.variant == tag, f"{proj.name}: variant {proj.variant}, expected {tag}")
    require(proj.speeds == len(columns), f"{proj.name}: {proj.speeds} speeds, expected {len(columns)}")
    require(proj.header["multipliers"] == tuple(orig.header["multipliers"][c] for c in columns),
            f"{proj.name}: multipliers are not columns {list(columns)} of the original")
    _same_header_but(orig, proj, {"speeds", "multipliers", "variant"})
    require(len(proj.tasks) == len(orig.tasks), f"{proj.name}: task count differs from the original")
    for o, p in zip(orig.tasks, proj.tasks):
        keep = (tuple(o.times[c] for c in columns), tuple(o.energies[c] for c in columns))
        require(
            (p.job, p.position, p.machine, p.base, p.release, p.due) == (o.job, o.position, o.machine, o.base, o.release, o.due)
            and (p.times, p.energies) == keep,
            f"{proj.name}: job {p.job} task {p.position} is not columns {list(columns)} of the original",
        )


def check_relaxed(orig: EjspFile, relaxed: EjspFile) -> None:
    """`relaxed` is `orig` with every release 0 and every due unbounded."""
    tag = "relaxed" if orig.variant == "orig" else "relaxed+" + orig.variant
    require(relaxed.variant == tag, f"{relaxed.name}: variant {relaxed.variant}, expected {tag}")
    _same_header_but(orig, relaxed, {"variant"})
    require(len(relaxed.tasks) == len(orig.tasks), f"{relaxed.name}: task count differs from the original")
    for o, r in zip(orig.tasks, relaxed.tasks):
        require(r == Task(o.job, o.position, o.machine, o.base, 0, None, o.times, o.energies),
                f"{relaxed.name}: job {r.job} task {r.position} is not the original with release 0 and due inf")


# -- suites and manifests ----------------------------------------------------

def check_manifest(directory: Path) -> list[dict]:
    """Every digest is the SHA-256 of its file, and the manifest lists exactly
    the `.ejsp` files in the directory; returns the entries."""
    manifest = json.loads((directory / "manifest.json").read_bytes())
    entries = manifest["entries"]
    listed = [e["file"] for e in entries]
    on_disk = sorted(p.name for p in directory.glob("*.ejsp"))
    require(sorted(listed) == on_disk and len(set(listed)) == len(listed),
            f"{directory.name}: manifest lists {len(listed)} files, directory holds {len(on_disk)}")
    for e in entries:
        digest = hashlib.sha256((directory / e["file"]).read_bytes()).hexdigest()
        require(digest == e["sha256"], f"{directory.name}/{e['file']}: manifest digest {e['sha256'][:12]}… != file {digest[:12]}…")
    return entries


def check_names(got: list[str], want: list[str], what: str) -> None:
    """A manifest lists exactly the expected files, in order."""
    for g, w in zip(got, want):
        require(g == w, f"{what} manifest lists {g}, expected {w}")
    require(len(got) == len(want), f"{what} manifest lists {len(got)} files, expected {len(want)}")


def check_validate_output(stderr: str, files: int) -> None:
    require(stderr.strip().endswith(f"{files}/{files} files valid"),
            f"validate reported {stderr.strip()!r}, expected {files}/{files} files valid")


# -- solve rows and schedules --------------------------------------------------

SOLVE_COLUMNS = ("file", "index", "variant", "rule", "speed_policy", "budget",
                 "makespan", "total_energy", "total_tardiness")


def parse_solve_csv(text: str) -> list[dict]:
    lines = text.strip("\n").split("\n")
    require(tuple(lines[0].split(",")) == SOLVE_COLUMNS, f"solve header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        require(len(cells) == len(SOLVE_COLUMNS), f"solve row {line!r}")
        row = dict(zip(SOLVE_COLUMNS, cells))
        for key in ("index", "budget", "makespan", "total_energy", "total_tardiness"):
            row[key] = int(row[key])
        rows.append(row)
    return rows


def lower_bounds(f: EjspFile, speed_of) -> tuple[int, int]:
    """(makespan, tardiness) lower bounds with each task at `speed_of(task)`:
    the busiest machine's load, and each job's release plus its chain."""
    load = [0] * f.machines
    longest = 0
    tardiness = 0
    for route in f.routes():
        end = route[0].release + sum(t.times[speed_of(t)] for t in route)
        longest = max(longest, end)
        if route[0].due is not None:
            tardiness += max(0, end - route[0].due)
        for t in route:
            load[t.machine] += t.times[speed_of(t)]
    return max(max(load), longest), tardiness


def check_solve_row(row: dict, f: EjspFile) -> None:
    """Properties every `ejsp solve` row must have for its instance."""
    where = f"solve {row['file']} (budget {row['budget']})"
    require(row["variant"] == f.variant and row["index"] == f.int_header("index"), f"{where}: wrong instance")
    if row["budget"] == 0:
        s = policy_speed(row["speed_policy"], f.multipliers)
        energy = sum(t.energies[s] for t in f.tasks)
        require(row["total_energy"] == energy, f"{where}: energy {row['total_energy']} != policy column sum {energy}")
        make_lb, tard_lb = lower_bounds(f, lambda t: s)
    else:
        lo = sum(t.energies[0] for t in f.tasks)
        hi = sum(t.energies[-1] for t in f.tasks)
        require(lo <= row["total_energy"] <= hi, f"{where}: energy {row['total_energy']} outside [{lo}, {hi}]")
        make_lb, tard_lb = lower_bounds(f, lambda t: len(t.times) - 1)
    require(row["makespan"] >= make_lb, f"{where}: makespan {row['makespan']} below lower bound {make_lb}")
    require(row["total_tardiness"] >= tard_lb, f"{where}: tardiness {row['total_tardiness']} below lower bound {tard_lb}")


def check_improve_rows(dispatched: list[dict], improved: list[dict]) -> None:
    """An improved makespan never exceeds the dispatch makespan it started from."""
    start = {r["file"]: r["makespan"] for r in dispatched}
    require(set(start) == {r["file"] for r in improved}, "improve rows and dispatch rows name different files")
    for r in improved:
        require(r["makespan"] <= start[r["file"]],
                f"solve {r['file']}: improve makespan {r['makespan']} > dispatch makespan {start[r['file']]}")


def check_schedule(f: EjspFile, entries: Mapping[tuple[int, int], tuple[int, int]]) -> tuple[int, int, int]:
    """Feasibility of a (start, speed) per task; returns (makespan, energy, tardiness).

    Every task has one entry at a valid speed, starts no earlier than its
    release and its job predecessor's end, and no two tasks overlap on a
    machine.
    """
    require(len(entries) == len(f.tasks), f"{f.name}: schedule has {len(entries)} entries for {len(f.tasks)} tasks")
    on_machine: list[list[tuple[int, int]]] = [[] for _ in range(f.machines)]
    makespan = energy = tardiness = 0
    for route in f.routes():
        ready = route[0].release
        for t in route:
            entry = entries.get((t.job, t.position))
            require(entry is not None, f"{f.name}: job {t.job} task {t.position} not scheduled")
            start, speed = entry
            require(0 <= speed < len(t.times), f"{f.name}: job {t.job} task {t.position} at speed {speed}")
            require(start >= ready, f"{f.name}: job {t.job} task {t.position} starts at {start} before {ready}")
            ready = start + t.times[speed]
            energy += t.energies[speed]
            on_machine[t.machine].append((start, ready))
        makespan = max(makespan, ready)
        if route[0].due is not None:
            tardiness += max(0, ready - route[0].due)
    for m, spans in enumerate(on_machine):
        spans.sort()
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            require(s2 >= e1, f"{f.name}: machine {m} overlap: [{s1}, {e1}) and a task starting at {s2}")
    return makespan, energy, tardiness
