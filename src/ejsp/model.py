"""Shared domain types for energy-aware job-shop instances.

Everything here is immutable value data: instances, schedules and reports can
be shared freely between threads once constructed. Invariants are enforced by
validators (``validate_params`` here, ``evaluate.validate_instance`` for whole
instances), not by constructors, so that violations stay reportable data
instead of exceptions.

An ``Instance`` keeps its task rows as flat columns (machine, base time,
dates and a speed-vector id per row) plus one table of the distinct speed
vectors, because the paper's suite holds 2.41M task rows: per-row objects
would dominate the cost of every command, garbage collection included. The
per-task ``TaskSpec`` survives as a read-only view for callers that want
one object per task.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

DIST_KINDS = ("exponential", "gaussian", "uniform")
RRDD_MODES = ("none", "loose", "tight")

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class DistSpec:
    """Release-date distribution: kind plus optional parameters.

    Parameters may be left as None; the generator then derives them from the
    instance's work horizon. ``lam`` is the exponential rate (named lambda
    elsewhere; reserved word in Python).
    """

    kind: str
    lam: Optional[float] = None
    mu: Optional[float] = None
    sigma: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None

    def params(self) -> tuple[tuple[str, float], ...]:
        """The parameters that belong to this kind, in canonical order."""
        names = {
            "exponential": ("lam",),
            "gaussian": ("mu", "sigma"),
            "uniform": ("a", "b"),
        }.get(self.kind, ())
        return tuple(
            (name, value)
            for name in names
            if (value := getattr(self, name)) is not None
        )


@dataclass(frozen=True)
class InstanceParams:
    """Full generator configuration for one suite."""

    count: int
    jobs: int
    machines: int
    tasks_per_job: int
    speeds: int
    dist: DistSpec
    rrdd: str
    seed: int
    base_time_range: tuple[int, int] = (1, 100)


@dataclass(frozen=True)
class SpeedGrid:
    """Ordered energy multipliers, one per speed."""

    multipliers: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.multipliers)

    @cached_property
    def time_fractions(self) -> tuple[float, ...]:
        """Per-multiplier processing-time fractions, computed once per grid."""
        from ejsp.speed import time_fraction

        return tuple(time_fraction(x) for x in self.multipliers)

    @cached_property
    def reference_index(self) -> int:
        """Index of the multiplier nearest 1.0 (lowest index on ties)."""
        return min(
            range(len(self.multipliers)),
            key=lambda s: (abs(self.multipliers[s] - 1.0), s),
        )


class TaskSpec(NamedTuple):
    """One task: its machine, base time, per-speed times/energies and dates.

    The row view of an ``Instance``'s columns, and the input of
    ``Instance.from_jobs``. A named tuple: it compares equal to a plain tuple
    of its fields; copy one with ``_replace``, not ``dataclasses.replace``.
    """

    job: int
    position: int
    machine: int
    base_time: int
    times: tuple[int, ...]
    energies: tuple[int, ...]
    release: int
    # Due date sentinel: None in memory, the literal "inf" in files. Kept as
    # None so unbounded dates cannot leak into integer arithmetic unnoticed.
    due: Optional[int]


@dataclass(frozen=True)
class InstanceMetadata:
    """Reproducibility record attached to every instance.

    ``dates_relaxed`` and ``speed_subset`` describe derived variants:
    ``speed_subset`` holds the retained speed indices of the *original* grid
    (None means the full original grid).
    """

    seed: int
    instance_index: int
    dist: DistSpec
    rrdd: str
    generator_version: str
    prng_id: str
    dates_relaxed: bool = False
    speed_subset: Optional[tuple[int, ...]] = None

    @property
    def variant_tag(self) -> str:
        """Canonical variant label, used in file names and headers."""
        parts = []
        if self.dates_relaxed:
            parts.append("relaxed")
        if self.speed_subset is not None:
            parts.append("s" + "-".join(str(i + 1) for i in self.speed_subset))
        return "+".join(parts) if parts else "orig"


SpeedVectors = tuple[tuple[int, ...], tuple[int, ...]]


def vector_table(
    vectors: Sequence[SpeedVectors],
) -> tuple[Sequence[int], tuple[SpeedVectors, ...]]:
    """The canonical table of `vectors` (distinct entries in order of first
    appearance) and, for each of `vectors`, its index in the table."""
    table = dict.fromkeys(vectors)
    if len(table) == len(vectors):
        return range(len(vectors)), tuple(table)
    index = {entry: i for i, entry in enumerate(table)}
    return [index[entry] for entry in vectors], tuple(table)


@dataclass(frozen=True)
class Instance:
    """One job-shop instance with speed-scalable tasks, stored by column.

    Task rows are numbered job by job (job-major, position-minor): job j owns
    rows ``sum(route_lengths[:j])`` onwards, one per route position. Each row
    has an entry in ``machine``, ``base_time``, ``release``, ``due`` (None =
    unbounded) and ``vector_id``, an index into ``vectors``, the table of
    distinct (times, energies) pairs. The table is canonical: entries appear
    in row order of first use, with no duplicates, so two instances with the
    same tasks have equal columns whichever path built them.

    Build one by hand with ``from_jobs``; ``jobs`` and ``iter_tasks`` give a
    read-only ``TaskSpec`` view, built once on first access.
    """

    route_lengths: tuple[int, ...]
    machine: tuple[int, ...]
    base_time: tuple[int, ...]
    release: tuple[int, ...]
    due: tuple[Optional[int], ...]
    vector_id: tuple[int, ...]
    vectors: tuple[SpeedVectors, ...]
    machines: int
    speed_multipliers: SpeedGrid
    metadata: InstanceMetadata

    @classmethod
    def from_jobs(
        cls,
        jobs: Sequence[Sequence[TaskSpec]],
        machines: int,
        speed_multipliers: SpeedGrid,
        metadata: InstanceMetadata,
    ) -> Instance:
        """The instance holding these per-job task routes.

        Raises ValueError for a task whose job/position labels disagree with
        its place: the columns number tasks by place and cannot hold it.
        """
        machine, base_time, release, due, vectors = [], [], [], [], []
        for j, route in enumerate(jobs):
            for p, task in enumerate(route):
                job, position, m, b, times, energies, r, d = task
                if job != j or position != p:
                    raise ValueError(
                        f"task labelled job {job} position {position} "
                        f"sits at job {j} position {p}"
                    )
                machine.append(m)
                base_time.append(b)
                release.append(r)
                due.append(d)
                vectors.append((tuple(times), tuple(energies)))
        vector_id, table = vector_table(vectors)
        return cls(
            tuple(len(route) for route in jobs),
            tuple(machine),
            tuple(base_time),
            tuple(release),
            tuple(due),
            tuple(vector_id),
            table,
            machines,
            speed_multipliers,
            metadata,
        )

    @property
    def n_jobs(self) -> int:
        return len(self.route_lengths)

    @property
    def n_tasks_per_job(self) -> int:
        return self.route_lengths[0] if self.route_lengths else 0

    @property
    def n_speeds(self) -> int:
        return len(self.speed_multipliers)

    @cached_property
    def jobs(self) -> tuple[tuple[TaskSpec, ...], ...]:
        """Per-job task routes as ``TaskSpec`` views of the columns."""
        rows = zip(
            self.machine,
            self.base_time,
            map(self.vectors.__getitem__, self.vector_id),
            self.release,
            self.due,
        )
        return tuple(
            tuple(
                TaskSpec(j, p, machine, base, times, energies, release, due)
                for p, (machine, base, (times, energies), release, due) in zip(
                    range(length), rows
                )
            )
            for j, length in enumerate(self.route_lengths)
        )

    def task_keys(self) -> list[tuple[int, int]]:
        """(job, position) of every task row, in row order."""
        return [(j, p) for j, length in enumerate(self.route_lengths) for p in range(length)]

    def iter_tasks(self) -> Iterator[TaskSpec]:
        for route in self.jobs:
            yield from route


@dataclass(frozen=True)
class Schedule:
    """Per-task (start, speed index) assignment for one instance."""

    entries: Mapping[tuple[int, int], tuple[int, int]]

    def start(self, job: int, position: int) -> int:
        return self.entries[(job, position)][0]

    def speed(self, job: int, position: int) -> int:
        return self.entries[(job, position)][1]


@dataclass(frozen=True)
class ObjectiveReport:
    """Makespan, total energy and total tardiness of a feasible schedule."""

    makespan: int
    total_energy: int
    total_tardiness: int


def validate_dist(dist: DistSpec) -> list[str]:
    """Invariant violations of a distribution spec (empty list = valid)."""
    out = []
    if dist.kind not in DIST_KINDS:
        out.append(f"unknown distribution kind {dist.kind!r}")
        return out
    foreign = {
        "exponential": ("mu", "sigma", "a", "b"),
        "gaussian": ("lam", "a", "b"),
        "uniform": ("lam", "mu", "sigma"),
    }[dist.kind]
    for name in foreign:
        if getattr(dist, name) is not None:
            out.append(f"parameter {name!r} does not apply to {dist.kind}")
    if dist.lam is not None and not dist.lam > 0:
        out.append("lambda must be positive")
    if dist.sigma is not None and not dist.sigma > 0:
        out.append("sigma must be positive")
    if dist.a is not None and dist.b is not None and not dist.a < dist.b:
        out.append("uniform bounds must satisfy a < b")
    return out


def validate_params(params: InstanceParams) -> list[str]:
    """One entry per violated InstanceParams invariant; empty iff valid."""
    out = []
    if params.count < 1:
        out.append("count must be >= 1")
    if params.jobs < 1:
        out.append("jobs must be >= 1")
    if params.machines < 1:
        out.append("machines must be >= 1")
    if params.tasks_per_job < 1:
        out.append("tasks_per_job must be >= 1")
    if params.speeds < 1:
        out.append("speeds must be >= 1")
    if params.tasks_per_job > params.machines:
        out.append("tasks_per_job exceeds machines")
    lo, hi = params.base_time_range
    if lo < 1:
        out.append("base time lower bound must be >= 1")
    if lo > hi:
        out.append("base time lower bound exceeds upper bound")
    if not 0 <= params.seed <= MAX_SEED:
        out.append("seed must be a 64-bit unsigned integer")
    if params.rrdd not in RRDD_MODES:
        out.append(f"unknown rrdd mode {params.rrdd!r}")
    out.extend(validate_dist(params.dist))
    return out


def round6(x: float) -> float:
    """Round to 6 decimals, the serialization precision for reals."""
    return round(float(x), 6)
