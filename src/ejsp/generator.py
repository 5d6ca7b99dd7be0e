"""Instance assembly: routes, base times, speed scaling, release/due dates.

The draw order is part of the reproducibility contract and is fixed as:
job routes (one partial shuffle per job, jobs ascending), then base times
row-major (job-major, task-minor), then release dates jobs ascending.
Scaling consumes no draws. Every instance q uses its own stream derived from
(seed, q), so a suite is prefix-stable in its count and any instance can be
generated on its own.
"""

from __future__ import annotations

import math
import statistics
from itertools import chain
from typing import Optional, Sequence

from ejsp._version import __version__
from ejsp.model import (
    DistSpec,
    Instance,
    InstanceMetadata,
    InstanceParams,
    round6,
    validate_params,
    vector_table,
)
from ejsp.rng import PRNG_ID, Stream, make_stream, sample, sample_int_range
from ejsp.speed import ScaledTask, round_half_up, scale_task, speed_grid

# Due-window slack over each job's own median work: mild vs. binding deadlines.
SLACK_LOOSE = 2.0
SLACK_TIGHT = 1.2

# Smallest resolvable parameter at the 6-decimal serialization precision.
MIN_PARAM = 1e-6


def generate_job_routes(
    stream: Stream, jobs: int, machines: int, tasks: int
) -> list[list[int]]:
    """One machine sequence per job: `tasks` distinct indices out of [0, machines).

    Drawn by partial Fisher-Yates, consuming exactly `tasks` draws per job;
    with tasks == machines each sequence is a full permutation.
    """
    if tasks > machines:
        raise ValueError(f"tasks ({tasks}) exceeds machines ({machines})")
    routes = []
    for _ in range(jobs):
        pool = list(range(machines))
        for i in range(tasks):
            j = sample_int_range(stream, i, machines - 1)
            pool[i], pool[j] = pool[j], pool[i]
        routes.append(pool[:tasks])
    return routes


def generate_base_times(
    stream: Stream, jobs: int, tasks: int, base_time_range: tuple[int, int]
) -> list[list[int]]:
    """jobs x tasks base processing times, uniform integers over the range."""
    lo, hi = base_time_range
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid base time range ({lo}, {hi})")
    return [
        [sample_int_range(stream, lo, hi) for _ in range(tasks)]
        for _ in range(jobs)
    ]


def work_horizon(base_times: Sequence[Sequence[int]], machines: int) -> int:
    """ceil(total base work / machines): the release/due sampling horizon."""
    total = sum(sum(row) for row in base_times)
    return -(-total // machines)


def resolve_dist(dist: DistSpec, horizon: int) -> DistSpec:
    """Fill missing distribution parameters from the horizon.

    Defaults put the release mass early: uniform over [0, H/2], exponential
    with mean H/4, gaussian at mu = H/4, sigma = H/12. Resolved values are
    rounded to the 6-decimal serialization precision so the recorded
    parameters are exactly the ones sampled from.
    """
    h = float(horizon)
    if dist.kind == "exponential":
        lam = dist.lam if dist.lam is not None else 4.0 / h
        return DistSpec("exponential", lam=max(round6(lam), MIN_PARAM))
    if dist.kind == "gaussian":
        mu = dist.mu if dist.mu is not None else h / 4.0
        sigma = dist.sigma if dist.sigma is not None else h / 12.0
        return DistSpec("gaussian", mu=round6(mu), sigma=max(round6(sigma), MIN_PARAM))
    if dist.kind == "uniform":
        a = dist.a if dist.a is not None else 0.0
        b = dist.b if dist.b is not None else h / 2.0
        return DistSpec("uniform", a=round6(a), b=round6(b))
    raise ValueError(f"unknown distribution kind {dist.kind!r}")


def _round_given(dist: DistSpec) -> DistSpec:
    """Round whatever parameters are present; used when none get resolved."""
    kw = {name: round6(value) for name, value in dist.params()}
    return DistSpec(dist.kind, **kw)


def job_window(base_row: Sequence[int], fastest_work: int, rrdd: str) -> int:
    """Width of one job's release-to-due window.

    The slack term scales the job's median base time by its task count; the
    window never undercuts the job's total work at top speed, so a job alone
    can always meet its due date.
    """
    slack = SLACK_LOOSE if rrdd == "loose" else SLACK_TIGHT
    med = statistics.median(base_row)
    return max(math.ceil(slack * med * len(base_row)), fastest_work)


def generate_release_due(
    stream: Stream,
    base_times: Sequence[Sequence[int]],
    scaled: Sequence[Sequence[ScaledTask]],
    machines: int,
    dist: DistSpec,
    rrdd: str,
) -> list[tuple[int, Optional[int]]]:
    """Per-job (release, due). Mode "none" means release 0, due unbounded,
    and consumes no draws. Otherwise each job's release is one draw from the
    resolved distribution, clamped to [0, H/2] and rounded; its due date is
    release plus the job window.
    """
    if rrdd == "none":
        return [(0, None) for _ in base_times]
    if rrdd not in ("loose", "tight"):
        raise ValueError(f"unknown rrdd mode {rrdd!r}")
    horizon = work_horizon(base_times, machines)
    resolved = resolve_dist(dist, horizon)
    half = horizon / 2.0
    dates: list[tuple[int, Optional[int]]] = []
    for base_row, scaled_row in zip(base_times, scaled):
        draw = sample(stream, resolved)
        release = round_half_up(min(max(draw, 0.0), half))
        fastest = sum(task.times[-1] for task in scaled_row)
        dates.append((release, release + job_window(base_row, fastest, rrdd)))
    return dates


def generate_instance(params: InstanceParams, q: int) -> Instance:
    """Build instance q of the suite described by params.

    Pure in (params, q): the per-instance stream is derived from (seed, q)
    and consumed in the fixed order routes -> base times -> dates.
    """
    violations = validate_params(params)
    if violations:
        raise ValueError("invalid params: " + "; ".join(violations))
    if not 0 <= q < params.count:
        raise ValueError(f"instance index {q} outside [0, {params.count})")

    stream = make_stream(params.seed, q)
    routes = generate_job_routes(
        stream, params.jobs, params.machines, params.tasks_per_job
    )
    base = generate_base_times(
        stream, params.jobs, params.tasks_per_job, params.base_time_range
    )
    grid = speed_grid(params.speeds)
    base_time = tuple(chain.from_iterable(base))
    # equal base times share their speed vectors: scale each distinct one once
    by_base = {b: scale_task(b, grid) for b in dict.fromkeys(base_time)}
    ids, table = vector_table([(s.times, s.energies) for s in by_base.values()])
    vector_of_base = dict(zip(by_base, ids))

    n_tasks = params.tasks_per_job
    if params.rrdd == "none":
        release = (0,) * len(base_time)
        due: tuple[Optional[int], ...] = (None,) * len(base_time)
        resolved = _round_given(params.dist)
    else:
        resolved = resolve_dist(params.dist, work_horizon(base, params.machines))
        scaled = [list(map(by_base.__getitem__, row)) for row in base]
        dates = generate_release_due(
            stream, base, scaled, params.machines, resolved, params.rrdd
        )
        release = tuple(chain.from_iterable([r] * n_tasks for r, _ in dates))
        due = tuple(chain.from_iterable([d] * n_tasks for _, d in dates))

    metadata = InstanceMetadata(
        seed=params.seed,
        instance_index=q,
        dist=resolved,
        rrdd=params.rrdd,
        generator_version=__version__,
        prng_id=PRNG_ID,
    )
    return Instance(
        (n_tasks,) * params.jobs,
        tuple(chain.from_iterable(routes)),
        base_time,
        release,
        due,
        tuple(map(vector_of_base.__getitem__, base_time)),
        table,
        params.machines,
        grid,
        metadata,
    )


def generate_suite(params: InstanceParams, *, threads: int = 1) -> list[Instance]:
    """All `count` instances, in index order.

    `threads` is accepted for compatibility and ignored: generation is pure
    Python, so threads only added overhead under the GIL.
    """
    violations = validate_params(params)
    if violations:
        raise ValueError("invalid params: " + "; ".join(violations))
    return [generate_instance(params, q) for q in range(params.count)]
