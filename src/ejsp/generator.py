"""Instance assembly: routes, base times, speed scaling, release/due dates.

The draw order is part of the reproducibility contract and is fixed as:
job routes (one partial shuffle per job, jobs ascending), then base times
row-major (job-major, task-minor), then release dates jobs ascending.
Scaling consumes no draws. Every instance q uses its own stream derived from
(seed, q), so a suite is prefix-stable in its count and may be generated in
parallel with results identical to sequential runs.
"""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from ejsp._version import __version__
from ejsp.model import (
    DistSpec,
    Instance,
    InstanceMetadata,
    InstanceParams,
    TaskSpec,
    round6,
    validate_params,
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
    scaled = [[scale_task(b, grid) for b in row] for row in base]

    if params.rrdd == "none":
        dates: list[tuple[int, Optional[int]]] = [(0, None)] * params.jobs
        resolved = _round_given(params.dist)
    else:
        resolved = resolve_dist(params.dist, work_horizon(base, params.machines))
        dates = generate_release_due(
            stream, base, scaled, params.machines, resolved, params.rrdd
        )

    # positional: a keyword call costs about twice as much, once per task row
    jobs = tuple(
        tuple(
            TaskSpec(j, t, machine, b, s.times, s.energies, release, due)
            for t, (machine, b, s) in enumerate(zip(route, base_row, scaled_row))
        )
        for j, (route, base_row, scaled_row, (release, due)) in enumerate(
            zip(routes, base, scaled, dates)
        )
    )
    metadata = InstanceMetadata(
        seed=params.seed,
        instance_index=q,
        dist=resolved,
        rrdd=params.rrdd,
        generator_version=__version__,
        prng_id=PRNG_ID,
    )
    return Instance(
        jobs=jobs, machines=params.machines, speed_multipliers=grid, metadata=metadata
    )


def generate_suite(params: InstanceParams, *, threads: int = 1) -> list[Instance]:
    """All `count` instances, in index order.

    With threads > 1 instances are generated concurrently; per-index streams
    make the result identical to a sequential run.
    """
    violations = validate_params(params)
    if violations:
        raise ValueError("invalid params: " + "; ".join(violations))
    indices = range(params.count)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda q: generate_instance(params, q), indices))
    return [generate_instance(params, q) for q in indices]
