"""Instance/schedule validation, objective metrics, and a tiny brute-force oracle.

Feasibility and objectives use integer time arithmetic throughout; violations
are returned as human-readable strings, one per broken invariant, so callers
can report them instead of catching exceptions.
"""

from __future__ import annotations

import math
import statistics
from itertools import product
from typing import Iterable, Optional

from ejsp.model import (
    DIST_KINDS,
    MAX_SEED,
    RRDD_MODES,
    Instance,
    ObjectiveReport,
    Schedule,
    validate_dist,
)

# Enumeration guard for the oracle: total tasks and speeds small enough that
# exhaustive search stays instant.
ORACLE_MAX_TASKS = 6
ORACLE_MAX_SPEEDS = 2

OBJECTIVES = ("makespan", "energy", "tardiness")


def validate_instance(instance: Instance) -> list[str]:
    """Every core invariant, checked; empty list iff the instance is valid."""
    out = []
    if instance.machines < 1:
        out.append("machine count must be >= 1")

    mult = instance.speed_multipliers.multipliers
    if not mult:
        out.append("speed grid is empty")
    if any(not (math.isfinite(x) and x > 0) for x in mult):
        out.append("grid multipliers must be positive and finite")
    if any(a >= b for a, b in zip(mult, mult[1:])):
        out.append("grid multipliers not strictly increasing")
    n_speeds = len(mult)

    if not instance.jobs:
        out.append("instance has no jobs")
    route_len = len(instance.jobs[0]) if instance.jobs else 0

    meta = instance.metadata
    if not meta.prng_id:
        out.append("metadata prng_id is empty")
    if meta.instance_index < 0:
        out.append("metadata instance_index must be >= 0")
    if not 0 <= meta.seed <= MAX_SEED:
        out.append("metadata seed must be a 64-bit unsigned integer")
    if meta.rrdd not in RRDD_MODES:
        out.append(f"metadata rrdd mode {meta.rrdd!r} unknown")
    if meta.dist.kind not in DIST_KINDS:
        out.append(f"metadata distribution kind {meta.dist.kind!r} unknown")
    else:
        out.extend(f"metadata distribution: {v}" for v in validate_dist(meta.dist))
    if meta.speed_subset is not None and len(meta.speed_subset) != n_speeds:
        out.append("metadata speed subset length does not match grid")

    # tasks with equal base times share speed vectors: check each pair once
    vector_faults: dict[tuple[tuple[int, ...], tuple[int, ...]], list[str]] = {}
    n_machines = instance.machines
    for j, route in enumerate(instance.jobs):
        if not route:
            out.append(f"job {j}: empty route")
            continue
        if len(route) != route_len:
            out.append(f"job {j}: route length {len(route)} != {route_len}")
        machines_seen = [task.machine for task in route]
        if len(set(machines_seen)) != len(machines_seen):
            out.append(f"job {j}: route duplicate machine")
        job_release, job_due = route[0].release, route[0].due
        # unpacked once per task: cheaper than reading a tuple's fields by name
        for p, (job, position, machine, base, times, energies, release, due) in enumerate(
            route
        ):
            faults = []
            if job != j or position != p:
                faults.append("job/position labels mismatch")
            if not 0 <= machine < n_machines:
                faults.append(f"machine index {machine} out of range")
            if base < 1:
                faults.append("base time must be >= 1")
            vectors = (times, energies)
            shared = vector_faults.get(vectors)
            if shared is None:
                shared = vector_faults[vectors] = _speed_vector_faults(
                    times, energies, n_speeds
                )
            faults += shared
            if release < 0:
                faults.append("release must be >= 0")
            if due is not None and due < release:
                faults.append("due before release")
            if release != job_release or due != job_due:
                faults.append("job dates not uniform across tasks")
            if faults:
                out.extend(f"job {j} task {p}: {fault}" for fault in faults)
    return out


def _speed_vector_faults(
    times: tuple[int, ...], energies: tuple[int, ...], n_speeds: int
) -> list[str]:
    """Violations of one task's speed vectors, in validate_instance order."""
    out = []
    if len(times) != n_speeds or len(energies) != n_speeds:
        out.append(f"speed vector length != {n_speeds}")
    if any(v < 1 for v in times):
        out.append("processing times must be >= 1")
    if any(v < 1 for v in energies):
        out.append("energies must be >= 1")
    if any(a < b for a, b in zip(times, times[1:])):
        out.append("speed monotonicity violated (times increase)")
    if any(a > b for a, b in zip(energies, energies[1:])):
        out.append("energy monotonicity violated (energies decrease)")
    return out


def validate_schedule(instance: Instance, schedule: Schedule) -> list[str]:
    """Feasibility check: coverage, releases, job order, machine overlap."""
    out = []
    n_speeds = instance.n_speeds
    expected = {(t.job, t.position) for t in instance.iter_tasks()}
    got = set(schedule.entries)
    for key in sorted(expected - got):
        out.append(f"task {key}: missing entry")
    for key in sorted(got - expected):
        out.append(f"entry {key}: no such task")

    by_machine: dict[int, list[tuple[int, int, tuple[int, int]]]] = {}
    for route in instance.jobs:
        prev_end = None
        for task in route:
            key = (task.job, task.position)
            if key not in schedule.entries:
                continue
            start, speed = schedule.entries[key]
            where = f"task {key}"
            if not 0 <= speed < n_speeds:
                out.append(f"{where}: speed index {speed} out of range")
                continue
            if start < task.release:
                out.append(f"{where}: release violated (start {start} < {task.release})")
            end = start + task.times[speed]
            if prev_end is not None and start < prev_end:
                out.append(f"{where}: starts before job predecessor completes")
            prev_end = end
            by_machine.setdefault(task.machine, []).append((start, end, key))

    for machine in sorted(by_machine):
        intervals = sorted(by_machine[machine])
        for (s1, e1, k1), (s2, e2, k2) in zip(intervals, intervals[1:]):
            if s2 < e1:
                out.append(f"machine overlap on machine {machine}: {k1} and {k2}")
    return out


def objectives(instance: Instance, schedule: Schedule) -> ObjectiveReport:
    """Makespan, total energy and total tardiness of a feasible schedule.

    Raises ValueError, listing the violations, if the schedule is infeasible.
    """
    violations = validate_schedule(instance, schedule)
    if violations:
        raise ValueError("infeasible schedule: " + "; ".join(violations))
    return _objective_values(instance, schedule)


def _objective_values(instance: Instance, schedule: Schedule) -> ObjectiveReport:
    """The objectives of a schedule already known to be feasible and complete."""
    makespan = 0
    energy = 0
    tardiness = 0
    for route in instance.jobs:
        job_end = 0
        for task in route:
            start, speed = schedule.entries[(task.job, task.position)]
            end = start + task.times[speed]
            energy += task.energies[speed]
            makespan = max(makespan, end)
            job_end = end
        due = route[-1].due
        if due is not None:
            tardiness += max(0, job_end - due)
    return ObjectiveReport(
        makespan=makespan, total_energy=energy, total_tardiness=tardiness
    )


def _report_value(report: ObjectiveReport, objective: str) -> int:
    if objective == "makespan":
        return report.makespan
    if objective == "energy":
        return report.total_energy
    if objective == "tardiness":
        return report.total_tardiness
    raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")


def _job_order_sequences(counts: list[int]) -> Iterable[tuple[int, ...]]:
    """All interleavings of job task chains: job index repeated per task."""
    order: list[int] = []

    def rec(remaining: list[int]):
        if len(order) == sum(counts):
            yield tuple(order)
            return
        for j, left in enumerate(remaining):
            if left:
                remaining[j] -= 1
                order.append(j)
                yield from rec(remaining)
                order.pop()
                remaining[j] += 1

    yield from rec(list(counts))


def semi_active_timing(
    instance: Instance,
    task_order: Iterable[tuple[int, int]],
    speeds: dict[tuple[int, int], int],
) -> Schedule:
    """Earliest-start timing for a job-order-respecting task order.

    Placement order induces the per-machine sequences; every task starts at
    max(release, job predecessor end, machine available).
    """
    machine_free: dict[int, int] = {}
    job_free: dict[int, int] = {}
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    for job, pos in task_order:
        task = instance.jobs[job][pos]
        speed = speeds[(job, pos)]
        start = max(
            task.release, job_free.get(job, 0), machine_free.get(task.machine, 0)
        )
        entries[(job, pos)] = (start, speed)
        end = start + task.times[speed]
        job_free[job] = end
        machine_free[task.machine] = end
    return Schedule(entries=entries)


def brute_force_best(
    instance: Instance, objective: str = "makespan"
) -> tuple[Schedule, int]:
    """Exhaustive optimum over semi-active schedules, for tiny instances only.

    Enumerates every job-order-respecting task sequence (covering all acyclic
    machine sequencings) crossed with every speed assignment; ties are broken
    by the lexicographically smallest schedule encoding.
    """
    total_tasks = sum(len(route) for route in instance.jobs)
    if total_tasks > ORACLE_MAX_TASKS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_TASKS} tasks, got {total_tasks}"
        )
    if instance.n_speeds > ORACLE_MAX_SPEEDS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_SPEEDS} speeds, got {instance.n_speeds}"
        )
    _report_value(ObjectiveReport(0, 0, 0), objective)  # reject bad selector early

    keys = [(t.job, t.position) for t in instance.iter_tasks()]
    counts = [len(route) for route in instance.jobs]
    next_pos = [0] * len(counts)

    best: Optional[tuple[int, tuple, Schedule]] = None
    for job_seq in _job_order_sequences(counts):
        for p in range(len(next_pos)):
            next_pos[p] = 0
        order = []
        for j in job_seq:
            order.append((j, next_pos[j]))
            next_pos[j] += 1
        for combo in product(range(instance.n_speeds), repeat=total_tasks):
            speeds = dict(zip(keys, combo))
            schedule = semi_active_timing(instance, order, speeds)
            # feasible by construction: skip objectives' validation
            value = _report_value(_objective_values(instance, schedule), objective)
            encoding = tuple(sorted(schedule.entries.items()))
            if best is None or (value, encoding) < (best[0], best[1]):
                best = (value, encoding, schedule)
    assert best is not None
    return best[2], best[0]


def suite_stats(instances: Iterable[Instance]) -> tuple[list[dict], dict]:
    """Per-instance composition rows plus min/max summary of numeric columns."""
    rows = []
    for inst in instances:
        bases = [t.base_time for t in inst.iter_tasks()]
        rows.append(
            {
                "index": inst.metadata.instance_index,
                "variant": inst.metadata.variant_tag,
                "jobs": inst.n_jobs,
                "machines": inst.machines,
                "tasks": inst.n_tasks_per_job,
                "speeds": inst.n_speeds,
                "dist": inst.metadata.dist.kind,
                "rrdd": inst.metadata.rrdd,
                "median_base": statistics.median(bases) if bases else 0,
                "total_work": sum(bases),
            }
        )
    numeric = ("jobs", "machines", "tasks", "speeds", "median_base", "total_work")
    summary = {}
    if rows:
        for col in numeric:
            values = [row[col] for row in rows]
            summary[col] = (min(values), max(values))
    return rows, summary
