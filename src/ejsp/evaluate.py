"""Instance/schedule validation, objective metrics, and a tiny brute-force oracle.

Feasibility and objectives use integer time arithmetic throughout; violations
are returned as human-readable strings, one per broken invariant, so callers
can report them instead of catching exceptions.
"""

from __future__ import annotations

import math
import statistics
from itertools import chain, product
from operator import ge, le
from typing import Iterable, Optional

from ejsp.model import (
    DIST_KINDS,
    MAX_SEED,
    RRDD_MODES,
    Instance,
    ObjectiveReport,
    Schedule,
    SpeedVectors,
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

    lengths = instance.route_lengths
    if not lengths:
        out.append("instance has no jobs")
    route_len = lengths[0] if lengths else 0

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

    columns = (
        instance.machine, instance.base_time, instance.release, instance.due, instance.vector_id
    )
    machine, base_time, release, due, vector_id = columns
    n_rows = sum(lengths)
    n_vectors = len(instance.vectors)
    # the table must be canonical, as `model.vector_table` builds it: ids
    # first used in table order, every entry used, no entry twice
    if (
        any(len(column) != n_rows for column in columns)
        or list(dict.fromkeys(vector_id)) != list(range(n_vectors))
        or len(set(instance.vectors)) != n_vectors
    ):
        out.append("task columns do not match the route lengths and vector table")
        return out
    if route_len and _vectors_valid(instance.vectors, n_speeds) and _rows_valid(
        instance, route_len
    ):
        return out
    # some row is faulty: walk the rows to name each fault in order
    vector_faults = [
        _speed_vector_faults(times, energies, n_speeds) for times, energies in instance.vectors
    ]
    n_machines = instance.machines
    start = 0
    for j, length in enumerate(lengths):
        if not length:
            out.append(f"job {j}: empty route")
            continue
        end = start + length
        if length != route_len:
            out.append(f"job {j}: route length {length} != {route_len}")
        if len(set(machine[start:end])) != length:
            out.append(f"job {j}: route duplicate machine")
        job_release, job_due = release[start], due[start]
        for p, i in enumerate(range(start, end)):
            faults = []
            if not 0 <= machine[i] < n_machines:
                faults.append(f"machine index {machine[i]} out of range")
            if base_time[i] < 1:
                faults.append("base time must be >= 1")
            faults += vector_faults[vector_id[i]]
            if release[i] < 0:
                faults.append("release must be >= 0")
            if due[i] is not None and due[i] < release[i]:
                faults.append("due before release")
            if release[i] != job_release or due[i] != job_due:
                faults.append("job dates not uniform across tasks")
            if faults:
                out.extend(f"job {j} task {p}: {fault}" for fault in faults)
        start = end
    return out


def _rows_valid(instance: Instance, route_len: int) -> bool:
    """Whether every route has `route_len` >= 1 tasks on distinct machines and
    every row passes the per-row checks of validate_instance, speed vectors
    aside: bulk checks over the columns, one slice per job for the rest."""
    lengths = instance.route_lengths
    machine, release, due = instance.machine, instance.release, instance.due
    if not (
        lengths.count(route_len) == len(lengths)
        and 0 <= min(machine)
        and max(machine) < instance.machines
        and min(instance.base_time) >= 1
        and min(release) >= 0
    ):
        return False
    for start in range(0, len(machine), route_len):
        end = start + route_len
        job_release, job_due = release[start], due[start]
        if (
            len(set(machine[start:end])) != route_len
            or (job_due is not None and job_due < job_release)
            or release[start:end].count(job_release) != route_len
            or due[start:end].count(job_due) != route_len
        ):
            return False
    return True


def _vectors_valid(vectors: tuple[SpeedVectors, ...], n_speeds: int) -> bool:
    """Whether no speed vector has a fault that _speed_vector_faults names:
    bulk checks over the whole table, one strided pass per adjacent pair of
    speeds."""
    if not vectors:
        return True
    times, energies = zip(*vectors)
    if {*map(len, times), *map(len, energies)} != {n_speeds}:
        return False
    times = list(chain.from_iterable(times))
    energies = list(chain.from_iterable(energies))
    return (
        min(times, default=1) >= 1
        and min(energies, default=1) >= 1
        and all(
            all(map(ge, times[k::n_speeds], times[k + 1 :: n_speeds]))
            and all(map(le, energies[k::n_speeds], energies[k + 1 :: n_speeds]))
            for k in range(n_speeds - 1)
        )
    )


def _speed_vector_faults(
    times: tuple[int, ...], energies: tuple[int, ...], n_speeds: int
) -> list[str]:
    """Violations of one task's speed vectors, in validate_instance order."""
    out = []
    if len(times) != n_speeds or len(energies) != n_speeds:
        out.append(f"speed vector length != {n_speeds}")
    if times and min(times) < 1:
        out.append("processing times must be >= 1")
    if energies and min(energies) < 1:
        out.append("energies must be >= 1")
    if list(times) != sorted(times, reverse=True):
        out.append("speed monotonicity violated (times increase)")
    if list(energies) != sorted(energies):
        out.append("energy monotonicity violated (energies decrease)")
    return out


def validate_schedule(instance: Instance, schedule: Schedule) -> list[str]:
    """Feasibility check: coverage, releases, job order, machine overlap."""
    out = []
    n_speeds = instance.n_speeds
    keys = instance.task_keys()
    expected = set(keys)
    got = set(schedule.entries)
    for key in sorted(expected - got):
        out.append(f"task {key}: missing entry")
    for key in sorted(got - expected):
        out.append(f"entry {key}: no such task")

    entries = schedule.entries
    by_machine: dict[int, list[tuple[int, int, tuple[int, int]]]] = {}
    prev_end = None
    for key, machine, release, (times, _) in zip(
        keys,
        instance.machine,
        instance.release,
        map(instance.vectors.__getitem__, instance.vector_id),
    ):
        if not key[1]:  # a new job starts
            prev_end = None
        if key not in entries:
            continue
        start, speed = entries[key]
        where = f"task {key}"
        if not 0 <= speed < n_speeds:
            out.append(f"{where}: speed index {speed} out of range")
            continue
        if start < release:
            out.append(f"{where}: release violated (start {start} < {release})")
        end = start + times[speed]
        if prev_end is not None and start < prev_end:
            out.append(f"{where}: starts before job predecessor completes")
        prev_end = end
        by_machine.setdefault(machine, []).append((start, end, key))

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
    entries = schedule.entries
    vectors = instance.vectors
    vector_id = instance.vector_id
    makespan = 0
    energy = 0
    tardiness = 0
    i = 0
    for j, length in enumerate(instance.route_lengths):
        job_end = 0
        for p in range(length):
            start, speed = entries[(j, p)]
            times, energies = vectors[vector_id[i]]
            job_end = start + times[speed]
            energy += energies[speed]
            if job_end > makespan:
                makespan = job_end
            i += 1
        due = instance.due[i - 1] if length else None
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
    total_tasks = sum(instance.route_lengths)
    if total_tasks > ORACLE_MAX_TASKS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_TASKS} tasks, got {total_tasks}"
        )
    if instance.n_speeds > ORACLE_MAX_SPEEDS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_SPEEDS} speeds, got {instance.n_speeds}"
        )
    _report_value(ObjectiveReport(0, 0, 0), objective)  # reject bad selector early

    keys = instance.task_keys()
    counts = list(instance.route_lengths)
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
        bases = inst.base_time
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
