"""Reference solver: the list-scan `dispatch` and the full-neighbourhood
`improve`, kept as they were before the heap dispatch and the critical-path
climb replaced them in `ejsp.solver`.

The differential tests in test_solver.py require both implementations to
return equal schedules. Only `_check_config` and `_policy_speed` are shared
with `ejsp.solver`; `_rule_key` is the per-task priority key `ejsp.solver`
used before it ranked rows of the columnar instance.
"""

from __future__ import annotations

from ejsp.evaluate import objectives, validate_schedule
from ejsp.model import Instance, Schedule
from ejsp.solver import SolverConfig, _check_config, _policy_speed


def _rule_key(rule: str, task, speed: int):
    if rule == "fifo":
        return (task.release, task.job)
    if rule == "spt":
        return (task.times[speed], task.job)
    # edd: unbounded dues sort last
    return (task.due is None, task.due if task.due is not None else 0, task.job)


def dispatch(instance: Instance, config: SolverConfig) -> Schedule:
    """Event-driven list scheduling; always returns a feasible schedule.

    A task is ready once its job predecessor has completed and its release
    has passed; among ready tasks the rule key picks the winner (ties to the
    lowest job id), which then starts at the earliest feasible time on its
    machine at the policy speed.
    """
    _check_config(config)
    speed = _policy_speed(instance, config.speed_policy)
    next_pos = [0] * instance.n_jobs
    job_free = [0] * instance.n_jobs
    machine_free = [0] * instance.machines
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    remaining = sum(len(route) for route in instance.jobs)
    now = 0
    while remaining:
        ready = []
        horizon = None
        for j, route in enumerate(instance.jobs):
            p = next_pos[j]
            if p >= len(route):
                continue
            task = route[p]
            at = max(task.release, job_free[j])
            if at <= now:
                ready.append(task)
            else:
                horizon = at if horizon is None else min(horizon, at)
        if not ready:
            now = horizon  # some task always becomes ready: job chains progress
            continue
        task = min(ready, key=lambda t: (_rule_key(config.rule, t, speed), t.job))
        start = max(now, machine_free[task.machine])
        entries[(task.job, task.position)] = (start, speed)
        end = start + task.times[speed]
        machine_free[task.machine] = end
        job_free[task.job] = end
        next_pos[task.job] += 1
        remaining -= 1
    return Schedule(entries=entries)


def _machine_sequences(instance: Instance, schedule: Schedule) -> list[list[tuple[int, int]]]:
    """Per-machine task keys ordered by start time (total: durations >= 1)."""
    seqs: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in range(instance.machines)]
    for task in instance.iter_tasks():
        key = (task.job, task.position)
        seqs[task.machine].append((schedule.entries[key][0], key))
    return [[key for _, key in sorted(seq)] for seq in seqs]


def _retime(
    instance: Instance,
    sequences: list[list[tuple[int, int]]],
    speeds: dict[tuple[int, int], int],
) -> Schedule | None:
    """Semi-active timing for explicit machine sequences; None if cyclic."""
    pred_count: dict[tuple[int, int], int] = {}
    machine_next: dict[tuple[int, int], tuple[int, int]] = {}
    for route in instance.jobs:
        for task in route:
            pred_count[(task.job, task.position)] = 1 if task.position else 0
    for seq in sequences:
        for a, b in zip(seq, seq[1:]):
            machine_next[a] = b
            pred_count[b] += 1

    by_key = {(t.job, t.position): t for t in instance.iter_tasks()}
    machine_free = [0] * instance.machines
    job_free: dict[int, int] = {}
    frontier = sorted(key for key, c in pred_count.items() if c == 0)
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    while frontier:
        key = frontier.pop()
        task = by_key[key]
        start = max(
            task.release, job_free.get(task.job, 0), machine_free[task.machine]
        )
        entries[key] = (start, speeds[key])
        end = start + task.times[speeds[key]]
        job_free[task.job] = end
        machine_free[task.machine] = end
        for nxt in (
            (task.job, task.position + 1) if task.position + 1 < len(instance.jobs[task.job]) else None,
            machine_next.get(key),
        ):
            if nxt is not None:
                pred_count[nxt] -= 1
                if pred_count[nxt] == 0:
                    frontier.append(nxt)
    if len(entries) != len(pred_count):
        return None  # swap created a precedence cycle
    return Schedule(entries=entries)


def improve(instance: Instance, schedule: Schedule, budget: int) -> Schedule:
    """First-improvement hill climb on makespan; at most `budget` accepted moves.

    Neighborhood: adjacent swaps within each machine sequence, then single
    task speed changes; every candidate is re-timed semi-actively. Monotone:
    the result's makespan never exceeds the input's.
    """
    violations = validate_schedule(instance, schedule)
    if violations:
        raise ValueError("infeasible schedule: " + "; ".join(violations))
    if budget == 0:
        return schedule

    current = schedule
    current_make = objectives(instance, current).makespan
    sequences = _machine_sequences(instance, current)
    speeds = {key: entry[1] for key, entry in current.entries.items()}

    for _ in range(budget):
        improved = False
        for m, seq in enumerate(sequences):
            for i in range(len(seq) - 1):
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                candidate = _retime(instance, sequences, speeds)
                if candidate is not None:
                    make = objectives(instance, candidate).makespan
                    if make < current_make:
                        current, current_make, improved = candidate, make, True
                        break
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
            if improved:
                break
        if not improved:
            for key in sorted(speeds):
                old = speeds[key]
                for s in range(instance.n_speeds):
                    if s == old:
                        continue
                    speeds[key] = s
                    candidate = _retime(instance, sequences, speeds)
                    make = objectives(instance, candidate).makespan
                    if make < current_make:
                        current, current_make, improved = candidate, make, True
                        break
                    speeds[key] = old
                if improved:
                    break
        if not improved:
            break
    return current
