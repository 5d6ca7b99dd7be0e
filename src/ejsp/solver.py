"""Dispatching-rule baselines and a first-improvement hill climb.

These exist to smoke-test instances and exercise the evaluator, not to be
competitive: event-driven list scheduling under fifo/spt/edd priority keys
with a fixed speed policy, plus an optional local search over adjacent
machine-sequence swaps and single-task speed changes.

`dispatch` keeps a heap of job release events and a heap of ready tasks, so
each placement costs O(log J) instead of a scan over every job. `improve`
times candidates with one index-based semi-active kernel and, once its
schedule is semi-active, tries only moves on a critical path: no other swap
or speed change can lower the makespan (van Laarhoven, Aarts & Lenstra
1992), so the climb accepts the same moves as a scan of the full
neighbourhood.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import repeat
from operator import add
from typing import Sequence

from ejsp.model import Instance, Schedule
from ejsp.evaluate import validate_schedule

RULES = ("fifo", "spt", "edd")
SPEED_POLICIES = ("slowest", "reference", "fastest")


@dataclass(frozen=True)
class SolverConfig:
    rule: str = "fifo"
    speed_policy: str = "slowest"


def _check_config(config: SolverConfig) -> None:
    if config.rule not in RULES:
        raise ValueError(f"unknown rule {config.rule!r}; expected one of {RULES}")
    if config.speed_policy not in SPEED_POLICIES:
        raise ValueError(
            f"unknown speed policy {config.speed_policy!r}; expected one of {SPEED_POLICIES}"
        )


def _policy_speed(instance: Instance, policy: str) -> int:
    if policy == "slowest":
        return 0
    if policy == "fastest":
        return instance.n_speeds - 1
    return instance.speed_multipliers.reference_index


def _rule_ranks(rule: str, instance: Instance, duration: list[int]) -> Sequence:
    """Per-row priority under `rule`, lowest first; ties go to the lower job."""
    if rule == "fifo":
        return instance.release
    if rule == "spt":
        return duration
    # edd: unbounded dues sort last
    return [(due is None, due if due is not None else 0) for due in instance.due]


def dispatch(instance: Instance, config: SolverConfig) -> Schedule:
    """Event-driven list scheduling; always returns a feasible schedule.

    A task is ready once its job predecessor has completed and its release
    has passed; among ready tasks the rule key picks the winner (ties to the
    lowest job id), which then starts at the earliest feasible time on its
    machine at the policy speed. Time advances to the next release event
    only when no task is ready.
    """
    _check_config(config)
    speed = _policy_speed(instance, config.speed_policy)
    vector_duration = [times[speed] for times, _ in instance.vectors]
    duration = list(map(vector_duration.__getitem__, instance.vector_id))
    rank = _rule_ranks(config.rule, instance, duration)
    machine, release = instance.machine, instance.release
    machine_free = [0] * instance.machines
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    # one pending event per job, keyed (release time, job) and carrying the
    # row of the job's next task; ready entries are (rank, job, row), and a
    # job has at most one task ready, so no two entries tie on (rank, job)
    events = []
    first = [0]
    for j, length in enumerate(instance.route_lengths):
        if length:
            events.append((max(release[first[j]], 0), j, first[j]))
        first.append(first[j] + length)
    events.sort()
    ready: list[tuple] = []
    while events:
        now = events[0][0]
        while events and events[0][0] == now:
            _, j, i = heappop(events)
            heappush(ready, (rank[i], j, i))
        # with times >= 1 a successor is released after `now`; one released
        # by `now` competes in the current ready set, as in a full scan
        while ready:
            _, j, i = heappop(ready)
            m = machine[i]
            start = max(now, machine_free[m])
            entries[(j, i - first[j])] = (start, speed)
            end = start + duration[i]
            machine_free[m] = end
            i += 1
            if i < first[j + 1]:
                at = max(release[i], end)
                if at <= now:
                    heappush(ready, (rank[i], j, i))
                else:
                    heappush(events, (at, j, i))
    return Schedule(entries=entries)


def _semi_active(
    release: list[int],
    job_next: list[int],
    job_preds: list[int],
    sequences: list[list[int]],
    duration: list[int],
) -> list[int] | None:
    """Earliest start of every task under its job chain and machine sequence.

    Tasks are numbered 0..n-1 job by job. `job_next[i]` is the task after i
    in its job (-1 for the last one) and `job_preds[i]` is 1 unless i starts
    its job. Returns None if the machine sequences close a cycle.
    """
    n = len(release)
    machine_next = [-1] * n
    waiting = job_preds[:]
    for seq in sequences:
        for a, b in zip(seq, seq[1:]):
            machine_next[a] = b
            waiting[b] += 1
    start = release[:]
    stack = [i for i, w in enumerate(waiting) if not w]
    placed = 0
    while stack:
        i = stack.pop()
        placed += 1
        end = start[i] + duration[i]
        k = job_next[i]
        if k >= 0:
            if start[k] < end:
                start[k] = end
            waiting[k] -= 1
            if not waiting[k]:
                stack.append(k)
        k = machine_next[i]
        if k >= 0:
            if start[k] < end:
                start[k] = end
            waiting[k] -= 1
            if not waiting[k]:
                stack.append(k)
    return start if placed == n else None


def _tails(
    start: list[int],
    duration: list[int],
    job_next: list[int],
    sequences: list[list[int]],
) -> list[int]:
    """Longest path from each task's end to the end of the schedule.

    Successors start after their predecessors end (times >= 1), so reverse
    start order visits every successor first.
    """
    n = len(start)
    machine_next = [-1] * n
    for seq in sequences:
        for a, b in zip(seq, seq[1:]):
            machine_next[a] = b
    tail = [0] * n
    for i in sorted(range(n), key=start.__getitem__, reverse=True):
        t = 0
        k = job_next[i]
        if k >= 0:
            t = duration[k] + tail[k]
        k = machine_next[i]
        if k >= 0 and duration[k] + tail[k] > t:
            t = duration[k] + tail[k]
        tail[i] = t
    return tail


def _critical_swaps(
    seq: list[int],
    start: list[int],
    duration: list[int],
    tail: list[int],
    release: list[int],
    job_next: list[int],
    job_preds: list[int],
    makespan: int,
) -> list[int]:
    """Positions k in one machine sequence whose swap of seq[k] and seq[k+1]
    might lower `makespan`.

    The arc (u, v) must lie on a longest path. Swapped, the path through
    v then u is at least as long as the heads and tails of their other
    neighbours make it: those are unchanged unless the swap closes a cycle,
    so a bound that reaches the makespan rules the swap out.
    """
    out = []
    for k in range(len(seq) - 1):
        u, v = seq[k], seq[k + 1]
        p_u, p_v = duration[u], duration[v]
        if start[u] + p_u + p_v + tail[v] != makespan:
            continue
        head_v = release[v]
        if job_preds[v] and start[v - 1] + duration[v - 1] > head_v:
            head_v = start[v - 1] + duration[v - 1]
        if k and start[seq[k - 1]] + duration[seq[k - 1]] > head_v:
            head_v = start[seq[k - 1]] + duration[seq[k - 1]]
        head_u = max(release[u], head_v + p_v)
        if job_preds[u] and start[u - 1] + duration[u - 1] > head_u:
            head_u = start[u - 1] + duration[u - 1]
        tail_u = 0
        w = job_next[u]
        if w >= 0:
            tail_u = duration[w] + tail[w]
        if k + 2 < len(seq):
            w = seq[k + 2]
            tail_u = max(tail_u, duration[w] + tail[w])
        tail_v = p_u + tail_u
        w = job_next[v]
        if w >= 0 and duration[w] + tail[w] > tail_v:
            tail_v = duration[w] + tail[w]
        if max(head_v + p_v + tail_v, head_u + p_u + tail_u) < makespan:
            out.append(k)
    return out


def improve(instance: Instance, schedule: Schedule, budget: int) -> Schedule:
    """First-improvement hill climb on makespan; at most `budget` accepted moves.

    Neighborhood: adjacent swaps within each machine sequence, in machine
    and sequence order, then single-task speed changes, in task key and
    speed order; every candidate is re-timed semi-actively and judged by
    its makespan alone. When the current sequences' semi-active makespan
    equals the current one, only swaps of an arc (u, v) with
    head(u) + p(u) + p(v) + tail(v) == Cmax whose swapped pair's path bound
    stays below Cmax, and speed changes to a shorter time on a task with
    head + p + tail == Cmax, are tried: no other move can lower the
    makespan, so the same moves are accepted as by a full scan. An input
    that starts tasks late gets the full scan until a move is accepted.
    Monotone: the result's makespan never exceeds the input's.
    """
    if budget < 0:
        raise ValueError("improvement budget must be >= 0")
    violations = validate_schedule(instance, schedule)
    if violations:
        raise ValueError("infeasible schedule: " + "; ".join(violations))
    if budget == 0:
        return schedule

    keys = instance.task_keys()
    n = len(keys)
    vector_times = [times for times, _ in instance.vectors]
    times = list(map(vector_times.__getitem__, instance.vector_id))
    release = [max(r, 0) for r in instance.release]
    job_next = []
    job_preds = []
    for length in instance.route_lengths:
        first = len(job_next)
        job_next.extend(range(first + 1, first + length))
        job_preds.extend(repeat(1, length))
        if length:
            job_next.append(-1)
            job_preds[first] = 0
    entries = schedule.entries
    speed = [entries[key][1] for key in keys]
    duration = [t[s] for t, s in zip(times, speed)]
    by_machine: list[list[tuple[int, tuple[int, int], int]]] = [[] for _ in range(instance.machines)]
    for i, m in enumerate(instance.machine):
        by_machine[m].append((entries[keys[i]][0], keys[i], i))
    sequences = [[i for _, _, i in sorted(seq)] for seq in by_machine]
    speed_order = sorted(range(n), key=keys.__getitem__)
    n_speeds = instance.n_speeds

    current_make = max((entries[key][0] + d for key, d in zip(keys, duration)), default=0)
    accepted = None  # start times of the last accepted candidate

    def retime():
        return _semi_active(release, job_next, job_preds, sequences, duration)

    def makespan_of(start):
        return max(map(add, start, duration), default=0)

    for _ in range(budget):
        start = retime()
        critical = makespan_of(start) == current_make
        if critical:
            tail = _tails(start, duration, job_next, sequences)
        improved = False
        for seq in sequences:
            if critical:
                swaps = _critical_swaps(
                    seq, start, duration, tail, release, job_next, job_preds, current_make
                )
            else:
                swaps = range(len(seq) - 1)
            for k in swaps:
                u, v = seq[k], seq[k + 1]
                seq[k], seq[k + 1] = v, u
                candidate = retime()
                if candidate is not None:
                    make = makespan_of(candidate)
                    if make < current_make:
                        accepted, current_make, improved = candidate, make, True
                        break
                seq[k], seq[k + 1] = u, v
            if improved:
                break
        if not improved:
            for i in speed_order:
                if critical and start[i] + duration[i] + tail[i] != current_make:
                    continue
                old = speed[i]
                options = times[i]
                for s in range(n_speeds):
                    if s == old or (critical and options[s] >= options[old]):
                        continue
                    duration[i] = options[s]
                    candidate = retime()
                    make = makespan_of(candidate)
                    if make < current_make:
                        accepted, current_make, improved = candidate, make, True
                        speed[i] = s
                        break
                    duration[i] = options[old]
                if improved:
                    break
        if not improved:
            break
    if accepted is None:
        return schedule
    return Schedule(entries={key: (accepted[i], speed[i]) for i, key in enumerate(keys)})
