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
from operator import add

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
    machine at the policy speed. Time advances to the next release event
    only when no task is ready.
    """
    _check_config(config)
    rule = config.rule
    speed = _policy_speed(instance, config.speed_policy)
    machine_free = [0] * instance.machines
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    # one pending event per job, keyed (release time, job) and carrying the
    # job's next task; ready keys end in the job too, so no two tasks compare
    events = [(max(route[0].release, 0), j, route[0]) for j, route in enumerate(instance.jobs) if route]
    events.sort()
    ready: list = []
    while events:
        now = events[0][0]
        while events and events[0][0] == now:
            task = heappop(events)[2]
            heappush(ready, ((_rule_key(rule, task, speed), task.job), task))
        # with times >= 1 a successor is released after `now`; one released
        # by `now` competes in the current ready set, as in a full scan
        while ready:
            task = heappop(ready)[1]
            start = max(now, machine_free[task.machine])
            entries[(task.job, task.position)] = (start, speed)
            end = start + task.times[speed]
            machine_free[task.machine] = end
            route = instance.jobs[task.job]
            if task.position + 1 < len(route):
                nxt = route[task.position + 1]
                at = max(nxt.release, end)
                if at <= now:
                    heappush(ready, ((_rule_key(rule, nxt, speed), nxt.job), nxt))
                else:
                    heappush(events, (at, nxt.job, nxt))
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

    tasks = list(instance.iter_tasks())
    n = len(tasks)
    keys = [(t.job, t.position) for t in tasks]
    times = [t.times for t in tasks]
    release = [max(t.release, 0) for t in tasks]
    job_next = []
    job_preds = []
    for route in instance.jobs:
        first = len(job_next)
        job_next.extend(range(first + 1, first + len(route)))
        job_preds.extend(1 for _ in route)
        if route:
            job_next.append(-1)
            job_preds[first] = 0
    entries = schedule.entries
    speed = [entries[key][1] for key in keys]
    duration = [t[s] for t, s in zip(times, speed)]
    by_machine: list[list[tuple[int, tuple[int, int], int]]] = [[] for _ in range(instance.machines)]
    for i, task in enumerate(tasks):
        by_machine[task.machine].append((entries[keys[i]][0], keys[i], i))
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
