"""Reference reader: `read_instance` and the validation it ran, kept as
they were before the columnar `Instance` replaced per-task `TaskSpec` rows.

The differential property in test_io.py requires the current reader to
accept what this one accepts (with equal task views and metadata) and to
fail where it fails: a ParseError on the same line, or a ValidationError
with the same violations. The functions below are verbatim copies; only
the imports differ, `Instance` is the old per-task shape (a tuple of routes
of `TaskSpec`), and `read_instance` calls the `validate_instance` below
instead of importing it from `ejsp.evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from ejsp.io import ParseError, ValidationError
from ejsp.model import (
    DIST_KINDS,
    MAX_SEED,
    RRDD_MODES,
    DistSpec,
    InstanceMetadata,
    SpeedGrid,
    TaskSpec,
    validate_dist,
)

UNBOUNDED_TOKEN = "inf"


@dataclass(frozen=True)
class Instance:
    """One job-shop instance with speed-scalable tasks."""

    jobs: tuple[tuple[TaskSpec, ...], ...]
    machines: int
    speed_multipliers: SpeedGrid
    metadata: InstanceMetadata


def _variant_from_tag(tag: str, line: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    if tag == "orig":
        return False, None
    relaxed = False
    subset: Optional[tuple[int, ...]] = None
    for part in tag.split("+"):
        if part == "relaxed" and not relaxed:
            relaxed = True
        elif part.startswith("s") and subset is None:
            try:
                ordinals = [int(tok) for tok in part[1:].split("-")]
            except ValueError:
                raise ParseError(line, f"bad variant tag {tag!r}") from None
            if any(o < 1 for o in ordinals):
                raise ParseError(line, f"bad variant tag {tag!r}")
            subset = tuple(o - 1 for o in ordinals)
        else:
            raise ParseError(line, f"bad variant tag {tag!r}")
    return relaxed, subset


class _Cursor:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        # canonical form ends with one LF, leaving a trailing empty piece
        if self.lines and self.lines[-1] == "":
            self.lines.pop()
        self.pos = 0

    @property
    def line_no(self) -> int:
        return self.pos + 1

    def next_line(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise ParseError(self.pos + 1, f"unexpected end of file, expected {what}")
        line = self.lines[self.pos]
        self.pos += 1
        return line


def _parse_int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line, f"bad integer for {what}: {token!r}") from None


def _reject_task_line(text: str, line: int, n_speeds: int) -> None:
    """Raise the ParseError for a task line that failed the fast parse: a
    wrong field count first, else the first token that is not an integer
    (the due column may also be the unbounded token)."""
    width = 6 + 2 * n_speeds
    if text.count(" ") != width - 1:
        raise ParseError(
            line, f"expected {width} fields on task line, got {text.count(' ') + 1}"
        )
    names = ("job", "position", "machine", "base time", "release", "due")
    names += ("time",) * n_speeds + ("energy",) * n_speeds
    for name, token in zip(names, text.split(" ")):
        if not (name == "due" and token == UNBOUNDED_TOKEN):
            _parse_int(token, line, name)


def _parse_real(token: str, line: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(line, f"bad real for {what}: {token!r}") from None


def _header(cur: _Cursor, key: str) -> list[str]:
    line_no = cur.line_no
    line = cur.next_line(f"header {key!r}")
    parts = line.split(" ")
    if not parts or parts[0] != key:
        raise ParseError(line_no, f"expected header {key!r}, got {line!r}")
    if len(parts) < 2:
        raise ParseError(line_no, f"header {key!r} has no value")
    return parts[1:]


def read_instance(data: Union[bytes, str]) -> Instance:
    """Parse canonical text back into an Instance.

    Raises ParseError (with line number) for malformed syntax, a non-ASCII
    byte included, and ValidationError for payloads that break instance
    invariants.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(line, f"non-ASCII byte 0x{data[exc.start]:02x}") from None
    else:
        text = data
    cur = _Cursor(text)

    n_jobs = _parse_int(_header(cur, "jobs")[0], cur.line_no - 1, "jobs")
    machines = _parse_int(_header(cur, "machines")[0], cur.line_no - 1, "machines")
    n_tasks = _parse_int(_header(cur, "tasks")[0], cur.line_no - 1, "tasks")
    n_speeds = _parse_int(_header(cur, "speeds")[0], cur.line_no - 1, "speeds")

    mult_line = cur.line_no
    mult_tokens = _header(cur, "multipliers")
    if len(mult_tokens) != n_speeds:
        raise ParseError(
            mult_line, f"expected {n_speeds} multipliers, got {len(mult_tokens)}"
        )
    multipliers = tuple(
        _parse_real(tok, mult_line, "multiplier") for tok in mult_tokens
    )

    seed = _parse_int(_header(cur, "seed")[0], cur.line_no - 1, "seed")
    index = _parse_int(_header(cur, "index")[0], cur.line_no - 1, "index")

    dist_line = cur.line_no
    dist_tokens = _header(cur, "dist")
    kind = dist_tokens[0]
    dist_kwargs = {}
    for tok in dist_tokens[1:]:
        name, eq, value = tok.partition("=")
        if eq != "=" or name not in ("lam", "mu", "sigma", "a", "b"):
            raise ParseError(dist_line, f"bad distribution parameter {tok!r}")
        dist_kwargs[name] = _parse_real(value, dist_line, name)
    dist = DistSpec(kind, **dist_kwargs)

    rrdd = _header(cur, "rrdd")[0]
    variant_line = cur.line_no
    relaxed, subset = _variant_from_tag(_header(cur, "variant")[0], variant_line)
    prng_id = _header(cur, "prng")[0]
    version = _header(cur, "version")[0]

    routes: list[list[TaskSpec]] = [[] for _ in range(max(n_jobs, 0))]
    n_values = 2 * n_speeds
    lines = cur.lines
    line_no = cur.line_no
    # speed-vector text -> parsed (times, energies); equal vectors share
    # tuples, and a text is only stored once it holds n_values integers, so a
    # hit also vouches for the line's field count
    vectors: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for j, route in enumerate(routes):
        for p in range(n_tasks):
            if line_no > len(lines):
                raise ParseError(
                    line_no,
                    f"unexpected end of file, expected task line for job {j} position {p}",
                )
            line = lines[line_no - 1]
            try:
                tj, tp, machine, base_time, release, due, speed_text = line.split(" ", 6)
                speeds = vectors.get(speed_text)
                if speeds is None:
                    tokens = speed_text.split(" ")
                    if len(tokens) != n_values:
                        raise ValueError
                    values = tuple(map(int, tokens))
                    speeds = vectors[speed_text] = (values[:n_speeds], values[n_speeds:])
                tj = int(tj)
                tp = int(tp)
                task = TaskSpec(
                    tj,
                    tp,
                    int(machine),
                    int(base_time),
                    *speeds,
                    int(release),
                    None if due == UNBOUNDED_TOKEN else int(due),
                )
            except ValueError:
                _reject_task_line(line, line_no, n_speeds)
            if tj != j or tp != p:
                raise ParseError(
                    line_no, f"task lines out of order: expected job {j} position {p}"
                )
            route.append(task)
            line_no += 1
    if line_no <= len(lines):
        raise ParseError(line_no, "unexpected trailing content")

    instance = Instance(
        jobs=tuple(tuple(route) for route in routes),
        machines=machines,
        speed_multipliers=SpeedGrid(multipliers),
        metadata=InstanceMetadata(
            seed=seed,
            instance_index=index,
            dist=dist,
            rrdd=rrdd,
            generator_version=version,
            prng_id=prng_id,
            dates_relaxed=relaxed,
            speed_subset=subset,
        ),
    )
    violations = validate_instance(instance)
    if violations:
        raise ValidationError(violations)
    return instance


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
