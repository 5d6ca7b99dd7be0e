"""Canonical text serialization of instances, suite manifests, curve tables.

The `.ejsp` text form (documented in FORMAT.md) is the round-trip authority:
fixed key order, reals at 6 decimals, integers bare, LF line endings, output
a pure function of the instance. A JSON export is provided for interop but
is one-way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from itertools import chain, islice, repeat
from operator import add, methodcaller
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional, Sequence, Union

from ejsp.model import (
    DistSpec,
    Instance,
    InstanceMetadata,
    InstanceParams,
    SpeedGrid,
    vector_table,
)
from ejsp.speed import energy_percentage, time_fraction

UNBOUNDED_TOKEN = "inf"


class ParseError(ValueError):
    """Malformed instance text; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ValueError):
    """Well-formed text whose payload breaks instance invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid instance: " + "; ".join(violations))
        self.violations = violations


def _fmt_real(x: float) -> str:
    return f"{x:.6f}"


def _dist_tokens(dist: DistSpec) -> list[str]:
    return [dist.kind] + [f"{name}={_fmt_real(value)}" for name, value in dist.params()]


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


def write_instance(instance: Instance) -> bytes:
    """Canonical `.ejsp` bytes for an instance."""
    meta = instance.metadata
    lines = [
        f"jobs {instance.n_jobs}",
        f"machines {instance.machines}",
        f"tasks {instance.n_tasks_per_job}",
        f"speeds {instance.n_speeds}",
        "multipliers "
        + " ".join(_fmt_real(x) for x in instance.speed_multipliers.multipliers),
        f"seed {meta.seed}",
        f"index {meta.instance_index}",
        "dist " + " ".join(_dist_tokens(meta.dist)),
        f"rrdd {meta.rrdd}",
        f"variant {meta.variant_tag}",
        f"prng {meta.prng_id}",
        f"version {meta.generator_version}",
    ]
    # each table entry and each distinct value formatted once; rows are
    # assembled column by column, in C
    speed_text = [
        " ".join(("", *map(str, times + energies))) for times, energies in instance.vectors
    ]
    lengths = instance.route_lengths
    positions = [str(p) for p in range(max(lengths, default=0))]
    columns = (instance.machine, instance.base_time, instance.release, instance.due)
    text = {value: str(value) for value in set().union(*columns)}
    text[None] = UNBOUNDED_TOKEN
    rows = zip(
        chain.from_iterable(map(repeat, map(str, range(len(lengths))), lengths)),
        chain.from_iterable(map(islice, repeat(positions), lengths)),
        *(map(text.__getitem__, column) for column in columns),
    )
    lines.extend(
        map(add, map(" ".join, rows), map(speed_text.__getitem__, instance.vector_id))
    )
    return ("\n".join(lines) + "\n").encode("ascii")


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
    """Raise the ParseError for a wrong field count on a task line, else for
    its first token that is not an integer (the due column may also be the
    unbounded token); return if the line has neither fault."""
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


_split_task_line = methodcaller("split", " ", 6)


def _task_columns(block: list[str], n_jobs: int, n_tasks: int, n_speeds: int) -> tuple:
    """The columns from `machine` to `vectors` of an Instance, parsed column
    by column from a task block of one line per task.

    Raises ValueError unless the block holds exactly the expected lines, each
    well formed and carrying its own job and position; `_reject_task_block`
    then names the fault.
    """
    if len(block) != n_jobs * n_tasks:
        raise ValueError
    if not block:
        return (), (), (), (), (), ()
    # the six leading fields and the speed-vector text of every line, as one
    # flat list sliced into columns: each line's own list is dropped at once,
    # which leaves the garbage collector nothing to traverse
    fields = list(chain.from_iterable(map(_split_task_line, block)))
    if len(fields) != 7 * len(block):  # a line has fewer than seven fields
        raise ValueError
    job, position, machine, base_time, release, due, speeds = (
        fields[k::7] for k in range(7)
    )
    # labels are integers like any other field (`01` is job 1); the text
    # compare first is the cheap test for the writer's form
    if job != list(chain.from_iterable(repeat(str(j), n_tasks) for j in range(n_jobs))):
        if list(map(int, job)) != list(
            chain.from_iterable(repeat(j, n_tasks) for j in range(n_jobs))
        ):
            raise ValueError
    if position != list(map(str, range(n_tasks))) * n_jobs:
        if list(map(int, position)) != list(range(n_tasks)) * n_jobs:
            raise ValueError
    # each distinct speed-vector text parsed once, in row order of first use
    texts = list(dict.fromkeys(speeds))
    if set(map(methodcaller("count", " "), texts)) != {2 * n_speeds - 1}:
        raise ValueError
    values = map(int, " ".join(texts).split(" "))
    halves = list(zip(*[values] * n_speeds))
    # texts that differ in form only, such as by a leading zero, share an entry
    ids, table = vector_table(list(zip(halves[::2], halves[1::2])))
    return (
        _parse_column(machine, int),
        _parse_column(base_time, int),
        _parse_column(release, int),
        _parse_column(due, _parse_due),
        tuple(map(dict(zip(texts, ids)).__getitem__, speeds)),
        table,
    )


def _parse_column(tokens: list[str], parse: Callable[[str], Any]) -> tuple:
    """`parse` of every token, each distinct token parsed once."""
    value = {token: parse(token) for token in set(tokens)}
    return tuple(map(value.__getitem__, tokens))


def _parse_due(token: str) -> Optional[int]:
    return None if token == UNBOUNDED_TOKEN else int(token)


def _reject_task_block(
    lines: list[str], line_no: int, n_jobs: int, n_tasks: int, n_speeds: int
) -> NoReturn:
    """Raise the ParseError of the first faulty line of a task block that
    `_task_columns` refused, walking the lines from 1-based `line_no` on."""
    for j in range(n_jobs):
        for p in range(n_tasks):
            if line_no > len(lines):
                raise ParseError(
                    line_no,
                    f"unexpected end of file, expected task line for job {j} position {p}",
                )
            line = lines[line_no - 1]
            _reject_task_line(line, line_no, n_speeds)
            if tuple(map(int, line.split(" ", 2)[:2])) != (j, p):
                raise ParseError(
                    line_no, f"task lines out of order: expected job {j} position {p}"
                )
            line_no += 1
    if line_no <= len(lines):
        raise ParseError(line_no, "unexpected trailing content")
    raise AssertionError("task block refused, but no line is faulty")


def read_instance(data: Union[bytes, str]) -> Instance:
    """Parse canonical text back into an Instance.

    Raises ParseError (with line number) for malformed syntax, a non-ASCII
    byte or character included, and ValidationError for payloads that break
    instance invariants.
    """
    if isinstance(data, str) and not data.isascii():
        data = data.encode("utf-8", "surrogatepass")  # reported as its bytes would be
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

    n_jobs = max(n_jobs, 0)
    n_tasks = max(n_tasks, 0)
    try:
        columns = _task_columns(cur.lines[cur.pos :], n_jobs, n_tasks, n_speeds)
    except ValueError:
        _reject_task_block(cur.lines, cur.line_no, n_jobs, n_tasks, n_speeds)

    instance = Instance(
        (n_tasks,) * n_jobs,
        *columns,
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
    from ejsp.evaluate import validate_instance

    violations = validate_instance(instance)
    if violations:
        raise ValidationError(violations)
    return instance


def read_instance_file(path: Union[str, Path]) -> Instance:
    return read_instance(Path(path).read_bytes())


@dataclass(frozen=True)
class ManifestEntry:
    file: str
    index: int
    variant: str
    sha256: str


@dataclass(frozen=True)
class SuiteManifest:
    suite_id: str
    params: Optional[dict]
    generator_version: str
    entries: tuple[ManifestEntry, ...]


def instance_file_name(instance: Instance) -> str:
    meta = instance.metadata
    return f"inst_{meta.instance_index:04d}_{meta.variant_tag}.ejsp"


def params_echo(params: InstanceParams) -> dict:
    echo = asdict(params)
    echo["dist"] = {"kind": params.dist.kind, **dict(params.dist.params())}
    echo["base_time_range"] = list(params.base_time_range)
    return echo


def write_suite(
    instances: Sequence[Instance],
    directory: Union[str, Path],
    suite_id: str = "suite",
    params: Optional[Union[InstanceParams, dict]] = None,
) -> SuiteManifest:
    """Write one `.ejsp` file per instance plus `manifest.json`.

    Files are named inst_{index:04d}_{variant}.ejsp; the manifest records a
    sha256 digest of each file's bytes, in the given instance order. Raises
    FileExistsError, before writing anything, if the directory holds `.ejsp`
    files the new suite would not overwrite: readers of the directory would
    take them for part of the suite.
    """
    directory = Path(directory)
    names = [instance_file_name(instance) for instance in instances]
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate instance file name {name}")
        seen.add(name)
    stale = sorted(p.name for p in directory.glob("*.ejsp") if p.name not in seen)
    if stale:
        shown = ", ".join(stale[:5]) + (f" and {len(stale) - 5} more" if len(stale) > 5 else "")
        raise FileExistsError(
            f"{directory} holds .ejsp files that are not in the new suite: {shown}"
        )
    directory.mkdir(parents=True, exist_ok=True)
    if isinstance(params, InstanceParams):
        params = params_echo(params)

    entries = []
    for instance, name in zip(instances, names):
        payload = write_instance(instance)
        (directory / name).write_bytes(payload)
        entries.append(
            ManifestEntry(
                file=name,
                index=instance.metadata.instance_index,
                variant=instance.metadata.variant_tag,
                sha256=hashlib.sha256(payload).hexdigest(),
            )
        )

    from ejsp._version import __version__

    manifest = SuiteManifest(
        suite_id=suite_id,
        params=params,
        generator_version=__version__,
        entries=tuple(entries),
    )
    (directory / "manifest.json").write_bytes(
        (json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n").encode("ascii")
    )
    return manifest


def read_manifest(directory: Union[str, Path]) -> SuiteManifest:
    raw = json.loads((Path(directory) / "manifest.json").read_text("ascii"))
    return SuiteManifest(
        suite_id=raw["suite_id"],
        params=raw["params"],
        generator_version=raw["generator_version"],
        entries=tuple(ManifestEntry(**e) for e in raw["entries"]),
    )


def read_suite(directory: Union[str, Path]) -> list[Instance]:
    """All instances under a directory, manifest order if present."""
    directory = Path(directory)
    if (directory / "manifest.json").exists():
        manifest = read_manifest(directory)
        return [read_instance_file(directory / e.file) for e in manifest.entries]
    return [read_instance_file(p) for p in sorted(directory.glob("*.ejsp"))]


def instance_to_json(instance: Instance) -> str:
    """Structured one-way JSON export; the text form stays authoritative."""
    meta = instance.metadata
    doc = {
        "jobs": [
            [
                {
                    "job": t.job,
                    "position": t.position,
                    "machine": t.machine,
                    "base_time": t.base_time,
                    "release": t.release,
                    "due": t.due,
                    "times": list(t.times),
                    "energies": list(t.energies),
                }
                for t in route
            ]
            for route in instance.jobs
        ],
        "machines": instance.machines,
        "speed_multipliers": list(instance.speed_multipliers.multipliers),
        "metadata": {
            "seed": meta.seed,
            "instance_index": meta.instance_index,
            "dist": {"kind": meta.dist.kind, **dict(meta.dist.params())},
            "rrdd": meta.rrdd,
            "generator_version": meta.generator_version,
            "prng_id": meta.prng_id,
            "variant": meta.variant_tag,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def export_curves() -> tuple[list[tuple[int, int]], list[tuple[float, float]]]:
    """The two calibration curve tables.

    Energy percentage at x = 0..100 (101 rows) and time fraction at
    x = 0.50, 0.51, ..., 3.00 (251 rows, values at 6 decimals).
    """
    table_energy = [(x, energy_percentage(x)) for x in range(101)]
    table_time = []
    for i in range(251):
        x = (50 + i) / 100.0
        table_time.append((x, round(time_fraction(x), 6)))
    return table_energy, table_time


def write_curves(directory: Union[str, Path]) -> tuple[Path, Path]:
    """Write the curve tables as CSV (`x,value` header, LF endings)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table_energy, table_time = export_curves()
    energy_path = directory / "energy_percentage.csv"
    time_path = directory / "time_fraction.csv"
    energy_path.write_bytes(
        ("x,value\n" + "".join(f"{x},{v}\n" for x, v in table_energy)).encode("ascii")
    )
    time_path.write_bytes(
        (
            "x,value\n" + "".join(f"{x:.2f},{v:.6f}\n" for x, v in table_time)
        ).encode("ascii")
    )
    return energy_path, time_path
