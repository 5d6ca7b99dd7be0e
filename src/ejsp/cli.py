"""Command-line entry point: generate, derive, validate, stats, solve, curves.

All outputs are deterministic: no timestamps, LF line endings, `.` decimal
separators regardless of locale. EJSP_THREADS is still accepted (a
non-negative integer) but has no effect: generation is pure Python and runs
in one thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from ejsp.evaluate import objectives, suite_stats
from ejsp.generator import generate_instance, generate_suite
from ejsp.io import (
    ParseError,
    ValidationError,
    read_instance_file,
    write_curves,
    write_suite,
)
from ejsp.model import DIST_KINDS, DistSpec, InstanceParams, validate_params
from ejsp.rng import make_stream, sample_int_range
from ejsp.solver import RULES, SPEED_POLICIES, SolverConfig, dispatch, improve
from ejsp.variants import paper_variants, project_speeds, relax_dates

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2

# Stream index reserved for the benchmark preset's per-instance shape draws;
# far outside any realistic instance index, and fixed so the whole preset is
# reproducible from one seed.
PRESET_META_INDEX = 2**32

PRESET_JOBS = (30, 250)
PRESET_MACHINES = (3, 20)
PRESET_SPEEDS = 5
PRESET_COUNT = 500
PRESET_RRDD = ("loose", "tight")


def _check_thread_setting() -> None:
    """Reject a malformed EJSP_THREADS. The setting is still accepted, but
    has no effect: generation runs in one thread."""
    raw = os.environ.get("EJSP_THREADS", "").strip()
    if raw in ("", "0"):
        return
    try:
        n = int(raw)
    except ValueError:
        raise SystemExit(
            f"ejsp: EJSP_THREADS must be a non-negative integer, got {raw!r}"
        ) from None
    if n < 0:
        raise SystemExit(f"ejsp: EJSP_THREADS must be a non-negative integer, got {n}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ejsp",
        description="Generate, transform and evaluate energy-aware job-shop instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an instance suite")
    gen.add_argument("--count", type=int, help="number of instances")
    gen.add_argument("--jobs", type=int, help="jobs per instance")
    gen.add_argument("--machines", type=int, help="machine count")
    gen.add_argument("--tasks", type=int, help="tasks per job (default: machines)")
    gen.add_argument("--speeds", type=int, help="speed count")
    gen.add_argument("--dist", choices=DIST_KINDS, help="release-date distribution")
    gen.add_argument("--rrdd", choices=("none", "loose", "tight"), help="date mode")
    gen.add_argument("--seed", type=int, help="base seed (64-bit unsigned)")
    gen.add_argument("--out", type=Path, help="output directory")
    gen.add_argument("--base-lo", type=int, default=1, help="base time lower bound")
    gen.add_argument("--base-hi", type=int, default=100, help="base time upper bound")
    gen.add_argument(
        "--paper-suite",
        action="store_true",
        help="emit the benchmark preset: random shapes, mixed distributions, "
        "5 speeds, plus both speed variants per original",
    )

    der = sub.add_parser("derive", help="derive variants from existing instances")
    der.add_argument(
        "--variants", choices=("paper", "relax", "project"), required=True
    )
    der.add_argument("--subset", help="comma-separated speed indices for project")
    der.add_argument("--in", dest="inputs", nargs="+", required=True, type=Path)
    der.add_argument("--out", type=Path, required=True)

    val = sub.add_parser("validate", help="check instance files against invariants")
    val.add_argument("inputs", nargs="+", type=Path)

    sta = sub.add_parser("stats", help="print suite composition CSV")
    sta.add_argument("inputs", nargs="+", type=Path)

    sol = sub.add_parser("solve", help="run a dispatching baseline and report objectives")
    sol.add_argument("inputs", nargs="+", type=Path)
    sol.add_argument("--rule", choices=RULES, default="fifo")
    sol.add_argument("--speed-policy", choices=SPEED_POLICIES, default="slowest")
    sol.add_argument("--budget", type=int, default=0, help="hill-climb iterations")

    cur = sub.add_parser("curves", help="export the calibration curve tables")
    cur.add_argument("--out", type=Path, required=True)
    return parser


def _expand_inputs(paths: list[Path]) -> list[Path]:
    files = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.glob("*.ejsp")))
        elif path.is_file():
            files.append(path)
        else:
            raise SystemExit(f"ejsp: input not found: {path}")
    if not files:
        raise SystemExit("ejsp: no instance files found under the given inputs")
    return files


def _require(args, names: list[str]) -> Optional[str]:
    for name in names:
        if getattr(args, name.lstrip("-").replace("-", "_")) is None:
            return name
    return None


def _cmd_generate(args) -> int:
    if args.paper_suite:
        missing = _require(args, ["--seed", "--out"])
        if missing:
            print(f"ejsp generate: {missing} is required", file=sys.stderr)
            return EXIT_USAGE
        count = args.count if args.count is not None else PRESET_COUNT
        if count < 1:
            print("ejsp generate: --count must be >= 1", file=sys.stderr)
            return EXIT_USAGE
        _check_thread_setting()
        instances = _preset_instances(args.seed, count)
        write_suite(
            instances,
            args.out,
            suite_id=f"paper-suite-seed{args.seed}",
            params={
                "preset": "paper",
                "count": count,
                "seed": args.seed,
                "jobs_range": list(PRESET_JOBS),
                "machines_range": list(PRESET_MACHINES),
                "speeds": PRESET_SPEEDS,
                "distributions": list(DIST_KINDS),
                "rrdd_modes": list(PRESET_RRDD),
            },
        )
        print(f"wrote {len(instances)} instances to {args.out}")
        return EXIT_OK

    missing = _require(
        args,
        ["--count", "--jobs", "--machines", "--speeds", "--dist", "--rrdd", "--seed", "--out"],
    )
    if missing:
        print(f"ejsp generate: {missing} is required", file=sys.stderr)
        return EXIT_USAGE
    tasks = args.tasks if args.tasks is not None else args.machines
    params = InstanceParams(
        count=args.count,
        jobs=args.jobs,
        machines=args.machines,
        tasks_per_job=tasks,
        speeds=args.speeds,
        dist=DistSpec(args.dist),
        rrdd=args.rrdd,
        seed=args.seed,
        base_time_range=(args.base_lo, args.base_hi),
    )
    violations = validate_params(params)
    if violations:
        for v in violations:
            print(f"ejsp generate: {v}", file=sys.stderr)
        return EXIT_USAGE
    _check_thread_setting()
    instances = generate_suite(params)
    write_suite(instances, args.out, suite_id=f"suite-seed{args.seed}", params=params)
    print(f"wrote {len(instances)} instances to {args.out}")
    return EXIT_OK


def _preset_instances(seed: int, count: int):
    """The benchmark preset: per-instance shapes drawn from one meta stream,
    then each original expanded into its three speed variants."""
    meta = make_stream(seed, PRESET_META_INDEX)
    per_instance = []
    for q in range(count):
        jobs = sample_int_range(meta, *PRESET_JOBS)
        machines = sample_int_range(meta, *PRESET_MACHINES)
        kind = DIST_KINDS[sample_int_range(meta, 0, len(DIST_KINDS) - 1)]
        rrdd = PRESET_RRDD[sample_int_range(meta, 0, len(PRESET_RRDD) - 1)]
        per_instance.append(
            InstanceParams(
                count=count,
                jobs=jobs,
                machines=machines,
                tasks_per_job=machines,
                speeds=PRESET_SPEEDS,
                dist=DistSpec(kind),
                rrdd=rrdd,
                seed=seed,
            )
        )

    return [
        inst
        for q, params in enumerate(per_instance)
        for inst in paper_variants(generate_instance(params, q))
    ]


def _cmd_derive(args) -> int:
    files = _expand_inputs(args.inputs)
    subset = None
    if args.variants == "project":
        if not args.subset:
            print("ejsp derive: --subset is required for project", file=sys.stderr)
            return EXIT_USAGE
        try:
            subset = tuple(int(tok) for tok in args.subset.split(","))
        except ValueError:
            print(f"ejsp derive: bad --subset {args.subset!r}", file=sys.stderr)
            return EXIT_USAGE

    derived = []
    for path in files:
        try:
            instance = read_instance_file(path)
        except (ParseError, ValidationError) as exc:
            print(f"ejsp derive: {path}: {exc}", file=sys.stderr)
            return EXIT_FAILURES
        try:
            if args.variants == "paper":
                derived.extend(paper_variants(instance))
            elif args.variants == "relax":
                derived.append(relax_dates(instance))
            else:
                derived.append(project_speeds(instance, subset))
        except ValueError as exc:
            print(f"ejsp derive: {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        write_suite(derived, args.out, suite_id=f"derived-{args.variants}")
    except ValueError as exc:  # two inputs map to one file name; nothing written
        print(f"ejsp derive: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {len(derived)} instances to {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    files = _expand_inputs(args.inputs)
    failures = 0
    for path in files:
        try:
            read_instance_file(path)  # parses and validates
        except ParseError as exc:
            print(f"{path}: {exc}")
            failures += 1
            continue
        except ValidationError as exc:
            for violation in exc.violations:
                print(f"{path}: {violation}")
            failures += 1
    print(f"{len(files) - failures}/{len(files)} files valid", file=sys.stderr)
    return EXIT_FAILURES if failures else EXIT_OK


def _read_all(files: list[Path]) -> list:
    instances = []
    for path in files:
        try:
            instances.append(read_instance_file(path))
        except (ParseError, ValidationError) as exc:
            raise SystemExit(f"ejsp: {path}: {exc}")
    return instances


def _cmd_stats(args) -> int:
    files = _expand_inputs(args.inputs)
    instances = _read_all(files)
    rows, summary = suite_stats(instances)
    columns = [
        "file",
        "index",
        "variant",
        "jobs",
        "machines",
        "tasks",
        "speeds",
        "dist",
        "rrdd",
        "median_base",
        "total_work",
    ]
    out = sys.stdout
    out.write(",".join(columns) + "\n")
    for path, row in zip(files, rows):
        out.write(",".join([path.name] + [str(row[c]) for c in columns[1:]]) + "\n")
    for label in ("min", "max"):
        pick = 0 if label == "min" else 1
        cells = [label]
        for col in columns[1:]:
            cells.append(str(summary[col][pick]) if col in summary else "")
        out.write(",".join(cells) + "\n")
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.budget < 0:
        print("ejsp solve: --budget must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    files = _expand_inputs(args.inputs)
    instances = _read_all(files)
    config = SolverConfig(rule=args.rule, speed_policy=args.speed_policy)
    out = sys.stdout
    out.write(
        "file,index,variant,rule,speed_policy,budget,makespan,total_energy,total_tardiness\n"
    )
    for path, instance in zip(files, instances):
        schedule = dispatch(instance, config)
        if args.budget:
            schedule = improve(instance, schedule, args.budget)
        report = objectives(instance, schedule)
        meta = instance.metadata
        out.write(
            f"{path.name},{meta.instance_index},{meta.variant_tag},"
            f"{config.rule},{config.speed_policy},{args.budget},"
            f"{report.makespan},{report.total_energy},{report.total_tardiness}\n"
        )
    return EXIT_OK


def _cmd_curves(args) -> int:
    energy_path, time_path = write_curves(args.out)
    print(f"wrote {energy_path}")
    print(f"wrote {time_path}")
    return EXIT_OK


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "generate": _cmd_generate,
        "derive": _cmd_derive,
        "validate": _cmd_validate,
        "stats": _cmd_stats,
        "solve": _cmd_solve,
        "curves": _cmd_curves,
    }
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        return int(exc.code or 0)
    except OSError as exc:
        print(f"ejsp: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
