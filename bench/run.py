"""Benchmark of the `ejsp` commands: make, validate and solve, end to end.

    python3 bench/run.py                       # every workload, each in its own process
    python3 bench/run.py --workload paper-suite --seed 3 --seconds 25 --trace 0

One workload runs in this process. It times fresh interpreters importing
`ejsp.cli` (setup), then runs whole rounds of the workload's commands through
`ejsp.cli.run_cli`, each round into a fresh directory, until the next round
would end past `--seconds` of measured command time (at least three rounds).
It checks every round's outputs with the benchmark's own code (see
checks.py) and prints, as its last line, one JSON object with `correct`,
`attempted`, `failed` and the metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics (see layers.py) with `--trace 1`. A
human-readable summary, with the raw medians, goes to stderr.

The end-to-end times are scaled to the reference speed. A fixed pure-Python
calibration pass is timed right before and right after every command, each
command's time is divided by the mean of its two passes over
CALIBRATION_REF_S, and the stage medians are taken over the scaled rounds;
setup is divided by the run's mean pass. The machine this was built on runs
the same work up to 40% slower from one minute to the next, and the commands
and the calibration slow down together. Unscaled, the spread of a metric
across runs of the same code reached 0.45; scaled, it stayed near 0.1.

The program is imported from `src/` next to this directory; EJSP_THREADS is
removed from the environment so that the program runs at its default
parallelism. Nothing outside the checkout is read or written: rounds write
under `bench/out/`, which is removed at the end.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, CheckFailed, Result, check_repeat

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_ROUNDS = 3
SETUP_PER_SLOT = 2  # fresh interpreters timed before the first round and after each round
CALIBRATION_REF_S = 0.02  # one calibration pass at the reference speed (2 vCPU, CPython 3.11.7)
END_TO_END = {"setup_s": "s", "make_s": "s", "validate_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_env() -> dict:
    env = dict(os.environ)
    env.pop("EJSP_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def time_setup(n: int) -> list[float]:
    """Wall time of `n` fresh interpreters, each up to `ejsp.cli` imported."""
    env = setup_env()
    samples = []
    for _ in range(n):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import ejsp.cli"], env=env, cwd=ROOT, check=True)
        samples.append(perf_counter() - t0)
    return samples


def calibration_s() -> float:
    """Wall time of one fixed pure-Python pass over the kinds of work the
    commands do: tuples, dicts, string formatting and integer parsing."""
    t0 = perf_counter()
    seen = {}
    for i in range(10_000):
        row = (i, i * 7919 % 100, i % 13)
        text = " ".join(map(str, row))
        seen[text] = tuple(map(int, text.split(" ")))
    return perf_counter() - t0


def run_command(run_cli, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run_cli(argv)
        except Exception:  # a crash is a failed operation, reported with its traceback
            traceback.print_exc()
            code = -1
    return Result(argv, code, out.getvalue(), err.getvalue(), perf_counter() - t0)


def run_round(run_cli, workload, d: Path, calibration: list[float]) -> tuple[dict, dict]:
    """The round's commands by stage, and each stage's time scaled to the
    reference speed: every command's time is divided by the mean of the
    calibration passes timed right before and right after it, over
    CALIBRATION_REF_S. The passes are appended to `calibration`."""
    gc.collect()  # each round starts from a clean heap, as a fresh command would
    results, scaled = {}, {}
    for stage, commands in workload.stages(d).items():
        results[stage], scaled[stage] = [], 0.0
        for argv in commands:
            before = calibration_s()
            result = run_command(run_cli, argv)
            after = calibration_s()
            calibration += [before, after]
            results[stage].append(result)
            scaled[stage] += result.seconds * 2 * CALIBRATION_REF_S / (before + after)
    return results, scaled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def report(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def run_workload(args) -> int:
    if not (SRC / "ejsp" / "cli.py").is_file():
        print(f"bench: no ejsp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("EJSP_THREADS", None)
    from ejsp.cli import run_cli

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    work = OUT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            return traced_run(run_cli, workload, work)
        setup = time_setup(SETUP_PER_SLOT)
        calibration: list[float] = []
        rounds: list[dict[str, float]] = []  # raw stage times
        scaled_rounds: list[dict[str, float]] = []
        attempted = failed = 0
        first = None
        faults: list[str] = []  # wrong outputs of commands that succeeded
        while True:
            d = work / f"round{len(rounds)}"
            results, scaled = run_round(run_cli, workload, d, calibration)
            commands = [r for stage in results.values() for r in stage]
            attempted += len(commands)
            failed += sum(r.code != 0 for r in commands)
            for r in commands:
                if r.code != 0:
                    print(f"FAILED exit {r.code}: ejsp {' '.join(r.argv)}\n{r.err}", file=sys.stderr)
            if not failed:
                try:
                    kept = workload.check_round(d, results, full=first is None)
                    if first is None:
                        first = kept
                    else:
                        check_repeat(first, kept)
                except CheckFailed as exc:
                    faults.append(f"round {len(rounds)}: {exc}")
            shutil.rmtree(d)
            rounds.append({stage: sum(r.seconds for r in rs) for stage, rs in results.items()})
            scaled_rounds.append(scaled)
            setup += time_setup(SETUP_PER_SLOT)
            measured = sum(sum(r.values()) for r in rounds)
            if len(rounds) >= MIN_ROUNDS and measured + sum(rounds[-1].values()) > args.seconds:
                break
        stages = ("make", "validate", "solve")
        raw = {"setup_s": statistics.median(setup), **{f"{s}_s": statistics.median(r[s] for r in rounds) for s in stages}}
        slowdown = statistics.fmean(calibration) / CALIBRATION_REF_S
        metrics = {
            "setup_s": raw["setup_s"] / slowdown,
            **{f"{s}_s": statistics.median(r[s] for r in scaled_rounds) for s in stages},
            "peak_rss_mb": peak_rss_mb(),
        }
        print(f"{workload.name} seed {args.seed}: {len(rounds)} rounds, input "
              f"{first['makeup'] if first else 'unchecked'}", file=sys.stderr)
        print(f"  raw medians: " + "  ".join(f"{k} {v:.4f}" for k, v in raw.items()) + f"  slowdown {slowdown:.4f}",
              file=sys.stderr)
        for i, r in enumerate(rounds):
            print(f"  round {i}: " + "  ".join(f"{k} {v:.3f} s" for k, v in r.items()), file=sys.stderr)
        for fault in faults:
            print(f"  WRONG {fault}", file=sys.stderr)
        report(not faults, attempted, failed, metrics, END_TO_END)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()


def traced_run(run_cli, workload, work: Path) -> int:
    """One checked round of the commands, then the timed layer replay;
    prints the per-layer metrics."""
    import layers  # imports ejsp, so only once src/ is on the path

    d = work / "commands"
    results, _ = run_round(run_cli, workload, d, [])
    commands = [r for stage in results.values() for r in stage]
    failed = [r for r in commands if r.code != 0]
    for r in failed:
        print(f"FAILED exit {r.code}: ejsp {' '.join(r.argv)}\n{r.err}", file=sys.stderr)
    if failed:
        report(True, len(commands), len(failed), {}, {})
        return 0
    cli = {
        "generate": sum(r.seconds for r in results["make"] if r.argv[0] == "generate"),
        "validate": sum(r.seconds for r in results["validate"]),
        "solve": sum(r.seconds for r in results["solve"]),
    }
    try:
        first = workload.check_round(d, results, full=True)
        shutil.rmtree(d)
        gc.collect()
        traced = layers.replay(workload, work / "replay")
        gain = layers.check_replay(traced, first)
    except CheckFailed as exc:
        print(f"WRONG {exc}", file=sys.stderr)
        report(False, len(commands), 0, {}, {})
        return 0
    metrics = layers.metrics(traced, cli, sum(r.seconds for r in commands), gain)
    print(f"{workload.name} seed {workload.seed} traced: {traced.spans.calls} timed calls, commands "
          f"{sum(r.seconds for r in commands):.3f} s, input {first['makeup']}", file=sys.stderr)
    report(True, len(commands), 0, metrics, {name: layers.unit(name) for name in metrics})
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table, then one JSON line."""
    combined: dict[str, dict] = {}
    correct, attempted, failed, code = True, 0, 0, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            code = code or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{name}: correct {result['correct']}, {result['failed']} of {result['attempted']} operations failed")
        for metric, m in result["metrics"].items():
            print(f"  {metric:44s} {m['value']:>14.6g} {m['unit']}")
            combined[f"{name}/{metric}"] = m
    if code == 0:
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
