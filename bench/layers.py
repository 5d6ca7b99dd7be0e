"""Per-layer numbers for the traced run.

The traced run replays a round's work by calling each ejsp module's public
functions directly, in the order the `ejsp` commands call them, and times
every call from here; nothing inside the program is instrumented. The
replay's output files must carry the same digests as the commands' files,
and its schedules are checked with the benchmark's own code against the rows
`ejsp solve` printed. The tracing overhead is the number of timed calls times
the measured cost of one timer pair, against the untraced commands' time: one
replay against one round of commands would only measure the machine's drift.

Spans are keyed by (stage, layer). The stages "generate", "derive",
"validate" and "solve" hold the calls the matching command makes, so a
command's self time is its untraced time minus its stage's spans. Stage
"probe" holds calls made only to measure a layer: writing each instance once
more on its own, validating each read instance once more, the random draws
of the workload's shapes, and layers a workload's commands never reach
(relaxing on paper-suite and solve, the standard variants and a one-move
improve on many-small, a one-move improve on paper-suite).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import checks
from checks import require
from workloads import ManySmall, PaperSuite, SolveShapes, Workload, solve_inputs

from ejsp.evaluate import objectives, validate_instance
from ejsp.generator import generate_base_times, generate_instance, generate_job_routes
from ejsp.io import read_instance, write_instance, write_suite
from ejsp.model import DistSpec, InstanceParams
from ejsp.rng import make_stream
from ejsp.solver import SolverConfig, dispatch, improve
from ejsp.speed import scale_task
from ejsp.variants import paper_variants, relax_dates

MB = 1e6
PROBE_SMALL = 200  # many-small instances given the probes a command never makes


class Spans:
    """Busy time per (stage, layer), work per layer, and the timed calls."""

    def __init__(self):
        self.calls = 0
        self.busy: dict[tuple[str, str], float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)

    def call(self, stage: str, layer: str, fn, *args):
        self.calls += 1
        t0 = perf_counter()
        out = fn(*args)
        self.busy[(stage, layer)] += perf_counter() - t0
        return out

    def count(self, key: str, n: int) -> None:
        self.work[key] += n

    def layer(self, layer: str) -> float:
        return sum(v for (_, name), v in self.busy.items() if name == layer)

    def stage(self, stage: str) -> float:
        return sum(v for (name, _), v in self.busy.items() if name == stage)


def tasks_of(instance) -> int:
    return instance.n_jobs * instance.n_tasks_per_job


class Replay:
    """One replay of a workload's round into directory `d`."""

    def __init__(self, w: Workload, d: Path, spans: Spans):
        self.w, self.d, self.spans = w, d, spans
        self.written: list[list] = []  # instances of each write_suite call
        # (file relative to d, (solve, row) or None for a probe, dispatched, solved)
        self.schedules: list[tuple[str, object, object, object]] = []
        self.cache = [0, 0]  # scale_task hits and misses inside generate_instance

    def run(self) -> None:
        self.make()
        self.validate()
        self.solve()
        for instances in self.written:
            for inst in instances:
                data = self.spans.call("probe", "io.write_instance", write_instance, inst)
                self.spans.count("io.write_instance", len(data))

    def generate(self, params: InstanceParams, q: int):
        before = scale_task.cache_info()
        inst = self.spans.call("generate", "generator.generate_instance", generate_instance, params, q)
        after = scale_task.cache_info()
        self.cache[0] += after.hits - before.hits
        self.cache[1] += after.misses - before.misses
        self.spans.count("generator.generate_instance", tasks_of(inst))
        return inst

    def write(self, stage: str, instances: list, suite: str) -> None:
        self.spans.call(stage, "io.write_suite", write_suite, instances, self.d / suite, suite)
        self.spans.count("io.write_suite", 1)
        self.written.append(instances)

    def read(self, stage: str, path: Path):
        data = path.read_bytes()
        inst = self.spans.call(stage, "io.read_instance", read_instance, data)
        self.spans.count("io.read_instance", len(data))
        self.spans.call("probe", "evaluate.validate_instance", validate_instance, inst)
        self.spans.count("evaluate.validate_instance", tasks_of(inst))
        return inst

    def relax(self, stage: str, inst):
        out = self.spans.call(stage, "variants.relax_dates", relax_dates, inst)
        self.spans.count("variants.relax_dates", tasks_of(inst))
        return out

    def variants(self, stage: str, inst) -> list:
        out = self.spans.call(stage, "variants.paper_variants", paper_variants, inst)
        self.spans.count("variants.paper_variants", tasks_of(inst))
        return out

    def improve_probe(self, inst, file: str) -> None:
        start = dispatch(inst, SolverConfig())
        solved = self.spans.call("probe", "solver.improve", improve, inst, start, 1)
        self.spans.count("solver.improve", 1)
        self.schedules.append((file, None, start, solved))

    def draws(self, shapes: list[tuple[int, int, int, tuple[int, int]]]) -> None:
        """Routes and base times of instance q's stream, as generation draws them."""
        for q, jobs, machines, bases in shapes:
            stream = make_stream(self.w.seed, q)
            self.spans.call("probe", "rng", generate_job_routes, stream, jobs, machines, machines)
            self.spans.call("probe", "rng", generate_base_times, stream, jobs, machines, bases)
            self.spans.count("rng", 2 * jobs * machines)

    def make(self) -> None:
        raise NotImplementedError

    def validate(self) -> None:
        for suite in self.w.suites:
            for entry in json.loads((self.d / suite / "manifest.json").read_bytes())["entries"]:
                self.read("validate", self.d / suite / entry["file"])

    def solve(self) -> None:
        for k, solve in enumerate(self.w.solves()):
            config = SolverConfig(rule=solve.rule, speed_policy=solve.policy)
            for i, path in enumerate(solve_inputs(self.d, solve)):
                inst = self.read("solve", path)
                start = self.spans.call("solve", "solver.dispatch", dispatch, inst, config)
                self.spans.count("solver.dispatch", tasks_of(inst))
                solved = start
                if solve.budget:
                    solved = self.spans.call("solve", "solver.improve", improve, inst, start, solve.budget)
                    self.spans.count("solver.improve", 1)
                self.spans.call("solve", "evaluate.objectives", objectives, inst, solved)
                self.spans.count("evaluate.objectives", 1)
                self.schedules.append((str(path.relative_to(self.d)), (k, i), start, solved))


class PaperSuiteReplay(Replay):
    def make(self) -> None:
        w = self.w
        made = []
        for q, s in enumerate(w.shapes):
            params = InstanceParams(
                count=w.count, jobs=s.jobs, machines=s.machines, tasks_per_job=s.machines,
                speeds=5, dist=DistSpec(s.dist), rrdd=s.rrdd, seed=w.seed,
            )
            made += self.variants("generate", self.generate(params, q))
        self.write("generate", made, "suite")
        for inst in made[::3]:
            self.relax("probe", inst)
        smallest = min(range(w.count), key=lambda q: w.shapes[q].jobs ** 2 * w.shapes[q].machines)
        self.improve_probe(made[3 * smallest], f"suite/inst_{smallest:04d}_orig.ejsp")
        self.draws([(q, s.jobs, s.machines, (1, 100)) for q, s in enumerate(w.shapes)])


class ManySmallReplay(Replay):
    def params(self, speeds: int) -> InstanceParams:
        w = self.w
        return InstanceParams(
            count=w.COUNT, jobs=w.JOBS, machines=w.MACHINES, tasks_per_job=w.MACHINES,
            speeds=speeds, dist=DistSpec("exponential"), rrdd="loose", seed=w.seed, base_time_range=w.BASES,
        )

    def make(self) -> None:
        w = self.w
        params = self.params(w.SPEEDS)
        made = [self.generate(params, q) for q in range(w.COUNT)]
        self.write("generate", made, "orig")
        entries = json.loads((self.d / "orig" / "manifest.json").read_bytes())["entries"]
        relaxed = [self.relax("derive", self.read("derive", self.d / "orig" / e["file"])) for e in entries]
        self.write("derive", relaxed, "relaxed")
        five = self.params(5)
        for q in range(PROBE_SMALL):
            self.variants("probe", generate_instance(five, q))
            self.improve_probe(made[q], f"orig/inst_{q:04d}_orig.ejsp")
        self.draws([(q, w.JOBS, w.MACHINES, w.BASES) for q in range(w.COUNT)])


class SolveReplay(Replay):
    def make(self) -> None:
        w = self.w
        shapes = []
        for suite, (jobs, machines, n) in w.SHAPES.items():
            params = InstanceParams(
                count=n, jobs=jobs, machines=machines, tasks_per_job=machines, speeds=5,
                dist=DistSpec("uniform"), rrdd="tight", seed=w.seed,
            )
            made = [self.generate(params, q) for q in range(n)]
            self.write("generate", made, suite)
            for inst in made:
                self.relax("probe", inst)
                self.variants("probe", inst)
            shapes += [(q, jobs, machines, (1, 100)) for q in range(n)]
        self.draws(shapes)


REPLAYS = {PaperSuite: PaperSuiteReplay, ManySmall: ManySmallReplay, SolveShapes: SolveReplay}


def replay(w: Workload, d: Path) -> Replay:
    r = REPLAYS[type(w)](w, d, Spans())
    r.run()
    return r


def span_cost(n: int = 100_000) -> float:
    """Seconds a timed call costs more than a direct one, on a no-op."""
    def noop():
        return None

    spans = Spans()
    t0 = perf_counter()
    for _ in range(n):
        noop()
    t1 = perf_counter()
    for _ in range(n):
        spans.call("", "", noop)
    t2 = perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / n


def check_replay(r: Replay, first: dict) -> int:
    """The replay wrote the bytes the commands wrote, and every schedule it
    made is feasible and matches the row `ejsp solve` printed; returns the
    makespan its improve calls gained over their dispatch schedules."""
    for suite, data in first["manifests"].items():
        want = [(e["file"], e["sha256"]) for e in json.loads(data)["entries"]]
        got = [(e["file"], e["sha256"]) for e in json.loads((r.d / suite / "manifest.json").read_bytes())["entries"]]
        require(got == want, f"replay of {suite} wrote other bytes than the command")
    parsed: dict[str, checks.EjspFile] = {}
    gain = 0
    for file, where, start, solved in r.schedules:
        if file not in parsed:
            parsed[file] = checks.read_ejsp(r.d / file)
        f = parsed[file]
        makespan = checks.check_schedule(f, start.entries)[0]
        got = checks.check_schedule(f, solved.entries)
        if where is not None:
            row = first["solve_rows"][where[0]][where[1]]
            want = (row["makespan"], row["total_energy"], row["total_tardiness"])
            require(got == want, f"replay solve {file}: schedule gives {got}, the row says {want}")
        if solved is not start:
            require(got[0] <= makespan, f"replay improve {file}: makespan {got[0]} above dispatch {makespan}")
            gain += makespan - got[0]
    return gain


def unit(name: str) -> str:
    for suffix, u in ((".mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_s", "s"), (".bytes", "bytes"),
                      (".hit_ratio", "ratio"), ("_pct", "%"), (".makespan_gain", "time_units")):
        if name.endswith(suffix):
            return u
    return "count"


def metrics(r: Replay, cli: dict[str, float], untraced_s: float, gain: int) -> dict[str, float]:
    """Per-layer metrics of a replay (BENCHMARK.json's per_layer list); `cli`
    holds the untraced time of each command kind, `untraced_s` their total."""
    s = r.spans
    busy, work = s.layer, s.work

    def rate(layer: str, scale: float = 1.0) -> float:
        return work[layer] / scale / busy(layer) if busy(layer) else 0.0

    hits, misses = r.cache
    out = {
        "rng.draws_per_s": rate("rng"),
        "rng.draws": work["rng"],
        "speed.scale_task.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "speed.scale_task.calls": hits + misses,
    }
    for layer, kind in (
        ("generator.generate_instance", "tasks"), ("variants.paper_variants", "tasks"),
        ("variants.relax_dates", "tasks"), ("io.write_instance", "bytes"), ("io.read_instance", "bytes"),
        ("evaluate.validate_instance", "tasks"), ("evaluate.objectives", "calls"), ("solver.dispatch", "tasks"),
    ):
        name = {"tasks": "tasks_per_s", "calls": "calls_per_s", "bytes": "mb_per_s"}[kind]
        out[f"{layer}.{name}"] = rate(layer, MB if kind == "bytes" else 1.0)
        out[f"{layer}.{kind}"] = work[layer]
        out[f"{layer}.busy_s"] = busy(layer)
    out.update({
        "io.write_suite.self_s": busy("io.write_suite") - busy("io.write_instance"),
        "io.write_suite.calls": work["io.write_suite"],
        "io.parse.self_s": busy("io.read_instance") - busy("evaluate.validate_instance"),
        "solver.improve.busy_s": busy("solver.improve"),
        "solver.improve.calls": work["solver.improve"],
        "solver.improve.makespan_gain": gain,
        "cli.generate.self_s": cli["generate"] - s.stage("generate"),
        "cli.validate.self_s": cli["validate"] - s.stage("validate"),
        "cli.solve.self_s": cli["solve"] - s.stage("solve"),
        "trace.overhead_pct": 100.0 * s.calls * span_cost() / untraced_s,
    })
    return out
