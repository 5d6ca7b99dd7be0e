"""End-to-end command behavior: exit codes, determinism, output shapes."""

import filecmp

from ejsp.cli import run_cli
from ejsp.io import read_suite, write_instance
from ejsp.generator import generate_instance
from ejsp.model import DistSpec, InstanceParams, TaskSpec


def gen_args(out, count=4, seed="42", **extra):
    args = [
        "generate",
        "--count", str(count),
        "--jobs", "4",
        "--machines", "3",
        "--tasks", "3",
        "--speeds", "5",
        "--dist", "uniform",
        "--rrdd", "loose",
        "--seed", seed,
        "--out", str(out),
    ]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    return args


def trees_equal(a, b):
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


class TestGenerate:
    def test_writes_suite(self, tmp_path, capsys):
        assert run_cli(gen_args(tmp_path / "d")) == 0
        files = sorted(p.name for p in (tmp_path / "d").iterdir())
        assert "manifest.json" in files
        assert len([n for n in files if n.endswith(".ejsp")]) == 4
        assert "4 instances" in capsys.readouterr().out

    def test_tasks_exceed_machines_is_usage_error(self, tmp_path, capsys):
        args = gen_args(tmp_path / "d")
        args[args.index("--tasks") + 1] = "5"
        assert run_cli(args) == 2
        assert "tasks_per_job" in capsys.readouterr().err

    def test_missing_flag_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["generate", "--count", "1", "--out", str(tmp_path)]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, tmp_path):
        assert run_cli(gen_args(tmp_path / "d") + ["--frobnicate"]) == 2

    def test_bad_enum_rejected(self, tmp_path):
        args = gen_args(tmp_path / "d")
        args[args.index("--dist") + 1] = "zipf"
        assert run_cli(args) == 2

    def test_byte_identical_reruns(self, tmp_path):
        assert run_cli(gen_args(tmp_path / "a")) == 0
        assert run_cli(gen_args(tmp_path / "b")) == 0
        assert trees_equal(tmp_path / "a", tmp_path / "b")

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EJSP_THREADS", "1")
        assert run_cli(gen_args(tmp_path / "a", count=6)) == 0
        monkeypatch.setenv("EJSP_THREADS", "4")
        assert run_cli(gen_args(tmp_path / "b", count=6)) == 0
        assert trees_equal(tmp_path / "a", tmp_path / "b")

    def test_smaller_suite_refused_over_larger(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli(gen_args(out, count=6, seed="1")) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run_cli(gen_args(out, count=3, seed="9")) == 2
        err = capsys.readouterr().err
        assert err.startswith("ejsp: ") and "inst_0003_orig.ejsp" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert run_cli(gen_args(out, count=6, seed="1")) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_invalid_thread_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EJSP_THREADS", "lots")
        assert run_cli(gen_args(tmp_path / "d")) == 2
        assert "EJSP_THREADS" in capsys.readouterr().err

    def test_tasks_default_to_machines(self, tmp_path):
        args = gen_args(tmp_path / "d")
        i = args.index("--tasks")
        del args[i : i + 2]
        assert run_cli(args) == 0
        instances = read_suite(tmp_path / "d")
        assert all(inst.n_tasks_per_job == 3 for inst in instances)


class TestPaperSuite:
    def test_small_preset(self, tmp_path):
        out = tmp_path / "suite"
        rc = run_cli(
            ["generate", "--paper-suite", "--count", "4", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        instances = read_suite(out)
        assert len(instances) == 12  # 4 originals x 3 variants
        by_variant = {}
        for inst in instances:
            by_variant.setdefault(inst.metadata.variant_tag, []).append(inst)
        assert sorted(by_variant) == ["orig", "s1-3-5", "s3"]
        for inst in by_variant["orig"]:
            assert 30 <= inst.n_jobs <= 250
            assert 3 <= inst.machines <= 20
            assert inst.n_speeds == 5
            assert inst.n_tasks_per_job == inst.machines

    def test_preset_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            args = ["generate", "--paper-suite", "--count", "3", "--seed", "9", "--out", str(out)]
            assert run_cli(args) == 0
        assert trees_equal(a, b)


class TestDerive:
    def make_inputs(self, tmp_path, speeds=5):
        p = InstanceParams(
            count=2, jobs=3, machines=3, tasks_per_job=3, speeds=speeds,
            dist=DistSpec("uniform"), rrdd="tight", seed=4,
        )
        src = tmp_path / "src"
        src.mkdir()
        for q in range(2):
            inst = generate_instance(p, q)
            (src / f"inst_{q:04d}_orig.ejsp").write_bytes(write_instance(inst))
        return src

    def test_paper_variants(self, tmp_path):
        src = self.make_inputs(tmp_path)
        out = tmp_path / "out"
        rc = run_cli(["derive", "--variants", "paper", "--in", str(src), "--out", str(out)])
        assert rc == 0
        assert len(read_suite(out)) == 6

    def test_relax(self, tmp_path):
        src = self.make_inputs(tmp_path)
        out = tmp_path / "out"
        assert run_cli(["derive", "--variants", "relax", "--in", str(src), "--out", str(out)]) == 0
        for inst in read_suite(out):
            assert all(t.release == 0 and t.due is None for t in inst.iter_tasks())

    def test_project(self, tmp_path):
        src = self.make_inputs(tmp_path)
        out = tmp_path / "out"
        rc = run_cli(
            ["derive", "--variants", "project", "--subset", "0,2", "--in", str(src), "--out", str(out)]
        )
        assert rc == 0
        assert all(inst.n_speeds == 2 for inst in read_suite(out))

    def test_project_requires_subset(self, tmp_path, capsys):
        src = self.make_inputs(tmp_path)
        rc = run_cli(["derive", "--variants", "project", "--in", str(src), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--subset" in capsys.readouterr().err

    def test_paper_rejects_non_five_speed(self, tmp_path, capsys):
        src = self.make_inputs(tmp_path, speeds=3)
        rc = run_cli(["derive", "--variants", "paper", "--in", str(src), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ".ejsp" in capsys.readouterr().err

    def test_missing_input(self, tmp_path, capsys):
        rc = run_cli(
            ["derive", "--variants", "relax", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_same_input_twice_is_usage_error(self, tmp_path, capsys):
        src = self.make_inputs(tmp_path)
        one = str(next(src.glob("*.ejsp")))
        out = tmp_path / "o"
        rc = run_cli(["derive", "--variants", "relax", "--in", one, one, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("ejsp derive: ")
        assert "duplicate instance file name inst_0000_relaxed.ejsp" in err
        assert not out.exists()


class TestValidate:
    def test_valid_files(self, tmp_path):
        assert run_cli(gen_args(tmp_path / "d", count=2)) == 0
        assert run_cli(["validate", str(tmp_path / "d")]) == 0

    def test_corrupted_file(self, tmp_path, capsys):
        assert run_cli(gen_args(tmp_path / "d", count=1)) == 0
        target = next((tmp_path / "d").glob("*.ejsp"))
        text = target.read_text()
        target.write_text(text.replace("jobs 4", "jobs nope", 1))
        assert run_cli(["validate", str(target)]) == 1
        out = capsys.readouterr().out
        assert target.name in out

    def test_non_ascii_byte_is_reported(self, tmp_path, capsys):
        assert run_cli(gen_args(tmp_path / "d", count=1)) == 0
        target = next((tmp_path / "d").glob("*.ejsp"))
        lines = target.read_bytes().split(b"\n")
        lines[14] = lines[14][:3] + b"\xff" + lines[14][3:]
        target.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert run_cli(["validate", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"{target}: line 15: non-ASCII byte 0xff\n"
        assert "0/1 files valid" in captured.err

    def test_invariant_breach(self, tmp_path, capsys):
        assert run_cli(gen_args(tmp_path / "d", count=1)) == 0
        target = next((tmp_path / "d").glob("*.ejsp"))
        lines = target.read_text().splitlines()
        parts = lines[12].split()
        parts[6], parts[10] = parts[10], parts[6]  # break time monotonicity
        lines[12] = " ".join(parts)
        target.write_text("\n".join(lines) + "\n")
        assert run_cli(["validate", str(target)]) == 1
        assert "monotonicity" in capsys.readouterr().out


class TestStats:
    def test_csv_shape(self, tmp_path, capsys):
        assert run_cli(gen_args(tmp_path / "d", count=3)) == 0
        capsys.readouterr()
        assert run_cli(["stats", str(tmp_path / "d")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("file,index,variant,jobs,machines")
        assert len(lines) == 1 + 3 + 2  # header, rows, min/max
        assert lines[-2].startswith("min,")
        assert lines[-1].startswith("max,")


class TestSolve:
    def test_csv_report(self, tmp_path, capsys):
        assert run_cli(gen_args(tmp_path / "d", count=2)) == 0
        capsys.readouterr()
        rc = run_cli(
            ["solve", str(tmp_path / "d"), "--rule", "spt", "--speed-policy", "fastest", "--budget", "3"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("file,index,variant,rule")
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[3] == "spt"
            assert int(cells[6]) > 0  # makespan

    def test_budget_never_worsens_at_100x10(self, tmp_path, capsys):
        args = gen_args(tmp_path / "d", count=1)
        args[args.index("--jobs") + 1] = "100"
        args[args.index("--machines") + 1] = "10"
        args[args.index("--tasks") + 1] = "10"
        assert run_cli(args) == 0
        rows = {}
        for budget in ("0", "3"):
            for rule in ("fifo", "spt", "edd"):
                capsys.readouterr()
                assert run_cli(["solve", str(tmp_path / "d"), "--rule", rule, "--budget", budget]) == 0
                lines = capsys.readouterr().out.splitlines()
                assert len(lines) == 2
                rows[(budget, rule)] = lines[1].split(",")
        for rule in ("fifo", "spt", "edd"):
            assert rows[("3", rule)][5] == "3"
            assert int(rows[("3", rule)][6]) <= int(rows[("0", rule)][6])

    def test_negative_budget_rejected(self, tmp_path):
        assert run_cli(gen_args(tmp_path / "d", count=1)) == 0
        assert run_cli(["solve", str(tmp_path / "d"), "--budget", "-1"]) == 2


class TestColumnarPaths:
    def test_commands_build_no_task_views(self, tmp_path, monkeypatch, capsys):
        built = []
        new = TaskSpec.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(TaskSpec, "__new__", staticmethod(counted))
        d = tmp_path
        undated = gen_args(d / "n", count=2, seed="7")
        undated[undated.index("--rrdd") + 1] = "none"
        commands = [
            ["generate", "--paper-suite", "--count", "2", "--seed", "5", "--out", str(d / "p")],
            gen_args(d / "g", count=3),
            undated,
            ["derive", "--variants", "relax", "--in", str(d / "g"), "--out", str(d / "r")],
            ["derive", "--variants", "paper", "--in", str(d / "n"), "--out", str(d / "v")],
            ["derive", "--variants", "project", "--subset", "0,2",
             "--in", str(d / "g"), "--out", str(d / "s")],
            ["validate", *(str(d / x) for x in "pgnrvs")],
            ["solve", str(d / "p"), str(d / "g"), "--rule", "edd", "--speed-policy", "reference"],
            ["solve", str(d / "g"), str(d / "n"), "--rule", "spt", "--budget", "2"],
        ]
        for argv in commands:
            assert run_cli(argv) == 0, argv
        assert built == []
        # the counter sees the views the commands do not build
        read_suite(d / "g")[0].jobs
        assert len(built) == 12


class TestCurves:
    def test_row_counts_and_spot_value(self, tmp_path):
        out = tmp_path / "curves"
        assert run_cli(["curves", "--out", str(out)]) == 0
        energy = (out / "energy_percentage.csv").read_text().splitlines()
        time = (out / "time_fraction.csv").read_text().splitlines()
        assert len(energy) == 102 and len(time) == 252
        assert energy[0] == "x,value"
        assert "100,36" in energy


class TestUsage:
    def test_no_command(self):
        assert run_cli([]) == 2

    def test_unknown_command(self):
        assert run_cli(["transmogrify"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "generate" in capsys.readouterr().out
