"""Domain types: parameter validation, variant tags, distribution specs,
the columnar instance."""

import pytest

from ejsp.generator import generate_instance
from ejsp.io import read_instance, write_instance
from ejsp.model import (
    DIST_KINDS,
    MAX_SEED,
    DistSpec,
    Instance,
    InstanceParams,
    SpeedGrid,
    TaskSpec,
    round6,
    validate_dist,
    validate_params,
)
from ejsp.variants import project_speeds, relax_dates

from conftest import make_metadata


def params(**overrides) -> InstanceParams:
    base = dict(
        count=10,
        jobs=30,
        machines=3,
        tasks_per_job=3,
        speeds=5,
        dist=DistSpec("uniform"),
        rrdd="loose",
        seed=42,
    )
    base.update(overrides)
    return InstanceParams(**base)


class TestValidateParams:
    def test_valid(self):
        assert validate_params(params()) == []

    def test_tasks_exceed_machines(self):
        violations = validate_params(params(tasks_per_job=5, machines=3))
        assert any("tasks_per_job exceeds machines" in v for v in violations)

    def test_count_lower_bound(self):
        assert validate_params(params(count=0))

    def test_jobs_lower_bound(self):
        assert validate_params(params(jobs=0))

    def test_speeds_lower_bound(self):
        assert validate_params(params(speeds=0))

    def test_seed_range(self):
        assert validate_params(params(seed=-1))
        assert validate_params(params(seed=MAX_SEED + 1))
        assert validate_params(params(seed=MAX_SEED)) == []

    def test_base_time_range(self):
        violations = validate_params(params(base_time_range=(0, 10)))
        assert any("base time lower bound" in v for v in violations)
        assert validate_params(params(base_time_range=(10, 9)))
        assert validate_params(params(base_time_range=(7, 7))) == []

    def test_unknown_rrdd(self):
        assert validate_params(params(rrdd="sometimes"))

    def test_unknown_dist(self):
        assert validate_params(params(dist=DistSpec("weibull")))


class TestValidateDist:
    def test_known_kinds(self):
        assert DIST_KINDS == ("exponential", "gaussian", "uniform")
        for kind in DIST_KINDS:
            assert validate_dist(DistSpec(kind)) == []

    def test_foreign_parameter(self):
        assert validate_dist(DistSpec("exponential", mu=1.0))
        assert validate_dist(DistSpec("uniform", lam=1.0))

    def test_bad_values(self):
        assert validate_dist(DistSpec("exponential", lam=0.0))
        assert validate_dist(DistSpec("gaussian", mu=0.0, sigma=-1.0))
        assert validate_dist(DistSpec("uniform", a=2.0, b=2.0))

    def test_params_listing(self):
        dist = DistSpec("gaussian", mu=1.5, sigma=0.5)
        assert dist.params() == (("mu", 1.5), ("sigma", 0.5))
        assert DistSpec("uniform").params() == ()


class TestVariantTag:
    def test_original(self):
        assert make_metadata().variant_tag == "orig"

    def test_relaxed(self):
        assert make_metadata(dates_relaxed=True).variant_tag == "relaxed"

    def test_speed_subset_uses_one_based_ordinals(self):
        assert make_metadata(speed_subset=(0, 2, 4)).variant_tag == "s1-3-5"
        assert make_metadata(speed_subset=(2,)).variant_tag == "s3"

    def test_combined(self):
        meta = make_metadata(dates_relaxed=True, speed_subset=(2,))
        assert meta.variant_tag == "relaxed+s3"


class TestSpeedGrid:
    def test_reference_index_prefers_lower_on_tie(self):
        grid = SpeedGrid(multipliers=(0.5, 1.5))  # both 0.5 away from 1.0
        assert grid.reference_index == 0

    def test_len(self):
        assert len(SpeedGrid(multipliers=(1.0, 2.0))) == 2


class TestRound6:
    def test_exact_at_six_decimals(self):
        assert round6(0.1234564999) == 0.123456
        assert round6(75.5) == 75.5

    def test_idempotent(self):
        for v in (0.1, 1 / 3, 123.456789012):
            assert round6(round6(v)) == round6(v)


class TestTaskSpec:
    def instance(self):
        return generate_instance(params(count=1, jobs=3, speeds=5), 0)

    def test_every_builder_yields_taskspecs(self):
        inst = self.instance()
        built = {
            "generate_instance": inst,
            "read_instance": read_instance(write_instance(inst)),
            "relax_dates": relax_dates(inst),
            "project_speeds": project_speeds(inst, (0, 2, 4)),
        }
        for name, made in built.items():
            kinds = {type(task) for task in made.iter_tasks()}
            assert kinds == {TaskSpec}, name

    @pytest.mark.parametrize("field", TaskSpec._fields)
    def test_fields_cannot_be_set(self, field):
        task = self.instance().jobs[0][0]
        with pytest.raises(AttributeError):
            setattr(task, field, 0)

    def test_keyword_and_positional_construction_agree(self):
        fields = (1, 2, 0, 7, (9, 5), (4, 6), 3, None)
        task = TaskSpec(*fields)
        assert task == TaskSpec(**dict(zip(TaskSpec._fields, fields)))
        assert (task.job, task.position, task.due) == (1, 2, None)
        assert task == fields  # a tuple of its fields, compared as one
        assert task._replace(release=0) == (1, 2, 0, 7, (9, 5), (4, 6), 0, None)


class TestColumnarInstance:
    def test_from_jobs_builds_canonical_columns(self):
        a, b = ((9, 5), (4, 6)), ((7, 3), (5, 8))
        jobs = (
            (TaskSpec(0, 0, 1, 9, *b, 2, 40), TaskSpec(0, 1, 0, 7, *a, 2, 40)),
            (TaskSpec(1, 0, 0, 9, *b, 0, None), TaskSpec(1, 1, 1, 9, *b, 0, None)),
        )
        inst = Instance.from_jobs(jobs, 2, SpeedGrid((1.0, 2.0)), make_metadata())
        assert inst.route_lengths == (2, 2)
        assert inst.machine == (1, 0, 0, 1)
        assert inst.base_time == (9, 7, 9, 9)
        assert inst.release == (2, 2, 0, 0)
        assert inst.due == (40, 40, None, None)
        # distinct vectors once each, in row order of first use
        assert inst.vectors == (b, a)
        assert inst.vector_id == (0, 1, 0, 0)
        assert inst.jobs == jobs
        assert list(inst.iter_tasks()) == [task for route in jobs for task in route]

    def test_every_path_gives_equal_instances(self):
        made = generate_instance(params(count=1, jobs=4, speeds=5), 0)
        for inst in (made, relax_dates(made), project_speeds(made, (0, 2))):
            rebuilt = Instance.from_jobs(
                inst.jobs, inst.machines, inst.speed_multipliers, inst.metadata
            )
            assert rebuilt == inst
            assert read_instance(write_instance(rebuilt)) == inst

    def test_task_view_built_once(self):
        inst = generate_instance(params(count=1), 0)
        assert inst.jobs is inst.jobs

    @pytest.mark.parametrize("labels", [(1, 0), (0, 1)])
    def test_from_jobs_rejects_mislabelled_task(self, labels):
        task = TaskSpec(*labels, 0, 3, (3,), (5,), 0, None)
        with pytest.raises(ValueError, match="sits at job 0 position 0"):
            Instance.from_jobs(((task,),), 1, SpeedGrid((1.0,)), make_metadata())
