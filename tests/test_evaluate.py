"""Validation messages, objective arithmetic, and the brute-force oracle."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from ejsp.evaluate import (
    _speed_vector_faults,
    _vectors_valid,
    brute_force_best,
    objectives,
    suite_stats,
    validate_instance,
    validate_schedule,
)
from ejsp.generator import generate_instance
from ejsp.model import DistSpec, Instance, InstanceParams, Schedule, SpeedGrid, TaskSpec
from ejsp.solver import SolverConfig, dispatch

import io_reference
from conftest import make_instance, make_metadata


def single_chain(due=None):
    # one job, two serial tasks P=(3, 4), single speed, energies 10 and 12
    return make_instance([[(0, 3, 10, 0, due), (1, 4, 12, 0, due)]])


class TestValidateInstance:
    def test_generator_output_valid(self):
        p = InstanceParams(
            count=1, jobs=5, machines=4, tasks_per_job=4, speeds=3,
            dist=DistSpec("exponential"), rrdd="tight", seed=3,
        )
        assert validate_instance(generate_instance(p, 0)) == []

    def test_route_duplicate(self):
        inst = make_instance([[(0, 3, 5), (0, 4, 6)]])
        assert any("route duplicate" in v for v in validate_instance(inst))

    def test_energy_monotonicity(self):
        inst = make_instance([[(0, (5, 4), (9, 8))]], multipliers=(1.0, 2.0))
        assert any("energy monotonicity" in v for v in validate_instance(inst))

    def test_speed_monotonicity(self):
        inst = make_instance([[(0, (4, 5), (8, 9))]], multipliers=(1.0, 2.0))
        assert any("speed monotonicity" in v for v in validate_instance(inst))

    def test_base_time_positive(self):
        inst = make_instance([[(0, 3, 5)]])
        bad_task = inst.jobs[0][0]._replace(base_time=0)
        patched = Instance.from_jobs(
            ((bad_task,),), inst.machines, inst.speed_multipliers, inst.metadata
        )
        assert any("base time" in v for v in validate_instance(patched))

    def test_machine_out_of_range(self):
        assert validate_instance(make_instance([[(0, 3, 5)]], machines=1)) == []
        patched = make_instance([[(1, 3, 5)]], machines=1)
        assert any("machine index" in v for v in validate_instance(patched))

    def test_vector_length_mismatch(self):
        inst = make_instance([[(0, (5,), (9, 10))]], multipliers=(1.0, 2.0))
        assert any("vector length" in v for v in validate_instance(inst))

    def test_due_before_release(self):
        inst = make_instance([[(0, 3, 5, 10, 4)]])
        assert any("due before release" in v for v in validate_instance(inst))

    def test_dates_uniform_within_job(self):
        inst = make_instance([[(0, 3, 5, 0, 9), (1, 3, 5, 1, 9)]])
        assert any("not uniform" in v for v in validate_instance(inst))

    def test_shared_bad_vector_reported_per_task(self):
        # three tasks carry one increasing-times vector, one task a good one
        bad, good = ((4, 5), (8, 9)), ((5, 4), (8, 9))
        inst = make_instance(
            [
                [(0, *bad), (1, *good)],
                [(1, *bad), (0, *bad)],
            ],
            multipliers=(1.0, 2.0),
        )
        assert validate_instance(inst) == [
            "job 0 task 0: speed monotonicity violated (times increase)",
            "job 1 task 0: speed monotonicity violated (times increase)",
            "job 1 task 1: speed monotonicity violated (times increase)",
        ]

    def test_grid_must_increase(self):
        inst = make_instance([[(0, (5, 5), (9, 9))]], multipliers=(2.0, 1.0))
        assert any("strictly increasing" in v for v in validate_instance(inst))

    def test_grid_positive(self):
        inst = make_instance([[(0, 3, 5)]], multipliers=(-1.0,))
        assert any("positive" in v for v in validate_instance(inst))

    def test_bad_dist_params_reported(self):
        inst = make_instance([[(0, 3, 5)]], dist=DistSpec("exponential", lam=0.0))
        assert any("lambda" in v for v in validate_instance(inst))

    def test_columns_must_match_route_lengths(self):
        inst = make_instance([[(0, 3, 5), (1, 4, 6)]])
        assert validate_instance(inst) == []
        first, second = inst.vectors
        for patched in (
            dataclasses.replace(inst, machine=inst.machine[:1]),
            dataclasses.replace(inst, route_lengths=(3,)),
            dataclasses.replace(inst, vector_id=(0, 2)),
            # a table that is not canonical: an entry twice, entries out of
            # order of first use, an unused entry
            dataclasses.replace(inst, vectors=(first, first)),
            dataclasses.replace(inst, vector_id=(1, 0), vectors=(second, first)),
            dataclasses.replace(inst, vectors=(first, second, ((7,), (8,)))),
        ):
            assert validate_instance(patched) == [
                "task columns do not match the route lengths and vector table"
            ]


# a task spec: machine, times, energies, release, due; small values so that
# every check can fail
task_specs = st.tuples(
    st.integers(-1, 3),
    st.lists(st.integers(-1, 4), max_size=3),
    st.lists(st.integers(-1, 4), max_size=3),
    st.integers(-1, 3),
    st.none() | st.integers(-1, 4),
)


class TestValidateAgainstReference:
    """The bulk checks and the row walk of validate_instance agree with the
    per-task validation it replaced, message for message."""

    @settings(max_examples=300, deadline=None)
    @given(
        routes=st.lists(st.lists(task_specs, max_size=3), max_size=3),
        speeds=st.integers(1, 3),
        machines=st.integers(0, 3),
        base=st.integers(-1, 2),
    )
    def test_same_violations(self, routes, speeds, machines, base):
        jobs = tuple(
            tuple(
                TaskSpec(j, p, m, base + p, tuple(times), tuple(energies), release, due)
                for p, (m, times, energies, release, due) in enumerate(route)
            )
            for j, route in enumerate(routes)
        )
        grid = SpeedGrid(tuple(float(s + 1) for s in range(speeds)))
        meta = make_metadata()
        inst = Instance.from_jobs(jobs, machines, grid, meta)
        assert inst.jobs == jobs
        old = io_reference.Instance(jobs, machines, grid, meta)
        assert validate_instance(inst) == io_reference.validate_instance(old)

    @settings(max_examples=500, deadline=None)
    @given(
        times=st.lists(st.integers(-2, 4), max_size=5),
        energies=st.lists(st.integers(-2, 4), max_size=5),
        n_speeds=st.integers(0, 5),
    )
    def test_speed_vector_faults(self, times, energies, n_speeds):
        times, energies = tuple(times), tuple(energies)
        assert _speed_vector_faults(times, energies, n_speeds) == (
            io_reference._speed_vector_faults(times, energies, n_speeds)
        )

    @settings(max_examples=500, deadline=None)
    @given(n_speeds=st.integers(0, 4), data=st.data())
    def test_bulk_vector_check(self, n_speeds, data):
        # most vectors have the grid's length, so that the later checks run
        values = st.lists(st.integers(-1, 4), min_size=n_speeds, max_size=n_speeds) | st.lists(
            st.integers(-1, 4), max_size=4
        )
        vector = st.tuples(values.map(tuple), values.map(tuple))
        vectors = tuple(data.draw(st.lists(vector, max_size=4)))
        assert _vectors_valid(vectors, n_speeds) == (
            not any(_speed_vector_faults(t, e, n_speeds) for t, e in vectors)
        )


class TestValidateSchedule:
    def test_serial_chain_ok(self):
        inst = single_chain()
        sched = Schedule(entries={(0, 0): (0, 0), (0, 1): (3, 0)})
        assert validate_schedule(inst, sched) == []

    def test_machine_overlap(self):
        inst = make_instance([[(0, 3, 5)], [(0, 4, 6)]])
        sched = Schedule(entries={(0, 0): (0, 0), (1, 0): (1, 0)})
        assert any("machine overlap" in v for v in validate_schedule(inst, sched))

    def test_release_violated(self):
        inst = make_instance([[(0, 3, 5, 4, None)]])
        sched = Schedule(entries={(0, 0): (2, 0)})
        assert any("release violated" in v for v in validate_schedule(inst, sched))

    def test_job_order_violated(self):
        inst = single_chain()
        sched = Schedule(entries={(0, 0): (0, 0), (0, 1): (2, 0)})
        assert any("predecessor" in v for v in validate_schedule(inst, sched))

    def test_missing_and_unknown_entries(self):
        inst = single_chain()
        sched = Schedule(entries={(0, 0): (0, 0), (5, 5): (0, 0)})
        violations = validate_schedule(inst, sched)
        assert any("missing entry" in v for v in violations)
        assert any("no such task" in v for v in violations)

    def test_speed_out_of_range(self):
        inst = single_chain()
        sched = Schedule(entries={(0, 0): (0, 3), (0, 1): (3, 0)})
        assert any("speed index" in v for v in validate_schedule(inst, sched))


class TestObjectives:
    def test_serial_chain_arithmetic(self):
        inst = single_chain()
        sched = Schedule(entries={(0, 0): (0, 0), (0, 1): (3, 0)})
        report = objectives(inst, sched)
        assert report.makespan == 7
        assert report.total_energy == 22
        assert report.total_tardiness == 0

    def test_tardiness_against_due(self):
        inst = single_chain(due=6)
        sched = Schedule(entries={(0, 0): (0, 0), (0, 1): (3, 0)})
        assert objectives(inst, sched).total_tardiness == 1

    def test_unbounded_due_no_tardiness(self):
        inst = single_chain(due=None)
        sched = Schedule(entries={(0, 0): (0, 0), (0, 1): (3, 0)})
        assert objectives(inst, sched).total_tardiness == 0

    def test_rejects_infeasible(self):
        inst = single_chain()
        sched = Schedule(entries={(0, 0): (0, 0), (0, 1): (0, 0)})
        with pytest.raises(ValueError):
            objectives(inst, sched)

    def test_entry_order_irrelevant(self):
        inst = single_chain()
        a = Schedule(entries={(0, 0): (0, 0), (0, 1): (3, 0)})
        b = Schedule(entries={(0, 1): (3, 0), (0, 0): (0, 0)})
        assert objectives(inst, a) == objectives(inst, b)


class TestBruteForce:
    def test_anchor_optimum(self, anchor_instance):
        schedule, value = brute_force_best(anchor_instance, "makespan")
        assert value == 5
        assert validate_schedule(anchor_instance, schedule) == []

    def test_single_job_serial_sum(self):
        inst = single_chain()
        _, value = brute_force_best(inst, "makespan")
        assert value == 7

    def test_energy_objective_picks_slowest(self):
        inst = make_instance(
            [[(0, (6, 3), (4, 9)), (1, (6, 3), (4, 9))]], multipliers=(1.0, 2.0)
        )
        schedule, value = brute_force_best(inst, "energy")
        assert value == 8
        assert all(speed == 0 for _, speed in schedule.entries.values())

    def test_guards(self):
        big = make_instance([[(m, 1, 1) for m in range(4)] for _ in range(2)])
        with pytest.raises(ValueError):
            brute_force_best(big)
        wide = make_instance([[(0, (3, 2, 1), (1, 2, 3))]], multipliers=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            brute_force_best(wide)

    def test_rejects_unknown_objective(self, anchor_instance):
        with pytest.raises(ValueError):
            brute_force_best(anchor_instance, "lateness")

    def test_deterministic(self, anchor_instance):
        a = brute_force_best(anchor_instance, "makespan")
        b = brute_force_best(anchor_instance, "makespan")
        assert a == b

    def test_load_lower_bound(self, anchor_instance):
        # optimum equals the machine-load bound max(5, 5) on the anchor
        _, value = brute_force_best(anchor_instance, "makespan")
        loads = {}
        for task in anchor_instance.iter_tasks():
            loads[task.machine] = loads.get(task.machine, 0) + task.times[0]
        assert value == max(loads.values())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_dominates_dispatch(self, seed):
        p = InstanceParams(
            count=1, jobs=2, machines=3, tasks_per_job=2, speeds=2,
            dist=DistSpec("uniform"), rrdd="loose", seed=seed,
            base_time_range=(1, 20),
        )
        inst = generate_instance(p, 0)
        _, best = brute_force_best(inst, "makespan")
        for rule in ("fifo", "spt", "edd"):
            sched = dispatch(inst, SolverConfig(rule=rule, speed_policy="fastest"))
            assert best <= objectives(inst, sched).makespan


class TestSuiteStats:
    def test_rows_and_summary(self):
        p = InstanceParams(
            count=2, jobs=3, machines=2, tasks_per_job=2, speeds=2,
            dist=DistSpec("uniform"), rrdd="none", seed=1,
        )
        instances = [generate_instance(p, q) for q in range(2)]
        rows, summary = suite_stats(instances)
        assert len(rows) == 2
        assert rows[0]["jobs"] == 3
        assert rows[0]["machines"] == 2
        assert rows[0]["dist"] == "uniform"
        assert summary["jobs"] == (3, 3)
        assert "median_base" in summary and "total_work" in summary

    def test_empty_suite(self):
        rows, summary = suite_stats([])
        assert rows == []
        assert summary == {}
