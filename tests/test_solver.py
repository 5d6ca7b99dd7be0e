"""Dispatching rules, speed policies, and the hill-climb improver."""

import pytest
from hypothesis import given, settings, strategies as st

from ejsp.evaluate import brute_force_best, objectives, validate_schedule
from ejsp.generator import generate_instance
from ejsp.model import DistSpec, InstanceParams, Schedule
from ejsp.solver import RULES, SPEED_POLICIES, SolverConfig, dispatch, improve

import solver_reference as reference
from conftest import make_instance


def build(seed=0, jobs=5, machines=3, speeds=3, rrdd="tight", kind="uniform"):
    p = InstanceParams(
        count=1, jobs=jobs, machines=machines, tasks_per_job=machines,
        speeds=speeds, dist=DistSpec(kind), rrdd=rrdd, seed=seed,
    )
    return generate_instance(p, 0)


class TestDispatch:
    @pytest.mark.parametrize("rule", ["fifo", "spt", "edd"])
    @pytest.mark.parametrize("policy", ["slowest", "reference", "fastest"])
    def test_always_feasible(self, rule, policy):
        inst = build(seed=7)
        sched = dispatch(inst, SolverConfig(rule=rule, speed_policy=policy))
        assert validate_schedule(inst, sched) == []

    def test_anchor_reaches_lower_bound_or_above(self, anchor_instance):
        sched = dispatch(anchor_instance, SolverConfig())
        assert validate_schedule(anchor_instance, sched) == []
        assert objectives(anchor_instance, sched).makespan >= 5

    def test_single_job_serial_sum(self):
        inst = make_instance([[(0, 3, 1), (1, 4, 1), (2, 5, 1)]])
        for rule in ("fifo", "spt", "edd"):
            sched = dispatch(inst, SolverConfig(rule=rule))
            assert objectives(inst, sched).makespan == 12

    def test_fastest_policy_uses_top_speed(self):
        inst = build(speeds=4)
        sched = dispatch(inst, SolverConfig(speed_policy="fastest"))
        assert all(speed == 3 for _, speed in sched.entries.values())

    def test_slowest_policy_uses_bottom_speed(self):
        inst = build(speeds=4)
        sched = dispatch(inst, SolverConfig(speed_policy="slowest"))
        assert all(speed == 0 for _, speed in sched.entries.values())

    def test_reference_policy_nearest_one(self):
        inst = build(speeds=5)  # grid 0.5, 1.125, 1.75, 2.375, 3.0
        sched = dispatch(inst, SolverConfig(speed_policy="reference"))
        assert all(speed == 1 for _, speed in sched.entries.values())

    def test_fastest_not_slower_than_slowest(self):
        # identical rule; higher speed column dominates per task
        for seed in range(5):
            inst = build(seed=seed)
            slow = objectives(inst, dispatch(inst, SolverConfig(speed_policy="slowest")))
            fast = objectives(inst, dispatch(inst, SolverConfig(speed_policy="fastest")))
            assert fast.makespan <= slow.makespan

    def test_respects_releases(self):
        inst = make_instance([[(0, 2, 1, 10, None)]])
        sched = dispatch(inst, SolverConfig())
        assert sched.start(0, 0) >= 10

    def test_edd_puts_unbounded_dues_last(self):
        # job 0 has no due date, job 1 a late one: job 1 goes first anyway
        inst = make_instance([[(0, 2, 1, 0, None)], [(0, 2, 1, 0, 90)]])
        sched = dispatch(inst, SolverConfig(rule="edd"))
        assert sched == reference.dispatch(inst, SolverConfig(rule="edd"))
        assert (sched.start(1, 0), sched.start(0, 0)) == (0, 2)

    def test_rejects_bad_config(self):
        inst = build()
        with pytest.raises(ValueError):
            dispatch(inst, SolverConfig(rule="lifo"))
        with pytest.raises(ValueError):
            dispatch(inst, SolverConfig(speed_policy="medium"))
        with pytest.raises(ValueError):
            improve(inst, dispatch(inst, SolverConfig()), -1)

    def test_deterministic(self):
        inst = build(seed=3)
        cfg = SolverConfig(rule="spt", speed_policy="reference")
        assert dispatch(inst, cfg) == dispatch(inst, cfg)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        rule=st.sampled_from(["fifo", "spt", "edd"]),
        rrdd=st.sampled_from(["none", "loose", "tight"]),
    )
    def test_feasible_across_shapes(self, seed, rule, rrdd):
        inst = build(seed=seed, jobs=4, machines=3, rrdd=rrdd)
        sched = dispatch(inst, SolverConfig(rule=rule))
        assert validate_schedule(inst, sched) == []


class TestImprove:
    def delayed_anchor_schedule(self):
        # fully serialized: makespan 10, twice the optimum
        return Schedule(
            entries={
                (0, 0): (0, 0),
                (0, 1): (2, 0),
                (1, 0): (5, 0),
                (1, 1): (7, 0),
            }
        )

    def test_budget_zero_is_identity(self, anchor_instance):
        sched = self.delayed_anchor_schedule()
        assert improve(anchor_instance, sched, 0) is sched

    def test_reaches_optimum_on_anchor(self, anchor_instance):
        sched = self.delayed_anchor_schedule()
        assert objectives(anchor_instance, sched).makespan == 10
        improved = improve(anchor_instance, sched, 100)
        assert validate_schedule(anchor_instance, improved) == []
        best = brute_force_best(anchor_instance, "makespan")[1]
        assert objectives(anchor_instance, improved).makespan == best == 5

    def test_never_worsens(self):
        for seed in range(5):
            inst = build(seed=seed)
            sched = dispatch(inst, SolverConfig())
            before = objectives(inst, sched).makespan
            after = objectives(inst, improve(inst, sched, 10)).makespan
            assert after <= before

    def test_output_feasible(self):
        inst = build(seed=9, jobs=6)
        improved = improve(inst, dispatch(inst, SolverConfig()), 25)
        assert validate_schedule(inst, improved) == []

    def test_rejects_infeasible_input(self, anchor_instance):
        bad = Schedule(entries={(0, 0): (0, 0)})
        with pytest.raises(ValueError):
            improve(anchor_instance, bad, 5)

    def test_deterministic(self):
        inst = build(seed=4)
        sched = dispatch(inst, SolverConfig())
        assert improve(inst, sched, 8) == improve(inst, sched, 8)

    def test_speed_move_can_improve(self):
        # single job, two speeds: only a speed change can shrink the makespan
        inst = make_instance([[(0, (6, 3), (4, 9))]], multipliers=(1.0, 2.0))
        sched = Schedule(entries={(0, 0): (0, 0)})
        improved = improve(inst, sched, 5)
        assert objectives(inst, improved).makespan == 3


def delayed(instance, schedule, delays):
    """The same machine sequences and speeds, each task started `delays[k]`
    after its earliest feasible start (k in start order): feasible, and not
    semi-active once any delay is positive."""
    job_free, machine_free, entries = {}, {}, {}
    order = sorted(schedule.entries, key=lambda key: schedule.entries[key][0])
    for k, (job, pos) in enumerate(order):
        task = instance.jobs[job][pos]
        speed = schedule.entries[(job, pos)][1]
        start = max(task.release, job_free.get(job, 0), machine_free.get(task.machine, 0))
        start += delays[k % len(delays)]
        entries[(job, pos)] = (start, speed)
        job_free[job] = machine_free[task.machine] = start + task.times[speed]
    return Schedule(entries=entries)


class TestAgainstReference:
    """Same schedules as the list-scan dispatch and the full-neighbourhood
    climb kept in solver_reference.py."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        jobs=st.integers(min_value=1, max_value=7),
        machines=st.integers(min_value=1, max_value=4),
        speeds=st.integers(min_value=1, max_value=4),
        rrdd=st.sampled_from(["none", "loose", "tight"]),
        kind=st.sampled_from(["exponential", "gaussian", "uniform"]),
        rule=st.sampled_from(RULES),
        policy=st.sampled_from(SPEED_POLICIES),
        budget=st.integers(min_value=1, max_value=50),
        delays=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=8),
        first_delay=st.integers(min_value=1, max_value=20),
    )
    def test_same_schedules(
        self, seed, jobs, machines, speeds, rrdd, kind, rule, policy, budget, delays, first_delay
    ):
        inst = build(seed=seed, jobs=jobs, machines=machines, speeds=speeds, rrdd=rrdd, kind=kind)
        config = SolverConfig(rule=rule, speed_policy=policy)
        start = dispatch(inst, config)
        assert start == reference.dispatch(inst, config)
        late = delayed(inst, start, [first_delay] + delays)
        assert validate_schedule(inst, late) == []
        assert late != start
        for schedule in (start, late):
            assert improve(inst, schedule, budget) == reference.improve(inst, schedule, budget)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_schedules_at_30x5(self, seed):
        inst = build(seed=seed, jobs=30, machines=5, speeds=4, rrdd="loose")
        config = SolverConfig(rule="spt", speed_policy="reference")
        start = dispatch(inst, config)
        assert start == reference.dispatch(inst, config)
        assert improve(inst, start, 3) == reference.improve(inst, start, 3)
