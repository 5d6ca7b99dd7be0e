"""Shared builders for hand-crafted instances used across the test modules."""

from __future__ import annotations

from ejsp._version import __version__
from ejsp.model import (
    DistSpec,
    Instance,
    InstanceMetadata,
    SpeedGrid,
    TaskSpec,
)
from ejsp.rng import PRNG_ID

import pytest


def make_metadata(**overrides) -> InstanceMetadata:
    base = dict(
        seed=0,
        instance_index=0,
        dist=DistSpec("uniform", a=0.0, b=1.0),
        rrdd="none",
        generator_version=__version__,
        prng_id=PRNG_ID,
    )
    base.update(overrides)
    return InstanceMetadata(**base)


def make_instance(routes, multipliers=(1.0,), machines=None, **meta) -> Instance:
    """Build an instance from per-job route specs.

    Each route is a list of (machine, times, energies) or
    (machine, times, energies, release, due) tuples; times/energies may be
    single ints for one-speed grids.
    """
    grid = SpeedGrid(multipliers=tuple(float(x) for x in multipliers))
    jobs = []
    n_machines = 0
    for j, route in enumerate(routes):
        tasks = []
        for p, spec in enumerate(route):
            machine, times, energies = spec[0], spec[1], spec[2]
            release = spec[3] if len(spec) > 3 else 0
            due = spec[4] if len(spec) > 4 else None
            if isinstance(times, int):
                times = (times,)
            if isinstance(energies, int):
                energies = (energies,)
            tasks.append(
                TaskSpec(
                    job=j,
                    position=p,
                    machine=machine,
                    base_time=max(times),
                    times=tuple(times),
                    energies=tuple(energies),
                    release=release,
                    due=due,
                )
            )
            n_machines = max(n_machines, machine + 1)
        jobs.append(tuple(tasks))
    return Instance.from_jobs(
        jobs,
        machines=machines if machines is not None else n_machines,
        speed_multipliers=grid,
        metadata=make_metadata(**meta),
    )


@pytest.fixture
def anchor_instance() -> Instance:
    """Two jobs, two machines, one speed; optimal makespan 5 by enumeration."""
    return make_instance(
        [
            [(0, 2, 10), (1, 3, 10)],
            [(1, 2, 10), (0, 3, 10)],
        ]
    )
