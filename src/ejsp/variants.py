"""Derived instance variants: date relaxation and speed-subset projection.

Both transforms are pure: they only copy, drop or zero existing data, never
recompute times or energies. Provenance lives in the metadata as state
(dates_relaxed, retained original speed indices), so relaxing twice or
projecting in two steps yields instances equal to the one-step result.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ejsp.model import Instance, SpeedGrid, TaskSpec

# 0-based columns of a 5-speed grid for the two standard derived variants:
# first/third/fifth speeds, and third speed only.
SUBSET_FIRST_THIRD_FIFTH = (0, 2, 4)
SUBSET_THIRD_ONLY = (2,)


def relax_dates(instance: Instance) -> Instance:
    """Copy with every release 0 and every due unbounded; nothing else moves."""
    # every field up to `energies` kept, then release 0 and due unbounded
    jobs = tuple(
        tuple(TaskSpec(*task[:6], 0, None) for task in route)
        for route in instance.jobs
    )
    return Instance(
        jobs=jobs,
        machines=instance.machines,
        speed_multipliers=instance.speed_multipliers,
        metadata=replace(instance.metadata, dates_relaxed=True),
    )


def project_speeds(instance: Instance, subset: Sequence[int]) -> Instance:
    """Copy keeping only the selected speed columns, in the given order.

    `subset` must be strictly increasing and within the current speed count.
    Metadata records the retained columns as indices of the *original* grid,
    so chained projections compose.
    """
    subset = tuple(subset)
    n = instance.n_speeds
    if not subset:
        raise ValueError("speed subset must be non-empty")
    if any(not 0 <= i < n for i in subset):
        raise ValueError(f"speed subset {subset} out of range for {n} speeds")
    if any(a >= b for a, b in zip(subset, subset[1:])):
        raise ValueError(f"speed subset {subset} must be strictly increasing")

    def take(vec: tuple, idx: Sequence[int]) -> tuple:
        return tuple(vec[i] for i in idx)

    # tasks with equal base times share speed vectors: project each once
    projected: dict[tuple, tuple] = {}

    def project(vec: tuple) -> tuple:
        out = projected.get(vec)
        if out is None:
            out = projected[vec] = take(vec, subset)
        return out

    jobs = tuple(
        tuple(
            TaskSpec(  # positional, as in io.read_instance: cheaper per task
                task.job,
                task.position,
                task.machine,
                task.base_time,
                project(task.times),
                project(task.energies),
                task.release,
                task.due,
            )
            for task in route
        )
        for route in instance.jobs
    )
    prior = instance.metadata.speed_subset
    original_subset = take(prior, subset) if prior is not None else subset
    return Instance(
        jobs=jobs,
        machines=instance.machines,
        speed_multipliers=SpeedGrid(take(instance.speed_multipliers.multipliers, subset)),
        metadata=replace(instance.metadata, speed_subset=original_subset),
    )


def paper_variants(instance: Instance) -> list[Instance]:
    """The original plus its two standard derived variants.

    Requires a 5-speed instance; returns [original, first/third/fifth
    projection, third-only projection].
    """
    if instance.n_speeds != 5:
        raise ValueError(
            f"standard variants require a 5-speed instance, got {instance.n_speeds}"
        )
    return [
        instance,
        project_speeds(instance, SUBSET_FIRST_THIRD_FIFTH),
        project_speeds(instance, SUBSET_THIRD_ONLY),
    ]
