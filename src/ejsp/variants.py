"""Derived instance variants: date relaxation and speed-subset projection.

Both transforms are pure: they only copy, drop or zero existing data, never
recompute times or energies. Provenance lives in the metadata as state
(dates_relaxed, retained original speed indices), so relaxing twice or
projecting in two steps yields instances equal to the one-step result.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ejsp.model import Instance, SpeedGrid, vector_table

# 0-based columns of a 5-speed grid for the two standard derived variants:
# first/third/fifth speeds, and third speed only.
SUBSET_FIRST_THIRD_FIFTH = (0, 2, 4)
SUBSET_THIRD_ONLY = (2,)


def relax_dates(instance: Instance) -> Instance:
    """Copy with every release 0 and every due unbounded; nothing else moves."""
    n_rows = len(instance.release)
    return replace(
        instance,
        release=(0,) * n_rows,
        due=(None,) * n_rows,
        metadata=replace(instance.metadata, dates_relaxed=True),
    )


def project_speeds(instance: Instance, subset: Sequence[int]) -> Instance:
    """Copy keeping only the selected speed columns, in the given order.

    `subset` must be strictly increasing and within the current speed count.
    Metadata records the retained columns as indices of the *original* grid,
    so chained projections compose. Only the speed-vector table is mapped;
    the task columns are shared with `instance`.
    """
    subset = tuple(subset)
    n = instance.n_speeds
    if not subset:
        raise ValueError("speed subset must be non-empty")
    if any(not 0 <= i < n for i in subset):
        raise ValueError(f"speed subset {subset} out of range for {n} speeds")
    if any(a >= b for a, b in zip(subset, subset[1:])):
        raise ValueError(f"speed subset {subset} must be strictly increasing")

    def take(vec: tuple) -> tuple:
        return tuple(vec[i] for i in subset)

    ids, table = vector_table(
        [(take(times), take(energies)) for times, energies in instance.vectors]
    )
    vector_id = instance.vector_id
    if len(table) < len(instance.vectors):  # some differed only in dropped speeds
        vector_id = tuple(map(ids.__getitem__, vector_id))
    prior = instance.metadata.speed_subset
    original_subset = take(prior) if prior is not None else subset
    return replace(
        instance,
        vector_id=vector_id,
        vectors=table,
        speed_multipliers=SpeedGrid(take(instance.speed_multipliers.multipliers)),
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
