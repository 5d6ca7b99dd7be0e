"""Date relaxation and speed projection, including provenance metadata."""

import pytest
from hypothesis import given, settings, strategies as st

from ejsp.evaluate import validate_instance
from ejsp.generator import generate_instance
from ejsp.model import DistSpec, InstanceParams
from ejsp.variants import (
    SUBSET_FIRST_THIRD_FIFTH,
    SUBSET_THIRD_ONLY,
    paper_variants,
    project_speeds,
    relax_dates,
)

from conftest import make_instance


def build(speeds=5, rrdd="tight", seed=11):
    p = InstanceParams(
        count=1,
        jobs=4,
        machines=3,
        tasks_per_job=3,
        speeds=speeds,
        dist=DistSpec("uniform"),
        rrdd=rrdd,
        seed=seed,
    )
    return generate_instance(p, 0)


class TestRelaxDates:
    def test_zeroes_and_unbounds(self):
        relaxed = relax_dates(build())
        for task in relaxed.iter_tasks():
            assert task.release == 0
            assert task.due is None

    def test_idempotent(self):
        once = relax_dates(build())
        assert relax_dates(once) == once

    def test_only_dates_change(self):
        original = build()
        relaxed = relax_dates(original)
        for a, b in zip(original.iter_tasks(), relaxed.iter_tasks()):
            assert (a.job, a.position, a.machine, a.base_time) == (
                b.job,
                b.position,
                b.machine,
                b.base_time,
            )
            assert a.times == b.times
            assert a.energies == b.energies
        assert relaxed.speed_multipliers == original.speed_multipliers
        assert relaxed.metadata.dates_relaxed
        assert relaxed.metadata.variant_tag == "relaxed"

    def test_still_valid(self):
        assert validate_instance(relax_dates(build())) == []


class TestProjectSpeeds:
    def test_paper_three_speed(self):
        projected = project_speeds(build(), SUBSET_FIRST_THIRD_FIFTH)
        assert projected.speed_multipliers.multipliers == pytest.approx(
            (0.5, 1.75, 3.0), abs=1e-12
        )
        assert projected.metadata.variant_tag == "s1-3-5"

    def test_paper_single_speed(self):
        projected = project_speeds(build(), SUBSET_THIRD_ONLY)
        assert projected.speed_multipliers.multipliers == pytest.approx((1.75,), abs=1e-12)
        assert projected.metadata.variant_tag == "s3"

    def test_columns_copied_exactly(self):
        original = build()
        projected = project_speeds(original, (0, 2, 4))
        for a, b in zip(original.iter_tasks(), projected.iter_tasks()):
            assert b.times == (a.times[0], a.times[2], a.times[4])
            assert b.energies == (a.energies[0], a.energies[2], a.energies[4])
            assert (b.release, b.due) == (a.release, a.due)

    def test_identity_projection_keeps_payload(self):
        original = build(speeds=3)
        projected = project_speeds(original, (0, 1, 2))
        assert projected.jobs == original.jobs
        assert projected.speed_multipliers == original.speed_multipliers
        # provenance records even the identity selection
        assert projected.metadata.speed_subset == (0, 1, 2)

    def test_rejects_bad_subsets(self):
        instance = build(speeds=3)
        for subset in ((), (1, 1), (2, 0), (3,), (-1,)):
            with pytest.raises(ValueError):
                project_speeds(instance, subset)

    def test_composition(self):
        original = build()
        via_two = project_speeds(project_speeds(original, (0, 2, 4)), (1,))
        direct = project_speeds(original, (2,))
        assert via_two == direct

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_composition_random(self, data):
        original = build(speeds=6)
        outer = data.draw(
            st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True).map(
                lambda v: tuple(sorted(v))
            )
        )
        inner = data.draw(
            st.lists(st.integers(0, len(outer) - 1), min_size=1, max_size=len(outer), unique=True).map(
                lambda v: tuple(sorted(v))
            )
        )
        composed = tuple(outer[i] for i in inner)
        assert project_speeds(project_speeds(original, outer), inner) == project_speeds(
            original, composed
        )

    def test_commutes_with_relax(self):
        original = build()
        a = relax_dates(project_speeds(original, (1, 3)))
        b = project_speeds(relax_dates(original), (1, 3))
        assert a == b
        assert a.metadata.variant_tag == "relaxed+s2-4"

    def test_shares_task_columns(self):
        original = build()
        projected = project_speeds(original, (0, 2, 4))
        for column in ("machine", "base_time", "release", "due", "vector_id"):
            assert getattr(projected, column) is getattr(original, column)

    def test_vectors_equal_after_projection_are_merged(self):
        # three vectors that differ only in the dropped second speed
        energies = (1, 2, 3)
        inst = make_instance(
            [
                [(0, (9, 7, 5), energies), (1, (9, 8, 5), energies)],
                [(1, (9, 6, 5), energies), (0, (9, 7, 5), energies)],
            ],
            multipliers=(1.0, 2.0, 3.0),
        )
        assert inst.vector_id == (0, 1, 2, 0)
        projected = project_speeds(inst, (0, 2))
        assert projected.vectors == (((9, 5), (1, 3)),)
        assert projected.vector_id == (0, 0, 0, 0)
        assert projected == make_instance(
            [
                [(0, (9, 5), (1, 3)), (1, (9, 5), (1, 3))],
                [(1, (9, 5), (1, 3)), (0, (9, 5), (1, 3))],
            ],
            multipliers=(1.0, 3.0),
            speed_subset=(0, 2),
        )

    def test_projection_keeps_monotonicity(self):
        projected = project_speeds(build(), (0, 3))
        assert validate_instance(projected) == []


class TestPaperVariants:
    def test_three_instances(self):
        original = build()
        variants = paper_variants(original)
        assert [v.n_speeds for v in variants] == [5, 3, 1]
        assert variants[0] == original
        assert [v.metadata.variant_tag for v in variants] == ["orig", "s1-3-5", "s3"]

    def test_variant_payload_matches_projection(self):
        original = build()
        variants = paper_variants(original)
        assert variants[1] == project_speeds(original, (0, 2, 4))
        assert variants[2] == project_speeds(original, (2,))

    def test_rejects_non_five_speed(self):
        with pytest.raises(ValueError):
            paper_variants(build(speeds=3))

    def test_all_valid(self):
        for variant in paper_variants(build()):
            assert validate_instance(variant) == []
