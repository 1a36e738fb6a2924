"""Tests for the local-search schedule improver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gains import config_scope
from repro.core.schedule import Schedule
from repro.instances.random_instances import clustered_instance, random_uniform_instance
from repro.power.oblivious import SquareRootPower
from repro.scheduling.firstfit import first_fit_schedule
from repro.scheduling.local_search import improve_schedule
from repro.scheduling.trivial import trivial_schedule


class TestImproveSchedule:
    def test_never_increases_colors_and_stays_feasible(self):
        for seed in range(5):
            inst = clustered_instance(15, rng=seed)
            powers = SquareRootPower()(inst)
            base = first_fit_schedule(inst, powers)
            improved = improve_schedule(inst, base)
            improved.validate(inst)
            assert improved.num_colors <= base.num_colors

    def test_improves_trivial_schedule(self, small_random_instance):
        base = trivial_schedule(small_random_instance)
        improved = improve_schedule(small_random_instance, base)
        improved.validate(small_random_instance)
        # The trivial schedule is massively wasteful; local search must
        # make real progress (first-fit achieves far fewer colors).
        ff = first_fit_schedule(
            small_random_instance, SquareRootPower()(small_random_instance)
        )
        assert improved.num_colors < base.num_colors
        assert improved.num_colors <= 2 * ff.num_colors + 1

    def test_single_color_schedule_untouched(self, two_link_instance):
        base = first_fit_schedule(two_link_instance, np.ones(2))
        assert base.num_colors == 1
        improved = improve_schedule(two_link_instance, base)
        assert improved.num_colors == 1

    def test_powers_unchanged(self, small_random_instance):
        powers = SquareRootPower()(small_random_instance)
        base = trivial_schedule(small_random_instance)
        improved = improve_schedule(small_random_instance, base)
        assert np.allclose(improved.powers, base.powers)

    def test_rejects_infeasible_input(self, small_random_instance):
        bad = Schedule(
            colors=np.zeros(small_random_instance.n, dtype=int),
            powers=SquareRootPower()(small_random_instance),
        )
        if bad.is_feasible(small_random_instance):
            pytest.skip("instance happens to be one-color feasible")
        with pytest.raises(Exception):
            improve_schedule(small_random_instance, bad)

    def test_beta_override(self, small_random_instance):
        powers = SquareRootPower()(small_random_instance)
        base = first_fit_schedule(small_random_instance, powers, beta=2.0)
        improved = improve_schedule(small_random_instance, base, beta=2.0)
        improved.validate(small_random_instance, beta=2.0)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_idempotent_at_fixed_point(self, seed):
        inst = random_uniform_instance(8, rng=seed)
        powers = SquareRootPower()(inst)
        once = improve_schedule(inst, first_fit_schedule(inst, powers))
        twice = improve_schedule(inst, once)
        assert twice.num_colors == once.num_colors


class TestBackendConformance:
    """Local search runs the same kernel on every lossless gain
    backend: sparse and sharded at epsilon 0 must reproduce dense."""

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"backend": "sparse", "sparse_epsilon": 0.0}, id="sparse-0.0"),
            pytest.param(
                {
                    "backend": "sharded",
                    "sparse_epsilon": 0.0,
                    "workers": 2,
                    "shard_executor": "serial",
                },
                id="sharded-0.0",
            ),
        ],
    )
    def test_matches_numpy_dense(self, direction, overrides):
        for seed in range(3):
            inst = random_uniform_instance(30, rng=90 + seed, direction=direction)
            powers = SquareRootPower()(inst)
            with config_scope(backend="dense"):
                base = first_fit_schedule(inst, powers)
                reference = improve_schedule(inst, base)
            with config_scope(**overrides):
                improved = improve_schedule(inst, base)
            np.testing.assert_array_equal(improved.colors, reference.colors)


class TestNoiseGuard:
    def test_first_fit_rejects_unscalable_noise(self):
        from repro.core.errors import InvalidScheduleError
        from repro.core.instance import Instance
        from repro.geometry.line import LineMetric

        metric = LineMetric([0.0, 10.0])
        inst = Instance.bidirectional(metric, [(0, 1)], noise=1e6)
        with pytest.raises(InvalidScheduleError, match="alone"):
            first_fit_schedule(inst, np.ones(1))

    def test_first_fit_handles_mild_noise(self):
        from repro.core.instance import Instance
        from repro.geometry.line import LineMetric

        metric = LineMetric([0.0, 1.0, 50.0, 51.0])
        inst = Instance.bidirectional(metric, [(0, 1), (2, 3)], noise=0.1)
        schedule = first_fit_schedule(inst, np.full(2, 10.0))
        schedule.validate(inst)
