"""Tests for first-fit and peeling schedulers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Problem
from repro.core.instance import Instance
from repro.core.kernels import check_order
from repro.geometry.line import LineMetric
from repro.instances.random_instances import clustered_instance, random_uniform_instance
from repro.power.oblivious import SquareRootPower, UniformPower
from repro.scheduling.firstfit import (
    first_fit_free_power_schedule,
    first_fit_schedule,
)
from repro.scheduling.peeling import peeling_schedule
from repro.scheduling.trivial import trivial_schedule


class TestFirstFit:
    def test_far_links_share_color(self, two_link_instance):
        sched = first_fit_schedule(two_link_instance, np.ones(2))
        assert sched.num_colors == 1
        sched.validate(two_link_instance)

    def test_shared_node_forces_split(self):
        metric = LineMetric([0.0, 1.0, 2.0])
        inst = Instance.bidirectional(metric, [(0, 1), (1, 2)])
        sched = first_fit_schedule(inst, np.ones(2))
        assert sched.num_colors == 2
        sched.validate(inst)

    def test_always_feasible_on_random(self, rng):
        for seed in range(5):
            inst = random_uniform_instance(15, rng=seed)
            powers = SquareRootPower()(inst)
            sched = first_fit_schedule(inst, powers)
            sched.validate(inst)

    def test_never_more_colors_than_requests(self, small_random_instance):
        powers = UniformPower()(small_random_instance)
        sched = first_fit_schedule(small_random_instance, powers)
        assert sched.num_colors <= small_random_instance.n

    def test_custom_order_respected(self, two_link_instance):
        sched = first_fit_schedule(two_link_instance, np.ones(2), order=[1, 0])
        sched.validate(two_link_instance)

    def test_stricter_beta_needs_more_colors(self, rng):
        inst = clustered_instance(20, beta=0.5, rng=rng)
        powers = SquareRootPower()(inst)
        loose = first_fit_schedule(inst, powers, beta=0.5)
        strict = first_fit_schedule(inst, powers, beta=8.0)
        assert strict.num_colors >= loose.num_colors
        strict.validate(inst, beta=8.0)

    def test_colors_are_contiguous_from_zero(self, small_random_instance):
        powers = SquareRootPower()(small_random_instance)
        sched = first_fit_schedule(small_random_instance, powers)
        used = np.unique(sched.colors)
        assert np.array_equal(used, np.arange(used.size))


#: Orders that are not a permutation of range(8), with the entry each
#: error must name.
BAD_ORDERS = {
    "negative": ([-8, 1, 2, 3, 4, 5, 6, 7], "order entry -8 at position 0"),
    "short": ([0, 1, 2, 3, 4, 5, 6], "7 entries for 8 requests; request 7"),
    "duplicate": ([0, 1, 2, 0, 4, 5, 6, 7], "order entry 0 at position 3 repeats an earlier"),
    "past-end": ([0, 1, 2, 3, 4, 5, 6, 8], "order entry 8 at position 7"),
    # Regression: fractional entries used to be truncated to a valid
    # permutation, and a boolean mask read as indices 0/1.
    "fractional": (
        [0, 1, 2, 3.5, 4, 5, 6, 7],
        "order entry 3.5 at position 3 is not an integer",
    ),
    "boolean": ([True] * 8, "order entry True at position 0 is not an integer"),
}


class TestFirstFitOrderValidation:
    """Regression: a negative entry used to wrap around, and short,
    duplicated or past-the-end orders failed with unrelated errors."""

    @pytest.fixture
    def pair(self):
        instance = random_uniform_instance(8, rng=0)
        return instance, SquareRootPower()(instance)

    @pytest.mark.parametrize("case", sorted(BAD_ORDERS))
    def test_free_function(self, pair, case):
        order, message = BAD_ORDERS[case]
        with pytest.raises(ValueError, match=message):
            first_fit_schedule(*pair, order=order)

    @pytest.mark.parametrize("case", sorted(BAD_ORDERS))
    def test_session(self, pair, case):
        order, message = BAD_ORDERS[case]
        session = Problem(pair[0], powers=pair[1]).session()
        with pytest.raises(ValueError, match=message):
            session.schedule("first_fit", order=order)

    @pytest.mark.parametrize("case", sorted(BAD_ORDERS))
    def test_warm_session(self, pair, case):
        """A session that has scheduled (context and kernel built)
        still rejects the order before running."""
        order, message = BAD_ORDERS[case]
        session = Problem(pair[0], powers=pair[1]).session()
        valid = session.schedule("first_fit")
        with pytest.raises(ValueError, match=message):
            session.schedule("first_fit", order=order)
        assert session.last_result is valid


class TestIntegralOrders:
    @pytest.mark.parametrize("dtype", [np.int16, np.uint32, np.float32, np.float64])
    def test_any_integral_dtype_is_accepted(self, dtype):
        instance = random_uniform_instance(8, rng=0)
        powers = SquareRootPower()(instance)
        order = [7, 3, 0, 5, 1, 6, 2, 4]
        expected = first_fit_schedule(instance, powers, order=order)
        got = first_fit_schedule(instance, powers, order=np.asarray(order, dtype=dtype))
        np.testing.assert_array_equal(got.colors, expected.colors)

    def test_check_order_rejects_fractions(self):
        with pytest.raises(ValueError, match="order entry 0.5 at position 0"):
            check_order([0.5, 1.2, 2.9], 3)


class TestFirstFitFreePower:
    def test_feasible_on_random(self, small_random_instance):
        sched = first_fit_free_power_schedule(small_random_instance)
        sched.validate(small_random_instance)

    def test_at_most_fixed_power_colors(self, rng):
        # Free powers dominate any fixed assignment up to greedy noise;
        # verify on instances where the gap is structural.
        from repro.instances.adversarial import growing_chain_instance

        adv = growing_chain_instance(12)
        fixed = first_fit_schedule(adv.instance, UniformPower()(adv.instance))
        free = first_fit_free_power_schedule(adv.instance)
        assert free.num_colors < fixed.num_colors

    def test_shared_node_split(self):
        metric = LineMetric([0.0, 1.0, 2.0])
        inst = Instance.bidirectional(metric, [(0, 1), (1, 2)])
        sched = first_fit_free_power_schedule(inst)
        assert sched.num_colors == 2
        sched.validate(inst)


class TestPeeling:
    def test_feasible(self, small_random_instance):
        powers = SquareRootPower()(small_random_instance)
        sched = peeling_schedule(small_random_instance, powers)
        sched.validate(small_random_instance)

    def test_covers_all_requests(self, small_random_instance):
        powers = SquareRootPower()(small_random_instance)
        sched = peeling_schedule(small_random_instance, powers)
        assert np.all(sched.colors >= 0)

    def test_no_worse_than_trivial(self, rng):
        inst = clustered_instance(15, rng=rng)
        powers = SquareRootPower()(inst)
        peel = peeling_schedule(inst, powers)
        assert peel.num_colors <= inst.n


class TestTrivial:
    def test_one_color_per_request(self, small_random_instance):
        sched = trivial_schedule(small_random_instance)
        assert sched.num_colors == small_random_instance.n
        sched.validate(small_random_instance)

    def test_custom_power(self, small_random_instance):
        sched = trivial_schedule(small_random_instance, power=UniformPower())
        assert np.allclose(sched.powers, 1.0)


class TestSchedulersProperty:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_all_schedulers_emit_feasible_schedules(self, seed):
        inst = random_uniform_instance(8, rng=seed)
        powers = SquareRootPower()(inst)
        for schedule in (
            first_fit_schedule(inst, powers),
            peeling_schedule(inst, powers),
            trivial_schedule(inst),
            first_fit_free_power_schedule(inst),
        ):
            schedule.validate(inst)
