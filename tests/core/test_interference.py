"""Hand-computed interference values for both problem variants."""

import numpy as np
import pytest

from repro.core.instance import Direction, Instance
from repro.core.interference import (
    DEFAULT_TILE_ROWS,
    _class_sum,
    bidirectional_gain_matrices,
    bidirectional_interference,
    directed_gain_matrix,
    directed_interference,
    interference,
)
from repro.geometry.euclidean import EuclideanMetric
from repro.geometry.line import LineMetric
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower


def _reference_divide(powers, loss):
    """``powers[j] / loss[i, j]`` with ``x / 0 -> inf``."""
    out = np.full(loss.shape, np.inf)
    np.divide(powers[None, :], loss, out=out, where=loss > 0)
    return out


def _reference_directed(instance, powers):
    """The directed gains gathered from the metric's full loss matrix
    over every node (the historical full-matrix formula)."""
    loss = instance.metric.loss_matrix(instance.alpha)
    gains = _reference_divide(
        powers, loss[np.ix_(instance.receivers, instance.senders)]
    )
    np.fill_diagonal(gains, 0.0)
    return gains


def _reference_bidirectional(instance, powers):
    loss = instance.metric.loss_matrix(instance.alpha)
    s, r = instance.senders, instance.receivers
    min_at_u = np.minimum(loss[np.ix_(s, s)], loss[np.ix_(s, r)])
    min_at_v = np.minimum(loss[np.ix_(r, s)], loss[np.ix_(r, r)])
    gains_u = _reference_divide(powers, min_at_u)
    gains_v = _reference_divide(powers, min_at_v)
    np.fill_diagonal(gains_u, 0.0)
    np.fill_diagonal(gains_v, 0.0)
    return gains_u, gains_v


def _bit_identity_cases():
    cases = {}
    for direction in (Direction.DIRECTED, Direction.BIDIRECTIONAL):
        tag = direction.value[:3]
        shared = LineMetric([0.0, 1.0, 2.5, 4.5, 7.0])
        cases[f"shared-node-{tag}"] = Instance(
            shared, [0, 1, 2, 3, 1], [1, 2, 3, 4, 4], direction=direction
        )
        line = LineMetric(np.random.default_rng(5).uniform(0, 300, size=60))
        cases[f"line-{tag}"] = Instance(
            line, np.arange(0, 60, 2), np.arange(1, 60, 2), direction=direction
        )
        # More metric points than request endpoints, some shared.
        rng = np.random.default_rng(7)
        extra = EuclideanMetric(rng.uniform(0, 100, size=(300, 2)))
        senders = rng.integers(0, 300, size=120)
        receivers = (senders + rng.integers(1, 300, size=120)) % 300
        cases[f"extra-points-{tag}"] = Instance(
            extra, senders, receivers, direction=direction
        )
        for n in (1, 511, 512, 513):
            cases[f"n{n}-{tag}"] = random_uniform_instance(
                n, rng=n, direction=direction
            )
    return cases


_BIT_CASES = _bit_identity_cases()


@pytest.mark.parametrize("case", sorted(_BIT_CASES))
def test_tiled_builders_match_full_loss_matrix_bitwise(case):
    """Both full-matrix builders fill their output from row tiles; every
    entry (``inf`` and the zero diagonal included) must equal the
    historical gather from the metric's full loss matrix."""
    instance = _BIT_CASES[case]
    powers = np.asarray(SquareRootPower()(instance), dtype=float)
    np.testing.assert_array_equal(
        directed_gain_matrix(instance, powers),
        _reference_directed(instance, powers),
    )
    gains_u, gains_v = bidirectional_gain_matrices(instance, powers)
    ref_u, ref_v = _reference_bidirectional(instance, powers)
    np.testing.assert_array_equal(gains_u, ref_u)
    np.testing.assert_array_equal(gains_v, ref_v)
    if case.startswith("shared-node"):
        assert np.isinf(gains_u).any() and np.isinf(gains_v).any()


class TestDirectedGains:
    def test_hand_computed(self, two_link_directed):
        # Layout: u0=0, v0=1, u1=100, v1=101; alpha=3.
        powers = np.array([1.0, 1.0])
        gains = directed_gain_matrix(two_link_directed, powers)
        # gain at receiver of 0 from sender of 1: d(u1, v0) = 99
        assert gains[0, 1] == pytest.approx(1.0 / 99.0**3)
        # gain at receiver of 1 from sender of 0: d(u0, v1) = 101
        assert gains[1, 0] == pytest.approx(1.0 / 101.0**3)
        assert gains[0, 0] == 0.0
        assert gains[1, 1] == 0.0

    def test_power_scales_linearly(self, two_link_directed):
        g1 = directed_gain_matrix(two_link_directed, np.array([1.0, 1.0]))
        g2 = directed_gain_matrix(two_link_directed, np.array([2.0, 2.0]))
        assert np.allclose(g2, 2 * g1)

    def test_shared_node_gives_infinite_gain(self):
        metric = LineMetric([0.0, 1.0, 2.0])
        inst = Instance.directed(metric, [(0, 1), (1, 2)])
        gains = directed_gain_matrix(inst, np.ones(2))
        # sender of pair 1 is node 1 = receiver of pair 0.
        assert np.isinf(gains[0, 1])

    def test_interference_sums_rows(self, two_link_directed):
        powers = np.array([3.0, 5.0])
        interf = directed_interference(two_link_directed, powers)
        assert interf[0] == pytest.approx(5.0 / 99.0**3)
        assert interf[1] == pytest.approx(3.0 / 101.0**3)

    def test_colors_restrict_interference(self, two_link_directed):
        powers = np.ones(2)
        interf = directed_interference(
            two_link_directed, powers, colors=np.array([0, 1])
        )
        assert np.allclose(interf, 0.0)

    def test_subset_restricts(self, two_link_directed):
        powers = np.ones(2)
        interf = directed_interference(two_link_directed, powers, subset=[0])
        assert interf.shape == (1,)
        assert interf[0] == 0.0


class TestBidirectionalGains:
    def test_hand_computed(self, two_link_instance):
        powers = np.array([1.0, 1.0])
        gains_u, gains_v = bidirectional_gain_matrices(two_link_instance, powers)
        # At u0 (coord 0): nearest endpoint of pair 1 is 100.
        assert gains_u[0, 1] == pytest.approx(1.0 / 100.0**3)
        # At v0 (coord 1): nearest endpoint of pair 1 is 99 away.
        assert gains_v[0, 1] == pytest.approx(1.0 / 99.0**3)
        # At u1 (coord 100): nearest endpoint of pair 0 is 99 away.
        assert gains_u[1, 0] == pytest.approx(1.0 / 99.0**3)
        # At v1 (coord 101): nearest endpoint of pair 0 is 100 away.
        assert gains_v[1, 0] == pytest.approx(1.0 / 100.0**3)

    def test_worst_endpoint_taken(self, two_link_instance):
        interf = bidirectional_interference(two_link_instance, np.ones(2))
        assert interf[0] == pytest.approx(1.0 / 99.0**3)
        assert interf[1] == pytest.approx(1.0 / 99.0**3)

    def test_bidirectional_at_least_directed(self, small_random_instance):
        # The min-loss interference dominates the sender-only one.
        powers = np.ones(small_random_instance.n)
        directed_variant = small_random_instance.with_direction(Direction.DIRECTED)
        d = directed_interference(directed_variant, powers)
        b = bidirectional_interference(small_random_instance, powers)
        assert np.all(b >= d - 1e-15)

    def test_dispatching_helper(self, two_link_instance, two_link_directed):
        powers = np.ones(2)
        assert np.allclose(
            interference(two_link_instance, powers),
            bidirectional_interference(two_link_instance, powers),
        )
        assert np.allclose(
            interference(two_link_directed, powers),
            directed_interference(two_link_directed, powers),
        )

    def test_symmetric_pair_swap_invariance(self):
        # Swapping sender/receiver labels must not change bidirectional
        # interference (the variant is symmetric by definition).
        metric = LineMetric([0.0, 2.0, 10.0, 13.0])
        a = Instance.bidirectional(metric, [(0, 1), (2, 3)])
        b = Instance.bidirectional(metric, [(1, 0), (3, 2)])
        powers = np.array([2.0, 3.0])
        assert np.allclose(
            bidirectional_interference(a, powers),
            bidirectional_interference(b, powers),
        )


def _reference_class_sum(gains, colors):
    """Masked row sums over one full ``(n, n)`` mask."""
    same = colors[:, None] == colors[None, :]
    np.fill_diagonal(same, False)
    return np.where(same, gains, 0.0).sum(axis=1)


@pytest.mark.parametrize("n", [1, 7, DEFAULT_TILE_ROWS, 2 * DEFAULT_TILE_ROWS + 37])
def test_class_sum_matches_full_mask_bitwise(n):
    """Row tiles reduce the same row buffers as the full mask: equal
    bits, with shared-node ``inf`` entries masked out off-color."""
    rng = np.random.default_rng(n)
    storage = rng.uniform(0.0, 1.0, size=(n + 3, n + 5)) ** -3
    storage[rng.random(storage.shape) < 0.01] = np.inf
    storage[rng.random(storage.shape) < 0.05] = 0.0
    gains = storage[:n, :n]  # a view, as in a grown dense buffer
    for colors in (rng.integers(0, 4, size=n), np.zeros(n, dtype=int)):
        got = _class_sum(gains, colors)
        want = _reference_class_sum(gains, colors)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
