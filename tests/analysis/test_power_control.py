"""Tests for free-power (power-control) feasibility."""

import numpy as np
import pytest

from repro.core.errors import InfeasibleError
from repro.core.feasibility import sinr_margins
from repro.core.instance import Direction, Instance
from repro.analysis.power_control import (
    free_power_feasible,
    free_power_spectral_radius,
    free_powers,
)
from repro.geometry.line import LineMetric


class TestSpectralRadius:
    def test_two_far_links_subcritical(self, two_link_directed):
        assert free_power_spectral_radius(two_link_directed) < 0.01

    def test_exact_two_by_two(self):
        # For two directed links the radius is sqrt(B01 * B10).
        metric = LineMetric([0.0, 1.0, 3.0, 4.0])
        inst = Instance.directed(metric, [(0, 1), (2, 3)], alpha=3.0, beta=1.0)
        # B[0,1] = l0 / l(u1, v0) = 1 / 2^3; B[1,0] = l1 / l(u0, v1) = 1 / 4^3.
        expected = np.sqrt((1.0 / 8.0) * (1.0 / 64.0))
        assert free_power_spectral_radius(inst) == pytest.approx(
            expected, rel=1e-6
        )

    def test_shared_node_is_infinite(self):
        metric = LineMetric([0.0, 1.0, 2.0])
        inst = Instance.directed(metric, [(0, 1), (1, 2)])
        assert free_power_spectral_radius(inst) == np.inf

    def test_singleton_is_zero(self, two_link_directed):
        assert free_power_spectral_radius(two_link_directed, subset=[0]) == 0.0

    def test_beta_scales_linearly_directed(self, two_link_directed):
        r1 = free_power_spectral_radius(two_link_directed, beta=1.0)
        r2 = free_power_spectral_radius(two_link_directed, beta=2.0)
        assert r2 == pytest.approx(2 * r1, rel=1e-6)

    def test_bidirectional_at_least_directed(self):
        metric = LineMetric([0.0, 2.0, 3.0, 7.0])
        bidir = Instance.bidirectional(metric, [(0, 1), (2, 3)])
        direct = bidir.with_direction(Direction.DIRECTED)
        assert free_power_spectral_radius(bidir) >= free_power_spectral_radius(
            direct
        ) * (1 - 1e-9)


class TestFreePowerFeasible:
    def test_far_links(self, two_link_directed, two_link_instance):
        assert free_power_feasible(two_link_directed)
        assert free_power_feasible(two_link_instance)

    def test_shared_node_infeasible(self):
        metric = LineMetric([0.0, 1.0, 2.0])
        inst = Instance.bidirectional(metric, [(0, 1), (1, 2)])
        assert not free_power_feasible(inst)

    def test_interleaved_links_infeasible(self):
        # Two long interleaved links: each sender sits closer to the
        # other's receiver than its own, defeating every power choice.
        metric = LineMetric([0.0, 10.0, 1.0, 11.0])
        inst = Instance.directed(metric, [(0, 1), (2, 3)], alpha=3.0, beta=1.0)
        # B01 = 1000/9^3 > 1 while B10 = 1000/11^3, product > 1.
        assert free_power_spectral_radius(inst) > 1.0
        assert not free_power_feasible(inst)

    def test_nested_directed_pairwise_feasible(self):
        from repro.instances.nested import nested_instance

        inst = nested_instance(2, beta=1.0, direction=Direction.DIRECTED)
        # Adjacent nested pairs are pairwise schedulable (rho ~ 0.84).
        assert free_power_feasible(inst)

    @pytest.mark.parametrize("family", ["uniform", "tree"])
    def test_early_decision_matches_converged_radius(self, family):
        """The bidirectional decision stops iterating once its bounds
        settle; it must agree with the converged radius, also for
        subsets scaled (via beta, which rho is linear in) to sit right
        at the threshold."""
        from repro.instances.random_instances import (
            random_tree_metric_instance,
            random_uniform_instance,
        )

        rng = np.random.default_rng(11)
        margin = 1e-9
        scales = (0.9, 0.999, 1 - 2 * margin, 1 - margin, 1.0, 1 + margin, 1.001, 1.1)
        checked = 0
        for trial in range(24):
            n = int(rng.integers(8, 33))
            if family == "uniform":
                inst = random_uniform_instance(n, rng=trial)
            else:
                inst = random_tree_metric_instance(n, rng=trial)
            # Node-disjoint requests only: a shared node makes rho = inf.
            subset, used = [], set()
            for i in rng.permutation(n)[: int(rng.integers(2, n + 1))]:
                ends = {int(inst.senders[i]), int(inst.receivers[i])}
                if not ends & used:
                    subset.append(int(i))
                    used |= ends
            rho = free_power_spectral_radius(inst, subset, beta=1.0)
            if not 0.0 < rho < np.inf:
                continue
            for scale in scales:
                beta = scale / rho
                expected = free_power_spectral_radius(inst, subset, beta=beta) < 1 - margin
                assert free_power_feasible(inst, subset, beta=beta, margin=margin) == expected
                checked += 1
        assert checked >= 8 * len(scales)


class TestFreePowers:
    def test_produces_strictly_feasible_powers(self, two_link_instance):
        powers = free_powers(two_link_instance)
        margins = sinr_margins(
            two_link_instance, powers, colors=np.zeros(2, dtype=int)
        )
        assert np.all(margins > 1.0)

    def test_directed_neumann_solution(self, two_link_directed):
        powers = free_powers(two_link_directed)
        margins = sinr_margins(
            two_link_directed, powers, colors=np.zeros(2, dtype=int)
        )
        assert np.all(margins > 1.0)

    def test_infeasible_raises(self):
        metric = LineMetric([0.0, 1.0, 2.0])
        inst = Instance.bidirectional(metric, [(0, 1), (1, 2)])
        with pytest.raises(InfeasibleError):
            free_powers(inst)

    def test_near_critical_sets_still_get_margin(self):
        # The nested directed instance at beta=0.3 is close to critical
        # but feasible; powers must still have margins >= 1.
        from repro.instances.nested import nested_instance

        inst = nested_instance(16, beta=0.3, direction=Direction.DIRECTED)
        assert free_power_feasible(inst)
        powers = free_powers(inst)
        margins = sinr_margins(inst, powers, colors=np.zeros(16, dtype=int))
        assert np.all(margins >= 1.0 - 1e-9)

    def test_subset_powers(self, two_link_instance):
        powers = free_powers(two_link_instance, subset=[1])
        assert powers.shape == (1,)
        assert powers[0] > 0


def _probe_instances():
    """A directed and a bidirectional instance of each kind: random
    Euclidean, random tree, and a chain whose requests share nodes."""
    from repro.instances.random_instances import (
        random_tree_metric_instance,
        random_uniform_instance,
    )

    chain = LineMetric([0.0, 1.0, 2.5, 4.5, 7.0])
    cases = {}
    for direction in (Direction.DIRECTED, Direction.BIDIRECTIONAL):
        tag = direction.value[:3]
        cases[f"euclid-{tag}"] = random_uniform_instance(12, rng=5, direction=direction)
        cases[f"tree-{tag}"] = random_tree_metric_instance(12, rng=6, direction=direction)
        cases[f"shared-{tag}"] = Instance(
            chain, [0, 1, 2, 3], [1, 2, 3, 4], direction=direction
        )
    return cases


PROBES = _probe_instances()


class TestSubsetBuild:
    """Each call builds only its subset's block; it must equal the full
    instance's matrices sliced to the subset, bit for bit."""

    @staticmethod
    def _subsets(n):
        rng = np.random.default_rng(n)
        return [
            np.arange(n),
            np.arange(n)[::-1],
            rng.permutation(n)[: n // 2],
            np.array([n - 1, 0]),
            np.array([1]),
            np.array([], dtype=int),
        ]

    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_block_equals_sliced_full_matrix(self, name):
        from repro.analysis.power_control import _power_control_matrices
        from reference import power_control_matrices

        inst = PROBES[name]
        for idx in self._subsets(inst.n):
            for beta in (1.0, 0.37):
                got = _power_control_matrices(inst, idx, beta)
                want = power_control_matrices(inst, idx, beta)
                assert len(got) == len(want) == (1 if "dir" in name else 2)
                for a, b in zip(got, want):
                    assert a.shape == (idx.size, idx.size)
                    np.testing.assert_array_equal(a, b)

    def test_shared_node_subsets_are_infinite(self):
        for direction in ("shared-dir", "shared-bid"):
            inst = PROBES[direction]
            assert free_power_spectral_radius(inst, [2, 1]) == np.inf
            assert not free_power_feasible(inst, [3, 0, 2])


class TestSubsetValidation:
    """Subsets are distinct request indices in ``[0, n)``; anything
    else raises instead of being wrapped, truncated or double-counted."""

    CALLS = (free_power_spectral_radius, free_power_feasible, free_powers)

    @pytest.mark.parametrize("name", ["euclid-dir", "euclid-bid"])
    @pytest.mark.parametrize(
        "subset, message",
        [
            ([-1, 0], "subset index -1 at position 0 is not a request index"),
            ([0.7, 2], "subset index 0.7 at position 0 is not an integer"),
            ([2, 2], "subset index 2 at position 1 repeats an earlier"),
            ([0, 3, 1, 3], "subset index 3 at position 3 repeats an earlier"),
            ([0, 12], "subset index 12 at position 1 is not a request index"),
            ([True, False], "is not an integer"),
        ],
        ids=["negative", "fractional", "repeat", "later-repeat", "too-large", "boolean"],
    )
    def test_bad_subsets_raise(self, name, subset, message):
        for call in self.CALLS:
            with pytest.raises(ValueError, match=message):
                call(PROBES[name], subset)

    @pytest.mark.parametrize("name", ["euclid-dir", "euclid-bid"])
    def test_integral_floats_pass(self, name):
        inst = PROBES[name]
        assert free_power_spectral_radius(inst, [3.0, 5.0]) == (
            free_power_spectral_radius(inst, [3, 5])
        )
