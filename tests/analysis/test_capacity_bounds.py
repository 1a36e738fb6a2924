"""Tests for capacity estimation, OPT bounds, I_in and verification."""

import numpy as np
import pytest

from repro.analysis.bounds import (
    clique_lower_bound,
    conflict_graph,
    node_multiplicity_lower_bound,
    opt_color_lower_bound,
)
from repro.analysis.capacity import greedy_max_feasible_subset, one_shot_capacity
from repro.analysis.power_control import free_power_spectral_radius
from repro.analysis.measures import in_interference_measure
from repro.analysis.verify import verify_schedule
from repro.core.feasibility import is_feasible_subset
from repro.core.instance import Direction, Instance
from repro.core.schedule import Schedule
from repro.geometry.line import LineMetric
from repro.instances.nested import nested_instance
from repro.power.oblivious import SquareRootPower, UniformPower
from test_conformance import GRID


class TestGreedyMaxFeasibleSubset:
    def test_keeps_everything_when_feasible(self, two_link_instance):
        subset = greedy_max_feasible_subset(two_link_instance, np.ones(2))
        assert np.array_equal(subset, [0, 1])

    def test_result_is_feasible(self, small_random_instance):
        powers = SquareRootPower()(small_random_instance)
        subset = greedy_max_feasible_subset(small_random_instance, powers)
        assert is_feasible_subset(small_random_instance, powers, subset)

    def test_result_is_maximal(self, small_random_instance):
        powers = SquareRootPower()(small_random_instance)
        subset = greedy_max_feasible_subset(small_random_instance, powers)
        chosen = set(subset.tolist())
        for extra in range(small_random_instance.n):
            if extra in chosen:
                continue
            trial = sorted(chosen | {extra})
            assert not is_feasible_subset(small_random_instance, powers, trial)

    def test_respects_candidates(self, small_random_instance):
        powers = SquareRootPower()(small_random_instance)
        subset = greedy_max_feasible_subset(
            small_random_instance, powers, candidates=[0, 1, 2]
        )
        assert set(subset.tolist()) <= {0, 1, 2}

    def test_nested_uniform_capacity_is_one(self):
        inst = nested_instance(10, beta=1.0)
        assert one_shot_capacity(inst, UniformPower()(inst)) == 1

    def test_nested_sqrt_capacity_grows(self):
        inst = nested_instance(20, beta=0.5)
        assert one_shot_capacity(inst, SquareRootPower()(inst)) >= 4


class TestLowerBounds:
    def test_node_multiplicity(self):
        metric = LineMetric([0.0, 1.0, 2.0, 3.0])
        inst = Instance.bidirectional(metric, [(0, 1), (1, 2), (2, 3)])
        assert node_multiplicity_lower_bound(inst) == 2

    def test_node_multiplicity_disjoint(self, two_link_instance):
        assert node_multiplicity_lower_bound(two_link_instance) == 1

    def test_conflict_graph_far_links_empty(self, two_link_instance):
        graph = conflict_graph(two_link_instance)
        assert graph.number_of_edges() == 0

    def test_conflict_graph_shared_node(self):
        metric = LineMetric([0.0, 1.0, 2.0])
        inst = Instance.bidirectional(metric, [(0, 1), (1, 2)])
        graph = conflict_graph(inst)
        assert graph.has_edge(0, 1)

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_conflict_graph_matches_pairwise_radius(self, name):
        """The closed-form pair test decides every pair as the per-pair
        growth factor does (pairs within 1e-9 of the threshold, where
        the eigenvalue or power-iteration value and the closed form may
        round apart, are skipped; tree metrics put many pairs exactly
        at 1)."""
        inst = GRID[name]
        graph = conflict_graph(inst)
        assert list(graph.nodes) == list(range(inst.n))
        for i in range(inst.n):
            for j in range(i + 1, inst.n):
                rho = free_power_spectral_radius(inst, [i, j])
                if abs(rho - 1.0) <= 1e-9:
                    continue
                assert graph.has_edge(i, j) == (not rho < 1.0), (i, j, rho)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_shared_node_pairs_are_edges(self, direction):
        # A chain of ever longer requests, each sender the previous
        # request's receiver (a zero loss on both directions' matrices),
        # at a beta that leaves every finite entry tiny.
        metric = LineMetric([0.0, 1.0, 1000.0, 2000.0, 1e6])
        inst = Instance(metric, [0, 1, 2, 3], [1, 2, 3, 4], direction=direction)
        edges = set(conflict_graph(inst, beta=1e-9).edges)
        shared = {
            (i, j)
            for i in range(inst.n)
            for j in range(i + 1, inst.n)
            if {int(inst.senders[i]), int(inst.receivers[i])}
            & {int(inst.senders[j]), int(inst.receivers[j])}
        }
        assert shared == {(0, 1), (1, 2), (2, 3)}
        assert edges == shared

    def test_clique_bound_on_pairwise_conflicting(self):
        # Interleaved long links on the line: every sender is closer to
        # the other receivers than its own, so all pairs conflict under
        # every power assignment.
        metric = LineMetric([0.0, 10.0, 1.0, 11.0, 2.0, 12.0])
        inst = Instance.directed(metric, [(0, 1), (2, 3), (4, 5)])
        assert clique_lower_bound(inst) >= 2

    def test_opt_bound_is_sound(self, small_random_instance):
        from repro.scheduling.firstfit import first_fit_free_power_schedule

        bound = opt_color_lower_bound(small_random_instance)
        schedule = first_fit_free_power_schedule(small_random_instance)
        assert bound <= schedule.num_colors


class TestInInterference:
    def test_far_links_zero(self, two_link_directed):
        assert in_interference_measure(two_link_directed) == 0

    def test_nested_grows_like_n(self):
        for n in (5, 10):
            inst = nested_instance(n, direction=Direction.DIRECTED)
            assert in_interference_measure(inst) == n - 1

    def test_slack_widens_coverage(self, two_link_directed):
        wide = in_interference_measure(two_link_directed, slack=1000.0)
        assert wide >= in_interference_measure(two_link_directed)

    def test_invalid_slack(self, two_link_directed):
        with pytest.raises(ValueError):
            in_interference_measure(two_link_directed, slack=0.0)


class TestVerifyReport:
    def test_feasible_report(self, two_link_instance):
        sched = Schedule(colors=np.array([0, 0]), powers=np.ones(2))
        report = verify_schedule(two_link_instance, sched)
        assert report.feasible
        assert report.num_colors == 1
        assert report.class_sizes == {0: 2}
        assert "FEASIBLE" in report.summary()

    def test_infeasible_report_names_worst(self):
        metric = LineMetric([0.0, 1.0, 1.5, 2.5])
        inst = Instance.bidirectional(metric, [(0, 1), (2, 3)])
        sched = Schedule(colors=np.array([0, 0]), powers=np.ones(2))
        report = verify_schedule(inst, sched)
        assert not report.feasible
        assert report.worst_margin < 1.0
        assert report.worst_request in (0, 1)

    def test_energy_reported(self, two_link_instance):
        sched = Schedule(colors=np.array([0, 1]), powers=np.array([2.0, 3.0]))
        report = verify_schedule(two_link_instance, sched)
        assert report.total_energy == pytest.approx(5.0)

    def test_size_mismatch_rejected(self, two_link_instance):
        sched = Schedule(colors=np.zeros(3, int), powers=np.ones(3))
        with pytest.raises(ValueError):
            verify_schedule(two_link_instance, sched)
