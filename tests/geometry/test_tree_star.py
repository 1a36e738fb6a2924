"""Tests for TreeMetric, centroids, StarMetric and aspect utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.aspect import aspect_ratio, max_distance, min_positive_distance
from repro.geometry.line import LineMetric
from repro.geometry.metric import is_metric_matrix
from repro.geometry.star import StarMetric
from repro.geometry.tree import TreeMetric, find_centroid


def random_tree_edges(n, rng):
    """A random recursive tree with integer weights 1..5."""
    return [
        (int(rng.integers(v)), v, float(rng.integers(1, 6))) for v in range(1, n)
    ]


class TestTreeMetric:
    @pytest.fixture
    def path_tree(self):
        # 0 -2- 1 -3- 2 -1- 3
        return TreeMetric(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.0)])

    def test_path_distances(self, path_tree):
        assert path_tree.distance(0, 3) == pytest.approx(6.0)
        assert path_tree.distance(1, 3) == pytest.approx(4.0)

    def test_single_node_tree(self):
        tree = TreeMetric(1, [])
        assert tree.n == 1
        assert tree.distance(0, 0) == 0.0

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValueError, match="edges"):
            TreeMetric(3, [(0, 1, 1.0)])

    def test_cycle_rejected(self):
        # 3 edges on 3 nodes = cycle
        with pytest.raises(ValueError):
            TreeMetric(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            TreeMetric(4, [(0, 1, 1.0), (0, 1, 2.0), (2, 3, 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            TreeMetric(2, [(0, 0, 1.0)])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            TreeMetric(2, [(0, 1, 0.0)])

    def test_neighbors_and_degree(self, path_tree):
        assert path_tree.degree(1) == 2
        assert sorted(v for v, _ in path_tree.neighbors(1)) == [0, 2]

    def test_is_metric(self, rng):
        tree = TreeMetric(10, random_tree_edges(10, rng))
        assert is_metric_matrix(tree.distance_matrix())

    def test_components_after_removal(self, path_tree):
        components = path_tree.subtree_nodes_after_removal(1)
        as_sets = sorted(map(frozenset, components), key=len)
        assert frozenset({0}) in as_sets
        assert frozenset({2, 3}) in as_sets


def _lognormal_tree(n, seed):
    """A random recursive tree on shuffled labels with lognormal
    weights, its edges in random order and orientation."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(n)
    edges = []
    for v in range(1, n):
        u, w = int(rng.integers(v)), float(rng.lognormal(0.0, 2.0))
        a, b = int(label[u]), int(label[v])
        edges.append((a, b, w) if rng.random() < 0.5 else (b, a, w))
    return [edges[i] for i in rng.permutation(len(edges))]


TREE_CASES = {
    "single": (1, []),
    "path": (6, [(i, i + 1, 0.1 * (i + 1)) for i in range(5)]),
    "star": (7, [(0, v, 1.0 / v) for v in range(1, 7)]),
    **{f"lognormal-{n}-{seed}": (n, _lognormal_tree(n, seed))
       for n, seed in ((2, 0), (17, 1), (64, 2), (150, 3))},
}


class TestTreeDistances:
    """Tree distances are path sums from the source outward."""

    @pytest.mark.parametrize("case", sorted(TREE_CASES))
    def test_equals_path_sum_reference(self, case):
        from reference import tree_path_sums

        n, edges = TREE_CASES[case]
        got = TreeMetric(n, edges).distance_matrix()
        assert got.shape == (n, n) and got.dtype == np.float64
        np.testing.assert_array_equal(got, tree_path_sums(n, edges))

    @pytest.mark.parametrize("case", sorted(TREE_CASES))
    def test_close_to_exact_sums(self, case):
        from oracle import _tree_distances

        n, edges = TREE_CASES[case]
        got = TreeMetric(n, edges).distance_matrix()
        np.testing.assert_allclose(got, np.array(_tree_distances(n, edges)), rtol=1e-12, atol=0)


class TestFindCentroid:
    def test_path_centroid_is_middle(self):
        tree = TreeMetric(5, [(i, i + 1, 1.0) for i in range(4)])
        assert find_centroid(tree) == 2

    def test_star_centroid_is_center(self):
        tree = TreeMetric(6, [(0, v, 1.0) for v in range(1, 6)])
        assert find_centroid(tree) == 0

    def test_centroid_halves_subtrees(self, rng):
        tree = TreeMetric(31, random_tree_edges(31, rng))
        centroid = find_centroid(tree)
        components = tree.subtree_nodes_after_removal(centroid)
        assert all(len(c) <= tree.n // 2 for c in components)

    def test_restricted_to_subtree(self):
        tree = TreeMetric(5, [(i, i + 1, 1.0) for i in range(4)])
        centroid = find_centroid(tree, nodes=[2, 3, 4])
        assert centroid == 3

    def test_disconnected_subset_rejected(self):
        tree = TreeMetric(5, [(i, i + 1, 1.0) for i in range(4)])
        with pytest.raises(ValueError, match="connected"):
            find_centroid(tree, nodes=[0, 4])

    def test_empty_subset_rejected(self):
        tree = TreeMetric(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            find_centroid(tree, nodes=[])


class TestStarMetric:
    def test_pairwise_is_sum_of_radii(self):
        star = StarMetric([1.0, 2.0, 4.0])
        assert star.distance(0, 2) == pytest.approx(5.0)
        assert star.distance(1, 2) == pytest.approx(6.0)

    def test_diagonal_zero(self):
        star = StarMetric([1.0, 2.0])
        assert star.distance(0, 0) == 0.0

    def test_decay(self):
        star = StarMetric([2.0, 3.0])
        assert np.allclose(star.decay(3.0), [8.0, 27.0])

    def test_is_metric(self):
        star = StarMetric([0.5, 1.0, 7.0, 2.0])
        assert is_metric_matrix(star.distance_matrix())

    def test_zero_radius_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            StarMetric([1.0, 0.0])

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(0.1, 100, allow_nan=False), min_size=2, max_size=10)
    )
    def test_always_metric(self, radii):
        assert is_metric_matrix(StarMetric(radii).distance_matrix())


class TestAspect:
    def test_values(self, line_metric):
        assert max_distance(line_metric) == pytest.approx(10.0)
        assert min_positive_distance(line_metric) == pytest.approx(1.0)
        assert aspect_ratio(line_metric) == pytest.approx(10.0)

    def test_single_point_has_no_positive_distance(self):
        with pytest.raises(ValueError):
            min_positive_distance(LineMetric([3.0]))
