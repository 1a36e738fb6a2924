"""Tests for the Theorem 15 LP coloring algorithm."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import repro.scheduling.sqrt_coloring as sqrt_module
from repro.core.context import get_context
from repro.core.instance import Direction, Instance
from repro.geometry.line import LineMetric
from repro.instances.nested import nested_instance
from repro.instances.random_instances import clustered_instance, random_uniform_instance
from repro.power.oblivious import SquareRootPower
from repro.scheduling.sqrt_coloring import (
    SqrtColoringStats,
    _distance_classes,
    sqrt_coloring,
)


class TestDistanceClasses:
    def test_factor_four_buckets(self):
        distances = np.array([1.0, 3.9, 4.1, 16.5, 70.0])
        classes = _distance_classes(distances)
        grouped = [set(c.tolist()) for c in classes]
        assert {0, 1} in grouped
        assert {2} in grouped
        assert {3} in grouped
        assert {4} in grouped

    def test_single_class(self):
        classes = _distance_classes(np.array([5.0, 6.0, 7.0]))
        assert len(classes) == 1

    def test_all_positions_covered(self, rng):
        distances = np.exp(rng.uniform(0, 10, size=30))
        classes = _distance_classes(distances)
        covered = sorted(np.concatenate(classes).tolist())
        assert covered == list(range(30))


class TestSqrtColoring:
    def test_feasible_and_complete(self, small_random_instance):
        schedule, stats = sqrt_coloring(small_random_instance, rng=0)
        schedule.validate(small_random_instance)
        assert np.all(schedule.colors >= 0)
        assert isinstance(stats, SqrtColoringStats)

    def test_uses_sqrt_powers(self, small_random_instance):
        schedule, _ = sqrt_coloring(small_random_instance, rng=0)
        expected = SquareRootPower()(small_random_instance)
        assert np.allclose(schedule.powers, expected)

    def test_greedy_variant_feasible(self, small_random_instance):
        schedule, stats = sqrt_coloring(small_random_instance, rng=0, use_lp=False)
        schedule.validate(small_random_instance)
        assert stats.lp_solves == 0

    def test_lp_variant_solves_lps(self, rng):
        inst = clustered_instance(15, rng=rng)
        _, stats = sqrt_coloring(inst, rng=0, use_lp=True)
        assert stats.lp_solves > 0

    def test_deterministic_given_seed(self, small_random_instance):
        a, _ = sqrt_coloring(small_random_instance, rng=7)
        b, _ = sqrt_coloring(small_random_instance, rng=7)
        assert np.array_equal(a.colors, b.colors)

    def test_nested_instance_gets_few_colors(self):
        inst = nested_instance(20, beta=0.5)
        schedule, _ = sqrt_coloring(inst, rng=0)
        schedule.validate(inst)
        # Theorem 2 regime: polylog colors, far below n.
        assert schedule.num_colors <= 12

    def test_stats_class_sizes_sum_to_n(self, small_random_instance):
        schedule, stats = sqrt_coloring(small_random_instance, rng=0)
        assert sum(stats.class_sizes) == small_random_instance.n
        assert stats.rounds == len(stats.class_sizes)

    def test_beta_override(self, small_random_instance):
        schedule, _ = sqrt_coloring(small_random_instance, rng=0, beta=4.0)
        schedule.validate(small_random_instance, beta=4.0)

    def test_single_request(self):
        inst = random_uniform_instance(1, rng=0)
        schedule, _ = sqrt_coloring(inst, rng=0)
        assert schedule.num_colors == 1

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_always_feasible(self, seed):
        inst = random_uniform_instance(10, rng=seed)
        schedule, _ = sqrt_coloring(inst, rng=seed)
        schedule.validate(inst)


class TestSqrtColoringDirected:
    def test_directed_instances_supported(self, rng):
        from repro.core.instance import Direction

        inst = random_uniform_instance(
            12, direction=Direction.DIRECTED, rng=rng
        )
        schedule, _ = sqrt_coloring(inst, rng=0)
        schedule.validate(inst)

    def test_directed_never_needs_more_than_bidirectional(self):
        from repro.core.instance import Direction

        for seed in range(3):
            bidir = random_uniform_instance(12, rng=seed)
            direct = bidir.with_direction(Direction.DIRECTED)
            sched_b, _ = sqrt_coloring(bidir, rng=seed)
            sched_d, _ = sqrt_coloring(direct, rng=seed)
            # Directed constraints are weaker pointwise; the randomized
            # algorithm is not strictly monotone, allow +1 slack.
            assert sched_d.num_colors <= sched_b.num_colors + 1


class TestSqrtColoringWithLocalSearch:
    def test_local_search_composes(self, rng):
        from repro.instances.random_instances import clustered_instance
        from repro.scheduling.local_search import improve_schedule

        inst = clustered_instance(20, rng=rng)
        schedule, _ = sqrt_coloring(inst, rng=0)
        improved = improve_schedule(inst, schedule)
        improved.validate(inst)
        assert improved.num_colors <= schedule.num_colors


class TestSingleRequestFallback:
    """The guaranteed-progress path: when no candidate survives the
    repair/thinning passes (here: ambient noise so strong that even
    singletons miss their SINR target), every round must still extract
    the longest remaining request on its own."""

    def _run(self, noise):
        from repro.core.instance import Instance
        from repro.instances.random_instances import random_uniform_instance

        base = random_uniform_instance(6, rng=3)
        inst = Instance(
            base.metric,
            base.senders,
            base.receivers,
            direction=base.direction,
            alpha=base.alpha,
            beta=base.beta,
            noise=noise,
        )
        return inst, sqrt_coloring(inst, rng=0, use_lp=False)

    def test_fallback_emits_singletons_and_terminates(self):
        inst, (schedule, stats) = self._run(noise=1e12)
        # One request per round, each class a singleton.
        assert stats.rounds == inst.n
        assert sorted(schedule.colors.tolist()) == list(range(inst.n))
        assert stats.class_sizes == [1] * inst.n

    def test_fallback_picks_longest_first(self):
        import numpy as np

        inst, (schedule, stats) = self._run(noise=1e12)
        # Round r extracts the longest request still alive, so colors
        # sort by descending link length (ties impossible here).
        order = np.argsort(-inst.link_distances, kind="stable")
        assert schedule.colors[order].tolist() == list(range(inst.n))


@pytest.fixture
def linprog_calls(monkeypatch):
    """Record the keyword arguments of every class-LP ``linprog`` call
    (through the module attribute the solver looks up)."""
    calls = []
    real = sqrt_module.linprog

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(sqrt_module, "linprog", spy)
    return calls


def _separated_links():
    """Four unit links 1000 apart: every class LP has all-ones feasible."""
    metric = LineMetric([0.0, 1.0, 1000.0, 1001.0, 2000.0, 2001.0, 3000.0, 3001.0])
    return Instance.directed(metric, [(0, 1), (2, 3), (4, 5), (6, 7)])


def _shared_node_chain(direction):
    """Consecutive requests share a node: infinite mutual gain."""
    metric = LineMetric([0.0, 1.0, 2.5, 4.5, 7.0])
    return Instance(metric, [0, 1, 2, 3], [1, 2, 3, 4], direction=direction)


class TestClassLP:
    @pytest.mark.parametrize(
        "direction, rows_per_candidate",
        [(Direction.DIRECTED, 1), (Direction.BIDIRECTIONAL, 2)],
    )
    def test_one_row_per_distinct_constraint(
        self, linprog_calls, direction, rows_per_candidate
    ):
        inst = random_uniform_instance(20, rng=3, direction=direction)
        sqrt_coloring(inst, rng=0)
        assert linprog_calls, "instance must exercise HiGHS"
        for call in linprog_calls:
            k = call["c"].size
            assert call["A_ub"].shape == (rows_per_candidate * k, k)
            assert call["b_ub"].shape == (rows_per_candidate * k,)
            assert call["bounds"] == (0.0, 1.0)

    def test_all_fit_class_skips_highs(self, linprog_calls):
        inst = _separated_links()
        schedule, stats = sqrt_coloring(inst, rng=0)
        schedule.validate(inst)
        assert linprog_calls == []
        assert stats.lp_solves >= 1
        # The first class holds every request: objective k = n.
        assert stats.lp_objectives[0] == inst.n

        # HiGHS on the same LP agrees: all ones.
        powers = SquareRootPower()(inst)
        context = get_context(inst, powers)
        every = np.arange(inst.n)
        budget = (2.0**inst.alpha) * (context.signals / inst.beta) / 2.0
        result = scipy.optimize.linprog(
            c=-np.ones(inst.n),
            A_ub=context.backend.block_u(every),
            b_ub=budget,
            bounds=(0.0, 1.0),
            method="highs",
        )
        assert result.success
        np.testing.assert_array_equal(result.x, np.ones(inst.n))

    def test_mixed_instance_calls_highs_only_for_tight_classes(
        self, linprog_calls
    ):
        inst = random_uniform_instance(20, rng=3, direction="directed")
        _, stats = sqrt_coloring(inst, rng=0)
        assert 0 < len(linprog_calls) < stats.lp_solves

    def test_directed_shared_node_chain_lps_succeed(self):
        inst = _shared_node_chain(Direction.DIRECTED)
        schedule, stats = sqrt_coloring(inst, rng=99)
        assert stats.lp_solves == len(stats.lp_objectives) > 0
        assert max(stats.lp_objectives) > 0
        powers = SquareRootPower()(inst)
        assert oracle.SINROracle(inst, powers).feasible(schedule.colors)
        # Consecutive requests share a node: they never share a color.
        assert np.all(np.diff(schedule.colors) != 0)

    def test_bidirectional_shared_node_chain_has_no_finite_column(
        self, linprog_calls
    ):
        inst = _shared_node_chain(Direction.BIDIRECTIONAL)
        schedule, stats = sqrt_coloring(inst, rng=99)
        assert linprog_calls == []
        assert stats.lp_objectives and set(stats.lp_objectives) == {0.0}
        schedule.validate(inst)

    def test_failed_solve_raises(self, monkeypatch):
        def failing(*args, **kwargs):
            return scipy.optimize.OptimizeResult(
                success=False, status=4, message="numerical trouble"
            )

        monkeypatch.setattr(sqrt_module, "linprog", failing)
        inst = random_uniform_instance(20, rng=3, direction="directed")
        with pytest.raises(RuntimeError, match="numerical trouble"):
            sqrt_coloring(inst, rng=0)


def _class_lp_corpus():
    """Instances whose class LPs reach HiGHS, both row layouts."""
    for direction in ("directed", "bidirectional"):
        for n, seed in ((20, 3), (40, 1), (60, 2)):
            yield random_uniform_instance(n, rng=seed, direction=direction)
    yield clustered_instance(40, rng=5)
    yield clustered_instance(40, rng=6, direction="directed")
    for direction in (Direction.DIRECTED, Direction.BIDIRECTIONAL):
        yield _shared_node_cluster(direction)


def _shared_node_cluster(direction):
    """Six unit links 0.5 apart, tight enough for HiGHS, and a seventh
    sharing the first one's receiver node: its infinite column is
    dropped from the class LP."""
    points = [x for j in range(6) for x in (1.5 * j, 1.5 * j + 1.0)] + [2.0]
    senders = [2 * j for j in range(6)] + [1]
    receivers = [2 * j + 1 for j in range(6)] + [12]
    return Instance(LineMetric(points), senders, receivers, direction=direction)


class TestDirectHighs:
    """``sqrt_coloring.linprog`` talks to HiGHS without scipy's
    ``linprog`` wrapper; its ``x`` must be bitwise scipy's."""

    def test_scipy_ships_the_highs_binding(self):
        floor = "scipy>=1.15 (pyproject.toml)"
        try:
            from scipy.optimize._highspy import _core
        except ImportError as exc:  # pragma: no cover - old or moved scipy
            pytest.fail(
                f"scipy {scipy.__version__} has no scipy.optimize._highspy._core, "
                f"which sqrt_coloring.linprog needs; the floor is {floor}: {exc}"
            )
        for name in (
            "_Highs", "HighsLp", "HighsOptions", "HighsStatus",
            "HighsModelStatus", "HighsDebugLevel", "MatrixFormat",
            "simplex_constants",
        ):
            assert hasattr(_core, name), (
                f"scipy {scipy.__version__}'s HiGHS binding lacks {name}, "
                f"which sqrt_coloring.linprog needs; the floor is {floor}"
            )

    def test_every_class_lp_matches_scipy_linprog(self, monkeypatch):
        solved = []
        real = sqrt_module.linprog

        def spy(**kwargs):
            result = real(**kwargs)
            solved.append((kwargs, result))
            return result

        monkeypatch.setattr(sqrt_module, "linprog", spy)
        for seed, inst in enumerate(_class_lp_corpus()):
            sqrt_coloring(inst, rng=seed)
        assert len(solved) > 20
        rows_per_column = {call["A_ub"].shape[0] / call["c"].size for call, _ in solved}
        # Both row layouts, and LPs with a dropped infinite column.
        assert {1.0, 2.0} < rows_per_column
        for call, result in solved:
            reference = scipy.optimize.linprog(**call)
            assert result.success and reference.success
            assert result.status == 0
            np.testing.assert_array_equal(result.x, reference.x)

    def test_nan_in_a_ub_fails(self):
        a_ub = np.array([[1.0, np.nan], [3.0, 1.0]])
        result = sqrt_module.linprog(
            c=-np.ones(2), A_ub=a_ub, b_ub=np.ones(2), bounds=(0.0, 1.0)
        )
        assert not result.success
        assert result.status != 0
        assert "NaN" in result.message

    def test_nan_class_lp_raises(self, monkeypatch):
        real = sqrt_module.linprog

        def poisoned(**kwargs):
            a_ub = kwargs["A_ub"].copy()
            a_ub[0, :] = np.nan
            return real(**{**kwargs, "A_ub": a_ub})

        monkeypatch.setattr(sqrt_module, "linprog", poisoned)
        inst = random_uniform_instance(20, rng=3, direction="directed")
        with pytest.raises(RuntimeError, match="NaN"):
            sqrt_coloring(inst, rng=0)

    def test_non_optimal_status_fails_and_raises(self, monkeypatch):
        from scipy.optimize._highspy import _core

        class IterationLimit(_core._Highs):
            def getModelStatus(self):
                return _core.HighsModelStatus.kIterationLimit

        monkeypatch.setattr(_core, "_Highs", IterationLimit)
        result = sqrt_module.linprog(
            c=-np.ones(2),
            A_ub=np.array([[1.0, 2.0], [3.0, 1.0]]),
            b_ub=np.ones(2),
        )
        assert not result.success and result.x is None
        assert "Iteration limit" in result.message
        inst = random_uniform_instance(20, rng=3, direction="directed")
        with pytest.raises(RuntimeError, match="Iteration limit"):
            sqrt_coloring(inst, rng=0)

    def test_other_methods_are_refused(self):
        with pytest.raises(ValueError, match="highs"):
            sqrt_module.linprog(
                c=-np.ones(1), A_ub=np.ones((1, 1)), b_ub=np.ones(1),
                method="highs-ipm",
            )
