"""Conformance grid for the sharded gain backend.

The ISSUE contract: every :class:`repro.core.gains.GainBackend`
primitive of a :class:`repro.distributed.ShardedBackend` is
**bit-identical** to the dense reference at ``epsilon = 0`` for
W ∈ {1, 2, 4, 8} — including shared-node instances with infinite gains
and both link directions — and to a :class:`SparseBackend` of the same
``epsilon`` when pruning is on.  First-fit through the sharded driver
(`first_fit_colors_sharded`) must color identically to the dense path,
end to end through :class:`repro.Problem`.

All cases here run on the serial executor (the conformance reference);
real-process equivalence is covered by ``test_process_and_faults.py``.
"""

import numpy as np
import pytest

import oracle
from repro.api import Problem
from repro.core.context import clear_context_cache, get_context
from repro.core.gains import build_backend, config_scope, default_config
from repro.core.instance import Direction, Instance
from repro.core.kernels import first_fit_colors_sharded
from repro.distributed import ShardedBackend, shard_bounds
from repro.geometry.line import LineMetric
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower
from repro.scheduling.firstfit import first_fit_schedule
from repro.scheduling.registry import run_algorithm

WORKER_GRID = (1, 2, 4, 8)


def _shared_node_instance(direction):
    metric = LineMetric([0.0, 1.0, 2.5, 4.5, 7.0])
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
    return Instance(
        metric,
        [p[0] for p in pairs],
        [p[1] for p in pairs],
        direction=direction,
    )


def _grid():
    cases = {}
    for direction in (Direction.DIRECTED, Direction.BIDIRECTIONAL):
        tag = direction.value[:3]
        inst = random_uniform_instance(24, rng=31, direction=direction)
        cases[f"euclid-{tag}"] = (inst, SquareRootPower()(inst))
        shared = _shared_node_instance(direction)
        cases[f"shared-{tag}"] = (shared, np.ones(shared.n))
    return cases


GRID = _grid()


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


def _serial_config(workers):
    return default_config(
        backend="sharded",
        sparse_epsilon=0.0,
        workers=workers,
        shard_executor="serial",
    )


def _sharded(instance, powers, workers, epsilon=0.0):
    return ShardedBackend.build(
        instance, powers, epsilon=epsilon, workers=workers, executor="serial"
    )


class TestShardBounds:
    def test_partition_properties(self):
        for n in (0, 1, 5, 24, 131):
            for workers in WORKER_GRID:
                bounds = shard_bounds(n, workers)
                assert len(bounds) == workers
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n
                sizes = [hi - lo for lo, hi in bounds]
                assert all(s >= 0 for s in sizes)
                assert max(sizes) - min(sizes) <= 1
                for (_, prev_hi), (lo, _) in zip(bounds, bounds[1:]):
                    assert prev_hi == lo

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            shard_bounds(8, 0)


class TestLosslessBitIdentity:
    """Sharded at epsilon=0 must reproduce every dense primitive
    bitwise, at every worker count."""

    @pytest.mark.parametrize("name", sorted(GRID))
    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_primitives_match_dense(self, name, workers):
        instance, powers = GRID[name]
        dense = build_backend(
            instance, powers, config=default_config(backend="dense")
        )
        sharded = _sharded(instance, powers, workers)
        assert sharded.workers == workers
        assert sharded.is_lossless
        assert sharded.directed == dense.directed
        assert sharded.has_infinite_gains == dense.has_infinite_gains
        np.testing.assert_array_equal(sharded.pruned_mass_u, 0.0)
        np.testing.assert_array_equal(sharded.pruned_mass_v, 0.0)
        n = instance.n
        idx = np.arange(0, n, 2)
        members = np.asarray([0, n - 1])
        colors = np.arange(n) % 3
        for endpoint in ("u", "v"):
            def op(backend, method, *args, e=endpoint):
                return getattr(backend, f"{method}_{e}")(*args)

            for j in (0, n // 2, n - 1):
                np.testing.assert_array_equal(
                    op(dense, "col", j), op(sharded, "col", j)
                )
                np.testing.assert_array_equal(
                    op(dense, "row", j), op(sharded, "row", j)
                )
            np.testing.assert_array_equal(
                op(dense, "gather_cols", members),
                op(sharded, "gather_cols", members),
            )
            np.testing.assert_array_equal(
                op(dense, "block", idx), op(sharded, "block", idx)
            )
            np.testing.assert_array_equal(
                op(dense, "cross_block", idx, members),
                op(sharded, "cross_block", idx, members),
            )
            np.testing.assert_array_equal(
                op(dense, "row_sums", idx), op(sharded, "row_sums", idx)
            )
            np.testing.assert_array_equal(
                op(dense, "row_sums", idx, members),
                op(sharded, "row_sums", idx, members),
            )
            for c in (None, colors):
                np.testing.assert_array_equal(
                    op(dense, "class_sum", c), op(sharded, "class_sum", c)
                )
            np.testing.assert_array_equal(
                op(dense, "dense"), op(sharded, "dense")
            )
        np.testing.assert_array_equal(dense.dense_ut(), sharded.dense_ut())
        np.testing.assert_array_equal(dense.dense_vt(), sharded.dense_vt())
        sharded.close()

    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_first_fit_schedule_matches_dense(self, workers):
        instance, powers = GRID["euclid-dir"]
        with config_scope(backend="dense"):
            baseline = first_fit_schedule(instance, powers)
        with config_scope(
            backend="sharded",
            workers=workers,
            shard_executor="serial",
            sparse_epsilon=0.0,
        ):
            sharded = first_fit_schedule(instance, powers)
        np.testing.assert_array_equal(baseline.colors, sharded.colors)
        replay = oracle.first_fit(instance, powers)
        assert not replay.ambiguous
        np.testing.assert_array_equal(sharded.colors, replay.value)


class TestPrunedMatchesSparse:
    """At epsilon > 0, sharding is transparent: every primitive equals
    a SparseBackend of the same epsilon bit for bit."""

    @pytest.mark.parametrize("workers", (2, 4))
    @pytest.mark.parametrize("name", ("euclid-dir", "euclid-bid"))
    def test_primitives_match_sparse(self, name, workers):
        instance, powers = GRID[name]
        epsilon = 0.05
        sparse = build_backend(
            instance,
            powers,
            config=default_config(backend="sparse", sparse_epsilon=epsilon),
        )
        sharded = _sharded(instance, powers, workers, epsilon=epsilon)
        assert not sharded.is_lossless
        assert sharded.nnz == sparse.nnz
        np.testing.assert_array_equal(
            sharded.pruned_mass_u, sparse.pruned_mass_u
        )
        np.testing.assert_array_equal(
            sharded.pruned_mass_v, sparse.pruned_mass_v
        )
        n = instance.n
        idx = np.arange(0, n, 3)
        colors = np.arange(n) % 4
        for endpoint in ("u", "v"):
            def op(backend, method, *args, e=endpoint):
                return getattr(backend, f"{method}_{e}")(*args)

            np.testing.assert_array_equal(
                op(sparse, "dense"), op(sharded, "dense")
            )
            np.testing.assert_array_equal(
                op(sparse, "col", n // 2), op(sharded, "col", n // 2)
            )
            np.testing.assert_array_equal(
                op(sparse, "class_sum", colors),
                op(sharded, "class_sum", colors),
            )
            np.testing.assert_array_equal(
                op(sparse, "row_sums", idx), op(sharded, "row_sums", idx)
            )
        sharded.close()


class TestColumnCache:
    def test_prefetch_then_hits_are_local(self):
        instance, powers = GRID["euclid-dir"]
        backend = _sharded(instance, powers, 4)
        dense = build_backend(
            instance, powers, config=default_config(backend="dense")
        )
        js = np.arange(6)
        backend.prefetch_columns(js)
        for j in js:
            np.testing.assert_array_equal(
                backend.col_u(int(j)), dense.col_u(int(j))
            )
            np.testing.assert_array_equal(
                backend.col_v(int(j)), dense.col_v(int(j))
            )
        backend.close()

    def test_cache_is_bounded(self):
        instance, powers = GRID["euclid-dir"]
        backend = _sharded(instance, powers, 2)
        limit = 4
        backend.COLUMN_CACHE_LIMIT = limit
        for j in range(instance.n):
            backend.col_u(j)
        assert len(backend._col_cache) <= limit
        backend.close()

    def test_directed_columns_alias(self):
        instance, powers = GRID["euclid-dir"]
        backend = _sharded(instance, powers, 2)
        assert backend.col_v(0) is backend.col_u(0)
        backend.close()


class TestShardedFirstFitDriver:
    """The windowed admission driver must be window-size invariant."""

    @pytest.mark.parametrize("window", (1, 3, 64))
    def test_window_invariance(self, window):
        instance, powers = GRID["euclid-dir"]
        context = get_context(instance, powers, config=_serial_config(2))
        order = np.argsort(-instance.link_distances, kind="stable")
        limits = context.budgets() * (1.0 + 1e-9)
        colors = first_fit_colors_sharded(
            context, order, limits, window=window
        )
        with config_scope(backend="dense"):
            baseline = first_fit_schedule(instance, powers)
        np.testing.assert_array_equal(colors, baseline.colors)

    def test_window_must_leave_room_for_the_lookahead(self):
        # Two windows must fit the column cache (256): 128 runs and
        # colors as dense does, 129 is refused before any admission.
        instance = random_uniform_instance(300, rng=5, direction="directed")
        powers = SquareRootPower()(instance)
        context = get_context(instance, powers, config=_serial_config(2))
        order = np.argsort(-instance.link_distances, kind="stable")
        limits = context.budgets() * (1.0 + 1e-9)
        with pytest.raises(ValueError, match=r"window 129.*\(256 columns\)"):
            first_fit_colors_sharded(context, order, limits, window=129)
        colors = first_fit_colors_sharded(context, order, limits, window=128)
        with config_scope(backend="dense"):
            baseline = first_fit_schedule(instance, powers)
        np.testing.assert_array_equal(colors, baseline.colors)

    def test_window_validated(self):
        instance, powers = GRID["euclid-dir"]
        context = get_context(instance, powers, config=_serial_config(2))
        with pytest.raises(ValueError):
            first_fit_colors_sharded(
                context, np.arange(instance.n), context.budgets(), window=0
            )


class TestProblemIntegration:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_problem_first_fit_bit_identical_and_certified(self, workers):
        instance, _ = GRID["euclid-bid"]
        dense_result = (
            Problem(instance, backend="dense").session().schedule("first_fit")
        )
        result = (
            Problem(
                instance,
                backend="sharded",
                workers=workers,
                shard_executor="serial",
                sparse_epsilon=0.0,
            )
            .session()
            .schedule("first_fit")
        )
        np.testing.assert_array_equal(
            dense_result.schedule.colors, result.schedule.colors
        )
        assert result.provenance.certified is True
        assert result.provenance.backend == "sharded"

    def test_registry_algorithm(self):
        instance, _ = GRID["euclid-dir"]
        powers = SquareRootPower()(instance)
        baseline = run_algorithm("first_fit", instance, powers=powers)
        sharded = run_algorithm(
            "first_fit_sharded",
            instance,
            powers=powers,
            workers=2,
            executor="serial",
        )
        np.testing.assert_array_equal(
            baseline.schedule.colors, sharded.schedule.colors
        )

    def test_workers_require_sharded_backend(self):
        instance, _ = GRID["euclid-dir"]
        with pytest.raises(ValueError, match="sharded"):
            Problem(instance, backend="dense", workers=2)
        with pytest.raises(ValueError, match="sharded"):
            Problem(instance, backend="sparse", shard_executor="serial")

    def test_context_cache_keys_on_workers(self):
        instance, powers = GRID["euclid-dir"]
        a = get_context(instance, powers, config=_serial_config(2))
        b = get_context(instance, powers, config=_serial_config(4))
        same = get_context(instance, powers, config=_serial_config(2))
        assert a is not b
        assert a is same
        assert a.backend.workers == 2
        assert b.backend.workers == 4

    def test_replace_requests_unsupported(self):
        instance, powers = GRID["euclid-dir"]
        backend = _sharded(instance, powers, 2)
        with pytest.raises(NotImplementedError):
            backend.replace_requests([0], instance, powers)
        backend.close()

    def test_session_arrival_refused_before_any_mutation(self):
        """A built sharded session cannot take arrivals; it refuses
        before touching its free list, problem, powers or context."""
        instance = random_uniform_instance(20, rng=3)
        problem = Problem(
            instance, backend="sharded", workers=2, shard_executor="serial"
        )
        session = problem.session()
        before = session.schedule("first_fit").colors.copy()
        with pytest.raises(NotImplementedError, match="sharded"):
            session.add_requests([(0, 5)])
        assert session.check_consistency() is None
        assert session.instance is instance
        assert session.powers.shape == (20,)
        np.testing.assert_array_equal(session.schedule("first_fit").colors, before)
