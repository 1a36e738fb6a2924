"""Conformance tests for the pluggable gain backends.

Contracts under test (see :mod:`repro.core.gains`):

* every backend primitive of a **lossless** sparse backend
  (``epsilon = 0``) is bit-identical to the dense backend;
* schedules computed under the sparse backend match the dense backend
  exactly when the run is certified (``flip_risk_events == 0``), and in
  particular always at ``epsilon = 0``;
* a pruned backend under-estimates interference by at most the
  recorded per-request pruned mass, and never by more than ``epsilon``
  times the row mass;
* tiled metric access (``pair_distances`` / ``distance_block``) is
  bit-identical to full-matrix gathers;
* the dense backend is numpy host storage: zero-copy read-only views,
  in-place edits that allocate only what they write;
* backend selection (defaults, scopes, env plumbing, cache keying)
  behaves as documented.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.context import clear_context_cache, get_context
from repro.core.gains import (
    BackendConfig,
    DenseBackend,
    SparseBackend,
    build_backend,
    config_scope,
    default_config,
)
from repro.core.instance import Direction, Instance
from repro.geometry.euclidean import EuclideanMetric
from repro.geometry.line import LineMetric
from repro.instances.random_instances import (
    clustered_instance,
    random_uniform_instance,
)
from repro.power.oblivious import SquareRootPower
from repro.scheduling.firstfit import first_fit_schedule
from repro.scheduling.local_search import improve_schedule
from repro.scheduling.peeling import peeling_schedule
from repro.scheduling.sqrt_coloring import sqrt_coloring


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


class TestLosslessBitIdentity:
    """Sparse at epsilon=0 must reproduce every dense primitive bitwise."""

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_primitives_match_dense(self, name):
        instance, powers = GRID[name]
        dense = build_backend(instance, powers, config=default_config(backend="dense"))
        sparse = build_backend(
            instance, powers, config=default_config(backend="sparse", sparse_epsilon=0.0)
        )
        assert sparse.is_lossless
        assert sparse.directed == dense.directed
        assert sparse.has_infinite_gains == dense.has_infinite_gains
        np.testing.assert_array_equal(sparse.pruned_mass_u, 0.0)
        n = instance.n
        idx = np.arange(0, n, 2)
        members = np.asarray([0, n - 1])
        colors = np.arange(n) % 3
        for endpoint in ("u", "v"):
            def op(backend, method, *args, e=endpoint):
                return getattr(backend, f"{method}_{e}")(*args)

            for j in (0, n // 2, n - 1):
                np.testing.assert_array_equal(
                    op(dense, "col", j), op(sparse, "col", j)
                )
                np.testing.assert_array_equal(
                    op(dense, "row", j), op(sparse, "row", j)
                )
            np.testing.assert_array_equal(
                op(dense, "gather_cols", members),
                op(sparse, "gather_cols", members),
            )
            np.testing.assert_array_equal(
                op(dense, "block", idx), op(sparse, "block", idx)
            )
            np.testing.assert_array_equal(
                op(dense, "cross_block", idx, members),
                op(sparse, "cross_block", idx, members),
            )
            for c in (None, colors):
                np.testing.assert_array_equal(
                    op(dense, "class_sum", c), op(sparse, "class_sum", c)
                )
            np.testing.assert_array_equal(
                op(dense, "dense", ), op(sparse, "dense", )
            )
        np.testing.assert_array_equal(dense.dense_worst(), sparse.dense_worst())

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_row_sums_match_block_gather(self, name):
        """row_sums_{u,v} must equal the dense block-gather row sums
        bitwise — on every backend, with and without a column subset,
        including infinite (shared-node) rows."""
        instance, powers = GRID[name]
        dense = build_backend(instance, powers, config=default_config(backend="dense"))
        sparse = build_backend(
            instance, powers, config=default_config(backend="sparse", sparse_epsilon=0.0)
        )
        n = instance.n
        rows = np.arange(n)
        cols = np.asarray(sorted({0, n - 1, n // 2}))
        for backend in (dense, sparse):
            for endpoint in ("u", "v"):
                block = getattr(backend, f"cross_block_{endpoint}")
                sums = getattr(backend, f"row_sums_{endpoint}")
                np.testing.assert_array_equal(
                    sums(rows), block(rows, rows).sum(axis=1)
                )
                np.testing.assert_array_equal(
                    sums(rows, cols), block(rows, cols).sum(axis=1)
                )
                np.testing.assert_array_equal(
                    sums(rows[::2]), block(rows[::2], rows[::2]).sum(axis=1)
                )
        # And sparse agrees with dense bitwise at epsilon=0.
        np.testing.assert_array_equal(
            dense.row_sums_u(rows), sparse.row_sums_u(rows)
        )
        np.testing.assert_array_equal(
            dense.row_sums_v(rows, cols), sparse.row_sums_v(rows, cols)
        )

    def test_row_sums_tiling_invariant(self):
        """Tiled accumulation must not change the bits: shrinking the
        tile to 1 row yields the same sums."""
        instance, powers = GRID["euclid-bid"]
        dense = build_backend(instance, powers, config=default_config(backend="dense"))
        rows = np.arange(instance.n)
        expected = dense.row_sums_u(rows)
        dense.tile_rows = 1
        np.testing.assert_array_equal(dense.row_sums_u(rows), expected)

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_context_queries_match_dense(self, name):
        instance, powers = GRID[name]
        ctx_dense = get_context(instance, powers, config=default_config(backend="dense"))
        ctx_sparse = get_context(instance, powers, config=default_config(backend="sparse"))
        assert ctx_dense is not ctx_sparse  # distinct cache slots
        np.testing.assert_array_equal(
            ctx_dense.margins(), ctx_sparse.margins()
        )
        subset = np.arange(instance.n)[::2]
        np.testing.assert_array_equal(
            ctx_dense.budget_slack(subset), ctx_sparse.budget_slack(subset)
        )
        np.testing.assert_array_equal(
            ctx_dense.greedy_max_feasible_subset(),
            ctx_sparse.greedy_max_feasible_subset(),
        )

    def test_schedulers_match_dense_bitwise(self):
        for direction in ("directed", "bidirectional"):
            instance = random_uniform_instance(32, rng=77, direction=direction)
            powers = SquareRootPower()(instance)
            reference = {
                "first_fit": first_fit_schedule(instance, powers).colors,
                "peeling": peeling_schedule(instance, powers).colors,
                "sqrt": sqrt_coloring(instance, rng=3, use_lp=False)[0].colors,
                "local_search": improve_schedule(
                    instance, first_fit_schedule(instance, powers)
                ).colors,
            }
            clear_context_cache()
            with config_scope(backend="sparse"):
                assert default_config().backend == "sparse"
                results = {
                    "first_fit": first_fit_schedule(instance, powers).colors,
                    "peeling": peeling_schedule(instance, powers).colors,
                    "sqrt": sqrt_coloring(instance, rng=3, use_lp=False)[
                        0
                    ].colors,
                    "local_search": improve_schedule(
                        instance, first_fit_schedule(instance, powers)
                    ).colors,
                }
                backend = get_context(instance, powers).backend
                assert isinstance(backend, SparseBackend)
                assert backend.flip_risk_events == 0
            for key, expected in reference.items():
                np.testing.assert_array_equal(
                    results[key], expected, err_msg=f"{direction}:{key}"
                )


class TestPrunedBackend:
    def _pruned(self, instance, powers, epsilon):
        dense = build_backend(instance, powers, config=default_config(backend="dense"))
        sparse = build_backend(
            instance,
            powers,
            config=default_config(backend="sparse", sparse_epsilon=epsilon),
        )
        return dense, sparse

    def test_pruning_drops_mass_within_budget(self):
        instance = clustered_instance(48, rng=5, direction="directed")
        powers = SquareRootPower()(instance)
        epsilon = 1e-3
        dense, sparse = self._pruned(instance, powers, epsilon)
        assert not sparse.is_lossless
        assert sparse.nnz < dense.nnz  # pruning actually removed entries
        full_dense = dense.class_sum_u(None)
        full_sparse = sparse.class_sum_u(None)
        gap = full_dense - full_sparse
        assert np.all(gap >= -1e-12)  # never over-estimates
        # Recorded bound dominates the real gap...
        assert np.all(gap <= sparse.pruned_mass_u + 1e-12 * full_dense)
        # ...and respects the epsilon budget.
        assert np.all(sparse.pruned_mass_u <= epsilon * full_dense * (1 + 1e-6))

    def test_infinite_entries_survive_pruning(self):
        instance = _shared_node_instance(Direction.BIDIRECTIONAL)
        powers = np.ones(instance.n)
        _, sparse = self._pruned(instance, powers, 0.5)
        assert sparse.has_infinite_gains
        # Adjacent shared-node requests must still see infinite gain.
        assert np.isinf(sparse.col_u(1)).any() or np.isinf(sparse.col_v(1)).any()
        ctx = get_context(
            instance,
            powers,
            config=default_config(backend="sparse", sparse_epsilon=0.5),
        )
        slack = ctx.budget_slack(np.asarray([0, 1]))
        assert np.all(np.isneginf(slack))

    def test_certified_run_matches_dense(self):
        """At-risk admissions are counted; a zero counter certifies the
        sparse first-fit schedule equals the dense one."""
        instance = random_uniform_instance(48, rng=11, direction="directed")
        powers = SquareRootPower()(instance)
        dense_colors = first_fit_schedule(instance, powers).colors
        clear_context_cache()
        # Small epsilon: pruning is active but far from any margin.
        epsilon = 1e-5
        ctx = get_context(
            instance,
            powers,
            config=default_config(backend="sparse", sparse_epsilon=epsilon),
        )
        assert not ctx.backend.is_lossless
        ctx.backend.reset_flip_risk()
        with config_scope(backend="sparse", sparse_epsilon=epsilon):
            sparse_colors = first_fit_schedule(instance, powers).colors
        assert ctx.backend.flip_risk_events == 0
        np.testing.assert_array_equal(sparse_colors, dense_colors)

    def test_certification_soundness_under_heavy_pruning(self):
        """The certification contract: whenever a sparse run diverges
        from the dense schedule, its flip-risk counter must be nonzero
        (an uncounted divergence would be a soundness bug).  Across the
        seed sweep heavy pruning must also trip the counter at least
        once, so the property has teeth."""
        epsilon = 0.3
        any_risk = False
        for seed in range(8):
            instance = random_uniform_instance(
                48, rng=400 + seed, direction="directed"
            )
            powers = SquareRootPower()(instance)
            dense_colors = first_fit_schedule(instance, powers).colors
            clear_context_cache()
            ctx = get_context(
                instance,
                powers,
                config=default_config(backend="sparse", sparse_epsilon=epsilon),
            )
            ctx.backend.reset_flip_risk()
            with config_scope(backend="sparse", sparse_epsilon=epsilon):
                sparse_colors = first_fit_schedule(instance, powers).colors
            risk = ctx.backend.flip_risk_events
            any_risk = any_risk or risk > 0
            if risk == 0:
                np.testing.assert_array_equal(
                    sparse_colors,
                    dense_colors,
                    err_msg=f"seed {seed}: uncertified divergence",
                )
        assert any_risk, "epsilon=0.3 never entered an uncertainty band"

    def test_flip_risk_counts_per_run_and_cumulatively(self):
        """Certification must be answerable per run: the kernel keeps
        its own count while the shared backend accumulates, so repeated
        runs on one cached context stay attributable."""
        from repro.core.kernels import ScheduleKernel

        instance = random_uniform_instance(48, rng=401, direction="directed")
        powers = SquareRootPower()(instance)
        epsilon = 0.3
        ctx = get_context(
            instance,
            powers,
            config=default_config(backend="sparse", sparse_epsilon=epsilon),
        )
        with config_scope(backend="sparse", sparse_epsilon=epsilon):
            first_fit_schedule(instance, powers)
            first_run = ctx.backend.flip_risk_events
            assert first_run > 0  # seed 401 trips the band (see above)
            first_fit_schedule(instance, powers)
        # The backend total accumulates run over run...
        assert ctx.backend.flip_risk_events == 2 * first_run
        # ...while a fresh kernel's own counter starts at zero and
        # counts only its run.
        kernel = ScheduleKernel(ctx)
        assert kernel.flip_risk_events == 0
        budget = ctx.budgets()
        order = np.argsort(-instance.link_distances, kind="stable")
        for req in order:
            color = kernel.first_fit_admit(int(req), budget * (1.0 + 1e-9))
            if color < 0:
                color = kernel.open_class()
            kernel.add(int(req), color)
        assert kernel.flip_risk_events == first_run
        assert ctx.backend.flip_risk_events == 3 * first_run

    def test_context_pool_keys_on_sparse_epsilon(self):
        """The context cache must never serve a context built under a
        different pruning budget; an explicit budget hits the entry
        the ambient one built."""
        from repro.core.context import cache_info

        instance = random_uniform_instance(12, rng=21)
        powers = SquareRootPower()(instance)
        lossless = get_context(
            instance, powers, config=default_config(backend="sparse")
        )
        assert lossless.config.sparse_epsilon == 0.0
        with config_scope(sparse_epsilon=0.2):
            pruned = get_context(
                instance, powers, config=default_config(backend="sparse")
            )
        assert pruned is not lossless
        assert pruned.config.sparse_epsilon == 0.2
        explicit = get_context(
            instance,
            powers,
            config=default_config(backend="sparse", sparse_epsilon=0.2),
        )
        assert explicit is pruned
        assert cache_info()["contexts"] == 2


class TestTiledMetricAccess:
    def test_euclidean_blocks_bit_identical(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0, 50, size=(40, 2))
        metric = EuclideanMetric(points)
        full = metric.distance_matrix()
        rows = np.asarray([0, 7, 39, 3])
        cols = np.arange(40)
        np.testing.assert_array_equal(
            metric.distance_block(rows, cols), full[np.ix_(rows, cols)]
        )
        us = np.asarray([0, 5, 11])
        vs = np.asarray([39, 2, 11])
        np.testing.assert_array_equal(
            metric.pair_distances(us, vs), full[us, vs]
        )
        np.testing.assert_array_equal(
            metric.loss_block(rows, cols, 3.0),
            metric.loss_matrix(3.0)[np.ix_(rows, cols)],
        )

    def test_default_metric_blocks_match(self):
        metric = LineMetric([0.0, 1.0, 3.0, 6.0, 10.0])
        full = metric.distance_matrix()
        rows = np.asarray([1, 4])
        cols = np.asarray([0, 2, 3])
        np.testing.assert_array_equal(
            metric.distance_block(rows, cols), full[np.ix_(rows, cols)]
        )

    @pytest.mark.parametrize(
        "metric",
        [
            LineMetric([0.0, 1.0, 3.0, 6.0, 10.0]),
            EuclideanMetric(np.random.default_rng(4).uniform(0, 50, size=(5, 3))),
        ],
        ids=["gathered", "coordinates"],
    )
    def test_loss_block_leaves_the_distance_cache_alone(self, metric):
        """loss_block raises its block to alpha in place: the block
        must be fresh, never a view of the cached distance matrix."""
        full = metric.distance_matrix().copy()
        rows = np.asarray([1, 4])
        cols = np.asarray([0, 2, 3])
        first = metric.loss_block(rows, cols, 3.0)
        np.testing.assert_array_equal(metric.distance_matrix(), full)
        np.testing.assert_array_equal(metric.loss_block(rows, cols, 3.0), first)
        np.testing.assert_array_equal(first, full[np.ix_(rows, cols)] ** 3.0)

    def test_instance_link_distances_unchanged(self):
        """Instance now resolves link lengths via pair_distances; the
        values must match the historical full-matrix gather bitwise."""
        instance = random_uniform_instance(16, rng=8)
        expected = instance.metric.distance_matrix()[
            instance.senders, instance.receivers
        ]
        np.testing.assert_array_equal(instance.link_distances, expected)

    @pytest.mark.parametrize("direction", ["directed", "bidirectional"])
    @pytest.mark.parametrize(
        "name", [pytest.param("dense", id="dense"), pytest.param("sparse", id="sparse")]
    )
    def test_sparse_build_never_builds_distance_matrix(self, name, direction):
        """No backend build, row sum or append may materialize the
        metric's full distance matrix on a coordinate-backed metric:
        every gain is computed from tiled metric blocks."""
        grown = random_uniform_instance(32, rng=12, direction=direction)
        powers = SquareRootPower()(grown)
        instance = grown.subset(np.arange(24))
        assert isinstance(instance.metric, EuclideanMetric)
        assert instance.metric._matrix_cache is None
        backend = build_backend(
            instance,
            powers[:24],
            config=default_config(backend=name),
        )
        backend.class_sum_u(None)
        backend.replace_requests(np.arange(24, grown.n), grown, powers)
        backend.class_sum_u(None)
        assert backend.n == grown.n
        assert instance.metric._matrix_cache is None


class TestBackendSelection:
    def test_resolve_and_default(self):
        assert default_config(backend=None) == default_config()
        assert BackendConfig("DENSE").backend == "dense"
        with pytest.raises(ValueError):
            BackendConfig("gpu")
        with pytest.raises(ValueError, match=r"one of \('dense', 'sparse', 'sharded'\)"):
            BackendConfig("array")
        with pytest.raises(ValueError):
            BackendConfig(sparse_epsilon=1.5)

    def test_scope_restores_default(self):
        before = default_config()
        with config_scope(backend="sparse"):
            assert default_config().backend == "sparse"
            with config_scope():  # no overrides = leave as is
                assert default_config().backend == "sparse"
        assert default_config() == before

    def test_scoped_default_reaches_get_context(self):
        before = default_config()
        with config_scope(backend="sparse"):
            instance = random_uniform_instance(6, rng=3)
            powers = SquareRootPower()(instance)
            ctx = get_context(instance, powers)
            assert ctx.config.backend == "sparse"
            assert isinstance(ctx.backend, SparseBackend)
        assert default_config() == before

    def test_scope_restores_default_on_exception(self):
        before = default_config()
        with pytest.raises(RuntimeError, match="boom"):
            with config_scope(backend="sparse", sparse_epsilon=0.1):
                assert default_config().sparse_epsilon == 0.1
                raise RuntimeError("boom")
        assert default_config() == before

    def test_scope_is_invisible_to_concurrent_tasks(self):
        import asyncio

        async def scoped(entered, release):
            with config_scope(backend="sparse"):
                entered.set()
                await release.wait()
                return default_config().backend

        async def bystander(entered, release):
            await entered.wait()
            seen = default_config().backend
            release.set()
            return seen

        async def main():
            entered, release = asyncio.Event(), asyncio.Event()
            return await asyncio.gather(
                scoped(entered, release), bystander(entered, release)
            )

        before = default_config().backend
        assert asyncio.run(main()) == ["sparse", before]
        assert default_config().backend == before

    def test_config_cross_checks(self):
        with pytest.raises(ValueError, match="require backend='sharded'"):
            BackendConfig().derive(backend="sparse", workers=3)
        with pytest.raises(ValueError, match="require backend='sharded'"):
            BackendConfig().derive(shard_executor="serial")
        sharded = BackendConfig().derive(backend="sharded", workers=3)
        assert sharded.workers == 3
        assert sharded.derive(shard_executor="serial").shard_executor == "serial"

    def test_config_fields(self):
        """Four fields; dense storage has no knobs of its own."""
        from dataclasses import fields

        assert [f.name for f in fields(BackendConfig)] == [
            "backend",
            "sparse_epsilon",
            "workers",
            "shard_executor",
        ]
        with pytest.raises(TypeError):
            BackendConfig(array_namespace="numpy")
        with pytest.raises(TypeError):
            default_config(device="cpu")

    def test_key_drops_ignored_fields(self):
        dense = BackendConfig("dense", sparse_epsilon=0.05, workers=7)
        assert dense.key() == BackendConfig("dense").key()
        assert dense.sparse_epsilon == 0.05  # stored fully resolved
        assert dense.pruning_epsilon == 0.0
        sparse = dense.derive(backend="sparse")
        assert sparse.key() != BackendConfig("sparse").key()
        assert sparse.pruning_epsilon == 0.05
        # Worker count and executor are read by the sharded backend only.
        assert sparse.key() == BackendConfig("sparse", 0.05, 7, "serial").key()
        sharded = BackendConfig("sharded", workers=3)
        assert sharded.key() != BackendConfig("sharded").key()

    @pytest.mark.parametrize("direction", ["directed", "bidirectional"])
    def test_dense_backend_reuses_context_arrays(self, direction):
        """The context's dense views are the backend's own arrays,
        never copies."""
        instance = random_uniform_instance(8, rng=2, direction=direction)
        powers = SquareRootPower()(instance)
        ctx = get_context(instance, powers, config=default_config(backend="dense"))
        backend = ctx.backend
        assert isinstance(backend, DenseBackend)
        assert ctx.gains_u is backend.gains_u
        assert ctx.gains_v is backend.gains_v
        assert ctx.gains_ut is backend.gains_ut
        assert ctx.gains_vt is backend.gains_vt
        assert ctx.worst_gains is backend.worst_gains
        assert not ctx.gains_u.flags.writeable
        if direction == "directed":
            assert ctx.gains_v is ctx.gains_u
            assert ctx.worst_gains is ctx.gains_u


def _peak_bytes(fn) -> int:
    """Peak bytes *fn* allocates above what is live when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestDenseStorage:
    """The dense backend is numpy host storage: primitives return views
    and copies of the stored arrays, public arrays are read-only, and
    in-place edits write only the rows and columns they change."""

    def test_gather_cols_keeps_column_layout(self):
        """A column gather has the layout of ``G[:, members]``, so the
        kernels' row reductions over it sum in the same order."""
        instance, powers = GRID["euclid-bid"]
        dense = DenseBackend.build(instance, powers)
        members = np.arange(1, instance.n, 3)
        got = dense.gather_cols_u(members)
        expected = dense.gains_u[:, members]
        np.testing.assert_array_equal(got, expected)
        assert got.strides == expected.strides
        np.testing.assert_array_equal(got.sum(axis=1), expected.sum(axis=1))

    @pytest.mark.parametrize("direction", ["directed", "bidirectional"])
    def test_edit_within_capacity_allocates_only_strips(self, direction):
        """An arrival that fits in the current capacity, and a reused
        slot, allocate O(n) bytes (the written rows and columns), never
        an (n, n) matrix: storage and the cached transposes are edited
        in place."""
        n0, n_max = 256, 264
        grown = random_uniform_instance(n_max, rng=14, direction=direction)
        powers = SquareRootPower()(grown)
        prefixes = {n: grown.subset(np.arange(n)) for n in range(n0, n_max + 1)}
        backend = DenseBackend.build(prefixes[n0], powers[:n0])
        backend.gains_ut  # transposes are cached, then edited in place
        # The first arrival grows the buffers by a quarter (to 320), so
        # the rest fit.
        backend.replace_requests([n0], prefixes[n0 + 1], powers[: n0 + 1])
        # O(n): two dozen float64 lines of length n (the edit itself
        # takes about ten), under a tenth of one (n, n) float64 matrix.
        lines = 24 * 8 * n_max
        assert lines < 8 * n0 * n0 // 10
        for n in range(n0 + 2, n_max + 1):
            peak = _peak_bytes(
                lambda: (
                    backend.replace_requests([n - 1], prefixes[n], powers[:n]),
                    backend.col_u(n - 1),
                    backend.col_v(n - 1),
                )
            )
            assert peak < lines, (n, peak)
        reuse = _peak_bytes(
            lambda: backend.replace_requests([3], prefixes[n_max], powers[:n_max])
        )
        assert reuse < lines, reuse
        cold = DenseBackend.build(grown, powers)
        np.testing.assert_array_equal(backend.dense_u(), cold.dense_u())
        np.testing.assert_array_equal(backend.dense_vt(), cold.dense_vt())

    @pytest.mark.parametrize("direction", ["directed", "bidirectional"])
    def test_pickle_round_trip(self, direction):
        """Backends travel inside pickled instances (shard payloads
        carry the instance's context cache); the storage owners stay
        behind and an edit re-derives them."""
        import pickle

        grown = random_uniform_instance(13, rng=15, direction=direction)
        powers = SquareRootPower()(grown)
        instance = grown.subset(np.arange(12))
        backend = DenseBackend.build(instance, powers[:12])
        backend.gains_ut
        state = backend.__getstate__()
        for key in ("_buf_u", "_buf_v", "_buf_ut", "_buf_vt", "_gains_t"):
            assert state[key] is None, key
        # One pickle keeps the backend's instance on grown's metric.
        again, grown_again = pickle.loads(pickle.dumps((backend, grown)))
        assert again.directed == backend.directed
        for method in ("dense_u", "dense_vt", "dense_worst"):
            np.testing.assert_array_equal(
                getattr(again, method)(), getattr(backend, method)()
            )
        np.testing.assert_array_equal(
            again.gather_cols_v([3, 1]), backend.gather_cols_v([3, 1])
        )
        again.replace_requests([12], grown_again, powers)
        np.testing.assert_array_equal(again.dense_v(), DenseBackend.build(grown, powers).dense_v())

    @pytest.mark.parametrize("direction", ["directed", "bidirectional"])
    def test_unpickled_public_arrays_stay_read_only(self, direction):
        """numpy does not pickle the read-only flag; an unpickled
        backend freezes its public arrays again, bit for bit."""
        import pickle

        instance = random_uniform_instance(8, rng=16, direction=direction)
        backend = DenseBackend.build(instance, SquareRootPower()(instance))
        names = ("gains_u", "gains_v", "gains_ut", "gains_vt", "worst_gains")
        before = {name: getattr(backend, name).tobytes() for name in names}
        again = pickle.loads(pickle.dumps(backend))
        for name in names:
            array = getattr(again, name)
            assert not array.flags.writeable, name
            assert array.tobytes() == before[name], name

    def test_array_backend_name_is_only_an_alias(self):
        """``ArrayBackend`` survives only as a body-less subclass for
        the benchmark's span list: a distinct class (wrapping its build
        must not wrap ``DenseBackend.build`` twice), not exported, and
        not a selectable backend."""
        from repro.core import gains

        assert issubclass(gains.ArrayBackend, DenseBackend)
        assert gains.ArrayBackend is not DenseBackend
        assert [k for k in vars(gains.ArrayBackend) if not k.startswith("_")] == []
        assert "ArrayBackend" not in gains.__all__
        assert gains.BACKENDS == ("dense", "sparse", "sharded")

    def test_primitives_are_zero_copy_views(self):
        """Rows, columns and the full matrices are read-only float64
        views of the stored arrays, never a copy of the whole matrix;
        blocks are fresh writable buffers."""
        instance, powers = GRID["euclid-bid"]
        dense = DenseBackend.build(instance, powers)
        col = dense.col_u(0)
        assert isinstance(col, np.ndarray)
        assert col.dtype == np.float64
        assert col.base is dense.gains_ut
        assert dense.row_v(1).base is dense.gains_v
        assert dense.dense_u() is dense.gains_u
        assert dense.dense_vt() is dense.gains_vt
        assert dense.dense_worst() is dense.worst_gains
        for arr in (col, dense.gains_u, dense.gains_vt, dense.worst_gains):
            assert not arr.flags.writeable
        block = dense.block_u(np.arange(0, instance.n, 2))
        assert block.flags.writeable and block.base is not dense.gains_u
