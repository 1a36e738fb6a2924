"""Conformance tests for the batched interference layer.

The contract of :mod:`repro.core.batch` is *exact* agreement with the
per-pair :class:`repro.core.context.InterferenceContext` queries, on
both the stacked (shared-shape) and the ragged fallback paths.
"""

import numpy as np
import pytest

from repro.api import BatchSession, Problem
from repro.core.batch import (
    ContextBatch,
    ContextPool,
    batch_margins,
    batch_validate_schedules,
    reset_fallback_warnings,
)
from repro.core.context import get_context
from repro.core.errors import InvalidScheduleError
from repro.core.gains import default_config
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.geometry.line import LineMetric
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower, UniformPower
from repro.scheduling.firstfit import first_fit_schedule


#: Dense storage namespaces to batch on: numpy plus the process
#: default's (``REPRO_ARRAY_NAMESPACE``, numpy unless set).
NAMESPACES = sorted({"numpy", default_config().array_namespace})

#: ``(backend, sparse_epsilon, array_namespace)`` of the lossless
#: configurations the stacked paths must match numpy dense on.
SPARSE = pytest.param("sparse", 0.0, None, id="sparse-0.0")
DENSE = [pytest.param("dense", None, ns, id=f"dense-{ns}") for ns in NAMESPACES]


def _pairs(n_values, direction="bidirectional", seed=0):
    pairs = []
    for i, n in enumerate(n_values):
        instance = random_uniform_instance(
            n, direction=direction, rng=seed + i
        )
        powers = SquareRootPower()(instance)
        pairs.append((instance, powers))
    return pairs


def _batch_session(pairs, **config):
    """A :class:`BatchSession` over *pairs*, each problem pinned to its
    pair's powers and to *config*."""
    return BatchSession(
        [Problem(instance, powers=powers, **config) for instance, powers in pairs]
    )


class TestStacked:
    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    def test_margins_match_per_context_exactly(self, direction, dense_backend):
        pairs = _pairs([12, 12, 12], direction=direction)
        batch = ContextBatch(pairs)
        assert batch.stacked
        margins = batch.margins()
        assert margins.shape == (3, 12)
        for row, (instance, powers) in zip(margins, pairs):
            expected = get_context(instance, powers).margins()
            np.testing.assert_array_equal(row, expected)

    def test_colored_margins_match(self):
        pairs = _pairs([10, 10])
        schedules = [
            first_fit_schedule(instance, powers) for instance, powers in pairs
        ]
        batch = ContextBatch(pairs)
        margins = batch.margins(colors=[s.colors for s in schedules])
        for row, (instance, powers), sched in zip(margins, pairs, schedules):
            expected = get_context(instance, powers).margins(colors=sched.colors)
            np.testing.assert_array_equal(row, expected)

    def test_interference_matches(self):
        pairs = _pairs([9, 9, 9, 9])
        batch = ContextBatch(pairs)
        interf = batch.interference()
        for row, (instance, powers) in zip(interf, pairs):
            expected = get_context(instance, powers).interference()
            np.testing.assert_array_equal(row, expected)

    def test_beta_noise_overrides(self):
        pairs = _pairs([8, 8])
        batch = ContextBatch(pairs)
        margins = batch.margins(beta=0.5, noise=0.1)
        for row, (instance, powers) in zip(margins, pairs):
            expected = get_context(instance, powers).margins(beta=0.5, noise=0.1)
            np.testing.assert_array_equal(row, expected)

    def test_mixed_powers_same_instance(self, dense_backend):
        instance = random_uniform_instance(10, rng=5)
        pairs = [
            (instance, UniformPower()(instance)),
            (instance, SquareRootPower()(instance)),
        ]
        batch = ContextBatch(pairs)
        assert batch.stacked
        margins = batch.margins()
        for row, (_, powers) in zip(margins, pairs):
            expected = get_context(instance, powers).margins()
            np.testing.assert_array_equal(row, expected)


class TestRagged:
    def test_falls_back_and_matches(self):
        pairs = _pairs([6, 9, 12])
        batch = ContextBatch(pairs)
        assert not batch.stacked
        margins = batch.margins()
        assert isinstance(margins, list)
        for row, (instance, powers) in zip(margins, pairs):
            expected = get_context(instance, powers).margins()
            np.testing.assert_array_equal(row, expected)

    def test_feasible_vector(self):
        pairs = _pairs([6, 9])
        schedules = [
            first_fit_schedule(instance, powers) for instance, powers in pairs
        ]
        batch = ContextBatch(pairs)
        feasible = batch.feasible(colors=[s.colors for s in schedules])
        assert feasible.shape == (2,)
        assert feasible.all()

    def test_mixed_direction_is_ragged(self):
        pairs = _pairs([8], direction="bidirectional") + _pairs(
            [8], direction="directed", seed=9
        )
        assert not ContextBatch(pairs).stacked


class TestValidation:
    def test_valid_schedules_pass(self):
        pairs = _pairs([10, 10, 10])
        instances = [instance for instance, _ in pairs]
        schedules = [
            first_fit_schedule(instance, powers) for instance, powers in pairs
        ]
        batch_validate_schedules(instances, schedules)

    def test_single_shared_instance(self):
        instance = random_uniform_instance(10, rng=3)
        schedules = [
            first_fit_schedule(instance, UniformPower()(instance)),
            first_fit_schedule(instance, SquareRootPower()(instance)),
        ]
        batch_validate_schedules(instance, schedules)

    def test_infeasible_schedule_raises_with_pair_index(self):
        pairs = _pairs([10, 10])
        instances = [instance for instance, _ in pairs]
        good = first_fit_schedule(*pairs[0])
        # Drown request 0: negligible power against nine loud one-color
        # interferers cannot meet its SINR constraint.
        bad_powers = np.full(10, 1e6)
        bad_powers[0] = 1e-9
        bad = Schedule(colors=np.zeros(10, dtype=int), powers=bad_powers)
        assert not bad.is_feasible(instances[1])
        with pytest.raises(InvalidScheduleError, match="pair 1"):
            batch_validate_schedules(instances, [good, bad])

    def test_matches_schedule_validate_decision(self):
        pairs = _pairs([8, 8, 8], seed=21)
        instances = [instance for instance, _ in pairs]
        schedules = [
            first_fit_schedule(instance, powers) for instance, powers in pairs
        ]
        batch = ContextBatch.for_schedules(instances, schedules)
        feasible = batch.feasible(colors=[s.colors for s in schedules])
        expected = [s.is_feasible(i) for s, i in zip(schedules, instances)]
        assert feasible.tolist() == expected

    def test_count_mismatch(self):
        instance = random_uniform_instance(6, rng=1)
        schedule = first_fit_schedule(instance, UniformPower()(instance))
        with pytest.raises(ValueError):
            ContextBatch.for_schedules([instance, instance], [schedule])


class TestPool:
    def test_reuses_contexts(self):
        pool = ContextPool()
        instance = random_uniform_instance(8, rng=2)
        powers = SquareRootPower()(instance)
        first = pool.get(instance, powers)
        second = pool.get(instance, powers)
        assert first is second
        assert len(pool) == 1

    def test_warm_builds_gains(self):
        pool = ContextPool()
        pairs = _pairs([7, 7])
        pool.warm(pairs)
        assert len(pool) == 2
        for instance, powers in pairs:
            context = pool.get(instance, powers)
            assert context._backend is not None

    def test_lru_bound(self):
        pool = ContextPool(max_contexts=2)
        pairs = _pairs([5, 5, 5], seed=30)
        for instance, powers in pairs:
            pool.get(instance, powers)
        assert len(pool) == 2

    def test_batch_shares_pool(self):
        pool = ContextPool()
        pairs = _pairs([6, 6], seed=40)
        batch_a = ContextBatch(pairs, pool=pool)
        batch_b = ContextBatch(pairs, pool=pool)
        for ctx_a, ctx_b in zip(batch_a.contexts, batch_b.contexts):
            assert ctx_a is ctx_b


class TestRaggedScheduling:
    """Satellite coverage: mixed-shape batches must route through the
    pooled per-pair fallback and schedule exactly like per-pair
    ``first_fit_schedule`` — including shared-node (infinite-gain)
    pairs."""

    def _shared_node_pair(self):
        metric = LineMetric([0.0, 1.0, 2.5, 4.5, 7.0])
        request_pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
        instance = Instance.bidirectional(metric, request_pairs)
        return instance, np.ones(instance.n)

    def test_mixed_shapes_route_through_pool(self):
        pool = ContextPool()
        pairs = _pairs([6, 11, 9], seed=70)
        batch = ContextBatch(pairs, pool=pool)
        assert not batch.stacked
        # Every context of the batch is pinned in (and served from)
        # the pool.
        assert len(pool) == len(pairs)
        for ctx, (instance, powers) in zip(batch.contexts, pairs):
            assert pool.get(instance, powers) is ctx

    def test_ragged_first_fit_matches_per_pair(self):
        pairs = _pairs([6, 11, 9], seed=71)
        session = _batch_session(pairs)
        assert not session.batch.stacked
        results = session.schedule("first_fit")
        for (instance, powers), result in zip(pairs, results):
            reference = first_fit_schedule(instance, powers)
            np.testing.assert_array_equal(result.colors, reference.colors)
            np.testing.assert_array_equal(result.powers, reference.powers)
            result.schedule.validate(instance)
        assert session.validate() is session

    def test_ragged_first_fit_with_shared_node_pair(self):
        shared_instance, shared_powers = self._shared_node_pair()
        pairs = _pairs([6, 9], seed=72) + [(shared_instance, shared_powers)]
        session = _batch_session(pairs)
        assert not session.batch.stacked  # 6 vs 9 vs 4 requests
        results = session.schedule("first_fit")
        for (instance, powers), result in zip(pairs, results):
            reference = first_fit_schedule(instance, powers)
            np.testing.assert_array_equal(result.colors, reference.colors)
        # The shared-node chain must never share colors between
        # adjacent (infinite-gain) requests.
        shared_colors = results[-1].colors
        for i, j in ((0, 1), (1, 2), (2, 3)):
            assert shared_colors[i] != shared_colors[j]

    def test_ragged_validation_matches_per_pair(self):
        shared_instance, shared_powers = self._shared_node_pair()
        pairs = _pairs([6, 9], seed=73) + [(shared_instance, shared_powers)]
        batch = ContextBatch(pairs)
        assert not batch.stacked  # 6 vs 9 vs 4 requests
        schedules = [first_fit_schedule(*pair) for pair in pairs]
        batch.validate_schedules(schedules)  # must not raise
        # Corrupt the shared-node schedule: merging two adjacent
        # requests into one color must be rejected, naming the pair.
        bad = Schedule(
            colors=schedules[-1].colors.copy(), powers=shared_powers
        )
        bad.colors[1] = bad.colors[0]
        with pytest.raises(InvalidScheduleError, match="pair 2"):
            batch.validate_schedules(schedules[:-1] + [bad])


class TestConvenience:
    def test_batch_margins_helper(self, dense_backend):
        pairs = _pairs([7, 7], seed=50)
        margins = batch_margins(pairs)
        assert margins.shape == (2, 7)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ContextBatch([])


class TestMixedColors:
    def test_stacked_batch_accepts_none_entries(self, dense_backend):
        pairs = _pairs([8, 8], seed=60)
        schedule = first_fit_schedule(*pairs[1])
        batch = ContextBatch(pairs)
        assert batch.stacked
        margins = batch.margins(colors=[None, schedule.colors])
        assert isinstance(margins, list)
        np.testing.assert_array_equal(
            margins[0], get_context(*pairs[0]).margins()
        )
        np.testing.assert_array_equal(
            margins[1], get_context(*pairs[1]).margins(colors=schedule.colors)
        )
        feasible = batch.feasible(colors=[None, schedule.colors])
        assert feasible.shape == (2,)


class TestFallbackInfo:
    """The pooled-path switch is structured (BatchFallbackInfo), not
    silent (satellite of the unified-API PR)."""

    def test_stacked_batch_has_no_fallback(self, dense_backend):
        batch = ContextBatch(_pairs([10, 10]))
        assert batch.stacked
        assert batch.fallback is None

    def test_ragged_sizes_are_diagnosed(self, dense_backend):
        batch = ContextBatch(_pairs([10, 6]))
        assert not batch.stacked
        assert batch.fallback is not None
        assert batch.fallback.reasons == ("ragged_n",)
        assert batch.fallback.pairs == 2
        assert "pooled" in batch.fallback.detail

    def test_mixed_direction_is_diagnosed(self, dense_backend):
        pairs = _pairs([8], direction="bidirectional") + _pairs(
            [8], direction="directed", seed=5
        )
        batch = ContextBatch(pairs)
        assert batch.fallback.reasons == ("mixed_direction",)

    def test_lossy_backend_is_diagnosed_and_logged(self, caplog):
        import logging

        reset_fallback_warnings()
        with caplog.at_level(logging.WARNING, logger="repro.core.batch"):
            batch = ContextBatch(
                _pairs([8, 8]),
                config=default_config(backend="sparse", sparse_epsilon=1e-3),
            )
        assert batch.fallback is not None
        assert batch.fallback.reasons == ("lossy_backend",)
        assert any(
            "lossy_backend" in record.message for record in caplog.records
        )

    def test_lossless_sparse_batch_stacks(self):
        batch = ContextBatch(
            _pairs([8, 8]), config=default_config(backend="sparse", sparse_epsilon=0.0)
        )
        assert batch.stacked
        assert batch.fallback is None

    @pytest.mark.parametrize("namespace", NAMESPACES)
    def test_dense_namespace_batch_stacks(self, namespace):
        batch = ContextBatch(
            _pairs([8, 8]),
            config=default_config(backend="dense", array_namespace=namespace),
        )
        assert batch.stacked
        assert batch.fallback is None

    def test_lossy_warning_fires_once_per_call_site(self, caplog):
        """Satellite regression: the lossy-backend fallback WARNING is
        keyed by call site — repeats from the same line drop to DEBUG."""
        import logging

        reset_fallback_warnings()
        pairs = _pairs([8, 8])
        with caplog.at_level(logging.DEBUG, logger="repro.core.batch"):
            for _ in range(3):
                ContextBatch(pairs, config=default_config(backend="sparse", sparse_epsilon=1e-3))
        records = [r for r in caplog.records if "lossy_backend" in r.message]
        assert [r.levelno for r in records] == [
            logging.WARNING,
            logging.DEBUG,
            logging.DEBUG,
        ]
        # A different call site warns again.
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="repro.core.batch"):
            ContextBatch(pairs, config=default_config(backend="sparse", sparse_epsilon=1e-3))
        records = [r for r in caplog.records if "lossy_backend" in r.message]
        assert [r.levelno for r in records] == [logging.WARNING]
        reset_fallback_warnings()

    def test_multiple_reasons_compose(self, dense_backend):
        pairs = _pairs([8]) + _pairs([6], direction="directed", seed=9)
        batch = ContextBatch(pairs)
        assert set(batch.fallback.reasons) == {"ragged_n", "mixed_direction"}

    def test_ragged_shape_logs_at_debug_only(self, caplog, dense_backend):
        import logging

        with caplog.at_level(logging.DEBUG, logger="repro.core.batch"):
            ContextBatch(_pairs([10, 6]))
        records = [
            r for r in caplog.records if "ContextBatch" in r.message
        ]
        assert records and all(
            r.levelno == logging.DEBUG for r in records
        )

    def test_backend_preference_threads_to_contexts(self):
        batch = ContextBatch(
            _pairs([8]), config=default_config(backend="sparse", sparse_epsilon=0.0)
        )
        assert batch.contexts[0].config.backend == "sparse"


class TestBlockStacking:
    """The (B, n, n) stack is assembled through backend block
    primitives, so lossless backends other than numpy dense stack
    bit-identically to the numpy dense route (tentpole: close the
    dense-only batching gap)."""

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    @pytest.mark.parametrize("backend,epsilon,namespace", [SPARSE] + DENSE)
    def test_stacked_queries_match_dense(
        self, direction, backend, epsilon, namespace
    ):
        pairs = _pairs([640, 640], direction=direction, seed=80)
        dense = ContextBatch(
            pairs, config=default_config(backend="dense", array_namespace="numpy")
        )
        other = ContextBatch(
            pairs,
            config=default_config(
                backend=backend, sparse_epsilon=epsilon, array_namespace=namespace
            ),
        )
        assert dense.stacked and other.stacked
        np.testing.assert_array_equal(other.margins(), dense.margins())
        colors = [first_fit_schedule(*pair).colors for pair in pairs]
        np.testing.assert_array_equal(
            other.margins(colors=colors), dense.margins(colors=colors)
        )

    @pytest.mark.parametrize(
        "backend,epsilon,namespace",
        # numpy dense stacks its own host arrays by design.
        [SPARSE] + [param for param in DENSE if param.values[2] != "numpy"],
    )
    def test_stack_assembly_never_densifies(
        self, backend, epsilon, namespace, monkeypatch
    ):
        from repro.core import gains as gains_mod

        def boom(self, *args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("stacking materialized a dense matrix")

        cls = (
            gains_mod.SparseBackend
            if backend == "sparse"
            else gains_mod.DenseBackend
        )
        for name in ("dense_u", "dense_v", "dense_ut", "dense_vt"):
            monkeypatch.setattr(cls, name, boom)
        batch = ContextBatch(
            _pairs([12, 12], seed=81),
            config=default_config(
                backend=backend, sparse_epsilon=epsilon, array_namespace=namespace
            ),
        )
        assert batch.stacked
        batch.margins()


class TestLocalSearchSchedules:
    """Batched local search (``BatchSession.schedule("local_search",
    schedule=...)``) conforms exactly to the per-pair
    ``improve_schedule`` reference on every lossless backend and on
    ragged batches."""

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    @pytest.mark.parametrize(
        "backend,epsilon,namespace",
        [pytest.param("dense", None, None, id="dense-None"), SPARSE] + DENSE,
    )
    def test_matches_improve_schedule(
        self, direction, backend, epsilon, namespace
    ):
        from repro.scheduling.local_search import improve_schedule

        pairs = _pairs([30, 30, 30], direction=direction, seed=90)
        session = _batch_session(
            pairs,
            backend=backend,
            sparse_epsilon=epsilon,
            array_namespace=namespace,
        )
        assert session.batch.stacked
        seeds = session.schedule("first_fit")
        improved = session.schedule("local_search", schedule=seeds)
        for (instance, powers), seed, result in zip(pairs, seeds, improved):
            reference = improve_schedule(instance, seed.schedule)
            np.testing.assert_array_equal(result.colors, reference.colors)
            result.schedule.validate(instance)
        assert session.validate() is session

    def test_ragged_fallback_matches(self):
        from repro.scheduling.local_search import improve_schedule

        pairs = _pairs([10, 16], seed=91)
        session = _batch_session(pairs)
        assert not session.batch.stacked
        seeds = session.schedule("first_fit")
        improved = session.schedule("local_search", schedule=seeds)
        for (instance, powers), seed, result in zip(pairs, seeds, improved):
            reference = improve_schedule(instance, seed.schedule)
            np.testing.assert_array_equal(result.colors, reference.colors)

    def test_max_rounds_threads_through(self):
        pairs = _pairs([20, 20], seed=92)
        session = _batch_session(pairs)
        seeds = session.schedule("first_fit")
        capped = session.schedule(
            "local_search", schedule=seeds, max_rounds=0
        )
        for seed, result in zip(seeds, capped):
            np.testing.assert_array_equal(
                result.colors, seed.schedule.compacted().colors
            )

    def test_schedule_count_mismatch(self):
        pairs = _pairs([8, 8], seed=93)
        session = _batch_session(pairs)
        seeds = session.schedule("first_fit")
        with pytest.raises(ValueError, match="1 schedules for 2 problems"):
            session.schedule("local_search", schedule=seeds[:1])

    def test_foreign_powers_kept(self):
        """A seed carries its own powers: each problem's local search
        improves it under those powers, exactly as a per-pair
        ``improve_schedule`` does."""
        from repro.scheduling.local_search import improve_schedule

        pairs = _pairs([8, 8], seed=94)
        session = _batch_session(pairs)
        seeds = session.schedule("first_fit")
        foreign = Schedule(
            colors=seeds[1].colors.copy(), powers=seeds[1].powers * 2.0
        )
        improved = session.schedule(
            "local_search", schedule=[seeds[0], foreign]
        )
        reference = improve_schedule(pairs[1][0], foreign)
        np.testing.assert_array_equal(improved[1].colors, reference.colors)
        np.testing.assert_array_equal(improved[1].powers, foreign.powers)
