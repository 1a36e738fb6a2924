"""Tests for the vectorized scheduler kernels (repro.core.kernels).

Three layers of guarantees:

* **Golden equality** — every kernel-backed scheduler (first-fit,
  peeling, sqrt-coloring, local search, greedy subset extraction)
  reproduces the ``colors`` arrays pinned in
  ``tests/data/scheduler_goldens.json`` bit for bit, across directed
  and bidirectional instances including shared-node (infinite-gain)
  and trivial (zero-interference) edge cases.  The goldens were
  recorded at commit 4024ade, where each was checked identical on the
  kernel path and on the accumulator, subset-rebuild and from-scratch
  reference paths that existed then; the ``sqrt_coloring`` entries of
  the instances with shared nodes were re-recorded once their class LPs
  fixed the infinite-gain columns at 0 instead of failing in HiGHS.
  Outputs are also oracle-feasible
  (``tests/oracle.py``) and equal the oracle's greedy replay whenever
  no decision of it is too close to call.
* **Property tests** — random add/remove/move sequences keep the
  :class:`ScheduleKernel` state bitwise equal to one
  :class:`ClassAccumulator` per class, and snapshot/restore is an exact
  rollback.
* **Batch conformance** — :meth:`ContextBatch.first_fit_schedules`
  equals per-pair :func:`first_fit_schedule` on stacked and ragged
  batches.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.analysis.capacity import greedy_max_feasible_subset
from repro.core.batch import ContextBatch
from repro.core.context import (
    InterferenceContext,
    clear_context_cache,
    get_context,
)
from repro.core.errors import InvalidScheduleError
from repro.core.instance import Direction, Instance
from repro.core.kernels import (
    ScheduleKernel,
    peel_max_feasible_subset,
    stacked_local_search,
)
from repro.core.schedule import Schedule, build_schedule
from repro.geometry.line import LineMetric
from repro.instances.line_instances import equispaced_line_instance
from repro.instances.random_instances import (
    random_tree_metric_instance,
    random_uniform_instance,
)
from repro.power.oblivious import SquareRootPower
from repro.scheduling.firstfit import first_fit_schedule
from repro.scheduling.local_search import improve_schedule
from repro.scheduling.peeling import peeling_schedule
from repro.scheduling.sqrt_coloring import sqrt_coloring
from repro.scheduling.trivial import trivial_schedule


def _shared_node_instance(direction: Direction) -> Instance:
    """Chain with shared nodes: consecutive requests have infinite
    mutual gain (the inf bookkeeping edge case)."""
    metric = LineMetric([0.0, 1.0, 2.5, 4.5, 7.0])
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
    return Instance(
        metric,
        [p[0] for p in pairs],
        [p[1] for p in pairs],
        direction=direction,
    )


def _grid():
    grid = {}
    for direction in (Direction.DIRECTED, Direction.BIDIRECTIONAL):
        tag = direction.value[:3]
        for n in (1, 2, 8, 32):
            grid[f"euclid-{tag}-n{n}"] = random_uniform_instance(
                n, rng=100 + n, direction=direction
            )
            grid[f"line-{tag}-n{n}"] = equispaced_line_instance(
                n, direction=direction
            )
        grid[f"tree-{tag}-n16"] = random_tree_metric_instance(
            16, rng=216, direction=direction
        )
        grid[f"shared-node-{tag}"] = _shared_node_instance(direction)
    return grid


GRID = _grid()

GOLDENS = json.loads(
    (Path(__file__).parents[1] / "data" / "scheduler_goldens.json").read_text()
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


def _check(colors, golden, replay, feasible):
    """*colors* is oracle-feasible, equals its golden, and equals the
    oracle replay unless that replay is ambiguous."""
    assert feasible
    np.testing.assert_array_equal(colors, golden)
    if not replay.ambiguous:
        np.testing.assert_array_equal(colors, replay.value)


# ----------------------------------------------------------------------
# Golden equality and oracle decisions
# ----------------------------------------------------------------------


class TestKernelGoldenEquality:
    @pytest.mark.parametrize("name", sorted(GRID))
    def test_first_fit_bit_identical(self, name):
        instance = GRID[name]
        powers = SquareRootPower()(instance)
        schedule = first_fit_schedule(instance, powers)
        _check(
            schedule.colors,
            GOLDENS["kernels"]["first_fit"][name],
            oracle.first_fit(instance, powers),
            oracle.SINROracle(instance, powers).feasible(schedule.colors),
        )

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_greedy_subset_bit_identical(self, name):
        instance = GRID[name]
        powers = SquareRootPower()(instance)
        subset = greedy_max_feasible_subset(instance, powers)
        _check(
            subset,
            GOLDENS["kernels"]["greedy_subset"][name],
            oracle.peel(instance, powers),
            oracle.SINROracle(instance, powers).feasible_subset(subset.tolist()),
        )

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_peeling_bit_identical(self, name):
        instance = GRID[name]
        powers = SquareRootPower()(instance)
        schedule = peeling_schedule(instance, powers)
        _check(
            schedule.colors,
            GOLDENS["kernels"]["peeling"][name],
            oracle.peeling(instance, powers),
            oracle.SINROracle(instance, powers).feasible(schedule.colors),
        )

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_sqrt_coloring_bit_identical(self, name):
        instance = GRID[name]
        schedule, _ = sqrt_coloring(instance, rng=42)
        np.testing.assert_array_equal(
            schedule.colors, GOLDENS["kernels"]["sqrt_coloring"][name]
        )
        assert oracle.SINROracle(instance, schedule.powers).feasible(
            schedule.colors
        )

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_local_search_matches_reference(self, name):
        instance = GRID[name]
        powers = SquareRootPower()(instance)
        for key, base in (
            ("local_search_first_fit", first_fit_schedule(instance, powers)),
            ("local_search_trivial", trivial_schedule(instance)),
        ):
            improved = improve_schedule(instance, base)
            _check(
                improved.colors,
                GOLDENS["kernels"][key][name],
                oracle.local_search(instance, base.powers, base.colors),
                oracle.SINROracle(instance, base.powers).feasible(
                    improved.colors
                ),
            )

    def test_greedy_explicit_candidates_and_beta(self):
        case = GOLDENS["greedy_subset_explicit"]
        instance = GRID[case["instance"]]
        powers = SquareRootPower()(instance)
        beta = instance.beta * case["beta_factor"]
        subset = greedy_max_feasible_subset(
            instance, powers, candidates=case["candidates"], beta=beta
        )
        _check(
            subset,
            case["subset"],
            oracle.peel(instance, powers, candidates=case["candidates"], beta=beta),
            oracle.SINROracle(instance, powers, beta=beta).feasible_subset(
                subset.tolist()
            ),
        )

    def test_peel_duplicate_candidates_defers_to_reference(self):
        instance = GRID["euclid-bid-n8"]
        powers = SquareRootPower()(instance)
        context = get_context(instance, powers)
        candidates = [0, 1, 1, 4]
        kernel = peel_max_feasible_subset(context, candidates=candidates)
        reference = context.greedy_max_feasible_subset(candidates=candidates)
        np.testing.assert_array_equal(kernel, reference)

    def test_peel_empty_candidates(self):
        instance = GRID["euclid-bid-n8"]
        powers = SquareRootPower()(instance)
        context = get_context(instance, powers)
        result = peel_max_feasible_subset(context, candidates=[])
        assert result.size == 0


# ----------------------------------------------------------------------
# Property tests: kernel state vs per-class accumulators
# ----------------------------------------------------------------------


class TestKernelStateProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        directed=st.booleans(),
        shared=st.booleans(),
    )
    def test_random_ops_match_accumulators(self, seed, directed, shared):
        """A random add/remove sequence leaves the kernel rows bitwise
        equal to per-class ClassAccumulators fed the same sequence."""
        rng = np.random.default_rng(seed)
        direction = Direction.DIRECTED if directed else Direction.BIDIRECTIONAL
        if shared:
            instance = _shared_node_instance(direction)
        else:
            instance = random_uniform_instance(10, rng=seed, direction=direction)
        powers = SquareRootPower()(instance)
        clear_context_cache()
        context = get_context(instance, powers)
        kernel = ScheduleKernel(context)
        accumulators = {}
        for _ in range(40):
            placed = np.flatnonzero(kernel.colors >= 0)
            if placed.size and rng.uniform() < 0.35:
                request = int(rng.choice(placed))
                color = int(kernel.colors[request])
                kernel.remove(request)
                accumulators[color].remove(request)
            else:
                unplaced = np.flatnonzero(kernel.colors < 0)
                if unplaced.size == 0:
                    continue
                request = int(rng.choice(unplaced))
                if kernel.num_classes == 0 or rng.uniform() < 0.3:
                    color = kernel.open_class()
                    accumulators[color] = context.accumulator()
                else:
                    color = int(rng.integers(kernel.num_classes))
                kernel.add(request, color)
                accumulators[color].add(request)
            everyone = np.arange(instance.n)
            for color, acc in accumulators.items():
                np.testing.assert_array_equal(
                    kernel._fin_u[color], acc._fin_u,
                    err_msg=f"fin_u diverged for class {color}",
                )
                np.testing.assert_array_equal(
                    kernel._ninf_u[color], acc._ninf_u
                )
                np.testing.assert_array_equal(
                    kernel._npos_u[color], acc._npos_u
                )
            # Resolved worst-endpoint interference agrees per request.
            for request in everyone:
                per_class = kernel.class_interference(int(request))
                for color, acc in accumulators.items():
                    assert per_class[color] == acc.interference([request])[0]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_snapshot_restore_is_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        instance = random_uniform_instance(9, rng=seed)
        powers = SquareRootPower()(instance)
        clear_context_cache()
        context = get_context(instance, powers)
        schedule = first_fit_schedule(instance, powers)
        kernel = ScheduleKernel.from_colors(context, schedule.colors)
        snap = kernel.snapshot()
        reference = {
            "colors": kernel.colors.copy(),
            "fin_u": kernel._fin_u.copy(),
            "ninf_u": kernel._ninf_u.copy(),
            "npos_u": kernel._npos_u.copy(),
            "own_fin_u": kernel._own_fin_u.copy(),
            "sizes": list(kernel._sizes),
        }
        # Random mutations: moves, removals, additions, new classes.
        for _ in range(12):
            placed = np.flatnonzero(kernel.colors >= 0)
            if placed.size == 0:
                break
            request = int(rng.choice(placed))
            if rng.uniform() < 0.5 and kernel.num_classes > 1:
                target = int(rng.integers(kernel.num_classes))
                if target != kernel.colors[request]:
                    kernel.move(request, target)
            else:
                kernel.remove(request)
        kernel.restore(snap)
        np.testing.assert_array_equal(kernel.colors, reference["colors"])
        np.testing.assert_array_equal(kernel._fin_u, reference["fin_u"])
        np.testing.assert_array_equal(kernel._ninf_u, reference["ninf_u"])
        np.testing.assert_array_equal(kernel._npos_u, reference["npos_u"])
        np.testing.assert_array_equal(
            kernel._own_fin_u, reference["own_fin_u"]
        )
        assert list(kernel._sizes) == reference["sizes"]

    def test_restore_survives_capacity_growth(self):
        """Regression: restore() must write into the kernel's *current*
        arrays — open_class() past capacity rebinds them, and a
        snapshot taken before the growth must still roll back exactly
        (including zeroing every row the rollback un-opens)."""
        instance = random_uniform_instance(8, rng=11)
        powers = SquareRootPower()(instance)
        context = get_context(instance, powers)
        kernel = ScheduleKernel(context, capacity=1)
        kernel.add(0, kernel.open_class())
        snap = kernel.snapshot()
        expected_fin = kernel._fin_u[:1].copy()
        # Force at least one growth past the snapshot.
        for request in range(1, 6):
            kernel.add(request, kernel.open_class())
        assert kernel._fin_u.shape[0] > 1
        kernel.restore(snap)
        assert kernel.num_classes == 1
        np.testing.assert_array_equal(kernel._fin_u[:1], expected_fin)
        # Every un-opened row must be exact zero again, so the next
        # open_class() hands out a clean class.
        assert np.all(kernel._fin_u[1:] == 0.0)
        assert np.all(kernel._npos_u[1:] == 0)
        # Scheduling decisions after the rollback match a fresh kernel
        # fed the same coloring.
        fresh = ScheduleKernel.from_colors(context, kernel.colors)
        limits = context.budgets() * (1.0 + 1e-9)
        for request in range(1, 8):
            assert kernel.first_fit_admit(request, limits) == (
                fresh.first_fit_admit(request, limits)
            )
        # The next open_class() hands out a genuinely clean class.
        color = kernel.open_class()
        assert kernel.class_interference(7)[color] == 0.0

    def test_add_remove_errors(self):
        instance = random_uniform_instance(6, rng=3)
        powers = SquareRootPower()(instance)
        context = get_context(instance, powers)
        kernel = ScheduleKernel(context)
        color = kernel.open_class()
        kernel.add(0, color)
        with pytest.raises(ValueError):
            kernel.add(0, color)
        with pytest.raises(ValueError):
            kernel.add(1, color + 5)
        with pytest.raises(ValueError):
            kernel.remove(2)
        kernel.remove(0)
        assert kernel.class_sizes[color] == 0
        with pytest.raises(ValueError):
            kernel.remove(0)

    def test_emptied_class_is_exactly_zero(self):
        instance = _shared_node_instance(Direction.BIDIRECTIONAL)
        powers = np.ones(instance.n)
        context = get_context(instance, powers)
        kernel = ScheduleKernel(context)
        color = kernel.open_class()
        kernel.add(0, color)
        kernel.add(2, color)
        kernel.remove(0)
        kernel.remove(2)
        assert np.all(kernel._fin_u[color] == 0.0)
        assert np.all(kernel._ninf_u[color] == 0)
        assert np.all(kernel._npos_u[color] == 0)

    def test_from_colors_matches_incremental_adds_membership(self):
        instance = random_uniform_instance(12, rng=5)
        powers = SquareRootPower()(instance)
        context = get_context(instance, powers)
        schedule = first_fit_schedule(instance, powers)
        kernel = ScheduleKernel.from_colors(context, schedule.colors)
        np.testing.assert_array_equal(kernel.colors, schedule.colors)
        for color in range(kernel.num_classes):
            assert kernel.class_sizes[color] == int(
                np.sum(schedule.colors == color)
            )
        # Own-class state is an exact copy of the class rows.
        idx = np.arange(instance.n)
        np.testing.assert_array_equal(
            kernel._own_fin_u, kernel._fin_u[schedule.colors, idx]
        )


# ----------------------------------------------------------------------
# Batched first-fit
# ----------------------------------------------------------------------


def _kernel_state(kernel):
    """Every array of a kernel's state over its open classes."""
    count = kernel.num_classes
    state = [np.array(kernel.colors), kernel.class_sizes]
    state += [arr[:count].copy() for arr in kernel._row_arrays()]
    state += [arr.copy() for arr in kernel._own_arrays()]
    return state


def _assert_same_kernel_state(got, want):
    for a, b in zip(_kernel_state(got), _kernel_state(want)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def _edit_stream(seed, direction, n=12, metric_nodes=16):
    """A base instance on a small metric plus random pairs over it
    (shared nodes, hence infinite gains, are likely)."""
    full = random_uniform_instance(metric_nodes // 2, rng=seed, direction=direction)
    rng = np.random.default_rng(seed)
    senders = rng.integers(0, full.metric.n, size=n + 8)
    receivers = (senders + rng.integers(1, full.metric.n, size=n + 8)) % full.metric.n
    base = Instance(
        full.metric, senders[:n], receivers[:n], direction=direction
    )
    extra = list(zip(senders[n:].tolist(), receivers[n:].tolist()))
    return base, extra, rng


class TestKernelGrowthAndReseed:
    """extend_to and reseed leave exactly the state a kernel freshly
    seeded (from_colors) on the grown or edited context holds."""

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("seed", range(6))
    def test_grown_kernel_equals_fresh_seed(self, direction, seed):
        base, extra, rng = _edit_stream(seed, direction)
        colors = rng.integers(-1, 4, size=base.n)
        context = InterferenceContext(base, SquareRootPower()(base))
        kernel = ScheduleKernel.from_colors(context, colors)
        instance = base
        for size in (1, 3, 1, 2):
            pairs, extra = extra[:size], extra[size:]
            instance = Instance(
                base.metric,
                np.concatenate([instance.senders, [p[0] for p in pairs]]),
                np.concatenate([instance.receivers, [p[1] for p in pairs]]),
                direction=direction,
            )
            powers = SquareRootPower()(instance)
            context.extend_to(instance, powers)
            kernel.extend_to(instance.n)
            colors = np.concatenate([colors, -np.ones(size, dtype=int)])
            fresh = ScheduleKernel.from_colors(
                InterferenceContext(instance, powers), colors
            )
            _assert_same_kernel_state(kernel, fresh)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("seed", range(6))
    def test_reseeded_kernel_equals_fresh_seed(self, direction, seed):
        base, extra, rng = _edit_stream(seed, direction)
        colors = rng.integers(0, 4, size=base.n)
        instance = base
        context = InterferenceContext(base, SquareRootPower()(base))
        for slots in ([3], [0, 7], [3], [11]):
            colors[slots] = -1
            kernel = ScheduleKernel.from_colors(context, colors)
            pairs, extra = extra[: len(slots)], extra[len(slots) :]
            instance = instance.replaced(slots, pairs)
            powers = SquareRootPower()(instance)
            context.replace_requests(slots, instance, powers)
            kernel.reseed(slots)
            fresh = ScheduleKernel.from_colors(
                InterferenceContext(instance, powers), colors
            )
            _assert_same_kernel_state(kernel, fresh)
            colors[slots] = rng.integers(0, 4, size=len(slots))

    def test_reseed_clears_counts_when_gains_turn_finite(self):
        """The slot's departed request shared a node with a member; its
        replacement shares none, so the backend turns all-finite and
        the kernel takes the finite path — the slot's stale infinite
        counts must not survive."""
        metric = LineMetric([0.0, 1.0, 2.5, 4.5, 7.0, 11.0, 16.0])
        instance = Instance(
            metric, [0, 1, 3], [1, 2, 4], direction=Direction.BIDIRECTIONAL
        )
        colors = np.array([0, -1, 0])
        context = InterferenceContext(instance, SquareRootPower()(instance))
        kernel = ScheduleKernel.from_colors(context, colors)
        assert context.has_infinite_gains and kernel._ninf_u[0, 1] == 1
        edited = instance.replaced([1], [(5, 6)])
        powers = SquareRootPower()(edited)
        context.replace_requests([1], edited, powers)
        assert not context.has_infinite_gains
        kernel.reseed([1])
        assert kernel._finite
        fresh = ScheduleKernel.from_colors(
            InterferenceContext(edited, powers), colors
        )
        _assert_same_kernel_state(kernel, fresh)

    def test_reseed_rejects_placed_requests(self):
        instance = random_uniform_instance(6, rng=3)
        context = InterferenceContext(instance, SquareRootPower()(instance))
        kernel = ScheduleKernel.from_colors(context, np.zeros(6, dtype=int))
        with pytest.raises(ValueError, match="placed"):
            kernel.reseed([2])

    def test_request_capacity_doubles(self):
        """Single arrivals reallocate the (classes, n) state O(log n)
        times, not once per arrival."""
        base, _, _ = _edit_stream(5, Direction.DIRECTED, n=8, metric_nodes=40)
        instance = base
        context = InterferenceContext(base, SquareRootPower()(base))
        kernel = ScheduleKernel.from_colors(context, np.zeros(8, dtype=int))
        buffers = set()
        rng = np.random.default_rng(5)
        for _ in range(56):
            s, r = rng.choice(instance.metric.n, size=2, replace=False)
            instance = Instance(
                base.metric,
                np.append(instance.senders, s),
                np.append(instance.receivers, r),
                direction=base.direction,
            )
            context.extend_to(instance, SquareRootPower()(instance))
            kernel.extend_to(instance.n)
            buffers.add(id(kernel._row_bufs[0]))
            color = kernel.first_fit_admit(instance.n - 1, context.budgets() * 2)
            kernel.add(instance.n - 1, color if color >= 0 else kernel.open_class())
        # 8 -> 64 requests: capacities 16, 32, 64 (plus class growth).
        assert kernel.n == 64
        assert len(buffers) <= 3 + int(np.log2(kernel.num_classes + 1)) + 1
        fresh = ScheduleKernel.from_colors(
            InterferenceContext(instance, SquareRootPower()(instance)),
            np.asarray(kernel.colors),
        )
        np.testing.assert_array_equal(kernel.colors, fresh.colors)


class TestBatchedFirstFit:
    @pytest.mark.parametrize(
        "direction", [Direction.DIRECTED, Direction.BIDIRECTIONAL]
    )
    def test_stacked_matches_per_pair(self, direction, dense_backend):
        pairs = []
        for b in range(5):
            instance = random_uniform_instance(24, rng=700 + b, direction=direction)
            pairs.append((instance, SquareRootPower()(instance)))
        batch = ContextBatch(pairs)
        assert batch.stacked
        schedules = batch.first_fit_schedules()
        for (instance, powers), schedule in zip(pairs, schedules):
            reference = first_fit_schedule(instance, powers)
            np.testing.assert_array_equal(schedule.colors, reference.colors)
            schedule.validate(instance)

    def test_stacked_with_shared_nodes(self):
        pairs = [
            (_shared_node_instance(Direction.BIDIRECTIONAL), np.ones(4)),
            (_shared_node_instance(Direction.BIDIRECTIONAL), np.full(4, 2.0)),
        ]
        batch = ContextBatch(pairs)
        schedules = batch.first_fit_schedules()
        for (instance, powers), schedule in zip(pairs, schedules):
            reference = first_fit_schedule(instance, powers)
            np.testing.assert_array_equal(schedule.colors, reference.colors)

    def test_ragged_fallback_matches_per_pair(self):
        pairs = []
        for b, n in enumerate((6, 12, 9)):
            instance = random_uniform_instance(n, rng=800 + b)
            pairs.append((instance, SquareRootPower()(instance)))
        batch = ContextBatch(pairs)
        assert not batch.stacked
        schedules = batch.first_fit_schedules()
        for (instance, powers), schedule in zip(pairs, schedules):
            reference = first_fit_schedule(instance, powers)
            np.testing.assert_array_equal(schedule.colors, reference.colors)

    def test_custom_orders_and_validation(self):
        pairs = []
        for b in range(3):
            instance = random_uniform_instance(10, rng=900 + b)
            pairs.append((instance, SquareRootPower()(instance)))
        batch = ContextBatch(pairs)
        orders = [np.arange(10)] * 3
        schedules = batch.first_fit_schedules(orders=orders)
        for (instance, powers), schedule in zip(pairs, schedules):
            reference = first_fit_schedule(instance, powers, order=np.arange(10))
            np.testing.assert_array_equal(schedule.colors, reference.colors)
        with pytest.raises(ValueError):
            batch.first_fit_schedules(orders=[np.arange(10)] * 2)

    def test_unscalable_noise_raises(self):
        metric = LineMetric([0.0, 10.0])
        instance = Instance.bidirectional(metric, [(0, 1)], noise=1e6)
        batch = ContextBatch([(instance, np.ones(1))])
        with pytest.raises(InvalidScheduleError, match="pair 0"):
            batch.first_fit_schedules()


# ----------------------------------------------------------------------
# Batched local search
# ----------------------------------------------------------------------


class TestStackedLocalSearch:
    """Lockstep local search must match per-instance
    :func:`improve_schedule` schedules exactly (acceptance criterion)."""

    def _stack_inputs(self, pairs):
        contexts = [get_context(*pair) for pair in pairs]
        gains_ut = np.stack([ctx.gains_ut for ctx in contexts])
        if all(ctx.gains_ut is ctx.gains_vt for ctx in contexts):
            gains_vt = gains_ut
        else:
            gains_vt = np.stack([ctx.gains_vt for ctx in contexts])
        signals = np.stack([ctx.signals for ctx in contexts])
        betas = np.asarray([ctx.beta for ctx in contexts])
        noises = np.asarray([ctx.noise for ctx in contexts])
        return gains_ut, gains_vt, signals, betas, noises

    @pytest.mark.parametrize(
        "direction", [Direction.DIRECTED, Direction.BIDIRECTIONAL]
    )
    def test_matches_improve_schedule(self, direction, dense_backend):
        pairs = []
        for b in range(6):
            instance = random_uniform_instance(
                40, rng=1000 + b, direction=direction
            )
            pairs.append((instance, SquareRootPower()(instance)))
        seeds = [first_fit_schedule(*pair) for pair in pairs]
        gains_ut, gains_vt, signals, betas, noises = self._stack_inputs(pairs)
        colors = stacked_local_search(
            gains_ut,
            gains_vt,
            np.stack([s.compacted().colors for s in seeds]),
            signals,
            betas,
            noises,
        )
        for index, ((instance, powers), seed) in enumerate(zip(pairs, seeds)):
            reference = improve_schedule(instance, seed)
            np.testing.assert_array_equal(
                colors[index], reference.colors, err_msg=f"pair {index}"
            )

    @pytest.mark.parametrize("max_rounds", [None, 1])
    def test_shared_node_instances(self, max_rounds, dense_backend):
        """Infinite-gain pairs exercise the masked (non-finite) state
        variant; decisions must still match the per-pair search."""
        pairs = [
            (_shared_node_instance(Direction.BIDIRECTIONAL), np.ones(4)),
            (_shared_node_instance(Direction.DIRECTED), np.full(4, 2.0)),
        ]
        for pair in pairs:
            seeds = [first_fit_schedule(*pair)]
            gains_ut, gains_vt, signals, betas, noises = self._stack_inputs(
                [pair]
            )
            colors = stacked_local_search(
                gains_ut,
                gains_vt,
                np.stack([s.compacted().colors for s in seeds]),
                signals,
                betas,
                noises,
                max_rounds=max_rounds,
            )
            reference = improve_schedule(
                pair[0], seeds[0], max_rounds=max_rounds
            )
            np.testing.assert_array_equal(colors[0], reference.colors)

    def test_input_colors_not_mutated(self, dense_backend):
        instance = random_uniform_instance(20, rng=1100)
        powers = SquareRootPower()(instance)
        seed = first_fit_schedule(instance, powers).compacted()
        gains_ut, gains_vt, signals, betas, noises = self._stack_inputs(
            [(instance, powers)]
        )
        colors_in = np.stack([seed.colors])
        before = colors_in.copy()
        stacked_local_search(
            gains_ut, gains_vt, colors_in, signals, betas, noises
        )
        np.testing.assert_array_equal(colors_in, before)

    def test_validation_errors(self, dense_backend):
        instance = random_uniform_instance(6, rng=1200)
        powers = SquareRootPower()(instance)
        gains_ut, gains_vt, signals, betas, noises = self._stack_inputs(
            [(instance, powers)]
        )
        good = np.zeros((1, 6), dtype=int)
        with pytest.raises(ValueError, match="no -1"):
            stacked_local_search(
                gains_ut,
                gains_vt,
                np.full((1, 6), -1),
                signals,
                betas,
                noises,
            )
        with pytest.raises(ValueError, match=r"\(B, n\)"):
            stacked_local_search(
                gains_ut, gains_vt, np.zeros(6, dtype=int), signals,
                betas, noises,
            )
        with pytest.raises(ValueError, match="gains"):
            stacked_local_search(
                gains_ut[:, :4, :4], gains_vt[:, :4, :4], good, signals,
                betas, noises,
            )
        with pytest.raises(ValueError, match="signals"):
            stacked_local_search(
                gains_ut, gains_vt, good, signals[:, :4], betas, noises
            )
        with pytest.raises(ValueError, match="betas/noises"):
            stacked_local_search(
                gains_ut, gains_vt, good, signals, np.ones(3), noises
            )

    def test_max_rounds_zero_is_identity(self, dense_backend):
        instance = random_uniform_instance(15, rng=1300)
        powers = SquareRootPower()(instance)
        seed = first_fit_schedule(instance, powers).compacted()
        gains_ut, gains_vt, signals, betas, noises = self._stack_inputs(
            [(instance, powers)]
        )
        colors = stacked_local_search(
            gains_ut,
            gains_vt,
            np.stack([seed.colors]),
            signals,
            betas,
            noises,
            max_rounds=0,
        )
        np.testing.assert_array_equal(colors[0], seed.colors)


# ----------------------------------------------------------------------
# Shared schedule constructor + context helpers
# ----------------------------------------------------------------------


class TestBuildSchedule:
    def test_coerces_and_validates(self):
        schedule = build_schedule([0.0, 1.0], np.asarray([1, 2]))
        assert schedule.colors.dtype == np.asarray([0]).dtype
        assert schedule.powers.dtype == float
        with pytest.raises(InvalidScheduleError):
            build_schedule([0, -1], np.ones(2))
        with pytest.raises(InvalidScheduleError):
            build_schedule([0, 1], np.zeros(2))

    def test_copy_semantics(self):
        powers = np.ones(3)
        copied = build_schedule([0, 1, 2], powers)
        assert copied.powers is not powers
        powers[0] = 5.0
        assert copied.powers[0] == 1.0
        aliased = build_schedule([0, 1, 2], np.ones(3), copy_powers=False)
        assert isinstance(aliased, Schedule)

    def test_kernel_path_schedules_are_writable(self):
        """Regression: the kernel paths hand build_schedule a read-only
        colors view; the emitted schedule must be mutable like the
        reference paths' output."""
        instance = random_uniform_instance(8, rng=4)
        powers = SquareRootPower()(instance)
        for schedule in (
            first_fit_schedule(instance, powers),
            improve_schedule(instance, first_fit_schedule(instance, powers)),
            ContextBatch([(instance, powers)]).first_fit_schedules()[0],
        ):
            assert schedule.colors.flags.writeable
            schedule.colors[0] = schedule.colors[0]  # must not raise


class TestContextKernelHelpers:
    def test_has_infinite_gains(self):
        instance = random_uniform_instance(6, rng=1)
        context = get_context(instance, SquareRootPower()(instance))
        assert not context.has_infinite_gains
        shared = _shared_node_instance(Direction.BIDIRECTIONAL)
        shared_context = get_context(shared, np.ones(shared.n))
        assert shared_context.has_infinite_gains

    def test_transposed_gains_match(self, dense_backend):
        for direction in (Direction.DIRECTED, Direction.BIDIRECTIONAL):
            instance = random_uniform_instance(8, rng=2, direction=direction)
            context = get_context(instance, SquareRootPower()(instance))
            np.testing.assert_array_equal(context.gains_ut, context.gains_u.T)
            np.testing.assert_array_equal(context.gains_vt, context.gains_v.T)
            assert context.gains_ut.flags["C_CONTIGUOUS"]
            if direction is Direction.DIRECTED:
                assert context.gains_vt is context.gains_ut
            with pytest.raises(ValueError):
                context.gains_ut[0, 0] = 1.0
