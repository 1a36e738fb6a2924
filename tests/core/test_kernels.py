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
  :class:`ClassAccumulator` per class, and the copy-on-write
  snapshot/restore is an exact rollback of every state array that
  refuses snapshots it can no longer honour.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.analysis.capacity import greedy_max_feasible_subset
from repro.api import Problem
from repro.core.context import (
    InterferenceContext,
    clear_context_cache,
    get_context,
)
from repro.core.errors import InvalidScheduleError
from repro.core.instance import Direction, Instance
from repro.core.kernels import ScheduleKernel, peel_max_feasible_subset
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

    @staticmethod
    def _state(kernel):
        """Every state array of *kernel*: colors, sizes, the u and v
        rows of the open classes and the six own-class vectors."""
        count = kernel.num_classes
        rows = [
            kernel._fin_u, kernel._ninf_u, kernel._npos_u,
            kernel._fin_v, kernel._ninf_v, kernel._npos_v,
        ]
        own = [
            kernel._own_fin_u, kernel._own_ninf_u, kernel._own_npos_u,
            kernel._own_fin_v, kernel._own_ninf_v, kernel._own_npos_v,
        ]
        return (
            kernel.colors.copy(),
            list(kernel._sizes),
            [arr[:count].copy() for arr in rows],
            [arr.copy() for arr in own],
            # Rows past the open classes must be exact zeros, so the
            # next open_class() hands out a clean class.
            all(bool(np.all(arr[count:] == 0)) for arr in rows),
        )

    @staticmethod
    def _assert_same_state(got, want):
        colors, sizes, rows, own, zero_tail = got
        np.testing.assert_array_equal(colors, want[0])
        assert sizes == want[1]
        for arr, ref in zip(rows + own, want[2] + want[3]):
            np.testing.assert_array_equal(arr, ref)
        assert zero_tail

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        directed=st.booleans(),
        shared=st.booleans(),
    )
    def test_snapshot_restore_is_bitwise(self, seed, directed, shared):
        rng = np.random.default_rng(seed)
        direction = Direction.DIRECTED if directed else Direction.BIDIRECTIONAL
        if shared:
            instance = _shared_node_instance(direction)
            powers = np.ones(instance.n)
        else:
            instance = random_uniform_instance(9, rng=seed, direction=direction)
            powers = SquareRootPower()(instance)
        clear_context_cache()
        context = get_context(instance, powers)
        colors = np.array(first_fit_schedule(instance, powers).colors)
        # Leave some requests unplaced so additions have candidates.
        colors[rng.random(instance.n) < 0.3] = -1
        kernel = ScheduleKernel.from_colors(context, colors)
        snap = kernel.snapshot()
        reference = self._state(kernel)
        # Two rounds: the snapshot stays live after a restore.
        for _ in range(2):
            # Random mutations: moves, removals, additions, new classes.
            for _ in range(12):
                op = rng.integers(4)
                placed = np.flatnonzero(kernel.colors >= 0)
                unplaced = np.flatnonzero(kernel.colors < 0)
                if op == 0 and placed.size and kernel.num_classes > 1:
                    request = int(rng.choice(placed))
                    target = int(rng.integers(kernel.num_classes))
                    if target != kernel.colors[request]:
                        kernel.move(request, target)
                elif op == 1 and placed.size:
                    kernel.remove(int(rng.choice(placed)))
                elif op == 2 and unplaced.size and kernel.num_classes:
                    kernel.add(
                        int(rng.choice(unplaced)),
                        int(rng.integers(kernel.num_classes)),
                    )
                elif op == 3 and unplaced.size:
                    kernel.add(int(rng.choice(unplaced)), kernel.open_class())
            kernel.restore(snap)
            self._assert_same_state(self._state(kernel), reference)

    def test_superseded_snapshot_raises(self):
        instance = random_uniform_instance(8, rng=12)
        powers = SquareRootPower()(instance)
        context = get_context(instance, powers)
        colors = first_fit_schedule(instance, powers).colors
        kernel = ScheduleKernel.from_colors(context, colors)
        old = kernel.snapshot()
        kernel.remove(0)
        live = kernel.snapshot()
        with pytest.raises(ValueError, match="live snapshot"):
            kernel.restore(old)
        other = ScheduleKernel.from_colors(context, colors)
        with pytest.raises(ValueError, match="live snapshot"):
            other.restore(live)
        kernel.restore(live)  # the live one still restores
        assert kernel.colors[0] == -1

    @pytest.mark.parametrize("edit", ["drop_empty_class", "reseed"])
    def test_snapshot_before_unsaved_rewrite_raises(self, edit):
        """drop_empty_class shifts rows and reseed rewrites columns
        without saving them, so an earlier snapshot cannot restore —
        and Session.recover falls back to "rekernel"."""
        session = Problem(random_uniform_instance(10, rng=5)).session()
        kernel = session.ensure_live()
        # Move request 0 into a class of its own, then snapshot.
        kernel.move(0, kernel.open_class())
        color = int(kernel.colors[0])
        snap = kernel.snapshot()
        kernel.remove(0)
        if edit == "drop_empty_class":
            kernel.drop_empty_class(color)
        else:
            kernel.reseed([0])
        with pytest.raises(ValueError, match="live snapshot"):
            kernel.restore(snap)
        assert snap["stamp"] == kernel.stamp  # only the edit is stale
        assert session.recover(snap) == "rekernel"
        assert session.live_kernel is None
        assert session.check_consistency() is None

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
            context.replace_requests(
                range(context.n, instance.n), instance, powers
            )
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

    def test_request_capacity_grows_by_a_quarter(self):
        """Single arrivals reallocate the (classes, n) state O(log n)
        times, not once per arrival, each time by a quarter."""
        base, _, _ = _edit_stream(5, Direction.DIRECTED, n=8, metric_nodes=40)
        instance = base
        context = InterferenceContext(base, SquareRootPower()(base))
        kernel = ScheduleKernel.from_colors(context, np.zeros(8, dtype=int))
        columns = [kernel._row_bufs[0].shape[1]]
        rng = np.random.default_rng(5)
        for _ in range(56):
            s, r = rng.choice(instance.metric.n, size=2, replace=False)
            instance = Instance(
                base.metric,
                np.append(instance.senders, s),
                np.append(instance.receivers, r),
                direction=base.direction,
            )
            context.replace_requests(
                [instance.n - 1], instance, SquareRootPower()(instance)
            )
            kernel.extend_to(instance.n)
            if kernel._row_bufs[0].shape[1] != columns[-1]:
                columns.append(kernel._row_bufs[0].shape[1])
            color = kernel.first_fit_admit(instance.n - 1, context.budgets() * 2)
            kernel.add(instance.n - 1, color if color >= 0 else kernel.open_class())
        # 8 -> 64 requests, one at a time.
        assert kernel.n == 64
        assert columns == [8, 10, 12, 15, 18, 22, 27, 33, 41, 51, 63, 78]
        fresh = ScheduleKernel.from_colors(
            InterferenceContext(instance, SquareRootPower()(instance)),
            np.asarray(kernel.colors),
        )
        np.testing.assert_array_equal(kernel.colors, fresh.colors)


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
