"""Conformance tests for the incremental peel kernel.

Contracts under test (see :func:`repro.core.kernels.peel_max_feasible_subset`):

* the incremental peel returns exactly the same subset as the plain
  per-round reference
  (:meth:`~repro.core.context.InterferenceContext.greedy_max_feasible_subset`)
  and, on lossless backends, as the independent oracle's replay
  (``tests/oracle.py``) whenever that replay is unambiguous — across
  directed and bidirectional instances, shared nodes (infinite gains),
  candidate subsets, beta overrides, and epsilon-pruned sparse
  backends;
* candidates outside ``[0, n)`` are rejected;
* tolerance-window decisions (argmin ties, threshold crossings) are
  resolved exactly and counted as ``peel_risk_events``;
* heap/argmin tie-breaking is deterministic (golden subset, stable
  across repeats);
* duplicate candidates produce a structured, logged
  :class:`~repro.core.kernels.PeelFallbackInfo` instead of a silent
  fallback;
* candidates must be integers: fractional values and boolean masks
  are rejected, integral floats are accepted;
* the cases above also run well past the kernel's shortlist size, where
  rounds alternate between shortlist decisions and full rescans and
  the re-add prefilter rejects most dropped requests;
* on a sparse backend the peel never gathers a dense ``(k, k)`` block.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.analysis.capacity import greedy_max_feasible_subset
from repro.core.context import clear_context_cache, get_context
from repro.core import kernels
from repro.core.gains import build_backend, config_scope, default_config
from repro.core.instance import Direction, Instance
from repro.core.kernels import (
    PeelFallbackInfo,
    peel_fallback_records,
    peel_max_feasible_subset,
    peel_risk_events,
    reset_peel_events,
)
from repro.geometry.explicit import ExplicitMetric
from repro.geometry.line import LineMetric
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_context_cache()
    reset_peel_events()
    yield
    clear_context_cache()
    reset_peel_events()


def _shared_node_instance(direction):
    metric = LineMetric([0.0, 1.0, 2.5, 4.5, 7.0])
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
    return Instance(
        metric,
        [p[0] for p in pairs],
        [p[1] for p in pairs],
        direction=direction,
    )


def _mirror_pair_instance():
    # Two mirror-image unit links: single-term interference sums are
    # bitwise equal, so the argmin tie (first occurrence) path must
    # fire as soon as beta makes the pair infeasible.
    metric = LineMetric([0.0, 1.0, 3.0, 4.0])
    return Instance(metric, [0, 2], [1, 3], direction=Direction.BIDIRECTIONAL)


def _mirror_quad_instance():
    metric = LineMetric([0.0, 1.0, 3.0, 4.0, 6.0, 7.0, 9.0, 10.0])
    return Instance(
        metric, [0, 2, 4, 6], [1, 3, 5, 7], direction=Direction.BIDIRECTIONAL
    )


def _torus_lattice_instance(side=10, cluster=20):
    """A ``side × side`` torus lattice of identical links plus a tight
    row of *cluster* links, ``1e30`` away from the lattice.

    Translation symmetry ties every lattice margin within the risk band
    (``side²`` of them, more than the kernel's shortlist holds), and
    the cluster's gains at the lattice (~1e-90) are below one ulp of its
    sums, so the tie survives while the cluster is peeled first: the
    rebuilt shortlist's floor lands inside the tie.
    """
    grid = np.array(
        [(x, y) for x in range(side) for y in range(side)], dtype=float
    )
    points = np.concatenate([grid, grid + [0.25, 0.0]])
    offset = np.abs(points[:, None, :] - points[None, :, :])
    offset = np.minimum(offset, side - offset)
    torus = np.sqrt((offset**2).sum(axis=-1))
    row = np.arange(2 * cluster) * 0.5
    lattice_nodes = torus.shape[0]
    size = lattice_nodes + row.size
    matrix = np.full((size, size), 1e30)
    matrix[:lattice_nodes, :lattice_nodes] = torus
    matrix[lattice_nodes:, lattice_nodes:] = np.abs(row[:, None] - row[None, :])
    cells = side * side
    senders = list(range(cells)) + [
        lattice_nodes + 2 * i for i in range(cluster)
    ]
    receivers = list(range(cells, 2 * cells)) + [
        lattice_nodes + 2 * i + 1 for i in range(cluster)
    ]
    return Instance(
        ExplicitMetric(matrix),
        senders,
        receivers,
        direction=Direction.BIDIRECTIONAL,
    )


def _both_ways(context, candidates=None, beta=None, replay=True):
    """The incremental peel against the per-round reference (bitwise)
    and, on a lossless backend with *replay*, the oracle's unambiguous
    replay."""
    incremental = peel_max_feasible_subset(
        context, candidates=candidates, beta=beta
    )
    reference = context.greedy_max_feasible_subset(
        candidates=candidates, beta=beta
    )
    np.testing.assert_array_equal(incremental, reference)
    if replay and context.config.pruning_epsilon == 0.0:
        replay = oracle.peel(
            context.instance, context.powers, candidates=candidates, beta=beta
        )
        if not replay.ambiguous:
            np.testing.assert_array_equal(incremental, replay.value)
    return incremental


class TestGridConformance:
    @pytest.mark.parametrize(
        "direction", [Direction.DIRECTED, Direction.BIDIRECTIONAL]
    )
    def test_random_instances_match_reference(self, direction):
        rng = np.random.default_rng(1234)
        for seed in range(8):
            inst = random_uniform_instance(
                16, rng=seed, direction=direction
            )
            powers = SquareRootPower()(inst)
            ctx = get_context(inst, powers)
            _both_ways(ctx)
            k = int(rng.integers(1, inst.n + 1))
            subset = np.sort(rng.choice(inst.n, size=k, replace=False))
            _both_ways(ctx, candidates=subset)
            _both_ways(ctx, candidates=subset, beta=0.5)

    @pytest.mark.parametrize(
        "direction", [Direction.DIRECTED, Direction.BIDIRECTIONAL]
    )
    def test_shared_nodes_infinite_gains(self, direction):
        inst = _shared_node_instance(direction)
        ctx = get_context(inst, np.ones(inst.n))
        assert ctx.backend.has_infinite_gains
        result = _both_ways(ctx)
        # A chain sharing consecutive nodes admits at most every other
        # request, whatever the peel order.
        assert result.size <= 2

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_sparse_backend_matches_its_own_reference(self, epsilon):
        with config_scope(backend="sparse", sparse_epsilon=epsilon):
            for seed in range(4):
                inst = random_uniform_instance(14, rng=seed)
                powers = SquareRootPower()(inst)
                ctx = get_context(inst, powers)
                assert ctx.backend.name == "sparse"
                _both_ways(ctx)

    def test_trivial_sizes(self):
        inst = random_uniform_instance(3, rng=9)
        ctx = get_context(inst, SquareRootPower()(inst))
        np.testing.assert_array_equal(
            peel_max_feasible_subset(ctx, candidates=[]), []
        )
        _both_ways(ctx, candidates=[1])
        _both_ways(ctx, candidates=[2, 0])


class TestBeyondShortlist:
    """Candidate sets several times the kernel's shortlist, so rounds
    alternate between shortlist decisions and full rescans (the n<=20
    cases above fit the shortlist whole)."""

    @pytest.mark.parametrize(
        "direction", [Direction.DIRECTED, Direction.BIDIRECTIONAL]
    )
    @pytest.mark.parametrize("beta", [None, 0.5, 3.0])
    def test_random_instances_n100(self, direction, beta):
        inst = random_uniform_instance(100, rng=17, direction=direction)
        ctx = get_context(inst, SquareRootPower()(inst))
        rng = np.random.default_rng(17)
        _both_ways(ctx, beta=beta, replay=beta is None)
        subset = rng.permutation(inst.n)[:80]
        _both_ways(ctx, candidates=subset, beta=beta)

    @pytest.mark.parametrize(
        "direction", [Direction.DIRECTED, Direction.BIDIRECTIONAL]
    )
    def test_random_instances_n260(self, direction):
        # The oracle replays cost O(k³) plain-Python sums, so at this
        # size they run on one candidate subset; every call is checked
        # bitwise against the reference.
        inst = random_uniform_instance(260, rng=29, direction=direction)
        ctx = get_context(inst, SquareRootPower()(inst))
        rng = np.random.default_rng(29)
        subset = np.sort(rng.choice(inst.n, size=150, replace=False))
        for beta in (None, 0.5, 3.0):
            _both_ways(ctx, beta=beta, replay=False)
            _both_ways(ctx, candidates=subset[::-1], beta=beta, replay=False)
        _both_ways(ctx, candidates=subset[:80], beta=3.0)

    @pytest.mark.parametrize(
        "direction", [Direction.DIRECTED, Direction.BIDIRECTIONAL]
    )
    @pytest.mark.parametrize("chained", [96, 24])
    def test_shared_node_chain(self, direction, chained):
        # *chained* links share nodes in a row; the rest of the 96 are
        # disjoint links further along the line.  With 24 chained, the
        # zero margins fit the shortlist, so shared-node counts are
        # updated inside it as chain members are peeled.
        rng = np.random.default_rng(80)
        coords = np.cumsum(rng.uniform(0.5, 3.0, size=chained + 1 + 2 * (96 - chained)))
        pairs = [(i, i + 1) for i in range(chained)] + [
            (chained + 1 + 2 * j, chained + 2 + 2 * j) for j in range(96 - chained)
        ]
        inst = Instance(
            LineMetric(coords),
            [p[0] for p in pairs],
            [p[1] for p in pairs],
            direction=direction,
        )
        ctx = get_context(inst, SquareRootPower()(inst))
        assert ctx.backend.has_infinite_gains
        result = _both_ways(ctx, beta=2.0)
        chain = result[result < chained]
        assert np.all(np.diff(chain) > 1)  # no two chained requests

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_sparse_backend(self, epsilon):
        inst = random_uniform_instance(150, rng=41)
        powers = SquareRootPower()(inst)
        with config_scope(backend="sparse", sparse_epsilon=epsilon):
            ctx = get_context(inst, powers)
        assert ctx.backend.name == "sparse"
        _both_ways(ctx, replay=False)
        _both_ways(ctx, candidates=np.arange(10, 90), beta=2.0)

    @pytest.mark.parametrize("beta", [10.0, 40.0])
    def test_lattice_ties_straddle_the_floor(self, beta):
        # The tie is within the risk band by construction, so the
        # oracle's replay would be ambiguous (and it has no distance
        # rule for explicit metrics): the reference decides.
        inst = _torus_lattice_instance()
        ctx = get_context(inst, np.ones(inst.n))
        margins = ctx.margins(beta=beta)
        lattice = margins[:100]
        assert lattice.size > kernels._PEEL_SHORTLIST
        assert np.ptp(lattice) <= 1e-12 * lattice.max()
        assert margins[100:].max() < lattice.min()  # cluster peels first
        first = _both_ways(ctx, beta=beta, replay=False)
        events = peel_risk_events()
        assert events > 0
        again = peel_max_feasible_subset(ctx, beta=beta)
        np.testing.assert_array_equal(first, again)
        assert peel_risk_events() == 2 * events


class TestPropertyConformance:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 20),
        directed=st.booleans(),
        beta_override=st.one_of(
            st.none(), st.floats(0.1, 4.0, allow_nan=False)
        ),
    )
    def test_incremental_matches_reference(
        self, seed, n, directed, beta_override
    ):
        direction = (
            Direction.DIRECTED if directed else Direction.BIDIRECTIONAL
        )
        inst = random_uniform_instance(n, rng=seed, direction=direction)
        powers = SquareRootPower()(inst)
        ctx = get_context(inst, powers)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, n + 1))
        subset = np.sort(rng.choice(n, size=k, replace=False))
        _both_ways(ctx, candidates=subset, beta=beta_override)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), chain=st.integers(2, 7))
    def test_shared_node_chains(self, seed, chain):
        rng = np.random.default_rng(seed)
        coords = np.cumsum(rng.uniform(0.5, 3.0, size=chain + 1))
        metric = LineMetric(coords)
        pairs = [(i, i + 1) for i in range(chain)]
        inst = Instance(
            metric,
            [p[0] for p in pairs],
            [p[1] for p in pairs],
            direction=Direction.BIDIRECTIONAL,
        )
        ctx = get_context(inst, np.ones(chain))
        _both_ways(ctx)


class TestRiskEventsAndDeterminism:
    def test_exact_tie_counted_and_golden(self):
        inst = _mirror_pair_instance()
        ctx = get_context(inst, np.ones(inst.n))
        first = _both_ways(ctx, beta=10.0)
        events = peel_risk_events()
        # Mirror-image links have bitwise-tied margins: the exact
        # tie-resolution path must have fired.
        assert events > 0
        # Golden: the tie resolves to the reference's first-occurrence
        # argmin — request 0 is peeled, request 1 survives.
        np.testing.assert_array_equal(first, [1])
        again = peel_max_feasible_subset(ctx, beta=10.0)
        np.testing.assert_array_equal(first, again)
        assert peel_risk_events() == 2 * events

    def test_quad_ties_deterministic_golden(self):
        inst = _mirror_quad_instance()
        ctx = get_context(inst, np.ones(inst.n))
        result = _both_ways(ctx, beta=8.0)
        assert peel_risk_events() > 0
        np.testing.assert_array_equal(result, [0, 3])

    def test_no_risk_on_well_separated_instance(self):
        inst = random_uniform_instance(10, rng=3)
        ctx = get_context(inst, SquareRootPower()(inst))
        peel_max_feasible_subset(ctx)
        # Generic random geometry has no exact ties and no margins
        # within 1e-9 of the threshold.
        assert peel_risk_events() == 0

    def test_counter_reset(self):
        inst = _mirror_pair_instance()
        ctx = get_context(inst, np.ones(inst.n))
        peel_max_feasible_subset(ctx, beta=10.0)
        assert peel_risk_events() > 0
        reset_peel_events()
        assert peel_risk_events() == 0
        assert peel_fallback_records() == ()


class TestDuplicateFallback:
    def test_structured_record_and_log(self, caplog):
        inst = random_uniform_instance(6, rng=5)
        ctx = get_context(inst, SquareRootPower()(inst))
        with caplog.at_level(logging.WARNING, logger="repro.core.kernels"):
            result = peel_max_feasible_subset(
                ctx, candidates=[0, 1, 1, 3, 4]
            )
        records = peel_fallback_records()
        assert len(records) == 1
        info = records[0]
        assert isinstance(info, PeelFallbackInfo)
        assert info.reasons == ("duplicate_candidates",)
        assert info.candidates == 5
        assert info.detail in caplog.text
        expected = ctx.greedy_max_feasible_subset(
            candidates=[0, 1, 1, 3, 4]
        )
        np.testing.assert_array_equal(result, expected)

    def test_unique_candidates_record_nothing(self):
        inst = random_uniform_instance(6, rng=5)
        ctx = get_context(inst, SquareRootPower()(inst))
        peel_max_feasible_subset(ctx, candidates=[0, 1, 3, 4])
        assert peel_fallback_records() == ()


class TestCandidateRange:
    @pytest.mark.parametrize("j", range(12))
    def test_negative_alias_rejected(self, j):
        """Regression: ``j - n`` used to wrap to request ``j``, so the
        peel counted one request twice without a fallback record."""
        inst = random_uniform_instance(12, rng=0)
        powers = SquareRootPower()(inst)
        candidates = list(range(12)) + [j - 12]
        with pytest.raises(ValueError, match=f"candidate {j - 12} at position 12"):
            greedy_max_feasible_subset(inst, powers, candidates=candidates)
        assert peel_fallback_records() == ()

    @pytest.mark.parametrize(
        "candidates, message",
        [
            ([0.9, 1.5, 2.2], "candidate 0.9 at position 0 is not an integer"),
            ([0, 2, 3.5], "candidate 3.5 at position 2 is not an integer"),
            ([0, 1, np.nan], "candidate nan at position 2 is not an integer"),
            ([0, 1, None], "candidate None at position 2 is not an integer"),
            ([True, False, True], "candidate True at position 0 is not an integer"),
            (np.ones(6, dtype=bool), "candidate True at position 0"),
        ],
    )
    def test_non_integer_candidates_rejected(self, candidates, message):
        """Regression: fractional candidates were truncated (0.9, 1.5,
        2.2 peeled requests 0, 1, 2) and a boolean mask was read as
        indices 1/0/1, taking the duplicate fallback."""
        inst = random_uniform_instance(6, rng=1)
        ctx = get_context(inst, SquareRootPower()(inst))
        with pytest.raises(ValueError, match=message):
            peel_max_feasible_subset(ctx, candidates=candidates)
        with pytest.raises(ValueError, match=message):
            ctx.greedy_max_feasible_subset(candidates=candidates)
        assert peel_fallback_records() == ()

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.uint16, np.int64, np.float32, np.float64]
    )
    def test_integral_candidates_of_any_dtype(self, dtype):
        inst = random_uniform_instance(20, rng=3)
        ctx = get_context(inst, SquareRootPower()(inst))
        candidates = [19, 4, 0, 7, 11, 12, 3]
        expected = _both_ways(ctx, candidates=candidates, beta=3.0)
        as_dtype = np.asarray(candidates, dtype=dtype)
        np.testing.assert_array_equal(
            peel_max_feasible_subset(ctx, candidates=as_dtype, beta=3.0),
            expected,
        )
        np.testing.assert_array_equal(
            ctx.greedy_max_feasible_subset(candidates=as_dtype, beta=3.0),
            expected,
        )

    def test_reference_rejects_negative_alias(self):
        inst = random_uniform_instance(6, rng=1)
        ctx = get_context(inst, SquareRootPower()(inst))
        with pytest.raises(ValueError, match=r"candidate -1 at position 2"):
            ctx.greedy_max_feasible_subset(candidates=[0, 1, -1])

    def test_index_past_end_rejected(self):
        inst = random_uniform_instance(6, rng=1)
        ctx = get_context(inst, SquareRootPower()(inst))
        with pytest.raises(ValueError, match=r"candidate 6 at position 1 .*\[0, 6\)"):
            peel_max_feasible_subset(ctx, candidates=[0, 6])


class TestSparseNeverDensifies:
    def test_peel_avoids_block_gathers(self, monkeypatch):
        inst = random_uniform_instance(12, rng=11)
        powers = SquareRootPower()(inst)
        backend = build_backend(
            inst,
            powers,
            config=default_config(backend="sparse", sparse_epsilon=0.0),
        )

        def _boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError(
                "incremental peel gathered a dense block on the sparse "
                "backend"
            )

        monkeypatch.setattr(type(backend), "block_u", _boom)
        monkeypatch.setattr(type(backend), "block_v", _boom)
        with config_scope(backend="sparse"):
            ctx = get_context(inst, powers)
        assert ctx.backend.name == "sparse"
        monkeypatch.setattr(type(ctx.backend), "block_u", _boom)
        monkeypatch.setattr(type(ctx.backend), "block_v", _boom)
        result = peel_max_feasible_subset(ctx)
        assert result.size >= 1

    def test_large_peel_avoids_block_gathers(self, monkeypatch):
        """Past twice the shortlist, the peel rescans (an ``s × s``
        cross block per rescan), folds deferred victims and runs the
        re-add prefilter — all without a ``(k, k)`` block."""
        s = kernels._PEEL_SHORTLIST
        inst = random_uniform_instance(2 * s + 40, rng=11)
        with config_scope(backend="sparse", sparse_epsilon=0.0):
            ctx = get_context(inst, SquareRootPower()(inst))
        backend_type = type(ctx.backend)

        def _boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError(
                "incremental peel gathered a dense block on the sparse "
                "backend"
            )

        monkeypatch.setattr(backend_type, "block_u", _boom)
        monkeypatch.setattr(backend_type, "block_v", _boom)
        cross_shapes, folds, prefilter = [], [], []

        def spy(name, record):
            original = getattr(backend_type, name)

            def wrapped(self, *args):
                out = original(self, *args)
                record(args, out)
                return out

            monkeypatch.setattr(backend_type, name, wrapped)

        spy("cross_block_u", lambda args, out: cross_shapes.append(out.shape))
        spy("gather_cols_u", lambda args, out: folds.append(len(args[0])))
        hopeless = kernels._hopeless_readds

        def counted(*args):
            mask = hopeless(*args)
            prefilter.append((int(mask.sum()), mask.size))
            return mask

        monkeypatch.setattr(kernels, "_hopeless_readds", counted)
        result = peel_max_feasible_subset(ctx)
        assert result.size >= 1
        assert cross_shapes.count((s, s)) >= 2  # rescans
        assert max(folds) >= 2  # deferred shortlist victims folded
        assert len(prefilter) == 1 and prefilter[0][0] > 0
        monkeypatch.undo()
        np.testing.assert_array_equal(
            result, ctx.greedy_max_feasible_subset()
        )
