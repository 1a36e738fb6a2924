"""The ε-pruning rule against an independent argsort reference.

``_prune_tile`` finds each row's cut from one value sort of the tile
and falls back to a row's ``np.argsort`` only when equal values straddle
the cut.  The reference below is the rule written the direct way: a
row-wise argsort of the whole tile, whose first ``drop_count`` entries
drop.  The two must agree bit for bit — the kept mask and the recorded
pruned-mass bound — on every tile, and so must every CSR built through
them: the cold ``SparseBackend.build``, the sharded backend's block
rows and the row-wise pruning of sparse slot edits.
"""

import warnings

import numpy as np
import pytest

from repro.core import gains
from repro.core.gains import SparseBackend, _prune_tile
from repro.core.instance import Direction, Instance
from repro.core.interference import _gain_block
from repro.distributed.sharded import GainShard, shard_bounds
from repro.geometry.euclidean import EuclideanMetric
from repro.geometry.line import LineMetric
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower

EPSILONS = (0.0, 1e-6, 0.05, 0.5)


def _reference_prune_tile(tile, epsilon):
    """The pruning rule through a row-wise argsort of the whole tile."""
    finite = np.isfinite(tile)
    positive = tile > 0
    eligible = finite & positive
    if epsilon <= 0.0:
        return eligible | ~finite, np.zeros(tile.shape[0])
    with np.errstate(over="ignore"):
        vals = np.where(eligible, tile, np.inf).astype(np.float32)
    order = np.argsort(vals, axis=1)
    svals = np.take_along_axis(vals, order, axis=1)
    sfinite = np.isfinite(svals)
    csum = np.cumsum(np.where(sfinite, svals, np.float32(0.0)), axis=1)
    budget = np.float32(epsilon * (1.0 - 1e-3)) * csum[:, -1]
    drop_count = np.count_nonzero(sfinite & (csum <= budget[:, None]), axis=1)
    pruned = np.where(
        drop_count > 0,
        np.take_along_axis(
            csum, np.maximum(drop_count - 1, 0)[:, None], axis=1
        )[:, 0].astype(float),
        0.0,
    )
    n_cols = np.float64(tile.shape[1])
    pruned = pruned * (1.0 + n_cols * 1.2e-7 + 1e-9) + np.where(
        drop_count > 0, n_cols * 1.2e-38, 0.0
    )
    drop_sorted = np.arange(tile.shape[1])[None, :] < drop_count[:, None]
    drop = np.zeros(tile.shape, dtype=bool)
    np.put_along_axis(drop, order, drop_sorted, axis=1)
    return (eligible & ~drop) | ~finite, pruned


def _assert_same_rule(tile, epsilon):
    keep, pruned = _prune_tile(tile, epsilon)
    want_keep, want_pruned = _reference_prune_tile(tile, epsilon)
    np.testing.assert_array_equal(keep, want_keep)
    assert pruned.dtype == want_pruned.dtype
    np.testing.assert_array_equal(
        pruned.view(np.int64), want_pruned.view(np.int64)
    )


def _straddles(tile, epsilon):
    """Rows of the reference result that keep a value equal to one
    they drop (a tie straddling the cut)."""
    keep, _ = _reference_prune_tile(tile, epsilon)
    eligible = np.isfinite(tile) & (tile > 0)
    vals = tile.astype(np.float32)
    rows = 0
    for i in range(tile.shape[0]):
        dropped = vals[i][eligible[i] & ~keep[i]]
        kept = vals[i][eligible[i] & keep[i]]
        rows += bool(dropped.size and np.any(kept == dropped.max()))
    return rows


def _geometric_tile(rows, n, seed):
    instance = random_uniform_instance(
        n, rng=seed, direction=Direction.DIRECTED
    )
    powers = SquareRootPower()(instance)
    return _gain_block(
        instance, powers, instance.receivers, np.arange(rows), np.arange(n)
    )


def _quantised_tile(shape, seed):
    """A few float32 levels (and zeros): equal values everywhere."""
    rng = np.random.default_rng(seed)
    levels = np.array([0.0, 0.25, 0.5, 1.0, 3.0], dtype=np.float32)
    return rng.choice(levels.astype(float), size=shape)


def _special_tile(shape, seed):
    """Shared-node ``inf``, exact zeros, finite values above float32's
    range and below its smallest normal (or subnormal) value, mixed
    with ordinary gains."""
    rng = np.random.default_rng(seed)
    special = np.array([np.inf, 0.0, 2e39, 1e300, 1e-40, 1e-50, 1e-310])
    tile = rng.uniform(0.0, 4.0, size=shape) ** 3
    pick = rng.random(shape) < 0.3
    tile[pick] = rng.choice(special, size=int(pick.sum()))
    return tile


SHAPES = [(1, 300), (7, 1), (512, 300)]


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
class TestRuleMatchesArgsortReference:
    def test_geometric_tiles(self, shape, epsilon):
        rows, n = shape
        tile = _geometric_tile(rows, max(n, rows), seed=11)[:, :n]
        _assert_same_rule(tile, epsilon)

    @pytest.mark.parametrize("seed", range(4))
    def test_quantised_tiles(self, shape, epsilon, seed):
        _assert_same_rule(_quantised_tile(shape, seed), epsilon)

    @pytest.mark.parametrize("seed", range(4))
    def test_special_values(self, shape, epsilon, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_same_rule(_special_tile(shape, seed), epsilon)

    def test_rows_with_nothing_to_drop(self, shape, epsilon):
        rows, n = shape
        rng = np.random.default_rng(5)
        # Per row: one positive entry (its whole mass), or two equal
        # halves, each heavier than any budget; the rest zero or inf.
        single = np.zeros(shape)
        single[np.arange(rows), rng.integers(0, n, size=rows)] = 2.0
        halves = np.zeros(shape)
        halves[:, :2] = 0.5
        for tile in (single, halves, np.full(shape, np.inf)):
            if n > 2:
                tile[:, -1] = np.inf
            _assert_same_rule(tile, epsilon)
            keep, pruned = _prune_tile(tile, epsilon)
            np.testing.assert_array_equal(keep, tile != 0)
            np.testing.assert_array_equal(pruned, 0.0)


def test_quantised_tiles_exercise_straddling_ties():
    """The tie fallback is reached: equal values straddle the cut."""
    tile = _quantised_tile((512, 300), seed=0)
    assert _straddles(tile, 0.05) > 0
    assert _straddles(tile, 0.5) > 0


def test_finite_gain_past_float32_range_emits_no_warning():
    tile = np.array([[0.0, 1.0, 2e39, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keep, pruned = _prune_tile(tile, 0.05)
    np.testing.assert_array_equal(keep, [[False, True, True, True]])
    assert pruned[0] == 0.0


# ----------------------------------------------------------------------
# Every CSR built through the rule
# ----------------------------------------------------------------------


def _chain_instance():
    """Bidirectional links sharing nodes: ``(i, i + 1)``."""
    rng = np.random.default_rng(3)
    metric = EuclideanMetric(rng.uniform(0.0, 30.0, size=(121, 2)))
    return Instance(
        metric,
        np.arange(120),
        np.arange(1, 121),
        direction=Direction.BIDIRECTIONAL,
    )


def _lattice_instance():
    """Unit links on an integer line: every gain value recurs."""
    metric = LineMetric(np.arange(240.0))
    return Instance(
        metric,
        np.arange(0, 240, 2),
        np.arange(1, 240, 2),
        direction=Direction.DIRECTED,
    )


INSTANCES = {
    "directed": lambda: random_uniform_instance(
        150, rng=21, direction=Direction.DIRECTED
    ),
    "bidirectional": lambda: random_uniform_instance(
        150, rng=22, direction=Direction.BIDIRECTIONAL
    ),
    "shared-node": _chain_instance,
    "lattice": _lattice_instance,
}


def _csr_arrays(matrices):
    return [
        array for csr in matrices for array in (csr.indptr, csr.indices, csr.data)
    ]


def _assert_arrays_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
        if a.dtype.kind == "f":
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def _sparse_state(backend):
    backend.flush_growth()
    return _csr_arrays(
        (backend._csr_u, backend._csr_v, backend._csr_ut, backend._csr_vt)
    ) + [backend.pruned_mass_u, backend.pruned_mass_v]


def _build(instance, powers, epsilon):
    return _sparse_state(
        SparseBackend.build(instance, powers, epsilon=epsilon, tile_rows=64)
    )


def _shards(instance, powers, epsilon):
    out = []
    for lo, hi in shard_bounds(instance.n, 2):
        shard = GainShard(instance, powers, lo, hi, epsilon, tile_rows=64)
        out += _csr_arrays(
            [shard._blk[e] for e in "uv"] + [shard._blk_t[e] for e in "uv"]
        )
        out += [shard._pruned["u"], shard._pruned["v"]]
    return out


def _slot_edit(instance, powers, epsilon):
    backend = SparseBackend.build(instance, powers, epsilon=epsilon)
    slots = [3, 40, 77]
    pairs = [
        (int(instance.senders[s]), int(instance.receivers[s + 1]))
        for s in slots
    ]
    edited = instance.replaced(slots, pairs)
    backend.replace_requests(slots, edited, SquareRootPower()(edited))
    return _sparse_state(backend)


@pytest.mark.parametrize("epsilon", [1e-6, 0.05])
@pytest.mark.parametrize("kind", sorted(INSTANCES))
@pytest.mark.parametrize(
    "make", [_build, _shards, _slot_edit], ids=["build", "shards", "slot-edit"]
)
def test_csr_matches_reference_rule(monkeypatch, make, kind, epsilon):
    instance = INSTANCES[kind]()
    powers = SquareRootPower()(instance)
    got = make(instance, powers, epsilon)
    monkeypatch.setattr(gains, "_prune_tile", _reference_prune_tile)
    want = make(instance, powers, epsilon)
    _assert_arrays_identical(got, want)


def test_lattice_build_reaches_the_tie_fallback():
    """The lattice instance's rows straddle the cut, so the CSR
    identity above covers the fallback end to end."""
    instance = _lattice_instance()
    powers = SquareRootPower()(instance)
    tile = _gain_block(
        instance, powers, instance.receivers,
        np.arange(instance.n), np.arange(instance.n),
    )
    assert _straddles(tile, 0.05) > 0
