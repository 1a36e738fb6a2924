"""In-place backend edits: replace_requests vs. cold rebuild.

The contract: writing a request into a reused slot, or into a slot
appended past ``n``, is bit-identical to rebuilding the backend from
scratch on the edited ``(instance, powers)`` — for the dense backend
always, and for the sparse backend at ``epsilon=0`` (the lossless setting the
conformance grid runs on).  ε>0 edits stay conservative (pruned mass
only ever adds to the bound) but are exempt from bit-identity, because
pruning a slot's lines in isolation cannot reproduce the whole-row
kept set.
"""

import io
import pickle

import numpy as np
import pytest

from repro.core.context import InterferenceContext
from repro.core.errors import InvalidScheduleError
from repro.core.gains import (
    DenseBackend,
    SparseBackend,
    _host_gain_targets,
    default_config,
    validate_growth,
)
from repro.core.instance import Instance
from repro.core.interference import _gain_block
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower


def _grown(small, n_new, rng):
    """A larger instance whose prefix is exactly *small*."""
    metric_size = small.metric.n
    senders = rng.integers(0, metric_size, size=n_new - small.n)
    offsets = rng.integers(1, metric_size, size=n_new - small.n)
    receivers = (senders + offsets) % metric_size
    return Instance(
        small.metric,
        np.concatenate([small.senders, senders]),
        np.concatenate([small.receivers, receivers]),
        direction=small.direction,
        alpha=small.alpha,
    )


def _base(n, direction, rng_seed, metric_nodes=40):
    rng = np.random.default_rng(rng_seed)
    full = random_uniform_instance(
        metric_nodes // 2, rng=rng_seed, direction=direction
    )
    senders = full.senders[:n]
    receivers = full.receivers[:n]
    return Instance(
        full.metric, senders, receivers, direction=direction, alpha=full.alpha
    ), rng


def _round_trip(backend, metric):
    """Pickle *backend* as part of a payload that also carries
    *metric*: the unpickled backend's instance keeps that very metric
    object, as it does in one pickle with the metric's other users."""

    class Pickler(pickle.Pickler):
        def persistent_id(self, obj):
            return "metric" if obj is metric else None

    class Unpickler(pickle.Unpickler):
        def persistent_load(self, pid):
            assert pid == "metric"
            return metric

    buffer = io.BytesIO()
    Pickler(buffer).dump(backend)
    buffer.seek(0)
    return Unpickler(buffer).load()


def _unpickled(build):
    """*build*, then a pickle round trip after warming the transposes:
    backends travel pickled inside instances (shard payloads carry the
    instance's context cache), and the dense one drops its storage
    owners on the way, so its first edit must re-derive them."""

    def build_unpickled(instance, powers):
        backend = build(instance, powers)
        backend.dense_ut()
        if backend.n:
            backend.col_u(0)
        return _round_trip(backend, instance.metric)

    return build_unpickled


def _sparse_build(instance, powers):
    return SparseBackend.build(instance, powers, epsilon=0.0)


#: Parametrization ids -> builders: dense, lossless sparse, and each
#: of them after a pickle round trip.
BUILDERS = {
    "DenseBackend": DenseBackend.build,
    "DenseBackend-unpickled": _unpickled(DenseBackend.build),
    "SparseBackend": _sparse_build,
    "SparseBackend-unpickled": _unpickled(_sparse_build),
}


def _build(kind, instance, powers):
    return BUILDERS[kind](instance, powers)


def _cold(kind, instance, powers):
    """The reference: a plain cold build of *kind*'s backend class."""
    return BUILDERS[kind.removesuffix("-unpickled")](instance, powers)


def _append(backend, instance, powers):
    """Grow *backend* to *instance*: every index past its current ``n``
    is an appended slot of the one edit method."""
    backend.replace_requests(np.arange(backend.n, instance.n), instance, powers)


def _backend_state(backend):
    """Everything observable: gains, transposes, masses, flags."""
    state = {
        "gains_u": np.array(backend.dense_u(), copy=True),
        "gains_v": np.array(backend.dense_v(), copy=True),
        "gains_ut": np.array(backend.dense_ut(), copy=True),
        "gains_vt": np.array(backend.dense_vt(), copy=True),
        "has_inf": backend.has_infinite_gains,
        "pruned_u": np.array(backend.pruned_mass_u, copy=True),
        "pruned_v": np.array(backend.pruned_mass_v, copy=True),
    }
    n = state["gains_u"].shape[0]
    rows = np.arange(n)
    state["row_sums_u"] = backend.row_sums_u(rows)
    state["row_sums_v"] = backend.row_sums_v(rows)
    if n:
        state["col0_u"] = backend.col_u(0)
        state["cross"] = backend.cross_block_u(rows[: n // 2], rows[n // 2 :])
    return state


def _assert_identical(grown, cold):
    a, b = _backend_state(grown), _backend_state(cold)
    assert a.keys() == b.keys()
    for key in a:
        if key == "has_inf":
            assert a[key] == b[key]
        else:
            np.testing.assert_array_equal(a[key], b[key], err_msg=key)


@pytest.mark.parametrize("direction", ["directed", "bidirectional"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
class TestAppendBitIdentity:
    def test_single_append_matches_cold_build(self, kind, direction):
        small, rng = _base(6, direction, rng_seed=11)
        big = _grown(small, 9, rng)
        powers = SquareRootPower()(big)

        grown = _build(kind, small, powers[: small.n])
        _append(grown, big, powers)
        cold = _cold(kind, big, powers)
        _assert_identical(grown, cold)

    def test_repeated_appends_match_cold_build(self, kind, direction):
        small, rng = _base(5, direction, rng_seed=13)
        sizes = [7, 8, 12, 17]
        instances = [small]
        for size in sizes:
            instances.append(_grown(instances[-1], size, rng))
        final_powers = SquareRootPower()(instances[-1])

        grown = _build(kind, small, final_powers[: small.n])
        for inst in instances[1:]:
            _append(grown, inst, final_powers[: inst.n])
            cold = _cold(kind, inst, final_powers[: inst.n])
            _assert_identical(grown, cold)

    def test_shared_node_pairs_append_infinite_gains(
        self, kind, direction
    ):
        """Arrivals sharing a node with an existing request create inf
        gains in the appended block; the flag and values must match a
        cold build exactly."""
        small, rng = _base(6, direction, rng_seed=17)
        # Both arrivals reuse a node of request 0 as an endpoint.
        s0 = int(small.senders[0])
        r0 = int(small.receivers[0])
        # An arrival *sent from* r0 collides with request 0's receiver
        # in both variants (directed gains key on sender-vs-receiver).
        big = Instance(
            small.metric,
            np.concatenate([small.senders, [r0, s0]]),
            np.concatenate(
                [small.receivers, [int(small.senders[1]), int(small.receivers[1])]]
            ),
            direction=small.direction,
            alpha=small.alpha,
        )
        powers = SquareRootPower()(big)
        grown = _build(kind, small, powers[: small.n])
        assert not grown.has_infinite_gains
        _append(grown, big, powers)
        cold = _cold(kind, big, powers)
        assert grown.has_infinite_gains
        _assert_identical(grown, cold)

    def test_raw_backend_cannot_grow(self, kind, direction):
        small, rng = _base(4, direction, rng_seed=19)
        big = _grown(small, 6, rng)
        powers = SquareRootPower()(big)
        if kind.startswith("DenseBackend"):
            gains = np.zeros((small.n, small.n))
            backend = DenseBackend(gains, gains)
        else:
            import scipy.sparse as sp

            csr = sp.csr_matrix((small.n, small.n))
            zero = np.zeros(small.n)
            backend = SparseBackend(csr, csr, zero, zero.copy(), 0.0, False)
        with pytest.raises(ValueError, match="grow"):
            _append(backend, big, powers)


@pytest.mark.parametrize("direction", ["directed", "bidirectional"])
class TestDenseTransposeGrowth:
    def test_materialized_transposes_grow_in_place(self, direction):
        """A transpose cache warmed before the appends must be extended
        (bit-identical to re-transposing) rather than re-materialized —
        re-transposing would make every O(n) arrival quadratic."""
        small, rng = _base(5, direction, rng_seed=37)
        inst = small
        backend = DenseBackend.build(small, SquareRootPower()(small))
        backend.gains_ut  # warm the cache
        for size in (7, 10, 16):
            inst = _grown(inst, size, rng)
            _append(backend, inst, SquareRootPower()(inst))
            cold = DenseBackend.build(inst, SquareRootPower()(inst))
            np.testing.assert_array_equal(backend.gains_ut, cold.gains_ut)
            np.testing.assert_array_equal(backend.gains_vt, cold.gains_vt)
            assert backend.gains_ut.flags.writeable is False
        # The grown transposes are buffer views, not fresh transposes.
        assert backend._buf_ut is not None
        assert backend.gains_ut.base is backend._buf_ut
        if direction == "directed":
            assert backend.gains_vt is backend.gains_ut


class TestDenseCapacity:
    def test_capacity_grows_by_a_quarter_and_views_stay_readonly(self):
        small, rng = _base(16, "directed", rng_seed=23, metric_nodes=120)
        backend = DenseBackend.build(small, SquareRootPower()(small))
        capacities = [backend._buf_u.shape[0]]
        inst = small
        for size in range(17, 41):
            inst = _grown(inst, size, rng)
            _append(backend, inst, SquareRootPower()(inst))
            if backend._buf_u.shape[0] != capacities[-1]:
                capacities.append(backend._buf_u.shape[0])
        # One request at a time from 16 to 40: each reallocation adds
        # a quarter (16 -> 20 -> 25 -> 31 -> 38 -> 47), not a doubling,
        # and reallocates a handful of times, not once per append.
        assert capacities == [16, 20, 25, 31, 38, 47]
        gains = backend.dense_u()
        assert gains.shape == (40, 40)
        np.testing.assert_array_equal(
            gains, DenseBackend.build(inst, SquareRootPower()(inst)).dense_u()
        )
        with pytest.raises((ValueError, RuntimeError)):
            gains[0, 0] = 1.0


class TestSparseEpsilonAppend:
    def test_pruned_append_is_conservative(self):
        """ε>0 appends keep the pruned-mass bound a true upper bound
        on what was dropped, even though the kept set may differ from
        a cold rebuild's."""
        small, rng = _base(8, "directed", rng_seed=29)
        big = _grown(small, 14, rng)
        powers = SquareRootPower()(big)
        epsilon = 0.2

        grown = SparseBackend.build(small, powers[: small.n], epsilon=epsilon)
        _append(grown, big, powers)
        dense = DenseBackend.build(big, powers)

        rows = np.arange(big.n)
        full = dense.row_sums_u(rows)
        kept = grown.row_sums_u(rows)
        pruned = grown.pruned_mass_u
        finite = np.isfinite(full)
        dropped = full[finite] - kept[finite]
        assert np.all(
            dropped <= pruned[finite] + 1e-12 * np.abs(full[finite])
        )
        assert np.all(pruned >= 0)


class TestValidateGrowth:
    def _pair(self):
        small, rng = _base(5, "directed", rng_seed=31)
        big = _grown(small, 8, rng)
        return small, big, SquareRootPower()

    def test_accepts_valid_growth(self):
        small, big, power = self._pair()
        validate_growth(small, power(big)[: small.n], big, power(big))

    def test_rejects_shrinking(self):
        small, big, power = self._pair()
        with pytest.raises(ValueError, match="shrink"):
            validate_growth(big, power(big), small, power(big)[: small.n])

    def test_rejects_changed_prefix(self):
        small, big, power = self._pair()
        mutated = Instance(
            big.metric,
            np.concatenate([[big.senders[1]], big.senders[1:]]),
            big.receivers,
            direction=big.direction,
            alpha=big.alpha,
        )
        with pytest.raises(ValueError, match="prefix"):
            validate_growth(
                small, power(big)[: small.n], mutated, power(mutated)
            )

    def test_rejects_changed_prefix_powers(self):
        small, big, power = self._pair()
        powers = power(big)
        bad = powers.copy()
        bad[0] *= 2.0
        with pytest.raises(ValueError, match="power"):
            validate_growth(small, powers[: small.n], big, bad)

    def test_rejects_different_metric(self):
        small, big, power = self._pair()
        other = random_uniform_instance(big.n, rng=99)
        with pytest.raises(ValueError, match="metric"):
            validate_growth(small, power(big)[: small.n], other,
                            SquareRootPower()(other))


def _edited(instance, slots, pairs):
    """A cold-built instance with ``slots[k]`` holding ``pairs[k]``."""
    senders = instance.senders.copy()
    receivers = instance.receivers.copy()
    senders[slots] = [p[0] for p in pairs]
    receivers[slots] = [p[1] for p in pairs]
    return Instance(
        instance.metric,
        senders,
        receivers,
        direction=instance.direction,
        alpha=instance.alpha,
    )


def _fresh_pairs(instance, rng, count):
    metric_size = instance.metric.n
    pairs = []
    while len(pairs) < count:
        s, r = (int(v) for v in rng.integers(0, metric_size, size=2))
        if s != r:
            pairs.append((s, r))
    return pairs


def _csr_storage(backend):
    """The raw CSR arrays of a consolidated sparse backend."""
    backend.flush_growth()
    out = []
    for csr in (backend._csr_u, backend._csr_v, backend._csr_ut, backend._csr_vt):
        out += [csr.data, csr.indices, csr.indptr]
    return out


@pytest.mark.parametrize("direction", ["directed", "bidirectional"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
class TestReplaceBitIdentity:
    """replace_requests: a departed slot taken over in place holds
    exactly what a cold build of the edited instance holds."""

    def _check(self, kind, backend, instance, powers):
        cold = _cold(kind, instance, powers)
        _assert_identical(backend, cold)
        if kind.startswith("SparseBackend"):
            for got, want in zip(_csr_storage(backend), _csr_storage(cold)):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("warm_transposes", [False, True])
    def test_single_slot_matches_cold_build(
        self, kind, direction, warm_transposes
    ):
        base, rng = _base(9, direction, rng_seed=41)
        powers = SquareRootPower()(base)
        backend = _build(kind, base, powers)
        if warm_transposes:
            backend.dense_ut()
            backend.col_u(0)
        edited = base.replaced([4], _fresh_pairs(base, rng, 1))
        edited_powers = SquareRootPower()(edited)
        backend.replace_requests([4], edited, edited_powers)
        self._check(kind, backend, edited, edited_powers)

    def test_repeated_replacements_match_cold_build(self, kind, direction):
        base, rng = _base(10, direction, rng_seed=43)
        instance, powers = base, SquareRootPower()(base)
        backend = _build(kind, instance, powers)
        backend.col_u(0)
        for slots in ([0], [9], [3, 7], [2, 5, 6], [3]):
            instance = instance.replaced(
                slots, _fresh_pairs(instance, rng, len(slots))
            )
            powers = SquareRootPower()(instance)
            backend.replace_requests(slots, instance, powers)
            self._check(kind, backend, instance, powers)

    def test_replace_after_append_matches_cold_build(self, kind, direction):
        small, rng = _base(6, direction, rng_seed=47)
        big = _grown(small, 9, rng)
        backend = _build(kind, small, SquareRootPower()(small))
        _append(backend, big, SquareRootPower()(big))
        edited = big.replaced([1, 7], _fresh_pairs(big, rng, 2))
        powers = SquareRootPower()(edited)
        backend.replace_requests([1, 7], edited, powers)
        self._check(kind, backend, edited, powers)

    def test_append_after_replace_matches_cold_build(self, kind, direction):
        base, rng = _base(8, direction, rng_seed=49)
        edited = base.replaced([2, 5], _fresh_pairs(base, rng, 2))
        backend = _build(kind, base, SquareRootPower()(base))
        backend.replace_requests([2, 5], edited, SquareRootPower()(edited))
        big = _grown(edited, 11, rng)
        powers = SquareRootPower()(big)
        _append(backend, big, powers)
        self._check(kind, backend, big, powers)

    def test_reused_and_appended_slots_in_one_call_match_cold_build(
        self, kind, direction
    ):
        base, rng = _base(8, direction, rng_seed=137)
        backend = _build(kind, base, SquareRootPower()(base))
        backend.col_u(0)
        edited = base.replaced([0, 5], _fresh_pairs(base, rng, 2)).appended(
            _fresh_pairs(base, rng, 3)
        )
        powers = SquareRootPower()(edited)
        backend.replace_requests([0, 5, 8, 9, 10], edited, powers)
        self._check(kind, backend, edited, powers)

    def test_shared_node_arrivals_set_and_clear_infinite_gains(
        self, kind, direction
    ):
        """An arrival sharing a node with a live request creates inf
        gains; replacing it again with a disjoint pair clears them —
        the flag follows a cold build both ways."""
        base, rng = _base(8, direction, rng_seed=53)
        powers = SquareRootPower()(base)
        backend = _build(kind, base, powers)
        backend.dense_ut()
        assert not backend.has_infinite_gains
        # Sent from request 0's receiver: shared node in both variants.
        shared = [(int(base.receivers[0]), int(base.senders[1]))]
        edited = _edited(base, [5], shared)
        edited_powers = SquareRootPower()(edited)
        backend.replace_requests([5], edited, edited_powers)
        assert backend.has_infinite_gains
        self._check(kind, backend, edited, edited_powers)

        used = set(edited.senders.tolist()) | set(edited.receivers.tolist())
        free = [v for v in range(edited.metric.n) if v not in used][:2]
        cleared = _edited(edited, [5], [tuple(free)])
        cleared_powers = SquareRootPower()(cleared)
        backend.replace_requests([5], cleared, cleared_powers)
        assert not backend.has_infinite_gains
        self._check(kind, backend, cleared, cleared_powers)

    def test_growth_must_name_every_appended_slot(self, kind, direction):
        small, rng = _base(5, direction, rng_seed=59)
        big = _grown(small, 7, rng)
        backend = _build(kind, small, SquareRootPower()(small))
        for slots in ([0], [0, 5], [6]):
            with pytest.raises(ValueError, match="every appended request"):
                backend.replace_requests(slots, big, SquareRootPower()(big))
        assert backend.n == small.n

    def test_raw_backend_cannot_be_edited(self, kind, direction):
        base, rng = _base(4, direction, rng_seed=61)
        edited = base.replaced([0], _fresh_pairs(base, rng, 1))
        if kind.startswith("DenseBackend"):
            gains = np.zeros((base.n, base.n))
            backend = DenseBackend(gains, gains)
        else:
            import scipy.sparse as sp

            csr = sp.csr_matrix((base.n, base.n))
            zero = np.zeros(base.n)
            backend = SparseBackend(csr, csr, zero, zero.copy(), 0.0, False)
        with pytest.raises(ValueError, match="edited"):
            backend.replace_requests([0], edited, SquareRootPower()(edited))


class TestDenseReplaceStorage:
    def test_edits_write_through_and_views_stay_readonly(self):
        base, rng = _base(8, "bidirectional", rng_seed=67)
        backend = DenseBackend.build(base, SquareRootPower()(base))
        gains_u, gains_ut = backend.gains_u, backend.gains_ut
        edited = base.replaced([2], _fresh_pairs(base, rng, 1))
        backend.replace_requests([2], edited, SquareRootPower()(edited))
        # Same arrays, edited in place: nothing was reallocated.
        assert backend.gains_u is gains_u and backend.gains_ut is gains_ut
        cold = DenseBackend.build(edited, SquareRootPower()(edited))
        np.testing.assert_array_equal(gains_u, cold.gains_u)
        np.testing.assert_array_equal(gains_ut, cold.gains_ut)
        for arr in (backend.gains_u, backend.gains_v, backend.gains_ut):
            assert arr.flags.writeable is False

    def test_unpickled_backend_can_be_edited(self):
        import pickle

        base, rng = _base(7, "directed", rng_seed=71)
        backend = DenseBackend.build(base, SquareRootPower()(base))
        backend.gains_ut
        copy = pickle.loads(pickle.dumps(backend))
        # The copy carries its own instance (and metric object).
        edited = copy._instance.replaced([3], _fresh_pairs(base, rng, 1))
        powers = SquareRootPower()(edited)
        copy.replace_requests([3], edited, powers)
        _assert_identical(copy, DenseBackend.build(edited, powers))


@pytest.mark.parametrize("direction", ["directed", "bidirectional"])
class TestSparseDeferredReplace:
    """Slot edits wait in an overlay: every query answered before the
    write-back equals a cold build's (ε=0), and so does the storage
    after it."""

    def _queries(self, backend, n):
        rows = np.arange(n)
        out = {"has_inf": backend.has_infinite_gains}
        for name in ("row_u", "row_v", "col_u", "col_v"):
            out[name] = np.stack([getattr(backend, name)(i) for i in rows])
        out["cross_u"] = backend.cross_block_u(rows[:5], rows[3:])
        out["cross_v"] = backend.cross_block_v(rows[2:9], rows)
        return out

    def test_queries_with_pending_edits_match_cold_build(self, direction):
        base, rng = _base(36, direction, rng_seed=89, metric_nodes=120)
        instance, powers = base, SquareRootPower()(base)
        backend = SparseBackend.build(instance, powers, epsilon=0.0)
        for slots in ([4], [30, 2], [4, 17], [35]):
            instance = instance.replaced(
                slots, _fresh_pairs(instance, rng, len(slots))
            )
            powers = SquareRootPower()(instance)
            backend.replace_requests(slots, instance, powers)
            assert backend._edit_pos  # still deferred
            cold = SparseBackend.build(instance, powers, epsilon=0.0)
            got, want = (self._queries(b, instance.n) for b in (backend, cold))
            for key in want:
                np.testing.assert_array_equal(got[key], want[key], err_msg=key)
        for got, want in zip(_csr_storage(backend), _csr_storage(cold)):
            np.testing.assert_array_equal(got, want)
        assert not backend._edit_pos

    def test_shared_node_edit_is_tracked_while_pending(self, direction):
        base, _ = _base(36, direction, rng_seed=97, metric_nodes=120)
        powers = SquareRootPower()(base)
        backend = SparseBackend.build(base, powers, epsilon=0.0)
        assert not backend.has_infinite_gains
        shared = [(int(base.receivers[0]), int(base.senders[1]))]
        edited = _edited(base, [5], shared)
        backend.replace_requests([5], edited, SquareRootPower()(edited))
        assert backend._edit_pos and backend.has_infinite_gains
        assert np.isinf(backend.row_u(5)).any() or np.isinf(backend.col_u(5)).any()
        used = set(edited.senders.tolist()) | set(edited.receivers.tolist())
        free = [v for v in range(edited.metric.n) if v not in used][:2]
        cleared = edited.replaced([5], [tuple(free)])
        backend.replace_requests([5], cleared, SquareRootPower()(cleared))
        assert backend._edit_pos and not backend.has_infinite_gains

    def test_overlay_is_written_back_periodically(self, direction):
        base, rng = _base(12, direction, rng_seed=101)
        instance = base
        backend = SparseBackend.build(
            instance, SquareRootPower()(instance), epsilon=0.0
        )
        pending = []
        for slot in [0, 3, 6, 9, 1, 4, 7, 10] * 2:
            instance = instance.replaced([slot], _fresh_pairs(instance, rng, 1))
            backend.replace_requests([slot], instance, SquareRootPower()(instance))
            pending.append(len(backend._edit_pos))
        # Written back every nnz / 2n edited slots.
        assert max(pending) * 2 * instance.n <= instance.n**2 + 2 * instance.n
        assert 0 in pending


class TestSparseEpsilonReplace:
    def test_pruned_replace_is_conservative(self):
        """ε>0: the slot's row is pruned afresh and its new column is
        pruned as a block; every row's bound still covers the mass it
        is missing against the exact matrix."""
        base, rng = _base(14, "directed", rng_seed=73)
        backend = SparseBackend.build(
            base, SquareRootPower()(base), epsilon=0.2
        )
        before = np.array(backend.pruned_mass_u)
        instance = base
        for slots in ([3], [0, 11], [3]):
            instance = instance.replaced(
                slots, _fresh_pairs(instance, rng, len(slots))
            )
            powers = SquareRootPower()(instance)
            backend.replace_requests(slots, instance, powers)
        dense = DenseBackend.build(instance, powers)
        rows = np.arange(instance.n)
        full = dense.row_sums_u(rows)
        kept = backend.row_sums_u(rows)
        pruned = backend.pruned_mass_u
        finite = np.isfinite(full)
        assert np.all(
            full[finite] - kept[finite]
            <= pruned[finite] + 1e-12 * np.abs(full[finite])
        )
        # Rows that were never replaced only ever gain bound.
        others = np.setdiff1d(rows, [0, 3, 11])
        assert np.all(pruned[others] >= before[others])


class TestValidateReplacement:
    def test_accepts_changes_at_replaced_slots_only(self):
        base, rng = _base(6, "directed", rng_seed=79)
        edited = base.replaced([1, 4], _fresh_pairs(base, rng, 2))
        power = SquareRootPower()
        validate_growth(
            base, power(base), edited, power(edited), replaced=[1, 4]
        )
        with pytest.raises(ValueError, match="prefix"):
            validate_growth(
                base, power(base), edited, power(edited), replaced=[1]
            )

    def test_rejects_out_of_range_slots(self):
        base, rng = _base(6, "directed", rng_seed=83)
        power = SquareRootPower()
        with pytest.raises(ValueError, match="replaced indices"):
            validate_growth(base, power(base), base, power(base), replaced=[6])


@pytest.mark.parametrize("direction", ["directed", "bidirectional"])
class TestSparseEpsilonMixedStream:
    """ε>0: appends interleaved with slot reuses keep every stored
    entry exact and every row's recorded bound at or above the exact
    mass the row is missing."""

    def test_stored_entries_exact_and_bounds_cover_drops(self, direction):
        base, rng = _base(16, direction, rng_seed=107, metric_nodes=120)
        instance = base
        backend = SparseBackend.build(
            instance, SquareRootPower()(instance), epsilon=0.05
        )
        for step in range(12):
            pairs = _fresh_pairs(instance, rng, 1 + step % 3)
            if step % 2 == 0:
                slots = list(range(instance.n, instance.n + len(pairs)))
                instance = instance.appended(pairs)
            else:
                slots = rng.choice(instance.n, size=len(pairs), replace=False)
                instance = instance.replaced(slots.tolist(), pairs)
            powers = SquareRootPower()(instance)
            backend.replace_requests(slots, instance, powers)
            idx = np.arange(instance.n)
            endpoints = (
                (backend.row_u, backend.col_u, backend.pruned_mass_u),
                (backend.row_v, backend.col_v, backend.pruned_mass_v),
            )
            for (row_of, col_of, pruned), nodes in zip(
                endpoints, _host_gain_targets(instance)
            ):
                exact = _gain_block(instance, powers, nodes, idx, idx)
                stored = np.stack([row_of(i) for i in idx])
                np.testing.assert_array_equal(
                    np.stack([col_of(j) for j in idx], axis=1), stored
                )
                kept = stored != 0
                np.testing.assert_array_equal(stored[kept], exact[kept])
                dropped = np.where(kept, 0.0, exact)
                assert np.all(np.isfinite(dropped))  # inf is never dropped
                assert np.all(dropped.sum(axis=1) <= pruned)
        # The write-back stores exactly what the overlay answered.
        rows_u = np.stack([backend.row_u(i) for i in idx])
        backend.flush_growth()
        assert not backend._edit_pos
        np.testing.assert_array_equal(backend.dense_u(), rows_u)


@pytest.mark.parametrize("direction", ["directed", "bidirectional"])
class TestSparseBulkAppend:
    def test_bulk_append_stays_within_one_write_back_budget(
        self, direction, monkeypatch
    ):
        """Appending more slots than the write-back budget at once
        writes back in chunks: the overlay never holds more than one
        budget (2n entries per slot up to the CSR's nnz), and the
        result is a cold build's storage."""
        base, rng = _base(30, direction, rng_seed=109, metric_nodes=200)
        backend = SparseBackend.build(base, SquareRootPower()(base), epsilon=0.0)
        big = _grown(base, 90, rng)
        n = big.n
        assert n - base.n >= backend._csr_u.nnz / (2 * n)
        seen = []
        flush = SparseBackend.flush_growth

        def recording(self):
            if self._edit_pos:
                edits = {id(e): e for e in (self._edits_u, self._edits_v)}
                for e in edits.values():
                    seen.append((e.nbytes, int(self._csr_u.nnz)))
            flush(self)

        monkeypatch.setattr(SparseBackend, "flush_growth", recording)
        _append(backend, big, SquareRootPower()(big))
        backend.flush_growth()
        monkeypatch.undo()
        assert len(seen) >= 2 * (1 if direction == "directed" else 2)
        for nbytes, nnz in seen:
            assert nbytes <= 8 * (max(nnz, n) + 2 * n)
        cold = SparseBackend.build(big, SquareRootPower()(big), epsilon=0.0)
        for got, want in zip(_csr_storage(backend), _csr_storage(cold)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("direction", ["directed", "bidirectional"])
@pytest.mark.parametrize("kind", ["DenseBackend", "SparseBackend"])
class TestContextEdits:
    """InterferenceContext.replace_requests: reused and appended slots
    in one call leave the context a cold build's."""

    @staticmethod
    def _context(kind, instance, powers):
        backend = "dense" if kind == "DenseBackend" else "sparse"
        config = default_config(backend=backend, sparse_epsilon=0.0)
        return InterferenceContext(instance, powers, config=config)

    def test_reused_and_appended_slots_in_one_call(self, kind, direction):
        base, rng = _base(10, direction, rng_seed=113)
        context = self._context(kind, base, SquareRootPower()(base))
        context.signals, context.backend  # build both caches
        edited = base.replaced([2, 7], _fresh_pairs(base, rng, 2)).appended(
            _fresh_pairs(base, rng, 3)
        )
        powers = SquareRootPower()(edited)
        context.replace_requests([2, 7, 10, 11, 12], edited, powers)
        cold = self._context(kind, edited, powers)
        assert context.n == 13
        np.testing.assert_array_equal(context.signals, cold.signals)
        np.testing.assert_array_equal(context.margins(), cold.margins())
        colors = np.arange(13) % 3
        np.testing.assert_array_equal(
            context.margins(colors=colors), cold.margins(colors=colors)
        )
        _assert_identical(context.backend, cold.backend)

    def test_unbuilt_context_validates_the_edit(self, kind, direction):
        base, rng = _base(6, direction, rng_seed=127)
        context = self._context(kind, base, SquareRootPower()(base))
        big = _grown(base, 8, rng)
        powers = SquareRootPower()(big)
        with pytest.raises(ValueError, match="every appended request"):
            context.replace_requests([6], big, powers)
        assert context.n == 6
        context.replace_requests([6, 7], big, powers)
        np.testing.assert_array_equal(
            context.margins(), self._context(kind, big, powers).margins()
        )

    def test_appended_power_must_be_positive(self, kind, direction):
        base, rng = _base(6, direction, rng_seed=131)
        context = self._context(kind, base, SquareRootPower()(base))
        context.backend
        big = _grown(base, 7, rng)
        powers = SquareRootPower()(big)
        powers[6] = 0.0
        with pytest.raises(InvalidScheduleError, match="strictly positive"):
            context.replace_requests([6], big, powers)
        assert context.n == 6 and context.backend.n == 6
