"""In-place backend growth: append_requests vs. cold rebuild.

The tentpole contract: appending rows/columns to a built backend is
bit-identical to rebuilding the backend from scratch on the grown
``(instance, powers)`` — for the dense backend always, in numpy and in
the process default's array namespace, and for the sparse backend at
``epsilon=0`` (the lossless setting the conformance
grid runs on).  ε>0 appends stay conservative (pruned mass only ever
adds to the bound) but are exempt from bit-identity, because pruning
a row tile in isolation cannot reproduce the whole-row kept set.
"""

import numpy as np
import pytest

from repro.core.gains import (
    DenseBackend,
    SparseBackend,
    default_config,
    validate_growth,
)
from repro.core.instance import Instance
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


#: Parametrization ids -> builders: dense on numpy, dense in the
#: process default's namespace (numpy unless ``REPRO_ARRAY_NAMESPACE``
#: says otherwise), lossless sparse.
BUILDERS = {
    "DenseBackend": DenseBackend.build,
    "DenseBackend-default-namespace": lambda instance, powers: DenseBackend.build(
        instance, powers, namespace=default_config().array_namespace
    ),
    "SparseBackend": lambda instance, powers: SparseBackend.build(
        instance, powers, epsilon=0.0
    ),
}


def _build(kind, instance, powers):
    return BUILDERS[kind](instance, powers)


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
        grown.append_requests(big, powers)
        cold = _build(kind, big, powers)
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
            grown.append_requests(inst, final_powers[: inst.n])
            cold = _build(kind, inst, final_powers[: inst.n])
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
        grown.append_requests(big, powers)
        cold = _build(kind, big, powers)
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
            backend.append_requests(big, powers)


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
            backend.append_requests(inst, SquareRootPower()(inst))
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
    def test_capacity_doubles_and_views_stay_readonly(self):
        small, rng = _base(4, "directed", rng_seed=23)
        powers_small = SquareRootPower()(small)
        backend = DenseBackend.build(small, powers_small)
        buf_before = backend._buf_u
        sizes = [5, 6, 7, 8]
        inst = small
        for size in sizes:
            inst = _grown(inst, size, rng)
            backend.append_requests(inst, SquareRootPower()(inst))
        # 4 -> 8 fits inside one doubling: the buffer reallocated at
        # most once, not once per append.
        assert backend._buf_u.shape[0] >= 8
        assert backend._buf_u is not buf_before
        gains = backend.dense_u()
        assert gains.shape == (8, 8)
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
        grown.append_requests(big, powers)
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
