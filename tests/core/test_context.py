"""Unit + property tests for the shared interference engine.

Context margins and the feasibility wrappers are checked against the
independent SINR oracle (``tests/oracle.py``) to 1e-12 relative.  The
hypothesis properties drive one class of a
:class:`~repro.core.kernels.ScheduleKernel` through random add/remove
sequences and require agreement with the oracle's interference to 1e-9
relative (the kernel sums incrementally) — including infinite-gain
(shared-node) entries, which must survive removal exactly (no
``inf - inf`` debris).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core.context import (
    InterferenceContext,
    cache_info,
    clear_context_cache,
    get_context,
)
from repro.core.errors import InvalidScheduleError
from repro.core.gains import default_config
from repro.core.feasibility import (
    feasible_subset_mask,
    is_feasible_partition,
    is_feasible_subset,
    sinr_margins,
)
from repro.core.instance import Direction, Instance
from repro.core.kernels import ScheduleKernel
from repro.geometry.line import LineMetric
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower


def _shared_node_instance(direction):
    metric = LineMetric([0.0, 1.0, 2.5, 4.5, 7.0, 9.0])
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    return Instance(
        metric,
        [p[0] for p in pairs],
        [p[1] for p in pairs],
        direction=direction,
    )


def _instance_pool():
    return {
        "bidir": random_uniform_instance(9, rng=11),
        "directed": random_uniform_instance(9, rng=12, direction="directed"),
        "shared-bidir": _shared_node_instance(Direction.BIDIRECTIONAL),
        "shared-dir": _shared_node_instance(Direction.DIRECTED),
    }


POOL = _instance_pool()
POWERS = {name: SquareRootPower()(inst) for name, inst in POOL.items()}


def oracle_margins(instance, powers, colors=None, subset=None, beta=None, noise=None):
    """The oracle's margins with the sinr_margins argument conventions:
    same-color interference under *colors*, restricted to *subset*."""
    sinr = oracle.SINROracle(instance, powers, beta=beta, noise=noise)
    members = list(range(instance.n)) if subset is None else [int(i) for i in subset]
    margins = []
    for i in members:
        peers = [j for j in members if colors is None or colors[j] == colors[i]]
        margins.append(sinr.margin(i, peers))
    return np.asarray(margins)


def assert_margins_match(got, expected, rtol):
    """inf/0 entries exactly (they come from exact rules), the rest to
    *rtol* relative."""
    exact = ~np.isfinite(expected) | (expected == 0)
    np.testing.assert_array_equal(got[exact], expected[exact])
    np.testing.assert_allclose(got[~exact], expected[~exact], rtol=rtol, atol=0)


class TestContextMatchesOracle:
    """Context margins and the wrappers agree with the oracle."""

    @pytest.mark.parametrize("name", sorted(POOL))
    def test_margins_full_and_colored(self, name):
        instance, powers = POOL[name], POWERS[name]
        context = get_context(instance, powers)
        rng = np.random.default_rng(0)
        colors = rng.integers(0, 3, size=instance.n)
        for kwargs in (
            {},
            {"colors": colors},
            {"subset": np.arange(instance.n // 2 + 1)},
            {"colors": colors, "subset": np.asarray([0, 2, 4])},
            {"beta": 2.5},
            {"noise": 0.25},
        ):
            expected = oracle_margins(instance, powers, **kwargs)
            assert_margins_match(context.margins(**kwargs), expected, 1e-12)

    @pytest.mark.parametrize("name", sorted(POOL))
    def test_wrappers_match_oracle(self, name):
        instance, powers = POOL[name], POWERS[name]
        subset = np.asarray([0, 1, 3])
        colors = np.asarray([0, 1, 0, 1, 2] + [0] * (instance.n - 5))
        sinr = oracle.SINROracle(instance, powers)
        threshold = 1.0 - oracle.RTOL
        subset_margins = np.asarray(sinr.margins(subset.tolist()))
        assert not any(oracle.near(m, threshold) for m in subset_margins)
        assert not any(
            oracle.near(m, threshold) for m in sinr.class_margins(colors)
        )
        assert_margins_match(
            sinr_margins(instance, powers),
            oracle_margins(instance, powers),
            1e-12,
        )
        np.testing.assert_array_equal(
            feasible_subset_mask(instance, powers, subset),
            subset_margins >= threshold,
        )
        assert is_feasible_subset(instance, powers, subset) == bool(
            np.all(subset_margins >= threshold)
        )
        assert is_feasible_partition(instance, powers, colors) == sinr.feasible(
            colors
        )

    def test_budget_slack_sign_matches_feasibility(self):
        instance, powers = POOL["bidir"], POWERS["bidir"]
        context = get_context(instance, powers)
        subset = np.arange(instance.n)
        slack = context.budget_slack(subset)
        mask = context.feasible_mask(subset)
        # Nonnegative slack <=> the SINR constraint holds (up to rtol).
        np.testing.assert_array_equal(slack >= -1e-12, mask)

    def test_shared_node_slack_is_minus_inf(self):
        instance = POOL["shared-bidir"]
        context = get_context(instance, POWERS["shared-bidir"])
        slack = context.budget_slack(np.asarray([0, 1]))
        assert np.all(np.isneginf(slack))


class TestContextCache:
    def test_cache_hit_on_equal_powers(self):
        clear_context_cache()
        instance, powers = POOL["bidir"], POWERS["bidir"]
        first = get_context(instance, powers)
        second = get_context(instance, powers.copy())  # equal by value
        assert first is second
        info = cache_info()
        assert info["hits"] >= 1 and info["misses"] >= 1

    def test_distinct_powers_get_distinct_contexts(self):
        instance, powers = POOL["bidir"], POWERS["bidir"]
        first = get_context(instance, powers)
        second = get_context(instance, powers * 2.0)
        assert first is not second

    def test_seeded_defaults_do_not_leak_to_default_callers(self):
        """A context created with beta/noise overrides must not be
        served to callers expecting instance defaults."""
        clear_context_cache()
        instance, powers = POOL["bidir"], POWERS["bidir"]
        seeded = get_context(instance, powers, noise=5.0, beta=2.0)
        plain = get_context(instance, powers)
        assert plain is not seeded
        assert plain.noise == instance.noise and plain.beta == instance.beta
        assert get_context(instance, powers, noise=5.0, beta=2.0) is seeded

    def test_context_validates_powers(self):
        instance = POOL["bidir"]
        with pytest.raises(InvalidScheduleError):
            InterferenceContext(instance, np.ones(instance.n - 1))
        with pytest.raises(InvalidScheduleError):
            InterferenceContext(instance, np.zeros(instance.n))

    def test_dropped_instances_are_collectable(self):
        """Cached contexts must not pin their instance forever: once the
        caller drops the instance, the instance<->context cycle is
        garbage-collectable."""
        import gc
        import weakref as wr

        clear_context_cache()
        refs = []
        for seed in range(3):
            inst = random_uniform_instance(5, rng=50 + seed)
            get_context(inst, SquareRootPower()(inst)).margins()
            refs.append(wr.ref(inst))
        del inst
        gc.collect()
        assert all(r() is None for r in refs), "instances leaked via cache"
        assert cache_info()["contexts"] == 0

    def test_global_lru_bounds_total_contexts(self):
        """Satellite regression: a long run over many instances must
        not grow the context cache without limit — the global LRU keeps
        the total live-context count at the configured bound."""
        from repro.core.context import (
            context_cache_limit,
            set_context_cache_limit,
        )

        clear_context_cache()
        previous = context_cache_limit()
        try:
            set_context_cache_limit(5)
            instances = [
                random_uniform_instance(4, rng=700 + i) for i in range(12)
            ]
            contexts = [
                get_context(inst, SquareRootPower()(inst))
                for inst in instances
            ]
            assert len(contexts) == 12  # all served
            info = cache_info()
            assert info["limit"] == 5
            assert info["contexts"] <= 5
            # The most recent contexts are the survivors: re-fetching
            # them hits the cache (same object)...
            for inst in instances[-5:]:
                assert (
                    get_context(inst, SquareRootPower()(inst))
                    in contexts[-5:]
                )
            # ...while the evicted ones are rebuilt.
            rebuilt = get_context(
                instances[0], SquareRootPower()(instances[0])
            )
            assert rebuilt is not contexts[0]
            # Shrinking the limit evicts immediately.
            set_context_cache_limit(2)
            assert cache_info()["contexts"] <= 2
        finally:
            set_context_cache_limit(previous)
            clear_context_cache()

    def test_lru_bound_does_not_leak_dropped_instances(self):
        """The LRU tracker must hold only weak references: instances
        dropped by the caller stay collectable even while under the
        cache bound."""
        import gc
        import weakref as wr

        from repro.core.context import (
            context_cache_limit,
            set_context_cache_limit,
        )

        clear_context_cache()
        previous = context_cache_limit()
        try:
            set_context_cache_limit(64)  # far above what we create
            refs = []
            for seed in range(4):
                inst = random_uniform_instance(4, rng=900 + seed)
                get_context(inst, SquareRootPower()(inst)).margins()
                refs.append(wr.ref(inst))
            del inst
            gc.collect()
            assert all(r() is None for r in refs)
            assert cache_info()["contexts"] == 0
        finally:
            set_context_cache_limit(previous)
            clear_context_cache()

    def test_backend_variants_get_distinct_cache_slots(self):
        instance, powers = POOL["bidir"], POWERS["bidir"]
        dense = get_context(
            instance, powers, config=default_config(backend="dense")
        )
        sparse = get_context(
            instance, powers, config=default_config(backend="sparse")
        )
        pruned = get_context(
            instance,
            powers,
            config=default_config(backend="sparse", sparse_epsilon=0.01),
        )
        assert dense is not sparse
        assert sparse is not pruned
        again = get_context(
            instance, powers, config=default_config(backend="sparse")
        )
        assert again is sparse

    def test_duplicate_subset_indices_are_two_copies(self):
        """A repeated index in `subset` is two copies of one request:
        margins equal the oracle's on an instance holding the request
        twice."""
        for name in ("bidir", "directed"):
            instance, powers = POOL[name], POWERS[name]
            subset = np.asarray([2, 2])
            twice = Instance(
                instance.metric,
                instance.senders[subset],
                instance.receivers[subset],
                direction=instance.direction,
                alpha=instance.alpha,
                beta=instance.beta,
                noise=instance.noise,
            )
            expected = np.asarray(
                oracle.SINROracle(twice, powers[subset]).margins([0, 1])
            )
            assert_margins_match(
                sinr_margins(instance, powers, subset=subset), expected, 1e-12
            )
            assert is_feasible_subset(instance, powers, subset) == bool(
                np.all(expected >= 1.0 - oracle.RTOL)
            )

    def test_context_immune_to_caller_mutation(self):
        instance = POOL["bidir"]
        powers = SquareRootPower()(instance).copy()
        context = get_context(instance, powers)
        margins_before = context.margins()
        powers *= 10.0  # caller mutates their array afterwards
        np.testing.assert_array_equal(context.margins(), margins_before)
        # The mutated vector resolves to a *different* context.
        assert get_context(instance, powers) is not context


class TestGreedyOnContext:
    @pytest.mark.parametrize("name", sorted(POOL))
    @pytest.mark.parametrize("beta_factor", [1.0, 0.5])
    def test_greedy_matches_oracle(self, name, beta_factor):
        """Full gain and the rescaled gain of the Theorem 15 repair."""
        from repro.analysis.capacity import greedy_max_feasible_subset

        instance, powers = POOL[name], POWERS[name]
        beta = instance.beta * beta_factor
        replay = oracle.peel(instance, powers, beta=beta)
        assert not replay.ambiguous
        np.testing.assert_array_equal(
            greedy_max_feasible_subset(instance, powers, beta=beta),
            replay.value,
        )


# ----------------------------------------------------------------------
# Property-based: one kernel class vs the oracle
# ----------------------------------------------------------------------


def _one_class(instance, powers, ops):
    """A kernel with one class, fed an add/remove script (each op
    toggles request ``op % n``); returns it and the final members."""
    kernel = ScheduleKernel(get_context(instance, powers))
    color = kernel.open_class()
    members = []
    for op in ops:
        idx = op % instance.n
        if idx in members:
            kernel.remove(idx)
            members.remove(idx)
        else:
            kernel.add(idx, color)
            members.append(idx)
    return kernel, members


@pytest.mark.parametrize("name", sorted(POOL))
@settings(max_examples=15, deadline=None)
@given(ops=st.lists(st.integers(min_value=0, max_value=10**6), max_size=40))
def test_kernel_class_matches_from_scratch_interference(name, ops):
    """The class row answers, for members and outsiders alike, the
    interference the current members induce — what an outsider would
    suffer if it joined."""
    instance, powers = POOL[name], POWERS[name]
    kernel, members = _one_class(instance, powers, ops)
    assert np.flatnonzero(kernel.colors == 0).tolist() == sorted(members)
    sinr = oracle.SINROracle(instance, powers)
    got = np.array([kernel.class_interference(i)[0] for i in range(instance.n)])
    expected = np.array([sinr.interference(i, members) for i in range(instance.n)])
    # inf (shared-node pairs, exact after removals) and 0 (no
    # contributor left) exactly; the incremental sums to 1e-9.
    assert_margins_match(got, expected, 1e-9)


@pytest.mark.parametrize("name", sorted(POOL))
@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(st.integers(min_value=0, max_value=10**6), max_size=30),
    probe=st.integers(min_value=0, max_value=10**6),
)
def test_kernel_admission_matches_oracle_feasibility(name, ops, probe):
    """``admissible_targets`` admits an outsider exactly when the class
    plus the outsider is feasible."""
    instance, powers = POOL[name], POWERS[name]
    kernel, members = _one_class(instance, powers, ops)
    probe = probe % instance.n
    if probe in members:
        return
    trial = members + [probe]
    margins = oracle.SINROracle(instance, powers).margins(trial)
    threshold = 1.0 - oracle.RTOL
    if any(oracle.near(m, threshold) for m in margins):
        return  # too close to call at the kernel's 1e-9 agreement
    verdict = bool(kernel.admissible_targets(probe)[0])
    assert verdict == all(m >= threshold for m in margins)
