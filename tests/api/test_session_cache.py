"""Context-cache LRU interacting with live Sessions (satellite).

Eviction from the global context LRU must never invalidate a session
mid-schedule — sessions pin their context with a strong reference —
and the weakref recency bookkeeping must stay GC-safe while sessions
come and go.
"""

import gc

import numpy as np
import pytest

from repro.api import Problem
from repro.core.context import (
    cache_info,
    clear_context_cache,
    context_cache_limit,
    get_context,
    set_context_cache_limit,
)
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower
from repro.scheduling.firstfit import first_fit_schedule


@pytest.fixture(autouse=True)
def _restore_cache_limit():
    previous = context_cache_limit()
    clear_context_cache()
    yield
    set_context_cache_limit(previous)
    clear_context_cache()


def _churn_cache(count: int, n: int = 6) -> None:
    """Create *count* fresh contexts to push older entries out."""
    for i in range(count):
        inst = random_uniform_instance(n, rng=9000 + i)
        get_context(inst, SquareRootPower()(inst))


class TestEvictionVsLiveSessions:
    def test_evicted_session_still_schedules_identically(self):
        set_context_cache_limit(2)
        instance = random_uniform_instance(10, rng=1)
        session = Problem(instance).session()
        first = session.schedule("first_fit")
        # Push the session's context out of the global LRU.
        _churn_cache(8)
        info = cache_info()
        assert info["contexts"] <= info["limit"]
        # The session still holds its context and reschedules bit-identically.
        assert session.context is not None
        second = session.reschedule()
        np.testing.assert_array_equal(first.colors, second.colors)
        ref = first_fit_schedule(instance, session.powers)
        np.testing.assert_array_equal(second.colors, ref.colors)

    def test_eviction_does_not_corrupt_pinned_context_state(self):
        set_context_cache_limit(1)
        instance = random_uniform_instance(8, rng=2)
        session = Problem(instance).session()
        context = session.context
        margins_before = context.margins()
        margins_before_subset = context.margins(subset=[0, 3, 5])
        _churn_cache(5)
        # The pinned context object answers queries unchanged after its
        # cache slot was reused.
        np.testing.assert_array_equal(margins_before, context.margins())
        np.testing.assert_array_equal(
            margins_before_subset, context.margins(subset=[0, 3, 5])
        )

    def test_session_context_is_stable_across_calls(self):
        set_context_cache_limit(4)
        session = Problem(random_uniform_instance(8, rng=3)).session()
        context = session.context
        session.schedule("first_fit")
        _churn_cache(6)
        session.schedule("peeling")
        assert session.context is context


class TestCertificationUnderEviction:
    def test_flip_risk_counted_after_eviction(self):
        """Certification must measure the context the algorithm really
        ran on: after LRU eviction the session re-pins its context, so
        the at-risk admission count matches the un-evicted run instead
        of silently reading 0 from a stale object."""
        set_context_cache_limit(4)
        instance = random_uniform_instance(48, rng=3)

        baseline_session = Problem(
            instance, backend="sparse", sparse_epsilon=0.2
        ).session()
        baseline = baseline_session.schedule("first_fit")
        # The pruned run must actually have at-risk admissions for this
        # regression test to mean anything.
        assert baseline.provenance.flip_risk_events > 0
        assert baseline.provenance.certified is False

        clear_context_cache()
        session = Problem(
            instance, backend="sparse", sparse_epsilon=0.2
        ).session()
        context = session.context  # build + pin
        _churn_cache(8)  # evict it from the global LRU
        churned = session.schedule("first_fit")
        assert (
            churned.provenance.flip_risk_events
            == baseline.provenance.flip_risk_events
        )
        assert churned.provenance.certified is False
        # Re-pinning reuses the session's own warm context, not a
        # cold rebuild.
        assert session.context is context
        np.testing.assert_array_equal(churned.colors, baseline.colors)

    def test_fixed_power_algorithms_pin_the_context(self):
        """Every needs_powers algorithm builds and pins the session
        context (the pinning guarantee is not certifiable-only)."""
        session = Problem(random_uniform_instance(8, rng=6)).session()
        assert session._context is None
        session.schedule("peeling")
        assert session._context is not None


class TestAddRequestsReleasesOldContext:
    """Growing a session must not leak the old instance's cache slot.

    ``add_requests`` now extends the pinned context in place: the old
    cache key is released eagerly (no cycle GC needed) and the same —
    grown — context object is re-pinned under the new key, so the live
    slot count never drifts and no dead entries crowd out the LRU."""

    def test_old_slot_moved_without_gc(self):
        set_context_cache_limit(4)
        session = Problem(random_uniform_instance(6, rng=50)).session()
        session.schedule("first_fit")
        before = cache_info()["contexts"]
        assert before >= 1
        context = session.context
        gc.disable()
        try:
            session.add_requests([(0, 3)])
            # The stale key is gone immediately — no cycle GC needed —
            # and the grown context re-occupies exactly one slot.
            assert cache_info()["contexts"] == before
            assert session._context is context
            assert context.n == 7
        finally:
            gc.enable()

    def test_repeated_growth_under_pressure(self):
        set_context_cache_limit(3)
        session = Problem(random_uniform_instance(6, rng=52)).session()
        gc.disable()
        try:
            for i in range(6):
                session.schedule("first_fit")
                session.add_requests([(0, 3 + (i % 5))])
            session.schedule("first_fit")
            # Only the live context occupies a slot; without the eager
            # release the dead entries would pile up to the limit.
            assert cache_info()["contexts"] == 1
        finally:
            gc.enable()

    def test_grown_session_schedules_correctly(self):
        session = Problem(random_uniform_instance(6, rng=53)).session()
        session.schedule("first_fit")
        session.add_requests([(0, 5), (2, 9)])
        result = session.reschedule()
        assert result.colors.size == 8
        ref = first_fit_schedule(session.instance, session.powers)
        np.testing.assert_array_equal(result.colors, ref.colors)


class TestWeakrefRecencyGcSafety:
    def test_dead_sessions_release_their_instances(self):
        set_context_cache_limit(4)
        for i in range(6):
            session = Problem(random_uniform_instance(6, rng=100 + i)).session()
            session.schedule("first_fit")
        del session
        gc.collect()
        info = cache_info()
        # Dropped instances are reclaimable; the live-context count
        # stays within the bound either way.
        assert info["contexts"] <= info["limit"]

    def test_churn_with_interleaved_live_session(self):
        set_context_cache_limit(2)
        live = Problem(random_uniform_instance(7, rng=4)).session()
        baseline = live.schedule("first_fit")
        for i in range(4):
            _churn_cache(3)
            gc.collect()
            again = live.reschedule()
            np.testing.assert_array_equal(baseline.colors, again.colors)

    def test_shrinking_limit_below_live_sessions_is_safe(self):
        set_context_cache_limit(8)
        sessions = [
            Problem(random_uniform_instance(6, rng=200 + i)).session()
            for i in range(4)
        ]
        results = [s.schedule("first_fit") for s in sessions]
        set_context_cache_limit(1)
        gc.collect()
        for session, result in zip(sessions, results):
            np.testing.assert_array_equal(
                session.reschedule().colors, result.colors
            )
