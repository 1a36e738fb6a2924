"""Slot reuse under churn: an arrival takes over a departed request's
storage slot in place, and nothing a caller sees depends on which slot
it got."""

import numpy as np
import pytest

from repro.api import Problem
from repro.core.instance import Instance
from repro.instances import random_uniform_instance
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultSpec, InjectedFault
from repro.scheduling.firstfit import first_fit_schedule


def make_session(n=12, seed=3, **kwargs):
    return Problem(random_uniform_instance(n, rng=seed), **kwargs).session()


def pair_stream(session, seed, count):
    rng = np.random.default_rng(seed)
    size = session.instance.metric.n
    pairs = []
    while len(pairs) < count:
        s, r = (int(v) for v in rng.integers(0, size, size=2))
        if s != r:
            pairs.append((s, r))
    return pairs


def churn(session, pairs):
    """Admit each pair, then depart the oldest active request."""
    for pair in pairs:
        session.add_requests([pair])
        session.remove_requests([session.handles[0]])


def active_instance(session):
    """The active requests, in arrival order, as a fresh instance."""
    handles = session.handles
    base = session.instance
    return Instance(
        base.metric,
        [h.sender for h in handles],
        [h.receiver for h in handles],
        direction=base.direction,
        alpha=base.alpha,
    )


class TestStaleSnapshot:
    def test_snapshot_before_departure_is_not_restored(self):
        session = Problem(random_uniform_instance(12, rng=3)).session()
        kernel = session.ensure_live()
        snap = kernel.snapshot()
        session.remove_requests([session.handles[0]])
        assert session.recover(snap) == "rekernel"
        assert session.check_consistency() is None
        assert session.ensure_live().colors[0] == -1

    def test_snapshot_before_reuse_is_not_restored(self):
        session = make_session()
        session.ensure_live()
        session.remove_requests([session.handles[0]])
        snap = session.live_kernel.snapshot()
        session.add_requests(pair_stream(session, 1, 1))
        assert session.instance.n == 12  # reused, so n did not change
        assert session.recover(snap) == "rekernel"
        assert session.ensure_live().colors[0] >= 0

    def test_snapshot_before_a_reordering_rebuild_is_not_restored(self):
        """A compaction reorders reused slots without changing n or the
        arrival/departure counts; a snapshot of the old slot layout
        must not be restored onto the new one."""
        session = make_session()
        session.ensure_live()
        # Depart out of order, then refill: storage is full, uid order
        # no longer matches slot order.
        session.remove_requests([session.handles[7], session.handles[2]])
        session.add_requests(pair_stream(session, 13, 2))
        snap = session.live_kernel.snapshot()
        session.schedule("first_fit")  # compacts: rebuild()
        session.live_result()  # a fresh kernel over the new layout
        assert session.instance.n == 12
        assert session.recover(snap) == "rekernel"
        assert session.check_consistency() is None
        cold = Problem(active_instance(session)).session()
        np.testing.assert_array_equal(
            session.live_result().colors, cold.live_result().colors
        )

    def test_current_snapshot_still_restores(self):
        session = make_session()
        session.ensure_live()
        session.remove_requests([session.handles[0]])
        snap = session.live_kernel.snapshot()
        assert session.recover(snap) == "snapshot"

    def test_check_consistency_flags_a_departed_member(self):
        session = make_session()
        kernel = session.ensure_live()
        snap = kernel.snapshot()
        session.remove_requests([session.handles[0]])
        kernel.restore(snap)  # bypassing recover()
        assert "departed" in session.check_consistency()
        assert session.recover() == "rebuild"
        assert session.check_consistency() is None


class TestSlotReuse:
    def test_arrival_takes_the_departed_slot(self):
        session = make_session()
        session.ensure_live()
        victim = session.handles[4]
        session.remove_requests([victim])
        handle = session.add_requests([(0, 5)])[0]
        assert session.instance.n == 12
        assert session.instance.pairs()[4] == (0, 5)
        assert session.handles[-1] == handle
        assert session.check_consistency() is None

    def test_storage_stays_at_peak_active(self):
        session = make_session()
        session.ensure_live()
        churn(session, pair_stream(session, 2, 40))
        assert session.instance.n == 13
        assert session.active_requests == 12
        # A batch larger than the free list reuses, then appends.
        session.remove_requests(session.handles[:3])
        session.add_requests(pair_stream(session, 3, 5))
        assert session.instance.n == 14
        assert session.check_consistency() is None

    def test_live_result_and_handles_follow_arrival_order(self):
        session = make_session()
        session.ensure_live()
        churn(session, pair_stream(session, 4, 9))
        handles = session.handles
        assert [h.uid for h in handles] == sorted(h.uid for h in handles)
        result = session.live_result()
        expected = active_instance(session)
        np.testing.assert_array_equal(result.instance.senders, expected.senders)
        np.testing.assert_array_equal(
            result.instance.receivers, expected.receivers
        )
        # Same partition as the kernel's, request by request (the
        # result relabels classes compactly).
        relabel = {}
        for got, handle in zip(result.colors, handles):
            assert relabel.setdefault(session.color_of(handle), got) == got
        result.validate()

    def test_rekernel_replay_after_reuse_matches_cold_session(self):
        session = make_session()
        session.ensure_live()
        churn(session, pair_stream(session, 5, 15))
        assert session.recover() == "rekernel"
        replayed = session.live_result()
        cold = Problem(active_instance(session)).session().live_result()
        np.testing.assert_array_equal(replayed.colors, cold.colors)
        np.testing.assert_array_equal(
            replayed.instance.senders, cold.instance.senders
        )

    def test_rebuild_compacts_in_arrival_order(self):
        session = make_session()
        session.ensure_live()
        churn(session, pair_stream(session, 6, 7))
        expected = active_instance(session)
        survivor = session.handles[5]
        session.rebuild()
        np.testing.assert_array_equal(session.instance.senders, expected.senders)
        np.testing.assert_array_equal(
            session.instance.receivers, expected.receivers
        )
        assert session.handles[5] == survivor
        assert session.color_of(survivor) >= 0

    def test_batch_schedule_runs_in_arrival_order(self):
        session = make_session()
        session.ensure_live()
        churn(session, pair_stream(session, 7, 5))
        # Fill the last free slot: storage is full but out of order.
        session.add_requests(pair_stream(session, 8, 1))
        expected = active_instance(session)
        result = session.schedule("first_fit")
        np.testing.assert_array_equal(result.instance.senders, expected.senders)
        ref = first_fit_schedule(expected, session.powers)
        np.testing.assert_array_equal(result.colors, ref.colors)

    def test_explicit_powers_follow_the_slot(self):
        instance = random_uniform_instance(6, rng=9)
        session = Problem(instance, powers=np.ones(6)).session()
        session.ensure_live()
        session.remove_requests([session.handles[2]])
        session.add_requests([(0, 7)], powers=[2.5])
        assert session.instance.n == 6
        assert session.powers[2] == 2.5
        np.testing.assert_array_equal(np.delete(session.powers, 2), np.ones(5))
        session.live_result().validate()

    def test_arrival_before_the_kernel_is_live(self):
        session = make_session()
        session.context  # a built context, no kernel
        session.remove_requests([session.handles[1]])
        session.add_requests([(2, 9)])
        cold = Problem(active_instance(session)).session()
        np.testing.assert_array_equal(
            session.live_result().colors, cold.live_result().colors
        )


class TestFaultDuringReuse:
    def test_grown_fault_orphans_the_slot_and_recover_heals(self):
        session = make_session()
        session.ensure_live()
        churn(session, pair_stream(session, 10, 3))
        session.remove_requests([session.handles[0]])
        snap = session.live_kernel.snapshot()
        session.set_fault_hook(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="session", phase="add_requests:grown", at=(0,)
                    ),
                )
            )
        )
        n = session.instance.n
        with pytest.raises(InjectedFault):
            session.add_requests([(1, 6)])
        assert session.instance.n == n  # the arrival reused a slot
        damage = session.check_consistency()
        assert damage is not None and "interrupted" in damage
        assert session.recover(snap) == "rebuild"
        assert session.check_consistency() is None
        assert session.active_requests == 11

        session.set_fault_hook(None)
        session.add_requests([(1, 6)])
        cold = Problem(active_instance(session)).session()
        np.testing.assert_array_equal(
            session.live_result().colors, cold.live_result().colors
        )


class TestBoundedGrowthBuffers:
    def test_churn_at_64_active_never_reallocates(self):
        """3000 arrive/depart pairs at 64 active requests: one growth
        (the first arrival comes before any departure), then every
        arrival reuses a slot and no growth buffer is reallocated."""
        session = make_session(n=64, seed=11, backend="dense")
        session.ensure_live()
        pairs = pair_stream(session, 12, 3000)
        churn(session, pairs[:1])
        backend = session.context.backend
        backend.gains_ut  # the admission path keeps the transposes warm
        kernel = session.live_kernel
        buffers = [backend._buf_u, backend._buf_ut, kernel._row_bufs[0]]
        gains_u = backend.gains_u
        churn(session, pairs[1:])
        assert session.instance.n == 65
        assert session.context.backend is backend
        assert session.live_kernel is kernel
        assert backend._buf_u is buffers[0]
        assert backend._buf_ut is buffers[1]
        assert backend.gains_u is gains_u
        # The request capacity never moved (class rows may still grow).
        assert kernel._row_bufs[0].shape[1] == buffers[2].shape[1]
        assert session.check_consistency() is None
        session.live_result().validate()


class TestSparseSlotReuse:
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_sparse_churn_matches_dense_and_stays_bounded(self, epsilon):
        """The sparse backend defers slot edits to an overlay; a churned
        sparse session (at ε=0: exactly) tracks a dense one, and its
        storage stays at the peak active count."""
        sessions = [
            make_session(n=24, seed=14, backend="dense"),
            make_session(n=24, seed=14, backend="sparse", sparse_epsilon=epsilon),
        ]
        pairs = pair_stream(sessions[0], 15, 120)
        for session in sessions:
            session.ensure_live()
            churn(session, pairs)
            assert session.instance.n == 25
            assert session.check_consistency() is None
        if epsilon == 0.0:
            dense, sparse = (s.live_result() for s in sessions)
            np.testing.assert_array_equal(dense.colors, sparse.colors)
            sparse.validate()


class TestInvalidArrivalLeavesSessionIntact:
    def test_zero_length_link_into_a_free_slot(self):
        """An arrival rejected while its instance is built (two metric
        nodes at the same point) must not take a free slot with it."""
        from repro.geometry.euclidean import EuclideanMetric

        metric = EuclideanMetric([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [0.0, 4.0]])
        session = Problem(Instance.directed(metric, [(0, 1), (1, 2)])).session()
        session.ensure_live()
        session.remove_requests([session.handles[0]])
        with pytest.raises(Exception, match="zero distance"):
            session.add_requests([(2, 3)])
        assert session.check_consistency() is None
        assert session.instance.n == 2 and session.active_requests == 1
        session.add_requests([(0, 2)])
        assert session.instance.n == 2
        session.live_result().validate()
