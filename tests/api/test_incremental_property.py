"""Property suite: arrival/departure streams vs. from-scratch rebuilds.

Two invariants, checked at *every step* of randomly generated
arrival/departure streams (shared-node and infinite-gain pairs
included — arrivals may reuse any metric node already serving a
request):

1. **Backend conformance.**  A dense session and a lossless
   (``epsilon=0``) sparse session replaying the identical stream hold
   bit-identical live colorings at every step — any bit drift in the
   grown sparse storage would flip an admission somewhere downstream.
2. **Cold-rebuild identity.**  For pure arrival streams the live
   kernel's coloring equals a brand-new session built cold on the
   grown instance (same admission order, cold-built context), so
   in-place context growth is observationally equal to a from-scratch
   rebuild after every batch.  With departures in the stream the
   rebuilt session replays the same arrivals/departures — history,
   not just the surviving set, determines first-fit colors.

At every step the live partition is also checked against the
independent oracle (``tests/oracle.py``): it must be oracle-feasible,
and equal the oracle's first-fit replay of the same arrival/departure
history unless a decision of that replay is too close to call.  The
session's bookkeeping must be consistent, and with departed slots
reused by later arrivals its storage never exceeds the most requests
ever active at once (plus one).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.api import Problem
from repro.core.instance import Instance
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower


def _base_instance(seed, n=4, metric_nodes=24):
    full = random_uniform_instance(metric_nodes // 2, rng=seed)
    return Instance(
        full.metric,
        full.senders[:n],
        full.receivers[:n],
        direction=full.direction,
        alpha=full.alpha,
    )


def _arrival_pairs(instance, rng, count):
    """Random pairs over the metric's nodes; reusing nodes of live
    requests (and hence creating infinite gains) is allowed."""
    pairs = []
    metric_size = instance.metric.n
    while len(pairs) < count:
        s = int(rng.integers(0, metric_size))
        r = int(rng.integers(0, metric_size))
        if s != r:
            pairs.append((s, r))
    return pairs


def _live_colors(session):
    session.ensure_live()
    active = sorted(h.uid for h in session.handles)
    return np.asarray(
        [session.color_of(uid) for uid in active], dtype=np.int64
    )


def _check_with_oracle(session, events, history):
    """The live partition is oracle-feasible and, unless ambiguous,
    equals the oracle's first-fit replay of *events*.  The replay runs
    on *history*, every pair that ever arrived indexed by uid (reused
    slots no longer hold a departed request's pair)."""
    assert session.check_consistency() is None
    result = session.live_result()
    assert oracle.SINROracle(result.instance, result.powers).feasible(
        result.colors
    )
    base = session.instance
    played = Instance(
        base.metric,
        [pair[0] for pair in history],
        [pair[1] for pair in history],
        direction=base.direction,
        alpha=base.alpha,
    )
    replay = oracle.online_first_fit(
        played, SquareRootPower()(played), events
    )
    if not replay.ambiguous:
        active = sorted(h.uid for h in session.handles)
        np.testing.assert_array_equal(
            _live_colors(session), [replay.value[uid] for uid in active]
        )


class TestArrivalStreams:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        batches=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    )
    def test_growth_matches_cold_rebuild_every_step(self, seed, batches):
        rng = np.random.default_rng(seed)
        instance = _base_instance(seed)
        dense = Problem(instance, backend="dense").session()
        sparse = Problem(
            instance, backend="sparse", sparse_epsilon=0.0
        ).session()
        dense.ensure_live()
        sparse.ensure_live()
        events = [("arrive", index) for index in range(instance.n)]
        history = instance.pairs()

        for count in batches:
            pairs = _arrival_pairs(dense.instance, rng, count)
            handles = dense.add_requests(pairs)
            sparse.add_requests(pairs)
            events += [("arrive", h.uid) for h in handles]
            history += pairs

            live = np.asarray(dense.ensure_live().colors)
            # (1) dense and lossless sparse agree bitwise.
            np.testing.assert_array_equal(
                live, np.asarray(sparse.ensure_live().colors)
            )
            # (2) the grown live kernel equals a cold build + fresh
            # admission pass on the grown instance.
            cold = Problem(dense.instance, backend="dense").session()
            np.testing.assert_array_equal(
                live, np.asarray(cold.ensure_live().colors)
            )
            # The live partition is feasible right now.
            dense.live_result().validate()
            _check_with_oracle(dense, events, history)


class TestArrivalDepartureStreams:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["arrive", "depart"]), st.integers(1, 3)
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_backends_conform_and_partition_stays_feasible(self, seed, ops):
        rng = np.random.default_rng(seed)
        instance = _base_instance(seed)
        dense = Problem(instance, backend="dense").session()
        sparse = Problem(
            instance, backend="sparse", sparse_epsilon=0.0
        ).session()
        dense.ensure_live()
        sparse.ensure_live()
        events = [("arrive", index) for index in range(instance.n)]
        history = instance.pairs()
        peak = instance.n

        for op, count in ops:
            if op == "arrive":
                pairs = _arrival_pairs(dense.instance, rng, count)
                d_handles = dense.add_requests(pairs)
                s_handles = sparse.add_requests(pairs)
                assert [h.uid for h in d_handles] == [
                    h.uid for h in s_handles
                ]
                events += [("arrive", h.uid) for h in d_handles]
                history += pairs
            else:
                live = dense.handles
                if len(live) <= count:
                    continue  # keep at least one active request
                victims = rng.choice(len(live), size=count, replace=False)
                uids = [live[int(i)].uid for i in victims]
                dense.remove_requests(uids)
                sparse.remove_requests(uids)
                events += [("depart", uid) for uid in uids]

            np.testing.assert_array_equal(
                _live_colors(dense), _live_colors(sparse)
            )
            dense.live_result().validate()
            _check_with_oracle(dense, events, history)
            assert sparse.check_consistency() is None
            assert dense.arrivals == sparse.arrivals
            assert dense.departures == sparse.departures
            peak = max(peak, dense.active_requests)
            assert dense.instance.n <= peak + 1
            assert sparse.instance.n == dense.instance.n

        # Compacting rebuild + batch reschedule equals the free
        # function on the surviving instance for both backends.
        dense.rebuild()
        sparse.rebuild()
        d_final = dense.schedule("first_fit")
        s_final = sparse.schedule("first_fit")
        np.testing.assert_array_equal(d_final.colors, s_final.colors)
        from repro.scheduling.firstfit import first_fit_schedule

        ref = first_fit_schedule(dense.instance, dense.powers)
        np.testing.assert_array_equal(d_final.colors, ref.colors)
