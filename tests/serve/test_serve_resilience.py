"""Self-healing serve sessions: supervised admission, deadlines,
and shutdown racing recovery.

Acceptance criterion (c): an injected mid-admission fault must leave
the session in a state where the next ``live_result()`` is
bit-identical to a cold rebuild over the same active requests, with the
recovery counted in ``SessionStats.recoveries``.
"""

import asyncio

import numpy as np
import pytest

from repro.api import Problem
from repro.core.kernels import ScheduleKernel
from repro.instances import random_uniform_instance
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultSpec, InjectedFault
from repro.serve import ScheduleServer, ServeConfig

PAIRS = [(0, 3), (1, 4), (2, 5), (6, 7), (8, 9)]


def make_problem(n=12, seed=7):
    return Problem(random_uniform_instance(n, rng=np.random.default_rng(seed)))


def grown_fault(at=(1,), kind="raise"):
    """A plan that fires mid-admission, after the instance/context have
    grown but before the arrival is accounted — a genuinely
    half-mutated session."""
    return FaultPlan(
        specs=(
            FaultSpec(
                site="session", phase="add_requests:grown", at=at, kind=kind
            ),
        )
    )


async def cold_colors(pairs):
    """Colors from a fresh server admitting *pairs* with no faults."""
    async with ScheduleServer() as server:
        server.add_session("cold", make_problem())
        for pair in pairs:
            decision = await server.submit("cold", pair)
            assert decision.accepted
        return server.session("cold").live_result().schedule.colors


class TestSupervisedAdmission:
    def test_mid_admission_fault_matches_cold_rebuild(self):
        """Satellite 3: inject a fault mid-admission, then assert every
        subsequent arrival is colored exactly as a cold rebuild."""

        async def scenario():
            async with ScheduleServer() as server:
                server.add_session(
                    "s", make_problem(), ServeConfig(fault_plan=grown_fault())
                )
                outcomes = []
                for pair in PAIRS:
                    try:
                        decision = await server.submit("s", pair)
                        outcomes.append(decision.accepted)
                    except InjectedFault:
                        outcomes.append("fault")
                stats = server.stats("s")
                colors = server.session("s").live_result().schedule.colors
                return outcomes, stats, colors

        outcomes, stats, colors = asyncio.run(scenario())
        assert outcomes == [True, "fault", True, True, True]
        assert stats["recoveries"] == 1
        assert stats["degraded"] is False  # healed by later admissions
        assert stats["broken"] is False
        # The faulted arrival was rolled back entirely: the session
        # matches a cold server that never saw it.
        survivors = [p for i, p in enumerate(PAIRS) if i != 1]
        expected = asyncio.run(cold_colors(survivors))
        assert np.array_equal(colors, expected)

    def test_pre_mutation_fault_rolls_back_via_snapshot(self):
        async def scenario():
            plan = FaultPlan(
                specs=(
                    FaultSpec(
                        site="session", phase="add_requests:pre", at=(1,)
                    ),
                )
            )
            async with ScheduleServer() as server:
                server.add_session(
                    "s", make_problem(), ServeConfig(fault_plan=plan)
                )
                results = []
                for pair in PAIRS:
                    try:
                        results.append((await server.submit("s", pair)).color)
                    except InjectedFault:
                        results.append(None)
                return results, server.stats("s"), (
                    server.session("s").live_result().schedule.colors
                )

        results, stats, colors = asyncio.run(scenario())
        assert results[1] is None
        assert stats["recoveries"] == 1
        survivors = [p for i, p in enumerate(PAIRS) if i != 1]
        assert np.array_equal(colors, asyncio.run(cold_colors(survivors)))

    def test_reused_slot_arrival_takes_no_snapshot(self, monkeypatch):
        """An arrival into a free slot reseeds the kernel, which drops
        any snapshot: only an appended arrival is snapshotted."""
        taken = []
        real = ScheduleKernel.snapshot

        def spy(kernel):
            taken.append(kernel.n)
            return real(kernel)

        monkeypatch.setattr(ScheduleKernel, "snapshot", spy)

        async def scenario():
            async with ScheduleServer() as server:
                server.add_session("s", make_problem())
                session = server.session("s")
                first = await server.submit("s", PAIRS[0])  # builds the kernel
                await server.submit("s", PAIRS[1])  # appended
                appended = len(taken)
                server.remove("s", first.handle)
                decision = await server.submit("s", PAIRS[2])  # reuses a slot
                return appended, decision, session

        appended, decision, session = asyncio.run(scenario())
        assert appended == 1
        assert len(taken) == 1
        assert decision.accepted
        assert session.instance.n == 14  # 12 + 2 appended; the third reused
        assert session.check_consistency() is None

    def test_admit_retries_reruns_transient_fault(self):
        async def scenario():
            async with ScheduleServer() as server:
                server.add_session(
                    "s",
                    make_problem(),
                    ServeConfig(fault_plan=grown_fault(), admit_retries=1),
                )
                for pair in PAIRS:
                    decision = await server.submit("s", pair)
                    assert decision.accepted
                return server.stats("s"), (
                    server.session("s").live_result().schedule.colors
                )

        stats, colors = asyncio.run(scenario())
        assert stats["recoveries"] == 1
        assert stats["degraded"] is False
        # With the transient fault retried, ALL pairs were admitted —
        # and the result still matches a fault-free cold run.
        assert np.array_equal(colors, asyncio.run(cold_colors(PAIRS)))

    def test_degraded_until_next_success(self):
        async def scenario():
            # Fault on the LAST arrival, so nothing heals afterwards.
            plan = grown_fault(at=(len(PAIRS) - 1,))
            async with ScheduleServer() as server:
                server.add_session(
                    "s", make_problem(), ServeConfig(fault_plan=plan)
                )
                for pair in PAIRS[:-1]:
                    await server.submit("s", pair)
                with pytest.raises(InjectedFault):
                    await server.submit("s", PAIRS[-1])
                degraded_after_fault = server.stats("s")["degraded"]
                decision = await server.submit("s", (9, 2))
                return degraded_after_fault, decision, server.stats("s")

        degraded_after_fault, decision, stats = asyncio.run(scenario())
        assert degraded_after_fault is True
        assert decision.accepted
        assert stats["degraded"] is False

    def test_broken_session_fences_off(self, monkeypatch):
        async def scenario():
            async with ScheduleServer() as server:
                session = server.add_session(
                    "s", make_problem(), ServeConfig(fault_plan=grown_fault())
                )
                await server.submit("s", PAIRS[0])

                def doomed_recover(snapshot=None):
                    raise RuntimeError("recovery impossible")

                monkeypatch.setattr(session, "recover", doomed_recover)
                with pytest.raises(InjectedFault):
                    await server.submit("s", PAIRS[1])
                stats_after = server.stats("s")
                fenced = await server.submit("s", PAIRS[2])
                return stats_after, fenced

        stats, fenced = asyncio.run(scenario())
        assert stats["broken"] is True
        assert stats["degraded"] is True
        assert fenced.accepted is False
        assert fenced.reason == "degraded"


class TestRequestDeadlines:
    def test_queued_arrival_past_deadline_is_rejected(self):
        async def scenario():
            release = asyncio.Event()

            async def slow_consumer(decision):
                # Stall the worker after the first admission so the
                # second arrival ages out while queued.
                if decision.handle is not None and decision.handle.uid == 12:
                    await release.wait()

            config = ServeConfig(
                request_deadline_s=0.1, on_admit=slow_consumer
            )
            async with ScheduleServer() as server:
                server.add_session("s", make_problem(), config)
                first = asyncio.create_task(server.submit("s", PAIRS[0]))
                await asyncio.sleep(0.01)
                second = asyncio.create_task(server.submit("s", PAIRS[1]))
                decision2 = await second
                release.set()
                decision1 = await first
                return decision1, decision2, server.stats("s")

        decision1, decision2, stats = asyncio.run(scenario())
        assert decision1.accepted
        assert decision2.accepted is False
        assert decision2.reason == "deadline"
        assert decision2.latency_s >= 0.1
        assert stats["rejected_deadline"] == 1
        # The deadline rejection never touched the session.
        assert stats["admitted"] == 1

    def test_fast_admission_beats_deadline(self):
        async def scenario():
            config = ServeConfig(request_deadline_s=30.0)
            async with ScheduleServer() as server:
                server.add_session("s", make_problem(), config)
                decisions = [await server.submit("s", p) for p in PAIRS]
                return decisions, server.stats("s")

        decisions, stats = asyncio.run(scenario())
        assert all(d.accepted for d in decisions)
        assert stats["rejected_deadline"] == 0

    def test_remove_session_with_pending_deadline_timer(self):
        """Satellite 4: removing a session while an arrival's deadline
        timer is still pending must reject the queued arrival cleanly
        (no orphaned timer firing into a dead session)."""

        async def scenario():
            release = asyncio.Event()

            async def slow_consumer(decision):
                await release.wait()

            config = ServeConfig(
                request_deadline_s=5.0, on_admit=slow_consumer
            )
            async with ScheduleServer() as server:
                server.add_session("s", make_problem(), config)
                first = asyncio.create_task(server.submit("s", PAIRS[0]))
                await asyncio.sleep(0.01)
                # Queued behind the stalled worker, deadline pending.
                second = asyncio.create_task(server.submit("s", PAIRS[1]))
                await asyncio.sleep(0.01)
                release.set()
                session = await server.remove_session("s")
                decision1 = await first
                decision2 = await second
                assert "s" not in server.sessions()
                # Give any orphaned timer a chance to misfire.
                await asyncio.sleep(0.05)
                # The returned session is still usable directly.
                session.add_requests([PAIRS[2]])
                return decision1, decision2, session

        decision1, decision2, session = asyncio.run(scenario())
        assert decision1.accepted
        assert decision2.accepted is False
        assert decision2.reason == "closed"
        assert session.check_consistency() is None


class TestShutdownRacingRecovery:
    def test_drain_and_aclose_race_inflight_retries(self):
        """Satellite 4: drain()/aclose() while the worker is mid-retry
        must neither hang nor leave unresolved futures."""

        async def scenario():
            # Faults on several arrivals, each retried once.
            plan = grown_fault(at=(0, 2, 4))
            config = ServeConfig(fault_plan=plan, admit_retries=1)
            async with ScheduleServer() as server:
                server.add_session("s", make_problem(), config)
                submits = [
                    asyncio.create_task(server.submit("s", p)) for p in PAIRS
                ]
                # Let every submit enqueue before draining, so drain
                # genuinely races the worker's retry loop.
                await asyncio.sleep(0)
                await server.drain("s")
                await server.aclose()
                decisions = await asyncio.gather(*submits)
                return decisions, server.stats("s")

        decisions, stats = asyncio.run(scenario())
        assert [d.accepted for d in decisions] == [True] * len(PAIRS)
        assert stats["recoveries"] == 3
        assert stats["admitted"] == len(PAIRS)

    def test_aclose_rejects_new_but_flushes_queued(self):
        async def scenario():
            plan = grown_fault(at=(1,))
            config = ServeConfig(fault_plan=plan, admit_retries=1)
            async with ScheduleServer() as server:
                server.add_session("s", make_problem(), config)
                submits = [
                    asyncio.create_task(server.submit("s", p))
                    for p in PAIRS[:3]
                ]
                await asyncio.sleep(0)
                closer = asyncio.create_task(server.aclose())
                await closer
                late = await server.submit("s", PAIRS[3])
                decisions = await asyncio.gather(*submits)
                return decisions, late

        decisions, late = asyncio.run(scenario())
        assert [d.accepted for d in decisions] == [True, True, True]
        assert late.accepted is False
        assert late.reason == "closed"
