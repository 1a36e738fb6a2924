"""The asyncio serving layer: admission, backpressure, shed, drain.

No pytest-asyncio in the toolchain: each test is a plain function
driving its own event loop with ``asyncio.run``.
"""

import asyncio

import numpy as np
import pytest

from repro.api import Problem
from repro.instances.random_instances import random_uniform_instance
from repro.serve import AdmissionDecision, ScheduleServer, ServeConfig
from repro.serve.service import LATENCY_WINDOW, SessionStats


def _problem(n=10, seed=5):
    return Problem(random_uniform_instance(n, rng=seed))


class TestAdmission:
    def test_accepted_arrivals_carry_handle_and_color(self):
        async def main():
            async with ScheduleServer() as server:
                server.add_session("a", _problem())
                decision = await server.submit("a", (0, 3))
                assert isinstance(decision, AdmissionDecision)
                assert decision.accepted and decision.reason is None
                assert decision.color >= 0
                assert decision.handle.sender == 0
                assert decision.handle.receiver == 3
                assert decision.latency_s >= 0.0
                session = server.session("a")
                assert session.color_of(decision.handle) == decision.color

        asyncio.run(main())

    def test_admissions_match_plain_session(self):
        async def main():
            pairs = [(0, 3), (2, 7), (5, 1), (4, 9)]
            async with ScheduleServer() as server:
                server.add_session("a", _problem())
                for pair in pairs:
                    await server.submit("a", pair)
                served = np.asarray(server.session("a").ensure_live().colors)
            plain = _problem().session()
            plain.ensure_live()
            plain.add_requests(pairs)
            np.testing.assert_array_equal(
                served, np.asarray(plain.ensure_live().colors)
            )

        asyncio.run(main())

    def test_capacity_cap_rejects(self):
        async def main():
            async with ScheduleServer() as server:
                server.add_session(
                    "a", _problem(), ServeConfig(max_requests=12)
                )
                first = await server.submit("a", (0, 3))
                second = await server.submit("a", (2, 7))
                third = await server.submit("a", (5, 1))
                assert first.accepted and second.accepted
                assert not third.accepted
                assert third.reason == "capacity"
                assert third.handle is None and third.color == -1
                stats = server.stats("a")
                assert stats["admitted"] == 2
                assert stats["rejected_capacity"] == 1

        asyncio.run(main())

    def test_departures_free_capacity(self):
        async def main():
            async with ScheduleServer() as server:
                server.add_session(
                    "a", _problem(), ServeConfig(max_requests=11)
                )
                first = await server.submit("a", (0, 3))
                blocked = await server.submit("a", (2, 7))
                assert first.accepted and not blocked.accepted
                server.remove("a", first.handle)
                retried = await server.submit("a", (2, 7))
                assert retried.accepted
                assert server.stats("a")["departures"] == 1

        asyncio.run(main())

    def test_multiple_sessions_are_independent(self):
        async def main():
            async with ScheduleServer() as server:
                server.add_session("a", _problem(seed=5))
                server.add_session("b", _problem(seed=6))
                results = await asyncio.gather(
                    *(server.submit("a", (0, i + 1)) for i in range(3)),
                    *(server.submit("b", (1, i + 2)) for i in range(3)),
                )
                assert all(d.accepted for d in results)
                assert server.session("a").arrivals == 3
                assert server.session("b").arrivals == 3
                with pytest.raises(KeyError, match="no session"):
                    await server.submit("c", (0, 1))

        asyncio.run(main())


class TestBackpressureAndShed:
    def test_slow_consumer_backpressures_producer(self):
        """A slow on_admit consumer fills the bounded queue; further
        submits must then suspend (backpressure) instead of growing
        the queue without bound."""

        async def main():
            gate = asyncio.Event()
            consumed = []

            async def slow_consumer(decision):
                await gate.wait()
                consumed.append(decision)

            async with ScheduleServer() as server:
                server.add_session(
                    "a",
                    _problem(),
                    ServeConfig(queue_capacity=2, on_admit=slow_consumer),
                )
                producers = [
                    asyncio.create_task(server.submit("a", (0, i + 1)))
                    for i in range(5)
                ]
                await asyncio.sleep(0.05)
                # Worker is parked in the consumer; the queue is full
                # and at least one producer is suspended on put().
                assert server.pending("a") == 2
                blocked = [p for p in producers if not p.done()]
                assert len(blocked) >= 3
                gate.set()
                decisions = await asyncio.gather(*producers)
                assert all(d.accepted for d in decisions)
                await server.drain("a")
                assert len(consumed) == 5

        asyncio.run(main())

    def test_shed_policy_rejects_on_full_queue(self):
        async def main():
            gate = asyncio.Event()

            async def slow_consumer(decision):
                await gate.wait()

            async with ScheduleServer() as server:
                server.add_session(
                    "a",
                    _problem(),
                    ServeConfig(
                        queue_capacity=1,
                        overflow="shed",
                        on_admit=slow_consumer,
                    ),
                )
                producers = [
                    asyncio.create_task(server.submit("a", (0, i + 1)))
                    for i in range(4)
                ]
                await asyncio.sleep(0.05)
                gate.set()
                decisions = await asyncio.gather(*producers)
                shed = [d for d in decisions if not d.accepted]
                assert shed and all(d.reason == "queue_full" for d in shed)
                # Shed decisions resolve immediately — no producer hung.
                stats = server.stats("a")
                assert stats["rejected_queue"] == len(shed)
                assert stats["admitted"] == 4 - len(shed)

        asyncio.run(main())


class TestDrainAndClose:
    def test_drain_admits_everything_queued(self):
        async def main():
            async with ScheduleServer() as server:
                server.add_session("a", _problem())
                tasks = [
                    asyncio.create_task(server.submit("a", (0, i + 1)))
                    for i in range(6)
                ]
                await server.drain()
                assert server.pending("a") == 0
                decisions = await asyncio.gather(*tasks)
                assert sum(d.accepted for d in decisions) == 6
                result = server.session("a").live_result()
                assert result.provenance.incremental is True
                assert result.provenance.arrivals == 6
                result.validate()

        asyncio.run(main())

    def test_close_rejects_new_arrivals_but_finishes_queued(self):
        async def main():
            gate = asyncio.Event()

            async def slow_consumer(decision):
                await gate.wait()

            server = ScheduleServer()
            async with server:
                server.add_session(
                    "a",
                    _problem(),
                    ServeConfig(queue_capacity=4, on_admit=slow_consumer),
                )
                queued = [
                    asyncio.create_task(server.submit("a", (0, i + 1)))
                    for i in range(3)
                ]
                await asyncio.sleep(0.02)
                closing = asyncio.create_task(server.aclose())
                await asyncio.sleep(0.02)
                late = await server.submit("a", (5, 6))
                assert not late.accepted and late.reason == "closed"
                gate.set()
                decisions = await asyncio.gather(*queued)
                assert all(d.accepted for d in decisions)
                await closing
            # Idempotent: the context manager exit closed again.
            stats = server.stats("a")
            assert stats["admitted"] == 3

        asyncio.run(main())

    def test_stats_percentiles_present(self):
        async def main():
            async with ScheduleServer() as server:
                server.add_session("a", _problem())
                for i in range(5):
                    await server.submit("a", (0, i + 1))
                stats = server.stats("a")
                assert stats["p50_latency_s"] > 0
                assert stats["p99_latency_s"] >= stats["p50_latency_s"]
                assert stats["arrivals_per_sec"] > 0
                everything = server.stats()
                assert set(everything) == {"a"}

        asyncio.run(main())


class TestLatencyWindow:
    """SessionStats keeps the last LATENCY_WINDOW admission latencies
    in a ring (p50/p99 over them) and the mean over all admissions."""

    def _recorded(self, latencies):
        stats = SessionStats()
        for latency in latencies:
            stats.record_admission(latency)
        return stats

    def test_below_capacity_matches_the_full_history(self):
        rng = np.random.default_rng(3)
        latencies = rng.exponential(1e-3, size=LATENCY_WINDOW - 1).tolist()
        snap = self._recorded(latencies).snapshot()
        # What the unbounded list of every latency reports.
        lat = np.asarray(latencies, dtype=np.float64)
        assert snap["admitted"] == len(latencies)
        assert snap["mean_latency_s"] == float(lat.mean())
        assert snap["p50_latency_s"] == float(np.percentile(lat, 50))
        assert snap["p99_latency_s"] == float(np.percentile(lat, 99))

    def test_beyond_capacity_memory_stays_bounded(self):
        rng = np.random.default_rng(4)
        latencies = rng.exponential(1e-3, size=3 * LATENCY_WINDOW + 17).tolist()
        stats = self._recorded(latencies)
        assert stats._ring.shape == (LATENCY_WINDOW,)
        recent = np.asarray(latencies[-LATENCY_WINDOW:])
        np.testing.assert_array_equal(stats.latencies_s, recent)
        snap = stats.snapshot()
        assert snap["admitted"] == len(latencies)
        assert snap["p50_latency_s"] == float(np.percentile(recent, 50))
        assert snap["p99_latency_s"] == float(np.percentile(recent, 99))
        assert snap["mean_latency_s"] == pytest.approx(
            float(np.mean(latencies)), rel=1e-12
        )

    def test_no_admissions_report_no_latency(self):
        snap = SessionStats().snapshot()
        assert snap["mean_latency_s"] is None
        assert snap["p50_latency_s"] is None and snap["p99_latency_s"] is None
