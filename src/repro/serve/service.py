"""Bounded-queue asyncio front-end over live scheduling sessions.

Architecture
------------
One :class:`ScheduleServer` owns any number of named sessions.  Each
session gets

* a bounded :class:`asyncio.Queue` of pending arrivals,
* a single worker task that drains the queue and admits each arrival
  through the session's live kernel (``Session.add_requests`` → one
  O(n) vectorized admission, no context rebuild),
* admission control: arrivals are rejected up front when the session
  is at its ``max_requests`` cap, and — under the ``"shed"`` overflow
  policy — when the queue is full.

Under the default ``"wait"`` policy a full queue instead blocks the
producer inside :meth:`ScheduleServer.submit` (backpressure).  All
session state is touched only from the event loop thread, so no locks
are needed: the worker serializes arrivals per session, and departures
run inline between queue items.

Fault tolerance
---------------
The worker supervises every admission (see
:meth:`repro.api.Session.recover`): before mutating, it snapshots the
live kernel; an exception escaping ``add_requests`` triggers a
transactional rollback — bitwise snapshot restore when the kernel state
is intact, an automatic compacting rebuild when the session was left
half-mutated.  Either way the session stays structurally consistent and
the *next* arrival schedules bit-identically to a cold rebuild over the
same active set.  Recoveries are counted in
:attr:`SessionStats.recoveries` and flag the session ``degraded`` until
an admission succeeds again; if recovery itself fails the session is
marked ``broken`` and further arrivals are rejected with reason
``"degraded"``.

Per-request deadlines (:attr:`ServeConfig.request_deadline_s`) bound
the time an arrival may wait for its decision: an arrival still queued
when its deadline fires is rejected with reason ``"deadline"``.  The
event loop is single-threaded and admission is synchronous, so a
deadline timer can never fire mid-admission — the worker cancels it
before touching the session.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.api import Problem, RequestHandle, Session
from repro.resilience.faults import FaultPlan

__all__ = [
    "AdmissionDecision",
    "LATENCY_WINDOW",
    "ScheduleServer",
    "ServeConfig",
    "SessionStats",
]

#: How many of the most recent admissions' latencies a
#: :class:`SessionStats` keeps for its percentiles.  A long-lived
#: session's memory stays bounded; the mean still covers every
#: admission.
LATENCY_WINDOW = 4096


@dataclass(frozen=True)
class ServeConfig:
    """Per-session queueing and admission-control knobs.

    Parameters
    ----------
    queue_capacity:
        Bound on the arrival queue.  With ``overflow="wait"`` a full
        queue blocks producers in :meth:`ScheduleServer.submit`; with
        ``overflow="shed"`` the arrival is rejected immediately.
    max_requests:
        Cap on the session's *active* request count.  Arrivals that
        would exceed it are rejected with reason ``"capacity"``.
        ``None`` means unbounded.
    overflow:
        ``"wait"`` (backpressure, the default) or ``"shed"``.
    on_admit:
        Optional async consumer invoked by the worker after every
        decision.  A slow consumer slows the worker, which fills the
        queue and propagates backpressure to producers.
    request_deadline_s:
        Per-request decision deadline (seconds from submit), or
        ``None`` for no limit.  An arrival whose deadline fires while
        it is still queued is rejected with reason ``"deadline"``
        (counted in :attr:`SessionStats.rejected_deadline`).
    admit_retries:
        Extra admission attempts after a recovered failure (default 0:
        the first failure is recovered, then surfaced to the producer).
        Retries re-run the same arrival against the healed session —
        useful when faults are transient.
    fault_plan:
        Deterministic :class:`~repro.resilience.FaultPlan` installed on
        the session at registration (fires at ``site="session"`` with
        the session's name as key).  Test/chaos tooling only.
    """

    queue_capacity: int = 64
    max_requests: Optional[int] = None
    overflow: str = "wait"
    on_admit: Optional[Callable[["AdmissionDecision"], Awaitable[None]]] = None
    request_deadline_s: Optional[float] = None
    admit_retries: int = 0
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_requests is not None and self.max_requests < 1:
            raise ValueError("max_requests must be >= 1 or None")
        if self.overflow not in ("wait", "shed"):
            raise ValueError(
                f"overflow must be 'wait' or 'shed', got {self.overflow!r}"
            )
        if self.request_deadline_s is not None and self.request_deadline_s <= 0:
            raise ValueError(
                "request_deadline_s must be positive or None, "
                f"got {self.request_deadline_s}"
            )
        if self.admit_retries < 0:
            raise ValueError(
                f"admit_retries must be >= 0, got {self.admit_retries}"
            )


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one submitted arrival.

    ``accepted`` arrivals carry the stable :class:`RequestHandle` and
    the color class the live kernel admitted them into.  Rejected
    arrivals carry ``reason`` (``"capacity"``, ``"queue_full"``,
    ``"deadline"``, ``"degraded"``, or ``"closed"``) and a handle/color
    of ``None``/``-1``.  ``latency_s`` is wall time from submit to
    decision, queue wait included.
    """

    session: str
    handle: Optional[RequestHandle]
    color: int
    accepted: bool
    reason: Optional[str]
    latency_s: float


@dataclass
class SessionStats:
    """Running counters for one served session."""

    submitted: int = 0
    admitted: int = 0
    rejected_capacity: int = 0
    rejected_queue: int = 0
    rejected_deadline: int = 0
    departures: int = 0
    #: Supervised-admission recoveries (snapshot restores + rebuilds).
    recoveries: int = 0
    #: True from a recovery until the next successful admission.
    degraded: bool = False
    #: True when recovery itself failed; the session no longer admits.
    broken: bool = False
    #: Sum of every admission's latency (the mean's numerator).
    latency_sum_s: float = 0.0
    first_submit: Optional[float] = None
    last_decision: Optional[float] = None
    # Ring of the last LATENCY_WINDOW admission latencies: admission k
    # sits at k % LATENCY_WINDOW (allocated on the first admission).
    _ring: Optional[np.ndarray] = field(default=None, repr=False)

    def record_admission(self, latency_s: float) -> None:
        """Count one admission and its submit-to-decision latency."""
        if self._ring is None:
            self._ring = np.empty(LATENCY_WINDOW)
        self._ring[self.admitted % LATENCY_WINDOW] = latency_s
        self.admitted += 1
        self.latency_sum_s += latency_s

    @property
    def latencies_s(self) -> np.ndarray:
        """Latencies of the most recent admissions (at most
        :data:`LATENCY_WINDOW`), oldest first."""
        if self._ring is None:
            return np.zeros(0)
        if self.admitted <= LATENCY_WINDOW:
            return self._ring[: self.admitted].copy()
        start = self.admitted % LATENCY_WINDOW
        return np.concatenate([self._ring[start:], self._ring[:start]])

    def snapshot(self) -> Dict[str, Any]:
        """The counters, with p50/p99 latency over the window of recent
        admissions and the mean over all of them."""
        lat = self.latencies_s
        if self.admitted <= LATENCY_WINDOW:
            # The window holds every admission: the mean over it is the
            # one over all, reduced as numpy reduces it.
            mean = float(lat.mean()) if lat.size else None
        else:
            mean = self.latency_sum_s / self.admitted
        elapsed = (
            self.last_decision - self.first_submit
            if self.first_submit is not None
            and self.last_decision is not None
            and self.last_decision > self.first_submit
            else None
        )
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected_capacity": self.rejected_capacity,
            "rejected_queue": self.rejected_queue,
            "rejected_deadline": self.rejected_deadline,
            "departures": self.departures,
            "recoveries": self.recoveries,
            "degraded": self.degraded,
            "broken": self.broken,
            "arrivals_per_sec": (
                self.admitted / elapsed if elapsed else None
            ),
            "mean_latency_s": mean,
            "p50_latency_s": float(np.percentile(lat, 50)) if lat.size else None,
            "p99_latency_s": float(np.percentile(lat, 99)) if lat.size else None,
        }


@dataclass
class _Arrival:
    pair: Tuple[int, int]
    power: Optional[float]
    future: "asyncio.Future[AdmissionDecision]"
    submitted_at: float
    #: Pending deadline timer, cancelled by the worker before admission.
    expire_handle: Optional[asyncio.TimerHandle] = None


class _Served:
    """One session plus its queue, worker, and counters."""

    def __init__(self, name: str, session: Session, config: ServeConfig):
        self.name = name
        self.session = session
        self.config = config
        self.queue: "asyncio.Queue[_Arrival]" = asyncio.Queue(
            maxsize=config.queue_capacity
        )
        self.worker: Optional[asyncio.Task] = None
        self.stats = SessionStats()


class ScheduleServer:
    """Multiplex live sessions behind bounded arrival queues.

    Use as an async context manager (or call :meth:`aclose` yourself)::

        async with ScheduleServer() as server:
            server.add_session("cell-a", Problem(instance))
            decision = await server.submit("cell-a", (sender, receiver))

    All methods must be called from the owning event loop.
    """

    def __init__(self, default_config: Optional[ServeConfig] = None):
        self._default_config = default_config or ServeConfig()
        self._served: Dict[str, _Served] = {}
        self._closed = False

    # -- session lifecycle -------------------------------------------------

    def add_session(
        self,
        name: str,
        problem: Union[Problem, Session],
        config: Optional[ServeConfig] = None,
    ) -> Session:
        """Register *problem* under *name* and start its worker."""
        if self._closed:
            raise RuntimeError("server is closed")
        if name in self._served:
            raise ValueError(f"session {name!r} already registered")
        session = (
            problem if isinstance(problem, Session) else problem.session()
        )
        served = _Served(name, session, config or self._default_config)
        if served.config.fault_plan is not None:
            session.set_fault_hook(served.config.fault_plan, key=name)
        served.worker = asyncio.get_running_loop().create_task(
            self._drain_queue(served), name=f"repro-serve-{name}"
        )
        self._served[name] = served
        return session

    async def remove_session(self, name: str) -> Session:
        """Unregister *name*: stop its worker, reject everything still
        queued (reason ``"closed"``, pending deadline timers cancelled)
        and return the — still usable — :class:`Session`."""
        served = self._lookup(name)
        del self._served[name]
        if served.worker is not None:
            served.worker.cancel()
            try:
                await served.worker
            except asyncio.CancelledError:
                pass
            served.worker = None
        while True:
            try:
                arrival = served.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if arrival.expire_handle is not None:
                arrival.expire_handle.cancel()
                arrival.expire_handle = None
            if not arrival.future.done():
                arrival.future.set_result(
                    self._reject(served, "closed", arrival.submitted_at)
                )
            served.queue.task_done()
        return served.session

    def session(self, name: str) -> Session:
        return self._lookup(name).session

    def sessions(self) -> List[str]:
        return list(self._served)

    def _lookup(self, name: str) -> _Served:
        try:
            return self._served[name]
        except KeyError:
            raise KeyError(f"no session named {name!r}") from None

    # -- arrivals ----------------------------------------------------------

    async def submit(
        self,
        name: str,
        pair: Tuple[int, int],
        power: Optional[float] = None,
    ) -> AdmissionDecision:
        """Submit one arrival and await its admission decision.

        Applies admission control up front (n-cap, then queue policy),
        then parks the arrival on the session's bounded queue.  Under
        ``overflow="wait"`` a full queue suspends this coroutine until
        the worker frees a slot — that suspension *is* the
        backpressure signal to the producer.  With
        :attr:`ServeConfig.request_deadline_s` set, an arrival still
        undecided when the deadline fires is rejected with reason
        ``"deadline"`` (the deadline clock starts here, so queue wait
        — including backpressure wait — counts against it).
        """
        served = self._lookup(name)
        now = time.perf_counter()
        served.stats.submitted += 1
        if served.stats.first_submit is None:
            served.stats.first_submit = now

        if self._closed:
            return self._reject(served, "closed", now)
        if served.stats.broken:
            return self._reject(served, "degraded", now)
        if self._at_capacity(served):
            served.stats.rejected_capacity += 1
            return self._reject(served, "capacity", now)

        arrival = _Arrival(
            pair=(int(pair[0]), int(pair[1])),
            power=None if power is None else float(power),
            future=asyncio.get_running_loop().create_future(),
            submitted_at=now,
        )
        if served.config.request_deadline_s is not None:
            arrival.expire_handle = asyncio.get_running_loop().call_later(
                served.config.request_deadline_s,
                self._expire,
                served,
                arrival,
            )
        if served.config.overflow == "shed":
            try:
                served.queue.put_nowait(arrival)
            except asyncio.QueueFull:
                if arrival.expire_handle is not None:
                    arrival.expire_handle.cancel()
                    arrival.expire_handle = None
                served.stats.rejected_queue += 1
                return self._reject(served, "queue_full", now)
        else:
            await served.queue.put(arrival)
        return await arrival.future

    def _expire(self, served: _Served, arrival: _Arrival) -> None:
        """Deadline timer callback: reject an arrival still undecided.

        Runs on the event loop between tasks — never mid-admission,
        because the worker cancels the timer (synchronously, before its
        first await point after dequeue) before touching the session.
        """
        arrival.expire_handle = None
        if arrival.future.done():
            return
        served.stats.rejected_deadline += 1
        arrival.future.set_result(
            self._reject(served, "deadline", arrival.submitted_at)
        )

    def remove(
        self, name: str, handles: Union[RequestHandle, int, list]
    ) -> None:
        """Depart *handles* from the named session, exactly, in place."""
        served = self._lookup(name)
        if not isinstance(handles, list):
            handles = [handles]
        served.session.remove_requests(handles)
        served.stats.departures += len(handles)

    def _at_capacity(self, served: _Served) -> bool:
        cap = served.config.max_requests
        if cap is None:
            return False
        # Queued-but-unadmitted arrivals count against the cap so a
        # burst cannot overshoot it while the worker catches up.
        return served.session.active_requests + served.queue.qsize() >= cap

    def _reject(
        self, served: _Served, reason: str, submitted_at: float
    ) -> AdmissionDecision:
        now = time.perf_counter()
        served.stats.last_decision = now
        return AdmissionDecision(
            session=served.name,
            handle=None,
            color=-1,
            accepted=False,
            reason=reason,
            latency_s=now - submitted_at,
        )

    # -- worker ------------------------------------------------------------

    async def _drain_queue(self, served: _Served) -> None:
        while True:
            arrival = await served.queue.get()
            try:
                # Cancel the deadline timer before any session mutation:
                # from here to the decision there is no await point, so
                # the timer can never observe a half-admitted session.
                if arrival.expire_handle is not None:
                    arrival.expire_handle.cancel()
                    arrival.expire_handle = None
                if arrival.future.done():
                    # Expired (or otherwise settled) while queued.
                    continue
                decision = self._admit_guarded(served, arrival)
                if not arrival.future.done():
                    arrival.future.set_result(decision)
                if served.config.on_admit is not None:
                    await served.config.on_admit(decision)
            except Exception as exc:  # surface to the producer, keep serving
                if not arrival.future.done():
                    arrival.future.set_exception(exc)
            finally:
                served.queue.task_done()

    def _admit_guarded(
        self, served: _Served, arrival: _Arrival
    ) -> AdmissionDecision:
        """Supervised admission: snapshot → admit → roll back on error.

        A failed attempt is healed via :meth:`Session.recover` (bitwise
        kernel restore, or compacting rebuild when the session was left
        half-mutated) and retried up to ``admit_retries`` extra times;
        when the budget is gone the last exception propagates to the
        producer — with the session already healed, so subsequent
        arrivals are unaffected.  If recovery *itself* fails the
        session is marked broken and stops admitting.
        """
        if served.stats.broken:
            return self._reject(served, "degraded", arrival.submitted_at)
        session = served.session
        last_exc: Optional[Exception] = None
        for _ in range(served.config.admit_retries + 1):
            kernel = session.live_kernel
            # A free-slot arrival reseeds the kernel, which drops any
            # snapshot: snapshot only an appended arrival.
            reuses = session.instance.n > session.active_requests
            snap = kernel.snapshot() if kernel is not None and not reuses else None
            try:
                decision = self._admit(served, arrival)
            except Exception as exc:
                last_exc = exc
                try:
                    session.recover(snap)
                except Exception:
                    # The session is beyond self-healing: fence it off
                    # so it cannot serve inconsistent answers.  The
                    # producer still sees the original admission error
                    # (the recovery failure rides along as __context__).
                    served.stats.broken = True
                    served.stats.degraded = True
                    raise exc
                served.stats.recoveries += 1
                served.stats.degraded = True
                continue
            # A successful admission clears the degraded flag: the
            # session has demonstrably healed.  (A capacity rejection
            # proves nothing either way, so it leaves the flag alone.)
            if decision.accepted:
                served.stats.degraded = False
            return decision
        raise last_exc

    def _admit(self, served: _Served, arrival: _Arrival) -> AdmissionDecision:
        session = served.session
        cap = served.config.max_requests
        if cap is not None and session.active_requests >= cap:
            served.stats.rejected_capacity += 1
            return self._reject(served, "capacity", arrival.submitted_at)
        session.ensure_live()
        powers = None if arrival.power is None else [arrival.power]
        handle = session.add_requests([arrival.pair], powers=powers)[0]
        color = session.color_of(handle)
        now = time.perf_counter()
        served.stats.record_admission(now - arrival.submitted_at)
        served.stats.last_decision = now
        return AdmissionDecision(
            session=served.name,
            handle=handle,
            color=color,
            accepted=True,
            reason=None,
            latency_s=now - arrival.submitted_at,
        )

    # -- introspection -----------------------------------------------------

    def stats(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Counters and latency percentiles, per session or for all."""
        if name is not None:
            return self._lookup(name).stats.snapshot()
        return {n: s.stats.snapshot() for n, s in self._served.items()}

    def pending(self, name: str) -> int:
        return self._lookup(name).queue.qsize()

    # -- shutdown ----------------------------------------------------------

    async def drain(self, name: Optional[str] = None) -> None:
        """Wait until the named queue (or every queue) is fully admitted."""
        targets = (
            [self._lookup(name)] if name is not None
            else list(self._served.values())
        )
        await asyncio.gather(*(s.queue.join() for s in targets))

    async def aclose(self) -> None:
        """Drain every queue, then stop the workers.

        New ``submit`` calls are rejected with reason ``"closed"``
        as soon as this starts; arrivals already queued are still
        admitted before the workers stop.
        """
        if self._closed:
            return
        self._closed = True
        await self.drain()
        for served in self._served.values():
            if served.worker is not None:
                served.worker.cancel()
        for served in self._served.values():
            if served.worker is not None:
                try:
                    await served.worker
                except asyncio.CancelledError:
                    pass

    async def __aenter__(self) -> "ScheduleServer":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()
