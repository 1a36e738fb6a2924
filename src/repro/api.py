"""Unified solver API: ``Problem`` → ``Session`` → ``ScheduleResult``.

The one coherent entry point over the whole engine stack
(:class:`~repro.core.context.InterferenceContext`, the scheduler
kernels and the pluggable gain backends):

>>> from repro.api import Problem
>>> session = Problem(instance).session()          # doctest: +SKIP
>>> result = session.schedule("first_fit")         # doctest: +SKIP
>>> result.schedule.num_colors                     # doctest: +SKIP
>>> result.provenance.backend, result.provenance.certified  # doctest: +SKIP

* :class:`Problem` — what to solve: the instance, the power choice (an
  explicit vector, a :class:`~repro.power.base.PowerAssignment`, or
  ``None`` for the paper's square-root assignment) and the gain-backend
  preferences (``backend``/``sparse_epsilon``).
* :class:`Session` — a reusable solving context.  It owns the cached
  :class:`~repro.core.context.InterferenceContext` for its problem (a
  strong reference, so the global context-cache LRU can never evict it
  mid-schedule), resolves algorithms by name through
  :mod:`repro.scheduling.registry`, and supports incremental workloads
  via :meth:`~Session.add_requests` / :meth:`~Session.reschedule`.
* :class:`ScheduleResult` — the schedule plus :class:`Provenance`:
  which algorithm and parameters produced it, on which backend, whether
  a pruned-sparse run is *certified* bit-identical to dense (zero
  :attr:`~repro.core.gains.GainBackend.flip_risk_events`), the wall
  time, and the peel and arrival counters.
Every result is bit-identical to calling the submodule implementations
directly; the conformance suite asserts this on both dense and sparse
backends.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.context import (
    DEFAULT_RTOL,
    InterferenceContext,
    get_context,
    repin_context,
    unpin_context,
)
from repro.core.errors import InvalidInstanceError, InvalidScheduleError
from repro.core.gains import (
    BackendConfig,
    GainBackend,
    config_scope,
    default_config,
)
from repro.core.instance import Instance
from repro.core.kernels import (
    PeelFallbackInfo,
    ScheduleKernel,
    peel_fallback_records,
    peel_risk_events,
)
from repro.core.schedule import Schedule, build_schedule
from repro.power.base import ObliviousPowerAssignment, PowerAssignment
from repro.resilience.faults import FaultPlan
from repro.power.oblivious import FunctionPower, SquareRootPower
from repro.scheduling.registry import AlgorithmSpec, get_algorithm

__all__ = [
    "Problem",
    "Provenance",
    "RequestHandle",
    "ScheduleResult",
    "Session",
]

#: Sentinel distinguishing "argument not passed" from an explicit
#: ``None`` (``reschedule(rng=None)`` must *clear* a recorded rng, not
#: silently replay it).
_UNSET = object()

PowersLike = Union[None, np.ndarray, Sequence[float], PowerAssignment]


@dataclass(frozen=True)
class Provenance:
    """How a :class:`ScheduleResult` was produced.

    Attributes
    ----------
    algorithm:
        Registry name the schedule came from.
    params:
        The algorithm-specific keyword arguments, as passed.
    backend:
        Resolved gain-backend name (``"dense"``/``"sparse"``/``"sharded"``).
    sparse_epsilon:
        Resolved pruning budget (``0.0`` on dense / lossless runs).
    wall_seconds:
        Wall time of the algorithm run.
    flip_risk_events:
        Growth of the backend's at-risk-comparison counter during the
        run (always ``0`` on dense or lossless-sparse backends).
    certified:
        ``True`` — the run is provably bit-identical to the dense
        backend (zero flip-risk events on a certifiable algorithm);
        ``False`` — pruning may have changed a decision; ``None`` —
        certification does not apply (the algorithm's decisions do not
        all route through the flip-risk-counting kernel).
    peel_risk_events:
        Growth of the incremental peel's at-risk-decision counter
        (:func:`repro.core.kernels.peel_risk_events`) during the run:
        peel/stop/re-add comparisons that landed inside the
        :data:`~repro.core.kernels.PEEL_RISK_RTOL` band and were
        resolved by exact reference-order recomputation.  Re-add
        trials the peel's prefilter rejects outright are never run and
        add nothing.  Always ``0`` when the run never peels.
    peel_fallbacks:
        :class:`~repro.core.kernels.PeelFallbackInfo` records emitted
        during the run — peel calls (e.g. duplicate candidates) that
        left the kernel path for the from-scratch reference.
    incremental:
        ``True`` when the schedule came from the live online kernel
        (:meth:`Session.live_result`) — colors were assigned one
        arrival at a time on grown-in-place state — rather than from a
        batch algorithm run over the full instance.
    arrivals, departures:
        Total requests the session has admitted via
        :meth:`Session.add_requests` / removed via
        :meth:`Session.remove_requests` up to this result.
    """

    algorithm: str
    params: Dict[str, Any]
    backend: str
    sparse_epsilon: float
    wall_seconds: float
    flip_risk_events: int = 0
    certified: Optional[bool] = None
    peel_risk_events: int = 0
    peel_fallbacks: Tuple[PeelFallbackInfo, ...] = ()
    incremental: bool = False
    arrivals: int = 0
    departures: int = 0


@dataclass(frozen=True)
class RequestHandle:
    """A stable identity for one request admitted to a :class:`Session`.

    The handle survives :meth:`Session.rebuild` compactions (dense
    array indices do not — a departure shifts everyone behind it), so
    callers track *their* request across an arrival/departure stream
    and hand it back to :meth:`Session.remove_requests`.
    """

    uid: int
    sender: int
    receiver: int


@dataclass(frozen=True)
class ScheduleResult:
    """A schedule plus the provenance of its computation."""

    schedule: Schedule
    instance: Instance
    provenance: Provenance
    stats: Any = None
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def colors(self) -> np.ndarray:
        """The emitted coloring (delegates to the schedule)."""
        return self.schedule.colors

    @property
    def powers(self) -> np.ndarray:
        """The emitted powers (delegates to the schedule)."""
        return self.schedule.powers

    @property
    def num_colors(self) -> int:
        """Number of colors (the schedule length)."""
        return self.schedule.num_colors

    def validate(self, **kwargs: Any) -> "ScheduleResult":
        """Validate against the originating instance; returns ``self``
        so calls chain (raises
        :class:`~repro.core.errors.InvalidScheduleError` otherwise)."""
        self.schedule.validate(self.instance, **kwargs)
        return self


@dataclass
class Problem:
    """A scheduling problem plus execution preferences.

    Parameters
    ----------
    instance:
        The :class:`~repro.core.instance.Instance` to schedule.
    powers:
        ``None`` (the paper's square-root assignment), a
        :class:`~repro.power.base.PowerAssignment`, or an explicit
        positive power vector.  Self-powered algorithms (capability
        ``needs_powers=False``) ignore it and emit their own powers.
    backend, sparse_epsilon, workers, shard_executor:
        Gain-backend preferences; each ``None`` follows
        :func:`~repro.core.gains.default_config`.  They are resolved
        once, at construction, into :attr:`config` (a
        :class:`~repro.core.gains.BackendConfig`, so a typo fails here,
        not deep inside ``get_context``); every context the problem's
        sessions create, and every algorithm run, uses that config.
        *workers* and *shard_executor* require ``backend="sharded"``.
    """

    instance: Instance
    powers: PowersLike = None
    backend: Optional[str] = None
    sparse_epsilon: Optional[float] = None
    workers: Optional[int] = None
    shard_executor: Optional[str] = None
    config: BackendConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.config = default_config(
            backend=self.backend,
            sparse_epsilon=self.sparse_epsilon,
            workers=self.workers,
            shard_executor=self.shard_executor,
        )

    def _grown(self, instance: Instance, powers: PowersLike) -> "Problem":
        """This problem over a new instance and powers, keeping the
        config resolved at construction."""
        problem = Problem.__new__(Problem)
        problem.__dict__.update(self.__dict__)
        problem.instance, problem.powers = instance, powers
        return problem

    def session(self) -> "Session":
        """A fresh :class:`Session` for this problem."""
        return Session(self)


def _resolve_powers(
    instance: Instance, powers: PowersLike
) -> Tuple[np.ndarray, Optional[PowerAssignment]]:
    """``(power vector, assignment-or-None)`` for a problem's powers."""
    if powers is None:
        assignment: Optional[PowerAssignment] = SquareRootPower()
        return np.asarray(assignment(instance), dtype=float), assignment
    if isinstance(powers, PowerAssignment):
        return np.asarray(powers(instance), dtype=float), powers
    return np.asarray(powers, dtype=float), None


class Session:
    """A reusable solving context for one :class:`Problem`.

    The session resolves the problem's powers once, owns (a strong
    reference to) the shared
    :class:`~repro.core.context.InterferenceContext` for
    ``(instance, powers)`` and re-pins it in the global cache before
    every fixed-power run — so cache-LRU eviction can neither
    invalidate an active session nor force a cold gain-matrix rebuild
    (nor divert certification counters) between its calls.
    Self-powered algorithms (``needs_powers=False``) resolve their own
    power vectors and therefore manage their own contexts.  Every
    :meth:`schedule` call dispatches through the algorithm registry.
    """

    def __init__(self, problem: Union[Problem, Instance]):
        if isinstance(problem, Instance):
            problem = Problem(problem)
        self.problem = problem
        self._powers, self._assignment = _resolve_powers(
            problem.instance, problem.powers
        )
        self._context: Optional[InterferenceContext] = None
        self._last_algorithm: Optional[str] = None
        self._last_params: Dict[str, Any] = {}
        self._last_rng: Any = None
        self.last_result: Optional[ScheduleResult] = None
        # Incremental serving state: stable request uids -> current
        # storage slot (initial requests get uids 0..n-1, and the dict
        # is kept in uid order), a min-heap of departed slots free for
        # reuse, and the live online kernel.
        n = problem.instance.n
        self._uid_to_index: Dict[int, int] = {uid: uid for uid in range(n)}
        self._uid_seq: int = n
        self._free: List[int] = []
        self._kernel: Optional[ScheduleKernel] = None
        self._limits: Optional[np.ndarray] = None
        self._arrivals: int = 0
        self._departures: int = 0
        # Bumped by every arrival, departure and rebuild (each changes
        # what a storage slot holds); kernel snapshots carry it.
        self._epoch: int = 0
        # Fault-injection hook (tests / chaos harness; see
        # repro.resilience.faults).  None in production.
        self._fault_plan: Optional["FaultPlan"] = None
        self._fault_key: Optional[str] = None

    # -- problem state -------------------------------------------------

    @property
    def instance(self) -> Instance:
        """The current instance (grows via :meth:`add_requests`)."""
        return self.problem.instance

    @property
    def powers(self) -> np.ndarray:
        """The resolved fixed power vector of this session."""
        return self._powers

    @property
    def arrivals(self) -> int:
        """Requests admitted via :meth:`add_requests` so far."""
        return self._arrivals

    @property
    def departures(self) -> int:
        """Requests removed via :meth:`remove_requests` so far."""
        return self._departures

    @property
    def active_requests(self) -> int:
        """Requests currently present (arrivals minus departures plus
        the initial instance)."""
        return len(self._uid_to_index)

    @property
    def handles(self) -> List[RequestHandle]:
        """Live :class:`RequestHandle` for every active request, in
        arrival (uid) order (includes the initial requests, whose uids
        are ``0 .. n0-1``)."""
        inst = self.problem.instance
        return [
            RequestHandle(
                uid=uid,
                sender=int(inst.senders[idx]),
                receiver=int(inst.receivers[idx]),
            )
            for uid, idx in self._uid_to_index.items()
        ]

    def _active_slots(self) -> np.ndarray:
        """Storage slots of the active requests, in uid order."""
        return np.fromiter(
            self._uid_to_index.values(), dtype=int, count=len(self._uid_to_index)
        )

    def _compact(self) -> bool:
        """Do the stored rows differ from the active requests in uid
        order (free slots, or slots reused out of order)?"""
        return not np.array_equal(
            self._active_slots(), np.arange(self.problem.instance.n)
        )

    def _stamp(self) -> None:
        """Tag the live kernel (and hence its snapshots) with the
        session's epoch."""
        if self._kernel is not None:
            self._kernel.stamp = self._epoch

    @property
    def context(self) -> InterferenceContext:
        """The session's interference context (built once, pinned).

        Built through :func:`~repro.core.context.get_context` with the
        problem's :attr:`~Problem.config`, so algorithm implementations
        fetching the context for ``(instance, powers)`` resolve to this
        very object.
        """
        if self._context is None:
            self._context = get_context(
                self.problem.instance, self._powers, config=self.problem.config
            )
        return self._context

    # -- scheduling ----------------------------------------------------

    def schedule(
        self, algorithm: str, rng: Any = None, **params: Any
    ) -> ScheduleResult:
        """Run *algorithm* (a registry name) on this session's problem.

        Algorithm-specific keyword arguments pass through the
        registry's normalized adapter (e.g. ``beta=``, ``order=``,
        ``gamma_target=``, ``use_lp=``, ``schedule=`` for
        ``local_search``).  Randomized algorithms take ``rng=``.

        Free slots and reused slots (see :meth:`remove_requests`) are
        compacted away first via :meth:`rebuild` — batch algorithms run
        over the whole instance, so departed requests must not
        participate, and the active requests must stand in arrival
        order, as they would in a session that never reused a slot.
        """
        if self._compact():
            self.rebuild()
        spec = get_algorithm(algorithm)
        return self._run(spec, rng, params)

    def reschedule(
        self,
        algorithm: Optional[str] = None,
        rng: Any = _UNSET,
        **params: Any,
    ) -> ScheduleResult:
        """Re-run the last call on the current — possibly grown —
        problem state.

        With *algorithm* omitted, the last ``schedule()`` call is
        replayed **including its parameters and its rng** (explicit
        *params* here override individual ones; pass ``rng=`` — even
        ``rng=None`` — to override the recorded one, so replayed
        randomized runs are reproducible by default).  Naming an
        *algorithm* starts fresh: only the given *params* apply.
        """
        if algorithm is not None:
            return self.schedule(
                algorithm, rng=None if rng is _UNSET else rng, **params
            )
        if self._last_algorithm is None:
            raise ValueError(
                "nothing to reschedule: call schedule(algorithm) first or "
                "pass algorithm="
            )
        merged = {**self._last_params, **params}
        if rng is _UNSET:
            rng = self._last_rng
        return self.schedule(self._last_algorithm, rng=rng, **merged)

    def add_requests(
        self,
        pairs: Sequence[Tuple[int, int]],
        powers: Optional[Sequence[float]] = None,
    ) -> List[RequestHandle]:
        """Admit requests (``(sender, receiver)`` node pairs on the
        same metric), updating the cached context **in place**.

        Each arrival takes over the storage slot of a departed request
        when one is free (lowest slot first), and is appended only when
        none is, so storage never exceeds the most requests ever active
        at once.  Slots are storage only: handles, :meth:`live_result`,
        :meth:`rebuild` and kernel replays all follow arrival (uid)
        order.

        Powers are oblivious (``p_i = f(l(u_i, v_i))``), so an arrival
        changes nothing about any other request, and one arrival into
        a live session computes only this:

        * its one link (distance and loss; the instance copies every
          other link's values);
        * its one power — through the assignment's
          :meth:`~repro.power.base.ObliviousPowerAssignment.of_losses`
          for the default square-root or any other built-in oblivious
          assignment, or taken from *powers* for an explicit vector;
        * its slot's gain row and column, once per request endpoint,
          in one
          :meth:`~repro.core.context.InterferenceContext.replace_requests`
          call for reused and appended slots together (an appended
          slot first grows the storage);
        * its one signal and one interference limit;
        * with the live online kernel active (see :meth:`live_result`),
          its class sums (seeded from its gain row) and one vectorized
          first-fit admission (a fresh class opens when none fits).

        Every check runs over the arrivals only, or as one vector pass
        over the stored requests, and the result is bit-identical (at
        ``epsilon = 0``) to a cold rebuild.  Any other
        :class:`~repro.power.base.PowerAssignment`, including a
        :class:`~repro.power.oblivious.FunctionPower` (its ``f`` is the
        caller's and may not be elementwise), is re-resolved over
        the whole instance; if that changes a power of an existing
        request, the context and kernel are dropped and rebuild cold on
        next use.  Sender/receiver indices are validated against the
        metric up front, naming the offending pair.

        Returns the new requests' stable :class:`RequestHandle` list
        (hand them back to :meth:`remove_requests`).
        """
        pairs = [(int(p[0]), int(p[1])) for p in pairs]
        if not pairs:
            return []
        self._fire_fault("add_requests:pre")
        old = self.problem.instance
        metric_size = old.metric.n
        for pos, (sender, receiver) in enumerate(pairs):
            for role, node in (("sender", sender), ("receiver", receiver)):
                if not 0 <= node < metric_size:
                    raise InvalidInstanceError(
                        f"new request {pos} ({sender}, {receiver}): {role} "
                        f"index {node} is out of range for a metric with "
                        f"{metric_size} nodes (valid: 0..{metric_size - 1})"
                    )
        assignment = self._assignment
        if assignment is not None:
            if powers is not None:
                raise ValueError(
                    "powers= conflicts with the problem's power assignment "
                    f"({assignment!r}); the assignment re-resolves "
                    "automatically"
                )
        else:
            if powers is None:
                raise ValueError(
                    "the problem was built with an explicit power vector; "
                    f"pass powers= ({len(pairs)} values) for the new requests"
                )
            arriving = np.asarray(powers, dtype=float).reshape(-1)
            if arriving.size != len(pairs):
                raise ValueError(
                    f"powers has {arriving.size} entries for "
                    f"{len(pairs)} new requests"
                )
        n_old = old.n
        # The lowest free slots, in order (the ones heappop would give;
        # a heap keeps its smallest first).
        count = min(len(pairs), len(self._free))
        slots = self._free[:1] if count == 1 else heapq.nsmallest(count, self._free)
        reused, appended = pairs[: len(slots)], pairs[len(slots) :]
        edited = old.replaced(slots, reused) if slots else old
        new_instance = edited.appended(appended) if appended else edited
        indices = slots + list(range(n_old, new_instance.n))
        new_powers: PowersLike = assignment
        in_place = True
        # A caller's own f (FunctionPower) is not known to be
        # elementwise, so it keeps the full re-resolve below.
        oblivious = isinstance(
            assignment, ObliviousPowerAssignment
        ) and not isinstance(assignment, FunctionPower)
        if oblivious:
            arriving = assignment.of_losses(new_instance.link_losses[indices])
        if assignment is None or oblivious:
            resolved = np.concatenate([self._powers, arriving[len(slots) :]])
            resolved[slots] = arriving[: len(slots)]
            if assignment is None:
                new_powers = resolved
        else:
            # Not known to be elementwise: re-resolve everything, and
            # edit in place only if no existing power moved.
            resolved = np.asarray(assignment(new_instance), dtype=float)
            expected = self._powers.copy()
            expected[slots] = resolved[slots]
            in_place = np.array_equal(resolved[:n_old], expected)
        if in_place and self._context is not None:
            # A backend that cannot edit in place refuses before any change.
            self._context.check_editable()
        # Mutation starts here.  Until the uids are assigned, a reused
        # slot is neither active nor free: an orphan check_consistency
        # sees.
        for _ in slots:
            heapq.heappop(self._free)
        self.problem = self.problem._grown(new_instance, new_powers)
        self._powers = resolved
        # No local holds the context: a fault below keeps this frame
        # alive in its traceback, and must not keep a context that
        # recover() drops alive with it.
        if in_place and self._context is not None:
            # The context cache keys on (id(instance), power bytes) —
            # release the old slot, edit, take the new slot.
            unpin_context(self._context)
            self._context.replace_requests(indices, new_instance, resolved)
            repin_context(self._context)
            if self._kernel is not None:
                self._admit_arrivals(indices, reused=slots)
        else:
            # Release the old instance's cache slot eagerly: the
            # context / cache-dict / instance reference cycle only dies
            # under cycle GC, and until then the dead LRU entry would
            # crowd out live contexts (see unpin_context).
            if self._context is not None:
                unpin_context(self._context)
            self._context = None
            self._kernel = None
            self._limits = None
        # Instance, context and kernel hold the arrivals, but they are
        # not yet uid-accounted: a fault here leaves the session
        # genuinely half-mutated (what recover() must repair).
        self._fire_fault("add_requests:grown")
        handles = []
        for index, (sender, receiver) in zip(indices, pairs):
            uid = self._uid_seq
            self._uid_seq += 1
            self._uid_to_index[uid] = index
            handles.append(
                RequestHandle(uid=uid, sender=sender, receiver=receiver)
            )
        self._arrivals += len(pairs)
        self._epoch += 1
        self._stamp()
        return handles

    def remove_requests(
        self, handles: Sequence[Union[RequestHandle, int]]
    ) -> "Session":
        """Remove previously admitted requests by handle (or uid).

        On the live online kernel a departure is the kernel's existing
        exact O(n) remove — no context invalidation, no re-coloring of
        anyone else.  The request's storage slot goes on the free list:
        the next arrival takes it over in place (see
        :meth:`add_requests`), and a :meth:`rebuild` (or batch
        :meth:`schedule` / :meth:`reschedule`, which compact
        automatically) drops the slots still free.  A departed request
        is not a member of any class, so it contributes no
        interference.  Returns ``self`` for chaining.
        """
        uids = []
        seen = set()
        for handle in handles:
            uid = handle.uid if isinstance(handle, RequestHandle) else int(handle)
            if uid in seen:
                raise ValueError(f"duplicate handle (uid={uid}) in removal")
            seen.add(uid)
            if uid not in self._uid_to_index:
                raise KeyError(
                    f"unknown or already-removed request handle (uid={uid})"
                )
            uids.append(uid)
        for uid in uids:
            index = self._uid_to_index.pop(uid)
            if self._kernel is not None and self._kernel.colors[index] >= 0:
                self._kernel.remove(index)
            heapq.heappush(self._free, index)
        self._departures += len(uids)
        self._epoch += 1
        self._stamp()
        return self

    def rebuild(self) -> "Session":
        """Compact the stored requests to the active ones and drop to a
        cold context.

        The instance becomes the active requests in arrival (uid) order
        — free slots dropped, reused slots put back in order — so it is
        the instance a session that never reused a slot would hold
        (handles stay valid; storage slots are remapped).  Powers are
        re-resolved (or sliced, for explicit vectors), and the cached
        context and live kernel are discarded so the next use rebuilds
        from scratch.
        """
        if not self._uid_to_index:
            raise InvalidScheduleError(
                "cannot rebuild a session with zero active requests"
            )
        old = self.problem.instance
        if self._compact():
            active = self._active_slots()
            new_instance = old.subset(active)
            if self._assignment is not None:
                new_powers: PowersLike = self._assignment
            else:
                new_powers = self._powers[active]
            self.problem = self.problem._grown(new_instance, new_powers)
            self._powers, self._assignment = _resolve_powers(
                new_instance, new_powers
            )
            self._uid_to_index = {
                uid: position for position, uid in enumerate(self._uid_to_index)
            }
            self._free = []
        if self._context is not None:
            unpin_context(self._context)
        self._context = None
        self._kernel = None
        self._limits = None
        self._epoch += 1
        return self

    # -- fault tolerance -----------------------------------------------

    def set_fault_hook(
        self, plan: Optional[FaultPlan], key: Optional[str] = None
    ) -> "Session":
        """Install (or clear, with ``None``) a deterministic
        :class:`~repro.resilience.FaultPlan` on this session.

        The plan fires at ``site="session"`` with *key* (typically the
        serving-layer session name) at the documented injection points
        — currently ``phase="add_requests:pre"`` (before any mutation)
        and ``phase="add_requests:grown"`` (instance/context/kernel
        grown, arrival not yet accounted).  Test/chaos tooling only.
        """
        self._fault_plan = plan
        self._fault_key = key
        return self

    def _fire_fault(self, phase: str) -> None:
        if self._fault_plan is not None:
            self._fault_plan.fire(
                "session", key=self._fault_key, phase=phase
            )

    @property
    def live_kernel(self) -> Optional[ScheduleKernel]:
        """The live online kernel, or ``None`` when not built yet (see
        :meth:`ensure_live`).  Supervisors snapshot it
        (:meth:`~repro.core.kernels.ScheduleKernel.snapshot`) before a
        risky mutation and hand the snapshot to :meth:`recover`."""
        return self._kernel

    def check_consistency(self) -> Optional[str]:
        """``None`` when the session's bookkeeping is structurally
        sound, else a description of the damage.

        The invariant: every request row of the current instance is
        either uid-accounted (active) or on the free list (departed).
        An exception escaping mid-:meth:`add_requests` — slots are
        taken first, uids are assigned *last* — breaks exactly this, so
        the check is a reliable damage detector for supervisors.  The
        live kernel, when built, must also span the instance and hold
        no free slot in a class.
        """
        n = self.problem.instance.n
        accounted = len(self._uid_to_index) + len(self._free)
        if accounted != n:
            return (
                f"instance has {n} request rows but only {accounted} are "
                "accounted (active + free): an admission was "
                "interrupted mid-mutation"
            )
        if self._kernel is not None:
            colors = self._kernel.colors
            if len(colors) != n:
                return (
                    f"live kernel spans {len(colors)} requests "
                    f"but the instance has {n}"
                )
            if self._free and np.any(colors[self._free] >= 0):
                return "the live kernel still places a departed request"
        return None

    def recover(
        self, kernel_snapshot: Optional[Dict[str, object]] = None
    ) -> str:
        """Repair the session after an exception escaped a mutating
        call, choosing the cheapest sufficient action.  Returns what
        was done:

        ``"snapshot"``
            No structural damage and *kernel_snapshot* (taken from
            :attr:`live_kernel` before the mutation) restored bitwise —
            the copy-on-write transactional-rollback fast path (O(n)
            plus one row copy per class the mutation touched).
        ``"rekernel"``
            No structural damage but the snapshot could not be applied
            (an arrival, departure or rebuild completed since it was
            taken, a later snapshot superseded it, the kernel was
            dropped, or no snapshot was given):
            the live kernel is discarded and replays lazily on next use.
        ``"rebuild"``
            Structural damage (orphaned half-admitted slots): the
            orphans are freed and :meth:`rebuild` compacts the session
            back to its accounted requests — equivalent to a cold
            rebuild from the active set.

        After any of these the session satisfies
        :meth:`check_consistency` and subsequent scheduling is
        bit-identical to a freshly built session over the same active
        requests.
        """
        if self.check_consistency() is not None:
            n = self.problem.instance.n
            accounted = set(self._uid_to_index.values())
            orphans = set(range(n)) - accounted - set(self._free)
            # Freeing the orphans turns "interrupted admission" into
            # "departure awaiting compaction" — rebuild() already knows
            # how to heal that, and it discards the (possibly also
            # damaged) context and kernel with the same stroke.
            self._free.extend(orphans)
            heapq.heapify(self._free)
            self.rebuild()
            return "rebuild"
        # A snapshot from before a completed arrival, departure or
        # rebuild would bring back an old membership or slot layout
        # (with slot reuse, at the same n), so only a snapshot of the
        # current epoch is restored.
        if (
            self._kernel is not None
            and kernel_snapshot is not None
            and kernel_snapshot.get("stamp") == self._epoch
        ):
            try:
                self._kernel.restore(kernel_snapshot)
                return "snapshot"
            except ValueError:
                # Not the kernel's live snapshot any more (superseded,
                # or the kernel grew or reseeded since); fall through.
                pass
        self._kernel = None
        self._limits = None
        return "rekernel"

    # -- live online kernel --------------------------------------------

    def _compute_limits(
        self,
        context: InterferenceContext,
        requests: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Tolerance-scaled interference budgets of every request (of
        *requests* only, when given)."""
        budgets = context.budgets(requests=requests)
        if np.count_nonzero(budgets < 0):
            bad = int(np.argmax(budgets < 0))
            if requests is not None:
                bad = int(requests[bad])
            raise InvalidScheduleError(
                f"request {bad} cannot meet beta={context.beta} even "
                "alone (negative interference budget)"
            )
        return budgets * (1.0 + DEFAULT_RTOL)

    def _admit_arrivals(self, indices: Sequence[int], reused: List[int]) -> None:
        """Bring the live kernel and limits up to the edited context —
        reseed the *reused* slots, extend to appended ones, set the
        arrivals' limits — and first-fit admit *indices* in arrival
        order, one O(n) vectorized admission check each (a fresh class
        opens when none fits, so every arrival is placed)."""
        kernel = self._kernel
        context = self._context
        if reused:
            kernel.reseed(reused)
        if context.n > kernel.n:
            kernel.extend_to(context.n)
        limits = self._limits
        if context.n > limits.size:
            limits = np.concatenate([limits, np.empty(context.n - limits.size)])
        limits[indices] = self._compute_limits(context, indices)
        self._limits = limits
        for index in indices:
            color = kernel.first_fit_admit(index, limits)
            if color < 0:
                color = kernel.open_class()
            kernel.add(index, color)

    def ensure_live(self) -> ScheduleKernel:
        """The session's live online first-fit kernel, built on first
        use by admitting every active request in arrival (uid) order.

        Once live, :meth:`add_requests` admits each arrival with a
        single O(n) vectorized check and :meth:`remove_requests`
        departs members exactly — the kernel state is never replayed.
        Note the *online* admission order (arrival order) is not the
        batch ``first_fit`` default (longest links first); the stream
        of colors equals what a fresh arrival-order replay would emit.
        """
        if self._kernel is None:
            context = self.context
            repin_context(context)
            kernel = ScheduleKernel(context)
            self._limits = self._compute_limits(context)
            self._kernel = kernel
            for index in self._uid_to_index.values():
                color = kernel.first_fit_admit(index, self._limits)
                if color < 0:
                    color = kernel.open_class()
                kernel.add(index, color)
            self._stamp()
        return self._kernel

    def color_of(self, handle: Union[RequestHandle, int]) -> int:
        """The live kernel's current color class of *handle*."""
        uid = handle.uid if isinstance(handle, RequestHandle) else int(handle)
        index = self._uid_to_index.get(uid)
        if index is None:
            raise KeyError(
                f"unknown or already-removed request handle (uid={uid})"
            )
        return int(self.ensure_live().colors[index])

    def live_result(self) -> ScheduleResult:
        """A :class:`ScheduleResult` for the live kernel's current
        coloring over the **active** requests, in arrival (uid) order.

        Builds the kernel on first use (see :meth:`ensure_live`).  The
        provenance records ``incremental=True`` plus the session's
        arrival/departure totals; ``certified`` reflects the kernel's
        own flip-risk counter (always certified on lossless backends).
        """
        start = time.perf_counter()
        kernel = self.ensure_live()
        context = self.context
        active = self._active_slots()
        if active.size == 0:
            raise InvalidScheduleError(
                "no active requests: every request has departed"
            )
        colors = np.asarray(kernel.colors)[active]
        schedule = build_schedule(colors, self._powers[active]).compacted()
        instance = self.problem.instance
        if not np.array_equal(active, np.arange(instance.n)):
            instance = instance.subset(active)
        wall = time.perf_counter() - start
        result = ScheduleResult(
            schedule=schedule,
            instance=instance,
            provenance=Provenance(
                algorithm="first_fit_online",
                params={},
                backend=context.backend.name,
                sparse_epsilon=context.config.pruning_epsilon,
                wall_seconds=wall,
                flip_risk_events=kernel.flip_risk_events,
                certified=kernel.flip_risk_events == 0,
                incremental=True,
                arrivals=self._arrivals,
                departures=self._departures,
            ),
        )
        self.last_result = result
        return result

    # -- internals -----------------------------------------------------

    def _run(
        self,
        spec: AlgorithmSpec,
        rng: Any,
        params: Dict[str, Any],
    ) -> ScheduleResult:
        backend_obj: Optional[GainBackend] = None
        # Fixed-power algorithms run on the session's (instance,
        # powers) context: build it on first use, and re-pin it in the
        # global cache so LRU eviction between calls can neither force
        # a cold rebuild inside the implementation nor divert the
        # flip-risk events onto a context we never read.  Self-powered
        # algorithms (e.g. trivial, sqrt_coloring) resolve their own
        # power vectors, so the session context is not built for them.
        if spec.capabilities.needs_powers or self._context is not None:
            context = self.context
            repin_context(context)
            backend_obj = context.backend
        before = backend_obj.flip_risk_events if backend_obj is not None else 0
        # Peel counters are module totals (self-powered algorithms build
        # contexts this session never sees), so snapshot-and-diff around
        # the run (single scheduler thread).
        peel_before = peel_risk_events()
        fb_before = len(peel_fallback_records())
        start = time.perf_counter()
        with config_scope(self.problem.config):
            outcome = spec.run(
                self.problem.instance,
                powers=self._powers if spec.capabilities.needs_powers else None,
                rng=rng,
                **params,
            )
        wall = time.perf_counter() - start
        delta = (
            backend_obj.flip_risk_events - before
            if backend_obj is not None
            else 0
        )
        certified: Optional[bool] = None
        if backend_obj is not None and spec.capabilities.certifiable:
            certified = delta == 0
        result = ScheduleResult(
            schedule=outcome.schedule,
            instance=self.problem.instance,
            provenance=Provenance(
                algorithm=spec.name,
                params=dict(params),
                backend=(
                    backend_obj.name
                    if backend_obj is not None
                    else self.problem.config.backend
                ),
                sparse_epsilon=self.problem.config.pruning_epsilon,
                wall_seconds=wall,
                flip_risk_events=delta,
                certified=certified,
                peel_risk_events=peel_risk_events() - peel_before,
                peel_fallbacks=peel_fallback_records()[fb_before:],
                arrivals=self._arrivals,
                departures=self._departures,
            ),
            stats=outcome.stats,
            extras=dict(outcome.extras),
        )
        self._last_algorithm = spec.name
        self._last_params = dict(params)
        self._last_rng = rng
        self.last_result = result
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(n={self.instance.n}, "
            f"backend={self.problem.config.backend}, "
            f"last={self._last_algorithm!r})"
        )
