"""Unified solver API: ``Problem`` → ``Session`` → ``ScheduleResult``.

The one coherent entry point over the whole engine stack
(:class:`~repro.core.context.InterferenceContext`, the scheduler
kernels, the pluggable gain backends and the batched
:class:`~repro.core.batch.ContextBatch`):

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
  time, and any batched-execution fallback
  (:class:`~repro.core.batch.BatchFallbackInfo`).
* :class:`BatchSession` / :func:`schedule_batch` — the same facade
  over many problems at once, stacking them through
  :class:`~repro.core.batch.ContextBatch` when the algorithm has a
  batched kernel.

Every result is bit-identical to calling the submodule implementations
directly; the conformance suite asserts this on both dense and sparse
backends.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.batch import BatchFallbackInfo, ContextBatch, ContextPool
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
from repro.power.base import PowerAssignment
from repro.resilience.faults import FaultPlan
from repro.power.oblivious import SquareRootPower
from repro.scheduling.registry import AlgorithmSpec, get_algorithm
from repro.util.rng import ensure_rng, spawn_rngs

__all__ = [
    "BatchSession",
    "Problem",
    "Provenance",
    "RequestHandle",
    "ScheduleResult",
    "Session",
    "schedule_batch",
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
    batch_fallback:
        Why a batched entry point could not run in lockstep (``None``
        for plain sessions and stacked batches).
    peel_risk_events:
        Growth of the incremental peel's at-risk-decision counter
        (:func:`repro.core.kernels.peel_risk_events`) during the run:
        peel/stop/re-add comparisons that landed inside the
        :data:`~repro.core.kernels.PEEL_RISK_RTOL` band and were
        resolved by exact reference-order recomputation.  Always ``0``
        when the run never peels.
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
    batch_fallback: Optional[BatchFallbackInfo] = None
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
    backend, sparse_epsilon, array_namespace, device, workers, shard_executor:
        Gain-backend preferences; each ``None`` follows
        :func:`~repro.core.gains.default_config`.  They are resolved
        once, at construction, into :attr:`config` (a
        :class:`~repro.core.gains.BackendConfig`, so a typo fails here,
        not deep inside ``get_context``); every context the problem's
        sessions create, and every algorithm run, uses that config.
        *device* requires ``backend="dense"``, and *workers* /
        *shard_executor* require ``backend="sharded"``.
    """

    instance: Instance
    powers: PowersLike = None
    backend: Optional[str] = None
    sparse_epsilon: Optional[float] = None
    array_namespace: Optional[str] = None
    device: Optional[object] = None
    workers: Optional[int] = None
    shard_executor: Optional[str] = None
    config: BackendConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.config = default_config(
            backend=self.backend,
            sparse_epsilon=self.sparse_epsilon,
            array_namespace=self.array_namespace,
            device=self.device,
            workers=self.workers,
            shard_executor=self.shard_executor,
        )

    def _grown(self, instance: Instance, powers: PowersLike) -> "Problem":
        """This problem over a new instance and powers, keeping the
        config resolved at construction."""
        problem = dataclasses.replace(self, instance=instance, powers=powers)
        problem.config = self.config
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
        # dense index (initial requests get uids 0..n-1), tombstoned
        # indices awaiting compaction, and the live online kernel.
        n = problem.instance.n
        self._uid_to_index: Dict[int, int] = {uid: uid for uid in range(n)}
        self._uid_seq: int = n
        self._departed: set = set()
        self._kernel: Optional[ScheduleKernel] = None
        self._limits: Optional[np.ndarray] = None
        self._arrivals: int = 0
        self._departures: int = 0
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
        current index order (includes the initial requests, whose uids
        are ``0 .. n0-1``)."""
        inst = self.problem.instance
        return [
            RequestHandle(
                uid=uid,
                sender=int(inst.senders[idx]),
                receiver=int(inst.receivers[idx]),
            )
            for uid, idx in sorted(
                self._uid_to_index.items(), key=lambda kv: kv[1]
            )
        ]

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

        Pending departures (see :meth:`remove_requests`) are compacted
        away first via :meth:`rebuild` — batch algorithms run over the
        whole instance, so tombstoned requests must not participate.
        """
        if self._departed:
            self.rebuild()
        spec = get_algorithm(algorithm)
        return self._run(spec, rng, params, batch_fallback=None)

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
        """Append requests (``(sender, receiver)`` node pairs on the
        same metric) and grow the cached context **in place**.

        An already-built context (and its gain backend) extends via
        :meth:`~repro.core.context.InterferenceContext.extend_to` —
        only the new rows/columns of the gain matrices are computed, so
        an arrival costs O(n) instead of the former O(n^2) cold
        rebuild, bit-identically (at ``epsilon = 0``) to one.  If the
        session's live online kernel is active (see
        :meth:`live_result`), each new request is immediately admitted
        with one O(n) vectorized first-fit check.

        When the problem's powers came from a
        :class:`~repro.power.base.PowerAssignment` (or the default
        square-root assignment) the vector is re-resolved for the grown
        instance; with explicit powers, pass one power per new request
        via *powers*.  Sender/receiver indices are validated against
        the metric up front, naming the offending pair.

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
        new_instance = Instance(
            old.metric,
            np.concatenate([old.senders, [p[0] for p in pairs]]),
            np.concatenate([old.receivers, [p[1] for p in pairs]]),
            direction=old.direction,
            alpha=old.alpha,
            beta=old.beta,
            noise=old.noise,
        )
        if self._assignment is not None:
            if powers is not None:
                raise ValueError(
                    "powers= conflicts with the problem's power assignment "
                    f"({self._assignment!r}); the assignment re-resolves "
                    "automatically"
                )
            new_powers: PowersLike = self._assignment
        else:
            if powers is None:
                raise ValueError(
                    "the problem was built with an explicit power vector; "
                    f"pass powers= ({len(pairs)} values) for the new requests"
                )
            appended = np.asarray(powers, dtype=float).reshape(-1)
            if appended.size != len(pairs):
                raise ValueError(
                    f"powers has {appended.size} entries for "
                    f"{len(pairs)} new requests"
                )
            new_powers = np.concatenate([self._powers, appended])
        n_old = old.n
        resolved, assignment = _resolve_powers(new_instance, new_powers)
        # Oblivious assignments are elementwise over link losses, so
        # re-resolving preserves the existing powers bit-for-bit — the
        # contract in-place growth needs.  A (hypothetical) assignment
        # whose powers depend on the whole instance falls back to the
        # historical full invalidation: drop the context (and kernel)
        # and rebuild cold on next use.
        grow_in_place = np.array_equal(resolved[:n_old], self._powers)
        self.problem = self.problem._grown(new_instance, new_powers)
        self._powers, self._assignment = resolved, assignment
        if grow_in_place and self._context is not None:
            # The context cache keys on (id(instance), power bytes) —
            # release the old slot, grow, take the new slot.
            unpin_context(self._context)
            self._context.extend_to(new_instance, resolved)
            repin_context(self._context)
            if self._kernel is not None:
                self._admit_arrivals(range(n_old, new_instance.n))
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
        # Instance, context and kernel have grown, but the arrivals are
        # not yet uid-accounted: a fault here leaves the session
        # genuinely half-mutated (what recover() must repair).
        self._fire_fault("add_requests:grown")
        handles = []
        for offset, (sender, receiver) in enumerate(pairs):
            uid = self._uid_seq
            self._uid_seq += 1
            self._uid_to_index[uid] = n_old + offset
            handles.append(
                RequestHandle(uid=uid, sender=sender, receiver=receiver)
            )
        self._arrivals += len(pairs)
        return handles

    def remove_requests(
        self, handles: Sequence[Union[RequestHandle, int]]
    ) -> "Session":
        """Remove previously admitted requests by handle (or uid).

        On the live online kernel a departure is the kernel's existing
        exact O(n) remove — no context invalidation, no re-coloring of
        anyone else.  The request's storage slot is tombstoned until
        the next :meth:`rebuild` (or batch :meth:`schedule` /
        :meth:`reschedule`, which compact automatically); tombstoned
        requests are not members of any class, so they contribute no
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
            self._departed.add(index)
        self._departures += len(uids)
        return self

    def rebuild(self) -> "Session":
        """Compact departures away and drop to a cold context — the
        historical :meth:`add_requests` behavior, now explicit.

        The instance shrinks to the active requests (handles stay
        valid; dense indices are remapped), powers are re-resolved (or
        sliced, for explicit vectors), and the cached context and live
        kernel are discarded so the next use rebuilds from scratch.
        """
        if not self._uid_to_index:
            raise InvalidScheduleError(
                "cannot rebuild a session with zero active requests"
            )
        old = self.problem.instance
        active = np.asarray(sorted(self._uid_to_index.values()), dtype=int)
        if self._departed:
            new_instance = old.subset(active)
            if self._assignment is not None:
                new_powers: PowersLike = self._assignment
            else:
                new_powers = self._powers[active]
            self.problem = self.problem._grown(new_instance, new_powers)
            self._powers, self._assignment = _resolve_powers(
                new_instance, new_powers
            )
            index_to_uid = {
                index: uid for uid, index in self._uid_to_index.items()
            }
            self._uid_to_index = {
                index_to_uid[index]: position
                for position, index in enumerate(active)
            }
            self._departed = set()
        if self._context is not None:
            unpin_context(self._context)
        self._context = None
        self._kernel = None
        self._limits = None
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
        either uid-accounted (active) or tombstoned (departed).  An
        exception escaping mid-:meth:`add_requests` — uids are assigned
        *last* — breaks exactly this, so the check is a reliable
        damage detector for supervisors.  The live kernel, when built,
        must also span the instance.
        """
        n = self.problem.instance.n
        accounted = len(self._uid_to_index) + len(self._departed)
        if accounted != n:
            return (
                f"instance has {n} request rows but only {accounted} are "
                "accounted (active + departed): an admission was "
                "interrupted mid-mutation"
            )
        if self._kernel is not None and len(self._kernel.colors) != n:
            return (
                f"live kernel spans {len(self._kernel.colors)} requests "
                f"but the instance has {n}"
            )
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
            the O(C·n) transactional-rollback fast path.
        ``"rekernel"``
            No structural damage but the snapshot could not be applied
            (kernel since grown/dropped, or no snapshot given): the
            live kernel is discarded and replays lazily on next use.
        ``"rebuild"``
            Structural damage (orphaned half-admitted rows): the
            orphans are tombstoned and :meth:`rebuild` compacts the
            session back to its accounted requests — equivalent to a
            cold rebuild from the active set.

        After any of these the session satisfies
        :meth:`check_consistency` and subsequent scheduling is
        bit-identical to a freshly built session over the same active
        requests.
        """
        if self.check_consistency() is not None:
            n = self.problem.instance.n
            accounted = set(self._uid_to_index.values())
            orphans = set(range(n)) - accounted - self._departed
            # Tombstoning the orphans turns "interrupted admission"
            # into "departure awaiting compaction" — rebuild() already
            # knows how to heal that, and it discards the (possibly
            # also damaged) context and kernel with the same stroke.
            self._departed |= orphans
            self.rebuild()
            return "rebuild"
        if self._kernel is not None and kernel_snapshot is not None:
            try:
                self._kernel.restore(kernel_snapshot)
                return "snapshot"
            except ValueError:
                # Snapshot predates kernel growth; fall through.
                pass
        self._kernel = None
        self._limits = None
        return "rekernel"

    # -- live online kernel --------------------------------------------

    def _compute_limits(self, context: InterferenceContext) -> np.ndarray:
        budgets = context.budgets()
        if np.any(budgets < 0):
            bad = int(np.argmax(budgets < 0))
            raise InvalidScheduleError(
                f"request {bad} cannot meet beta={context.beta} even "
                "alone (negative interference budget)"
            )
        return budgets * (1.0 + DEFAULT_RTOL)

    def _admit_arrivals(self, indices: Sequence[int]) -> None:
        """Extend the live kernel to the grown context and first-fit
        admit *indices* in arrival order — one O(n) vectorized
        admission check each (a fresh class opens when none fits, so
        every arrival is placed)."""
        kernel = self._kernel
        context = self.context
        kernel.extend_to(context.n)
        self._limits = self._compute_limits(context)
        for index in indices:
            color = kernel.first_fit_admit(int(index), self._limits)
            if color < 0:
                color = kernel.open_class()
            kernel.add(int(index), color)

    def ensure_live(self) -> ScheduleKernel:
        """The session's live online first-fit kernel, built on first
        use by admitting every active request in arrival (index) order.

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
            for index in range(context.n):
                if index in self._departed:
                    continue
                color = kernel.first_fit_admit(index, self._limits)
                if color < 0:
                    color = kernel.open_class()
                kernel.add(index, color)
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
        coloring over the **active** requests.

        Builds the kernel on first use (see :meth:`ensure_live`).  The
        provenance records ``incremental=True`` plus the session's
        arrival/departure totals; ``certified`` reflects the kernel's
        own flip-risk counter (always certified on lossless backends).
        """
        start = time.perf_counter()
        kernel = self.ensure_live()
        context = self.context
        active = np.asarray(sorted(self._uid_to_index.values()), dtype=int)
        if active.size == 0:
            raise InvalidScheduleError(
                "no active requests: every request has departed"
            )
        colors = np.asarray(kernel.colors)[active]
        schedule = build_schedule(colors, self._powers[active]).compacted()
        instance = (
            self.problem.instance
            if active.size == self.problem.instance.n
            else self.problem.instance.subset(active)
        )
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
        batch_fallback: Optional[BatchFallbackInfo],
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
                batch_fallback=batch_fallback,
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


class BatchSession:
    """The facade over many problems at once.

    Algorithms with a batched kernel (capability ``supports_batch``,
    currently ``first_fit`` and ``local_search``) run in lockstep over
    a :class:`~repro.core.batch.ContextBatch`; everything else loops
    the per-problem sessions, which is recorded as a
    :class:`~repro.core.batch.BatchFallbackInfo` in each result's
    provenance (as is the batch's own pooled fallback on ragged or
    lossy-backed batches).

    All problems must agree on the backend preferences (one batch, one
    substrate).
    """

    def __init__(
        self,
        problems: Sequence[Union[Problem, Instance]],
        pool: Optional[ContextPool] = None,
    ):
        if len(problems) == 0:
            raise ValueError("a BatchSession needs at least one problem")
        normalized = [
            p if isinstance(p, Problem) else Problem(p) for p in problems
        ]
        prefs = {p.config.key() for p in normalized}
        if len(prefs) > 1:
            raise ValueError(
                "all problems of a BatchSession must share backend "
                f"preferences, got {sorted(map(str, prefs))}"
            )
        self.problems: List[Problem] = normalized
        self.sessions: List[Session] = [Session(p) for p in normalized]
        self.pool = ContextPool() if pool is None else pool
        self._batch: Optional[ContextBatch] = None

    def __len__(self) -> int:
        return len(self.sessions)

    @property
    def batch(self) -> ContextBatch:
        """The underlying :class:`~repro.core.batch.ContextBatch`
        (built lazily, contexts pinned in :attr:`pool`)."""
        if self._batch is None:
            self._batch = ContextBatch(
                [(s.instance, s.powers) for s in self.sessions],
                pool=self.pool,
                config=self.problems[0].config,
            )
        return self._batch

    def schedule(
        self, algorithm: str = "first_fit", rng: Any = None, **params: Any
    ) -> List[ScheduleResult]:
        """Schedule every problem; one :class:`ScheduleResult` each."""
        spec = get_algorithm(algorithm)
        if spec.capabilities.deterministic and rng is not None:
            raise TypeError(
                f"algorithm {spec.name!r} is deterministic; rng= is not "
                "accepted"
            )
        # The stacked path carries no rng, so only deterministic
        # algorithms may take it; a future randomized batch kernel
        # falls through to the per-session loop with spawned streams.
        if spec.capabilities.supports_batch and spec.capabilities.deterministic:
            return self._schedule_stacked(spec, params)
        fallback = BatchFallbackInfo(
            reasons=("no_batch_kernel",),
            pairs=len(self),
            detail=(
                f"algorithm {spec.name!r} has no batched kernel; "
                "problems were scheduled one session at a time"
            ),
        )
        if spec.capabilities.deterministic:
            rngs: List[Any] = [None] * len(self)
        else:
            rngs = list(spawn_rngs(ensure_rng(rng), len(self)))
        return [
            session._run(spec, child, dict(params), batch_fallback=fallback)
            for session, child in zip(self.sessions, rngs)
        ]

    def _schedule_stacked(
        self, spec: AlgorithmSpec, params: Dict[str, Any]
    ) -> List[ScheduleResult]:
        batch = self.batch
        backends = [ctx.backend for ctx in batch.contexts]
        before = [b.flip_risk_events for b in backends]
        start = time.perf_counter()
        if spec.name == "first_fit":
            schedules = batch.first_fit_schedules(**params)
        elif spec.name == "local_search":
            run_params = dict(params)
            seeds = run_params.pop("schedule", None)
            if seeds is None:
                raise TypeError(
                    "algorithm 'local_search' improves existing schedules; "
                    "pass schedule= (a sequence of Schedule or "
                    "ScheduleResult, one per problem)"
                )
            if len(seeds) != len(self):
                raise ValueError(
                    f"{len(seeds)} schedules for {len(self)} problems"
                )
            schedules = batch.local_search_schedules(
                [getattr(seed, "schedule", seed) for seed in seeds],
                **run_params,
            )
        else:  # pragma: no cover - registry flag without batch wiring
            raise RuntimeError(
                f"algorithm {spec.name!r} declares supports_batch but "
                "BatchSession has no stacked dispatch for it"
            )
        wall = time.perf_counter() - start
        results = []
        for index, (session, schedule) in enumerate(
            zip(self.sessions, schedules)
        ):
            delta = backends[index].flip_risk_events - before[index]
            result = ScheduleResult(
                schedule=schedule,
                instance=session.instance,
                provenance=Provenance(
                    algorithm=spec.name,
                    params=dict(params),
                    backend=backends[index].name,
                    sparse_epsilon=batch.contexts[index].config.pruning_epsilon,
                    wall_seconds=wall,
                    flip_risk_events=delta,
                    certified=(
                        delta == 0 if spec.capabilities.certifiable else None
                    ),
                    batch_fallback=batch.fallback,
                ),
            )
            session._last_algorithm = spec.name
            session._last_params = dict(params)
            session.last_result = result
            results.append(result)
        return results

    def validate(self) -> "BatchSession":
        """Batched validation of every session's latest result."""
        schedules = []
        for session in self.sessions:
            if session.last_result is None:
                raise InvalidScheduleError(
                    "validate() needs a schedule per session; call "
                    "schedule() first"
                )
            schedules.append(session.last_result.schedule)
        self.batch.validate_schedules(schedules)
        return self


def schedule_batch(
    problems: Sequence[Union[Problem, Instance]],
    algorithm: str = "first_fit",
    rng: Any = None,
    pool: Optional[ContextPool] = None,
    **params: Any,
) -> List[ScheduleResult]:
    """One-shot :meth:`BatchSession.schedule` over *problems*."""
    return BatchSession(problems, pool=pool).schedule(
        algorithm, rng=rng, **params
    )
