"""Shared interference engine: cached gain matrices per power vector.

Every algorithm in this library reduces to one primitive — querying
SINR interference under a fixed power vector.  Before this module each
caller rebuilt the O(n^2) gain matrices (and re-exponentiated the full
metric loss matrix) on every query; :class:`InterferenceContext` builds
them once per ``(instance, powers)`` and answers all subsequent queries
from the cache.

Two levels of API
-----------------

* **Wrappers** (:func:`repro.core.feasibility.sinr_margins`,
  :func:`repro.analysis.capacity.greedy_max_feasible_subset`, the
  schedulers in :mod:`repro.scheduling`): unchanged public signatures.
  They transparently fetch a cached context via :func:`get_context`.
  Use these for one-off queries and everyday code — caching makes
  repeated calls with the same ``(instance, powers)`` cheap
  automatically.

* **The context itself**: fetch one with
  ``ctx = get_context(instance, powers)`` when you are writing a hot
  loop that issues many interference queries (a scheduler, a search, a
  simulation).  Methods — :meth:`~InterferenceContext.margins`,
  :meth:`~InterferenceContext.feasible_mask`,
  :meth:`~InterferenceContext.budget_slack` — are vectorized on the
  cached matrices and skip all per-call rebuilding.  Sets that grow
  and shrink one request at a time (first-fit classes, local search,
  peeling) run on the incremental kernels of :mod:`repro.core.kernels`,
  which take the context.

Gain backends
-------------

All gain-matrix access goes through a pluggable
:class:`repro.core.gains.GainBackend` (``context.backend``): the
default :class:`~repro.core.gains.DenseBackend` keeps the materialized
``(n, n)`` arrays of the original engine, while
:class:`~repro.core.gains.SparseBackend` stores ε-pruned CSR gains so
instances at ``n >> 10^3`` fit in memory.  Select per context via
``get_context(..., config=BackendConfig("sparse"))``, or for a block via
``with config_scope(backend="sparse"): ...`` / the ``REPRO_BACKEND``
environment variable (see :mod:`repro.core.gains`).  The dense
compatibility properties (:attr:`InterferenceContext.gains_u` and
friends) still exist on every context, but on a sparse backend they
*materialize* an O(n^2) array per call — hot paths use the backend
primitives instead.

Numerical contract
------------------

Gain-matrix entries come from the :mod:`repro.core.interference`
builders, and subset/color reductions use one fixed operation order, so
margins (and therefore every feasibility decision and every schedule)
are deterministic bit for bit.  A lossless sparse backend
(``epsilon = 0``, the default) reproduces the dense values exactly; a
pruned one underestimates interference by at most the per-request
:attr:`~repro.core.gains.GainBackend.pruned_mass_u` bound (see
:mod:`repro.core.gains` for the certification story).
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import InvalidScheduleError
from repro.core.gains import (
    BackendConfig,
    GainBackend,
    build_backend,
    default_config,
    _distinct_slots,
    validate_growth,
)
from repro.core.instance import Direction, Instance
from repro.core.interference import _class_sum
from repro.core.interference import interference as _interference_from_scratch

#: Default relative tolerance for feasibility comparisons (kept in sync
#: with :data:`repro.core.feasibility.DEFAULT_RTOL` without importing it,
#: to avoid a circular import).
DEFAULT_RTOL = 1e-9

#: Default bound on the total number of cached contexts across *all*
#: instances (configurable via :func:`set_context_cache_limit` or the
#: ``REPRO_CONTEXT_CACHE`` environment variable).  Long orchestrator
#: runs over many instances stay at bounded memory instead of growing
#: one cache per instance without limit.
DEFAULT_CONTEXT_CACHE_LIMIT = 32


def _margins_from(
    signals: np.ndarray, interf: np.ndarray, beta: float, noise: float
) -> np.ndarray:
    """``signal / (beta * (interference + noise))`` with the inf/zero
    conventions of :func:`repro.core.feasibility.sinr_margins`."""
    denom = beta * (interf + noise)
    margins = np.full(signals.shape, np.inf)
    np.divide(signals, denom, out=margins, where=denom > 0)
    margins[np.isinf(interf)] = 0.0
    return margins


def _integral(value) -> bool:
    """Is *value* (one entry of an object array) a non-boolean integral
    number?"""
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        return float(value).is_integer()
    except (TypeError, ValueError, OverflowError):
        return False


def request_indices(values, n: int, label: str) -> np.ndarray:
    """*values* as a 1-D int array of request indices, or ``ValueError``
    naming the first entry (as ``"{label} {value} at position {p}"``)
    that is not an integer in ``[0, n)``.

    Integral values of any integer or float dtype pass.  Fractional and
    non-finite values are rejected instead of truncated, and a boolean
    array is rejected outright instead of being read as indices 0/1.
    """
    arr = np.asarray(values).reshape(-1)
    if arr.dtype.kind in "iu":
        idx = arr.astype(int, copy=False)
    else:
        if arr.dtype.kind == "f":
            bad = ~np.isfinite(arr) | (arr != np.trunc(arr))
        elif arr.dtype.kind == "O":
            bad = ~np.fromiter(map(_integral, arr), dtype=bool, count=arr.size)
        else:  # booleans, strings, complex numbers
            bad = np.ones(arr.size, dtype=bool)
        if np.any(bad):
            position = int(np.argmax(bad))
            value = arr[position : position + 1].tolist()[0]
            raise ValueError(
                f"{label} {value!r} at position {position} is not an "
                "integer request index"
            )
        idx = arr.astype(float).astype(int)
    outside = (idx < 0) | (idx >= n)
    if np.any(outside):
        position = int(np.argmax(outside))
        raise ValueError(
            f"{label} {int(idx[position])} at position {position} is not "
            f"a request index in [0, {n})"
        )
    return idx


class InterferenceContext:
    """Cached interference state for one ``(instance, powers)`` pair.

    Parameters
    ----------
    instance:
        The scheduling instance (fixes the metric, variant, alpha and
        the default ``beta``/``noise``).
    powers:
        Fixed positive power vector of length ``instance.n``.  A
        private copy is kept; later mutation of the caller's array does
        not corrupt the context (and :func:`get_context` keys the cache
        by value, so mutated powers simply resolve to a new context).
    beta, noise:
        Defaults for the per-query overrides; fall back to the
        instance's values.
    config:
        The :class:`~repro.core.gains.BackendConfig` selecting the gain
        backend (``None`` = :func:`~repro.core.gains.default_config`).

    Notes
    -----
    The gain backend is built lazily on first use and shared read-only.
    All query methods accept ``beta``/``noise`` overrides, so a single
    context serves the γ-rescaling machinery of §3.1 (e.g. the
    Theorem 15 repair pass at ``beta / 2``) without rebuilding
    anything.
    """

    def __init__(
        self,
        instance: Instance,
        powers: np.ndarray,
        beta: Optional[float] = None,
        noise: Optional[float] = None,
        config: Optional[BackendConfig] = None,
    ):
        powers = np.array(powers, dtype=float).reshape(-1)
        if powers.shape != (instance.n,):
            raise InvalidScheduleError(
                f"powers must have shape ({instance.n},), got {powers.shape}"
            )
        if np.any(powers <= 0):
            raise InvalidScheduleError("all powers must be strictly positive")
        self.instance = instance
        self.powers = powers
        self.powers.setflags(write=False)
        self.beta = instance.beta if beta is None else float(beta)
        self.noise = instance.noise if noise is None else float(noise)
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.noise < 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        self.config = default_config() if config is None else config
        self._signals: Optional[np.ndarray] = None
        self._backend: Optional[GainBackend] = None
        # The cache key of the current powers (see _context_key),
        # dropped whenever an edit changes them.
        self._key: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Cached gain backend
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of requests."""
        return self.instance.n

    @property
    def directed(self) -> bool:
        """Single-matrix (directed) variant?  Answerable without
        building the gain backend."""
        return self.instance.direction is Direction.DIRECTED

    @property
    def backend(self) -> GainBackend:
        """The gain backend (built lazily on first use, then shared).

        All interference math routes through its primitives; see
        :mod:`repro.core.gains` for the protocol and the dense, sparse
        and sharded implementations.
        """
        if self._backend is None:
            self._backend = build_backend(
                self.instance, self.powers, self.config
            )
        return self._backend

    @property
    def signals(self) -> np.ndarray:
        """Received signal strengths ``p_i / l(u_i, v_i)`` (read-only)."""
        if self._signals is None:
            signals = self.powers / self.instance.link_losses
            signals.setflags(write=False)
            self._signals = signals
        return self._signals

    @property
    def gains_u(self) -> np.ndarray:
        """Gain matrix at endpoint ``u`` (the single directed matrix in
        the directed variant; read-only on the dense backend).

        Compatibility property for dense-only consumers (affectance
        analyses): the dense backend's numpy storage is returned
        without a copy, but a sparse backend **materializes** an
        O(n^2) array on every access — hot paths use the
        :attr:`backend` primitives instead.

        The dense array is read-only to callers but not immutable: a
        live session's slot reuse (:meth:`replace_requests`) rewrites
        the reused rows and columns of this very array in place.  Copy
        it to keep a snapshot across arrivals.
        """
        return self.backend.dense_u()

    @property
    def gains_v(self) -> np.ndarray:
        """Gain matrix at endpoint ``v`` (aliases :attr:`gains_u` in the
        directed variant on the dense backend; see :attr:`gains_u` for
        the sparse caveat)."""
        return self.backend.dense_v()

    @property
    def worst_gains(self) -> np.ndarray:
        """Worst-endpoint gain matrix ``max(G_u, G_v)``.

        The matrix affectance and conflict-graph analyses work on; in
        the directed variant it is :attr:`gains_u` itself.  Cached on
        the dense backend; sparse backends materialize it per call
        (see :attr:`gains_u`).  Slot reuse edits the directed matrix in
        place and recomputes the undirected one on next access: copy
        it to keep a snapshot across arrivals (see :attr:`gains_u`).
        """
        return self.backend.dense_worst()

    @property
    def gains_ut(self) -> np.ndarray:
        """Contiguous transpose of :attr:`gains_u` (read-only, cached
        on the dense backend; materialized per call on sparse).

        ``gains_ut[j]`` is the gain *column* of request ``j`` — what
        every other request suffers when ``j`` transmits — laid out
        contiguously.  Column-consuming hot loops use
        ``backend.col_u(j)``, which reads this layout on the dense
        backend and a transposed CSR row on the sparse one.  Slot
        reuse rewrites the cached dense transpose in place, like
        :attr:`gains_u`.
        """
        return self.backend.dense_ut()

    @property
    def gains_vt(self) -> np.ndarray:
        """Contiguous transpose of :attr:`gains_v` (aliases
        :attr:`gains_ut` in the directed variant on the dense
        backend)."""
        return self.backend.dense_vt()

    @property
    def has_infinite_gains(self) -> bool:
        """Does any gain entry equal ``inf`` (shared-node pairs)?

        Answered by the backend (computed once).  The scheduler
        kernels take a cheaper all-finite fast path (no
        per-update ``isfinite`` masking) when this is ``False`` — which
        is every instance without shared-node pairs.
        """
        return self.backend.has_infinite_gains

    def check_editable(self) -> None:
        """Raise if a built backend cannot :meth:`replace_requests`."""
        backend = self._backend
        if backend is not None and not backend.edits_in_place:
            raise NotImplementedError(f"backend {backend.name!r} does not support in-place edits")

    def replace_requests(
        self, slots: Sequence[int], instance: Instance, powers: np.ndarray
    ) -> None:
        """Write the requests at *slots* from ``(instance, powers)`` in
        place; every other request and its power must be bit-unchanged
        (see :func:`repro.core.gains.validate_growth` with
        ``replaced=``).  Slots at or past :attr:`n` are appended
        requests, and must name every index up to ``instance.n``.

        An already-built gain backend writes only the slots' rows and
        columns (:meth:`~repro.core.gains.GainBackend.replace_requests`,
        ``O(n)`` per slot, growing its storage first for appended
        slots), bit-identical (at ``epsilon = 0``) to a cold rebuild;
        cached signals are patched at the slots, bit-identically to
        recomputing them (they are elementwise).

        Cache discipline: the context cache keys on ``id(instance)``
        and the power bytes, both of which change here.  Long-lived
        owners (:class:`repro.api.Session`) must
        :func:`unpin_context` **before** calling this and
        :func:`repin_context` **after**, so the old slot is released
        and the edited context takes the new key's slot.
        """
        slots = _distinct_slots(slots)
        powers = np.array(powers, dtype=float).reshape(-1)
        n = instance.n
        if powers.shape != (n,):
            raise InvalidScheduleError(
                f"powers must have shape ({n},), got {powers.shape}"
            )
        if slots.size and not (0 <= slots[0] and slots[-1] < n):
            raise InvalidScheduleError(
                f"slots must lie in 0..{n - 1}, got {slots[0]}..{slots[-1]}"
            )
        if not all(power > 0 for power in powers[slots].tolist()):
            raise InvalidScheduleError("all powers must be strictly positive")
        if self._backend is None:
            validate_growth(
                self.instance, self.powers, instance, powers, replaced=slots
            )
        else:
            # The backend holds this very pair and validates the edit
            # itself before touching anything.
            self._backend.replace_requests(slots, instance, powers)
        if self._signals is not None:
            signals = np.empty(n)
            signals[: self.n] = self._signals
            signals[slots] = powers[slots] / instance.link_losses[slots]
            signals.setflags(write=False)
            self._signals = signals
        self.instance = instance
        powers.setflags(write=False)
        self.powers = powers
        self._key = None

    def budgets(
        self,
        beta: Optional[float] = None,
        noise: Optional[float] = None,
        requests: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Interference budgets ``signal / beta - noise`` per request
        (of *requests* only, when given).

        A request can join a class only while the class's interference
        at it stays within this budget.
        """
        beta = self.beta if beta is None else float(beta)
        noise = self.noise if noise is None else float(noise)
        signals = self.signals
        if requests is not None:
            signals = signals[requests]
        return signals / beta - noise

    # ------------------------------------------------------------------
    # Vectorized queries
    # ------------------------------------------------------------------

    def interference(
        self,
        colors: Optional[np.ndarray] = None,
        subset: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Worst-endpoint interference per request (cf.
        :func:`repro.core.interference.interference`).

        Parameters
        ----------
        colors:
            If given, only same-color pairs interfere.
        subset:
            Restrict to these request indices (result aligned to the
            subset, like the module-level function).
        """
        backend = self.backend
        if subset is not None:
            idx = np.asarray(subset, dtype=int)
            if np.unique(idx).size != idx.size:
                # A repeated index names two copies of one request; the
                # cached matrices' zero diagonal cannot express their
                # mutual interference, so defer to the from-scratch
                # sub-instance computation (identical to the legacy
                # path) for this degenerate call.
                return _interference_from_scratch(
                    self.instance, self.powers, colors, idx
                )
            if colors is None:
                # Tiled per-row sums (bit-identical to gathering the
                # block and reducing it) — no dense (k, k) scratch, so
                # subset queries stay inside the sparse backend's
                # memory budget at large k.
                interf = backend.row_sums_u(idx)
                if not backend.directed:
                    interf = np.maximum(interf, backend.row_sums_v(idx))
                return interf
            sub_colors = np.asarray(colors)[idx]
            interf = _class_sum(backend.block_u(idx), sub_colors)
            if not backend.directed:
                interf = np.maximum(
                    interf, _class_sum(backend.block_v(idx), sub_colors)
                )
            return interf
        interf = backend.class_sum_u(colors)
        if not backend.directed:
            interf = np.maximum(interf, backend.class_sum_v(colors))
        return interf

    def margins(
        self,
        colors: Optional[np.ndarray] = None,
        subset: Optional[Sequence[int]] = None,
        beta: Optional[float] = None,
        noise: Optional[float] = None,
    ) -> np.ndarray:
        """SINR margins ``signal / (beta * (interference + noise))``.

        :func:`repro.core.feasibility.sinr_margins` answers from here.
        """
        beta = self.beta if beta is None else float(beta)
        noise = self.noise if noise is None else float(noise)
        signals = self.signals
        interf = self.interference(colors=colors, subset=subset)
        if subset is not None:
            signals = signals[np.asarray(subset, dtype=int)]
        return _margins_from(signals, interf, beta, noise)

    def budget_slack(
        self,
        subset: Sequence[int],
        colors: Optional[np.ndarray] = None,
        beta: Optional[float] = None,
        noise: Optional[float] = None,
    ) -> np.ndarray:
        """Remaining interference budget for each request of *subset*.

        ``slack[i] = budget_i - interference_i`` where the interference
        is taken within *subset* (or within *subset*'s same-color peers
        when *colors* is given).  Negative slack means the request's
        SINR constraint is violated; shared-node interference yields
        ``-inf``.
        """
        idx = np.asarray(subset, dtype=int)
        interf = self.interference(colors=colors, subset=idx)
        slack = self.budgets(beta=beta, noise=noise)[idx] - interf
        return slack

    def feasible_mask(
        self,
        subset: Sequence[int],
        beta: Optional[float] = None,
        noise: Optional[float] = None,
        rtol: float = DEFAULT_RTOL,
    ) -> np.ndarray:
        """Boolean mask (aligned to *subset*) of satisfied requests when
        all of *subset* transmits together."""
        idx = np.asarray(subset, dtype=int)
        if idx.size == 0:
            return np.zeros(0, dtype=bool)
        return self.margins(subset=idx, beta=beta, noise=noise) >= 1.0 - rtol

    def is_feasible_subset(
        self,
        subset: Sequence[int],
        beta: Optional[float] = None,
        noise: Optional[float] = None,
        rtol: float = DEFAULT_RTOL,
    ) -> bool:
        """Can all requests of *subset* share one color?"""
        idx = np.asarray(subset, dtype=int)
        if idx.size == 0:
            return True
        return bool(np.all(self.feasible_mask(idx, beta=beta, noise=noise, rtol=rtol)))

    def is_feasible_partition(
        self,
        colors: np.ndarray,
        beta: Optional[float] = None,
        noise: Optional[float] = None,
        rtol: float = DEFAULT_RTOL,
    ) -> bool:
        """Does the coloring *colors* satisfy every class?"""
        margins = self.margins(colors=np.asarray(colors), beta=beta, noise=noise)
        return bool(np.all(margins >= 1.0 - rtol))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = self._backend.name if self._backend is not None else "lazy"
        return (
            f"InterferenceContext(n={self.n}, "
            f"direction={self.instance.direction.value}, "
            f"backend={self.config.backend}, gains={state})"
        )


# ----------------------------------------------------------------------
# Per-instance context cache
# ----------------------------------------------------------------------

_lock = threading.RLock()
#: Per-instance caches live *on the instance* (as the attribute named
#: below): instance -> contexts -> instance is then a self-contained
#: reference cycle the garbage collector can reclaim once the caller
#: drops the instance.  (A module-level strong cache would pin every
#: instance until eviction; a WeakKeyDictionary would never evict —
#: each context holds a strong reference to its instance, which would
#: keep the weak key alive forever.)  The WeakSet tracks which
#: instances carry a cache, for cache_info()/clear_context_cache.
_CACHE_ATTR = "_interference_context_cache"
_cached_instances: "weakref.WeakSet[Instance]" = weakref.WeakSet()
#: Global recency order over every cached context, as
#: ``(id(instance), key) -> weakref(instance)``.  Holding only weak
#: references keeps the GC story above intact while still letting
#: :func:`get_context` enforce a *total* LRU bound across instances:
#: when the bound is exceeded, the oldest entry's context is evicted
#: from its instance's own cache dict.  Entries whose instance died
#: are dropped lazily as they surface at the LRU head.
_lru: "OrderedDict[Tuple[int, tuple], weakref.ref]" = OrderedDict()


def _env_cache_limit() -> int:
    """Validate ``REPRO_CONTEXT_CACHE`` at import (load) time.

    A malformed value must fail here, with a message naming the
    variable and the accepted form — not deep inside the first
    :func:`get_context` call of a long run.
    """
    raw = os.environ.get("REPRO_CONTEXT_CACHE", "")
    if not raw.strip():
        return DEFAULT_CONTEXT_CACHE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_CONTEXT_CACHE must be a positive integer (the bound on "
            f"cached interference contexts, default "
            f"{DEFAULT_CONTEXT_CACHE_LIMIT}), got {raw!r}"
        ) from None
    if limit < 1:
        raise ValueError(
            f"REPRO_CONTEXT_CACHE must be >= 1 (the bound on cached "
            f"interference contexts), got {raw!r}"
        )
    return limit


_cache_limit = _env_cache_limit()
_hits = 0
_misses = 0


def context_cache_limit() -> int:
    """Current bound on the total number of cached contexts."""
    return _cache_limit


def set_context_cache_limit(limit: int) -> None:
    """Set the total-context LRU bound (evicting down immediately)."""
    global _cache_limit
    limit = int(limit)
    if limit < 1:
        raise ValueError(f"context cache limit must be >= 1, got {limit}")
    with _lock:
        _cache_limit = limit
        _evict_over_limit()


def _evict_over_limit() -> None:
    """Evict least-recently-used contexts until within the bound.

    Must hold ``_lock``.  Dead entries (instance already collected, so
    its contexts are gone with it) are purged as they surface.
    """
    while len(_lru) > _cache_limit:
        (_, key), ref = _lru.popitem(last=False)
        inst = ref()
        if inst is None:
            continue
        per_instance = getattr(inst, _CACHE_ATTR, None)
        if per_instance is not None:
            per_instance.pop(key, None)


def get_context(
    instance: Instance,
    powers: np.ndarray,
    beta: Optional[float] = None,
    noise: Optional[float] = None,
    config: Optional[BackendConfig] = None,
) -> InterferenceContext:
    """The shared :class:`InterferenceContext` for ``(instance, powers)``.

    Contexts are cached per instance — on the instance object itself,
    so dropping the instance lets the garbage collector reclaim its
    contexts — under the *value* of the power vector plus the resolved
    ``beta``/``noise`` defaults and :meth:`BackendConfig.key` of
    *config* (``None`` = :func:`~repro.core.gains.default_config`), with
    a **global** LRU bound across all instances
    (:func:`context_cache_limit`, default
    :data:`DEFAULT_CONTEXT_CACHE_LIMIT`, env ``REPRO_CONTEXT_CACHE``) —
    so long runs over many instances hold bounded gain-matrix memory.
    Gains ``beta``/``noise`` are also per-query overrides on the
    returned context's methods, so querying at a rescaled gain does not
    fragment the cache; passing them *here* changes the context's
    defaults and therefore its cache slot (callers that rely on
    instance defaults never receive a context seeded with overrides).
    """
    global _hits, _misses
    powers_arr = np.asarray(powers, dtype=float)
    config = default_config() if config is None else config
    key = _cache_key(
        powers_arr,
        instance.beta if beta is None else float(beta),
        instance.noise if noise is None else float(noise),
        config,
    )
    with _lock:
        per_instance = getattr(instance, _CACHE_ATTR, None)
        if per_instance is None:
            per_instance = {}
            setattr(instance, _CACHE_ATTR, per_instance)
            _cached_instances.add(instance)
        context = per_instance.get(key)
        lru_key = (id(instance), key)
        if context is not None:
            _lru[lru_key] = _lru.pop(lru_key, None) or weakref.ref(instance)
            _hits += 1
            return context
        _misses += 1
        context = InterferenceContext(
            instance, powers_arr, beta=beta, noise=noise, config=config
        )
        context._key = key
        per_instance[key] = context
        _lru[lru_key] = weakref.ref(instance)
        _evict_over_limit()
        return context


def _cache_key(
    powers: np.ndarray, beta: float, noise: float, config: BackendConfig
) -> tuple:
    return (powers.tobytes(), beta, noise) + config.key()


def _context_key(context: InterferenceContext) -> tuple:
    """The cache key *context* occupies (must match :func:`get_context`).

    Computed once per power vector and kept on the context, so the
    unpin/repin around a live session's arrival hashes the powers once.
    """
    if context._key is None:
        context._key = _cache_key(
            context.powers, context.beta, context.noise, context.config
        )
    return context._key


def repin_context(context: InterferenceContext) -> None:
    """Re-insert *context* as the cached entry for its key.

    Long-lived owners of a context (:class:`repro.api.Session`) hold a
    strong reference, but the global LRU may still have evicted its
    cache slot — after which :func:`get_context` would silently
    rebuild a *different* context with cold gain matrices (and a fresh
    flip-risk counter).  Re-pinning restores the owned context as the
    cache's entry (and marks it most-recently-used), so algorithm
    implementations resolving ``get_context(instance, powers)`` reuse
    the owner's warm state and the owner's certification counters see
    every at-risk comparison of the run.
    """
    instance = context.instance
    key = _context_key(context)
    with _lock:
        per_instance = getattr(instance, _CACHE_ATTR, None)
        if per_instance is None:
            per_instance = {}
            setattr(instance, _CACHE_ATTR, per_instance)
            _cached_instances.add(instance)
        per_instance[key] = context
        lru_key = (id(instance), key)
        _lru.pop(lru_key, None)
        _lru[lru_key] = weakref.ref(instance)
        _evict_over_limit()


def unpin_context(context: InterferenceContext) -> None:
    """Drop *context*'s cache slot (the inverse of :func:`repin_context`).

    Owners that replace their context (e.g.
    :meth:`repro.api.Session.add_requests` growing the instance) must
    release the old slot explicitly: the per-instance cache dict keeps
    the context (and through it the old instance) alive in a reference
    cycle until a *cycle* GC pass runs, and even after collection the
    dead key would keep occupying one global-LRU slot until it drifted
    to the eviction head — evicting still-live contexts early under
    ``REPRO_CONTEXT_CACHE`` pressure.  A no-op if the cached entry for
    the key is not *context* itself (never evicts a newer context that
    legitimately took the slot).
    """
    instance = context.instance
    key = _context_key(context)
    with _lock:
        per_instance = getattr(instance, _CACHE_ATTR, None)
        if per_instance is None or per_instance.get(key) is not context:
            return
        del per_instance[key]
        _lru.pop((id(instance), key), None)
        if not per_instance:
            delattr(instance, _CACHE_ATTR)
            _cached_instances.discard(instance)


def cache_info() -> Dict[str, int]:
    """Cache statistics: hits, misses, live instances, live contexts,
    and the global LRU limit."""
    with _lock:
        caches = [
            getattr(inst, _CACHE_ATTR, None) for inst in _cached_instances
        ]
        caches = [c for c in caches if c is not None]
        return {
            "hits": _hits,
            "misses": _misses,
            "instances": len(caches),
            "contexts": sum(len(c) for c in caches),
            "limit": _cache_limit,
        }


def clear_context_cache() -> None:
    """Drop every cached context and reset the hit/miss counters."""
    global _hits, _misses
    with _lock:
        for inst in list(_cached_instances):
            if hasattr(inst, _CACHE_ATTR):
                delattr(inst, _CACHE_ATTR)
        _cached_instances.clear()
        _lru.clear()
        _hits = 0
        _misses = 0
