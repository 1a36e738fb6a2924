"""Pluggable gain-matrix backends: dense, pruned sparse and sharded.

Everything the interference engine computes reduces to a handful of
access patterns on the gain matrices ``G_u``/``G_v`` — single columns
(what one transmitter does to everyone), bulk column gathers (seeding a
class), square sub-blocks (LP sub-problems), cross blocks (pairwise
gains of a selection at new candidates), tiled sub-block row sums
(subset interference / peel initialization, without materializing the
block) and same-color row sums (validating a partition).  :class:`GainBackend` names exactly
those primitives, and the engine layers
(:class:`repro.core.context.InterferenceContext`,
:class:`repro.core.context.ClassAccumulator`,
:mod:`repro.core.kernels`, :class:`repro.core.batch.ContextBatch`, the
schedulers) consume gains **only** through them.  Three implementations:

* :class:`DenseBackend` — the materialized ``(n, n)`` arrays the engine
  has always used, built one row tile at a time by the full-matrix
  builders of :mod:`repro.core.interference` (never from the metric's
  full matrix on coordinate-backed metrics).  Every primitive returns
  the exact expression the pre-backend code evaluated on those arrays,
  so the dense path is bit-identical to historical behaviour.  The
  arrays live in an array-API namespace: numpy by default (host
  arrays, shared without a copy), or any of :data:`ARRAY_NAMESPACES`
  on a device, with the same bits crossing back to the host.
* :class:`SparseBackend` — CSR storage (plus CSR transposes for column
  access) built **tiled**, a block of rows at a time, so an instance at
  ``n = 16384`` never materializes a dense matrix (nor, on
  coordinate-backed metrics, the underlying distance matrix — see
  :meth:`repro.geometry.metric.Metric.distance_block`).  Rows are
  ε-pruned: per row the smallest finite entries whose cumulative sum
  stays within ``epsilon`` times the row's total finite mass are
  dropped, and the dropped mass is recorded **per request** in
  :attr:`~SparseBackend.pruned_mass_u` / ``_v``.
* :class:`repro.distributed.ShardedBackend` — the sparse backend's
  storage split into block-row shards, each built and held by a shard
  worker.

Numerical contract
------------------

Sparse primitives gather the stored entries into dense scratch buffers
of the **same shape** the dense primitive returns (pruned entries
appear as ``0.0``) and callers apply the same reductions — so with
``epsilon = 0`` (the default, which drops only exact zeros) every
downstream value is bit-identical to the dense backend, and the whole
test suite passes unchanged under ``REPRO_BACKEND=sparse``.

With ``epsilon > 0`` the backend is a *conservative under-estimator*:
any interference value it reports is a lower bound on the true value,
too low by at most the per-request pruned mass.  A feasibility
comparison ``interference <= limit`` can therefore flip (relative to
the unpruned matrix) only when the value lands inside the
``(limit - pruned_mass, limit]`` band; the scheduler kernels count
those at-risk comparisons per kernel
(:attr:`repro.core.kernels.ScheduleKernel.flip_risk_events`) and
cumulatively per backend (:attr:`GainBackend.flip_risk_events`).  A
run during which the counter did **not grow** is **certified** — its
decisions (and hence its schedule) are exactly what the dense backend
would have produced.  The backend counter is a running total shared by
every kernel on the (cached) backend, so per-run certification through
the scheduler wrappers reads it before and after (or calls
:meth:`~GainBackend.reset_flip_risk` first)::

    backend = get_context(instance, powers).backend
    before = backend.flip_risk_events
    schedule = first_fit_schedule(instance, powers)
    certified = backend.flip_risk_events == before

Selecting a backend
-------------------

One frozen :class:`BackendConfig` names the backend and its knobs
(pruning budget, array namespace and device, shard workers and
executor).  The process default is read once, at import, from the
``REPRO_BACKEND`` / ``REPRO_SPARSE_EPSILON`` / ``REPRO_ARRAY_NAMESPACE``
/ ``REPRO_SHARD_WORKERS`` / ``REPRO_SHARD_EXECUTOR`` environment
variables (:meth:`BackendConfig.from_env`); :func:`default_config`
returns the config in effect and ``with config_scope(backend="sparse"):
...`` replaces it for a block.  :func:`repro.core.context.get_context`
and :func:`build_backend` take an explicit ``config=``, and
:class:`repro.api.Problem` resolves its keyword preferences into one
at construction.
"""

from __future__ import annotations

import abc
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Tuple

import numpy as np
from scipy import sparse as _sp

from repro.core.instance import Direction, Instance
from repro.core.interference import (
    DEFAULT_TILE_ROWS,
    _class_sum,
    _gain_block,
    bidirectional_gain_matrices,
    directed_gain_matrix,
)

__all__ = [
    "ARRAY_NAMESPACES",
    "BACKENDS",
    "BackendConfig",
    "GainBackend",
    "DenseBackend",
    "SparseBackend",
    "build_backend",
    "config_scope",
    "default_config",
    "validate_growth",
]

#: Registered backend names.  ``"sharded"`` lives in
#: :mod:`repro.distributed` (block-row shards over a
#: :class:`repro.runner.executors.ShardExecutor`) and is resolved
#: lazily by :func:`build_backend` to keep this module import-light.
BACKENDS = ("dense", "sparse", "sharded")

#: Array-API namespaces :class:`DenseBackend` can host its storage in.
#: ``numpy`` ships with the library; the others resolve lazily at build
#: time and raise an :class:`ImportError` naming the install extra when
#: missing (``pip install 'repro-oblivious-interference-scheduling[array]'``
#: for the portability namespaces; ``torch``/``cupy`` additionally need
#: the framework itself).
ARRAY_NAMESPACES = ("numpy", "array_api_strict", "torch", "cupy")


#: Registered shard-executor names (mirrors
#: :data:`repro.runner.executors.SHARD_EXECUTORS`; duplicated here so
#: validating a configuration never imports the runner package).
SHARD_EXECUTORS = ("serial", "process")

#: Hard ceiling on shard workers — W beyond the block-row count only
#: adds empty shards and per-call fan-out cost.
MAX_SHARD_WORKERS = 256


def _choice(choices: Tuple[str, ...]):
    """A validator normalizing a name to one of *choices*."""

    def check(label: str, value) -> str:
        name = str(value).strip().lower()
        if name not in choices:
            raise ValueError(f"{label} must be one of {choices}, got {value!r}")
        return name

    return check


def _epsilon(label: str, value) -> float:
    try:
        epsilon = float(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{label} must be a float in [0, 1) (the sparse backend's "
            f"per-row pruned-mass budget), got {value!r}"
        ) from None
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"{label} must be in [0, 1), got {value!r}")
    return epsilon


def _workers(label: str, value) -> int:
    try:
        workers = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{label} must be an integer in [1, {MAX_SHARD_WORKERS}] "
            f"(the sharded backend's worker count), got {value!r}"
        ) from None
    if not 1 <= workers <= MAX_SHARD_WORKERS:
        raise ValueError(
            f"{label} must be in [1, {MAX_SHARD_WORKERS}], got {value!r}"
        )
    return workers


_backend_name = _choice(BACKENDS)

#: ``(field, label in errors, environment variable, validator)`` for
#: every validated :class:`BackendConfig` field.
_FIELDS = (
    ("backend", "backend", "REPRO_BACKEND", _backend_name),
    ("sparse_epsilon", "sparse epsilon", "REPRO_SPARSE_EPSILON", _epsilon),
    (
        "array_namespace",
        "array namespace",
        "REPRO_ARRAY_NAMESPACE",
        _choice(ARRAY_NAMESPACES),
    ),
    ("workers", "shard workers", "REPRO_SHARD_WORKERS", _workers),
    (
        "shard_executor",
        "shard executor",
        "REPRO_SHARD_EXECUTOR",
        _choice(SHARD_EXECUTORS),
    ),
)


@dataclass(frozen=True)
class BackendConfig:
    """Which gain backend to build, and how.

    Every field is stored validated and fully resolved, including the
    ones the chosen backend ignores — so ``REPRO_SPARSE_EPSILON`` under
    a dense default still reaches a later ``derive(backend="sparse")``.
    :meth:`key` drops the ignored fields; it is what caches compare.

    Parameters
    ----------
    backend:
        ``"dense"``, ``"sparse"`` or ``"sharded"``.
    sparse_epsilon:
        Per-row pruned-mass budget of the sparse and sharded backends,
        in ``[0, 1)``.
    array_namespace, device:
        Array-API namespace (see :data:`ARRAY_NAMESPACES`) and device of
        the dense backend's storage; a device other than ``None``
        requires ``backend="dense"``.
    workers, shard_executor:
        Worker count and executor name (``"serial"``/``"process"``) of
        the sharded backend.
    """

    backend: str = "dense"
    sparse_epsilon: float = 0.0
    array_namespace: str = "numpy"
    device: Optional[object] = None
    workers: int = 2
    shard_executor: str = "process"

    def __post_init__(self) -> None:
        for name, label, _, check in _FIELDS:
            object.__setattr__(self, name, check(label, getattr(self, name)))
        if self.device is not None and self.backend != "dense":
            raise ValueError(
                "device= requires backend='dense' "
                f"(got backend={self.backend!r})"
            )

    @classmethod
    def from_env(cls) -> "BackendConfig":
        """The config the ``REPRO_*`` variables select (blank = default);
        a malformed value fails naming the variable."""
        fields = {}
        for name, _, var, check in _FIELDS:
            raw = os.environ.get(var, "").strip()
            if raw:
                fields[name] = check(var, raw)
        return cls(**fields)

    def derive(self, **overrides) -> "BackendConfig":
        """This config with every override that is not ``None`` applied.

        A device is kept only while the backend stays ``"dense"``, and
        overriding ``workers``/``shard_executor`` requires the sharded
        backend.
        """
        given = {k: v for k, v in overrides.items() if v is not None}
        backend = _backend_name("backend", given.get("backend", self.backend))
        if backend != "dense":
            given.setdefault("device", None)
        config = replace(self, **given)
        if backend != "sharded" and (
            "workers" in given or "shard_executor" in given
        ):
            raise ValueError(
                "workers=/shard_executor= require backend='sharded' "
                f"(got backend={backend!r})"
            )
        return config

    @property
    def pruning_epsilon(self) -> float:
        """The pruning budget actually applied: ``sparse_epsilon`` on the
        sparse and sharded backends, ``0.0`` on the others."""
        return self.sparse_epsilon if self.backend in ("sparse", "sharded") else 0.0

    def key(self) -> tuple:
        """The canonical cache key: the fields the backend reads, with
        the ignored ones blanked."""
        sharded = self.backend == "sharded"
        return (
            self.backend,
            self.pruning_epsilon,
            self.array_namespace if self.backend == "dense" else "",
            "" if self.device is None else str(self.device),
            self.workers if sharded else 0,
            self.shard_executor if sharded else "",
        )


_config: ContextVar[BackendConfig] = ContextVar(
    "repro_backend_config", default=BackendConfig.from_env()
)


def default_config(**overrides) -> BackendConfig:
    """The backend config in effect (see :func:`config_scope`), with
    *overrides* applied via :meth:`BackendConfig.derive`."""
    config = _config.get()
    return config.derive(**overrides) if overrides else config


@contextmanager
def config_scope(
    config: Optional[BackendConfig] = None, **overrides
) -> Iterator[BackendConfig]:
    """Make *config* (default: the current one), with *overrides*
    applied via :meth:`BackendConfig.derive`, the default for the body.

    The default lives in a :class:`contextvars.ContextVar`, so the
    scope is restored on exit (exception or not) and never leaks into
    concurrently running asyncio tasks.
    """
    scoped = (_config.get() if config is None else config).derive(**overrides)
    token = _config.set(scoped)
    try:
        yield scoped
    finally:
        _config.reset(token)


def _import_array_namespace(name: str):
    """The array-API namespace module backing *name*.

    Imports are deferred to backend build so merely *configuring* a
    namespace (env var, :class:`BackendConfig`) never imports a
    heavy framework — and a missing package fails with an error naming
    the install extra instead of a bare ``ModuleNotFoundError``.
    """
    if name == "numpy":
        return np
    if name == "array_api_strict":
        try:
            import array_api_strict
        except ImportError:
            raise ImportError(
                "array namespace 'array_api_strict' needs the "
                "array-api-strict package; install the array extra "
                "(pip install 'repro-oblivious-interference-scheduling[array]')"
            ) from None
        return array_api_strict
    # torch / cupy expose near-conformant namespaces; array-api-compat
    # wraps them into fully standard ones so the backend code stays
    # framework-agnostic.
    try:
        import importlib

        return importlib.import_module(f"array_api_compat.{name}")
    except ImportError:
        raise ImportError(
            f"array namespace {name!r} needs {name} plus array-api-compat; "
            "install the array extra "
            "(pip install 'repro-oblivious-interference-scheduling[array]') "
            f"and {name} itself"
        ) from None


def _full_gain_matrices(
    instance: Instance, powers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(G_u, G_v)`` from the shared tiled builders; ``G_v is G_u`` in
    the directed variant."""
    if instance.direction is Direction.DIRECTED:
        gains = directed_gain_matrix(instance, powers)
        return gains, gains
    return bidirectional_gain_matrices(instance, powers)


def _host_gain_targets(instance: Instance):
    """Endpoint-node arrays each gain matrix decodes at: ``(receivers,)``
    for the directed ``G``, ``(senders, receivers)`` for ``(G_u, G_v)``."""
    if instance.direction is Direction.DIRECTED:
        return (instance.receivers,)
    return (instance.senders, instance.receivers)


def _frozen(x):
    """Mark a host array read-only (other namespaces have no flag)."""
    if isinstance(x, np.ndarray):
        x.setflags(write=False)
    return x


def validate_growth(
    old_instance: Instance,
    old_powers: np.ndarray,
    new_instance: Instance,
    new_powers: np.ndarray,
) -> None:
    """Check that ``(new_instance, new_powers)`` extends the old pair
    *in place*: same metric object, variant and alpha; the existing
    requests (and their powers, bitwise) unchanged as a prefix; only
    new requests appended.  Raises :class:`ValueError` naming the first
    violated condition — the contract every
    :meth:`GainBackend.append_requests` (and the context/kernel growth
    built on it) relies on for bit-identity with a cold rebuild.
    """
    if new_instance.metric is not old_instance.metric:
        raise ValueError(
            "growth must keep the same metric object; rebuild instead of "
            "appending when the metric changes"
        )
    if new_instance.direction is not old_instance.direction:
        raise ValueError(
            f"growth cannot change the problem variant "
            f"({old_instance.direction.value} -> {new_instance.direction.value})"
        )
    if new_instance.alpha != old_instance.alpha:
        raise ValueError(
            f"growth cannot change alpha "
            f"({old_instance.alpha} -> {new_instance.alpha})"
        )
    n_old = old_instance.n
    if new_instance.n < n_old:
        raise ValueError(
            f"growth cannot shrink the instance "
            f"(n={old_instance.n} -> n={new_instance.n})"
        )
    if not (
        np.array_equal(new_instance.senders[:n_old], old_instance.senders)
        and np.array_equal(
            new_instance.receivers[:n_old], old_instance.receivers
        )
    ):
        raise ValueError(
            "growth must keep the existing request pairs unchanged as a "
            "prefix of the new instance"
        )
    new_powers = np.asarray(new_powers, dtype=float).reshape(-1)
    if new_powers.shape != (new_instance.n,):
        raise ValueError(
            f"powers must have shape ({new_instance.n},), "
            f"got {new_powers.shape}"
        )
    if not np.array_equal(
        new_powers[:n_old], np.asarray(old_powers, dtype=float)
    ):
        raise ValueError(
            "growth must keep the powers of existing requests bit-identical "
            "(oblivious assignments are elementwise, so re-resolving them "
            "preserves the prefix; explicit vectors must be appended to)"
        )


class GainBackend(abc.ABC):
    """Access protocol for one pair of endpoint gain matrices.

    Methods come in ``_u``/``_v`` pairs; in the directed variant the
    ``_v`` member is the same object/value as ``_u`` (mirroring the
    aliased matrices of the dense engine).  All return **dense** numpy
    scratch arrays — never views a caller must not mutate, except where
    a concrete class documents otherwise.
    """

    #: Backend name (one of :data:`BACKENDS`).
    name: str = "?"

    #: Running total of feasibility comparisons that landed inside a
    #: pruned-mass uncertainty band (see the module docstring).  Always
    #: ``0`` for lossless backends; incremented by every scheduler
    #: kernel sharing this backend, so per-run certification compares
    #: before/after (or resets first) — each
    #: :class:`~repro.core.kernels.ScheduleKernel` also keeps its own
    #: per-run count.
    flip_risk_events: int = 0

    def reset_flip_risk(self) -> None:
        """Reset the at-risk-comparison counter."""
        self.flip_risk_events = 0

    # -- growth --------------------------------------------------------

    def append_requests(self, instance: Instance, powers: np.ndarray) -> None:
        """Grow the backend in place to ``(instance, powers)``, which
        must extend the pair the backend was built from (see
        :func:`validate_growth`): same metric/variant/alpha, existing
        requests and powers bit-unchanged as a prefix, new requests
        appended.  Only the new rows and columns are computed (from
        :func:`_gain_block` tiles), so an arrival costs ``O(n)`` gain
        entries per endpoint instead of the ``O(n^2)`` cold rebuild —
        and with ``epsilon = 0`` the grown storage is **bit-identical**
        to a cold build of the grown pair.

        Backends that cannot grow raise :class:`NotImplementedError`.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support in-place growth"
        )

    # -- shape / bookkeeping -------------------------------------------

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Number of requests."""

    @property
    @abc.abstractmethod
    def directed(self) -> bool:
        """Is there a single (aliased) gain matrix?"""

    @property
    @abc.abstractmethod
    def has_infinite_gains(self) -> bool:
        """Does any entry equal ``inf`` (shared-node pairs)?"""

    @property
    @abc.abstractmethod
    def pruned_mass_u(self) -> np.ndarray:
        """Per-request upper bound on gain mass dropped from row ``i``
        of ``G_u`` (exact zeros for lossless backends)."""

    @property
    @abc.abstractmethod
    def pruned_mass_v(self) -> np.ndarray:
        """Endpoint-``v`` counterpart of :attr:`pruned_mass_u`."""

    @property
    def pruned_bound(self) -> np.ndarray:
        """Worst-endpoint pruned mass ``max(pm_u, pm_v)`` per request —
        the additive uncertainty of any worst-endpoint interference
        value this backend reports."""
        if self.directed:
            return self.pruned_mass_u
        return np.maximum(self.pruned_mass_u, self.pruned_mass_v)

    @property
    def is_lossless(self) -> bool:
        """Does this backend reproduce the full matrices exactly?"""
        return not bool(
            np.any(self.pruned_mass_u > 0) or np.any(self.pruned_mass_v > 0)
        )

    # -- primitives ----------------------------------------------------

    @abc.abstractmethod
    def col_u(self, j: int) -> np.ndarray:
        """Column ``G_u[:, j]`` as a dense ``(n,)`` array: what request
        *j* induces at every request's ``u`` endpoint."""

    @abc.abstractmethod
    def col_v(self, j: int) -> np.ndarray:
        """Column ``G_v[:, j]``."""

    @abc.abstractmethod
    def row_u(self, i: int) -> np.ndarray:
        """Row ``G_u[i, :]`` as a dense ``(n,)`` array."""

    @abc.abstractmethod
    def row_v(self, i: int) -> np.ndarray:
        """Row ``G_v[i, :]``."""

    @abc.abstractmethod
    def gather_cols_u(self, members: np.ndarray) -> np.ndarray:
        """Dense ``(n, k)`` gather ``G_u[:, members]``."""

    @abc.abstractmethod
    def gather_cols_v(self, members: np.ndarray) -> np.ndarray:
        """Dense ``(n, k)`` gather ``G_v[:, members]``."""

    @abc.abstractmethod
    def block_u(self, idx: np.ndarray) -> np.ndarray:
        """Dense ``(k, k)`` sub-block ``G_u[np.ix_(idx, idx)]`` (a fresh
        writable buffer)."""

    @abc.abstractmethod
    def block_v(self, idx: np.ndarray) -> np.ndarray:
        """Dense ``(k, k)`` sub-block of ``G_v``."""

    @abc.abstractmethod
    def cross_block_u(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense ``(len(rows), len(cols))`` gather
        ``G_u[np.ix_(rows, cols)]``."""

    @abc.abstractmethod
    def cross_block_v(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Endpoint-``v`` counterpart of :meth:`cross_block_u`."""

    def _row_sums(self, cross_block, rows, cols) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = rows if cols is None else np.asarray(cols, dtype=int)
        out = np.empty(rows.size)
        tile = max(1, int(getattr(self, "tile_rows", DEFAULT_TILE_ROWS)))
        for lo in range(0, rows.size, tile):
            hi = min(lo + tile, rows.size)
            out[lo:hi] = cross_block(rows[lo:hi], cols).sum(axis=1)
        return out

    def row_sums_u(
        self, rows: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-row gain sums ``G_u[np.ix_(rows, cols)].sum(axis=1)``
        (*cols* defaults to *rows*) without materializing the block.

        The reduction runs tile-by-tile (``tile_rows`` rows of dense
        scratch at a time), so peak memory is ``O(tile * len(cols))``
        instead of ``O(len(rows) * len(cols))`` — and each scratch row
        is a contiguous length-``len(cols)`` buffer reduced with NumPy's
        per-row pairwise summation, so every value is **bit-identical**
        to gathering the full block and calling ``.sum(axis=1)``.  On
        the sparse backend the tiles come straight from CSR row
        slicing, so no dense ``(k, k)`` block ever exists.
        """
        return self._row_sums(self.cross_block_u, rows, cols)

    def row_sums_v(
        self, rows: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Endpoint-``v`` counterpart of :meth:`row_sums_u`."""
        return self._row_sums(self.cross_block_v, rows, cols)

    @abc.abstractmethod
    def class_sum_u(self, colors: Optional[np.ndarray]) -> np.ndarray:
        """Same-color row sums of ``G_u`` (all columns when *colors* is
        ``None``) — cf. :func:`repro.core.interference._class_sum`."""

    @abc.abstractmethod
    def class_sum_v(self, colors: Optional[np.ndarray]) -> np.ndarray:
        """Same-color row sums of ``G_v``."""

    # -- dense materialization (compat / analysis layers) --------------

    @abc.abstractmethod
    def dense_u(self) -> np.ndarray:
        """The full ``(n, n)`` matrix ``G_u``.  O(n^2) memory — sparse
        backends materialize it on every call; intended for the
        analysis layers and small instances, never for hot loops."""

    @abc.abstractmethod
    def dense_v(self) -> np.ndarray:
        """The full ``G_v`` (aliases :meth:`dense_u` when directed)."""

    @abc.abstractmethod
    def dense_ut(self) -> np.ndarray:
        """Contiguous transpose of ``G_u`` (O(n^2) memory)."""

    @abc.abstractmethod
    def dense_vt(self) -> np.ndarray:
        """Contiguous transpose of ``G_v``."""

    def dense_worst(self) -> np.ndarray:
        """The full worst-endpoint matrix ``max(G_u, G_v)`` (``G_u``
        itself when directed); materialized per call like
        :meth:`dense_u`."""
        if self.directed:
            return self.dense_u()
        return np.maximum(self.dense_u(), self.dense_v())

    # -- stats ---------------------------------------------------------

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Stored nonzero entries across both endpoint matrices
        (aliased matrices counted once)."""

    @property
    def density(self) -> float:
        """``nnz`` per matrix entry (1.0 for dense storage)."""
        matrices = 1 if self.directed else 2
        return float(self.nnz) / float(matrices * self.n * self.n)

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Approximate bytes held by the gain storage."""


class DenseBackend(GainBackend):
    """The materialized ``(n, n)`` gain arrays (bit-exact reference),
    stored in an array-API namespace.

    Under the default ``numpy`` namespace the storage *is* the host
    arrays the engine has always used: :attr:`gains_u`/:attr:`gains_v`,
    the cached contiguous transposes :attr:`gains_ut`/:attr:`gains_vt`
    and the worst-endpoint :attr:`worst_gains`, read-only and shared
    without a copy by the dense-only fast paths (stacked batching,
    affectance analyses).  Any other namespace (``array_api_strict``
    for portability testing, ``torch``/``cupy`` via ``array-api-compat``
    when installed) runs the same code through ``xp`` calls, with the
    arrays on *device*: the build uploads each matrix once, growth
    uploads only the appended strips, and every primitive crosses back
    to the host at the one :meth:`_download` boundary (the identity
    under numpy), so every namespace returns the same bits.

    Parameters
    ----------
    gains_u, gains_v:
        The gain matrices in *namespace* (``gains_v is gains_u`` in the
        directed variant).
    namespace:
        Registered namespace name (see :data:`ARRAY_NAMESPACES`).
    device:
        Optional device passed to the namespace's ``asarray``/creation
        functions (``None`` = namespace default).
    """

    name = "dense"

    def __init__(self, gains_u, gains_v, namespace: str = "numpy", device=None):
        self.flip_risk_events = 0
        self.namespace = namespace
        self.device = device
        self._xp = _import_array_namespace(namespace)
        self._on_device = {} if device is None else {"device": device}
        self._gains_u = gains_u
        self._gains_v = gains_v
        self._gains_t: Optional[Tuple[object, object]] = None
        self._worst = None
        self._has_inf: Optional[bool] = None
        self._zero_mass: Optional[np.ndarray] = None
        # Growth state (populated by build(); raw-constructed backends
        # cannot grow because they do not know their instance).
        self._instance: Optional[Instance] = None
        self._powers: Optional[np.ndarray] = None
        self._buf_u = None
        self._buf_v = None
        self._buf_ut = None
        self._buf_vt = None

    @classmethod
    def build(
        cls,
        instance: Instance,
        powers: np.ndarray,
        namespace: str = "numpy",
        device=None,
    ) -> "DenseBackend":
        """Build from the shared tiled gain-matrix builders (the exact
        arrays the pre-backend engine cached), then upload each matrix
        once (the identity under numpy)."""
        powers = np.asarray(powers, dtype=float).reshape(-1)
        host_u, host_v = _full_gain_matrices(instance, powers)
        backend = cls(None, None, namespace, device)
        backend._gains_u = _frozen(backend._upload(host_u))
        backend._gains_v = (
            backend._gains_u
            if host_v is host_u
            else _frozen(backend._upload(host_v))
        )
        backend._instance = instance
        backend._powers = powers
        return backend

    def __getstate__(self) -> dict:
        # A module does not pickle; its registered name does.
        state = dict(self.__dict__)
        del state["_xp"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._xp = _import_array_namespace(self.namespace)

    # -- transfer boundary ---------------------------------------------

    def _upload(self, host: np.ndarray):
        """The host→namespace transfer (identity under numpy)."""
        return self._xp.asarray(host, **self._on_device)

    @staticmethod
    def _download(x) -> np.ndarray:
        """The namespace→host transfer of a result (identity under
        numpy)."""
        if isinstance(x, np.ndarray):
            return x
        try:
            return np.from_dlpack(x)
        except (TypeError, RuntimeError, BufferError, AttributeError):
            return np.asarray(x)

    def _scratch(self, x) -> np.ndarray:
        """Download as a writable scratch buffer (copying only when the
        zero-copy download came back read-only)."""
        out = self._download(x)
        return out if out.flags.writeable else out.copy()

    def _idx(self, idx):
        """Index array in-namespace (int64, on the backend's device)."""
        return self._upload(np.asarray(idx, dtype=np.int64))

    def _zeros(self, size: int):
        # Full writes every page now; zeros would leave them to fault
        # in on the admission path, a huge page per 64 new rows.
        xp = self._xp
        return xp.full((size, size), 0.0, dtype=xp.float64, **self._on_device)

    # -- growth --------------------------------------------------------

    def _ensure_capacity(self, n_new: int) -> None:
        """Guarantee the backing buffers hold at least ``n_new`` rows
        and columns, doubling capacity on reallocation so a stream of
        single-request appends reallocates ``O(log n)`` times (amortized
        O(1) copied entries per appended entry)."""
        if self._buf_u is not None and self._buf_u.shape[0] >= n_new:
            return
        n_old = self.n
        cap = max(n_new, 2 * n_old)
        buf_u = self._zeros(cap)
        buf_u[:n_old, :n_old] = self._gains_u
        self._buf_u = buf_u
        if self.directed:
            self._buf_v = buf_u
        else:
            buf_v = self._zeros(cap)
            buf_v[:n_old, :n_old] = self._gains_v
            self._buf_v = buf_v

    def _fill_appended(self, buf, instance, powers, nodes, n_old) -> bool:
        """Fill the strips a growth from ``n_old`` to ``instance.n``
        requests adds to *buf* — the arrivals' columns at the existing
        rows, then the arrivals' full rows — with exactly the entries a
        cold rebuild computes, uploading only those strips; returns
        whether any new entry is infinite."""
        n_new = instance.n
        new_idx = np.arange(n_old, n_new)
        new_inf = False
        for rows, cols in ((np.arange(n_old), new_idx), (new_idx, np.arange(n_new))):
            for lo in range(0, rows.size, DEFAULT_TILE_ROWS):
                tile = rows[lo : lo + DEFAULT_TILE_ROWS]
                block = _gain_block(instance, powers, nodes, tile, cols)
                new_inf = new_inf or not bool(np.all(np.isfinite(block)))
                buf[tile[0] : tile[-1] + 1, cols[0] : n_new] = self._upload(block)
        return new_inf

    def append_requests(self, instance: Instance, powers: np.ndarray) -> None:
        if self._instance is None:
            raise ValueError(
                "this DenseBackend was constructed from raw arrays; only "
                "backends built via DenseBackend.build(...) can grow"
            )
        validate_growth(self._instance, self._powers, instance, powers)
        powers = np.asarray(powers, dtype=float).reshape(-1)
        n_old, n_new = self.n, instance.n
        if n_new == n_old:
            self._instance, self._powers = instance, powers
            return
        self._ensure_capacity(n_new)
        new_inf = False
        for buf, nodes in zip(
            (self._buf_u, self._buf_v), _host_gain_targets(instance)
        ):
            new_inf = (
                self._fill_appended(buf, instance, powers, nodes, n_old)
                or new_inf
            )
        self._gains_u = _frozen(self._buf_u[:n_new, :n_new])
        self._gains_v = (
            self._gains_u
            if self._buf_v is self._buf_u
            else _frozen(self._buf_v[:n_new, :n_new])
        )
        if self._gains_t is not None:
            # Extend the materialized transposes in place: dropping
            # them would make the next col_u/col_v after every arrival
            # re-transpose the whole O(n^2) matrix, turning the O(n)
            # admission path quadratic.
            self._grow_transposes(n_old, n_new)
        self._worst = None
        self._zero_mass = None
        if new_inf:
            self._has_inf = True
        # else: False stays False (old and new entries all finite) and
        # None stays lazily recomputed over the grown matrix.
        self._instance, self._powers = instance, powers

    def _grow_transposes(self, n_old: int, n_new: int) -> None:
        """Extend the cached contiguous transposes to ``n_new`` from
        the freshly appended buffer blocks (pure element reordering, so
        trivially bit-identical to re-transposing the grown matrix).
        The transpose buffers share the main buffers' capacity, so a
        single-append stream reallocates them O(log n) times too."""
        cap = self._buf_u.shape[0]
        ut_old, vt_old = self._gains_t
        if self._buf_ut is None or self._buf_ut.shape[0] < n_new:
            buf_ut = self._zeros(cap)
            buf_ut[:n_old, :n_old] = ut_old
            self._buf_ut = buf_ut
            if self._buf_v is self._buf_u:
                self._buf_vt = buf_ut
            else:
                buf_vt = self._zeros(cap)
                buf_vt[:n_old, :n_old] = vt_old
                self._buf_vt = buf_vt
        pairs = (
            ((self._buf_ut, self._buf_u),)
            if self._buf_vt is self._buf_ut
            else ((self._buf_ut, self._buf_u), (self._buf_vt, self._buf_v))
        )
        for buf_t, buf in pairs:
            # New rows of T = new columns of G; new columns of T (above
            # the new rows) = new rows of G.  No overlap, full coverage.
            buf_t[n_old:n_new, :n_new] = buf[:n_new, n_old:n_new].T
            buf_t[:n_old, n_old:n_new] = buf[n_old:n_new, :n_old].T
        gains_ut = _frozen(self._buf_ut[:n_new, :n_new])
        if self._buf_vt is self._buf_ut:
            self._gains_t = (gains_ut, gains_ut)
        else:
            self._gains_t = (gains_ut, _frozen(self._buf_vt[:n_new, :n_new]))

    # -- the arrays ----------------------------------------------------

    @property
    def gains_u(self):
        """Gain matrix at endpoint ``u`` (read-only under numpy)."""
        return self._gains_u

    @property
    def gains_v(self):
        """Gain matrix at endpoint ``v`` (aliases :attr:`gains_u` in
        the directed variant; read-only under numpy)."""
        return self._gains_v

    def _transpose(self, arr):
        # Laid out on the host, where a contiguous transpose is one
        # call, then uploaded once (both transfers are identities
        # under numpy).
        return _frozen(self._upload(np.ascontiguousarray(self._download(arr).T)))

    def _transposes(self) -> Tuple[object, object]:
        if self._gains_t is None:
            gains_ut = self._transpose(self._gains_u)
            if self.directed:
                self._gains_t = (gains_ut, gains_ut)
            else:
                self._gains_t = (gains_ut, self._transpose(self._gains_v))
        return self._gains_t

    @property
    def gains_ut(self):
        """Contiguous transpose of :attr:`gains_u` (read-only, cached);
        ``gains_ut[j]`` is request ``j``'s gain column laid out
        contiguously."""
        return self._transposes()[0]

    @property
    def gains_vt(self):
        """Contiguous transpose of :attr:`gains_v` (read-only, cached;
        aliases :attr:`gains_ut` in the directed variant)."""
        return self._transposes()[1]

    @property
    def worst_gains(self):
        """Worst-endpoint gains ``max(G_u, G_v)`` (read-only, cached)."""
        if self._worst is None:
            if self.directed:
                self._worst = self._gains_u
            else:
                self._worst = _frozen(
                    self._xp.maximum(self._gains_u, self._gains_v)
                )
        return self._worst

    # -- protocol ------------------------------------------------------

    @property
    def n(self) -> int:
        return int(self._gains_u.shape[0])

    @property
    def directed(self) -> bool:
        return self._gains_v is self._gains_u

    @property
    def has_infinite_gains(self) -> bool:
        if self._has_inf is None:
            xp = self._xp
            has_inf = not bool(xp.all(xp.isfinite(self._gains_u)))
            if not has_inf and not self.directed:
                has_inf = not bool(xp.all(xp.isfinite(self._gains_v)))
            self._has_inf = has_inf
        return self._has_inf

    @property
    def pruned_mass_u(self) -> np.ndarray:
        if self._zero_mass is None:
            self._zero_mass = _frozen(np.zeros(self.n))
        return self._zero_mass

    pruned_mass_v = pruned_mass_u

    def col_u(self, j: int) -> np.ndarray:
        return self._download(self.gains_ut[int(j), :])

    def col_v(self, j: int) -> np.ndarray:
        return self._download(self.gains_vt[int(j), :])

    def row_u(self, i: int) -> np.ndarray:
        return self._download(self._gains_u[int(i), :])

    def row_v(self, i: int) -> np.ndarray:
        return self._download(self._gains_v[int(i), :])

    def _gather_cols(self, gains_t, members) -> np.ndarray:
        # Taking rows of the cached transpose copies contiguous memory
        # (3-20x faster than a strided column gather at n=2048), and
        # the transposed view has the (n, k) layout of ``G[:, members]``,
        # so the kernels' row reductions sum in the same order.
        return self._download(
            self._xp.take(gains_t, self._idx(members), axis=0)
        ).T

    def gather_cols_u(self, members: np.ndarray) -> np.ndarray:
        return self._gather_cols(self.gains_ut, members)

    def gather_cols_v(self, members: np.ndarray) -> np.ndarray:
        return self._gather_cols(self.gains_vt, members)

    def _cross(self, arr, rows, cols):
        if self._xp is np:
            # One fancy index beats two takes on numpy (3x at 64x64).
            return arr[np.ix_(rows, cols)]
        xp = self._xp
        return xp.take(
            xp.take(arr, self._idx(rows), axis=0), self._idx(cols), axis=1
        )

    def block_u(self, idx: np.ndarray) -> np.ndarray:
        return self._scratch(self._cross(self._gains_u, idx, idx))

    def block_v(self, idx: np.ndarray) -> np.ndarray:
        return self._scratch(self._cross(self._gains_v, idx, idx))

    def cross_block_u(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._download(self._cross(self._gains_u, rows, cols))

    def cross_block_v(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._download(self._cross(self._gains_v, rows, cols))

    def class_sum_u(self, colors: Optional[np.ndarray]) -> np.ndarray:
        return _class_sum(self.dense_u(), colors)

    def class_sum_v(self, colors: Optional[np.ndarray]) -> np.ndarray:
        return _class_sum(self.dense_v(), colors)

    def dense_u(self) -> np.ndarray:
        return self._download(self._gains_u)

    def dense_v(self) -> np.ndarray:
        return self.dense_u() if self.directed else self._download(self._gains_v)

    def dense_ut(self) -> np.ndarray:
        return self._download(self.gains_ut)

    def dense_vt(self) -> np.ndarray:
        return self.dense_ut() if self.directed else self._download(self.gains_vt)

    def dense_worst(self) -> np.ndarray:
        return self._download(self.worst_gains)

    @property
    def nnz(self) -> int:
        xp = self._xp
        count = int(xp.sum(xp.astype(self._gains_u != 0, xp.int64)))
        if not self.directed:
            count += int(xp.sum(xp.astype(self._gains_v != 0, xp.int64)))
        return count

    @property
    def density(self) -> float:
        return 1.0  # dense storage holds every entry regardless of value

    @property
    def nbytes(self) -> int:
        matrices = 1 if self.directed else 2
        if self._gains_t is not None:
            matrices *= 2
        return 8 * self.n * self.n * matrices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DenseBackend(n={self.n}, directed={self.directed}, "
            f"namespace={self.namespace!r}, device={self.device!r})"
        )


class ArrayBackend(DenseBackend):
    """Not a backend: :class:`DenseBackend` under another name, kept only
    because the benchmark's span list (``perfbench/spans.py``) wraps
    ``ArrayBackend.build`` by name.  Nothing builds it; the next change
    to the benchmark removes it from that list and this class with it.
    """


def _prune_tile(
    tile: np.ndarray, epsilon: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ε-pruning of one dense gain tile.

    Returns ``(keep, pruned_mass)``: a boolean mask of entries to store
    (every ``inf`` entry is always kept, exact zeros never are) and a
    conservative per-row upper bound on the finite mass dropped.  The
    rule drops the *smallest* finite entries of each row whose
    cumulative sum stays within ``epsilon`` times the row's total
    finite mass, so the bound is as tight as a sorted greedy allows.
    """
    finite = np.isfinite(tile)
    positive = tile > 0
    eligible = finite & positive
    if epsilon <= 0.0:
        return eligible | ~finite, np.zeros(tile.shape[0])
    # Sort each row's eligible values ascending (ineligible entries sort
    # last as +inf) and drop the longest prefix within the mass budget.
    # The ordering and the cumulative mass run in float32 — the sort is
    # the build's hottest pass and halves its memory traffic — which is
    # sound because the *rule* (which smallest entries to drop) is ours
    # to define: stored entries stay exact float64, and the recorded
    # per-row bound below is widened past the worst-case float32
    # accumulation error so it remains a true upper bound on the exact
    # dropped mass.  Ties among equal values may drop in either order
    # (identical mass either way); the result is deterministic for a
    # given tile.
    vals = np.where(eligible, tile, np.inf).astype(np.float32)
    order = np.argsort(vals, axis=1)
    svals = np.take_along_axis(vals, order, axis=1)
    sfinite = np.isfinite(svals)
    csum = np.cumsum(np.where(sfinite, svals, np.float32(0.0)), axis=1)
    # Keep the budget slightly conservative so float32 rounding cannot
    # push the dropped mass past epsilon times the true row mass.
    budget = np.float32(epsilon * (1.0 - 1e-3)) * csum[:, -1]
    drop_count = np.count_nonzero(sfinite & (csum <= budget[:, None]), axis=1)
    pruned = np.where(
        drop_count > 0,
        np.take_along_axis(
            csum, np.maximum(drop_count - 1, 0)[:, None], axis=1
        )[:, 0].astype(float),
        0.0,
    )
    # Widen the recorded bound past the sequential-float32-cumsum
    # worst case (~n * eps32 relative), plus an absolute term covering
    # float64 values that underflow to 0 in float32 (each < 1.2e-38),
    # so it upper-bounds the exact float64 dropped mass.
    n_cols = np.float64(tile.shape[1])
    pruned = pruned * (1.0 + n_cols * 1.2e-7 + 1e-9) + np.where(
        drop_count > 0, n_cols * 1.2e-38, 0.0
    )
    drop_sorted = np.arange(tile.shape[1])[None, :] < drop_count[:, None]
    drop = np.zeros(tile.shape, dtype=bool)
    np.put_along_axis(drop, order, drop_sorted, axis=1)
    return (eligible & ~drop) | ~finite, pruned


def _assemble_csr(
    instance: Instance,
    powers: np.ndarray,
    endpoint_nodes: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    epsilon: float,
    tile_rows: int,
) -> Tuple["_sp.csr_matrix", np.ndarray, bool]:
    """ε-pruned CSR of one endpoint's gain sub-block ``G[rows][:, cols]``
    (column indices relative to *cols*), assembled ``tile_rows`` rows of
    dense scratch at a time from :func:`_gain_block`.

    Returns ``(csr, pruned_mass, has_infinite)`` with ``pruned_mass``
    the per-row bound from :func:`_prune_tile`.  Shared by the cold
    :meth:`SparseBackend.build` (full square block) and the growable
    appends (top-right and bottom strips).
    """
    data, col_chunks, row_nnz = [], [], []
    pruned = np.zeros(rows.size)
    has_inf = False
    for lo in range(0, rows.size, tile_rows):
        hi = min(lo + tile_rows, rows.size)
        gains = _gain_block(instance, powers, endpoint_nodes, rows[lo:hi], cols)
        keep, tile_pruned = _prune_tile(gains, epsilon)
        pruned[lo:hi] = tile_pruned
        kept_rows, kept_cols = np.nonzero(keep)
        kept = gains[kept_rows, kept_cols]
        if not has_inf and kept.size:
            has_inf = not bool(np.all(np.isfinite(kept)))
        data.append(kept)
        col_chunks.append(kept_cols)
        row_nnz.append(np.bincount(kept_rows, minlength=hi - lo))
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    if row_nnz:
        np.cumsum(np.concatenate(row_nnz), out=indptr[1:])
    csr = _sp.csr_matrix(
        (
            np.concatenate(data) if data else np.zeros(0),
            np.concatenate(col_chunks)
            if col_chunks
            else np.zeros(0, dtype=int),
            indptr,
        ),
        shape=(rows.size, cols.size),
    )
    return csr, pruned, has_inf


class _PendingBlock:
    """One unconsolidated arrival batch of a growing sparse endpoint.

    Appending at size ``start`` contributes exactly two strips: the
    *right* strip ``G[:start, start:start+k]`` (what the ``k`` arrivals
    induce at every pre-existing request, kept both row-major and
    pre-transposed for O(row) column slices) and the *bottom* strip
    ``G[start:start+k, :start+k]`` (the arrivals' full rows).  Folding
    the blocks into the base CSR in arrival order reproduces the
    rebuild-per-arrival storage bit-for-bit, so consolidation can be
    deferred and amortized (see :meth:`SparseBackend.flush_growth`).
    """

    __slots__ = ("start", "right", "right_t", "bottom")

    def __init__(self, start: int, right, bottom):
        self.start = int(start)
        self.right = right
        self.right_t = right.T.tocsr()
        self.bottom = bottom

    @property
    def k(self) -> int:
        return self.right.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.right.nnz) + int(self.bottom.nnz)

    @property
    def nbytes(self) -> int:
        total = 0
        for csr in (self.right, self.right_t, self.bottom):
            total += csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        return total


def _csr_cell(csr: "_sp.csr_matrix", row: int, col: int) -> float:
    """One stored entry of a (sorted) CSR, ``0.0`` when absent."""
    lo, hi = csr.indptr[row], csr.indptr[row + 1]
    pos = lo + np.searchsorted(csr.indices[lo:hi], col)
    if pos < hi and csr.indices[pos] == col:
        return float(csr.data[pos])
    return 0.0


class SparseBackend(GainBackend):
    """ε-pruned CSR gains with per-request dropped-mass bounds.

    Storage is one CSR matrix per endpoint plus its transposed CSR (for
    O(row) column access); both are assembled tile-by-tile through
    :meth:`repro.geometry.metric.Metric.distance_block`, so neither the
    gain nor the distance matrix is ever dense in memory.  See the
    module docstring for the pruning rule and the exactness /
    certification contract.

    Growth (``append_requests``) is *deferred*: arrival strips are kept
    as :class:`_PendingBlock` buffers next to the consolidated base CSR
    and folded in (one stacking pass plus one transpose rebuild) only
    when the pending rows reach the base size, when a block-structured
    query needs them, or on an explicit :meth:`flush_growth` — so a
    stream of single-request arrivals consolidates ``O(log n)`` times
    instead of rebuilding ``O(nnz)`` transposes per arrival, while the
    hot single-row/column queries of live admission read base +
    pending directly without consolidating at all.
    """

    name = "sparse"

    def __init__(
        self,
        csr_u: "_sp.csr_matrix",
        csr_v: "_sp.csr_matrix",
        pruned_mass_u: np.ndarray,
        pruned_mass_v: np.ndarray,
        epsilon: float,
        has_infinite: bool,
    ):
        self.flip_risk_events = 0
        self.epsilon = float(epsilon)
        self._csr_u = csr_u
        self._csr_v = csr_v
        self._csr_ut = csr_u.T.tocsr()
        self._csr_vt = (
            self._csr_ut if csr_v is csr_u else csr_v.T.tocsr()
        )
        pruned_mass_u.setflags(write=False)
        pruned_mass_v.setflags(write=False)
        self._pruned_u = pruned_mass_u
        self._pruned_v = pruned_mass_v
        self._has_inf = bool(has_infinite)
        self.tile_rows = DEFAULT_TILE_ROWS
        # Growth state (populated by build(); raw-constructed backends
        # cannot grow because they do not know their instance).
        self._instance: Optional[Instance] = None
        self._powers: Optional[np.ndarray] = None
        # Deferred-consolidation buffers: logical size, pending arrival
        # blocks per endpoint (aliased when directed, like the CSRs).
        self._n = int(csr_u.shape[0])
        self._pend_u: list = []
        self._pend_v: list = self._pend_u if csr_v is csr_u else []

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        instance: Instance,
        powers: np.ndarray,
        epsilon: Optional[float] = None,
        tile_rows: int = DEFAULT_TILE_ROWS,
    ) -> "SparseBackend":
        """Tiled CSR build for ``(instance, powers)``.

        Gain values are computed with the exact elementwise operations
        of the dense builders (:func:`directed_gain_matrix` /
        :func:`bidirectional_gain_matrices`) applied to metric blocks,
        so every *stored* entry is bit-identical to its dense
        counterpart.
        """
        epsilon = default_config(sparse_epsilon=epsilon).sparse_epsilon
        powers = np.asarray(powers, dtype=float).reshape(-1)
        n = instance.n
        tile_rows = max(1, int(tile_rows))
        s, r = instance.senders, instance.receivers
        directed = instance.direction is Direction.DIRECTED
        all_cols = np.arange(n)

        def build_endpoint(endpoint_nodes: np.ndarray):
            csr, pruned, has_inf = _assemble_csr(
                instance,
                powers,
                endpoint_nodes,
                all_cols,
                all_cols,
                epsilon,
                tile_rows,
            )
            return csr, pruned, has_inf

        if directed:
            csr_u, pruned_u, has_inf = build_endpoint(r)
            csr_v, pruned_v = csr_u, pruned_u
        else:
            csr_u, pruned_u, inf_u = build_endpoint(s)
            csr_v, pruned_v, inf_v = build_endpoint(r)
            has_inf = inf_u or inf_v
        backend = cls(csr_u, csr_v, pruned_u, pruned_v, epsilon, has_inf)
        backend._instance = instance
        backend._powers = powers
        return backend

    def append_requests(self, instance: Instance, powers: np.ndarray) -> None:
        """Append the new requests' CSR rows and extend every existing
        row with the new columns, tile-by-tile.

        With ``epsilon = 0`` the kept set of each entry is independent
        of its row context (keep positive finite and ``inf``, drop exact
        zeros), so the grown CSR storage — data, indices, indptr and
        the transposed matrices, after consolidation — is
        **bit-identical** to a cold :meth:`build` of the grown pair.
        With ``epsilon > 0`` the appended block of each existing row is
        pruned *on its own* (its dropped mass, at most ``epsilon``
        times the block's finite mass, is added to the row's recorded
        bound): a cold rebuild would re-prune whole rows against their
        grown mass and may keep a different set, so grown and cold
        storages can differ — but the backend remains a conservative
        under-estimator with a true per-row pruned-mass upper bound,
        which is all certification needs.

        The new strips are buffered as a :class:`_PendingBlock` instead
        of being stacked into the base CSR immediately; consolidation
        (including the O(nnz) transposed-CSR rebuild that used to run
        on *every* arrival) is deferred until the pending rows reach
        the base size — see :meth:`flush_growth` — so a stream of
        arrivals pays amortized ``O(n)`` per arrival, not ``O(nnz)``.
        """
        if self._instance is None:
            raise ValueError(
                "this SparseBackend was constructed from raw matrices; "
                "only backends built via SparseBackend.build(...) can grow"
            )
        validate_growth(self._instance, self._powers, instance, powers)
        powers = np.asarray(powers, dtype=float).reshape(-1)
        n_old, n_new = self.n, instance.n
        if n_new == n_old:
            self._instance, self._powers = instance, powers
            return
        epsilon = self.epsilon
        tile = max(1, int(self.tile_rows))
        old_idx = np.arange(n_old)
        new_idx = np.arange(n_old, n_new)
        all_idx = np.arange(n_new)

        def extend_endpoint(pend, pruned_old, endpoint_nodes):
            right, extra_pruned, inf_right = _assemble_csr(
                instance, powers, endpoint_nodes, old_idx, new_idx,
                epsilon, tile,
            )
            bottom, pruned_new, inf_bottom = _assemble_csr(
                instance, powers, endpoint_nodes, new_idx, all_idx,
                epsilon, tile,
            )
            pend.append(_PendingBlock(n_old, right, bottom))
            pruned = np.concatenate(
                [np.asarray(pruned_old) + extra_pruned, pruned_new]
            )
            pruned.setflags(write=False)
            return pruned, inf_right or inf_bottom

        if instance.direction is Direction.DIRECTED:
            pruned_u, new_inf = extend_endpoint(
                self._pend_u, self._pruned_u, instance.receivers
            )
            pruned_v = pruned_u
        else:
            pruned_u, inf_u = extend_endpoint(
                self._pend_u, self._pruned_u, instance.senders
            )
            pruned_v, inf_v = extend_endpoint(
                self._pend_v, self._pruned_v, instance.receivers
            )
            new_inf = inf_u or inf_v
        self._pruned_u, self._pruned_v = pruned_u, pruned_v
        if new_inf:
            self._has_inf = True
        self._n = n_new
        self._instance, self._powers = instance, powers
        # Doubling rule: consolidate once the buffered rows match the
        # base size, so total consolidation work over any arrival
        # stream is a geometric series (O(nnz) overall, O(log n)
        # rebuilds) instead of O(nnz) per arrival.
        base_n = int(self._csr_u.shape[0])
        if self._n - base_n >= max(base_n, 1):
            self.flush_growth()

    def flush_growth(self) -> None:
        """Fold every pending arrival block into the base CSR (and
        rebuild the transposed matrices once).

        Folding in arrival order reproduces exactly the storage the
        historical rebuild-per-arrival path produced, so calling this
        after any prefix of appends is bit-identical to having
        consolidated eagerly — block-structured queries simply call it
        on demand.  Idempotent; a no-op when nothing is pending.
        """
        if not self._pend_u:
            return

        def fold(csr, pend):
            for blk in pend:
                top = _sp.hstack([csr, blk.right], format="csr")
                csr = _sp.vstack([top, blk.bottom], format="csr")
            csr.sort_indices()
            return csr

        csr_u = fold(self._csr_u, self._pend_u)
        if self._csr_v is self._csr_u:
            csr_v = csr_u
        else:
            csr_v = fold(self._csr_v, self._pend_v)
        self._csr_u, self._csr_v = csr_u, csr_v
        self._csr_ut = csr_u.T.tocsr()
        self._csr_vt = self._csr_ut if csr_v is csr_u else csr_v.T.tocsr()
        self._pend_u.clear()
        if self._pend_v is not self._pend_u:
            self._pend_v.clear()

    # -- protocol ------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def directed(self) -> bool:
        return self._csr_v is self._csr_u

    @property
    def has_infinite_gains(self) -> bool:
        return self._has_inf

    @property
    def pruned_mass_u(self) -> np.ndarray:
        return self._pruned_u

    @property
    def pruned_mass_v(self) -> np.ndarray:
        return self._pruned_v

    @staticmethod
    def _expand_row(csr: "_sp.csr_matrix", i: int) -> np.ndarray:
        out = np.zeros(csr.shape[1])
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        out[csr.indices[lo:hi]] = csr.data[lo:hi]
        return out

    def _grown_row(self, base, pend, i: int) -> np.ndarray:
        """Row ``i`` of base + pending, without consolidating.

        Every stored entry lands at the same value consolidation would
        place (pure scatter of the identical stored floats), so the hot
        single-row path of live admission never forces a flush.
        """
        out = np.zeros(self._n)
        base_n = base.shape[0]
        if i < base_n:
            lo, hi = base.indptr[i], base.indptr[i + 1]
            out[base.indices[lo:hi]] = base.data[lo:hi]
        for blk in pend:
            if i < blk.start:
                # The arrivals' columns at a pre-existing row.
                lo, hi = blk.right.indptr[i], blk.right.indptr[i + 1]
                out[blk.start + blk.right.indices[lo:hi]] = (
                    blk.right.data[lo:hi]
                )
            elif i < blk.start + blk.k:
                # The arrival's own full row (covers all earlier cols).
                r = i - blk.start
                lo, hi = blk.bottom.indptr[r], blk.bottom.indptr[r + 1]
                out[blk.bottom.indices[lo:hi]] = blk.bottom.data[lo:hi]
        return out

    def _grown_col(self, base_t, pend, j: int) -> np.ndarray:
        """Column ``j`` of base + pending (see :meth:`_grown_row`)."""
        out = np.zeros(self._n)
        base_n = base_t.shape[0]
        if j < base_n:
            lo, hi = base_t.indptr[j], base_t.indptr[j + 1]
            out[base_t.indices[lo:hi]] = base_t.data[lo:hi]
        for blk in pend:
            if blk.start <= j < blk.start + blk.k:
                # What arrival j induces at every pre-existing request.
                r = j - blk.start
                lo, hi = blk.right_t.indptr[r], blk.right_t.indptr[r + 1]
                out[blk.right_t.indices[lo:hi]] = blk.right_t.data[lo:hi]
            if blk.start + blk.k > j:
                # These arrivals' rows cover column j.
                for r in range(blk.bottom.shape[0]):
                    out[blk.start + r] = _csr_cell(blk.bottom, r, j)
        return out

    def col_u(self, j: int) -> np.ndarray:
        if self._pend_u:
            return self._grown_col(self._csr_ut, self._pend_u, int(j))
        return self._expand_row(self._csr_ut, int(j))

    def col_v(self, j: int) -> np.ndarray:
        if self._pend_v:
            return self._grown_col(self._csr_vt, self._pend_v, int(j))
        return self._expand_row(self._csr_vt, int(j))

    def row_u(self, i: int) -> np.ndarray:
        if self._pend_u:
            return self._grown_row(self._csr_u, self._pend_u, int(i))
        return self._expand_row(self._csr_u, int(i))

    def row_v(self, i: int) -> np.ndarray:
        if self._pend_v:
            return self._grown_row(self._csr_v, self._pend_v, int(i))
        return self._expand_row(self._csr_v, int(i))

    def gather_cols_u(self, members: np.ndarray) -> np.ndarray:
        self.flush_growth()
        return self._csr_ut[members].toarray().T

    def gather_cols_v(self, members: np.ndarray) -> np.ndarray:
        self.flush_growth()
        return self._csr_vt[members].toarray().T

    def block_u(self, idx: np.ndarray) -> np.ndarray:
        self.flush_growth()
        return self._csr_u[idx][:, idx].toarray()

    def block_v(self, idx: np.ndarray) -> np.ndarray:
        self.flush_growth()
        return self._csr_v[idx][:, idx].toarray()

    def _cross_block(self, which_u: bool, rows, cols) -> np.ndarray:
        base, pend = (
            (self._csr_u, self._pend_u)
            if which_u
            else (self._csr_v, self._pend_v)
        )
        if pend:
            rows = np.asarray(rows, dtype=int)
            if rows.size > 64:
                # Bulk query (peel init, class analysis): consolidate
                # once instead of scattering thousands of rows.
                self.flush_growth()
            else:
                # Admission-path query (a handful of arrival rows):
                # assemble from base + pending.  Pure gather of the
                # same stored values, so bit-identical to flushing.
                cols = np.asarray(cols, dtype=int)
                out = np.empty((rows.size, cols.size))
                for pos, i in enumerate(rows):
                    out[pos] = self._grown_row(base, pend, int(i))[cols]
                return out
        csr = self._csr_u if which_u else self._csr_v
        return csr[rows][:, cols].toarray()

    def cross_block_u(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._cross_block(True, rows, cols)

    def cross_block_v(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._cross_block(False, rows, cols)

    def _csr_row_sums(
        self, csr: "_sp.csr_matrix", rows, cols
    ) -> np.ndarray:
        """CSR-native :meth:`~GainBackend.row_sums_u` workhorse: slice
        the stored rows tile-by-tile, expand each tile to a dense
        scratch and reduce it with the same per-row pairwise sums as
        the dense backend — bit-identical values, ``O(tile * k)`` peak
        scratch, never a ``(k, k)`` block."""
        rows = np.asarray(rows, dtype=int)
        cols = rows if cols is None else np.asarray(cols, dtype=int)
        out = np.empty(rows.size)
        tile = max(1, int(self.tile_rows))
        for lo in range(0, rows.size, tile):
            hi = min(lo + tile, rows.size)
            out[lo:hi] = csr[rows[lo:hi]][:, cols].toarray().sum(axis=1)
        return out

    def row_sums_u(
        self, rows: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        self.flush_growth()
        return self._csr_row_sums(self._csr_u, rows, cols)

    def row_sums_v(
        self, rows: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        self.flush_growth()
        return self._csr_row_sums(self._csr_v, rows, cols)

    def _class_sum(
        self, csr: "_sp.csr_matrix", colors: Optional[np.ndarray]
    ) -> np.ndarray:
        """Tiled same-color row sums: expand ``tile_rows`` rows to a
        dense scratch and reduce exactly like the dense
        :func:`~repro.core.interference._class_sum` (per-row pairwise
        sums over length-``n`` buffers, so values are bit-identical to
        running the dense code on the pruned matrix)."""
        n = self.n
        if colors is not None:
            colors = np.asarray(colors)
        out = np.empty(n)
        tile = max(1, int(self.tile_rows))
        for lo in range(0, n, tile):
            hi = min(lo + tile, n)
            dense_tile = csr[lo:hi].toarray()
            if colors is None:
                out[lo:hi] = dense_tile.sum(axis=1)
                continue
            same = colors[lo:hi, None] == colors[None, :]
            same[np.arange(hi - lo), np.arange(lo, hi)] = False
            out[lo:hi] = np.where(same, dense_tile, 0.0).sum(axis=1)
        return out

    def class_sum_u(self, colors: Optional[np.ndarray]) -> np.ndarray:
        self.flush_growth()
        return self._class_sum(self._csr_u, colors)

    def class_sum_v(self, colors: Optional[np.ndarray]) -> np.ndarray:
        self.flush_growth()
        return self._class_sum(self._csr_v, colors)

    def dense_u(self) -> np.ndarray:
        self.flush_growth()
        return self._csr_u.toarray()

    def dense_v(self) -> np.ndarray:
        self.flush_growth()
        return self._csr_v.toarray()

    def dense_ut(self) -> np.ndarray:
        self.flush_growth()
        return self._csr_ut.toarray()

    def dense_vt(self) -> np.ndarray:
        self.flush_growth()
        return self._csr_vt.toarray()

    @property
    def nnz(self) -> int:
        count = int(self._csr_u.nnz) + sum(blk.nnz for blk in self._pend_u)
        if self._csr_v is not self._csr_u:
            count += int(self._csr_v.nnz) + sum(
                blk.nnz for blk in self._pend_v
            )
        return count

    @property
    def nbytes(self) -> int:
        total = 0
        seen = set()
        for csr in (self._csr_u, self._csr_v, self._csr_ut, self._csr_vt):
            if id(csr) in seen:
                continue
            seen.add(id(csr))
            total += csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        for pend in (self._pend_u, self._pend_v):
            for blk in pend:
                total += blk.nbytes
            if self._pend_v is self._pend_u:
                break
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseBackend(n={self.n}, directed={self.directed}, "
            f"epsilon={self.epsilon}, density={self.density:.4f})"
        )


def build_backend(
    instance: Instance,
    powers: np.ndarray,
    config: Optional[BackendConfig] = None,
) -> GainBackend:
    """Construct the gain backend *config* (default:
    :func:`default_config`) selects for ``(instance, powers)``."""
    config = default_config() if config is None else config
    if config.backend == "sparse":
        return SparseBackend.build(instance, powers, epsilon=config.sparse_epsilon)
    if config.backend == "sharded":
        # Lazy import: repro.distributed consumes this module's
        # primitives (_assemble_csr and friends), so the dependency
        # must point that way at import time.
        from repro.distributed import ShardedBackend

        return ShardedBackend.build(
            instance,
            powers,
            epsilon=config.sparse_epsilon,
            workers=config.workers,
            executor=config.shard_executor,
        )
    return DenseBackend.build(
        instance, powers, namespace=config.array_namespace, device=config.device
    )
