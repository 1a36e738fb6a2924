"""Pluggable gain-matrix backends: dense, pruned sparse and sharded.

Everything the interference engine computes reduces to a handful of
access patterns on the gain matrices ``G_u``/``G_v`` — single columns
(what one transmitter does to everyone), bulk column gathers (seeding a
class), square sub-blocks (LP sub-problems), cross blocks (pairwise
gains of a selection at new candidates), tiled sub-block row sums
(subset interference / peel initialization, without materializing the
block) and same-color row sums (validating a partition).
:class:`GainBackend` names exactly those primitives, and the engine
layers (:class:`repro.core.context.InterferenceContext`,
:mod:`repro.core.kernels`, the schedulers) consume gains **only**
through them.  Three
implementations:

* :class:`DenseBackend` — the materialized ``(n, n)`` arrays the engine
  has always used, built a band of rows at a time by the full-matrix
  builders of :mod:`repro.core.interference` (never from the metric's
  full matrix on coordinate-backed metrics).  Every primitive returns
  the exact expression the pre-backend code evaluated on those arrays,
  so the dense path is bit-identical to historical behaviour.  The
  arrays are numpy host arrays, shared read-only without a copy.
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

Every full pass that builds or copies a gain matrix (the dense build,
:func:`_assemble_csr` behind the sparse and sharded builds, the dense
backend's cached transposes) runs its row bands on one thread per CPU
through :func:`repro.core.tiles.map_row_tiles`; each output row depends
on its own row alone, so the arrays are bit for bit those of a serial
build.

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
(pruning budget, shard workers and executor).  The process default
is read once, at import, from the ``REPRO_BACKEND`` /
``REPRO_SPARSE_EPSILON`` / ``REPRO_SHARD_WORKERS`` /
``REPRO_SHARD_EXECUTOR`` environment variables (:meth:`BackendConfig.from_env`); :func:`default_config`
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
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse as _sp

from repro.core.instance import Direction, Instance
from repro.core.interference import (
    DEFAULT_TILE_ROWS,
    _class_sum,
    _gain_block,
    _gain_lines,
    bidirectional_gain_matrices,
    directed_gain_matrix,
)
from repro.core.tiles import map_row_tiles

__all__ = [
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


#: ``(field, label in errors, environment variable, validator)`` for
#: every validated :class:`BackendConfig` field.
_FIELDS = (
    ("backend", "backend", "REPRO_BACKEND", _choice(BACKENDS)),
    ("sparse_epsilon", "sparse epsilon", "REPRO_SPARSE_EPSILON", _epsilon),
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
    workers, shard_executor:
        Worker count and executor name (``"serial"``/``"process"``) of
        the sharded backend.
    """

    backend: str = "dense"
    sparse_epsilon: float = 0.0
    workers: int = 2
    shard_executor: str = "process"

    def __post_init__(self) -> None:
        for name, label, _, check in _FIELDS:
            object.__setattr__(self, name, check(label, getattr(self, name)))

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

        Overriding ``workers``/``shard_executor`` requires the sharded
        backend.
        """
        given = {k: v for k, v in overrides.items() if v is not None}
        config = replace(self, **given)
        if config.backend != "sharded" and (
            "workers" in given or "shard_executor" in given
        ):
            raise ValueError(
                "workers=/shard_executor= require backend='sharded' "
                f"(got backend={config.backend!r})"
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


def _frozen(x: np.ndarray) -> np.ndarray:
    """Mark *x* read-only and return it."""
    x.setflags(write=False)
    return x


def _transposed(gains: np.ndarray) -> np.ndarray:
    """A fresh C-contiguous copy of ``gains.T``.  Each
    :func:`repro.core.tiles.map_row_tiles` task copies one row band of
    the output (a column band of *gains*) in 64-column blocks, small
    enough that a block's reads and writes stay in cache; one
    ``np.ascontiguousarray(gains.T)`` pass strides across every row of
    *gains* for each output row and runs about 3× slower."""
    n = gains.shape[0]
    out = np.empty((gains.shape[1], n))

    def copy(lo: int, hi: int) -> None:
        for c in range(0, n, 64):
            out[lo:hi, c : c + 64] = gains[c : c + 64, lo:hi].T

    map_row_tiles(copy, out.shape[0], n, DEFAULT_TILE_ROWS)
    return out


def _adopt(host: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(storage, public)`` for a freshly built matrix: *host* itself,
    frozen, is what callers see, and a writable view of it taken first
    is the storage in-place edits write through."""
    return host[...], _frozen(host)


def validate_growth(
    old_instance: Instance,
    old_powers: np.ndarray,
    new_instance: Instance,
    new_powers: np.ndarray,
    replaced: Optional[Sequence[int]] = None,
) -> None:
    """Check that ``(new_instance, new_powers)`` edits the old pair
    *in place*: same metric object, variant and alpha; the existing
    requests (and their powers, bitwise) unchanged as a prefix, except
    at the *replaced* indices; any new requests appended.  When
    *replaced* is given it must name every appended index too (see
    :meth:`GainBackend.replace_requests`, which writes exactly those
    slots).  Raises :class:`ValueError` naming the first violated
    condition — the contract every :meth:`GainBackend.replace_requests`
    (and the context/kernel updates built on it) relies on for
    bit-identity with a cold rebuild.
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
    n_old, n_new = old_instance.n, new_instance.n
    if n_new < n_old:
        raise ValueError(
            f"growth cannot shrink the instance "
            f"(n={old_instance.n} -> n={new_instance.n})"
        )
    if replaced is not None:
        # A few slots: Python beats a handful of numpy calls.
        replaced = sorted(set(int(slot) for slot in np.ravel(replaced)))
        if replaced and not (0 <= replaced[0] and replaced[-1] < n_new):
            raise ValueError(
                f"replaced indices must lie in 0..{n_new - 1}, got "
                f"{replaced[0]}..{replaced[-1]}"
            )
        appended = sum(1 for slot in replaced if slot >= n_old)
        if appended != n_new - n_old:
            raise ValueError(
                f"replaced indices must name every appended request "
                f"({n_old}..{n_new - 1})"
            )
        replaced = replaced[: len(replaced) - appended]
    # One elementwise pass per array over the prefix; the replaced
    # slots may differ.
    changed = (new_instance.senders[:n_old] != old_instance.senders) | (
        new_instance.receivers[:n_old] != old_instance.receivers
    )
    if replaced:
        changed[replaced] = False
    if np.count_nonzero(changed):
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
    changed = new_powers[:n_old] != np.asarray(old_powers, dtype=float)
    if replaced:
        changed[replaced] = False
    if np.count_nonzero(changed):
        raise ValueError(
            "growth must keep the powers of existing requests bit-identical "
            "(oblivious assignments are elementwise, so re-resolving them "
            "preserves the prefix; explicit vectors must be appended to)"
        )


def _distinct_slots(slots: Sequence[int]) -> np.ndarray:
    """*slots* as a sorted array of distinct indices (arrivals edit one
    or a few slots, where a set beats :func:`numpy.unique`)."""
    if isinstance(slots, np.ndarray):
        slots = slots.tolist()
    return np.array(sorted(set(map(int, slots))), dtype=int)


def _line_infs(lines, slots) -> int:
    """Infinite entries among the gain rows and columns ``lines`` of
    *slots*, each ``(slots, slots)`` entry counted once."""
    count = 0
    for row, col in lines:
        count += int(np.count_nonzero(np.isinf(row)))
        count += int(np.count_nonzero(np.isinf(col)))
        if len(slots) > 1:
            count -= int(np.count_nonzero(np.isinf(col[slots])))
    return count


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

    #: Whether :meth:`replace_requests` edits this backend in place.
    edits_in_place: bool = False

    def reset_flip_risk(self) -> None:
        """Reset the at-risk-comparison counter."""
        self.flip_risk_events = 0

    # -- edits ---------------------------------------------------------

    def replace_requests(
        self, slots: Sequence[int], instance: Instance, powers: np.ndarray
    ) -> None:
        """Write the requests at *slots* from ``(instance, powers)`` in
        place; every other request must be unchanged (see
        :func:`validate_growth` with ``replaced=slots``).  Slots at or
        past the current ``n`` are appended requests and must name
        every index up to ``instance.n``: storage first grows to
        ``instance.n``, then each appended slot is written exactly like
        a reused one.  Powers are oblivious, so only the slots' gain
        rows and columns change: each comes from :func:`_gain_lines`,
        ``O(n)`` entries per slot and endpoint, and with
        ``epsilon = 0`` the storage is **bit-identical** to a cold
        build of the edited pair.

        Backends that cannot edit in place (:attr:`edits_in_place` is
        false) raise :class:`NotImplementedError`.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support in-place edits"
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
    """The materialized ``(n, n)`` gain arrays (bit-exact reference).

    The storage *is* the host arrays the engine has always used:
    :attr:`gains_u`/:attr:`gains_v`, the cached contiguous transposes
    :attr:`gains_ut`/:attr:`gains_vt` and the worst-endpoint
    :attr:`worst_gains`, read-only and shared without a copy by the
    dense-only fast paths (affectance analyses).  Each public array is
    a read-only view of a writable owner buffer, which in-place edits
    write through.  Rows, columns and the full matrices come back as
    read-only views of the storage; blocks and gathers as fresh arrays.

    Parameters
    ----------
    gains_u, gains_v:
        The gain matrices (``gains_v is gains_u`` in the directed
        variant).
    """

    name = "dense"
    edits_in_place = True

    def __init__(self, gains_u, gains_v):
        self.flip_risk_events = 0
        self._gains_u = gains_u
        self._gains_v = gains_v
        self._gains_t: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._worst = None
        # Infinite entries across the stored matrices (counted once,
        # lazily; then maintained by edits).
        self._inf_count: Optional[int] = None
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
    def build(cls, instance: Instance, powers: np.ndarray) -> "DenseBackend":
        """Build from the shared tiled gain-matrix builders (the exact
        arrays the pre-backend engine cached)."""
        powers = np.asarray(powers, dtype=float).reshape(-1)
        host_u, host_v = _full_gain_matrices(instance, powers)
        backend = cls(None, None)
        backend._buf_u, backend._gains_u = _adopt(host_u)
        if host_v is host_u:
            backend._buf_v, backend._gains_v = backend._buf_u, backend._gains_u
        else:
            backend._buf_v, backend._gains_v = _adopt(host_v)
        backend._instance = instance
        backend._powers = powers
        return backend

    def __getstate__(self) -> dict:
        # The storage owners do not pickle: the public views pickle as
        # plain (n, n) arrays, and a later edit re-derives owners from
        # them (transposes are re-materialized on demand).
        state = dict(self.__dict__)
        for key in ("_buf_u", "_buf_v", "_buf_ut", "_buf_vt", "_gains_t"):
            state[key] = None
        return state

    def __setstate__(self, state: dict) -> None:
        # numpy does not pickle the read-only flag: freeze the public
        # arrays again (the transposes are rebuilt frozen on demand).
        self.__dict__.update(state)
        for array in (self._gains_u, self._gains_v, self._worst):
            if array is not None:
                array.setflags(write=False)

    # -- edits ---------------------------------------------------------

    def _bind(self, n: int) -> None:
        """Point the public arrays at the leading ``(n, n)`` block of
        the (reallocated) storage, as read-only views."""
        self._gains_u = _frozen(self._buf_u[:n, :n])
        self._gains_v = (
            self._gains_u
            if self._buf_v is self._buf_u
            else _frozen(self._buf_v[:n, :n])
        )
        if self._gains_t is not None:
            gains_ut = _frozen(self._buf_ut[:n, :n])
            self._gains_t = (
                (gains_ut, gains_ut)
                if self._buf_vt is self._buf_ut
                else (gains_ut, _frozen(self._buf_vt[:n, :n]))
            )

    def _ensure_capacity(self, n_new: int) -> None:
        """Guarantee the backing buffers, and the materialized
        transposes when cached, hold at least ``n_new`` rows and
        columns.  A buffer that must grow gains a quarter of the
        current size (or exactly what ``n_new`` needs, if more): a
        stream of single-request appends still reallocates
        ``O(log n)`` times (amortized O(1) copied entries per appended
        entry), while a churning session, which holds at most a couple
        of rows past its active count, never pays for ``2n``.  An
        unpickled backend has no storage; an in-place edit copies its
        arrays into storage of exactly their size."""
        n_old = self.n
        cap = max(n_new, n_old + n_old // 4) if n_new > n_old else n_new

        def grown(buf, public):
            if buf is not None and buf.shape[0] >= n_new:
                return buf
            # Full writes every page now; zeros would leave them to fault
            # in on the admission path, a huge page per 64 new rows.
            out = np.full((cap, cap), 0.0)
            out[:n_old, :n_old] = public
            return out

        self._buf_u = grown(self._buf_u, self._gains_u)
        self._buf_v = (
            self._buf_u if self.directed else grown(self._buf_v, self._gains_v)
        )
        if self._gains_t is not None:
            gains_ut, gains_vt = self._gains_t
            self._buf_ut = grown(self._buf_ut, gains_ut)
            self._buf_vt = (
                self._buf_ut
                if gains_vt is gains_ut
                else grown(self._buf_vt, gains_vt)
            )

    def replace_requests(
        self, slots: Sequence[int], instance: Instance, powers: np.ndarray
    ) -> None:
        if self._instance is None:
            raise ValueError(
                "this DenseBackend was constructed from raw arrays; only "
                "backends built via DenseBackend.build(...) can be edited "
                "or grow"
            )
        slots = _distinct_slots(slots)
        validate_growth(
            self._instance, self._powers, instance, powers, replaced=slots
        )
        powers = np.asarray(powers, dtype=float).reshape(-1)
        n = instance.n
        if self._buf_u is None or n > self.n:
            # Growth keeps the cached transposes: dropping them would
            # make the next col_u/col_v re-transpose the whole O(n^2)
            # matrix, turning the O(n) admission path quadratic.
            self._ensure_capacity(n)
            self._bind(n)
            self._zero_mass = None
        slots = slots.tolist()
        targets = _host_gain_targets(instance)
        bufs = ((self._buf_u, self._buf_ut), (self._buf_v, self._buf_vt))
        for (buf, buf_t), nodes in zip(bufs[: len(targets)], targets):
            lines = [_gain_lines(instance, powers, nodes, s) for s in slots]
            if self._inf_count is not None:
                self._inf_count += _line_infs(lines, slots)
                if self._inf_count > 0:
                    self._inf_count -= _line_infs(
                        [(buf[s, :n], buf[:n, s]) for s in slots], slots
                    )
            for s, (row, col) in zip(slots, lines):
                buf[s, :n] = row
                buf[:n, s] = col
                if buf_t is not None:
                    buf_t[s, :n] = col
                    buf_t[:n, s] = row
        self._worst = None
        self._instance, self._powers = instance, powers

    # -- the arrays ----------------------------------------------------

    @property
    def gains_u(self) -> np.ndarray:
        """Gain matrix at endpoint ``u`` (read-only)."""
        return self._gains_u

    @property
    def gains_v(self) -> np.ndarray:
        """Gain matrix at endpoint ``v`` (aliases :attr:`gains_u` in
        the directed variant; read-only)."""
        return self._gains_v

    def _transposes(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._gains_t is None:
            self._buf_ut, gains_ut = _adopt(_transposed(self._gains_u))
            if self.directed:
                self._buf_vt, gains_vt = self._buf_ut, gains_ut
            else:
                self._buf_vt, gains_vt = _adopt(_transposed(self._gains_v))
            self._gains_t = (gains_ut, gains_vt)
        return self._gains_t

    @property
    def gains_ut(self) -> np.ndarray:
        """Contiguous transpose of :attr:`gains_u` (read-only, cached);
        ``gains_ut[j]`` is request ``j``'s gain column laid out
        contiguously."""
        return self._transposes()[0]

    @property
    def gains_vt(self) -> np.ndarray:
        """Contiguous transpose of :attr:`gains_v` (read-only, cached;
        aliases :attr:`gains_ut` in the directed variant)."""
        return self._transposes()[1]

    @property
    def worst_gains(self) -> np.ndarray:
        """Worst-endpoint gains ``max(G_u, G_v)`` (read-only, cached)."""
        if self._worst is None:
            if self.directed:
                self._worst = self._gains_u
            else:
                self._worst = _frozen(np.maximum(self._gains_u, self._gains_v))
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
        if self._inf_count is None:
            self._inf_count = sum(
                int(np.count_nonzero(np.isinf(g)))
                for g in (
                    (self._gains_u,)
                    if self.directed
                    else (self._gains_u, self._gains_v)
                )
            )
        return self._inf_count > 0

    @property
    def pruned_mass_u(self) -> np.ndarray:
        if self._zero_mass is None:
            self._zero_mass = _frozen(np.zeros(self.n))
        return self._zero_mass

    pruned_mass_v = pruned_mass_u

    @property
    def is_lossless(self) -> bool:
        return True

    def col_u(self, j: int) -> np.ndarray:
        return self.gains_ut[int(j), :]

    def col_v(self, j: int) -> np.ndarray:
        return self.gains_vt[int(j), :]

    def row_u(self, i: int) -> np.ndarray:
        return self._gains_u[int(i), :]

    def row_v(self, i: int) -> np.ndarray:
        return self._gains_v[int(i), :]

    @staticmethod
    def _gather_cols(gains_t, members) -> np.ndarray:
        # Taking rows of the cached transpose copies contiguous memory
        # (3-20x faster than a strided column gather at n=2048), and
        # the transposed view has the (n, k) layout of ``G[:, members]``,
        # so the kernels' row reductions sum in the same order.
        return np.take(gains_t, np.asarray(members, dtype=np.int64), axis=0).T

    def gather_cols_u(self, members: np.ndarray) -> np.ndarray:
        return self._gather_cols(self.gains_ut, members)

    def gather_cols_v(self, members: np.ndarray) -> np.ndarray:
        return self._gather_cols(self.gains_vt, members)

    def block_u(self, idx: np.ndarray) -> np.ndarray:
        return self._gains_u[np.ix_(idx, idx)]

    def block_v(self, idx: np.ndarray) -> np.ndarray:
        return self._gains_v[np.ix_(idx, idx)]

    def cross_block_u(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._gains_u[np.ix_(rows, cols)]

    def cross_block_v(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._gains_v[np.ix_(rows, cols)]

    def class_sum_u(self, colors: Optional[np.ndarray]) -> np.ndarray:
        return _class_sum(self._gains_u, colors)

    def class_sum_v(self, colors: Optional[np.ndarray]) -> np.ndarray:
        return _class_sum(self._gains_v, colors)

    def dense_u(self) -> np.ndarray:
        return self._gains_u

    def dense_v(self) -> np.ndarray:
        return self._gains_v

    def dense_ut(self) -> np.ndarray:
        return self.gains_ut

    def dense_vt(self) -> np.ndarray:
        return self.gains_vt

    def dense_worst(self) -> np.ndarray:
        return self.worst_gains

    @property
    def nnz(self) -> int:
        count = int(np.count_nonzero(self._gains_u))
        if not self.directed:
            count += int(np.count_nonzero(self._gains_v))
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
        return f"DenseBackend(n={self.n}, directed={self.directed})"


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

    The cut comes from one value sort per tile (``np.sort``, not
    ``np.argsort``): a row drops every entry at or below its
    ``drop_count``-th smallest value.  Only a row where equal values
    straddle that cut needs a permutation; it drops its first
    ``drop_count`` entries in ``np.argsort`` order of the row.  Ties at
    the cut therefore keep argsort's order: the mask and the bound are
    those of a row-wise argsort of the whole tile.
    """
    finite = np.isfinite(tile)
    eligible = finite & (tile > 0)
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
    # dropped mass.  A finite gain past float32's range casts to inf and
    # is kept, like a shared node's.
    with np.errstate(over="ignore"):
        vals = tile.astype(np.float32)
    np.copyto(vals, np.float32(np.inf), where=~eligible)
    svals = np.sort(vals, axis=1)
    sfinite = np.isfinite(svals)
    with np.errstate(over="ignore"):
        csum = np.cumsum(np.where(sfinite, svals, np.float32(0.0)), axis=1)
    # Keep the budget slightly conservative so float32 rounding cannot
    # push the dropped mass past epsilon times the true row mass.  A row
    # whose finite mass overflows float32 has no budget to measure: it
    # drops nothing (a budget below every running sum) and records 0.
    total = csum[:, -1]
    budget = np.where(
        np.isfinite(total),
        np.float32(epsilon * (1.0 - 1e-3)) * total,
        np.float32(-1.0),
    )
    drop_count = np.count_nonzero(sfinite & (csum <= budget[:, None]), axis=1)
    row_ids = np.arange(tile.shape[0])
    last = np.maximum(drop_count - 1, 0)
    dropping = drop_count > 0
    pruned = np.where(dropping, csum[row_ids, last].astype(float), 0.0)
    # Widen the recorded bound past the sequential-float32-cumsum
    # worst case (~n * eps32 relative), plus an absolute term covering
    # float64 values that underflow to 0 in float32 (each < 1.2e-38),
    # so it upper-bounds the exact float64 dropped mass.
    width = tile.shape[1]
    n_cols = np.float64(width)
    pruned = pruned * (1.0 + n_cols * 1.2e-7 + 1e-9) + np.where(
        dropping, n_cols * 1.2e-38, 0.0
    )
    # Each dropping row drops the entries at or below its cut value
    # (ineligible entries are +inf, never below a finite cut).
    cut = np.where(dropping, svals[row_ids, last], -np.inf)
    drop = vals <= cut[:, None]
    # A tie straddling the cut (the next sorted value equals it):
    # argsort order decides which of the equal values drop.
    following = svals[row_ids, np.minimum(drop_count, width - 1)]
    straddle = dropping & (drop_count < width) & (following == cut)
    for i in np.flatnonzero(straddle):
        drop[i] = False
        drop[i, np.argsort(vals[i])[: drop_count[i]]] = True
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
    (column indices relative to *cols*), assembled from row bands of
    dense :func:`_gain_block` scratch (at most ``tile_rows`` rows each)
    that :func:`repro.core.tiles.map_row_tiles` prunes concurrently.
    The pruning rule is per row and the bands are concatenated in
    order, so the arrays do not depend on the split.

    Returns ``(csr, pruned_mass, has_infinite)`` with ``pruned_mass``
    the per-row bound from :func:`_prune_tile`.  Shared by the cold
    :meth:`SparseBackend.build` (full square block) and the sharded
    backend's block-row shards.
    """

    def band(lo: int, hi: int):
        gains = _gain_block(instance, powers, endpoint_nodes, rows[lo:hi], cols)
        keep, pruned = _prune_tile(gains, epsilon)
        kept_rows, kept_cols = np.nonzero(keep)
        kept = gains[kept_rows, kept_cols]
        row_nnz = np.bincount(kept_rows, minlength=hi - lo)
        return kept, kept_cols, row_nnz, pruned, not np.all(np.isfinite(kept))

    empty_shard = (np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                   np.zeros(0), False)
    parts = map_row_tiles(band, rows.size, cols.size, tile_rows) or [empty_shard]
    data, indices, row_nnz, pruned = (
        np.concatenate(arrays) for arrays in list(zip(*parts))[:4]
    )
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(row_nnz, out=indptr[1:])
    csr = _sp.csr_matrix((data, indices, indptr), shape=(rows.size, cols.size))
    return csr, pruned, any(part[4] for part in parts)


class _SlotEdits:
    """Slot writes of one sparse endpoint not yet written back.

    Holds the current gain row and column of every written slot as
    dense buffer rows — ``rows[p, :n]`` is ``G[slot, :]`` and
    ``cols[p, :n]`` is ``G[:, slot]`` for the slot at position ``p``
    (positions are assigned by :class:`SparseBackend`, in write
    order).  Reads overlay them on the base CSR and
    :meth:`SparseBackend.flush_growth` writes them back, so a stream of
    arrivals, into reused or appended slots alike, pays amortized
    ``O(n)`` each instead of an ``O(nnz)`` reassembly.
    """

    __slots__ = ("rows", "cols")

    def __init__(self):
        self.rows = np.zeros((0, 0))
        self.cols = np.zeros((0, 0))

    def reserve(self, count: int, width: int) -> None:
        """Room for *count* positions of *width* entries each; an
        exhausted height doubles and an exhausted width grows by a
        quarter, so reallocations stay geometric."""
        height, cap = self.rows.shape
        if count <= height and width <= cap:
            return
        if count > height:
            height = max(count, 2 * height)
        if width > cap:
            cap = max(width, cap + cap // 4)
        for name in ("rows", "cols"):
            old = getattr(self, name)
            new = np.zeros((height, cap))
            new[: old.shape[0], : old.shape[1]] = old
            setattr(self, name, new)

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.cols.nbytes


def _padded(csr: "_sp.csr_matrix", n: int) -> "_sp.csr_matrix":
    """*csr* as an ``(n, n)`` matrix whose extra rows and columns are
    empty: the stored arrays are shared, only ``indptr`` is extended."""
    tail = np.full(n - csr.shape[0], csr.indptr[-1], dtype=csr.indptr.dtype)
    return _sp.csr_matrix(
        (csr.data, csr.indices, np.concatenate([csr.indptr, tail])),
        shape=(n, n),
    )


class SparseBackend(GainBackend):
    """ε-pruned CSR gains with per-request dropped-mass bounds.

    Storage is one CSR matrix per endpoint plus its transposed CSR (for
    O(row) column access); both are assembled tile-by-tile through
    :meth:`repro.geometry.metric.Metric.distance_block`, so neither the
    gain nor the distance matrix is ever dense in memory.  See the
    module docstring for the pruning rule and the exactness /
    certification contract.  Each row's cut comes from one value sort
    per tile (:func:`_prune_tile`); ties at the cut keep argsort's
    order, so the kept set is that of a row-wise argsort.

    Request edits are *deferred*: :meth:`replace_requests` keeps the
    written slots' rows and columns in a :class:`_SlotEdits` overlay,
    read directly by the single-row/column queries of live admission,
    and writes it back into the CSR every ``nnz / 2n`` written slots,
    when a block-structured query needs it, or on an explicit
    :meth:`flush_growth` — so a churning or growing session pays
    amortized ``O(n)`` per arrival, not an ``O(nnz)`` reassembly.  An
    appended request is a slot like any other: the CSR is padded to
    the new ``n`` (empty rows and columns) and the slot goes through
    the overlay.
    """

    name = "sparse"
    edits_in_place = True

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
        # Infinite stored entries (None: count lazily on first query;
        # then maintained by edits).
        self._inf_count: Optional[int] = None if has_infinite else 0
        self.tile_rows = DEFAULT_TILE_ROWS
        # Growth state (populated by build(); raw-constructed backends
        # cannot grow because they do not know their instance).
        self._instance: Optional[Instance] = None
        self._powers: Optional[np.ndarray] = None
        self._n = int(csr_u.shape[0])
        # Deferred slot edits: slot -> overlay position (insertion
        # ordered, so ``_edit_slots[p]`` is the slot at position p),
        # and one overlay per endpoint (aliased when directed).
        self._edit_pos: Dict[int, int] = {}
        self._edit_slots = np.zeros(0, dtype=int)
        self._edits_u: Optional[_SlotEdits] = None
        self._edits_v: Optional[_SlotEdits] = None

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

    def replace_requests(
        self, slots: Sequence[int], instance: Instance, powers: np.ndarray
    ) -> None:
        """Recompute the slots' gain rows and columns into the
        :class:`_SlotEdits` overlay — ``O(n)`` per slot, plus an
        ``O(nnz)`` write-back whenever the overlay holds ``nnz / 2n``
        slots, so it never holds more than about one CSR's worth of
        entries.  Appended slots first pad the CSR to the new ``n``;
        a batch larger than the write-back budget is written in
        chunks, each filling the overlay up to the budget.

        With ``epsilon = 0`` the kept set of an entry does not depend on
        its row, so every query (and the storage after write-back) is
        **bit-identical** to a cold build of the edited pair.  With
        ``epsilon > 0`` the slots' own rows are pruned afresh (their
        recorded bound is the fresh one), and the slots' new columns at
        every other row are pruned as one block; that block's dropped
        mass is added to each row's bound, and nothing is ever
        subtracted, so the bound stays a true upper bound.
        """
        if self._instance is None:
            raise ValueError(
                "this SparseBackend was constructed from raw matrices; "
                "only backends built via SparseBackend.build(...) can be "
                "edited or grow"
            )
        slots = _distinct_slots(slots)
        validate_growth(
            self._instance, self._powers, instance, powers, replaced=slots
        )
        powers = np.asarray(powers, dtype=float).reshape(-1)
        if instance.n > self._n:
            self._grow(instance.n)
        n = self._n
        start = 0
        while start < slots.size:
            # Written back once the overlay's 2n entries per slot reach
            # the CSR's nnz: O(nnz) each time, amortized O(n) per slot.
            budget = -(-max(int(self._csr_u.nnz), n) // (2 * n))
            chunk = slots[start : start + max(1, budget - len(self._edit_pos))]
            self._write_slots(chunk, instance, powers)
            start += chunk.size
            if len(self._edit_pos) >= budget:
                self.flush_growth()
        self._instance, self._powers = instance, powers

    def _grow(self, n: int) -> None:
        """Pad the stored matrices to ``(n, n)``, the pruned-mass
        bounds with zeros and the overlay to width ``n``: the appended
        slots are then written like reused ones."""
        csr_u, csr_ut = _padded(self._csr_u, n), _padded(self._csr_ut, n)
        pruned_u = np.concatenate([self._pruned_u, np.zeros(n - self._n)])
        pruned_u.setflags(write=False)
        if self.directed:
            csr_v, csr_vt, pruned_v = csr_u, csr_ut, pruned_u
        else:
            csr_v, csr_vt = _padded(self._csr_v, n), _padded(self._csr_vt, n)
            pruned_v = np.concatenate([self._pruned_v, np.zeros(n - self._n)])
            pruned_v.setflags(write=False)
        self._csr_u, self._csr_v, self._csr_ut, self._csr_vt = (
            csr_u, csr_v, csr_ut, csr_vt
        )
        self._pruned_u, self._pruned_v = pruned_u, pruned_v
        self._n = n
        for edits in (self._edits_u, self._edits_v):
            if edits is not None:
                edits.reserve(len(self._edit_pos), n)

    def _write_slots(
        self, slots: np.ndarray, instance: Instance, powers: np.ndarray
    ) -> None:
        """Put the slots' exact (then pruned) gain lines of ``(instance,
        powers)`` into the overlay (see :meth:`replace_requests`)."""
        n = self._n
        slot_list = slots.tolist()
        directed = self.directed
        endpoints = [
            (self._pruned_u, self.row_u, self.col_u),
            (self._pruned_v, self.row_v, self.col_v),
        ][: 1 if directed else 2]
        if self.epsilon > 0:
            others = np.delete(np.arange(n), slots)
        fresh = []
        for (pruned, row_of, col_of), nodes in zip(
            endpoints, _host_gain_targets(instance)
        ):
            lines = [_gain_lines(instance, powers, nodes, s) for s in slot_list]
            if self._inf_count is not None:
                # Pruning keeps every infinite entry, so the exact
                # lines count the stored ones.
                self._inf_count += _line_infs(lines, slot_list)
                if self._inf_count > 0:
                    self._inf_count -= _line_infs(
                        [(row_of(s), col_of(s)) for s in slot_list], slot_list
                    )
            rows = np.stack([row for row, _ in lines])
            cols = np.stack([col for _, col in lines], axis=1)
            if self.epsilon > 0:
                keep, pruned_rows = _prune_tile(rows, self.epsilon)
                rows = np.where(keep, rows, 0.0)
                keep, pruned_cols = _prune_tile(cols[others], self.epsilon)
                cols[others] = np.where(keep, cols[others], 0.0)
                pruned = np.array(pruned, dtype=float)
                pruned[others] += pruned_cols
                pruned[slots] = pruned_rows
                pruned.setflags(write=False)
            # A lossless backend prunes nothing: its (zero) bounds stay.
            cols[slots] = rows[:, slots]
            fresh.append((rows, cols, pruned))

        # Slots written before (and not now) keep their overlay lines,
        # patched at the new slots; the new slots take (or reuse) a
        # position each.
        again = [self._edit_pos[s] for s in slot_list if s in self._edit_pos]
        kept_pos = np.delete(np.arange(len(self._edit_pos)), again)
        kept_slots = self._edit_slots[kept_pos]
        added = [s for s in slot_list if s not in self._edit_pos]
        for slot in added:
            self._edit_pos[slot] = len(self._edit_pos)
        if added:
            self._edit_slots = np.concatenate(
                [self._edit_slots, np.asarray(added, dtype=int)]
            )
        positions = np.array(
            [self._edit_pos[slot] for slot in slot_list], dtype=int
        )
        if self._edits_u is None:
            self._edits_u = _SlotEdits()
            self._edits_v = self._edits_u if directed else _SlotEdits()
        for edits, (rows, cols, _) in zip(
            (self._edits_u, self._edits_v), fresh
        ):
            edits.reserve(len(self._edit_pos), n)
            if kept_pos.size:
                edits.rows[np.ix_(kept_pos, slots)] = cols[kept_slots]
                edits.cols[np.ix_(kept_pos, slots)] = rows[:, kept_slots].T
            edits.rows[positions, :n] = rows
            edits.cols[positions, :n] = cols.T
        self._pruned_u = fresh[0][2]
        self._pruned_v = fresh[-1][2]

    def flush_growth(self) -> None:
        """Write the slot-edit overlay back into the base CSR (and
        rebuild the transposed matrices once).  The result holds the
        overlay's nonzero entries where the written rows and columns
        lie and the base entries elsewhere — with ``epsilon = 0``
        exactly what a cold build stores, so block-structured queries
        simply call this on demand.  Idempotent; a no-op when nothing
        is pending."""
        if not self._edit_pos:
            return
        n = self._n
        slots = self._edit_slots
        count = slots.size
        in_slots = np.zeros(n, dtype=bool)
        in_slots[slots] = True

        def fold(csr, edits):
            owner = np.repeat(np.arange(n), np.diff(csr.indptr))
            keep = ~(in_slots[owner] | in_slots[csr.indices])
            indptr = np.zeros(n + 1, dtype=csr.indptr.dtype)
            np.cumsum(np.bincount(owner[keep], minlength=n), out=indptr[1:])
            base = _sp.csr_matrix(
                (csr.data[keep], csr.indices[keep], indptr), shape=(n, n)
            )
            rows = edits.rows[:count, :n]
            cols = np.where(in_slots, 0.0, edits.cols[:count, :n])
            row_pos, row_col = np.nonzero(rows)
            col_pos, col_row = np.nonzero(cols)
            patch = _sp.csr_matrix(
                (
                    np.concatenate(
                        [rows[row_pos, row_col], cols[col_pos, col_row]]
                    ),
                    (
                        np.concatenate([slots[row_pos], col_row]),
                        np.concatenate([row_col, slots[col_pos]]),
                    ),
                ),
                shape=(n, n),
            )
            # Disjoint supports: the sum only merges the sorted rows.
            out = base + patch
            out.sort_indices()
            return out

        csr_u = fold(self._csr_u, self._edits_u)
        if self._csr_v is self._csr_u:
            csr_v = csr_u
        else:
            csr_v = fold(self._csr_v, self._edits_v)
        self._csr_u, self._csr_v = csr_u, csr_v
        self._csr_ut = csr_u.T.tocsr()
        self._csr_vt = self._csr_ut if csr_v is csr_u else csr_v.T.tocsr()
        self._edit_pos = {}
        self._edit_slots = np.zeros(0, dtype=int)
        self._edits_u = self._edits_v = None

    # -- protocol ------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def directed(self) -> bool:
        return self._csr_v is self._csr_u

    @property
    def has_infinite_gains(self) -> bool:
        if self._inf_count is None:
            self.flush_growth()
            self._inf_count = int(np.count_nonzero(np.isinf(self._csr_u.data)))
            if self._csr_v is not self._csr_u:
                self._inf_count += int(
                    np.count_nonzero(np.isinf(self._csr_v.data))
                )
        return self._inf_count > 0

    @property
    def pruned_mass_u(self) -> np.ndarray:
        return self._pruned_u

    @property
    def pruned_mass_v(self) -> np.ndarray:
        return self._pruned_v

    @property
    def is_lossless(self) -> bool:
        # epsilon = 0 drops exact zeros only: no bound to scan.
        return self.epsilon <= 0 or super().is_lossless

    @staticmethod
    def _expand_row(csr: "_sp.csr_matrix", i: int) -> np.ndarray:
        out = np.zeros(csr.shape[1])
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        out[csr.indices[lo:hi]] = csr.data[lo:hi]
        return out

    def _edited_line(self, csr, own, cross, i: int) -> np.ndarray:
        """Row ``i`` of *csr* under the slot-edit overlay: a written
        slot's own overlay line (*own*), else the stored row with the
        written slots' entries taken from the *cross* lines.  Called
        with the transposed CSR (and the overlay's columns as *own*)
        it yields columns.  Pure scatter of the stored floats, so the
        hot single-row path of live admission never forces a
        write-back."""
        pos = self._edit_pos.get(i)
        if pos is not None:
            return own[pos, : self._n].copy()
        out = self._expand_row(csr, i)
        out[self._edit_slots] = cross[: self._edit_slots.size, i]
        return out

    def col_u(self, j: int) -> np.ndarray:
        if self._edit_pos:
            edits = self._edits_u
            return self._edited_line(self._csr_ut, edits.cols, edits.rows, int(j))
        return self._expand_row(self._csr_ut, int(j))

    def col_v(self, j: int) -> np.ndarray:
        if self._edit_pos:
            edits = self._edits_v
            return self._edited_line(self._csr_vt, edits.cols, edits.rows, int(j))
        return self._expand_row(self._csr_vt, int(j))

    def row_u(self, i: int) -> np.ndarray:
        if self._edit_pos:
            edits = self._edits_u
            return self._edited_line(self._csr_u, edits.rows, edits.cols, int(i))
        return self._expand_row(self._csr_u, int(i))

    def row_v(self, i: int) -> np.ndarray:
        if self._edit_pos:
            edits = self._edits_v
            return self._edited_line(self._csr_v, edits.rows, edits.cols, int(i))
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
        if self._edit_pos:
            rows = np.asarray(rows, dtype=int)
            if rows.size > 64:
                # Bulk query (peel init, class analysis): consolidate
                # once instead of scattering thousands of rows.
                self.flush_growth()
            else:
                # Admission-path query (a handful of arrival rows):
                # assemble from base + overlay.  Pure gather of the
                # same stored values, so bit-identical to flushing.
                row_of = self.row_u if which_u else self.row_v
                cols = np.asarray(cols, dtype=int)
                out = np.empty((rows.size, cols.size))
                for pos, i in enumerate(rows):
                    out[pos] = row_of(int(i))[cols]
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
        self.flush_growth()
        count = int(self._csr_u.nnz)
        if self._csr_v is not self._csr_u:
            count += int(self._csr_v.nnz)
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
        for edits in {id(e): e for e in (self._edits_u, self._edits_v) if e}.values():
            total += edits.nbytes
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
    return DenseBackend.build(instance, powers)
