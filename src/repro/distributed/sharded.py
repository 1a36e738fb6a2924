"""Block-row sharded gain backend (owner-computes, halo-exchange).

No single worker can hold the O(n²) gain matrix at ``n = 131072``
(dense ``n = 4096`` already costs 2.65 GB), so the ``"sharded"``
backend splits each endpoint matrix into ``W`` contiguous **block
rows** ``G[lo_k:hi_k, :]``.  Worker ``k`` builds its block locally —
the same ε-pruned, tile-assembled CSR the sparse backend uses
(:func:`repro.core.gains._assemble_csr` over
:meth:`repro.geometry.metric.Metric.distance_block` tiles) — so the
full matrix is **never materialized anywhere**, not even sharded: each
worker stores only its pruned CSR strip plus the strip's transpose for
O(row) column slices.

Query protocol (the halo exchange)
----------------------------------

Every :class:`repro.core.gains.GainBackend` primitive decomposes into
per-shard work plus one merge in shard order:

* rows / row-blocks / row-sums — each global row lives in exactly one
  shard, so the parent partitions the row set by owner, every shard
  reduces its own rows, and results scatter back into caller order.
* columns — column ``j`` crosses every shard.  Admission asks for the
  same column up to four times (candidate check + placement, both
  endpoints), so columns are fetched a whole admission *window* at a
  time into a small parent-side cache.
  :meth:`ShardedBackend.prefetch_columns` posts the window's fetch
  without waiting; each shard answers with one packed CSR triple per
  endpoint (the window's rows of its transposed block), which the
  parent scatters into one dense ``(window, n)`` block when the
  columns are first needed.  The sharded first-fit driver posts the
  next window before it admits this one, so the shards slice and
  pickle while the parent admits (see
  :func:`repro.core.kernels.first_fit_colors_sharded`).
* ``class_sum`` — a local partial reduction per shard (the shard's
  rows against the global color vector) concatenated in shard order:
  an all-reduce whose merge step is a gather, because the reduction
  axis (columns) is fully local to each block row.

Bit-identity contract
---------------------

Per-row values never cross shard boundaries: each shard expands its
CSR rows to dense scratch and reduces them with the same NumPy per-row
pairwise sums as the single-process backends, and ε-pruning is a
per-row rule — so at any ``W`` the assembled results are
**bit-identical** to a :class:`repro.core.gains.SparseBackend` of the
same ``epsilon`` (and, with ``epsilon = 0``, to the dense reference).
The conformance suite asserts this for W ∈ {1, 2, 4, 8}.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.gains import (
    DEFAULT_TILE_ROWS,
    GainBackend,
    _assemble_csr,
    _host_gain_targets,
    default_config,
)
from repro.core.instance import Instance
from repro.runner.executors import (
    ShardExecutor,
    ShardPost,
    build_shard_executor,
    worker_identity,
)

__all__ = ["GainShard", "ShardedBackend", "shard_bounds"]


def shard_bounds(n: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous block-row ranges ``[lo, hi)`` for ``W`` workers.

    Sizes differ by at most one (the first ``n % W`` shards get the
    extra row); with ``W > n`` the tail shards are empty, which every
    query handles (their partial results are zero-length).
    """
    n = int(n)
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    base, extra = divmod(n, workers)
    bounds = []
    lo = 0
    for k in range(workers):
        hi = lo + base + (1 if k < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class GainShard:
    """Worker-side actor owning one block row of each endpoint matrix.

    Built deterministically from its payload (the instance, powers and
    row range), so a crashed worker's replacement — rebuilt by the
    executor from the same payload — holds bit-identical state.
    """

    def __init__(
        self,
        instance: Instance,
        powers: np.ndarray,
        lo: int,
        hi: int,
        epsilon: float,
        tile_rows: int = DEFAULT_TILE_ROWS,
    ):
        self.lo, self.hi = int(lo), int(hi)
        self.n = int(instance.n)
        powers = np.asarray(powers, dtype=float).reshape(-1)
        rows = np.arange(self.lo, self.hi)
        cols = np.arange(self.n)
        tile_rows = max(1, int(tile_rows))
        self.tile_rows = tile_rows
        targets = _host_gain_targets(instance)
        blocks, blocks_t, pruned, has_inf = [], [], [], False
        for nodes in targets:
            csr, pruned_rows, inf_here = _assemble_csr(
                instance, powers, nodes, rows, cols, epsilon, tile_rows
            )
            blocks.append(csr)
            blocks_t.append(csr.T.tocsr())
            pruned.append(pruned_rows)
            has_inf = has_inf or inf_here
        if len(blocks) == 1:  # directed: endpoint v aliases u
            blocks.append(blocks[0])
            blocks_t.append(blocks_t[0])
            pruned.append(pruned[0])
        self._blk = {"u": blocks[0], "v": blocks[1]}
        self._blk_t = {"u": blocks_t[0], "v": blocks_t[1]}
        self._pruned = {"u": pruned[0], "v": pruned[-1]}
        self._has_inf = bool(has_inf)
        self._directed = blocks[1] is blocks[0]

    # -- metadata ------------------------------------------------------

    def meta(self) -> Dict[str, Any]:
        nnz = int(self._blk["u"].nnz)
        nbytes = 0
        seen = set()
        for csr in (*self._blk.values(), *self._blk_t.values()):
            if id(csr) in seen:
                continue
            seen.add(id(csr))
            nbytes += (
                csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
            )
        if not self._directed:
            nnz += int(self._blk["v"].nnz)
        return {
            "lo": self.lo,
            "hi": self.hi,
            "nnz": nnz,
            "nbytes": nbytes,
            "has_inf": self._has_inf,
            "pruned_u": self._pruned["u"],
            "pruned_v": self._pruned["v"],
        }

    def identity(self) -> Dict[str, Any]:
        """Pid + peak RSS of the hosting process (serial executors
        report the parent, by construction)."""
        return worker_identity()

    # -- queries -------------------------------------------------------

    def columns(
        self, js: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The requested columns' slices ``G[lo:hi, js]``, packed: per
        endpoint, the CSR triple ``(indptr, indices, data)`` of rows
        *js* of the transposed block (row ``p`` holds column ``js[p]``'s
        local row indices and values).  Directed shards return the
        single endpoint once (the parent aliases)."""
        js = np.asarray(js, dtype=int)
        endpoints = ("u",) if self._directed else ("u", "v")
        picked = [self._blk_t[endpoint][js] for endpoint in endpoints]
        return [(csr.indptr, csr.indices, csr.data) for csr in picked]

    def expand_rows(
        self, local_rows: np.ndarray, cols: Optional[np.ndarray], endpoint: str
    ) -> np.ndarray:
        """Dense ``(len(local_rows), len(cols))`` gather of the shard's
        rows (*cols* ``None`` = all columns)."""
        blk = self._blk[endpoint]
        picked = blk[np.asarray(local_rows, dtype=int)]
        if cols is not None:
            picked = picked[:, np.asarray(cols, dtype=int)]
        return picked.toarray()

    def row_sums(
        self, local_rows: np.ndarray, cols: Optional[np.ndarray], endpoint: str
    ) -> np.ndarray:
        """Tiled per-row sums over *cols* for the shard's rows — dense
        scratch one tile at a time, reduced with the same per-row
        pairwise sums as every other backend (bit-identical)."""
        blk = self._blk[endpoint]
        local_rows = np.asarray(local_rows, dtype=int)
        if cols is not None:
            cols = np.asarray(cols, dtype=int)
        out = np.empty(local_rows.size)
        tile = self.tile_rows
        for lo in range(0, local_rows.size, tile):
            hi = min(lo + tile, local_rows.size)
            picked = blk[local_rows[lo:hi]]
            if cols is not None:
                picked = picked[:, cols]
            out[lo:hi] = picked.toarray().sum(axis=1)
        return out

    def class_sum(
        self, colors: Optional[np.ndarray], endpoint: str
    ) -> np.ndarray:
        """The shard's partial same-color row sums — the local half of
        the all-reduce; the parent concatenates partials in shard
        order.  Matches :meth:`repro.core.gains.SparseBackend._class_sum`
        row for row (global diagonal excluded)."""
        blk = self._blk[endpoint]
        rows = self.hi - self.lo
        if colors is not None:
            colors = np.asarray(colors)
        out = np.empty(rows)
        tile = self.tile_rows
        for lo in range(0, rows, tile):
            hi = min(lo + tile, rows)
            dense_tile = blk[lo:hi].toarray()
            if colors is None:
                out[lo:hi] = dense_tile.sum(axis=1)
                continue
            glo, ghi = self.lo + lo, self.lo + hi
            same = colors[glo:ghi, None] == colors[None, :]
            same[np.arange(ghi - glo), np.arange(glo, ghi)] = False
            out[lo:hi] = np.where(same, dense_tile, 0.0).sum(axis=1)
        return out

    def gather_cols(self, members: np.ndarray, endpoint: str) -> np.ndarray:
        """The shard's row-slice of ``G[:, members]`` — dense
        ``(hi - lo, len(members))``."""
        blk_t = self._blk_t[endpoint]
        return blk_t[np.asarray(members, dtype=int)].toarray().T

    def dense(self, endpoint: str) -> np.ndarray:
        """The full dense block row (materializes O(rows * n))."""
        return self._blk[endpoint].toarray()


def _build_gain_shard(payload: Tuple) -> GainShard:
    """Executor factory: payloads must rebuild actors deterministically
    (the respawn-and-replay contract)."""
    instance, powers, lo, hi, epsilon, tile_rows = payload
    return GainShard(instance, powers, lo, hi, epsilon, tile_rows)


def _close_executor(executor: ShardExecutor) -> None:
    try:
        executor.close()
    except Exception:  # pragma: no cover - teardown best-effort
        pass


class ShardedBackend(GainBackend):
    """The :class:`~repro.core.gains.GainBackend` protocol over ``W``
    block-row shards hosted by a
    :class:`~repro.runner.executors.ShardExecutor`.

    See the module docstring for the decomposition and the bit-identity
    contract.  ``replace_requests`` is not supported: writing a slot's
    column touches every shard, and an appended slot would need a
    resharding protocol; build a new backend instead.
    """

    name = "sharded"

    #: Parent-side column cache entries (each is O(n) floats per
    #: endpoint).  Sized for a couple of admission windows: the sharded
    #: first-fit driver refuses a window over half of it.
    COLUMN_CACHE_LIMIT = 256

    def __init__(
        self,
        executor: ShardExecutor,
        n: int,
        directed: bool,
        epsilon: float,
        bounds: Sequence[Tuple[int, int]],
        metas: Sequence[Dict[str, Any]],
    ):
        self.flip_risk_events = 0
        self.epsilon = float(epsilon)
        self._executor = executor
        self._n = int(n)
        self._directed = bool(directed)
        self._bounds = [(int(lo), int(hi)) for lo, hi in bounds]
        self._starts = np.array([lo for lo, _ in self._bounds], dtype=int)
        pruned_u = np.concatenate([m["pruned_u"] for m in metas])
        pruned_v = np.concatenate([m["pruned_v"] for m in metas])
        pruned_u.setflags(write=False)
        pruned_v.setflags(write=False)
        self._pruned_u, self._pruned_v = pruned_u, pruned_v
        self._has_inf = any(bool(m["has_inf"]) for m in metas)
        self._nnz = sum(int(m["nnz"]) for m in metas)
        self._nbytes = sum(int(m["nbytes"]) for m in metas)
        self._col_cache: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self._col_fetch: Optional[Tuple[np.ndarray, ShardPost]] = None
        self._finalizer = weakref.finalize(self, _close_executor, executor)

    @classmethod
    def build(
        cls,
        instance: Instance,
        powers: np.ndarray,
        epsilon: Optional[float] = None,
        workers: Optional[int] = None,
        executor: Optional[object] = None,
        retry=None,
        tile_rows: int = DEFAULT_TILE_ROWS,
    ) -> "ShardedBackend":
        """Build ``W`` shards owner-computes style.

        *executor* is either a registered executor name
        (``"serial"``/``"process"``; ``None`` =
        :func:`~repro.core.gains.default_config`) or an already-constructed,
        unstarted :class:`~repro.runner.executors.ShardExecutor` whose
        worker count must equal *workers*.  Each worker receives only
        ``(instance, powers, lo, hi, epsilon)`` and builds its block
        row locally — the parent never touches gain values at all.
        """
        given = isinstance(executor, ShardExecutor)
        config = default_config(
            backend="sharded",
            sparse_epsilon=epsilon,
            workers=workers,
            shard_executor=None if given else executor,
        )
        epsilon, workers = config.sparse_epsilon, config.workers
        powers = np.asarray(powers, dtype=float).reshape(-1)
        if given:
            exec_obj = executor
            if exec_obj.workers != workers:
                raise ValueError(
                    f"executor has {exec_obj.workers} workers, "
                    f"expected {workers}"
                )
        else:
            exec_obj = build_shard_executor(
                config.shard_executor, workers, retry=retry
            )
        bounds = shard_bounds(instance.n, workers)
        tile_rows = max(1, int(tile_rows))
        payloads = [
            (instance, powers, lo, hi, epsilon, tile_rows)
            for lo, hi in bounds
        ]
        try:
            exec_obj.start(_build_gain_shard, payloads)
            metas = exec_obj.broadcast("meta")
        except BaseException:
            if not given:
                exec_obj.close()
            raise
        from repro.core.instance import Direction

        return cls(
            executor=exec_obj,
            n=instance.n,
            directed=instance.direction is Direction.DIRECTED,
            epsilon=epsilon,
            bounds=bounds,
            metas=metas,
        )

    # -- lifecycle -----------------------------------------------------

    @property
    def executor(self) -> ShardExecutor:
        """The hosting executor (for health queries / fault tests)."""
        return self._executor

    def close(self) -> None:
        """Tear down the worker fleet (idempotent; also runs when the
        backend is garbage-collected, e.g. on context-cache eviction)."""
        self._finalizer()

    # -- shape / bookkeeping -------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def has_infinite_gains(self) -> bool:
        return self._has_inf

    @property
    def pruned_mass_u(self) -> np.ndarray:
        return self._pruned_u

    @property
    def pruned_mass_v(self) -> np.ndarray:
        return self._pruned_v

    @property
    def workers(self) -> int:
        return self._executor.workers

    # -- column cache / halo fetch -------------------------------------

    def prefetch_columns(self, js: np.ndarray) -> None:
        """Post a fetch of the columns of every request in *js* (both
        endpoints), one round trip over the shards, without waiting.

        The columns land in the cache when first needed: at the next
        miss or the next prefetch, which lands the fetch before it.
        The sharded first-fit driver posts each admission window's
        fetch before it admits the previous window, so a window of B
        admissions costs one round trip instead of up to ``4 B``, and
        the shards answer while the parent admits.
        """
        self._land_columns()
        js = np.asarray(js, dtype=int)
        missing = np.array(
            [j for j in js if int(j) not in self._col_cache], dtype=int
        )[-self.COLUMN_CACHE_LIMIT :]  # the rest would be evicted at once
        if missing.size:
            post = self._executor.post(
                "columns", [(missing,)] * self._executor.workers
            )
            self._col_fetch = (missing, post)

    def _land_columns(self) -> None:
        """Scatter the posted fetch's packed replies into one read-only
        ``(len(js), n)`` block per endpoint and cache its rows."""
        if self._col_fetch is None:
            return
        missing, post = self._col_fetch
        self._col_fetch = None
        parts = self._executor.collect(post)
        cache = self._col_cache
        # Evict first: cached columns stay within the limit even while
        # the new block fills.
        while cache and len(cache) + missing.size > self.COLUMN_CACHE_LIMIT:
            cache.popitem(last=False)
        block_u = np.zeros((missing.size, self._n))
        block_v = block_u if self._directed else np.zeros_like(block_u)
        for (lo, _hi), part in zip(self._bounds, parts):
            for block, (indptr, indices, data) in zip((block_u, block_v), part):
                rows = np.repeat(np.arange(missing.size), np.diff(indptr))
                block[rows, lo + indices] = data
        block_u.setflags(write=False)
        block_v.setflags(write=False)
        cols_u = list(block_u)  # row views; directed col_v is col_u
        cols_v = cols_u if self._directed else list(block_v)
        cache.update(zip(missing.tolist(), zip(cols_u, cols_v)))

    def _cached_cols(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        j = int(j)
        entry = self._col_cache.get(j)
        if entry is None:
            self.prefetch_columns(np.array([j]))
            self._land_columns()
            entry = self._col_cache[j]
        else:
            self._col_cache.move_to_end(j)
        return entry

    # -- primitives ----------------------------------------------------

    def col_u(self, j: int) -> np.ndarray:
        return self._cached_cols(j)[0]

    def col_v(self, j: int) -> np.ndarray:
        return self._cached_cols(j)[1]

    def _owner(self, i: int) -> int:
        return int(np.searchsorted(self._starts, i, side="right") - 1)

    def row_u(self, i: int) -> np.ndarray:
        return self._row("u", int(i))

    def row_v(self, i: int) -> np.ndarray:
        return self._row("v", int(i))

    def _row(self, endpoint: str, i: int) -> np.ndarray:
        worker = self._owner(i)
        lo = self._bounds[worker][0]
        block = self._executor.call(
            worker, "expand_rows", np.array([i - lo]), None, endpoint
        )
        return np.asarray(block)[0]

    def _partition_rows(
        self, rows: np.ndarray
    ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """Group *rows* by owning shard: ``(worker, positions_in_rows,
        local_row_indices)`` for every shard that owns at least one."""
        rows = np.asarray(rows, dtype=int)
        owners = np.searchsorted(self._starts, rows, side="right") - 1
        groups = []
        for worker in np.unique(owners):
            positions = np.flatnonzero(owners == worker)
            lo = self._bounds[int(worker)][0]
            groups.append((int(worker), positions, rows[positions] - lo))
        return groups

    def _scatter_rows(
        self, endpoint: str, method: str, rows: np.ndarray,
        cols: Optional[np.ndarray], width: Optional[int],
    ) -> np.ndarray:
        """Run a per-shard row computation and scatter the results back
        into caller row order."""
        rows = np.asarray(rows, dtype=int)
        groups = self._partition_rows(rows)
        if width is None:
            out = np.empty(rows.size)
        else:
            out = np.empty((rows.size, width))
        if len(groups) == 1:
            worker, positions, local = groups[0]
            out[positions] = self._executor.call(
                worker, method, local, cols, endpoint
            )
            return out
        args: List[Tuple] = [(np.empty(0, dtype=int), cols, endpoint)] * (
            self._executor.workers
        )
        for worker, _positions, local in groups:
            args[worker] = (local, cols, endpoint)
        parts = self._executor.scatter(method, args)
        for worker, positions, _local in groups:
            out[positions] = parts[worker]
        return out

    def gather_cols_u(self, members: np.ndarray) -> np.ndarray:
        return self._gather_cols("u", members)

    def gather_cols_v(self, members: np.ndarray) -> np.ndarray:
        return self._gather_cols("v", members)

    def _gather_cols(self, endpoint: str, members: np.ndarray) -> np.ndarray:
        members = np.asarray(members, dtype=int)
        parts = self._executor.broadcast("gather_cols", members, endpoint)
        return np.concatenate([np.asarray(part) for part in parts], axis=0)

    def block_u(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=int)
        return self._scatter_rows("u", "expand_rows", idx, idx, idx.size)

    def block_v(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=int)
        return self._scatter_rows("v", "expand_rows", idx, idx, idx.size)

    def cross_block_u(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        cols = np.asarray(cols, dtype=int)
        return self._scatter_rows("u", "expand_rows", rows, cols, cols.size)

    def cross_block_v(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        cols = np.asarray(cols, dtype=int)
        return self._scatter_rows("v", "expand_rows", rows, cols, cols.size)

    def row_sums_u(
        self, rows: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = rows if cols is None else np.asarray(cols, dtype=int)
        return self._scatter_rows("u", "row_sums", rows, cols, None)

    def row_sums_v(
        self, rows: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = rows if cols is None else np.asarray(cols, dtype=int)
        return self._scatter_rows("v", "row_sums", rows, cols, None)

    def class_sum_u(self, colors: Optional[np.ndarray]) -> np.ndarray:
        return self._class_sum("u", colors)

    def class_sum_v(self, colors: Optional[np.ndarray]) -> np.ndarray:
        return self._class_sum("v", colors)

    def _class_sum(
        self, endpoint: str, colors: Optional[np.ndarray]
    ) -> np.ndarray:
        if colors is not None:
            colors = np.asarray(colors)
        parts = self._executor.broadcast("class_sum", colors, endpoint)
        return np.concatenate([np.asarray(part) for part in parts])

    def dense_u(self) -> np.ndarray:
        return self._dense("u")

    def dense_v(self) -> np.ndarray:
        return self._dense("v")

    def _dense(self, endpoint: str) -> np.ndarray:
        parts = self._executor.broadcast("dense", endpoint)
        return np.concatenate([np.asarray(part) for part in parts], axis=0)

    def dense_ut(self) -> np.ndarray:
        return np.ascontiguousarray(self.dense_u().T)

    def dense_vt(self) -> np.ndarray:
        return np.ascontiguousarray(self.dense_v().T)

    # -- stats / health ------------------------------------------------

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def worker_health(self) -> List[Dict[str, Any]]:
        """Pid + peak RSS per worker (one broadcast)."""
        return self._executor.broadcast("identity")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedBackend(n={self.n}, directed={self.directed}, "
            f"workers={self.workers}, epsilon={self.epsilon}, "
            f"density={self.density:.4f})"
        )
