"""Vectorized scheduling kernels on cached gain matrices.

The schedulers in :mod:`repro.scheduling` share one inner loop: test
whether a request may join a color class, then commit or move on.  Run
one class at a time, that loop costs one query per *(request, class)*
pair — O(n·C) interpreter-bound iterations, each issuing a handful of
tiny NumPy calls, on top of gain matrices that are already fully
cached.  This module keeps **every** class's state dense so the whole
scan collapses into a constant number of vectorized passes:

* :class:`ScheduleKernel` — all color classes of one
  schedule-in-progress as ``(C, n)`` interference matrices per endpoint
  (finite sums plus exact infinite/positive contribution counts).
  First-fit placement becomes **one** admission check across every
  open class per request
  (:meth:`~ScheduleKernel.first_fit_admit`), and local-search moves
  become delta checks (:meth:`~ScheduleKernel.admissible_targets`) with
  copy-on-write snapshot/restore rollback instead of per-move subset
  rebuilds.
* :func:`peel_max_feasible_subset` — the greedy peeling primitive on
  incrementally maintained interference sums: **identical** decisions
  to the plain loop that peels the worst fresh subset margin and then
  re-adds, without that loop's O(k²) block recompute per round.
  Margins only rise as victims leave, so most rounds are decided on a
  shortlist of the lowest margins (a few small-array operations per
  victim) and only a round whose decision band reaches the smallest
  margin outside the shortlist rescans all k; the victims' columns
  reach the full sums in one bitwise-sequential fold per rescan.
  Re-add trials that must fail (a margin against the post-peel set
  already clearly below the threshold, which more members can only
  lower) are rejected in one tiled pass.  Decisions that land inside the
  :data:`PEEL_RISK_RTOL` band of their boundary are re-resolved with
  fresh reference-order row sums and counted as risk events.

Numerical contract
------------------

:meth:`ScheduleKernel.first_fit_admit` reproduces a sequential
one-class-at-a-time scan **bit-for-bit**: each class row accumulates
gain columns in insertion order, interference is resolved by
:func:`_resolve`, and the comparisons are elementwise float ops — so
the admitted class (and hence every first-fit schedule) is identical
to a per-class scan; the kernel-state property tests hold the rows
bitwise equal to a per-class row tracker in ``tests/reference.py``,
and the scheduler goldens in ``tests/data/scheduler_goldens.json`` pin
the emitted colorings.
:func:`peel_max_feasible_subset` maintains interference sums
incrementally, so raw margins agree with the reference only up to
accumulation order — but every peel, stop, and re-add decision is made
**identically**: comparisons within
:data:`PEEL_RISK_RTOL` of their boundary (argmin ties, threshold
crossings) are re-resolved from fresh row sums taken in the
reference's own membership order (bitwise the reference's values) and
surfaced as ``peel_risk_events`` in the result provenance.  The
local-search delta checks are the remaining exception: they maintain
sums incrementally, so they agree with fresh subset margins only up to
floating-point accumulation order (~1e-16 relative, far inside the
1e-9 feasibility tolerance);
``tests/core/test_kernels.py`` checks the emitted colorings against
the pinned goldens and the independent oracle in ``tests/oracle.py``.

When to use what
----------------

* One-off queries → the public wrappers / ``InterferenceContext``
  methods (cached, vectorized, no state to manage).
* Classes growing and shrinking a request at a time (schedulers,
  searches) → :class:`ScheduleKernel` (O(n) membership changes, one
  vectorized pass over all classes per probe).
* A maximal feasible subset → :func:`peel_max_feasible_subset`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.context import (
    DEFAULT_RTOL,
    InterferenceContext,
    _margins_from,
    request_indices,
)
from repro.core.interference import DEFAULT_TILE_ROWS

__all__ = [
    "PEEL_RISK_RTOL",
    "DEFAULT_ADMISSION_WINDOW",
    "ScheduleKernel",
    "check_order",
    "first_fit_colors",
    "first_fit_colors_sharded",
    "peel_max_feasible_subset",
    "peel_risk_events",
    "reset_peel_events",
]

# ----------------------------------------------------------------------
# Peel provenance counter
# ----------------------------------------------------------------------

#: Relative width of the incremental peel's decision-risk band.  A
#: peel/stop/re-add comparison whose incrementally maintained margin
#: lands within this relative distance of the decision boundary (the
#: feasibility threshold, or the round's minimum margin for argmin
#: ties) is *at risk* of differing from the reference's fresh-sum
#: margins; the kernel then recomputes the implicated margins exactly
#: (reference summation order) and counts one
#: :func:`peel_risk_events` event.  The band is orders of magnitude
#: wider than the drift a full peel can accumulate (a few ulps per
#: subtraction), so out-of-band comparisons are certain.
PEEL_RISK_RTOL = 1e-9


# Module-level peel provenance state.  The peel runs against whatever
# context its caller resolved — including contexts built *inside*
# self-powered algorithms (e.g. sqrt_coloring) that a Session never
# sees — so per-run accounting snapshots this process-wide total
# before/after the run (single scheduler thread) instead of hanging a
# counter off one backend object.
_peel_risk_events = 0


def peel_risk_events() -> int:
    """Running total of at-risk peel decisions (incremental margin
    within :data:`PEEL_RISK_RTOL` of a decision boundary, resolved by
    exact recomputation).

    It counts the decisions the kernel re-resolves.  Re-add trials its
    prefilter rejects (certain rejections) are never run, so their
    at-risk comparisons are not counted.
    """
    return _peel_risk_events


def reset_peel_events() -> None:
    """Reset the peel risk counter (:func:`peel_risk_events`) to 0."""
    global _peel_risk_events
    _peel_risk_events = 0


def _resolve(
    fin: np.ndarray, ninf: np.ndarray, npos: np.ndarray, finite: bool = False
) -> np.ndarray:
    """Exact interference resolution of one class row: ``inf`` wins,
    no positive contributor is an exact 0, else the clamped running
    sum.

    With *finite* the infinite counts are known to be all zero and the
    ``inf`` overlay — then an identity — is skipped.
    """
    # The clamped sum is finite and never -0.0 (sums of non-negative
    # gains), so scaling by the 0/1 contributor mask is exact.
    values = np.maximum(fin, 0.0)
    values *= npos > 0
    if finite:
        return values
    return np.where(ninf > 0, np.inf, values)


class ScheduleKernel:
    """Dense multi-class interference state for one schedule-in-progress.

    Maintains, for every color class ``c`` and every request ``i`` of
    the instance, the interference class ``c``'s members induce at
    ``i`` — as ``(C, n)`` arrays per endpoint of finite sums,
    infinite-contribution counts and positive-contribution counts (so
    shared-node and emptied-class cases stay exact).  On top of the
    per-class rows it keeps per-request *own-class* state (each placed
    request's entry of its own class row, maintained bitwise-equal), so
    member-side admission checks run as one ``(n,)`` broadcast instead
    of a Python loop over classes.

    Parameters
    ----------
    context:
        The shared :class:`InterferenceContext` (cached gain matrices).
    beta, noise:
        Defaults for margin-style checks; fall back to the context's.
    capacity:
        Initial number of preallocated class rows (grows by doubling).
    """

    def __init__(
        self,
        context: InterferenceContext,
        beta: Optional[float] = None,
        noise: Optional[float] = None,
        capacity: int = 4,
    ):
        self.context = context
        self.beta = context.beta if beta is None else float(beta)
        self.noise = context.noise if noise is None else float(noise)
        n = context.n
        self._n = n
        self._backend = context.backend
        self._directed = context.directed
        self._finite = not self._backend.has_infinite_gains
        # Per-request pruned-mass bound of a lossy (sparse) backend;
        # None on lossless backends so the certification bookkeeping in
        # first_fit_admit costs nothing on the reference path.
        self._pruned = (
            None if self._backend.is_lossless else self._backend.pruned_bound
        )
        #: At-risk admissions made by *this kernel* (see
        #: :meth:`first_fit_admit`): the per-run certification counter.
        #: The backend's :attr:`~repro.core.gains.GainBackend.flip_risk_events`
        #: accumulates the same events across every kernel sharing it.
        self.flip_risk_events = 0
        #: Opaque tag an owner keeps current and every :meth:`snapshot`
        #: records (:class:`repro.api.Session` stores an epoch that
        #: every arrival, departure and rebuild bumps, so a snapshot
        #: older than the last membership or slot-layout change is
        #: recognizably stale).
        self.stamp = 0
        self._sizes: List[int] = []
        # The single live :meth:`snapshot`, whose row store :meth:`add`
        # and :meth:`remove` fill before their first write to a row.
        self._snapshot: Optional[Dict[str, object]] = None
        # The state lives in buffers with spare room in both dimensions
        # (class rows, request columns); the named arrays are views of
        # their leading (classes, n) blocks, rebound on reallocation.
        endpoints = 1 if self._directed else 2
        dtypes = [float, np.int64, np.int64] * endpoints
        cap = max(1, int(capacity))
        self._row_bufs = [np.zeros((cap, n), dtype=dtype) for dtype in dtypes]
        self._own_bufs = [np.zeros(n, dtype=dtype) for dtype in dtypes]
        self._colors_buf = np.full(n, -1, dtype=int)
        self._bind()

    # ------------------------------------------------------------------
    # Construction / introspection
    # ------------------------------------------------------------------

    @classmethod
    def from_colors(
        cls,
        context: InterferenceContext,
        colors: np.ndarray,
        beta: Optional[float] = None,
        noise: Optional[float] = None,
    ) -> "ScheduleKernel":
        """A kernel seeded from a dense coloring (entries ``0 .. C-1``;
        ``-1`` marks unplaced requests).  Class rows are bulk-seeded in
        one vectorized pass per class."""
        colors = np.asarray(colors, dtype=int).reshape(-1)
        if colors.shape != (context.n,):
            raise ValueError(
                f"colors must have shape ({context.n},), got {colors.shape}"
            )
        num_classes = int(colors.max()) + 1 if colors.size and colors.max() >= 0 else 0
        kernel = cls(context, beta=beta, noise=noise, capacity=max(1, num_classes))
        for color in range(num_classes):
            members = np.flatnonzero(colors == color)
            kernel._sizes.append(int(members.size))
            if members.size == 0:
                continue
            kernel._bulk_seed(color, members)
        kernel._colors[:] = colors
        idx = np.flatnonzero(colors >= 0)
        pairs = [
            (kernel._own_fin_u, kernel._fin_u),
            (kernel._own_ninf_u, kernel._ninf_u),
            (kernel._own_npos_u, kernel._npos_u),
        ]
        if not kernel._directed:
            pairs += [
                (kernel._own_fin_v, kernel._fin_v),
                (kernel._own_ninf_v, kernel._ninf_v),
                (kernel._own_npos_v, kernel._npos_v),
            ]
        for own, rows in pairs:
            own[idx] = rows[colors[idx], idx]
        return kernel

    @property
    def n(self) -> int:
        """Number of requests."""
        return self._n

    @property
    def num_classes(self) -> int:
        """Number of (open) color classes."""
        return len(self._sizes)

    @property
    def colors(self) -> np.ndarray:
        """Current color per request, ``-1`` for unplaced (read-only view)."""
        view = self._colors.view()
        view.setflags(write=False)
        return view

    @property
    def class_sizes(self) -> np.ndarray:
        """Member count per class."""
        return np.asarray(self._sizes, dtype=int)

    # ------------------------------------------------------------------
    # State updates
    # ------------------------------------------------------------------

    def _reallocate(self, classes: int, columns: int) -> None:
        """Move the state into zeroed buffers of ``(classes, columns)``
        capacity (``-1`` for unplaced colors), keeping the current
        ``(C, n)`` blocks.  Entries past ``n`` are never written, so
        they hold exactly the zeros a new request's state starts from."""
        n = self._n
        for k, old in enumerate(self._row_bufs):
            new = np.zeros((classes, columns), dtype=old.dtype)
            new[: old.shape[0], :n] = old[:, :n]
            self._row_bufs[k] = new
        for k, old in enumerate(self._own_bufs):
            new = np.zeros(columns, dtype=old.dtype)
            new[:n] = old[:n]
            self._own_bufs[k] = new
        colors = np.full(columns, -1, dtype=int)
        colors[:n] = self._colors_buf[:n]
        self._colors_buf = colors
        self._bind()

    def _bind(self) -> None:
        """Rebind the named state arrays to the buffers' first ``n``
        columns (the ``_v`` names alias ``_u`` when directed)."""
        n = self._n
        rows = [buf[:, :n] for buf in self._row_bufs]
        own = [buf[:n] for buf in self._own_bufs]
        if self._directed:
            rows, own = rows * 2, own * 2
        self._fin_u, self._ninf_u, self._npos_u = rows[:3]
        self._fin_v, self._ninf_v, self._npos_v = rows[3:]
        self._own_fin_u, self._own_ninf_u, self._own_npos_u = own[:3]
        self._own_fin_v, self._own_ninf_v, self._own_npos_v = own[3:]
        self._colors = self._colors_buf[:n]

    def _grow(self) -> None:
        cap = self._row_bufs[0].shape[0]
        self._reallocate(max(1, 2 * cap), self._row_bufs[0].shape[1])

    def _refresh_backend_flags(self) -> None:
        """Re-resolve the all-finite fast path and the pruned-mass
        bound from the backend after its storage changed.  Both flips
        are exact: counts of infinite contributions are maintained on
        either path, and are all zero whenever the backend holds no
        infinite entry."""
        self._finite = not self._backend.has_infinite_gains
        self._pruned = (
            None if self._backend.is_lossless else self._backend.pruned_bound
        )

    def _seed_rows(self, requests: Sequence[int]) -> None:
        """Set every class's sums at *requests* (unplaced) from their
        gain rows: members accumulate in index order, exactly as the
        bulk column sums of :meth:`_bulk_seed` do, so the entries equal
        a freshly seeded kernel's bit for bit."""
        count = len(self._sizes)
        # Bin 0 collects the unplaced requests; class c is bin c + 1.
        # bincount adds in index order either way, so each class sum is
        # the one over its members alone, bit for bit.
        bins = self._colors + 1
        width = count + 1
        backend = self._backend
        for fin, ninf, npos, row_of in (
            (self._fin_u, self._ninf_u, self._npos_u, backend.row_u),
            (self._fin_v, self._ninf_v, self._npos_v, backend.row_v),
        ):
            for request in requests:
                # A grown backend's row may run past the kernel's
                # requests; those are members of nothing.
                row = row_of(int(request))[: bins.size]
                if self._finite:
                    fin[:count, request] = np.bincount(
                        bins, weights=row, minlength=width
                    )[1:]
                    # A reused slot may carry counts from a request
                    # whose row held infinite gains.
                    ninf[:count, request] = 0
                    npos[:count, request] = np.bincount(
                        bins, weights=row > 0, minlength=width
                    )[1:]
                else:
                    finite = np.isfinite(row)
                    fin[:count, request] = np.bincount(
                        bins[finite], weights=row[finite], minlength=width
                    )[1:]
                    ninf[:count, request] = np.bincount(
                        bins[~finite], minlength=width
                    )[1:]
                    npos[:count, request] = np.bincount(
                        bins[finite & (row > 0)], minlength=width
                    )[1:]
            if self._directed:
                break

    def extend_to(self, n_new: int) -> None:
        """Grow the kernel to a context that has grown to *n_new*
        requests (appended slots of
        :meth:`InterferenceContext.replace_requests`) — the live state
        survives arrivals with no replay.

        Existing per-class and own-class entries are untouched (the new
        requests are not members of anything yet, so no existing sum
        changes); the new requests' class-row entries are seeded from
        their gain rows with the member order of :meth:`_bulk_seed`,
        so the grown state equals a freshly seeded kernel's bit for bit
        and a subsequent :meth:`first_fit_admit` of an arrival sees
        exactly the state a fresh kernel would.  An exhausted request
        capacity grows by a quarter (like the dense backend's buffers),
        so a stream of arrivals copies the ``(classes, n)`` state
        ``O(log n)`` times, not once per arrival.  The all-finite fast
        path and the pruned-mass bound are re-resolved from the
        (grown) backend, since arrivals can introduce shared-node pairs
        or pruned rows that did not exist at construction.
        """
        n_new = int(n_new)
        n_old = self._n
        if n_new < n_old:
            raise ValueError(
                f"cannot shrink kernel from n={n_old} to n={n_new}"
            )
        if self.context.n != n_new:
            raise ValueError(
                f"context has n={self.context.n}, expected {n_new}; grow "
                "the context (InterferenceContext.replace_requests) first"
            )
        if n_new == n_old:
            return
        self._snapshot = None
        self._refresh_backend_flags()
        columns = self._row_bufs[0].shape[1]
        if n_new > columns:
            self._reallocate(
                self._row_bufs[0].shape[0], max(n_new, columns + columns // 4)
            )
        self._n = n_new
        self._bind()
        self._seed_rows(range(n_old, n_new))

    def reseed(self, requests: Sequence[int]) -> None:
        """Re-derive the state at *requests* after the context swapped
        them for new requests in place
        (:meth:`InterferenceContext.replace_requests`) — ``O(n)`` per
        request, no replay.

        The requests must be unplaced.  Their old gain columns never
        entered a class sum (they were not members), so only their own
        entries change: each class's sums are re-seeded from the new
        gain rows (bit for bit what a freshly seeded kernel holds) and
        the own-class sums reset to zero.  The backend flags are
        re-resolved, since the swap can add or clear infinite or pruned
        entries.
        """
        requests = [int(r) for r in requests]
        colors = self._colors
        placed = [r for r in requests if colors[r] >= 0]
        if placed:
            raise ValueError(f"requests {placed} are placed; remove them first")
        self._snapshot = None
        self._refresh_backend_flags()
        self._seed_rows(requests)
        for own in self._own_arrays():
            for r in requests:
                own[r] = 0

    def _endpoint_rows(self):
        # gather_cols materializes bulk column gathers (for pairwise
        # column sums), col single columns in cache-friendly layout;
        # both come from the gain backend, so the same kernel runs on
        # dense and sparse gains with identical values.
        backend = self._backend
        yield (
            self._fin_u,
            self._ninf_u,
            self._npos_u,
            self._own_fin_u,
            self._own_ninf_u,
            self._own_npos_u,
            backend.gather_cols_u,
            backend.col_u,
        )
        if not self._directed:
            yield (
                self._fin_v,
                self._ninf_v,
                self._npos_v,
                self._own_fin_v,
                self._own_ninf_v,
                self._own_npos_v,
                backend.gather_cols_v,
                backend.col_v,
            )

    def _bulk_seed(self, color: int, members: np.ndarray) -> None:
        """Seed class *color* with *members* in one vectorized pass
        (pairwise column sums)."""
        for fin, ninf, npos, _, _, _, gather_cols, _ in self._endpoint_rows():
            columns = gather_cols(members)
            if self._finite:
                np.add(fin[color], columns.sum(axis=1), out=fin[color])
                np.add(npos[color], (columns > 0).sum(axis=1), out=npos[color])
            else:
                finite = np.isfinite(columns)
                np.add(
                    fin[color],
                    np.where(finite, columns, 0.0).sum(axis=1),
                    out=fin[color],
                )
                np.add(ninf[color], (~finite).sum(axis=1), out=ninf[color])
                np.add(
                    npos[color],
                    (finite & (columns > 0)).sum(axis=1),
                    out=npos[color],
                )

    def open_class(self) -> int:
        """Open a fresh (empty) color class; returns its index."""
        color = len(self._sizes)
        if color >= self._fin_u.shape[0]:
            self._grow()
        self._sizes.append(0)
        return color

    def add(self, request: int, color: int) -> None:
        """Place *request* into class *color* — O(n).

        The class row accumulates the request's gain column in place
        (``+=``): bitwise what one class row fed the same insertion
        sequence holds.
        """
        request = int(request)
        color = int(color)
        if self._colors[request] >= 0:
            raise ValueError(f"request {request} is already placed")
        if not 0 <= color < len(self._sizes):
            raise ValueError(f"class {color} is not open")
        self._save_row(color)
        peers = self._colors == color
        for fin, ninf, npos, own_fin, own_ninf, own_npos, _, col in (
            self._endpoint_rows()
        ):
            column = col(request)
            if self._finite:
                add_pos = column > 0
                np.add(fin[color], column, out=fin[color])
                np.add(npos[color], add_pos, out=npos[color])
                np.add(own_fin, column, out=own_fin, where=peers)
                np.add(own_npos, add_pos, out=own_npos, where=peers)
            else:
                finite = np.isfinite(column)
                add_fin = np.where(finite, column, 0.0)
                add_inf = ~finite
                add_pos = finite & (column > 0)
                np.add(fin[color], add_fin, out=fin[color])
                np.add(ninf[color], add_inf, out=ninf[color])
                np.add(npos[color], add_pos, out=npos[color])
                np.add(own_fin, add_fin, out=own_fin, where=peers)
                np.add(own_ninf, add_inf, out=own_ninf, where=peers)
                np.add(own_npos, add_pos, out=own_npos, where=peers)
            # The newcomer's own-class entry is an exact copy of its row
            # cell (its peers' updates above never touch it: the gain
            # diagonal is zero but the copy keeps this correct even so).
            own_fin[request] = fin[color, request]
            own_ninf[request] = ninf[color, request]
            own_npos[request] = npos[color, request]
        self._colors[request] = color
        self._sizes[color] += 1

    def remove(self, request: int) -> int:
        """Remove *request* from its class — O(n); returns the class.

        Exact for shared-node members (infinite counts) and for emptied
        classes (rows reset to exact zero).
        """
        request = int(request)
        color = int(self._colors[request])
        if color < 0:
            raise ValueError(f"request {request} is not placed")
        self._save_row(color)
        self._colors[request] = -1
        self._sizes[color] -= 1
        emptied = self._sizes[color] == 0
        peers = self._colors == color
        for fin, ninf, npos, own_fin, own_ninf, own_npos, _, col in (
            self._endpoint_rows()
        ):
            if emptied:
                fin[color].fill(0.0)
                ninf[color].fill(0)
                npos[color].fill(0)
            else:
                column = col(request)
                if self._finite:
                    sub_pos = column > 0
                    np.subtract(fin[color], column, out=fin[color])
                    np.subtract(npos[color], sub_pos, out=npos[color])
                    np.subtract(own_fin, column, out=own_fin, where=peers)
                    np.subtract(own_npos, sub_pos, out=own_npos, where=peers)
                else:
                    finite = np.isfinite(column)
                    sub_fin = np.where(finite, column, 0.0)
                    sub_inf = ~finite
                    sub_pos = finite & (column > 0)
                    np.subtract(fin[color], sub_fin, out=fin[color])
                    np.subtract(ninf[color], sub_inf, out=ninf[color])
                    np.subtract(npos[color], sub_pos, out=npos[color])
                    np.subtract(own_fin, sub_fin, out=own_fin, where=peers)
                    np.subtract(own_ninf, sub_inf, out=own_ninf, where=peers)
                    np.subtract(own_npos, sub_pos, out=own_npos, where=peers)
            own_fin[request] = 0.0
            own_ninf[request] = 0
            own_npos[request] = 0
        return color

    def move(self, request: int, color: int) -> None:
        """Move a placed *request* into class *color* (remove + add)."""
        self.remove(request)
        self.add(request, color)

    def drop_empty_class(self, color: int) -> None:
        """Delete an emptied class; higher class ids shift down by one
        (matching a dense ``np.unique`` recompaction of the colors)."""
        color = int(color)
        if self._sizes[color] != 0:
            raise ValueError(f"class {color} is not empty")
        self._snapshot = None
        count = len(self._sizes)
        for fin, ninf, npos, _, _, _, _, _ in self._endpoint_rows():
            fin[color : count - 1] = fin[color + 1 : count]
            fin[count - 1].fill(0.0)
            ninf[color : count - 1] = ninf[color + 1 : count]
            ninf[count - 1].fill(0)
            npos[color : count - 1] = npos[color + 1 : count]
            npos[count - 1].fill(0)
        self._sizes.pop(color)
        np.subtract(
            self._colors, 1, out=self._colors, where=self._colors > color
        )

    # ------------------------------------------------------------------
    # Snapshot / rollback
    # ------------------------------------------------------------------

    def _row_arrays(self) -> List[np.ndarray]:
        rows = [self._fin_u, self._ninf_u, self._npos_u]
        if not self._directed:
            rows += [self._fin_v, self._ninf_v, self._npos_v]
        return rows

    def _own_arrays(self) -> List[np.ndarray]:
        own = [self._own_fin_u, self._own_ninf_u, self._own_npos_u]
        if not self._directed:
            own += [self._own_fin_v, self._own_ninf_v, self._own_npos_v]
        return own

    def snapshot(self) -> Dict[str, object]:
        """Take the kernel's live snapshot (copy-on-write).

        Colors, sizes and the ``(n,)`` own-class vectors are copied
        now; a ``(C, n)`` class row is copied by :meth:`add` /
        :meth:`remove` right before its first write since the snapshot,
        so rolling back a few moves copies the rows they touched, not
        every class.  A new snapshot supersedes the previous one.
        """
        self._snapshot = {
            "n": self._n,
            "stamp": self.stamp,
            "colors": self._colors.copy(),
            "sizes": list(self._sizes),
            "rows": {},
            "own": [arr.copy() for arr in self._own_arrays()],
        }
        return self._snapshot

    def _save_row(self, color: int) -> None:
        """Copy class *color*'s rows into the live snapshot unless they
        are saved already or the class opened after it (restore zeroes
        those)."""
        snap = self._snapshot
        if snap is None or color >= len(snap["sizes"]) or color in snap["rows"]:
            return
        snap["rows"][color] = [arr[color].copy() for arr in self._row_arrays()]

    def restore(self, state: Dict[str, object]) -> None:
        """Restore the live :meth:`snapshot` bitwise: write back the
        saved rows, zero the rows opened since, and copy back colors,
        sizes and own-class vectors.  The snapshot stays live.

        Only the live snapshot restores.  One superseded by a later
        :meth:`snapshot`, or taken before a :meth:`drop_empty_class`,
        :meth:`reseed` or :meth:`extend_to` (instance growth) — which
        rewrite state without saving it — raises ``ValueError``;
        callers (see :meth:`repro.api.Session.recover`) must rebuild
        instead.
        """
        if state is not self._snapshot:
            raise ValueError(
                "not the kernel's live snapshot: a later snapshot superseded "
                "it, or drop_empty_class, reseed or extend_to (instance "
                "growth) ran since it was taken — rebuild instead"
            )
        rows = self._row_arrays()
        for color, saved in state["rows"].items():
            for arr, row in zip(rows, saved):
                arr[color] = row
        for arr in rows:
            arr[len(state["sizes"]) : len(self._sizes)].fill(0)
        self._colors[:] = state["colors"]
        self._sizes = list(state["sizes"])
        for arr, saved in zip(self._own_arrays(), state["own"]):
            arr[:] = saved
        self.stamp = state["stamp"]

    # ------------------------------------------------------------------
    # Vectorized admission checks
    # ------------------------------------------------------------------

    def class_interference(self, request: int) -> np.ndarray:
        """Worst-endpoint interference each class would induce at
        *request* — ``(C,)``, resolved with :func:`_resolve`'s exact
        inf/zero semantics."""
        request = int(request)
        count = len(self._sizes)
        res_u = _resolve(
            self._fin_u[:count, request],
            self._ninf_u[:count, request],
            self._npos_u[:count, request],
            self._finite,
        )
        if self._directed:
            return res_u
        res_v = _resolve(
            self._fin_v[:count, request],
            self._ninf_v[:count, request],
            self._npos_v[:count, request],
            self._finite,
        )
        return np.maximum(res_u, res_v)

    def first_fit_admit(self, request: int, limits: np.ndarray) -> int:
        """First class *request* can join under interference budgets
        *limits*, or ``-1``.

        *limits* is the per-request tolerance-scaled budget array
        (``budget * (1 + rtol)``).  One vectorized pass evaluates the
        candidate-budget check for **all** classes and the member-budget
        delta check for **all** placed requests; decisions are
        bit-identical to scanning the classes one at a time.

        On a pruned (sparse) backend every interference value is a
        conservative under-estimate, so rejections here are always
        correct; only an *admission* can differ from the unpruned
        matrices, and only when a value lands within the admitted
        class's pruned-mass bound of its limit.  Each such at-risk
        admission bumps this kernel's own ``flip_risk_events`` plus the
        backend's cumulative ``backend.flip_risk_events`` — a run whose
        kernel counter is zero (equivalently: the backend counter did
        not grow during the run) is certified identical to the dense
        backend's schedule.
        """
        request = int(request)
        count = len(self._sizes)
        if count == 0:
            return -1
        cand_u = _resolve(
            self._fin_u[:count, request],
            self._ninf_u[:count, request],
            self._npos_u[:count, request],
            self._finite,
        )
        if self._directed:
            cand = cand_u
        else:
            cand_v = _resolve(
                self._fin_v[:count, request],
                self._ninf_v[:count, request],
                self._npos_v[:count, request],
                self._finite,
            )
            cand = np.maximum(cand_u, cand_v)
        admit = ~(cand > limits[request])
        if not np.count_nonzero(admit):
            return -1
        # _resolve returns fresh arrays, so the request's columns are
        # added in place.
        new_u = _resolve(
            self._own_fin_u, self._own_ninf_u, self._own_npos_u, self._finite
        )
        new_u += self._backend.col_u(request)
        viol = new_u > limits
        if self._directed:
            new_v = new_u
        else:
            new_v = _resolve(
                self._own_fin_v, self._own_ninf_v, self._own_npos_v, self._finite
            )
            new_v += self._backend.col_v(request)
            viol |= new_v > limits
        viol &= self._colors >= 0
        if np.count_nonzero(viol):
            # A class with a violated member cannot take the request.
            admit[self._colors[viol]] = False
            if not np.count_nonzero(admit):
                return -1
        choice = int(np.argmax(admit))
        if self._pruned is not None:
            # Certification: is this admission provably what the
            # unpruned matrices would decide?  Classes scanned before
            # `choice` were rejected (always certain); the chosen class
            # is at risk iff the candidate's or a member's comparison
            # sits within the pruned-mass band of its limit.
            pruned = self._pruned
            risky = bool(cand[choice] + pruned[request] > limits[request])
            if not risky:
                members = np.flatnonzero(self._colors == choice)
                lim = limits[members]
                pru = pruned[members]
                band = new_u[members] + pru > lim
                if not self._directed:
                    band |= new_v[members] + pru > lim
                risky = bool(np.any(band))
            if risky:
                self.flip_risk_events += 1
                self._backend.flip_risk_events += 1
        return choice

    def admissible_targets(
        self, request: int, rtol: float = DEFAULT_RTOL
    ) -> np.ndarray:
        """Margin-style admissibility of *request* to every class —
        ``(C,)`` bool.

        A class is admissible when the request's own SINR margin
        against the class *and* every member's margin with the
        request's gain column added stay ``>= 1 - rtol`` (the
        ``is_feasible_subset`` semantics local search uses).  If the
        request is currently placed, its own class's entry is
        meaningless and callers must skip it.
        """
        request = int(request)
        count = len(self._sizes)
        threshold = 1.0 - rtol
        signals = self.context.signals
        cand = self.class_interference(request)
        cand_margins = _margins_from(
            np.broadcast_to(signals[request], (count,)),
            cand,
            self.beta,
            self.noise,
        )
        admissible = cand_margins >= threshold
        if not np.count_nonzero(admissible):
            return admissible
        placed = self._colors >= 0
        own_u = _resolve(
            self._own_fin_u, self._own_ninf_u, self._own_npos_u, self._finite
        )
        new_interf = own_u + self._backend.col_u(request)
        if not self._directed:
            own_v = _resolve(
                self._own_fin_v, self._own_ninf_v, self._own_npos_v, self._finite
            )
            new_interf = np.maximum(
                new_interf, own_v + self._backend.col_v(request)
            )
        member_margins = _margins_from(
            signals, new_interf, self.beta, self.noise
        )
        viol = placed & ~(member_margins >= threshold)
        if np.count_nonzero(viol):
            bad = np.bincount(self._colors[viol], minlength=count)[:count] > 0
            admissible &= ~bad
        return admissible

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScheduleKernel(C={len(self._sizes)}, n={self._n}, "
            f"beta={self.beta}, noise={self.noise})"
        )


def check_order(order: Sequence[int], n: int) -> np.ndarray:
    """*order* as an index array, or ``ValueError`` naming the first
    entry that keeps it from being a permutation of ``range(n)``."""
    order = request_indices(order, n, "order entry")
    repeated = np.ones(order.size, dtype=bool)
    repeated[np.unique(order, return_index=True)[1]] = False
    if np.any(repeated):
        position = int(np.argmax(repeated))
        raise ValueError(
            f"order repeats request {int(order[position])} at position "
            f"{position}"
        )
    if order.size != n:
        missing = np.setdiff1d(np.arange(n), order)
        raise ValueError(
            f"order has {order.size} entries for {n} requests; request "
            f"{int(missing[0])} is missing"
        )
    return order


def first_fit_colors(
    context: InterferenceContext,
    order: np.ndarray,
    limits: np.ndarray,
) -> np.ndarray:
    """The kernel first-fit admission loop for one context.

    The admission loop behind
    :func:`repro.scheduling.firstfit.first_fit_schedule`.  *limits* is
    the tolerance-scaled budget array (``budget * (1 + rtol)``).
    """
    backend = context.backend
    if hasattr(backend, "prefetch_columns"):
        # Distributed backend: batch the column fetches (the only
        # remote data dependency of admission) into windows.
        return first_fit_colors_sharded(context, order, limits)
    kernel = ScheduleKernel(context)
    for req in order:
        req = int(req)
        color = kernel.first_fit_admit(req, limits)
        if color < 0:
            color = kernel.open_class()
        kernel.add(req, color)
    return kernel.colors


#: Admission-window width of the sharded first-fit driver.  Two
#: windows must fit the sharded backend's column cache: the driver
#: admits one window while the next one's columns are in flight.
DEFAULT_ADMISSION_WINDOW = 64


def first_fit_colors_sharded(
    context: InterferenceContext,
    order: np.ndarray,
    limits: np.ndarray,
    window: int = DEFAULT_ADMISSION_WINDOW,
) -> np.ndarray:
    """First-fit admission over a distributed gain backend, batched.

    The admission loop's only remote data dependency is the candidate's
    gain columns (``col_u``/``col_v`` in
    :meth:`ScheduleKernel.first_fit_admit` and :meth:`ScheduleKernel.add`);
    every budget comparison runs against parent-resident class rows.
    So the driver walks *order* in windows of *window* requests and
    fetches each window's columns in **one** round trip over the shards
    (``backend.prefetch_columns``) — per-request traffic drops from up
    to four column broadcasts to ``1/window`` broadcasts.  The fetch of
    window k+1 is posted before window k is admitted, so the shards
    slice and pickle its columns while the parent admits; the backend's
    column cache must therefore hold two windows (``ValueError``
    otherwise).

    The kernel calls and their operands are exactly those of
    :func:`first_fit_colors` (prefetch only warms a cache of
    bit-identical columns), so the resulting coloring is bit-identical
    to the plain loop on any backend — and therefore to the dense
    reference wherever the backend itself is conformant.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    backend = context.backend
    cache_limit = getattr(backend, "COLUMN_CACHE_LIMIT", None)
    if cache_limit is not None and 2 * window > cache_limit:
        raise ValueError(
            f"window {window}: two admission windows ({2 * window} "
            f"columns) exceed the column cache ({cache_limit} columns)"
        )
    prefetch = getattr(backend, "prefetch_columns", lambda js: None)
    kernel = ScheduleKernel(context)
    order = np.asarray(order, dtype=int)
    prefetch(order[:window])
    for lo in range(0, order.size, window):
        prefetch(order[lo + window : lo + 2 * window])
        for req in order[lo : lo + window]:
            req = int(req)
            color = kernel.first_fit_admit(req, limits)
            if color < 0:
                color = kernel.open_class()
            kernel.add(req, color)
    return kernel.colors


# ----------------------------------------------------------------------
# Greedy peeling: incremental (sub-cubic) kernel
# ----------------------------------------------------------------------


def peel_max_feasible_subset(
    context: InterferenceContext,
    candidates: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
    rtol: float = DEFAULT_RTOL,
) -> np.ndarray:
    """A maximal feasible subset of *candidates* (peel worst margin,
    then re-add).

    The reference loop peels the request of lowest fresh subset margin
    (:meth:`InterferenceContext.margins` with ``subset=``; first
    occurrence on ties) until the rest is feasible, then tries the
    peeled requests again, last peeled first, keeping each one whose
    trial set is feasible.  This is the **incremental** version of that
    loop, decision for decision: per-candidate interference sums are
    maintained under subtraction as requests are peeled, instead of the
    loop's O(k²) block re-sum per round.  Most rounds are
    decided on a shortlist of the lowest margins for a few ``O(s)``
    array operations; a full ``O(k)`` margin scan runs only when a
    round's decision could involve a request outside the shortlist.
    Dropped requests that certainly cannot be re-added are rejected in
    one tiled pass before the per-request re-add loop.  On a sparse
    backend the whole pass walks CSR rows/columns and small cross
    blocks — no dense ``(k, k)`` block is ever gathered.  See
    :func:`_peel_incremental` for the cost model and invariants.

    Numerical contract
    ------------------

    Incremental subtraction changes the summation order, so maintained
    margins can drift a few ulps from the reference's fresh pairwise
    sums.  Decisions are still exact: any comparison whose maintained
    margin lands within :data:`PEEL_RISK_RTOL` of its decision boundary
    (the feasibility threshold, or the round minimum for argmin ties)
    is re-resolved from **fresh row sums in the reference's own
    summation order** — bitwise the reference's margins — and counted
    as one :func:`peel_risk_events` event (surfaced per run in
    :class:`repro.api.Provenance.peel_risk_events`).  Out-of-band
    comparisons cannot flip: the band is orders of magnitude wider than
    the drift a peel can accumulate.  The count covers the decisions
    the kernel re-resolves: a re-add trial the prefilter rejects is
    never run, so an at-risk comparison inside such a trial (whose
    outcome is a rejection either way) is not counted.

    Candidates must be distinct integer request indices in ``[0, n)``
    (any integer or float dtype; booleans, fractional values, anything
    outside the range and repeated indices raise ``ValueError``, see
    :func:`repro.core.context.request_indices`).
    """
    if candidates is None:
        idx = np.arange(context.n)
    else:
        idx = request_indices(candidates, context.n, "peel candidate")
    if idx.size == 0:
        return np.asarray([], dtype=int)
    if np.unique(idx).size != idx.size:
        repeated = np.ones(idx.size, dtype=bool)
        repeated[np.unique(idx, return_index=True)[1]] = False
        position = int(np.argmax(repeated))
        raise ValueError(
            f"peel candidate {int(idx[position])} at position {position} "
            "repeats an earlier candidate"
        )
    return _peel_incremental(context, idx, beta, rtol)


#: Lowest active margins the incremental peel keeps in its shortlist
#: (see :func:`_peel_incremental`).
_PEEL_SHORTLIST = 64


def _band(margin: float) -> float:
    """Absolute half-width of the risk band around *margin*."""
    return PEEL_RISK_RTOL * max(1.0, abs(margin))


def _worst(parts) -> np.ndarray:
    """Worst-endpoint interference from per-endpoint ``(finite sum,
    infinite count)`` pairs (count ``None`` without shared nodes):
    ``inf`` where a count is positive, else the sum clamped at 0."""
    interf = None
    for fin, ninf in parts:
        part = np.maximum(fin, 0.0)
        if ninf is not None:
            part = np.where(ninf > 0, np.inf, part)
        interf = part if interf is None else np.maximum(interf, part)
    return interf


class _PeelEndpoint(NamedTuple):
    """One endpoint matrix of the peel: its maintained per-position
    sums and the backend accessors that read it."""

    fin: np.ndarray
    ninf: Optional[np.ndarray]
    col: Callable
    row: Callable
    cross_block: Callable
    gather_cols: Callable
    row_sums: Callable


def _peel_incremental(
    context: InterferenceContext,
    idx: np.ndarray,
    beta: Optional[float],
    rtol: float,
) -> np.ndarray:
    """The incremental peel (see :func:`peel_max_feasible_subset`).

    State per candidate position: the finite interference sum and the
    infinite-contribution count per endpoint (``inf - inf`` is ``nan``,
    so shared-node columns are tracked by count and resolved exactly,
    like :func:`_resolve`).  Retired positions keep stale values: every
    scan masks them out and a re-add overwrites them, so updates run
    unmasked.

    **Peel phase.**  Removing a victim only subtracts its gain column,
    so every other margin can only rise.  A full scan therefore keeps
    the :data:`_PEEL_SHORTLIST` lowest active margins and a *floor*,
    the smallest margin outside the shortlist; the floor stays a lower
    bound on every outside margin for the rest of the peel.  While a
    round's decision band (its minimum, widened to the threshold when
    the stop decision is at risk, plus the :data:`PEEL_RISK_RTOL` band)
    stays below the floor, no outside request can be the victim, a
    tied contender, or a reason to stop, so the round is decided inside
    the shortlist: its sums are updated from the ``s × s`` gain block
    gathered once per scan (``cross_block_*``), for a few ``O(s)``
    array operations per victim.  Otherwise the round runs as a full
    ``O(k)`` scan and rebuilds the shortlist.  Victims decided in the
    shortlist are folded into the full sums at the next scan with one
    ``np.subtract.reduce`` along axis 0 over their columns (rows of the
    cached transpose): a left fold, so the full sums are bitwise the
    sequential per-victim subtraction, and every margin, decision and
    risk event is the same as with an eager update.  (A lazy min-heap
    over all margins was tried before and lost: every removal shifts
    every member's margin, so every key goes stale every round.  The
    shortlist's floor is what makes most of those shifts irrelevant.)

    **Re-add phase.**  Members only join during re-add, so every
    margin in a trial can only fall below its value against the
    post-peel set.  A dropped request whose own margin against the
    post-peel set, or some member's margin with its column added, lies
    below the threshold by more than twice the risk band is rejected by
    the loop whatever it admits first.  (Twice: the own side's fresh
    pairwise sum over a larger member set may reorder its rounding,
    by far less than one band.)  One pass tests every dropped request,
    the own side with ``row_sums_*`` and the member side with
    ``cross_block_*`` in ``tile_rows`` member tiles (``O(tile_rows ×
    k)`` scratch, never a ``(k, k)`` block); only the survivors run the
    per-request trial loop.

    Any decision within the :data:`PEEL_RISK_RTOL` band of its boundary
    is resolved by fresh reference-order row sums and counted as a risk
    event.  What remains per victim is the shortlist's handful of small
    array operations and, per full scan, ``O(k)`` work; per surviving
    re-add trial, ``O(k)`` work.
    """
    global _peel_risk_events
    beta_v = context.beta if beta is None else float(beta)
    noise = context.noise
    backend = context.backend
    signals = context.signals
    threshold = 1.0 - rtol
    k0 = idx.size
    has_inf = backend.has_infinite_gains
    sig = signals[idx]
    tile = max(1, int(getattr(backend, "tile_rows", DEFAULT_TILE_ROWS)))

    def init_sums(row_sums_fn, cross_fn):
        if not has_inf:
            # Tiled per-row pairwise sums: bit-identical to the
            # reference's first-round block row sums.
            return row_sums_fn(idx), None
        fin = np.empty(k0)
        ninf = np.zeros(k0, dtype=np.int64)
        for lo in range(0, k0, tile):
            hi = min(lo + tile, k0)
            block = cross_fn(idx[lo:hi], idx)
            finite = np.isfinite(block)
            fin[lo:hi] = np.where(finite, block, 0.0).sum(axis=1)
            ninf[lo:hi] = (~finite).sum(axis=1)
        return fin, ninf

    def endpoint(suffix: str) -> _PeelEndpoint:
        cross_block = getattr(backend, "cross_block_" + suffix)
        row_sums = getattr(backend, "row_sums_" + suffix)
        return _PeelEndpoint(
            *init_sums(row_sums, cross_block),
            col=getattr(backend, "col_" + suffix),
            row=getattr(backend, "row_" + suffix),
            cross_block=cross_block,
            gather_cols=getattr(backend, "gather_cols_" + suffix),
            row_sums=row_sums,
        )

    # A directed instance has one gain matrix: one endpoint.
    endpoints = [endpoint(e) for e in (("u",) if backend.directed else ("u", "v"))]

    def exact_margin(g: int, member_globals: np.ndarray) -> float:
        """Fresh margin of request *g* among *member_globals*, summed
        in the reference's membership order — the same contiguous value
        sequence (hence the same bits) the reference loop's
        :meth:`InterferenceContext.margins` call reduces for this
        row."""
        interf = -np.inf
        for ep in endpoints:
            part = float(ep.row(g)[member_globals].sum())
            if part > interf:
                interf = part
        if np.isinf(interf):
            return 0.0
        denom = beta_v * (interf + noise)
        if denom > 0:
            return float(signals[g]) / denom
        return float("inf")

    def near(a: float, b: float) -> bool:
        if math.isinf(a) or math.isinf(b):
            # Infinite (zero-denominator) and zero (shared-node)
            # margins come from exact state — never at risk.
            return False
        return abs(a - b) <= PEEL_RISK_RTOL * max(1.0, abs(a), abs(b))

    active = np.ones(k0, dtype=bool)
    dropped: List[int] = []
    deferred: List[int] = []  # victims the full sums have not seen
    k = k0
    risk = 0

    def fold() -> None:
        """Subtract the deferred victims' columns from the full sums,
        in peel order."""
        if not deferred:
            return
        victims = np.asarray(deferred)
        deferred.clear()
        for ep in endpoints:
            cols = np.take(ep.gather_cols(victims).T, idx, axis=1)
            if ep.ninf is not None:
                finite = np.isfinite(cols)
                np.subtract(ep.ninf, (~finite).sum(axis=0), out=ep.ninf)
                cols = np.where(finite, cols, 0.0)
            np.subtract.reduce(
                np.concatenate((ep.fin[None], cols)), axis=0, out=ep.fin
            )

    def decide(m: np.ndarray, globals_: np.ndarray, floor) -> Optional[int]:
        """One peel round over margins *m* of requests *globals_*
        (retired entries masked to ``inf``): the victim's index into
        *m*, ``-1`` to stop peeling, or ``None`` when the round's
        decision band reaches *floor*, the lower bound on every margin
        outside *m* (``None`` when *m* covers every candidate)."""
        nonlocal risk
        a = int(np.argmin(m))
        cur = float(m[a])
        # If the minimum is inf, every margin is inf as well, so the
        # stop below fires even when argmin lands on a masked entry.
        at_threshold = near(cur, threshold)
        # The decision boundary: the round minimum (argmin ties),
        # widened to the threshold when the stop/peel decision itself
        # is at risk.
        bound = max(cur, threshold) if at_threshold else cur
        reach = bound + _band(bound)
        if floor is not None and not reach < floor:
            return None
        if not at_threshold and cur >= threshold:
            return -1  # the minimum is certainly feasible -> all are
        contenders = [a]
        if math.isfinite(bound):
            tied = np.flatnonzero(m <= reach)
            if tied.size > 1:
                contenders = tied
        if not at_threshold and len(contenders) == 1:
            return a
        # Threshold-crossing or argmin-tie risk: resolve the implicated
        # margins exactly and count the event.
        risk += 1
        member_globals = idx[active]
        exact = sorted(
            (exact_margin(int(globals_[q]), member_globals), int(q))
            for q in contenders
        )
        if exact[0][0] >= threshold:
            return -1  # exact: every margin clears the threshold
        return exact[0][1]

    def retire(position: int) -> None:
        nonlocal k
        g = int(idx[position])
        dropped.append(g)
        deferred.append(g)
        active[position] = False
        k -= 1

    def shortlist(m: np.ndarray):
        """The lowest live entries of the full-scan margins *m*: their
        positions (ascending), floor, requests, signals and live flags,
        and per endpoint their sums, counts and ``s × s`` gain block
        (transposed: a victim's column is one contiguous row)."""
        if k0 > _PEEL_SHORTLIST:
            part = np.argpartition(m, _PEEL_SHORTLIST)
            short = np.sort(part[:_PEEL_SHORTLIST])
            # Margins only rise from here, so the smallest one left out
            # bounds every outside margin from below.
            floor = float(m[part[_PEEL_SHORTLIST]])
        else:
            short, floor = np.arange(k0), np.inf
        short_globals = idx[short]
        parts = []
        for ep in endpoints:
            block = np.ascontiguousarray(
                ep.cross_block(short_globals, short_globals).T
            )
            if ep.ninf is None:
                parts.append((ep.fin[short], None, block, None))
            else:
                finite = np.isfinite(block)
                parts.append(
                    (
                        ep.fin[short],
                        ep.ninf[short],
                        np.where(finite, block, 0.0),
                        ~finite,
                    )
                )
        return short, floor, short_globals, sig[short], active[short], parts

    # --- peel phase ---------------------------------------------------
    short = np.zeros(0, dtype=int)
    while k > 0:
        q = None
        if short.size:
            sm = _margins_from(
                short_sig, _worst((p[0], p[1]) for p in parts), beta_v, noise
            )
            sm[~short_active] = np.inf
            q = decide(sm, short_globals, floor)
        if q is None:
            # Full scan: bring the sums up to date, decide on every
            # margin, then rebuild the shortlist around the new minima.
            fold()
            m = _margins_from(
                sig, _worst((ep.fin, ep.ninf) for ep in endpoints), beta_v, noise
            )
            m[~active] = np.inf
            q = decide(m, idx, None)
            if q < 0:
                break
            retire(q)
            fold()
            m[q] = np.inf
            short, floor, short_globals, short_sig, short_active, parts = shortlist(m)
        elif q < 0:
            break
        else:
            retire(int(short[q]))
            short_active[q] = False
            for sfin, sninf, bfin, binf in parts:
                np.subtract(sfin, bfin[q], out=sfin)
                if sninf is not None:
                    np.subtract(sninf, binf[q], out=sninf)
    fold()

    # --- re-add phase -------------------------------------------------
    # Membership order matters for the exact-resolution sums: the
    # reference appends every accepted re-add at the end of its buffer.
    member_pos = np.flatnonzero(active)
    order_list = [int(g) for g in idx[member_pos]]
    trials = np.asarray(dropped[::-1], dtype=int)
    if member_pos.size and trials.size:
        cut = threshold - 2.0 * _band(threshold)
        trials = trials[
            ~_hopeless_readds(
                endpoints, idx, member_pos, trials, signals, beta_v, noise, cut, tile
            )
        ]
    pos_of = {int(g): pos for pos, g in enumerate(idx)}

    for g in trials.tolist():
        pos = pos_of[g]
        positions = np.flatnonzero(active)
        member_globals = idx[positions]
        mem_interf: Optional[np.ndarray] = None
        req_interf = -np.inf
        commits = []
        for ep in endpoints:
            fin, ninf = ep.fin, ep.ninf
            col_all = ep.col(g)[idx]  # (k0,) by candidate position
            colv = col_all[positions]
            rowv = ep.row(g)[member_globals]
            if ninf is None:
                part = np.maximum(fin[positions] + colv, 0.0)
                r_fin = float(rowv.sum())
                r_ninf = 0
            else:
                cfin = np.isfinite(colv)
                e_fin = fin[positions] + np.where(cfin, colv, 0.0)
                e_ninf = ninf[positions] + (~cfin)
                part = np.where(e_ninf > 0, np.inf, np.maximum(e_fin, 0.0))
                rfinite = np.isfinite(rowv)
                r_fin = float(np.where(rfinite, rowv, 0.0).sum())
                r_ninf = int((~rfinite).sum())
            commits.append((fin, ninf, col_all, r_fin, r_ninf))
            r_part = np.inf if r_ninf > 0 else max(r_fin, 0.0)
            mem_interf = (
                part if mem_interf is None else np.maximum(mem_interf, part)
            )
            if r_part > req_interf:
                req_interf = r_part
        mem_margins = _margins_from(sig[positions], mem_interf, beta_v, noise)
        if np.isinf(req_interf):
            req_margin = 0.0
        else:
            denom = beta_v * (req_interf + noise)
            req_margin = (
                float(signals[g]) / denom if denom > 0 else float("inf")
            )
        margins_all = np.append(mem_margins, req_margin)
        tol = PEEL_RISK_RTOL * np.maximum(1.0, np.abs(margins_all))
        at_risk = np.isfinite(margins_all) & (
            np.abs(margins_all - threshold) <= tol
        )
        ok = bool(np.all(margins_all[~at_risk] >= threshold))
        if np.any(at_risk):
            risk += 1
            if ok:
                trial_globals = np.asarray(order_list + [g], dtype=int)
                for j in np.flatnonzero(at_risk):
                    gq = (
                        g
                        if j == mem_margins.size
                        else int(member_globals[j])
                    )
                    if exact_margin(gq, trial_globals) < threshold:
                        ok = False
                        break
        if ok:
            for fin, ninf, col_all, r_fin, r_ninf in commits:
                if ninf is None:
                    np.add(fin, col_all, out=fin)
                else:
                    cfin = np.isfinite(col_all)
                    np.add(fin, np.where(cfin, col_all, 0.0), out=fin)
                    np.add(ninf, ~cfin, out=ninf)
                fin[pos] = r_fin
                if ninf is not None:
                    ninf[pos] = r_ninf
            active[pos] = True
            order_list.append(g)

    _peel_risk_events += risk
    return np.asarray(sorted(order_list), dtype=int)


def _hopeless_readds(
    endpoints: List[_PeelEndpoint],
    idx: np.ndarray,
    member_pos: np.ndarray,
    trials: np.ndarray,
    signals: np.ndarray,
    beta: float,
    noise: float,
    cut: float,
    tile: int,
) -> np.ndarray:
    """Mask of re-add *trials* whose own margin against the members at
    candidate positions *member_pos*, or some member's margin with the
    trial's column added, is below *cut* (see :func:`_peel_incremental`).

    The member-side values are bitwise those of the trial loop's first
    trial: the members' maintained sums plus the trial's gain, resolved
    the same way.
    """
    member_globals = idx[member_pos]
    own = _margins_from(
        signals[trials],
        _worst((ep.row_sums(trials, member_globals), None) for ep in endpoints),
        beta,
        noise,
    )
    worst_member = np.full(trials.size, np.inf)
    for lo in range(0, member_pos.size, tile):
        pos = member_pos[lo : lo + tile]
        parts = []
        for ep in endpoints:
            # (members, trials): what each trial induces at each member.
            block = ep.cross_block(idx[pos], trials)
            if ep.ninf is None:
                parts.append((ep.fin[pos, None] + block, None))
            else:
                finite = np.isfinite(block)
                parts.append(
                    (
                        ep.fin[pos, None] + np.where(finite, block, 0.0),
                        ep.ninf[pos, None] + ~finite,
                    )
                )
        interf = _worst(parts)
        margins = _margins_from(
            np.broadcast_to(signals[idx[pos], None], interf.shape),
            interf,
            beta,
            noise,
        )
        np.minimum(worst_member, margins.min(axis=0), out=worst_member)
    return (own < cut) | (worst_member < cut)
