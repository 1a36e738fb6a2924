"""Abstract metric-space interface.

A :class:`Metric` exposes ``n`` nodes indexed ``0 .. n-1`` and pairwise
distances.  Implementations must guarantee symmetry, non-negativity and
zero self-distance; the triangle inequality is assumed (and can be
verified with :func:`is_metric_matrix`).

Every gain build in the library (dense, sparse and sharded
backends, and the full-matrix builders of
:mod:`repro.core.interference`) reads distances through *tiled*
access: :meth:`Metric.pair_distances`, :meth:`Metric.distance_block`
and :meth:`Metric.loss_block`.  The defaults gather from the full
``(n, n)`` distance matrix, which subclasses compute lazily and cache;
coordinate-backed metrics such as
:class:`repro.geometry.euclidean.EuclideanMetric` override them to
compute entries directly (bit-identical) — so on those metrics a block
of rows never forces the O(n^2) matrix into memory.
"""

from __future__ import annotations

import abc
import os
import threading
from typing import Optional

import numpy as np

from repro.util.validation import check_index

#: Serializes the lazy computation of every metric's cached matrix; a
#: forked child replaces it (a thread may have held it at the fork).
_matrix_lock = threading.RLock()


def _new_matrix_lock() -> None:
    global _matrix_lock
    _matrix_lock = threading.RLock()


os.register_at_fork(after_in_child=_new_matrix_lock)


class Metric(abc.ABC):
    """A finite metric space over nodes ``0 .. n-1``."""

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Number of nodes."""

    @abc.abstractmethod
    def _compute_matrix(self) -> np.ndarray:
        """Return the full ``(n, n)`` distance matrix."""

    def __init__(self) -> None:
        self._matrix_cache: Optional[np.ndarray] = None

    def distance(self, u: int, v: int) -> float:
        """Distance between nodes *u* and *v*."""
        u = check_index(u, self.n, "u")
        v = check_index(v, self.n, "v")
        return float(self.distance_matrix()[u, v])

    def distance_matrix(self) -> np.ndarray:
        """The full pairwise distance matrix (cached, read-only).

        Computed once even when the row-band tasks of a gain build
        (:mod:`repro.core.tiles`) ask for it at the same time."""
        if self._matrix_cache is None:
            with _matrix_lock:
                if self._matrix_cache is None:
                    matrix = np.asarray(self._compute_matrix(), dtype=float)
                    if matrix.shape != (self.n, self.n):
                        raise ValueError(
                            f"distance matrix shape {matrix.shape} != "
                            f"({self.n}, {self.n})"
                        )
                    matrix.setflags(write=False)
                    self._matrix_cache = matrix
        return self._matrix_cache

    def loss_matrix(self, alpha: float) -> np.ndarray:
        """The full pairwise loss matrix ``l(u, v) = d(u, v)**alpha``
        (§1.1), recomputed on every call from the cached distance
        matrix.

        A reference for tests and small analyses; the library's gain
        builds use :meth:`loss_block` tiles instead, whose entries
        match this matrix bit for bit.
        """
        if alpha < 1:
            raise ValueError(f"path-loss exponent alpha must be >= 1, got {alpha}")
        return self.distance_matrix() ** alpha

    def pair_distances(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Distances ``d(us[k], vs[k])`` for aligned index arrays.

        The default gathers from the cached full matrix.  Metrics with
        a coordinate representation override this to compute the values
        directly (bit-identical entries) so that callers — e.g.
        :class:`repro.core.instance.Instance` resolving its link
        lengths — never force the O(n^2) matrix for a handful of pairs.
        """
        us = np.asarray(us, dtype=int)
        vs = np.asarray(vs, dtype=int)
        return self.distance_matrix()[us, vs]

    def distance_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The ``(len(rows), len(cols))`` distance block
        ``d(rows[i], cols[j])``.

        Same contract as :meth:`pair_distances`: the default is a
        gather from the cached matrix, coordinate-backed metrics
        compute the block directly with bit-identical entries.  Either
        way the block is a fresh array the caller may overwrite
        (:meth:`loss_block` raises it to ``alpha`` in place).  This is
        the primitive the tiled gain builds iterate over.
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        return self.distance_matrix()[np.ix_(rows, cols)]

    def loss_block(
        self, rows: np.ndarray, cols: np.ndarray, alpha: float
    ) -> np.ndarray:
        """Loss block ``d(rows[i], cols[j])**alpha`` (tiled
        :meth:`loss_matrix`; same elementwise power, so entries match
        the full loss matrix bit-for-bit)."""
        if alpha < 1:
            raise ValueError(f"path-loss exponent alpha must be >= 1, got {alpha}")
        block = self.distance_block(rows, cols)
        block **= alpha
        return block

    def loss(self, u: int, v: int, alpha: float) -> float:
        """Loss ``l(u, v) = d(u, v)**alpha`` between two nodes."""
        return self.distance(u, v) ** alpha

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


def is_metric_matrix(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    """Check that *matrix* is a valid metric (symmetry, zero diagonal,
    non-negativity, triangle inequality) up to *tol*.

    Runs in O(n^3); intended for tests and input validation, not hot
    paths.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    n = matrix.shape[0]
    if not np.allclose(np.diag(matrix), 0.0, atol=tol):
        return False
    if not np.allclose(matrix, matrix.T, atol=tol):
        return False
    if np.any(matrix < -tol):
        return False
    # Triangle inequality: d(i, k) <= d(i, j) + d(j, k) for all j.
    for j in range(n):
        through_j = matrix[:, j][:, None] + matrix[j, :][None, :]
        if np.any(matrix > through_j + tol):
            return False
    return True
