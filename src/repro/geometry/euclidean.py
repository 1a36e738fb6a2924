"""Euclidean metrics over explicit point sets in R^d."""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.geometry.metric import Metric


class EuclideanMetric(Metric):
    """The Euclidean metric over a finite point set in R^d.

    Parameters
    ----------
    points:
        Array-like of shape ``(n, d)`` (or ``(n,)`` for points on the
        line, which is reshaped to ``(n, 1)``).
    """

    def __init__(self, points: Union[np.ndarray, Sequence[Sequence[float]]]):
        super().__init__()
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {points.shape}")
        if points.shape[0] == 0:
            raise ValueError("point set must be non-empty")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        self._points = points.copy()
        self._points.setflags(write=False)

    @property
    def n(self) -> int:
        return self._points.shape[0]

    @property
    def dim(self) -> int:
        """Ambient dimension d."""
        return self._points.shape[1]

    @property
    def points(self) -> np.ndarray:
        """The ``(n, d)`` coordinate array (read-only)."""
        return self._points

    def _compute_matrix(self) -> np.ndarray:
        diff = self._points[:, None, :] - self._points[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=-1))

    # Tiled access (see Metric.pair_distances / Metric.distance_block):
    # computed straight from the coordinates with the exact elementwise
    # operations of _compute_matrix — subtract, square, sum over the
    # coordinate axis, sqrt — so every entry is bit-identical to the
    # corresponding full-matrix entry without ever building the matrix.

    def pair_distances(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        us = np.asarray(us, dtype=int)
        vs = np.asarray(vs, dtype=int)
        # np.take gathers whole coordinate rows several times faster
        # than fancy indexing, with the same values.
        points = self._points
        diff = points.take(us, axis=0) - points.take(vs, axis=0)
        return np.sqrt((diff * diff).sum(axis=-1))

    def distance_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        a = self._points.take(rows, axis=0)
        b = self._points.take(cols, axis=0)
        if 0 < self.dim < 8:
            # Accumulate squared differences one coordinate at a time,
            # in place: (r, c) scratch per dimension instead of an
            # (r, c, d) broadcast.  For fewer than 8 summands NumPy's
            # axis-sum is a plain left-to-right reduction starting at
            # the first term, so this accumulation order (and hence
            # every bit) matches _compute_matrix.
            total = a[:, 0, None] - b[None, :, 0]
            total *= total
            for k in range(1, self.dim):
                diff = a[:, k, None] - b[None, :, k]
                diff *= diff
                total += diff
            return np.sqrt(total, out=total)
        diff = a[:, None, :] - b[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=-1))
