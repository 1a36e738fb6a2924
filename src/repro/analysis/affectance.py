"""Affectance: the normalized interference measure of the follow-up
SINR-scheduling literature.

The affectance of request ``i`` by request ``j`` under powers ``p`` is
the fraction of ``i``'s SINR budget that ``j`` consumes:

    a_p(j -> i) = beta * (p_j / l(u_j -> i's worst endpoint)) /
                  (p_i / l_i)

(capped at 1 in the "one-slot" convention; uncapped here by default,
with the cap as an option).  A set is feasible iff every request's
total affectance is below 1.  Introduced in the literature that grew
out of this paper (Kesselheim et al.), it is the standard tool for
capacity arguments and makes a natural addition to the analysis layer.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.context import InterferenceContext, get_context
from repro.core.gains import DEFAULT_TILE_ROWS
from repro.core.instance import Instance


def _worst_block(
    context: InterferenceContext, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Worst-endpoint gain block ``G[np.ix_(rows, cols)]`` through the
    backend block primitives (no dense materialization)."""
    backend = context.backend
    block = backend.cross_block_u(rows, cols)
    if not backend.directed:
        block = np.maximum(block, backend.cross_block_v(rows, cols))
    return block


def _blockwise_row_affectance(
    context: InterferenceContext,
    idx: np.ndarray,
    beta: float,
    capped: bool,
) -> np.ndarray:
    """Row sums of the affectance submatrix ``A[np.ix_(idx, idx)]``,
    tiled in :data:`~repro.core.gains.DEFAULT_TILE_ROWS` full-width row
    strips.

    Each strip applies the same elementwise formula as
    :func:`affectance_matrix` to an exact gain block and reduces along
    the complete trailing axis, so the totals are bit-identical to the
    dense route — ε-pruned sparse backends just never materialize
    ``(n, n)`` arrays.
    """
    signals = context.signals
    totals = np.empty(idx.size)
    for lo in range(0, idx.size, DEFAULT_TILE_ROWS):
        rows = idx[lo : lo + DEFAULT_TILE_ROWS]
        block = beta * _worst_block(context, rows, idx) / (
            signals[rows][:, None]
        )
        if capped:
            block = np.minimum(block, 1.0)
        totals[lo : lo + rows.size] = block.sum(axis=1)
    return totals


def affectance_matrix(
    instance: Instance,
    powers: np.ndarray,
    beta: Optional[float] = None,
    capped: bool = False,
) -> np.ndarray:
    """The pairwise affectance matrix ``A[i, j] = a_p(j -> i)``.

    ``A[i, j]`` is the fraction of request ``i``'s interference budget
    consumed by request ``j``; the diagonal is zero.  For the
    bidirectional variant the worst endpoint of ``i`` is charged.

    The worst-endpoint gain matrix is fetched from the context cache.
    """
    beta = instance.beta if beta is None else float(beta)
    powers = np.asarray(powers, dtype=float)
    gains = get_context(instance, powers).worst_gains
    signals = powers / instance.link_losses
    affectance = beta * gains / signals[:, None]
    if capped:
        affectance = np.minimum(affectance, 1.0)
    return affectance


def total_affectance(
    instance: Instance,
    powers: np.ndarray,
    subset: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
) -> np.ndarray:
    """Total affectance suffered by each request of *subset*.

    A value below 1 means the request's SINR constraint holds within
    the subset; the maximum total affectance of a set is its natural
    "load" measure.
    """
    powers = np.asarray(powers, dtype=float)
    context = get_context(instance, powers)
    if context.config.backend != "dense":
        beta_val = instance.beta if beta is None else float(beta)
        idx = (
            np.arange(instance.n)
            if subset is None
            else np.asarray(subset, dtype=int)
        )
        return _blockwise_row_affectance(context, idx, beta_val, capped=False)
    matrix = affectance_matrix(instance, powers, beta=beta)
    if subset is None:
        return matrix.sum(axis=1)
    idx = np.asarray(subset, dtype=int)
    sub = matrix[np.ix_(idx, idx)]
    return sub.sum(axis=1)


def max_average_affectance(
    instance: Instance,
    powers: np.ndarray,
    beta: Optional[float] = None,
) -> float:
    """Maximum over requests of average affectance — a lower-bound
    style load statistic used in the follow-up literature: a schedule
    into ``k`` colors forces some class to carry at least a ``1/k``
    fraction of each row's affectance, so ``max_i avg_j A[i, j] * n``
    relates to achievable class sizes."""
    if instance.n <= 1:
        return 0.0
    powers = np.asarray(powers, dtype=float)
    context = get_context(instance, powers)
    if context.config.backend != "dense":
        beta_val = instance.beta if beta is None else float(beta)
        totals = _blockwise_row_affectance(
            context, np.arange(instance.n), beta_val, capped=True
        )
        return float(totals.max() / (instance.n - 1))
    matrix = affectance_matrix(instance, powers, beta=beta, capped=True)
    return float(matrix.sum(axis=1).max() / (instance.n - 1))


def fixed_power_conflict_bound(
    instance: Instance,
    powers: np.ndarray,
    beta: Optional[float] = None,
) -> int:
    """A sound lower bound on colors *for these fixed powers*.

    Two requests with ``A[i, j] >= 1`` or ``A[j, i] >= 1`` can never
    share a color under *powers* (one of them would spend its whole
    SINR budget on the other alone), so any clique in that conflict
    graph needs pairwise-distinct colors.  A greedy clique supplies the
    certificate.  Note this bounds colorings under the *given* powers;
    :func:`repro.analysis.bounds.clique_lower_bound` is the
    power-agnostic analogue.
    """
    powers = np.asarray(powers, dtype=float)
    context = get_context(instance, powers)
    if context.config.backend != "dense":
        beta_val = instance.beta if beta is None else float(beta)
        return _blockwise_conflict_bound(context, beta_val)
    matrix = affectance_matrix(instance, powers, beta=beta, capped=False)
    conflicts = (matrix >= 1.0) | (matrix.T >= 1.0)
    np.fill_diagonal(conflicts, False)
    degrees = conflicts.sum(axis=1)
    best = 1
    for seed in np.argsort(-degrees)[: min(10, instance.n)]:
        clique = [int(seed)]
        candidates = set(np.flatnonzero(conflicts[seed]).tolist())
        while candidates:
            vertex = max(candidates, key=lambda v: degrees[v])
            clique.append(int(vertex))
            candidates &= set(np.flatnonzero(conflicts[vertex]).tolist())
        best = max(best, len(clique))
    return best


def _conflict_rows(
    context: InterferenceContext, rows: np.ndarray, beta: float
) -> np.ndarray:
    """Boolean conflict-graph rows ``conflicts[rows, :]`` from gain
    blocks: ``i`` and ``j`` conflict when either direction's affectance
    reaches 1.  Diagonal entries are cleared."""
    n = context.n
    all_idx = np.arange(n)
    signals = context.signals
    out_aff = beta * _worst_block(context, rows, all_idx) / (
        signals[rows][:, None]
    )
    in_aff = beta * _worst_block(context, all_idx, rows) / signals[:, None]
    conflicts = (out_aff >= 1.0) | (in_aff.T >= 1.0)
    conflicts[np.arange(rows.size), rows] = False
    return conflicts


def _blockwise_conflict_bound(
    context: InterferenceContext, beta: float
) -> int:
    """:func:`fixed_power_conflict_bound` on backend blocks: degrees
    from full-width row strips, then clique rows fetched on demand —
    the ``(n, n)`` conflict graph is never materialized at once."""
    n = context.n
    all_idx = np.arange(n)
    degrees = np.empty(n, dtype=np.intp)
    for lo in range(0, n, DEFAULT_TILE_ROWS):
        rows = all_idx[lo : lo + DEFAULT_TILE_ROWS]
        degrees[lo : lo + rows.size] = _conflict_rows(
            context, rows, beta
        ).sum(axis=1)

    def row(vertex: int) -> np.ndarray:
        return _conflict_rows(context, np.asarray([vertex]), beta)[0]

    best = 1
    for seed in np.argsort(-degrees)[: min(10, n)]:
        clique = [int(seed)]
        candidates = set(np.flatnonzero(row(int(seed))).tolist())
        while candidates:
            vertex = max(candidates, key=lambda v: degrees[v])
            clique.append(int(vertex))
            candidates &= set(np.flatnonzero(row(vertex)).tolist())
        best = max(best, len(clique))
    return best
