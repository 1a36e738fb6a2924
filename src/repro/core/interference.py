"""Interference computations for both problem variants.

The central objects are *gain matrices*: ``G[i, j]`` is the received
power at request ``i``'s relevant endpoint(s) due to request ``j``
transmitting with power ``p_j``.

* Directed (§1.1): ``G[i, j] = p_j / l(u_j, v_i)`` — only the receiver
  ``v_i`` matters, and only the *sender* ``u_j`` of another pair
  interferes.
* Bidirectional (§1.1): both endpoints of ``i`` must decode and the
  worst endpoint of pair ``j`` interferes:
  ``G_w[i, j] = p_j / min(l(u_j, w), l(v_j, w))`` for
  ``w in {u_i, v_i}``.

Pairs that share a node produce infinite entries (zero loss), which is
the correct semantics: such pairs can never share a color.

Every gain entry comes from one primitive, :func:`_gain_block`, over
:meth:`~repro.geometry.metric.Metric.loss_block` tiles; the full-matrix
builders fill their ``(n, n)`` output one row tile at a time and never
build the metric's full matrix over all ``2n`` endpoints.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.instance import Direction, Instance

#: Default number of gain-matrix rows materialized at once while
#: building (or row-summing) gains; peak scratch memory is
#: ``O(tile * n)`` on top of the output.
DEFAULT_TILE_ROWS = 512


def _safe_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Elementwise ``numerator / denominator`` with ``x/0 -> inf``,
    written over *denominator* (a fresh float block of the result's
    shape)."""
    positive = denominator > 0
    if np.count_nonzero(positive) == positive.size:
        # Fast path (no shared-node pairs): a plain divide produces the
        # identical values without the inf-fill and masked-divide
        # passes.
        return np.true_divide(numerator, denominator, out=denominator)
    np.divide(numerator, denominator, out=denominator, where=positive)
    denominator[~positive] = np.inf
    return denominator


def _gain_block(
    instance: Instance,
    powers: np.ndarray,
    endpoint_nodes: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """One endpoint's gain sub-block ``G[rows][:, cols]``, with rows
    decoding at ``endpoint_nodes`` (receivers for ``G``/``G_v``,
    senders for ``G_u``).

    Every entry takes the same elementwise operations
    (``distance ** alpha``, :func:`_safe_divide`, zero where a row and
    column name the same request), so a tile equals the matching block
    of the full matrix bit for bit.  The full-matrix builders, the
    sparse and sharded builds and the appends all fill from it.
    """
    metric = instance.metric
    alpha = instance.alpha
    w = endpoint_nodes[rows]
    loss = metric.loss_block(w, instance.senders[cols], alpha)
    if instance.direction is not Direction.DIRECTED:
        np.minimum(
            loss, metric.loss_block(w, instance.receivers[cols], alpha), out=loss
        )
    gains = _safe_divide(powers[cols][None, :], loss)
    diagonal = rows[:, None] == cols[None, :]
    if np.any(diagonal):
        gains[diagonal] = 0.0
    return gains


def _gain_lines(
    instance: Instance,
    powers: np.ndarray,
    endpoint_nodes: np.ndarray,
    slot: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One endpoint's gain row ``G[slot, :]`` and column ``G[:, slot]``.

    Bit for bit ``_gain_block(..., [slot], all)[0]`` and
    ``_gain_block(..., all, [slot])[:, 0]``: the same elementwise
    operations on one ``(1, n)`` and one ``(n, 1)`` loss block per
    request endpoint, without the gathers over every column and the
    diagonal search a general block needs (the diagonal entry is
    ``slot`` itself).  A slot edit (an arrival into a reused slot)
    computes just these.
    """
    metric = instance.metric
    alpha = instance.alpha
    here = endpoint_nodes[slot : slot + 1]
    loss = metric.loss_block(here, instance.senders, alpha)
    there = metric.loss_block(endpoint_nodes, instance.senders[slot : slot + 1], alpha)
    if instance.direction is not Direction.DIRECTED:
        np.minimum(loss, metric.loss_block(here, instance.receivers, alpha), out=loss)
        np.minimum(
            there,
            metric.loss_block(
                endpoint_nodes, instance.receivers[slot : slot + 1], alpha
            ),
            out=there,
        )
    row = _safe_divide(powers[None, :], loss)[0]
    col = _safe_divide(powers[slot : slot + 1][None, :], there)[:, 0]
    row[slot] = 0.0
    col[slot] = 0.0
    return row, col


def _tiled_gain_matrix(
    instance: Instance, powers: np.ndarray, endpoint_nodes: np.ndarray
) -> np.ndarray:
    """The full ``(n, n)`` gain matrix decoding at ``endpoint_nodes``,
    filled one :data:`DEFAULT_TILE_ROWS` row tile at a time (a single
    tile is the matrix itself)."""
    idx = np.arange(instance.n)
    if idx.size <= DEFAULT_TILE_ROWS:
        return _gain_block(instance, powers, endpoint_nodes, idx, idx)
    out = np.empty((idx.size, idx.size))
    for lo in range(0, idx.size, DEFAULT_TILE_ROWS):
        rows = idx[lo : lo + DEFAULT_TILE_ROWS]
        out[lo : lo + rows.size] = _gain_block(
            instance, powers, endpoint_nodes, rows, idx
        )
    return out


def directed_gain_matrix(instance: Instance, powers: np.ndarray) -> np.ndarray:
    """The directed gain matrix ``G[i, j] = p_j / l(u_j, v_i)``.

    The diagonal is set to zero (a pair does not interfere with
    itself).
    """
    powers = np.asarray(powers, dtype=float)
    if instance.direction is not Direction.DIRECTED:
        instance = instance.with_direction(Direction.DIRECTED)
    return _tiled_gain_matrix(instance, powers, instance.receivers)


def bidirectional_gain_matrices(
    instance: Instance, powers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The two endpoint gain matrices of the bidirectional variant.

    Returns ``(G_u, G_v)`` where ``G_u[i, j]`` is the interference pair
    ``j`` induces at endpoint ``u_i`` and ``G_v[i, j]`` at ``v_i``:
    ``p_j / min(l(u_j, w), l(v_j, w))``.  Diagonals are zero.
    """
    powers = np.asarray(powers, dtype=float)
    if instance.direction is not Direction.BIDIRECTIONAL:
        instance = instance.with_direction(Direction.BIDIRECTIONAL)
    return (
        _tiled_gain_matrix(instance, powers, instance.senders),
        _tiled_gain_matrix(instance, powers, instance.receivers),
    )


def _class_sum(gains: np.ndarray, colors: Optional[np.ndarray]) -> np.ndarray:
    """Row sums of *gains* restricted to same-color columns, masked
    ``DEFAULT_TILE_ROWS`` rows at a time: each row reduces one
    contiguous length-``n`` buffer, so the sums equal those of one
    ``(n, n)`` mask bit for bit."""
    n = gains.shape[0]
    if colors is None:
        return gains.sum(axis=1)
    colors = np.asarray(colors)
    sums = np.empty(n)
    for lo in range(0, n, DEFAULT_TILE_ROWS):
        hi = min(lo + DEFAULT_TILE_ROWS, n)
        same = colors[lo:hi, None] == colors[None, :]
        same[np.arange(hi - lo), np.arange(lo, hi)] = False
        # 0 * inf would be nan; mask infinities explicitly.
        sums[lo:hi] = np.where(same, gains[lo:hi], 0.0).sum(axis=1)
    return sums


def directed_interference(
    instance: Instance,
    powers: np.ndarray,
    colors: Optional[np.ndarray] = None,
    subset: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Interference at each receiver in the directed variant.

    Parameters
    ----------
    colors:
        If given, only same-color pairs interfere.
    subset:
        If given, restrict the instance to these request indices first
        (the result has ``len(subset)`` entries).
    """
    if subset is not None:
        subset = np.asarray(subset, dtype=int)
        sub = instance.subset(subset)
        sub_powers = np.asarray(powers, dtype=float)[subset]
        sub_colors = None if colors is None else np.asarray(colors)[subset]
        return directed_interference(sub, sub_powers, sub_colors)
    gains = directed_gain_matrix(instance, powers)
    return _class_sum(gains, colors)


def bidirectional_interference(
    instance: Instance,
    powers: np.ndarray,
    colors: Optional[np.ndarray] = None,
    subset: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Worst-endpoint interference for each pair, bidirectional variant.

    Returns, for each request ``i``, ``max_w`` over the two endpoints of
    the total same-color interference at ``w``.  The SINR constraint
    must hold at *both* endpoints, so the maximum is the binding value.
    """
    if subset is not None:
        subset = np.asarray(subset, dtype=int)
        sub = instance.subset(subset)
        sub_powers = np.asarray(powers, dtype=float)[subset]
        sub_colors = None if colors is None else np.asarray(colors)[subset]
        return bidirectional_interference(sub, sub_powers, sub_colors)
    gains_u, gains_v = bidirectional_gain_matrices(instance, powers)
    return np.maximum(_class_sum(gains_u, colors), _class_sum(gains_v, colors))


def interference(
    instance: Instance,
    powers: np.ndarray,
    colors: Optional[np.ndarray] = None,
    subset: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Variant-dispatching interference (directed or bidirectional)."""
    if instance.direction is Direction.DIRECTED:
        return directed_interference(instance, powers, colors, subset)
    return bidirectional_interference(instance, powers, colors, subset)
