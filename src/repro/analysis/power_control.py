"""Feasibility with free (non-oblivious) power assignments.

Theorem 1 compares oblivious assignments against an *optimal* power
assignment.  Deciding whether a set of requests can share one color
under *some* power vector is classic power-control theory
(Zander 1992; Foschini-Miljanic 1993):

* **Directed.**  The constraints ``p_i / l_i >= beta * sum_j p_j /
  l(u_j, v_i)`` can be written ``p >= B p`` with the non-negative
  matrix ``B[i, j] = beta * l_i / l(u_j, v_i)`` (zero diagonal).  A
  strictly positive ``p`` with ``p > B p`` exists iff the spectral
  radius ``rho(B) < 1``; then ``p = (I - B)^{-1} 1 > 0`` works.

* **Bidirectional.**  Interference takes a ``min`` of losses over the
  two endpoints of the interfering pair and a ``max`` over the two
  decoding endpoints, so the constraint map ``T(p)_i = beta * l_i *
  max((B_u p)_i, (B_v p)_i)`` is nonlinear but *monotone and
  positively homogeneous*.  Nonlinear Perron-Frobenius theory supplies
  a growth factor (Collatz-Wielandt number) computed here by power
  iteration; feasibility is again ``rho(T) < 1``, and the fixed point
  of ``p = T(p) + 1`` provides strictly feasible powers.

Infinite entries (pairs sharing a node) make the set infeasible for
every power assignment and are reported as ``rho = inf``.

Each call builds only its subset's ``k x k`` blocks, from
``Metric.loss_block`` tiles whose entries are bitwise the full loss
matrix's.  A two-request map has a zero diagonal, so its growth factor
is ``sqrt(A[i, j] * A[j, i])`` with ``A = B`` or ``max(B_u, B_v)``:
:func:`repro.analysis.bounds.conflict_graph` tests all pairs that way.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.context import request_indices
from repro.core.errors import InfeasibleError
from repro.core.instance import Direction, Instance


def _subset(instance: Instance, subset: Optional[Sequence[int]]) -> np.ndarray:
    """*subset* as distinct request indices (all requests by default)."""
    if subset is None:
        return np.arange(instance.n)
    return request_indices(subset, instance.n, "subset index")


def _power_control_matrices(
    instance: Instance, idx: np.ndarray, beta: float
) -> Tuple[np.ndarray, ...]:
    """``(B,)`` on a directed instance, the endpoint matrices
    ``(B_u, B_v)`` on a bidirectional one, on the requests *idx* only."""
    metric, alpha = instance.metric, instance.alpha
    s, r = instance.senders[idx], instance.receivers[idx]
    if instance.direction is Direction.DIRECTED:
        losses = [metric.loss_block(r, s, alpha)]  # l(u_j, v_i)
    else:
        losses = [
            np.minimum(metric.loss_block(s, s, alpha), metric.loss_block(s, r, alpha)),
            np.minimum(metric.loss_block(r, s, alpha), metric.loss_block(r, r, alpha)),
        ]
    scale = beta * instance.link_losses[idx][:, None]
    matrices = []
    for loss in losses:
        with np.errstate(divide="ignore"):
            matrix = scale * np.where(loss > 0, 1.0 / loss, np.inf)
        np.fill_diagonal(matrix, 0.0)
        matrices.append(matrix)
    return tuple(matrices)


def _constraint_map(
    instance: Instance, idx: np.ndarray, beta: Optional[float]
) -> Tuple[Callable[[np.ndarray], np.ndarray], int, bool]:
    """Build the monotone homogeneous constraint map ``T`` restricted to
    the requests *idx*; returns ``(T, size, has_infinite_entry)``."""
    beta = instance.beta if beta is None else float(beta)
    matrices = _power_control_matrices(instance, idx, beta)
    has_inf = any(bool(np.any(np.isinf(m))) for m in matrices)
    finite = [np.where(np.isinf(m), 0.0, m) for m in matrices]
    if len(finite) == 1:
        (matrix,) = finite
        return (lambda p: matrix @ p), idx.size, has_inf
    finite_u, finite_v = finite
    return (lambda p: np.maximum(finite_u @ p, finite_v @ p)), idx.size, has_inf


def free_power_spectral_radius(
    instance: Instance,
    subset: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
    iterations: int = 200,
    tol: float = 1e-10,
) -> float:
    """Growth factor of the power-control constraint map on *subset*.

    Values ``< 1`` mean some power assignment lets the subset share a
    color; ``inf`` means two requests share a node.  Computed by power
    iteration (exact spectral radius in the directed/linear case, the
    Collatz-Wielandt number in the bidirectional case).

    *subset* holds distinct request indices (see
    :func:`repro.core.context.request_indices`); anything else raises
    ``ValueError``.
    """
    idx = _subset(instance, subset)
    if instance.direction is Direction.DIRECTED:
        # The directed constraint map is linear: compute the spectral
        # radius exactly from the eigenvalues.
        if idx.size <= 1:
            return 0.0
        beta_val = instance.beta if beta is None else float(beta)
        (matrix,) = _power_control_matrices(instance, idx, beta_val)
        if np.any(np.isinf(matrix)):
            return float("inf")
        return float(np.max(np.abs(np.linalg.eigvals(matrix))))

    # The returned value is the last (sound) Collatz-Wielandt upper bound.
    upper = np.inf
    for _, upper in _growth_bounds(instance, idx, beta, iterations, tol):
        pass
    return max(0.0, upper)


def _growth_bounds(
    instance: Instance,
    idx: np.ndarray,
    beta: Optional[float],
    iterations: int = 200,
    tol: float = 1e-10,
) -> Iterator[Tuple[float, float]]:
    """Yield Collatz-Wielandt bounds ``(lower, upper)`` on the growth
    factor of the bidirectional constraint map on the requests *idx*,
    one pair per power iteration step; the last pair is the converged
    one.

    Power-iterates the damped map S(v) = T(v) + v, whose growth factor
    is rho(T) + 1.  The identity term keeps the iterate strictly
    positive and makes the map aperiodic, so the iteration converges
    even for bipartite interference structures (where iterating T
    itself oscillates with period two).  The bounds are
    ``min_i S(v)_i/v_i - 1 <= rho(T) <= max_i S(v)_i/v_i - 1``; S is
    monotone and homogeneous, so ``upper`` never rises and ``lower``
    never falls from one step to the next.
    """
    apply_map, size, has_inf = _constraint_map(instance, idx, beta)
    if has_inf:
        yield float("inf"), float("inf")
        return
    if size <= 1:
        yield 0.0, 0.0
        return
    vector = np.ones(size)
    for _ in range(iterations):
        image = apply_map(vector) + vector
        ratios = image / vector
        upper = float(ratios.max()) - 1.0
        lower = float(ratios.min()) - 1.0
        yield lower, upper
        if upper - lower <= tol * max(1.0, upper):
            return
        vector = image / float(image.max())


def free_power_feasible(
    instance: Instance,
    subset: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
    margin: float = 1e-9,
) -> bool:
    """Can *subset* share one color under *some* power assignment?

    Same decision as ``free_power_spectral_radius(...) < 1 - margin``.
    In the bidirectional case the power iteration stops as soon as its
    monotone bounds settle which side of the threshold the converged
    value falls on.
    """
    threshold = 1.0 - margin
    idx = _subset(instance, subset)
    if instance.direction is Direction.DIRECTED:
        return free_power_spectral_radius(instance, idx, beta) < threshold
    upper = np.inf
    for lower, upper in _growth_bounds(instance, idx, beta):
        if max(0.0, upper) < threshold:
            return True
        if lower >= threshold:
            return False
    return max(0.0, upper) < threshold


def free_powers(
    instance: Instance,
    subset: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
    iterations: int = 10_000,
    tol: float = 1e-12,
    slack: float = 1e-6,
) -> np.ndarray:
    """A strictly feasible power vector for *subset*, if one exists.

    Solves ``p = (1 + slack) * T(p) + 1`` by monotone fixed-point
    iteration from ``p = 1``; the result then satisfies
    ``p >= (1 + slack) * T(p)``, i.e. every SINR margin is at least
    ``1 + slack`` — robust against the additive constant vanishing in
    floating point when the growth factor is close to one.  The slack
    is capped at half the gap ``1/rho - 1``, so the slacked map stays
    subcritical.

    Raises
    ------
    InfeasibleError
        If no power assignment makes the subset simultaneously
        schedulable.
    """
    idx = _subset(instance, subset)
    radius = free_power_spectral_radius(instance, idx, beta)
    if not radius < 1.0:
        raise InfeasibleError(
            f"subset is infeasible for every power assignment (rho={radius:g})"
        )
    if radius > 0:
        slack = min(slack, 0.5 * (1.0 / radius - 1.0))
    slack = max(slack, 0.0)
    apply_map, size, _ = _constraint_map(instance, idx, beta)
    factor = 1.0 + slack
    p = np.ones(size)
    # Up to 10^4 steps per class: array-method reductions reduce as
    # np.max does, without its per-call Python dispatch.
    for _ in range(iterations):
        new_p = factor * apply_map(p) + 1.0
        if abs(new_p - p).max() <= tol * new_p.max():
            p = new_p
            break
        p = new_p
    return p
