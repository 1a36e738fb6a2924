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
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import InfeasibleError
from repro.core.instance import Direction, Instance


def _directed_matrix(instance: Instance, beta: float) -> np.ndarray:
    """The directed power-control matrix ``B`` for the full instance."""
    metric, alpha = instance.metric, instance.alpha
    # cross[i, j] = l(u_j, v_i)
    cross = metric.loss_block(instance.receivers, instance.senders, alpha)
    with np.errstate(divide="ignore"):
        inv = np.where(cross > 0, 1.0 / cross, np.inf)
    matrix = beta * instance.link_losses[:, None] * inv
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _bidirectional_matrices(instance: Instance, beta: float) -> Tuple[np.ndarray, np.ndarray]:
    """The two endpoint matrices ``B_u`` and ``B_v`` (rows scaled by
    ``beta * l_i``)."""
    metric, alpha = instance.metric, instance.alpha
    s, r = instance.senders, instance.receivers
    min_at_u = np.minimum(metric.loss_block(s, s, alpha), metric.loss_block(s, r, alpha))
    min_at_v = np.minimum(metric.loss_block(r, s, alpha), metric.loss_block(r, r, alpha))
    with np.errstate(divide="ignore"):
        inv_u = np.where(min_at_u > 0, 1.0 / min_at_u, np.inf)
        inv_v = np.where(min_at_v > 0, 1.0 / min_at_v, np.inf)
    matrix_u = beta * instance.link_losses[:, None] * inv_u
    matrix_v = beta * instance.link_losses[:, None] * inv_v
    np.fill_diagonal(matrix_u, 0.0)
    np.fill_diagonal(matrix_v, 0.0)
    return matrix_u, matrix_v


def _constraint_map(
    instance: Instance, subset: Optional[Sequence[int]], beta: Optional[float]
) -> Tuple[Callable[[np.ndarray], np.ndarray], int, bool]:
    """Build the monotone homogeneous constraint map ``T`` restricted to
    *subset*; returns ``(T, size, has_infinite_entry)``."""
    beta = instance.beta if beta is None else float(beta)
    if subset is None:
        idx = np.arange(instance.n)
    else:
        idx = np.asarray(subset, dtype=int)
    if instance.direction is Direction.DIRECTED:
        matrix = _directed_matrix(instance, beta)[np.ix_(idx, idx)]
        has_inf = bool(np.any(np.isinf(matrix)))
        finite = np.where(np.isinf(matrix), 0.0, matrix)

        def apply_map(p: np.ndarray) -> np.ndarray:
            return finite @ p

        return apply_map, idx.size, has_inf

    matrix_u, matrix_v = _bidirectional_matrices(instance, beta)
    matrix_u = matrix_u[np.ix_(idx, idx)]
    matrix_v = matrix_v[np.ix_(idx, idx)]
    has_inf = bool(np.any(np.isinf(matrix_u)) or np.any(np.isinf(matrix_v)))
    finite_u = np.where(np.isinf(matrix_u), 0.0, matrix_u)
    finite_v = np.where(np.isinf(matrix_v), 0.0, matrix_v)

    def apply_map(p: np.ndarray) -> np.ndarray:
        return np.maximum(finite_u @ p, finite_v @ p)

    return apply_map, idx.size, has_inf


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
    """
    if instance.direction is Direction.DIRECTED:
        # The directed constraint map is linear: compute the spectral
        # radius exactly from the eigenvalues.
        beta_val = instance.beta if beta is None else float(beta)
        idx = np.arange(instance.n) if subset is None else np.asarray(subset, int)
        if idx.size <= 1:
            return 0.0
        matrix = _directed_matrix(instance, beta_val)[np.ix_(idx, idx)]
        if np.any(np.isinf(matrix)):
            return float("inf")
        return float(np.max(np.abs(np.linalg.eigvals(matrix))))

    # The returned value is the last (sound) Collatz-Wielandt upper bound.
    upper = np.inf
    for _, upper in _growth_bounds(instance, subset, beta, iterations, tol):
        pass
    return max(0.0, upper)


def _growth_bounds(
    instance: Instance,
    subset: Optional[Sequence[int]],
    beta: Optional[float],
    iterations: int = 200,
    tol: float = 1e-10,
) -> Iterator[Tuple[float, float]]:
    """Yield Collatz-Wielandt bounds ``(lower, upper)`` on the growth
    factor of the bidirectional constraint map, one pair per power
    iteration step; the last pair is the converged one.

    Power-iterates the damped map S(v) = T(v) + v, whose growth factor
    is rho(T) + 1.  The identity term keeps the iterate strictly
    positive and makes the map aperiodic, so the iteration converges
    even for bipartite interference structures (where iterating T
    itself oscillates with period two).  The bounds are
    ``min_i S(v)_i/v_i - 1 <= rho(T) <= max_i S(v)_i/v_i - 1``; S is
    monotone and homogeneous, so ``upper`` never rises and ``lower``
    never falls from one step to the next.
    """
    apply_map, size, has_inf = _constraint_map(instance, subset, beta)
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
        upper = float(np.max(ratios)) - 1.0
        lower = float(np.min(ratios)) - 1.0
        yield lower, upper
        if upper - lower <= tol * max(1.0, upper):
            return
        vector = image / float(np.max(image))


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
    if instance.direction is Direction.DIRECTED:
        return free_power_spectral_radius(instance, subset, beta) < threshold
    upper = np.inf
    for lower, upper in _growth_bounds(instance, subset, beta):
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
    floating point when the growth factor is close to one.  If the
    slacked map is supercritical, the slack is halved until it fits.

    Raises
    ------
    InfeasibleError
        If no power assignment makes the subset simultaneously
        schedulable.
    """
    radius = free_power_spectral_radius(instance, subset, beta)
    if not radius < 1.0:
        raise InfeasibleError(
            f"subset is infeasible for every power assignment (rho={radius:g})"
        )
    if radius > 0:
        slack = min(slack, 0.5 * (1.0 / radius - 1.0))
    slack = max(slack, 0.0)
    apply_map, size, _ = _constraint_map(instance, subset, beta)
    factor = 1.0 + slack
    p = np.ones(size)
    for _ in range(iterations):
        new_p = factor * apply_map(p) + 1.0
        if np.max(np.abs(new_p - p)) <= tol * np.max(new_p):
            p = new_p
            break
        p = new_p
    return p
