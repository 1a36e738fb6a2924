"""The Theorem 15 coloring algorithm for the square-root assignment.

"There exists a randomized polynomial time algorithm solving the
coloring problem for the square root power assignment with
approximation factor O(log n)."

Structure (Section 5), per extracted color class:

1. Partition the remaining requests into *distance classes* ``C_i``
   (link distances within a factor of 4, so losses within ``4^alpha``).
2. Sweep classes from short to long.  For each class, keep only the
   requests whose endpoints still tolerate the interference of the
   already-selected shorter requests (the paper's ``V'``/``C'_i``).
3. Choose a large subset of the class via an LP relaxation — variables
   ``x_j in [0, 1]``, one interference-budget constraint per candidate
   endpoint (the Claim 17 relaxation widens the budget by ``2^alpha``)
   — followed by randomized rounding and a greedy repair pass.
4. After the sweep, thin the selection at the full gain
   (Proposition 3) so the emitted class is genuinely feasible.

The extracted class is colored, removed, and the process repeats —
"It is easy to see that such a greedy approach yields an O(log n)
approximation for the optimal number of colors."

The class LPs (step 3) are the hot path, so HiGHS sees each distinct
constraint once and only runs when the answer is not already known: on
a directed instance the ``u`` and ``v`` budget rows coincide and the LP
gets the ``k x k`` gain block once (bidirectional instances keep both
row sets), and a class whose every row sum already fits its budget has
the all-ones vector as its unique optimum, taken in closed form.  The
rest go to HiGHS through :func:`linprog`, which builds the model in one
numpy pass and calls HiGHS's own binding, without scipy's ``linprog``
wrapper (its per-call input checks, option manager and marginals); the
solution is bitwise the wrapper's.  The
repair (step 3) and thinning (step 4) passes run through
:func:`greedy_max_feasible_subset`, on the incremental peel kernel
(:func:`repro.core.kernels.peel_max_feasible_subset`): maintained
interference sums, most rounds decided on a shortlist of the lowest
margins, hopeless re-adds rejected in one pass (tolerance-window
decisions are re-resolved exactly and surfaced as ``peel_risk_events``
in the result provenance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.capacity import greedy_max_feasible_subset
from repro.core.context import InterferenceContext, get_context
from repro.core.gains import GainBackend
from repro.core.instance import Instance
from repro.core.schedule import Schedule, build_schedule
from repro.power.oblivious import SquareRootPower
from repro.util.rng import RngLike, ensure_rng


@dataclass
class SqrtColoringStats:
    """Diagnostics of a :func:`sqrt_coloring` run."""

    rounds: int = 0
    lp_solves: int = 0
    class_sizes: List[int] = field(default_factory=list)
    distance_classes_seen: int = 0
    lp_objectives: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class LPResult:
    """What :func:`linprog` reports: the solution ``x`` (``None`` when
    HiGHS gives none), ``success``, a scipy-style ``status`` (0 solved,
    4 not) and a ``message``."""

    x: Optional[np.ndarray]
    success: bool
    status: int
    message: str


def _failed(message: str, x: Optional[np.ndarray] = None) -> LPResult:
    return LPResult(x=x, success=False, status=4, message=message)


def linprog(
    *,
    c: np.ndarray,
    A_ub: np.ndarray,
    b_ub: np.ndarray,
    bounds: Tuple[float, float] = (0.0, 1.0),
    method: str = "highs",
) -> LPResult:
    """Solve ``min c @ x`` s.t. ``A_ub @ x <= b_ub``, ``bounds[0] <= x <=
    bounds[1]`` on HiGHS directly; every class LP calls it here.

    The model and options are the ones :func:`scipy.optimize.linprog`
    (``method="highs"``) hands HiGHS, so ``x`` is bitwise its ``x``
    (``tests/scheduling/test_sqrt_coloring.py`` checks it): ``A_ub`` in
    CSC without its zeros, rows ``(-inf, b_ub]``, presolve on, dual
    simplex, no output.  It skips scipy's per-call layers: input
    cleaning, an option manager per option, the marginals loop, the
    COO-to-CSC detour.  One fresh ``_Highs`` per LP, so no solver state
    crosses LPs.  ``scipy.optimize._highspy`` is imported on first call
    (it costs more than the rest of the package).

    scipy's post-check is kept: a non-optimal HiGHS status, a NaN in
    ``x``, or ``x`` off its bounds or rows by more than
    ``sqrt(1e-9) * 10`` gives ``success=False``.
    """
    from scipy.optimize._highspy import _core as highs

    if method != "highs":
        raise ValueError(f"linprog solves with method='highs', got {method!r}")
    a = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    cost = np.asarray(c, dtype=float)
    m, k = a.shape
    # CSC as csc_array(a) lays it out: nonzeros column by column, rows
    # ascending (NaN counts as nonzero).  The binding copies each field
    # into a std::vector element by element, faster from a list than
    # from an ndarray.
    nonzero = a.T != 0
    start = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(nonzero, axis=1), out=start[1:])

    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = k
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = np.nonzero(nonzero)[1].tolist()
    lp.a_matrix_.value_ = a.T[nonzero].tolist()
    lp.col_cost_ = cost.tolist()
    lp.col_lower_ = [float(bounds[0])] * k
    lp.col_upper_ = [float(bounds[1])] * k
    lp.row_lower_ = [-math.inf] * m
    lp.row_upper_ = b.tolist()

    options = highs.HighsOptions()
    options.presolve = "on"
    options.solver = "choose"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    solver = highs._Highs()
    solver.passOptions(options)
    if solver.passModel(lp) == highs.HighsStatus.kError:
        return _failed("HiGHS rejected the model")
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        return _failed(f"HiGHS model status: {solver.modelStatusToString(status)}")

    x = np.array(solver.getSolution().col_value)
    tol = math.sqrt(1e-9) * 10
    slack = b - a @ x
    if np.isnan(x).any() or np.isnan(slack).any():
        return _failed("NaN in the HiGHS solution or its row activities", x)
    if (
        (x < bounds[0] - tol).any()
        or (x > bounds[1] + tol).any()
        or (slack < -tol).any()
    ):
        return _failed(
            f"the HiGHS solution misses its bounds or rows by more than {tol:.2E}",
            x,
        )
    return LPResult(x=x, success=True, status=0, message="optimal")


def _distance_classes(distances: np.ndarray) -> List[np.ndarray]:
    """Group positions by ``floor(log4(d / d_min))``, ascending."""
    d_min = float(np.min(distances))
    idx = np.floor(np.log(distances / d_min) / math.log(4.0) + 1e-12).astype(int)
    classes = []
    for value in np.unique(idx):
        classes.append(np.flatnonzero(idx == value))
    return classes


def _lp_select(
    backend: GainBackend,
    candidates: np.ndarray,
    slack: np.ndarray,
    relax: float,
    rng: np.random.Generator,
    rounding_trials: int,
) -> Tuple[np.ndarray, float]:
    """Solve the class LP and round; returns (chosen positions into
    *candidates*, LP objective).

    The LP maximizes ``sum(x)`` over ``x in [0, 1]^k`` subject to one
    budget row ``A x <= relax * slack`` per candidate endpoint: the
    ``k x k`` gain block on a directed instance (its ``u`` and ``v``
    rows coincide), the stacked ``u`` and ``v`` blocks otherwise.

    * A column with an infinite entry (a shared node) fixes its ``x``
      at 0; the LP runs on the finite columns.  With none left the
      pick is empty and the rng is not drawn from.
    * When every row sum fits its budget, the all-ones vector is
      feasible and hence the unique optimum: it is taken in closed
      form, without calling HiGHS.

    A HiGHS failure raises :class:`RuntimeError` (the LP always has the
    feasible point ``x = 0``, so a failure is a model error).
    """
    k = candidates.size
    a_ub = backend.block_u(candidates)
    b_ub = relax * slack
    if not backend.directed:
        a_ub = np.vstack([a_ub, backend.block_v(candidates)])
        b_ub = np.concatenate([b_ub, b_ub])
    finite = np.isfinite(a_ub).all(axis=0)
    if not finite.any():
        return np.zeros(0, dtype=int), 0.0
    if not finite.all():
        a_ub = a_ub[:, finite]

    x = np.zeros(k)
    if np.all(a_ub.sum(axis=1) <= b_ub):
        x[finite] = 1.0
    else:
        result = linprog(
            c=-np.ones(a_ub.shape[1]),
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=(0.0, 1.0),
            method="highs",
        )
        if not result.success:
            raise RuntimeError(f"Theorem 15 class LP failed: {result.message}")
        x[finite] = np.clip(result.x, 0.0, 1.0)
    objective = float(np.sum(x))

    best: np.ndarray = np.zeros(0, dtype=int)
    for _ in range(rounding_trials):
        chosen = np.flatnonzero(rng.uniform(size=k) < x / 4.0)
        if chosen.size > best.size:
            best = chosen
    return best, objective


def _select_one_class(
    instance: Instance,
    remaining: np.ndarray,
    budgets: np.ndarray,
    beta: float,
    rng: np.random.Generator,
    use_lp: bool,
    rounding_trials: int,
    stats: SqrtColoringStats,
    powers: np.ndarray,
    context: InterferenceContext,
) -> np.ndarray:
    """One run of algorithm A: extract a large feasible subset of
    *remaining* (global indices) for the square-root assignment."""
    backend = context.backend
    distances = instance.link_distances[remaining]
    classes = _distance_classes(distances)
    stats.distance_classes_seen += len(classes)
    selected: List[int] = []

    for positions in classes:
        members = remaining[positions]
        if selected:
            sel = np.asarray(selected)
            # Tiled per-row sums: bit-identical to gathering the
            # (members, sel) block, without materializing it (and
            # CSR-native on the sparse backend).
            prior_u = backend.row_sums_u(members, sel)
            if backend.directed:
                prior_v = prior_u
            else:
                prior_v = backend.row_sums_v(members, sel)
            prior = np.maximum(prior_u, prior_v)
        else:
            prior = np.zeros(members.size)
        # The paper's V'/C'_i: requests whose endpoints still have at
        # least half their interference budget left.
        half = budgets[members] / 2.0
        keep = prior <= half
        candidates = members[keep]
        if candidates.size == 0:
            continue
        slack = half[keep]

        if use_lp and candidates.size > 1:
            relax = 2.0**instance.alpha
            chosen_pos, objective = _lp_select(
                backend, candidates, slack, relax, rng, rounding_trials
            )
            stats.lp_solves += 1
            stats.lp_objectives.append(objective)
            chosen = candidates[chosen_pos]
        else:
            chosen = candidates

        # Repair at gain beta/2 on top of the already-selected pairs:
        # greedily peel violators among the new picks.
        trial = selected + [int(c) for c in chosen]
        feasible = greedy_max_feasible_subset(
            instance,
            powers,
            candidates=trial,
            beta=beta / 2.0,
            context=context,
        )
        feasible_set = set(int(i) for i in feasible)
        # Never peel previously selected pairs at this stage; the final
        # thinning handles global violations (paper: Lemma 19 bounds the
        # back-interference by a constant factor).
        newly = [int(c) for c in chosen if int(c) in feasible_set]
        selected.extend(newly)

    if not selected:
        # Guarantee progress: the longest remaining request alone.
        longest = remaining[int(np.argmax(distances))]
        return np.asarray([longest], dtype=int)

    # Final thinning at the full gain (Proposition 3).
    final = greedy_max_feasible_subset(
        instance, powers, candidates=selected, beta=beta, context=context
    )
    if final.size == 0:
        longest = remaining[int(np.argmax(distances))]
        return np.asarray([longest], dtype=int)
    return final


def sqrt_coloring(
    instance: Instance,
    beta: Optional[float] = None,
    rng: RngLike = None,
    use_lp: bool = True,
    rounding_trials: int = 8,
) -> Tuple[Schedule, SqrtColoringStats]:
    """Color *instance* under the square-root assignment (Theorem 15).

    Parameters
    ----------
    use_lp:
        When ``False``, skip the LP and greedily take every candidate
        (a faster heuristic with the same repair/thinning safety nets).
    rounding_trials:
        Randomized-rounding attempts per LP solve.

    Returns
    -------
    (schedule, stats):
        A feasible schedule using the square-root powers, plus run
        diagnostics.
    """
    beta = instance.beta if beta is None else float(beta)
    rng = ensure_rng(rng)
    powers = SquareRootPower()(instance)
    context = get_context(instance, powers)
    budgets = context.signals / beta  # max tolerable interference per request

    stats = SqrtColoringStats()
    colors = np.full(instance.n, -1, dtype=int)
    alive = np.ones(instance.n, dtype=bool)
    remaining = np.arange(instance.n)
    color = 0
    while remaining.size > 0:
        chosen = _select_one_class(
            instance,
            remaining,
            budgets,
            beta,
            rng,
            use_lp,
            rounding_trials,
            stats,
            powers,
            context,
        )
        colors[chosen] = color
        stats.class_sizes.append(int(chosen.size))
        alive[chosen] = False
        remaining = np.flatnonzero(alive)
        color += 1
        stats.rounds += 1

    return build_schedule(colors, powers, copy_powers=False), stats
