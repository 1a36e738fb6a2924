"""One-shot capacity: largest simultaneously-schedulable subsets.

Used by the nested-instance experiment (E2): how many of the requests
can share a single color under a given power assignment?  Finding the
maximum subset is NP-hard in general; :func:`greedy_max_feasible_subset`
implements the standard peeling heuristic — repeatedly drop the request
with the worst SINR margin until the remainder is feasible — which is
exact on the highly structured instances used in the experiments'
regimes of interest (geometric-series interference).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.context import InterferenceContext, get_context
from repro.core.instance import Instance
from repro.core.kernels import peel_max_feasible_subset


def greedy_max_feasible_subset(
    instance: Instance,
    powers: np.ndarray,
    candidates: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
    rtol: float = 1e-9,
    context: Optional[InterferenceContext] = None,
) -> np.ndarray:
    """A maximal feasible subset of *candidates* under fixed *powers*.

    Peels the worst-margin request until every remaining request meets
    its SINR constraint, then greedily re-adds dropped requests that
    still fit (so the result is inclusion-maximal).

    Runs the incremental peel kernel
    :func:`repro.core.kernels.peel_max_feasible_subset` on the cached
    context for ``(instance, powers)`` (or the explicit *context*):
    maintained interference sums, most rounds decided on a shortlist of
    the lowest margins and hopeless re-adds rejected in one tiled pass,
    with near-boundary decisions re-resolved exactly and counted as
    ``peel_risk_events``.

    Raises
    ------
    ValueError
        If a candidate is not an integer request index in ``[0, n)``
        (fractional values and boolean masks included) or repeats an
        earlier candidate.
    """
    if context is None:
        context = get_context(instance, powers)
    return peel_max_feasible_subset(
        context, candidates=candidates, beta=beta, rtol=rtol
    )


def one_shot_capacity(
    instance: Instance,
    powers: np.ndarray,
    beta: Optional[float] = None,
    rtol: float = 1e-9,
) -> int:
    """Size of the greedy maximal feasible subset (one-color capacity)."""
    return int(
        greedy_max_feasible_subset(instance, powers, beta=beta, rtol=rtol).size
    )
