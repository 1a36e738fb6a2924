"""Scheduling by repeated maximal-feasible-subset extraction.

Each round extracts a greedy maximal feasible subset of the remaining
requests (peeling the worst-margin request until feasible) and assigns
it the next color.  This mirrors the structure of the Theorem 15
algorithm ("algorithm A computes a subset ... repeat recursively on
the remaining requests") with the LP replaced by greedy peeling; it is
the strongest simple baseline for fixed power assignments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.capacity import greedy_max_feasible_subset
from repro.core.context import get_context
from repro.core.instance import Instance
from repro.core.schedule import Schedule, build_schedule


def peeling_schedule(
    instance: Instance,
    powers: np.ndarray,
    beta: Optional[float] = None,
    rtol: float = 1e-9,
) -> Schedule:
    """Color the instance by repeatedly peeling maximal feasible subsets.

    The shared :class:`~repro.core.context.InterferenceContext` is
    fetched once so every extraction round
    reuses the same cached gain matrices, and each extraction runs on
    the incremental peel kernel
    (:func:`repro.core.kernels.peel_max_feasible_subset`, identical
    decisions from maintained interference sums, most rounds decided on
    a shortlist of the lowest margins and hopeless re-adds rejected in
    one pass; tolerance-window decisions are re-resolved exactly and
    counted as risk events) via :func:`greedy_max_feasible_subset`.
    """
    powers = np.asarray(powers, dtype=float)
    context = get_context(instance, powers)
    remaining = list(range(instance.n))
    colors = np.full(instance.n, -1, dtype=int)
    color = 0
    while remaining:
        subset = greedy_max_feasible_subset(
            instance,
            powers,
            candidates=remaining,
            beta=beta,
            rtol=rtol,
            context=context,
        )
        if subset.size == 0:
            # A single request is always feasible at zero noise; if even
            # singletons fail (extreme noise), fall back to singletons.
            subset = np.asarray([remaining[0]], dtype=int)
        for req in subset:
            colors[req] = color
        chosen = set(int(i) for i in subset)
        remaining = [i for i in remaining if i not in chosen]
        color += 1
    return build_schedule(colors, powers)
