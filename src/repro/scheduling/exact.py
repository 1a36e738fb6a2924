"""Exact minimum coloring for small instances (bitmask DP).

The coloring problem is strongly NP-hard (§1), but for small ``n`` the
optimum is computable: feasibility of every request subset is
downward closed (removing transmitters only lowers interference), so
the minimum number of colors is a minimum partition of ``[n]`` into
feasible sets — solved here by the classic subset dynamic program:

    colors[mask] = 1 + min over feasible s ⊆ mask, s ∋ lowest bit,
                   of colors[mask \\ s]

Runs in O(3^n) after an O(2^n) feasibility table; practical to n≈14.
Both fixed-power and free-power (power-control) variants are
provided.  This is the ground truth the approximation experiments
certify against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.power_control import free_power_feasible, free_powers
from repro.core.context import get_context
from repro.core.errors import ReproError
from repro.core.instance import Instance
from repro.core.schedule import Schedule, build_schedule

#: Hard cap: 3^16 subset-pair iterations is the practical ceiling.
MAX_EXACT_N = 16


class InstanceTooLargeError(ReproError, ValueError):
    """The instance exceeds the exact solver's size cap."""


def _feasibility_table(
    instance: Instance,
    powers: Optional[np.ndarray],
    beta: Optional[float],
) -> List[bool]:
    """feasible[mask] for every subset mask of requests."""
    n = instance.n
    # The 2^n fixed-power checks share one cached context; the
    # free-power variant has no fixed powers to cache against.
    context = None if powers is None else get_context(instance, powers)
    feasible = [False] * (1 << n)
    feasible[0] = True
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if len(members) == 1:
            feasible[mask] = True
            continue
        # Downward closure: if the set minus its lowest element is
        # already infeasible, the superset is too — skip the check.
        if not feasible[mask & (mask - 1)]:
            feasible[mask] = False
            continue
        if powers is None:
            feasible[mask] = free_power_feasible(instance, members, beta=beta)
        else:
            feasible[mask] = context.is_feasible_subset(members, beta=beta)
    return feasible


def exact_minimum_colors(
    instance: Instance,
    powers: Optional[np.ndarray] = None,
    beta: Optional[float] = None,
) -> Tuple[int, Schedule]:
    """The optimal number of colors, with an optimal schedule.

    Parameters
    ----------
    powers:
        Fixed power vector; when ``None`` every class may pick its own
        powers (the unrestricted optimum the paper compares against),
        realised via power-control feasibility.

    Returns
    -------
    (opt, schedule):
        The optimal color count and a witness schedule (with per-class
        free powers when ``powers is None``).

    Raises
    ------
    InstanceTooLargeError
        For ``n > MAX_EXACT_N``.
    """
    n = instance.n
    if n > MAX_EXACT_N:
        raise InstanceTooLargeError(
            f"exact solver caps at n={MAX_EXACT_N}, got {n}"
        )
    if powers is not None:
        powers = np.asarray(powers, dtype=float)

    feasible = _feasibility_table(instance, powers, beta)
    full = (1 << n) - 1
    colors = [n + 1] * (full + 1)
    choice = [0] * (full + 1)
    colors[0] = 0
    for mask in range(1, full + 1):
        low = mask & -mask
        # Enumerate submasks of `mask` containing the lowest bit.
        sub = mask
        while sub:
            if sub & low and feasible[sub]:
                candidate = colors[mask ^ sub] + 1
                if candidate < colors[mask]:
                    colors[mask] = candidate
                    choice[mask] = sub
            sub = (sub - 1) & mask

    opt = colors[full]
    # Reconstruct the partition.
    assignment = np.full(n, -1, dtype=int)
    mask = full
    color = 0
    while mask:
        sub = choice[mask]
        for i in range(n):
            if sub >> i & 1:
                assignment[i] = color
        mask ^= sub
        color += 1

    if powers is not None:
        schedule = build_schedule(assignment, powers)
    else:
        vec = np.ones(n)
        for c in range(opt):
            members = np.flatnonzero(assignment == c)
            vec[members] = free_powers(instance, members, beta=beta)
        schedule = build_schedule(assignment, vec, copy_powers=False)
    return opt, schedule
