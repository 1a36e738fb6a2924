"""Greedy first-fit coloring.

Requests are processed in a given order (longest link first by
default); each request is placed into the first color class it can
join without violating any SINR constraint, opening a new class when
none fits.  This is the workhorse O(n)-approximation used both as a
baseline and as the constructive engine behind the gain-rescaling
propositions.

Two variants:

* :func:`first_fit_schedule` — fixed power assignment, run on the
  vectorized :class:`repro.core.kernels.ScheduleKernel`: all color
  classes are maintained simultaneously as dense ``(C, n)``
  interference state, so each request needs **one** admission check
  across every open class.
* :func:`first_fit_free_power_schedule` — powers are free per class;
  class feasibility is decided by power-control theory
  (:mod:`repro.analysis.power_control`) and each class receives its
  own feasible power vector.  This realises "an optimal schedule has
  constant length" comparisons of Theorem 1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.power_control import (
    free_power_feasible,
    free_powers,
)
from repro.core.context import get_context
from repro.core.errors import InvalidScheduleError
from repro.core.instance import Instance
from repro.core.kernels import check_order, first_fit_colors
from repro.core.schedule import Schedule, build_schedule


def _default_order(instance: Instance) -> np.ndarray:
    """Longest links first (ties broken by index for determinism)."""
    return np.argsort(-instance.link_distances, kind="stable")


def _check_budgets(
    signals: np.ndarray, budget: np.ndarray, beta: float, noise: float
) -> None:
    if np.any(budget < 0):
        bad = int(np.argmax(budget < 0))
        raise InvalidScheduleError(
            f"request {bad} cannot satisfy its SINR constraint even alone "
            f"(signal {signals[bad]:.4g} < beta*noise {beta * noise:.4g}); "
            "scale the powers first (see scale_powers_for_noise)"
        )


def first_fit_schedule(
    instance: Instance,
    powers: np.ndarray,
    order: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
    rtol: float = 1e-9,
) -> Schedule:
    """First-fit coloring under a fixed power vector.

    Parameters
    ----------
    powers:
        The (fixed) power of every request.
    order:
        Processing order, a permutation of ``range(n)``; longest-first
        by default.
    beta:
        Gain override (defaults to the instance's).

    Raises
    ------
    ValueError
        If *order* is not a permutation of ``range(n)``.
    """
    beta = instance.beta if beta is None else float(beta)
    if order is None:
        order = _default_order(instance)
    else:
        order = check_order(order, instance.n)
    powers = np.asarray(powers, dtype=float)
    context = get_context(instance, powers)
    budget = context.budgets(beta=beta)
    _check_budgets(context.signals, budget, beta, context.noise)
    limits = budget * (1.0 + rtol)
    return build_schedule(first_fit_colors(context, order, limits), powers)


def first_fit_free_power_schedule(
    instance: Instance,
    order: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
    margin: float = 1e-3,
) -> Schedule:
    """First-fit coloring where every class chooses its own powers.

    A request joins the first class that stays feasible for *some*
    power assignment (power-control growth factor below ``1 - margin``;
    the default keeps classes comfortably subcritical so the emitted
    power vectors have real SINR slack).  After the coloring, each
    class receives a strictly feasible power vector, so the returned
    schedule is a genuine SINR schedule.
    """
    if order is None:
        order = _default_order(instance)
    order = np.asarray(order, dtype=int)
    classes: List[List[int]] = []
    colors = np.full(instance.n, -1, dtype=int)
    for req in order:
        placed = False
        for color, members in enumerate(classes):
            trial = members + [int(req)]
            if free_power_feasible(instance, trial, beta=beta, margin=margin):
                members.append(int(req))
                colors[req] = color
                placed = True
                break
        if not placed:
            classes.append([int(req)])
            colors[req] = len(classes) - 1

    powers = np.ones(instance.n)
    for members in classes:
        powers[np.asarray(members)] = free_powers(instance, members, beta=beta)
    return build_schedule(colors, powers, copy_powers=False)
