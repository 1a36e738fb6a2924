"""SINR feasibility predicates (§1.1).

The paper's analysis sets noise ``sigma = 0`` and requires the SINR
constraint strictly (">"); with floating point we instead expose a
*margin*:

    margin_i = (p_i / l_i) / (beta * (I_i + sigma))

A request is satisfied when ``margin_i >= 1`` (up to a relative
tolerance ``rtol``).  The noise-removal trick noted in §1.1 — any
schedule that is strictly feasible at ``sigma = 0`` becomes feasible at
any ``sigma > 0`` after multiplying all powers by a large enough factor
— is implemented by :func:`scale_powers_for_noise`.

These functions are thin wrappers: they answer from the cached
:class:`repro.core.context.InterferenceContext` for ``(instance,
powers)``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.context import get_context
from repro.core.errors import InvalidScheduleError
from repro.core.instance import Instance

#: Default relative tolerance for feasibility comparisons.
DEFAULT_RTOL = 1e-9


def signal_strengths(instance: Instance, powers: np.ndarray) -> np.ndarray:
    """Received signal strength ``p_i / l(u_i, v_i)`` for each request."""
    powers = np.asarray(powers, dtype=float)
    if powers.shape != (instance.n,):
        raise InvalidScheduleError(
            f"powers must have shape ({instance.n},), got {powers.shape}"
        )
    if np.any(powers <= 0):
        raise InvalidScheduleError("all powers must be strictly positive")
    return powers / instance.link_losses


def sinr_margins(
    instance: Instance,
    powers: np.ndarray,
    colors: Optional[np.ndarray] = None,
    subset: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
    noise: Optional[float] = None,
) -> np.ndarray:
    """SINR margins ``signal / (beta * (interference + noise))``.

    A margin of ``inf`` means the request suffers no interference and
    no noise.  Margins ``>= 1`` mean the constraint holds.

    Parameters
    ----------
    colors:
        Same-color interference only (full mutual interference if
        ``None``).
    subset:
        Restrict to these request indices (result aligned to subset).
    beta, noise:
        Override the instance's gain/noise (used by the γ-rescaling
        machinery of §3.1).
    """
    beta = instance.beta if beta is None else float(beta)
    noise = instance.noise if noise is None else float(noise)
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    return get_context(instance, powers).margins(
        colors=colors, subset=subset, beta=beta, noise=noise
    )


def is_feasible_subset(
    instance: Instance,
    powers: np.ndarray,
    subset: Sequence[int],
    beta: Optional[float] = None,
    noise: Optional[float] = None,
    rtol: float = DEFAULT_RTOL,
) -> bool:
    """Can all requests in *subset* share one color under *powers*?"""
    subset = np.asarray(subset, dtype=int)
    if subset.size == 0:
        return True
    margins = sinr_margins(instance, powers, subset=subset, beta=beta, noise=noise)
    return bool(np.all(margins >= 1.0 - rtol))


def feasible_subset_mask(
    instance: Instance,
    powers: np.ndarray,
    subset: Sequence[int],
    beta: Optional[float] = None,
    noise: Optional[float] = None,
    rtol: float = DEFAULT_RTOL,
) -> np.ndarray:
    """Boolean mask (aligned to *subset*) of requests whose SINR
    constraint holds when all of *subset* transmits together."""
    subset = np.asarray(subset, dtype=int)
    if subset.size == 0:
        return np.zeros(0, dtype=bool)
    margins = sinr_margins(instance, powers, subset=subset, beta=beta, noise=noise)
    return margins >= 1.0 - rtol


def is_feasible_partition(
    instance: Instance,
    powers: np.ndarray,
    colors: np.ndarray,
    beta: Optional[float] = None,
    noise: Optional[float] = None,
    rtol: float = DEFAULT_RTOL,
) -> bool:
    """Does the coloring *colors* with *powers* satisfy every class?"""
    colors = np.asarray(colors)
    if colors.shape != (instance.n,):
        raise InvalidScheduleError(
            f"colors must have shape ({instance.n},), got {colors.shape}"
        )
    margins = sinr_margins(instance, powers, colors=colors, beta=beta, noise=noise)
    return bool(np.all(margins >= 1.0 - rtol))


def scale_powers_for_noise(
    instance: Instance,
    powers: np.ndarray,
    colors: np.ndarray,
    noise: float,
    beta: Optional[float] = None,
    safety: float = 1.0 + 1e-6,
) -> np.ndarray:
    """Rescale *powers* so the schedule tolerates ambient noise.

    §1.1: "one can transform a schedule that is feasible under this
    assumption [sigma = 0, strict inequality] into a schedule that is
    feasible for any sigma > 0 by multiplying all power levels by a
    sufficiently large factor."  The minimal factor ``t`` satisfies, for
    every request, ``t * (s_i - beta * I_i) >= beta * sigma``, i.e.
    ``t = beta * sigma / min_i (s_i - beta * I_i)``.

    Raises
    ------
    InvalidScheduleError
        If the schedule is not strictly feasible at zero noise (then no
        finite factor works).
    """
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    beta = instance.beta if beta is None else float(beta)
    powers = np.asarray(powers, dtype=float)
    signals = signal_strengths(instance, powers)
    interf = get_context(instance, powers).interference(colors=np.asarray(colors))
    slack = signals - beta * interf
    if np.any(slack <= 0):
        raise InvalidScheduleError(
            "schedule is not strictly feasible at zero noise; "
            "no power scaling can absorb the noise"
        )
    if noise == 0:
        return powers.copy()
    factor = safety * beta * noise / float(np.min(slack))
    factor = max(factor, 1.0)
    return powers * factor
