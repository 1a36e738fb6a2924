"""Exact SINR oracle for the benchmark's schedules.

Recomputes every color class's SINR from first principles: the raw
endpoint coordinates, the path-loss exponent alpha, the gain beta, the
noise and the paper's oblivious square-root powers
``p_i = d(s_i, r_i) ** (alpha / 2)``, which it derives itself.  It
imports numpy only and shares no code with the library's gain backends,
interference contexts or scheduler kernels, so a schedule the program
got wrong cannot be judged right by the same mistake.

Directed SINR of request ``i`` in class ``C``::

    signal_i       = p_i / d(s_i, r_i) ** alpha
    interference_i = sum over j in C, j != i of p_j / d(s_j, r_i) ** alpha
    SINR_i         = signal_i / (noise + interference_i)

Request ``i`` violates the constraint when ``SINR_i / beta`` falls below
``1 - rtol``; ``rtol`` is the schedulers' own admission tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Relative tolerance of the SINR and power checks (the schedulers
#: admit up to ``budget * (1 + 1e-9)``).
RTOL = 1e-9


@dataclass(frozen=True)
class OracleReport:
    """Outcome of checking one schedule."""

    requests: int
    violations: int
    power_mismatches: int
    worst_margin: float
    classes: int


def sqrt_powers(
    points: np.ndarray, senders: np.ndarray, receivers: np.ndarray, alpha: float
) -> np.ndarray:
    """The square-root assignment ``sqrt(d(s_i, r_i) ** alpha)``."""
    diff = points[senders] - points[receivers]
    length = np.sqrt(np.sum(diff * diff, axis=-1))
    return np.sqrt(length**alpha)


def class_margins(
    points: np.ndarray,
    senders: np.ndarray,
    receivers: np.ndarray,
    powers: np.ndarray,
    alpha: float,
    beta: float,
    noise: float,
) -> np.ndarray:
    """``SINR / beta`` of every request of one color class (directed)."""
    tx = points[senders]
    rx = points[receivers]
    # dist[i, j] = d(s_j, r_i): sender j as heard at receiver i.
    diff = rx[:, None, :] - tx[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    own = dist.diagonal().copy()
    np.fill_diagonal(dist, np.inf)
    with np.errstate(divide="ignore"):
        received = powers[None, :] / dist**alpha
    interference = received.sum(axis=1)
    signal = powers / own**alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        margins = signal / (beta * (noise + interference))
    # No interference and no noise: the constraint holds trivially.
    margins[(interference == 0) & (noise == 0)] = np.inf
    return margins


def check_schedule(
    points: np.ndarray,
    senders: np.ndarray,
    receivers: np.ndarray,
    colors: np.ndarray,
    alpha: float,
    beta: float,
    noise: float = 0.0,
    powers: Optional[np.ndarray] = None,
    rtol: float = RTOL,
) -> OracleReport:
    """Check a whole schedule, one color class at a time.

    *powers*, when given, are the schedule's emitted powers; each one
    that differs from the square-root assignment by more than *rtol*
    counts as a power mismatch.  SINR is always evaluated under the
    oracle's own square-root powers.
    """
    points = np.asarray(points, dtype=float)
    senders = np.asarray(senders, dtype=int)
    receivers = np.asarray(receivers, dtype=int)
    colors = np.asarray(colors, dtype=int)
    if not senders.shape == receivers.shape == colors.shape:
        raise ValueError("senders, receivers and colors must align")
    expected = sqrt_powers(points, senders, receivers, alpha)
    mismatches = 0
    if powers is not None:
        powers = np.asarray(powers, dtype=float)
        if powers.shape != expected.shape:
            raise ValueError("powers must align with the requests")
        mismatches = int(
            np.count_nonzero(~(np.abs(powers - expected) <= rtol * expected))
        )
    violations = 0
    worst = np.inf
    order = np.argsort(colors, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(colors[order])) + 1)
    for members in groups:
        margins = class_margins(
            points,
            senders[members],
            receivers[members],
            expected[members],
            alpha,
            beta,
            noise,
        )
        violations += int(np.count_nonzero(~(margins >= 1.0 - rtol)))
        worst = min(worst, float(margins.min()))
    return OracleReport(
        requests=int(colors.size),
        violations=violations,
        power_mismatches=mismatches,
        worst_margin=worst,
        classes=len(groups),
    )
