"""Distributed coloring via slotted random access (§6 open problem).

"The presented coloring algorithm for the square root power assignment
is centralized.  It is an open question, whether there is a
distributed coloring procedure that achieves the same kind of
performance guarantee."

This module implements the natural distributed candidate so the
question can be studied empirically: a slotted ALOHA-style protocol in
which every unscheduled request transmits in each slot independently
with its current probability, succeeding when its SINR constraint
holds against *all* transmitters of the slot.

Soundness: the successes of a slot heard each other plus the failed
transmitters, so by monotonicity of interference they remain feasible
once the failures fall silent — each slot's success set is a valid
color class, and the protocol's output is a genuine
:class:`~repro.core.schedule.Schedule`.

Two probability policies are provided:

* ``fixed`` — every request keeps probability ``p0``;
* ``backoff`` — multiplicative decrease on failure, reset on success
  of others is not needed (a request leaves once it succeeds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.context import get_context
from repro.core.errors import ReproError
from repro.core.instance import Instance
from repro.core.schedule import Schedule, build_schedule
from repro.power.base import PowerAssignment
from repro.power.oblivious import SquareRootPower
from repro.util.rng import RngLike, ensure_rng


class ProtocolStalledError(ReproError, RuntimeError):
    """The protocol exhausted its slot budget with requests pending."""


@dataclass
class DistributedStats:
    """Diagnostics of a protocol run."""

    slots: int = 0
    attempts: int = 0
    successes: int = 0
    idle_slots: int = 0
    collision_slots: int = 0
    successes_per_slot: List[int] = field(default_factory=list)

    @property
    def attempts_per_success(self) -> float:
        """Mean transmission attempts paid per scheduled request."""
        return self.attempts / self.successes if self.successes else float("inf")


def distributed_coloring(
    instance: Instance,
    power: Optional[PowerAssignment] = None,
    policy: str = "backoff",
    p0: float = 0.5,
    backoff: float = 0.5,
    p_min: float = 1.0 / 1024.0,
    max_slots: Optional[int] = None,
    rng: RngLike = None,
) -> Tuple[Schedule, DistributedStats]:
    """Run the slotted random-access protocol to completion.

    Parameters
    ----------
    instance:
        The requests to schedule.
    power:
        Oblivious assignment used by every node (each node can compute
        its own power locally — that is the point of obliviousness);
        defaults to the square-root assignment.
    policy:
        ``"fixed"`` or ``"backoff"``.
    p0:
        Initial transmission probability.
    backoff:
        Multiplicative factor applied to a request's probability after
        a failed attempt (backoff policy only).
    p_min:
        Probability floor (keeps progress guaranteed in expectation).
    max_slots:
        Slot budget; defaults to ``64 * n / p_min`` — generous enough
        that hitting it indicates a genuinely stuck configuration
        (e.g. two requests sharing a node, which can *never* both
        succeed in the same slot but will separate eventually).

    Returns
    -------
    (schedule, stats)

    Raises
    ------
    ProtocolStalledError
        If the slot budget is exhausted before all requests succeed.
    """
    if policy not in ("fixed", "backoff"):
        raise ValueError(f"unknown policy {policy!r}")
    if not 0 < p0 <= 1:
        raise ValueError(f"p0 must be in (0, 1], got {p0}")
    if not 0 < backoff < 1:
        raise ValueError(f"backoff must be in (0, 1), got {backoff}")
    if not 0 < p_min <= p0:
        raise ValueError("p_min must satisfy 0 < p_min <= p0")
    rng = ensure_rng(rng)
    if power is None:
        power = SquareRootPower()
    powers = power(instance)
    # One shared context serves every slot's feasibility check (the
    # power vector never changes during the run).
    context = get_context(instance, powers)
    if max_slots is None:
        max_slots = int(64 * instance.n / p_min)

    colors = np.full(instance.n, -1, dtype=int)
    probability = np.full(instance.n, p0)
    pending = np.ones(instance.n, dtype=bool)
    stats = DistributedStats()
    color = 0

    for _ in range(max_slots):
        if not np.any(pending):
            break
        transmitting = pending & (rng.uniform(size=instance.n) < probability)
        transmitters = np.flatnonzero(transmitting)
        stats.slots += 1
        if transmitters.size == 0:
            stats.idle_slots += 1
            continue
        stats.attempts += int(transmitters.size)
        ok = context.feasible_mask(transmitters)
        winners = transmitters[ok]
        losers = transmitters[~ok]
        if winners.size:
            colors[winners] = color
            pending[winners] = False
            color += 1
            stats.successes += int(winners.size)
            stats.successes_per_slot.append(int(winners.size))
        else:
            stats.collision_slots += 1
        if policy == "backoff" and losers.size:
            probability[losers] = np.maximum(
                probability[losers] * backoff, p_min
            )

    if np.any(pending):
        raise ProtocolStalledError(
            f"{int(pending.sum())} requests still pending after "
            f"{stats.slots} slots"
        )
    return build_schedule(colors, powers, copy_powers=False), stats
