"""Schedule representation: a coloring plus a power assignment.

A :class:`Schedule` is the output of every algorithm in
:mod:`repro.scheduling`: an integer color per request (colors are the
paper's time slots) and a positive power per request.  Validation
against an instance checks both structure and SINR feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.errors import InvalidScheduleError
from repro.core.feasibility import DEFAULT_RTOL, is_feasible_partition, sinr_margins
from repro.core.instance import Instance


@dataclass
class Schedule:
    """A coloring and power assignment for an instance.

    Attributes
    ----------
    colors:
        Integer array of length ``n``; colors are ``0 .. k-1`` (the
        paper's ``[k]``, shifted to 0-based).
    powers:
        Positive float array of length ``n``.
    """

    colors: np.ndarray
    powers: np.ndarray

    def __post_init__(self) -> None:
        self.colors = np.asarray(self.colors, dtype=int).reshape(-1)
        self.powers = np.asarray(self.powers, dtype=float).reshape(-1)
        if self.colors.shape != self.powers.shape:
            raise InvalidScheduleError(
                f"colors ({self.colors.shape}) and powers ({self.powers.shape}) "
                "must have the same length"
            )
        if self.colors.size == 0:
            raise InvalidScheduleError("schedule must cover at least one request")
        if np.any(self.colors < 0):
            raise InvalidScheduleError("colors must be non-negative")
        if np.any(self.powers <= 0):
            raise InvalidScheduleError("powers must be strictly positive")

    @property
    def n(self) -> int:
        """Number of scheduled requests."""
        return self.colors.size

    @property
    def num_colors(self) -> int:
        """Number of distinct colors (the schedule length)."""
        return int(np.unique(self.colors).size)

    def color_classes(self) -> Dict[int, np.ndarray]:
        """Mapping ``color -> array of request indices``."""
        classes: Dict[int, np.ndarray] = {}
        for color in np.unique(self.colors):
            classes[int(color)] = np.flatnonzero(self.colors == color)
        return classes

    def compacted(self) -> "Schedule":
        """A copy with colors relabelled to ``0 .. k-1`` densely."""
        _, dense = np.unique(self.colors, return_inverse=True)
        return Schedule(colors=dense, powers=self.powers.copy())

    def total_energy(self) -> float:
        """Sum of power levels — the §6 energy-efficiency measure."""
        return float(np.sum(self.powers))

    def validate(
        self,
        instance: Instance,
        beta: Optional[float] = None,
        noise: Optional[float] = None,
        rtol: float = DEFAULT_RTOL,
    ) -> None:
        """Raise :class:`InvalidScheduleError` unless this schedule is
        SINR-feasible for *instance*."""
        if self.n != instance.n:
            raise InvalidScheduleError(
                f"schedule covers {self.n} requests, instance has {instance.n}"
            )
        if not is_feasible_partition(
            instance, self.powers, self.colors, beta=beta, noise=noise, rtol=rtol
        ):
            margins = sinr_margins(
                instance, self.powers, colors=self.colors, beta=beta, noise=noise
            )
            worst = int(np.argmin(margins))
            raise InvalidScheduleError(
                f"SINR constraint violated, e.g. request {worst} has margin "
                f"{margins[worst]:.4g} (< 1)"
            )

    def is_feasible(
        self,
        instance: Instance,
        beta: Optional[float] = None,
        noise: Optional[float] = None,
        rtol: float = DEFAULT_RTOL,
    ) -> bool:
        """``True`` iff :meth:`validate` would pass."""
        try:
            self.validate(instance, beta=beta, noise=noise, rtol=rtol)
        except InvalidScheduleError:
            return False
        return True


def build_schedule(
    colors: np.ndarray,
    powers: np.ndarray,
    copy_powers: bool = True,
) -> Schedule:
    """The shared constructor for scheduler outputs.

    Every scheduler routes its result through here so dtype/shape
    normalization and the structural checks of :class:`Schedule` run
    exactly once, and so the emitted schedule never aliases a
    caller-owned power array
    (``copy_powers=True``, the default, takes a defensive copy; pass
    ``False`` only when the array is already private to the caller).

    The colors are always copied into a fresh writable array — some
    producers (e.g. :class:`repro.core.kernels.ScheduleKernel`) hand
    over read-only views, and the emitted schedule must be mutable and
    independent of the producer's internal state either way.
    """
    colors = np.array(colors, dtype=int).reshape(-1)
    powers = np.asarray(powers, dtype=float).reshape(-1)
    if copy_powers:
        powers = powers.copy()
    return Schedule(colors=colors, powers=powers)
