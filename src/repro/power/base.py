"""Power-assignment interfaces.

A :class:`PowerAssignment` maps an instance to a positive power vector.
:class:`ObliviousPowerAssignment` specialises to the paper's definition
(§1.1): "a power assignment is called oblivious if there is a function
``f: R>0 -> R>0`` such that, for every i, ``p_i = f(l(u_i, v_i))``."
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.errors import InvalidScheduleError
from repro.core.instance import Instance


class PowerAssignment(abc.ABC):
    """Maps instances to power vectors."""

    @abc.abstractmethod
    def powers(self, instance: Instance) -> np.ndarray:
        """Positive power vector of length ``instance.n``."""

    @property
    def name(self) -> str:
        """Short human-readable name used in experiment tables."""
        return type(self).__name__

    def __call__(self, instance: Instance) -> np.ndarray:
        return self._checked(self.powers(instance), instance.n)

    def _checked(self, result, n: int) -> np.ndarray:
        """*result* as a float array, or :class:`InvalidScheduleError`
        unless it holds *n* positive finite powers."""
        result = np.asarray(result, dtype=float)
        if result.shape != (n,):
            raise InvalidScheduleError(
                f"{self.name} produced shape {result.shape}, expected ({n},)"
            )
        if np.count_nonzero(np.isfinite(result) & (result > 0)) != n:
            raise InvalidScheduleError(
                f"{self.name} produced non-positive or non-finite powers"
            )
        return result


class ObliviousPowerAssignment(PowerAssignment):
    """A power assignment defined by a function of the link loss."""

    @abc.abstractmethod
    def power_of_loss(self, loss: np.ndarray) -> np.ndarray:
        """Apply the oblivious function ``f`` elementwise to losses."""

    def powers(self, instance: Instance) -> np.ndarray:
        return np.asarray(
            self.power_of_loss(instance.link_losses), dtype=float
        ).reshape(-1)

    def of_losses(self, losses: np.ndarray) -> np.ndarray:
        """The checked powers of links with these *losses*.

        ``f`` is elementwise, so these are bit for bit the entries a
        full resolve (``self(instance)``) gives the same links: a live
        session resolves only its arriving links through here.
        """
        losses = np.asarray(losses, dtype=float).reshape(-1)
        return self._checked(
            np.asarray(self.power_of_loss(losses), dtype=float).reshape(-1),
            losses.size,
        )

    def is_oblivious(self) -> bool:
        """All assignments of this class are oblivious by construction."""
        return True
