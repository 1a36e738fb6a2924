"""Problem instances: a metric space plus communication requests.

An :class:`Instance` bundles everything Section 1.1 fixes up front: the
metric, the request pairs ``(u_i, v_i)``, the path-loss exponent
``alpha``, the gain ``beta``, the ambient noise ``sigma`` and the
problem variant (:class:`Direction`).

Nodes are integer indices into the metric; requests are index pairs.
All hot-path data (link losses, distance matrices) is exposed as numpy
arrays.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import InvalidInstanceError
from repro.geometry.metric import Metric


class Direction(enum.Enum):
    """Problem variant: which endpoints must decode (§1.1)."""

    DIRECTED = "directed"
    BIDIRECTIONAL = "bidirectional"


class Instance:
    """An interference scheduling instance.

    Parameters
    ----------
    metric:
        The host metric space.
    senders, receivers:
        Integer arrays of length ``n`` with the endpoints of each
        request.  In the bidirectional variant the labels "sender" and
        "receiver" are arbitrary but kept for a uniform representation.
    direction:
        :class:`Direction` or its string value.
    alpha:
        Path-loss exponent, ``alpha >= 1`` (footnote 1 of the paper).
    beta:
        Gain ``beta > 0`` of the SINR constraint.
    noise:
        Ambient noise ``sigma >= 0``; the paper's analysis uses 0.

    Raises
    ------
    InvalidInstanceError
        On malformed input, including requests whose two endpoints
        coincide (zero loss would make the SINR constraint undefined).
    """

    def __init__(
        self,
        metric: Metric,
        senders: Sequence[int],
        receivers: Sequence[int],
        direction: Union[Direction, str] = Direction.BIDIRECTIONAL,
        alpha: float = 3.0,
        beta: float = 1.0,
        noise: float = 0.0,
    ):
        senders_arr = np.asarray(senders, dtype=int).reshape(-1)
        receivers_arr = np.asarray(receivers, dtype=int).reshape(-1)
        if senders_arr.size != receivers_arr.size:
            raise InvalidInstanceError(
                f"senders ({senders_arr.size}) and receivers ({receivers_arr.size}) "
                "must have the same length"
            )
        if senders_arr.size == 0:
            raise InvalidInstanceError("instance must contain at least one request")
        if isinstance(direction, str):
            direction = Direction(direction)
        if alpha < 1:
            raise InvalidInstanceError(f"alpha must be >= 1, got {alpha}")
        if not beta > 0:
            raise InvalidInstanceError(f"beta must be > 0, got {beta}")
        if noise < 0:
            raise InvalidInstanceError(f"noise must be >= 0, got {noise}")

        self.metric = metric
        self.direction = direction
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.noise = float(noise)
        self._set_requests(senders_arr.copy(), receivers_arr.copy())

    def _set_requests(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        patch: Optional[Tuple["Instance", Sequence[int]]] = None,
    ) -> None:
        """Validate the request arrays against the metric and set them,
        read-only, with their link distances and losses.

        With ``patch=(source, slots)`` only the links at *slots* are
        validated and measured; every other link value is copied from
        *source*, whose requests must agree outside *slots* (link
        values are elementwise in the pair, so the result is
        bit-identical to measuring every link).  *slots* may run past
        ``source.n``: they then cover every appended request.
        """
        size = self.metric.n
        if patch is None:
            for role, nodes in (("sender", senders), ("receiver", receivers)):
                if np.count_nonzero((nodes < 0) | (nodes >= size)):
                    raise InvalidInstanceError(f"{role} index out of range")
            # pair_distances instead of a full-matrix gather: for
            # coordinate-backed metrics this keeps huge instances (the
            # sparse-backend regime, n >> 10^3) from materializing the
            # O(n^2) distance matrix just to resolve n link lengths.
            distances = self.metric.pair_distances(senders, receivers)
            losses = distances**self.alpha
            fresh, measured = None, distances
        else:
            source, fresh = patch
            fresh = np.asarray(fresh, dtype=int)
            new_senders, new_receivers = senders[fresh], receivers[fresh]
            # A few new links: checking their nodes in Python beats a
            # handful of numpy calls.
            for role, nodes in (("sender", new_senders), ("receiver", new_receivers)):
                if not all(0 <= node < size for node in nodes.tolist()):
                    raise InvalidInstanceError(f"{role} index out of range")
            distances, losses = source._link_distances, source._link_losses
            if senders.size == distances.size:
                distances, losses = distances.copy(), losses.copy()
            else:
                grown = np.empty(senders.size - distances.size)
                distances = np.concatenate([distances, grown])
                losses = np.concatenate([losses, grown])
            measured = self.metric.pair_distances(new_senders, new_receivers)
            distances[fresh] = measured
            losses[fresh] = measured**self.alpha
        if np.count_nonzero(measured <= 0):
            bad = int(np.argmax(measured <= 0))
            if fresh is not None:
                bad = int(fresh[bad])
            raise InvalidInstanceError(
                f"request {bad} has zero distance between its endpoints"
            )
        for arr in (senders, receivers, distances, losses):
            arr.setflags(write=False)
        self.senders, self.receivers = senders, receivers
        self._link_distances, self._link_losses = distances, losses

    def _derived(self) -> "Instance":
        """An instance with this one's metric and parameters and no
        requests yet (for :meth:`_set_requests` with a patch)."""
        out = Instance.__new__(Instance)
        out.metric = self.metric
        out.direction = self.direction
        out.alpha, out.beta, out.noise = self.alpha, self.beta, self.noise
        return out

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def directed(cls, metric: Metric, pairs: Sequence[Tuple[int, int]], **kwargs) -> "Instance":
        """Build a directed instance from ``(sender, receiver)`` pairs."""
        senders = [p[0] for p in pairs]
        receivers = [p[1] for p in pairs]
        return cls(metric, senders, receivers, direction=Direction.DIRECTED, **kwargs)

    @classmethod
    def bidirectional(cls, metric: Metric, pairs: Sequence[Tuple[int, int]], **kwargs) -> "Instance":
        """Build a bidirectional instance from endpoint pairs."""
        senders = [p[0] for p in pairs]
        receivers = [p[1] for p in pairs]
        return cls(metric, senders, receivers, direction=Direction.BIDIRECTIONAL, **kwargs)

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of requests."""
        return self.senders.size

    @property
    def link_distances(self) -> np.ndarray:
        """Distances ``d(u_i, v_i)`` of each request (read-only)."""
        return self._link_distances

    @property
    def link_losses(self) -> np.ndarray:
        """Losses ``l(u_i, v_i) = d(u_i, v_i)**alpha`` (read-only)."""
        return self._link_losses

    def pairs(self) -> list:
        """The request list as ``[(u_0, v_0), ...]``."""
        return list(zip(self.senders.tolist(), self.receivers.tolist()))

    def with_direction(self, direction: Union[Direction, str]) -> "Instance":
        """A copy of this instance in the other problem variant."""
        return Instance(
            self.metric,
            self.senders,
            self.receivers,
            direction=direction,
            alpha=self.alpha,
            beta=self.beta,
            noise=self.noise,
        )

    def with_gain(self, beta: float) -> "Instance":
        """A copy of this instance with a different gain ``beta``.

        The proof machinery of §3.1 constantly rescales the gain, so
        this is a first-class operation.
        """
        return Instance(
            self.metric,
            self.senders,
            self.receivers,
            direction=self.direction,
            alpha=self.alpha,
            beta=beta,
            noise=self.noise,
        )

    def replaced(
        self, slots: Sequence[int], pairs: Sequence[Tuple[int, int]]
    ) -> "Instance":
        """A copy with request ``slots[k]`` replaced by ``pairs[k]``.

        Only the new links are validated and measured: every other
        request keeps its endpoints, link distance and loss bit for
        bit, so the copy costs a few O(n) memory copies and no metric
        work over the unchanged requests.  The result equals building
        the edited request list from scratch (link values are
        elementwise in the pair).
        """
        slots = [int(slot) for slot in slots]
        if len(slots) != len(pairs):
            raise InvalidInstanceError(
                f"{len(slots)} slots for {len(pairs)} replacement pairs"
            )
        for slot in slots:
            if not 0 <= slot < self.n:
                raise InvalidInstanceError(f"replaced slot {slot} out of range")
        senders, receivers = self.senders.copy(), self.receivers.copy()
        for slot, pair in zip(slots, pairs):
            senders[slot], receivers[slot] = int(pair[0]), int(pair[1])
        out = self._derived()
        out._set_requests(senders, receivers, patch=(self, slots))
        return out

    def appended(self, pairs: Sequence[Tuple[int, int]]) -> "Instance":
        """A copy with *pairs* appended as requests ``n, n + 1, ...``.

        Like :meth:`replaced`, only the new links are validated and
        measured; the result equals building the grown request list
        from scratch.
        """
        if len(pairs) == 0:
            raise InvalidInstanceError("appended needs at least one request")
        n = self.n
        senders = np.concatenate([self.senders, [int(p[0]) for p in pairs]])
        receivers = np.concatenate([self.receivers, [int(p[1]) for p in pairs]])
        out = self._derived()
        out._set_requests(
            senders, receivers, patch=(self, range(n, n + len(pairs)))
        )
        return out

    def subset(self, indices: Sequence[int]) -> "Instance":
        """The sub-instance restricted to the given request *indices*.

        The metric is shared; only the request list shrinks.
        """
        indices = np.asarray(indices, dtype=int).reshape(-1)
        if indices.size == 0:
            raise InvalidInstanceError("subset must contain at least one request")
        return Instance(
            self.metric,
            self.senders[indices],
            self.receivers[indices],
            direction=self.direction,
            alpha=self.alpha,
            beta=self.beta,
            noise=self.noise,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Instance(n={self.n}, direction={self.direction.value}, "
            f"alpha={self.alpha}, beta={self.beta}, noise={self.noise})"
        )
