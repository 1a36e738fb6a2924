"""Batched interference queries across many ``(instance, powers)`` pairs.

:class:`repro.core.context.InterferenceContext` answers every query for
*one* ``(instance, powers)`` pair from cached gain matrices.  Workloads
that evaluate **many** pairs at once — validating all trial schedules of
an experiment cell, scoring a population of power assignments, batched
feasibility sweeps — still paid one Python-level dispatch per pair.
This module closes that gap:

* :class:`ContextBatch` — a fixed collection of pairs.  When every pair
  has the same request count and direction (the common case: trials of
  one experiment cell), the per-pair gain matrices are **stacked** into
  one ``(B, n, n)`` array and margins/feasibility for the whole batch
  are computed in single vectorized passes.  The stack is assembled
  through the gain backend's block primitives
  (:meth:`~repro.core.gains.GainBackend.cross_block_u`), so lossless
  sparse (``epsilon = 0``) and array/device-resident contexts stack
  too — only ragged batches and ε-pruned (lossy) backends fall back to
  a loop over pooled per-pair contexts — still cached, just not
  stacked.
* :class:`ContextPool` — a strong-reference working set of contexts.
  :func:`repro.core.context.get_context` caches through a small global
  LRU; the pool pins a batch's contexts for its lifetime so a sweep
  over hundreds of pairs cannot thrash that LRU.
* :meth:`ContextBatch.first_fit_schedules` /
  :meth:`ContextBatch.local_search_schedules` — batched **scheduling**,
  not just batched validation: the stacked gains feed the vectorized
  lockstep kernels (:func:`repro.core.kernels.stacked_first_fit`,
  :func:`repro.core.kernels.stacked_local_search`), emitting per-pair
  schedules identical to scheduling each pair alone.

Numerical contract: the stacked path reproduces the per-context
results bit-for-bit — gain matrices are the cached per-context arrays
(stacked, not recomputed), and reductions run along the trailing axis
exactly as the 2-D ``_class_sum`` does per slice.  The conformance
tests in ``tests/core/test_batch.py`` assert exact equality.
"""

from __future__ import annotations

import logging
import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.context import (
    DEFAULT_RTOL,
    InterferenceContext,
    _cache_key,
    _margins_from,
    get_context,
)
from repro.core.errors import InvalidScheduleError
from repro.core.gains import DEFAULT_TILE_ROWS, BackendConfig, default_config
from repro.core.instance import Instance
from repro.core.kernels import (
    check_order,
    first_fit_colors,
    stacked_first_fit,
    stacked_local_search,
)
from repro.core.schedule import Schedule, build_schedule

PairLike = Tuple[Instance, np.ndarray]
ColorsLike = Union[None, np.ndarray, Sequence[Optional[np.ndarray]]]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BatchFallbackInfo:
    """Why a :class:`ContextBatch` could not take the stacked fast path.

    Attached as :attr:`ContextBatch.fallback` (``None`` when the batch
    is stacked) and surfaced in
    :class:`repro.api.Provenance.batch_fallback`, so the pooled
    per-pair fallback is a *visible* property of a result instead of a
    silent performance cliff.

    Attributes
    ----------
    reasons:
        Machine-readable reason tags, any of ``"ragged_n"`` (pairs
        disagree on request count), ``"mixed_direction"`` (directed and
        bidirectional pairs mixed), ``"lossy_backend"`` (a pair uses an
        ε-pruned sparse backend — the stacked kernels carry no
        flip-risk certification, so lossy pairs keep the certifying
        per-pair path).
    pairs:
        Batch size.
    detail:
        Human-readable one-liner (also the logged message).
    """

    reasons: Tuple[str, ...]
    pairs: int
    detail: str


# Call sites that already logged a lossy-backend fallback WARNING,
# keyed by the call site's ``(filename, lineno)`` so a batch
# constructed inside a loop warns once, not once per construction.
_warned_fallback_sites: Set[Tuple[str, int]] = set()


def reset_batch_fallback_registry() -> None:
    """Forget which call sites already logged a fallback ``WARNING``
    (repeats log at ``DEBUG``); used by tests."""
    _warned_fallback_sites.clear()


def _fallback_call_site() -> Tuple[str, int]:
    """``(filename, lineno)`` of the first frame outside this module —
    the user code constructing the batch."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - interpreter-dependent
        return ("<unknown>", 0)
    return (frame.f_code.co_filename, frame.f_lineno)


def _diagnose_fallback(contexts: List[InterferenceContext]) -> Optional[BatchFallbackInfo]:
    """The :class:`BatchFallbackInfo` for *contexts*, or ``None`` when
    the batch can stack.  The lossy-backend reason (the caller asked
    for batching but gets a per-pair loop) logs at ``WARNING`` once per
    call site — ``DEBUG`` on repeats — while shape mismatches (ragged
    batches are routine) always log at ``DEBUG``."""
    first = contexts[0]
    reasons = []
    if any(ctx.n != first.n for ctx in contexts):
        reasons.append("ragged_n")
    if any(
        ctx.instance.direction is not first.instance.direction
        for ctx in contexts
    ):
        reasons.append("mixed_direction")
    if any(
        ctx.config.backend == "sparse" and ctx.config.sparse_epsilon > 0
        for ctx in contexts
    ):
        reasons.append("lossy_backend")
    if not reasons:
        return None
    info = BatchFallbackInfo(
        reasons=tuple(reasons),
        pairs=len(contexts),
        detail=(
            f"ContextBatch of {len(contexts)} pairs falls back to pooled "
            f"per-pair contexts ({', '.join(reasons)}); queries stay "
            "correct but are not stacked into one (B, n, n) pass"
        ),
    )
    level = logging.DEBUG
    if "lossy_backend" in reasons:
        site = _fallback_call_site()
        if site not in _warned_fallback_sites:
            _warned_fallback_sites.add(site)
            level = logging.WARNING
    logger.log(level, info.detail)
    return info


class ContextPool:
    """A strong-reference working set of :class:`InterferenceContext`.

    The global cache of :func:`get_context` is a bounded LRU
    (:func:`repro.core.context.context_cache_limit` contexts across all
    instances) and only lives as long as the instances do.  A pool pins
    the contexts of a working set (a batch, a sweep, a simulation
    episode) so repeated passes hit warm gain matrices regardless of
    what else runs in between.

    Parameters
    ----------
    max_contexts:
        Optional LRU bound on pinned contexts (``None`` = unbounded).
    """

    def __init__(self, max_contexts: Optional[int] = None):
        if max_contexts is not None and max_contexts < 1:
            raise ValueError("max_contexts must be >= 1 or None")
        self.max_contexts = max_contexts
        self._contexts: "OrderedDict[Tuple, InterferenceContext]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._contexts)

    def get(
        self,
        instance: Instance,
        powers: np.ndarray,
        beta: Optional[float] = None,
        noise: Optional[float] = None,
        config: Optional[BackendConfig] = None,
    ) -> InterferenceContext:
        """The pooled context for ``(instance, powers)`` (pinned).

        *config* defaults to :func:`~repro.core.gains.default_config`;
        its :meth:`~repro.core.gains.BackendConfig.key` is part of the
        pool key (exactly like :func:`get_context`'s cache key), so a
        pool filled under one backend configuration never serves those
        contexts to a caller running under another.
        """
        powers_arr = np.asarray(powers, dtype=float)
        config = default_config() if config is None else config
        key = (id(instance),) + _cache_key(
            powers_arr,
            instance.beta if beta is None else float(beta),
            instance.noise if noise is None else float(noise),
            config,
        )
        context = self._contexts.get(key)
        if context is None:
            context = get_context(
                instance, powers_arr, beta=beta, noise=noise, config=config
            )
            self._contexts[key] = context
            if (
                self.max_contexts is not None
                and len(self._contexts) > self.max_contexts
            ):
                self._contexts.popitem(last=False)
        else:
            self._contexts.move_to_end(key)
        return context

    def warm(self, pairs: Sequence[PairLike]) -> "ContextPool":
        """Prebuild gain backends for every pair; returns ``self``."""
        for instance, powers in pairs:
            context = self.get(instance, powers)
            context.backend  # noqa: B018 - touch to force the lazy build
            context.signals
        return self

    def clear(self) -> None:
        """Drop every pinned context (the global cache may retain them)."""
        self._contexts.clear()


class ContextBatch:
    """Vectorized interference queries over a batch of pairs.

    Parameters
    ----------
    pairs:
        Sequence of ``(instance, powers)`` pairs.  Per-pair contexts are
        fetched through *pool* (shared caching), so building a batch for
        pairs that were already queried individually is cheap.
    pool:
        Optional :class:`ContextPool` to pin the contexts in; a private
        pool is created when omitted.
    config:
        Optional :class:`~repro.core.gains.BackendConfig` applied to
        every pair's context (``None`` follows
        :func:`~repro.core.gains.default_config`, exactly like
        :func:`repro.core.context.get_context`).

    Notes
    -----
    When every pair has the same ``n`` and direction on a lossless
    backend the batch is *stacked*: queries run on one ``(B, n, n)``
    gain stack, assembled tile-by-tile through the backend block
    primitives (no per-context dense materialization).  Otherwise
    ``stacked`` is ``False``, :attr:`fallback` carries a
    :class:`BatchFallbackInfo` naming why, and queries loop over the
    pooled contexts (list-valued results).  Either way the numbers are
    identical to querying each pair's own context.
    """

    def __init__(
        self,
        pairs: Sequence[PairLike],
        pool: Optional[ContextPool] = None,
        config: Optional[BackendConfig] = None,
    ):
        if len(pairs) == 0:
            raise ValueError("a ContextBatch needs at least one pair")
        self.pool = ContextPool() if pool is None else pool
        self.contexts: List[InterferenceContext] = [
            self.pool.get(instance, powers, config=config)
            for instance, powers in pairs
        ]
        # Stacking needs same-shape pairs and a lossless backend (the
        # stacked kernels carry no flip-risk counters); ragged or
        # ε-pruned batches take the pooled per-pair fallback (every
        # query and the scheduling kernels are backend-generic there),
        # recorded as a structured :class:`BatchFallbackInfo` instead
        # of a silent switch.
        self.fallback = _diagnose_fallback(self.contexts)
        self.stacked = self.fallback is None
        self._signals: Optional[np.ndarray] = None
        self._gains: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._gains_t: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def for_schedules(
        cls,
        instances: Union[Instance, Sequence[Instance]],
        schedules: Sequence[Schedule],
        pool: Optional[ContextPool] = None,
    ) -> "ContextBatch":
        """A batch pairing each schedule's powers with its instance.

        *instances* may be a single instance (shared by all schedules)
        or one instance per schedule.
        """
        if isinstance(instances, Instance):
            instances = [instances] * len(schedules)
        if len(instances) != len(schedules):
            raise ValueError(
                f"{len(instances)} instances for {len(schedules)} schedules"
            )
        pairs = [
            (instance, schedule.powers)
            for instance, schedule in zip(instances, schedules)
        ]
        return cls(pairs, pool=pool)

    # ------------------------------------------------------------------
    # Stacked state
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.contexts)

    @property
    def n(self) -> int:
        """Request count of a stacked batch (raises when ragged)."""
        if not self.stacked:
            raise ValueError("ragged batch has no single request count")
        return self.contexts[0].n

    def _stacked_signals(self) -> np.ndarray:
        if self._signals is None:
            self._signals = np.stack([ctx.signals for ctx in self.contexts])
        return self._signals

    def _assemble_stack(self, transposed: bool) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(B, n, n)`` gain stacks, assembled through backend
        block primitives.

        Batches of numpy dense contexts stack the per-context arrays
        directly; any other lossless backend (``epsilon = 0`` sparse,
        dense in another array namespace) is tiled into the
        preallocated stack via
        :meth:`~repro.core.gains.GainBackend.cross_block_u` /
        ``cross_block_v`` in :data:`~repro.core.gains.DEFAULT_TILE_ROWS`
        row strips — the backend never materializes its own full dense
        copy.  Block reconstruction is bit-identical to the dense
        arrays (the backend conformance contract), so the stacked
        queries stay exact.
        """
        if all(
            ctx.config.backend == "dense" and ctx.config.array_namespace == "numpy"
            for ctx in self.contexts
        ):
            directed = all(ctx.backend.directed for ctx in self.contexts)
            if transposed:
                # Transpose straight into the stack instead of stacking
                # the per-context transpose caches: materializing
                # ``ctx.gains_ut`` for every pair would leave B extra
                # (n, n) arrays resident with no later use.  A transpose
                # is pure element reordering, so the stacked values are
                # bitwise the cached transposes either way.
                stack_u = np.empty((len(self), self.n, self.n))
                for index, ctx in enumerate(self.contexts):
                    stack_u[index] = ctx.gains_u.T
                if directed:
                    return stack_u, stack_u
                stack_v = np.empty_like(stack_u)
                for index, ctx in enumerate(self.contexts):
                    stack_v[index] = ctx.gains_v.T
                return stack_u, stack_v
            stack_u = np.stack([ctx.gains_u for ctx in self.contexts])
            if directed:
                return stack_u, stack_u
            return stack_u, np.stack([ctx.gains_v for ctx in self.contexts])
        n = self.n
        all_idx = np.arange(n)
        directed = all(ctx.backend.directed for ctx in self.contexts)
        stack_u = np.empty((len(self), n, n))
        stack_v = stack_u if directed else np.empty((len(self), n, n))
        for index, ctx in enumerate(self.contexts):
            backend = ctx.backend
            for lo in range(0, n, DEFAULT_TILE_ROWS):
                rows = all_idx[lo : lo + DEFAULT_TILE_ROWS]
                hi = lo + rows.size
                if transposed:
                    stack_u[index, lo:hi] = backend.cross_block_u(
                        all_idx, rows
                    ).T
                    if not directed:
                        stack_v[index, lo:hi] = backend.cross_block_v(
                            all_idx, rows
                        ).T
                else:
                    stack_u[index, lo:hi] = backend.cross_block_u(
                        rows, all_idx
                    )
                    if not directed:
                        stack_v[index, lo:hi] = backend.cross_block_v(
                            rows, all_idx
                        )
        return stack_u, stack_v

    def _stacked_gains(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._gains is None:
            self._gains = self._assemble_stack(transposed=False)
        return self._gains

    def _stacked_gains_t(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked contiguous-transpose gains ``(B, n, n)`` for the
        column-consuming scheduler kernels (see
        :attr:`InterferenceContext.gains_ut`)."""
        if self._gains_t is None:
            self._gains_t = self._assemble_stack(transposed=True)
        return self._gains_t

    def _colors_array(self, colors: ColorsLike) -> Optional[np.ndarray]:
        if colors is None:
            return None
        colors_arr = np.asarray(colors)
        if colors_arr.shape != (len(self), self.n):
            raise ValueError(
                f"colors must have shape {(len(self), self.n)}, "
                f"got {colors_arr.shape}"
            )
        return colors_arr

    def _use_stacked(self, colors: ColorsLike) -> bool:
        """Stacked math applies unless *colors* mixes per-pair ``None``
        entries (uncolorable in one ``(B, n)`` array) with vectors."""
        if not self.stacked:
            return False
        if colors is None or isinstance(colors, np.ndarray):
            return True
        return not any(c is None for c in colors)

    def _per_pair_colors(self, colors: ColorsLike) -> List[Optional[np.ndarray]]:
        if colors is None:
            return [None] * len(self)
        if len(colors) != len(self):
            raise ValueError(
                f"{len(colors)} color vectors for {len(self)} pairs"
            )
        return [None if c is None else np.asarray(c) for c in colors]

    def _defaults(
        self, beta: Optional[float], noise: Optional[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-pair ``(beta, noise)`` columns for stacked broadcasting."""
        betas = np.asarray(
            [ctx.beta if beta is None else float(beta) for ctx in self.contexts]
        )
        noises = np.asarray(
            [ctx.noise if noise is None else float(noise) for ctx in self.contexts]
        )
        return betas[:, None], noises[:, None]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def interference(
        self, colors: ColorsLike = None
    ) -> Union[np.ndarray, List[np.ndarray]]:
        """Worst-endpoint same-color interference per pair.

        Stacked batches return a ``(B, n)`` array; ragged batches (or
        per-pair colors mixing ``None`` with vectors) a list of
        per-pair arrays.  *colors* is ``None`` (everyone interferes) or
        one color vector — or ``None`` — per pair.
        """
        if not self._use_stacked(colors):
            return [
                ctx.interference(colors=c)
                for ctx, c in zip(self.contexts, self._per_pair_colors(colors))
            ]
        gains_u, gains_v = self._stacked_gains()
        colors_arr = self._colors_array(colors)
        interf = _stacked_class_sum(gains_u, colors_arr)
        if gains_v is not gains_u:
            interf = np.maximum(interf, _stacked_class_sum(gains_v, colors_arr))
        return interf

    def margins(
        self,
        colors: ColorsLike = None,
        beta: Optional[float] = None,
        noise: Optional[float] = None,
    ) -> Union[np.ndarray, List[np.ndarray]]:
        """SINR margins per pair (``(B, n)`` stacked, else a list).

        Bit-for-bit identical to calling
        :meth:`InterferenceContext.margins` pair by pair.
        """
        if not self._use_stacked(colors):
            return [
                ctx.margins(colors=c, beta=beta, noise=noise)
                for ctx, c in zip(self.contexts, self._per_pair_colors(colors))
            ]
        betas, noises = self._defaults(beta, noise)
        interf = self.interference(colors=colors)
        return _margins_from(self._stacked_signals(), interf, betas, noises)

    def feasible(
        self,
        colors: ColorsLike = None,
        beta: Optional[float] = None,
        noise: Optional[float] = None,
        rtol: float = DEFAULT_RTOL,
    ) -> np.ndarray:
        """Boolean vector: does each pair satisfy every SINR constraint?"""
        margins = self.margins(colors=colors, beta=beta, noise=noise)
        if isinstance(margins, np.ndarray) and margins.ndim == 2:
            return np.all(margins >= 1.0 - rtol, axis=1)
        return np.asarray([bool(np.all(m >= 1.0 - rtol)) for m in margins])

    # ------------------------------------------------------------------
    # Batched scheduling
    # ------------------------------------------------------------------

    def _first_fit_limits(
        self, beta: Optional[float], rtol: float
    ) -> List[np.ndarray]:
        limits = []
        for index, ctx in enumerate(self.contexts):
            budget = ctx.budgets(beta=beta)
            if np.any(budget < 0):
                bad = int(np.argmax(budget < 0))
                raise InvalidScheduleError(
                    f"pair {index}: request {bad} cannot satisfy its SINR "
                    "constraint even alone; scale the powers first "
                    "(see scale_powers_for_noise)"
                )
            limits.append(budget * (1.0 + rtol))
        return limits

    def first_fit_schedules(
        self,
        orders: Optional[Sequence[Sequence[int]]] = None,
        beta: Optional[float] = None,
        rtol: float = 1e-9,
    ) -> List[Schedule]:
        """First-fit coloring of every pair in the batch.

        Stacked batches run :func:`repro.core.kernels.stacked_first_fit`
        over the ``(B, n, n)`` transposed gain stack — every order
        position is one vectorized admission pass covering all pairs —
        and each returned schedule is bit-identical to calling
        :func:`repro.scheduling.firstfit.first_fit_schedule` on that
        pair alone.  Ragged batches fall back to a per-pair
        :class:`~repro.core.kernels.ScheduleKernel` loop (still the
        kernel path, just not in lockstep).

        Parameters
        ----------
        orders:
            Optional per-pair processing orders, each a permutation of
            ``range(n)`` of its pair (longest link first by default,
            matching ``first_fit_schedule``); anything else raises
            ``ValueError``.
        beta, rtol:
            As in ``first_fit_schedule``.
        """
        if orders is None:
            order_list = [
                np.argsort(-ctx.instance.link_distances, kind="stable")
                for ctx in self.contexts
            ]
        else:
            if len(orders) != len(self):
                raise ValueError(
                    f"{len(orders)} orders for {len(self)} pairs"
                )
            order_list = []
            for index, (order, ctx) in enumerate(zip(orders, self.contexts)):
                try:
                    order_list.append(check_order(order, ctx.n))
                except ValueError as exc:
                    raise ValueError(f"pair {index}: {exc}") from None
        limits = self._first_fit_limits(beta, rtol)

        if self.stacked:
            gains_ut, gains_vt = self._stacked_gains_t()
            colors = stacked_first_fit(
                gains_ut,
                gains_vt,
                np.stack(limits),
                np.stack(order_list),
                finite=all(
                    not ctx.has_infinite_gains for ctx in self.contexts
                ),
            )
            return [
                build_schedule(colors[index], ctx.powers)
                for index, ctx in enumerate(self.contexts)
            ]

        return [
            build_schedule(first_fit_colors(ctx, order, pair_limits), ctx.powers)
            for ctx, order, pair_limits in zip(self.contexts, order_list, limits)
        ]

    def local_search_schedules(
        self,
        schedules: Sequence[Schedule],
        beta: Optional[float] = None,
        max_rounds: Optional[int] = None,
    ) -> List[Schedule]:
        """Local-search improvement of one schedule per pair.

        Stacked batches run
        :func:`repro.core.kernels.stacked_local_search` over the
        ``(B, n, n)`` transposed gain stack — the per-pair dissolution
        attempts advance in lockstep — and each returned schedule is
        identical to calling
        :func:`repro.scheduling.local_search.improve_schedule` on that
        pair alone.  Ragged/lossy batches fall back to a per-pair
        ``improve_schedule`` loop.

        Parameters
        ----------
        schedules:
            One feasible schedule per pair, built from the pair's own
            powers (validated before and after, like the per-pair
            reference).
        beta, max_rounds:
            As in ``improve_schedule``.
        """
        # Lazy import: scheduling sits above core in the layer order.
        from repro.scheduling.local_search import improve_schedule

        if len(schedules) != len(self):
            raise InvalidScheduleError(
                f"{len(schedules)} schedules for {len(self)} pairs"
            )
        for index, (ctx, schedule) in enumerate(
            zip(self.contexts, schedules)
        ):
            if schedule.n != ctx.n:
                raise InvalidScheduleError(
                    f"pair {index}: schedule covers {schedule.n} requests, "
                    f"instance has {ctx.n}"
                )
            if not np.array_equal(schedule.powers, ctx.powers):
                raise InvalidScheduleError(
                    f"pair {index}: schedule powers differ from the batch "
                    "pair powers"
                )

        if not self.stacked:
            return [
                improve_schedule(
                    ctx.instance, schedule, beta=beta, max_rounds=max_rounds
                )
                for ctx, schedule in zip(self.contexts, schedules)
            ]

        for ctx, schedule in zip(self.contexts, schedules):
            schedule.validate(ctx.instance, beta=beta)
        betas, noises = self._defaults(beta, None)
        gains_ut, gains_vt = self._stacked_gains_t()
        colors = stacked_local_search(
            gains_ut,
            gains_vt,
            np.stack([schedule.compacted().colors for schedule in schedules]),
            self._stacked_signals(),
            betas[:, 0],
            noises[:, 0],
            max_rounds=max_rounds,
            finite=all(not ctx.has_infinite_gains for ctx in self.contexts),
        )
        improved = []
        for index, ctx in enumerate(self.contexts):
            schedule = build_schedule(colors[index], ctx.powers)
            schedule.validate(ctx.instance, beta=beta)
            improved.append(schedule)
        return improved

    def validate_schedules(
        self,
        schedules: Sequence[Schedule],
        rtol: float = DEFAULT_RTOL,
    ) -> None:
        """Validate one schedule per pair in a single batched pass.

        Raises :class:`InvalidScheduleError` naming the first offending
        pair.  Equivalent to ``schedule.validate(instance)`` per pair,
        assuming the batch was built from the schedules' own powers
        (see :meth:`for_schedules`).
        """
        if len(schedules) != len(self):
            raise InvalidScheduleError(
                f"{len(schedules)} schedules for {len(self)} pairs"
            )
        for ctx, schedule in zip(self.contexts, schedules):
            if schedule.n != ctx.n:
                raise InvalidScheduleError(
                    f"schedule covers {schedule.n} requests, "
                    f"instance has {ctx.n}"
                )
            if not np.array_equal(schedule.powers, ctx.powers):
                raise InvalidScheduleError(
                    "schedule powers differ from the batch pair powers"
                )
        colors = [schedule.colors for schedule in schedules]
        feasible = self.feasible(colors=colors, rtol=rtol)
        if not np.all(feasible):
            bad = int(np.flatnonzero(~feasible)[0])
            bad_margins = self.margins(colors=colors)[bad]
            worst = int(np.argmin(bad_margins))
            raise InvalidScheduleError(
                f"pair {bad}: SINR constraint violated, e.g. request {worst} "
                f"has margin {bad_margins[worst]:.4g} (< 1)"
            )


def _stacked_class_sum(
    gains: np.ndarray, colors: Optional[np.ndarray]
) -> np.ndarray:
    """Batched :func:`repro.core.interference._class_sum`.

    ``gains`` is ``(B, n, n)``; *colors* is ``None`` or ``(B, n)``.  The
    reduction runs along the trailing axis, which matches the 2-D row
    sum slice by slice (bit-for-bit).
    """
    if colors is None:
        return gains.sum(axis=2)
    same = colors[:, :, None] == colors[:, None, :]
    n = gains.shape[-1]
    same &= ~np.eye(n, dtype=bool)
    masked = np.where(same, gains, 0.0)
    return masked.sum(axis=2)


def batch_margins(
    pairs: Sequence[PairLike],
    colors: ColorsLike = None,
    pool: Optional[ContextPool] = None,
) -> Union[np.ndarray, List[np.ndarray]]:
    """One-shot :meth:`ContextBatch.margins` over *pairs*."""
    return ContextBatch(pairs, pool=pool).margins(colors=colors)


def batch_validate_schedules(
    instances: Union[Instance, Sequence[Instance]],
    schedules: Sequence[Schedule],
    rtol: float = DEFAULT_RTOL,
    pool: Optional[ContextPool] = None,
) -> None:
    """Batched ``schedule.validate(instance)`` over aligned sequences."""
    batch = ContextBatch.for_schedules(instances, schedules, pool=pool)
    batch.validate_schedules(schedules, rtol=rtol)
