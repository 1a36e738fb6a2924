"""Declarative algorithm registry over the scheduler implementations.

Every scheduler in this library is registered here under a stable name
with **capability flags** and a **normalized call adapter**, so callers
(:class:`repro.api.Session`, the experiment modules, the CLI) resolve
algorithms by name instead of importing nine free functions with
drifting signatures:

>>> from repro.scheduling.registry import run_algorithm
>>> outcome = run_algorithm("first_fit", instance, powers=powers)
>>> outcome.schedule.num_colors  # doctest: +SKIP

The normalized contract
-----------------------

``run_algorithm(name, instance, powers=None, rng=None, **params)``
returns an :class:`AlgorithmOutcome` — always the same shape,
regardless of how the underlying implementation spells its signature:

* ``schedule`` — the emitted :class:`repro.core.schedule.Schedule`;
* ``stats`` — the algorithm's diagnostics object when it produces one
  (:class:`~repro.scheduling.sqrt_coloring.SqrtColoringStats`,
  :class:`~repro.scheduling.distributed.DistributedStats`), else
  ``None``;
* ``extras`` — algorithm-specific scalars (the exact solver's
  ``optimal_colors``, the protocol model's ``raw_protocol_colors``).

Capability flags (:class:`AlgorithmCapabilities`) make the differences
*declarative* instead of implicit in the signatures:

* ``needs_powers`` — the algorithm schedules under a caller-fixed
  power vector (``powers`` is required); algorithms with
  ``needs_powers=False`` choose their own powers (trivial, free-power
  first-fit, the sqrt assignment of Theorem 15, the distributed
  protocol).
* ``deterministic`` — no randomness: passing ``rng`` is an error, and
  repeated runs are bit-identical.
* ``supports_sparse`` — runs on the :class:`~repro.core.gains.SparseBackend`
  without materializing dense O(n^2) state (the protocol model's
  conflict graph needs the full distance matrix, so it does not);
  running an unsupported algorithm under a sparse default emits a
  ``RuntimeWarning`` naming the dense materialization.

New substrates (a GPU scheduler, an online/arrival variant, a
distributed shard executor) plug in through :func:`register` — no
signature sweep across the experiment modules required.

Implementations themselves live untouched in their modules
(:mod:`repro.scheduling.firstfit` etc.), so registry results are
bit-identical to calling them directly by construction.
"""

from __future__ import annotations

import types
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional

import numpy as np

from repro.core.gains import config_scope, default_config
from repro.core.instance import Instance
from repro.core.schedule import Schedule

__all__ = [
    "AlgorithmCapabilities",
    "AlgorithmOutcome",
    "AlgorithmSpec",
    "algorithm_names",
    "get_algorithm",
    "list_algorithms",
    "register",
    "run_algorithm",
]


@dataclass(frozen=True)
class AlgorithmCapabilities:
    """Declarative capability flags of one registered algorithm."""

    needs_powers: bool
    deterministic: bool
    supports_sparse: bool = True
    #: Pruned-sparse runs can be *certified* dense-equal for this
    #: algorithm: its admission decisions all route through the
    #: flip-risk-counting first-fit kernel on the caller's context
    #: (see :attr:`repro.core.gains.GainBackend.flip_risk_events`).
    certifiable: bool = False

    def flags(self) -> str:
        """Compact human-readable rendering for CLI listings."""
        parts = [
            "powers" if self.needs_powers else "self-powered",
            "deterministic" if self.deterministic else "randomized",
        ]
        if self.supports_sparse:
            parts.append("sparse")
        if self.certifiable:
            parts.append("certifiable")
        return ",".join(parts)


class AlgorithmOutcome(NamedTuple):
    """Normalized result of one algorithm run.

    The ``extras`` default is an immutable empty mapping (not a shared
    ``{}``), so third-party adapters that default-construct outcomes
    cannot pollute each other; pass a fresh dict to carry values.
    """

    schedule: Schedule
    stats: Optional[Any] = None
    extras: Mapping[str, Any] = types.MappingProxyType({})


#: An adapter receives ``(instance, powers, rng, params)`` — *powers*
#: already validated against ``needs_powers``, *params* a mutable dict
#: of the caller's algorithm-specific keyword arguments — and returns
#: an :class:`AlgorithmOutcome`.  Unknown params propagate into the
#: implementation call so the usual ``TypeError`` names them.
Adapter = Callable[[Instance, Optional[np.ndarray], Any, Dict[str, Any]], AlgorithmOutcome]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registry entry: name, capabilities, summary and adapter."""

    name: str
    summary: str
    capabilities: AlgorithmCapabilities
    adapter: Adapter = field(repr=False)

    def run(
        self,
        instance: Instance,
        powers: Optional[np.ndarray] = None,
        rng: Any = None,
        **params: Any,
    ) -> AlgorithmOutcome:
        """Run this algorithm through its normalized adapter.

        Parameters
        ----------
        instance:
            The scheduling instance.
        powers:
            Fixed power vector; required iff
            ``capabilities.needs_powers`` (self-powered algorithms
            reject it — their schedules carry their own powers).
        rng:
            Seed or generator for randomized algorithms; deterministic
            ones reject it so callers cannot silently expect
            nondeterminism.
        params:
            Algorithm-specific keyword arguments, forwarded unchanged.
        """
        caps = self.capabilities
        if caps.needs_powers:
            # ``free_power=True`` is the documented opt-out of the
            # fixed-power contract for dual-mode algorithms (the exact
            # solver's unrestricted optimum).
            if powers is None and not params.get("free_power", False):
                raise TypeError(
                    f"algorithm {self.name!r} schedules under a fixed power "
                    "vector; pass powers= (or use a repro.api.Problem, which "
                    "resolves them)"
                )
            if powers is not None:
                powers = np.asarray(powers, dtype=float)
        elif powers is not None:
            raise TypeError(
                f"algorithm {self.name!r} chooses its own powers; "
                "powers= is not accepted"
            )
        if caps.deterministic and rng is not None:
            raise TypeError(
                f"algorithm {self.name!r} is deterministic; rng= is not "
                "accepted"
            )
        if not caps.supports_sparse and default_config().backend == "sparse":
            warnings.warn(
                f"algorithm {self.name!r} has no sparse-backend support; "
                "this run materializes dense O(n^2) state despite the "
                "sparse default",
                RuntimeWarning,
                stacklevel=3,
            )
        return self.adapter(instance, powers, rng, dict(params))


_REGISTRY: "OrderedDict[str, AlgorithmSpec]" = OrderedDict()


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Register *spec* (rejecting duplicate names); returns it."""
    if spec.name in _REGISTRY:
        raise ValueError(f"algorithm {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_algorithm(name: str) -> AlgorithmSpec:
    """The registered spec for *name* (with a helpful KeyError)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {known}"
        ) from None


def algorithm_names() -> List[str]:
    """Registered names, in registration order."""
    return list(_REGISTRY)


def list_algorithms() -> List[AlgorithmSpec]:
    """All registered specs, in registration order."""
    return list(_REGISTRY.values())


def run_algorithm(
    name: str,
    instance: Instance,
    powers: Optional[np.ndarray] = None,
    rng: Any = None,
    **params: Any,
) -> AlgorithmOutcome:
    """Resolve *name* and run it — the one-call registry entry point."""
    return get_algorithm(name).run(instance, powers=powers, rng=rng, **params)


# ----------------------------------------------------------------------
# Built-in algorithm adapters
# ----------------------------------------------------------------------
#
# Each adapter normalizes one implementation signature onto the
# contract above.  Implementations are imported lazily inside the
# adapters to keep `import repro.scheduling.registry` cheap and to
# avoid import cycles with the scheduler modules.


def _adapt_trivial(instance, powers, rng, params) -> AlgorithmOutcome:
    from repro.scheduling.trivial import trivial_schedule

    return AlgorithmOutcome(trivial_schedule(instance, **params), None, {})


def _adapt_first_fit(instance, powers, rng, params) -> AlgorithmOutcome:
    from repro.scheduling.firstfit import first_fit_schedule

    return AlgorithmOutcome(
        first_fit_schedule(instance, powers, **params), None, {}
    )


def _adapt_first_fit_sharded(instance, powers, rng, params) -> AlgorithmOutcome:
    from repro.scheduling.firstfit import first_fit_schedule

    with config_scope(
        backend="sharded",
        workers=params.pop("workers", None),
        shard_executor=params.pop("executor", None),
    ):
        schedule = first_fit_schedule(instance, powers, **params)
    return AlgorithmOutcome(schedule, None, {})


def _adapt_first_fit_free_power(instance, powers, rng, params) -> AlgorithmOutcome:
    from repro.scheduling.firstfit import first_fit_free_power_schedule

    return AlgorithmOutcome(
        first_fit_free_power_schedule(instance, **params), None, {}
    )


def _adapt_peeling(instance, powers, rng, params) -> AlgorithmOutcome:
    from repro.scheduling.peeling import peeling_schedule

    return AlgorithmOutcome(
        peeling_schedule(instance, powers, **params), None, {}
    )


def _adapt_gain_scaling(instance, powers, rng, params) -> AlgorithmOutcome:
    from repro.scheduling.gain_scaling import rescale_gain_coloring

    schedule = rescale_gain_coloring(instance, powers, **params)
    classes = schedule.color_classes()
    densest = max(classes.values(), key=lambda members: members.size)
    return AlgorithmOutcome(schedule, None, {"densest_subset": densest})


def _adapt_sqrt_coloring(instance, powers, rng, params) -> AlgorithmOutcome:
    from repro.scheduling.sqrt_coloring import sqrt_coloring

    schedule, stats = sqrt_coloring(instance, rng=rng, **params)
    return AlgorithmOutcome(schedule, stats, {})


def _adapt_local_search(instance, powers, rng, params) -> AlgorithmOutcome:
    from repro.scheduling.local_search import improve_schedule

    schedule = params.pop("schedule", None)
    if schedule is None:
        raise TypeError(
            "algorithm 'local_search' improves an existing schedule; pass "
            "schedule= (a Schedule or a ScheduleResult)"
        )
    if not isinstance(schedule, Schedule):
        # Accept a repro.api.ScheduleResult (or anything carrying one).
        schedule = getattr(schedule, "schedule", schedule)
    improved = improve_schedule(instance, schedule, **params)
    return AlgorithmOutcome(improved, None, {})


def _adapt_distributed(instance, powers, rng, params) -> AlgorithmOutcome:
    from repro.scheduling.distributed import distributed_coloring

    schedule, stats = distributed_coloring(instance, rng=rng, **params)
    return AlgorithmOutcome(schedule, stats, {})


def _adapt_exact(instance, powers, rng, params) -> AlgorithmOutcome:
    from repro.scheduling.exact import exact_minimum_colors

    if params.pop("free_power", False):
        powers = None
    opt, schedule = exact_minimum_colors(instance, powers, **params)
    return AlgorithmOutcome(schedule, None, {"optimal_colors": opt})


def _adapt_protocol_model(instance, powers, rng, params) -> AlgorithmOutcome:
    from repro.scheduling.protocol_model import protocol_schedule

    schedule, raw = protocol_schedule(instance, powers, **params)
    return AlgorithmOutcome(schedule, None, {"raw_protocol_colors": raw})


for _spec in (
    AlgorithmSpec(
        name="trivial",
        summary="One color per request — the O(n) worst-case baseline",
        capabilities=AlgorithmCapabilities(
            needs_powers=False, deterministic=True
        ),
        adapter=_adapt_trivial,
    ),
    AlgorithmSpec(
        name="first_fit",
        summary="Greedy first-fit coloring under a fixed power vector",
        capabilities=AlgorithmCapabilities(
            needs_powers=True,
            deterministic=True,
            certifiable=True,
        ),
        adapter=_adapt_first_fit,
    ),
    AlgorithmSpec(
        name="first_fit_sharded",
        summary="First-fit over W distributed gain shards (workers=, executor=)",
        capabilities=AlgorithmCapabilities(
            needs_powers=True,
            deterministic=True,
            certifiable=True,
        ),
        adapter=_adapt_first_fit_sharded,
    ),
    AlgorithmSpec(
        name="first_fit_free_power",
        summary="First-fit where every class picks its own feasible powers",
        capabilities=AlgorithmCapabilities(
            needs_powers=False, deterministic=True
        ),
        adapter=_adapt_first_fit_free_power,
    ),
    AlgorithmSpec(
        name="peeling",
        summary="Repeated greedy maximal-feasible-subset extraction",
        capabilities=AlgorithmCapabilities(
            needs_powers=True, deterministic=True
        ),
        adapter=_adapt_peeling,
    ),
    AlgorithmSpec(
        name="gain_scaling",
        summary="Propositions 3/4: color at a stricter gain (gamma_target=)",
        capabilities=AlgorithmCapabilities(
            needs_powers=True, deterministic=True, certifiable=True
        ),
        adapter=_adapt_gain_scaling,
    ),
    AlgorithmSpec(
        name="sqrt_coloring",
        summary="Theorem 15 randomized LP coloring for the sqrt assignment",
        capabilities=AlgorithmCapabilities(
            needs_powers=False, deterministic=False
        ),
        adapter=_adapt_sqrt_coloring,
    ),
    AlgorithmSpec(
        name="local_search",
        summary="Dissolve small color classes of an existing schedule=",
        capabilities=AlgorithmCapabilities(
            needs_powers=False, deterministic=True
        ),
        adapter=_adapt_local_search,
    ),
    AlgorithmSpec(
        name="distributed",
        summary="Slotted random-access protocol (distributed coloring)",
        capabilities=AlgorithmCapabilities(
            needs_powers=False, deterministic=False
        ),
        adapter=_adapt_distributed,
    ),
    AlgorithmSpec(
        name="exact",
        summary="Bitmask-DP optimal coloring for small n (free_power= opts out of fixed powers)",
        capabilities=AlgorithmCapabilities(
            needs_powers=True, deterministic=True
        ),
        adapter=_adapt_exact,
    ),
    AlgorithmSpec(
        name="protocol_model",
        summary="Graph-based protocol-model baseline with SINR repair",
        capabilities=AlgorithmCapabilities(
            needs_powers=True, deterministic=True, supports_sparse=False
        ),
        adapter=_adapt_protocol_model,
    ),
):
    register(_spec)
del _spec
