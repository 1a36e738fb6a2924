"""Coloring / scheduling algorithms.

* :mod:`~repro.scheduling.registry` — the **supported entry point**:
  every algorithm below is registered by name with capability flags
  and a normalized adapter, and is callable through
  :class:`repro.api.Session` or
  :func:`repro.scheduling.registry.run_algorithm`.
* :mod:`~repro.scheduling.trivial` — one color per request (the O(n)
  upper bound the paper's Omega(n) lower bound is matched against).
* :mod:`~repro.scheduling.firstfit` — greedy first-fit coloring under
  a fixed power assignment, plus a free-power variant that uses
  power-control feasibility (the "optimal power assignment" witness).
* :mod:`~repro.scheduling.peeling` — repeated extraction of maximal
  feasible subsets.
* :mod:`~repro.scheduling.gain_scaling` — constructive Propositions 3
  and 4: trade gain for colors.
* :mod:`~repro.scheduling.sqrt_coloring` — the Theorem 15 randomized
  O(log n)-approximation for the square-root assignment (distance
  classes + LP relaxation + randomized rounding).
* :mod:`~repro.scheduling.protocol_model` — a graph-based
  (protocol-model) baseline from the pre-SINR literature.

The algorithms are called through the registry; their implementations
are the functions of the submodules above (for example
``repro.scheduling.firstfit.first_fit_schedule``).
"""

from repro.scheduling.distributed import DistributedStats, ProtocolStalledError
from repro.scheduling.exact import InstanceTooLargeError
from repro.scheduling.protocol_model import protocol_conflict_graph
from repro.scheduling.sqrt_coloring import SqrtColoringStats

__all__ = [
    "InstanceTooLargeError",
    "DistributedStats",
    "ProtocolStalledError",
    "SqrtColoringStats",
    "protocol_conflict_graph",
]
