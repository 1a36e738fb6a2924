"""Certified lower bounds on the optimal number of colors.

Approximation experiments need a handle on OPT.  Two sound bounds are
implemented:

* **Node multiplicity** — requests sharing an endpoint can never share
  a color (shared nodes give zero loss, i.e. infinite interference),
  so the maximum number of requests incident to one node lower-bounds
  OPT.
* **Pairwise conflicts** — two requests that are mutually infeasible
  under *every* power assignment (power-control growth factor >= 1 for
  the pair) must receive distinct colors; any clique in this conflict
  graph lower-bounds OPT.  A greedy clique heuristic provides the
  certificate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.analysis.power_control import _power_control_matrices
from repro.core.instance import Instance

if TYPE_CHECKING:
    import networkx as nx


def node_multiplicity_lower_bound(instance: Instance) -> int:
    """Max number of requests sharing a node — a sound OPT lower bound."""
    endpoints = np.concatenate([instance.senders, instance.receivers])
    _, counts = np.unique(endpoints, return_counts=True)
    # A node used by k requests forces k distinct colors.
    return int(np.max(counts))


def conflict_graph(instance: Instance, beta: Optional[float] = None) -> nx.Graph:
    """Graph on requests with an edge where *no* power assignment lets
    the two requests share a color: the pair's growth factor
    ``sqrt(A[i, j] * A[j, i])`` (``A`` the entrywise max of the power
    control matrices) is at least 1, or an entry is infinite."""
    import networkx as nx
    beta = instance.beta if beta is None else float(beta)
    matrix = np.maximum.reduce(_power_control_matrices(instance, np.arange(instance.n), beta))
    infinite = np.isinf(matrix)
    with np.errstate(invalid="ignore", over="ignore"):
        conflict = infinite | infinite.T | (np.sqrt(matrix * matrix.T) >= 1.0)
    rows, cols = np.nonzero(np.triu(conflict, k=1))
    graph = nx.Graph()
    graph.add_nodes_from(range(instance.n))
    graph.add_edges_from(zip(rows.tolist(), cols.tolist()))
    return graph


def clique_lower_bound(instance: Instance, beta: Optional[float] = None) -> int:
    """Size of a greedily grown clique in the conflict graph.

    Every member of a conflict clique needs its own color, so the
    clique size is a certified lower bound on OPT.
    """
    graph = conflict_graph(instance, beta=beta)
    if graph.number_of_edges() == 0:
        return 1
    # Greedy: seed with the max-degree vertex, extend by common neighbours.
    best = 1
    degrees = sorted(graph.degree, key=lambda kv: -kv[1])
    for seed, _ in degrees[: min(10, len(degrees))]:
        clique = {seed}
        candidates = set(graph.neighbors(seed))
        while candidates:
            vertex = max(candidates, key=lambda v: graph.degree(v))
            clique.add(vertex)
            candidates &= set(graph.neighbors(vertex))
        best = max(best, len(clique))
    return best


def opt_color_lower_bound(instance: Instance, beta: Optional[float] = None) -> int:
    """Best available certified lower bound on the optimal color count."""
    return max(
        node_multiplicity_lower_bound(instance),
        clique_lower_bound(instance, beta=beta),
    )
