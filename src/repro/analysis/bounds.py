"""Certified lower bounds on the optimal number of colors.

Approximation experiments need a handle on OPT.  Two sound bounds are
implemented:

* **Node multiplicity** — requests sharing an endpoint with a zero
  loss between them (any shared node when bidirectional; a sender of
  one at the receiver of another when directed) can never share a
  color, and directed requests sharing only a sender or only a
  receiver fit at most ``floor(1/beta) + 1`` to a color, so the
  colors one node forces lower-bound OPT.
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
from repro.core.instance import Direction, Instance

if TYPE_CHECKING:
    import networkx as nx


def node_multiplicity_lower_bound(
    instance: Instance, beta: Optional[float] = None
) -> int:
    """Colors forced by requests sharing a node — a sound OPT lower
    bound.

    Bidirectional: every request using a node has a zero loss to every
    other one using it, so a node used by ``k`` requests forces ``k``
    colors.  Directed: only a request *sent* from a node and one
    *received* at it have a zero loss between them (the one's sender to
    the other's receiver).  ``k`` requests sharing just their sender
    (or just their receiver) interfere at exactly their own link
    losses, so summing their SINR constraints shows they fit one color
    only when ``beta * (k - 1) <= 1``: at most ``m = floor(1/beta) + 1``
    per color, and a node sending ``a`` requests and receiving ``b``
    forces ``ceil(a/m) + ceil(b/m)`` colors.
    """
    if instance.direction is not Direction.DIRECTED:
        endpoints = np.concatenate([instance.senders, instance.receivers])
        return int(np.max(np.unique(endpoints, return_counts=True)[1]))
    beta = instance.beta if beta is None else float(beta)
    # Round 1/beta up by a hair: a larger m only weakens the bound.
    per_color = int(np.floor((1.0 / beta) * (1.0 + 1e-12))) + 1
    size = instance.metric.n
    sent = np.bincount(instance.senders, minlength=size)
    received = np.bincount(instance.receivers, minlength=size)
    return int(np.max(-(-sent // per_color) - (-received // per_color)))


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
        node_multiplicity_lower_bound(instance, beta=beta),
        clique_lower_bound(instance, beta=beta),
    )
