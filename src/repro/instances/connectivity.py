"""Strong-connectivity request sets (the Moscibroda-Wattenhofer workload).

The paper's predecessor [12] asks: given n arbitrarily placed points,
how many colors are needed to schedule a set of requests that makes
the communication graph *strongly connected*?  They prove uniform and
linear assignments need Omega(n) colors on worst-case configurations
while clever power control needs O(log^4 n).

This module builds the two standard connectivity request sets:

* :func:`mst_connectivity_instance` — the edges of a minimum spanning
  tree of the metric (bidirectional requests, or both orientations in
  the directed variant); connecting and edge-minimal.
* :func:`nearest_neighbor_instance` — every node links to its nearest
  neighbour; the classic first stage of connectivity constructions.

plus :func:`exponential_node_chain`, the worst-case point placement
(exponentially spaced nodes on a line) on which uniform/linear power
assignments fail.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.core.instance import Direction, Instance
from repro.geometry.line import LineMetric
from repro.geometry.metric import Metric


def _mst_edges(metric: Metric):
    import networkx as nx
    matrix = metric.distance_matrix()
    graph = nx.Graph()
    graph.add_nodes_from(range(metric.n))
    for u in range(metric.n):
        for v in range(u + 1, metric.n):
            graph.add_edge(u, v, weight=float(matrix[u, v]))
    tree = nx.minimum_spanning_tree(graph)
    return list(tree.edges())


def mst_connectivity_instance(
    metric: Metric,
    direction: Union[Direction, str] = Direction.BIDIRECTIONAL,
    alpha: float = 3.0,
    beta: float = 1.0,
) -> Instance:
    """Requests along the MST of *metric* (a connectivity workload).

    In the bidirectional variant one request per MST edge suffices for
    strong connectivity; the directed variant takes both orientations.
    """
    if metric.n < 2:
        raise ValueError("connectivity needs at least two nodes")
    edges = _mst_edges(metric)
    if isinstance(direction, str):
        direction = Direction(direction)
    if direction is Direction.BIDIRECTIONAL:
        senders = [u for u, _ in edges]
        receivers = [v for _, v in edges]
    else:
        senders = [u for u, _ in edges] + [v for _, v in edges]
        receivers = [v for _, v in edges] + [u for u, _ in edges]
    return Instance(
        metric, senders, receivers, direction=direction, alpha=alpha, beta=beta
    )


def nearest_neighbor_instance(
    metric: Metric,
    direction: Union[Direction, str] = Direction.DIRECTED,
    alpha: float = 3.0,
    beta: float = 1.0,
) -> Instance:
    """Every node sends to its nearest neighbour.

    Duplicate links (mutual nearest neighbours) are kept once per
    direction, matching the usual formulation.
    """
    if metric.n < 2:
        raise ValueError("need at least two nodes")
    matrix = metric.distance_matrix().copy()
    np.fill_diagonal(matrix, np.inf)
    nearest = np.argmin(matrix, axis=1)
    senders = list(range(metric.n))
    receivers = [int(nearest[u]) for u in senders]
    return Instance(
        metric, senders, receivers, direction=direction, alpha=alpha, beta=beta
    )


def exponential_node_chain(
    n: int, base: float = 2.0, origin: float = 0.0
) -> LineMetric:
    """The [12] worst case: nodes at ``origin + base^i`` on the line.

    Nearest-neighbour link lengths grow geometrically, which is the
    configuration where uniform and linear assignments need Omega(n)
    colors for connectivity.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if base <= 1:
        raise ValueError("base must be > 1")
    if (n + 1) * np.log(base) > np.log(1e100):
        raise ValueError("chain overflows double precision")
    return LineMetric([origin + float(base) ** i for i in range(1, n + 1)])
