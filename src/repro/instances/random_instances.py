"""Random instance generators.

The positive results (Theorem 2, Theorem 15) hold for every metric
space, so the experiments sample several random families:

* :func:`random_uniform_instance` — endpoints uniform in a square,
  each request connecting a random point to a nearby partner.
* :func:`clustered_instance` — Gaussian clusters, pairs within and
  across clusters; produces the wide dynamic range of link lengths that
  makes oblivious scheduling interesting.
* :func:`random_tree_metric_instance` — requests on a random weighted
  tree metric (exercises the non-Euclidean side of Theorem 2).
* :func:`random_graph_metric_instance` — requests on the shortest-path
  metric of a random connected graph.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.core.instance import Direction, Instance
from repro.geometry.euclidean import EuclideanMetric
from repro.geometry.graph import GraphMetric
from repro.geometry.tree import TreeMetric
from repro.util.rng import RngLike, ensure_rng


def _random_pairs(
    n_requests: int, n_nodes: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample request pairs with distinct endpoints."""
    senders = np.empty(n_requests, dtype=int)
    receivers = np.empty(n_requests, dtype=int)
    for i in range(n_requests):
        u = int(rng.integers(n_nodes))
        v = int(rng.integers(n_nodes))
        while v == u:
            v = int(rng.integers(n_nodes))
        senders[i], receivers[i] = u, v
    return senders, receivers


def random_uniform_instance(
    n: int,
    side: float = 100.0,
    max_link_fraction: float = 0.2,
    alpha: float = 3.0,
    beta: float = 1.0,
    direction: Union[Direction, str] = Direction.BIDIRECTIONAL,
    rng: RngLike = None,
) -> Instance:
    """``n`` requests between uniform random points in a square.

    Each request picks a uniform sender and a receiver displaced by a
    uniform random vector of length up to ``max_link_fraction * side``,
    clipped to the square; all ``2n`` endpoints are distinct points.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < max_link_fraction <= 1:
        raise ValueError("max_link_fraction must be in (0, 1]")
    rng = ensure_rng(rng)
    points = np.empty((2 * n, 2))
    pairs = []
    for i in range(n):
        sender = rng.uniform(0, side, size=2)
        while True:
            angle = rng.uniform(0, 2 * np.pi)
            length = rng.uniform(1e-3 * side, max_link_fraction * side)
            receiver = sender + length * np.array([np.cos(angle), np.sin(angle)])
            receiver = np.clip(receiver, 0, side)
            if np.linalg.norm(receiver - sender) > 1e-9 * side:
                break
        points[2 * i] = sender
        points[2 * i + 1] = receiver
        pairs.append((2 * i, 2 * i + 1))
    metric = EuclideanMetric(points)
    return Instance(
        metric,
        [p[0] for p in pairs],
        [p[1] for p in pairs],
        direction=direction,
        alpha=alpha,
        beta=beta,
    )


def clustered_instance(
    n: int,
    clusters: int = 4,
    side: float = 1000.0,
    cluster_std: float = 5.0,
    cross_fraction: float = 0.25,
    alpha: float = 3.0,
    beta: float = 1.0,
    direction: Union[Direction, str] = Direction.BIDIRECTIONAL,
    rng: RngLike = None,
) -> Instance:
    """Requests inside and across Gaussian clusters.

    A ``cross_fraction`` of requests connect different clusters (long
    links); the rest stay within a cluster (short links).  The
    resulting loss range spans many orders of magnitude, which is the
    regime where power assignment choice matters most.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if clusters < 1:
        raise ValueError("clusters must be >= 1")
    if not 0 <= cross_fraction <= 1:
        raise ValueError("cross_fraction must be in [0, 1]")
    rng = ensure_rng(rng)
    centers = rng.uniform(0, side, size=(clusters, 2))
    points = np.empty((2 * n, 2))
    pairs = []
    for i in range(n):
        cross = clusters > 1 and rng.uniform() < cross_fraction
        c1 = int(rng.integers(clusters))
        if cross:
            c2 = int(rng.integers(clusters))
            while c2 == c1:
                c2 = int(rng.integers(clusters))
        else:
            c2 = c1
        while True:
            sender = centers[c1] + rng.normal(scale=cluster_std, size=2)
            receiver = centers[c2] + rng.normal(scale=cluster_std, size=2)
            if np.linalg.norm(receiver - sender) > 1e-9:
                break
        points[2 * i] = sender
        points[2 * i + 1] = receiver
        pairs.append((2 * i, 2 * i + 1))
    metric = EuclideanMetric(points)
    return Instance(
        metric,
        [p[0] for p in pairs],
        [p[1] for p in pairs],
        direction=direction,
        alpha=alpha,
        beta=beta,
    )


def random_tree_metric_instance(
    n_requests: int,
    n_nodes: Optional[int] = None,
    weight_range: Tuple[float, float] = (1.0, 100.0),
    alpha: float = 3.0,
    beta: float = 1.0,
    direction: Union[Direction, str] = Direction.BIDIRECTIONAL,
    rng: RngLike = None,
) -> Instance:
    """Requests between random nodes of a random weighted tree.

    The tree is a random recursive tree (each node attaches to a
    uniform predecessor) with log-uniform edge weights, giving a
    non-Euclidean metric with large aspect ratio.
    """
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    rng = ensure_rng(rng)
    if n_nodes is None:
        n_nodes = max(2, 2 * n_requests)
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    low, high = weight_range
    if not 0 < low <= high:
        raise ValueError("weight_range must satisfy 0 < low <= high")
    edges = []
    for v in range(1, n_nodes):
        u = int(rng.integers(v))
        weight = float(np.exp(rng.uniform(np.log(low), np.log(high))))
        edges.append((u, v, weight))
    tree = TreeMetric(n_nodes, edges)
    senders, receivers = _random_pairs(n_requests, n_nodes, rng)
    return Instance(
        tree, senders, receivers, direction=direction, alpha=alpha, beta=beta
    )


def random_graph_metric_instance(
    n_requests: int,
    n_nodes: Optional[int] = None,
    edge_probability: float = 0.1,
    weight_range: Tuple[float, float] = (1.0, 50.0),
    alpha: float = 3.0,
    beta: float = 1.0,
    direction: Union[Direction, str] = Direction.BIDIRECTIONAL,
    rng: RngLike = None,
) -> Instance:
    """Requests on the shortest-path metric of a random connected graph.

    An Erdos-Renyi graph is drawn and augmented with a random spanning
    path to guarantee connectivity; edge weights are uniform in
    ``weight_range``.
    """
    import networkx as nx
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    rng = ensure_rng(rng)
    if n_nodes is None:
        n_nodes = max(2, 2 * n_requests)
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    low, high = weight_range
    if not 0 < low <= high:
        raise ValueError("weight_range must satisfy 0 < low <= high")
    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    order = rng.permutation(n_nodes)
    for a, b in zip(order[:-1], order[1:]):
        graph.add_edge(int(a), int(b), weight=float(rng.uniform(low, high)))
    for u in range(n_nodes):
        for v in range(u + 1, n_nodes):
            if graph.has_edge(u, v):
                continue
            if rng.uniform() < edge_probability:
                graph.add_edge(u, v, weight=float(rng.uniform(low, high)))
    metric = GraphMetric(graph)
    senders, receivers = _random_pairs(n_requests, n_nodes, rng)
    return Instance(
        metric, senders, receivers, direction=direction, alpha=alpha, beta=beta
    )
