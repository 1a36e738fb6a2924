"""Routing substrate for the multi-hop extension.

Nodes can exchange a packet directly when their distance is at most a
transmission range; end-to-end requests are routed along shortest
paths (by distance) of the resulting connectivity graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.core.errors import ReproError
from repro.geometry.metric import Metric

if TYPE_CHECKING:
    import networkx as nx


class RoutingError(ReproError, RuntimeError):
    """No route exists between a request's endpoints."""


@dataclass
class RoutedRequest:
    """An end-to-end request and its route.

    Attributes
    ----------
    source, destination:
        Endpoint node indices.
    path:
        Node sequence from source to destination (inclusive).
    """

    source: int
    destination: int
    path: List[int]

    @property
    def hops(self) -> List[Tuple[int, int]]:
        """The single-hop links of the route."""
        return list(zip(self.path[:-1], self.path[1:]))

    @property
    def hop_count(self) -> int:
        return len(self.path) - 1


def connectivity_graph(metric: Metric, transmission_range: float) -> nx.Graph:
    """Graph with an edge wherever two nodes are within range.

    Edge weights are the metric distances (shortest *distance* paths,
    not hop counts, matching the latency objective of [3]).
    """
    import networkx as nx
    if transmission_range <= 0:
        raise ValueError(f"transmission_range must be > 0, got {transmission_range}")
    matrix = metric.distance_matrix()
    graph = nx.Graph()
    graph.add_nodes_from(range(metric.n))
    for u in range(metric.n):
        for v in range(u + 1, metric.n):
            if 0 < matrix[u, v] <= transmission_range:
                graph.add_edge(u, v, weight=float(matrix[u, v]))
    return graph


def route_requests(
    metric: Metric,
    requests: Sequence[Tuple[int, int]],
    transmission_range: float,
) -> List[RoutedRequest]:
    """Shortest-path routes for all end-to-end *requests*.

    Raises
    ------
    RoutingError
        If some request's endpoints are disconnected at the given
        range.
    """
    import networkx as nx
    graph = connectivity_graph(metric, transmission_range)
    routed = []
    for source, destination in requests:
        if source == destination:
            raise ValueError(f"request ({source}, {destination}) routes to itself")
        try:
            path = nx.shortest_path(
                graph, int(source), int(destination), weight="weight"
            )
        except nx.NetworkXNoPath as exc:
            raise RoutingError(
                f"no route from {source} to {destination} at range "
                f"{transmission_range:g}"
            ) from exc
        routed.append(
            RoutedRequest(
                source=int(source), destination=int(destination), path=list(path)
            )
        )
    return routed
