"""Shortest-path metric of an arbitrary weighted graph.

Useful for building test metrics that are far from Euclidean (the
paper's positive result holds for *every* metric space, so the test
suite exercises graph metrics as well).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.geometry.metric import Metric

if TYPE_CHECKING:
    import networkx as nx


class GraphMetric(Metric):
    """Shortest-path metric of a connected weighted undirected graph.

    Parameters
    ----------
    graph:
        A connected :class:`networkx.Graph`; edge attribute ``weight``
        (default 1.0) gives edge lengths.  Nodes must be hashable; they
        are relabelled to ``0 .. n-1`` in sorted order when possible,
        insertion order otherwise.
    """

    def __init__(self, graph: nx.Graph):
        import networkx as nx
        super().__init__()
        if graph.number_of_nodes() == 0:
            raise ValueError("graph must be non-empty")
        if not nx.is_connected(graph):
            raise ValueError("graph must be connected")
        for u, v, data in graph.edges(data=True):
            weight = data.get("weight", 1.0)
            if not weight > 0:
                raise ValueError(f"edge ({u}, {v}) has non-positive weight {weight}")
        try:
            node_order = sorted(graph.nodes())
        except TypeError:
            node_order = list(graph.nodes())
        self._node_order = node_order
        self._index = {node: i for i, node in enumerate(node_order)}
        self._graph = graph

    @property
    def n(self) -> int:
        return len(self._node_order)

    @property
    def node_order(self) -> list:
        """Original node labels in index order."""
        return list(self._node_order)

    def _compute_matrix(self) -> np.ndarray:
        import networkx as nx
        n = self.n
        matrix = np.zeros((n, n))
        lengths = dict(nx.all_pairs_dijkstra_path_length(self._graph, weight="weight"))
        for u in self._node_order:
            iu = self._index[u]
            row = lengths[u]
            for v, dist in row.items():
                matrix[iu, self._index[v]] = dist
        return matrix
