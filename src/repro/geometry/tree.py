"""Shortest-path metric of an edge-weighted tree.

Tree metrics are the intermediate stop of the Theorem 2 pipeline: the
general metric is simulated by an ensemble of trees (Lemma 6), which
are then decomposed into stars (Lemma 9).  This class supports both
steps: it exposes the tree structure (for centroid decomposition) and
the induced metric (for feasibility checks).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.metric import Metric
from repro.util.validation import check_index

Edge = Tuple[int, int, float]


class TreeMetric(Metric):
    """The shortest-path metric of an edge-weighted tree on ``n`` nodes.

    Parameters
    ----------
    n:
        Number of nodes, labelled ``0 .. n-1``.
    edges:
        Iterable of ``(u, v, weight)`` with positive weights.  Exactly
        ``n - 1`` edges forming a single connected tree are required.
    """

    def __init__(self, n: int, edges: Iterable[Edge]):
        super().__init__()
        if n <= 0:
            raise ValueError("tree must have at least one node")
        self._n = int(n)
        edge_list: List[Edge] = []
        adjacency: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, w in edges:
            u = check_index(u, n, "edge endpoint u")
            v = check_index(v, n, "edge endpoint v")
            w = float(w)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not w > 0:
                raise ValueError(f"edge weight must be > 0, got {w}")
            edge_list.append((u, v, w))
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
        if len(edge_list) != n - 1:
            raise ValueError(f"a tree on {n} nodes needs {n - 1} edges, got {len(edge_list)}")
        self._edges = edge_list
        self._adjacency = adjacency
        self._check_connected()

    def _check_connected(self) -> None:
        seen = [False] * self._n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            node = stack.pop()
            for neighbor, _ in self._adjacency[node]:
                if not seen[neighbor]:
                    seen[neighbor] = True
                    count += 1
                    stack.append(neighbor)
        if count != self._n:
            raise ValueError("edges do not form a connected tree")

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> List[Edge]:
        """The edge list ``(u, v, weight)``."""
        return list(self._edges)

    def neighbors(self, node: int) -> List[Tuple[int, float]]:
        """Adjacent ``(neighbor, weight)`` pairs of *node*."""
        node = check_index(node, self._n, "node")
        return list(self._adjacency[node])

    def degree(self, node: int) -> int:
        """Number of tree neighbours of *node*."""
        node = check_index(node, self._n, "node")
        return len(self._adjacency[node])

    def _compute_matrix(self) -> np.ndarray:
        # A tree path is unique, so Dijkstra sets each distance once,
        # as the parent's distance plus the edge weight: path sums
        # accumulated from the source outward.
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        edges = np.asarray(self._edges, dtype=float).reshape(-1, 3)
        ends = edges[:, :2].astype(int)
        graph = csr_matrix((edges[:, 2], (ends[:, 0], ends[:, 1])), shape=(self._n, self._n))
        return dijkstra(graph, directed=False)

    def subtree_nodes_after_removal(self, center: int) -> List[List[int]]:
        """Connected components of the forest obtained by deleting *center*.

        Used by the centroid decomposition of Lemma 9: removing the
        centroid splits the tree into subtrees of size <= n/2.
        """
        center = check_index(center, self._n, "center")
        seen = [False] * self._n
        seen[center] = True
        components: List[List[int]] = []
        for start, _ in self._adjacency[center]:
            if seen[start]:
                continue
            component = []
            stack = [start]
            seen[start] = True
            while stack:
                node = stack.pop()
                component.append(node)
                for neighbor, _ in self._adjacency[node]:
                    if not seen[neighbor]:
                        seen[neighbor] = True
                        stack.append(neighbor)
            components.append(component)
        return components


def find_centroid(tree: TreeMetric, nodes: Optional[Sequence[int]] = None) -> int:
    """Find a centroid of *tree* (restricted to the subtree on *nodes*).

    A centroid is a node whose removal leaves components of size at most
    half of the (sub)tree — the paper uses "a node c such that the
    removal of c partitions the tree into disjoint sub-trees with size
    at most n/2.  Such a node can be found in any tree." (§3.4).

    Parameters
    ----------
    tree:
        The host tree.
    nodes:
        Optional subset of node indices inducing a connected subtree;
        defaults to all nodes.
    """
    if nodes is None:
        members = list(range(tree.n))
    else:
        members = [check_index(v, tree.n, "node") for v in nodes]
    if not members:
        raise ValueError("cannot take centroid of an empty subtree")
    member_set = set(members)
    size = len(members)

    # Iterative post-order subtree-size computation rooted at members[0].
    root = members[0]
    subtree_size: Dict[int, int] = {}
    parent: Dict[int, Optional[int]] = {root: None}
    order: List[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for neighbor, _ in tree.neighbors(node):
            if neighbor in member_set and neighbor not in parent:
                parent[neighbor] = node
                stack.append(neighbor)
    if len(order) != size:
        raise ValueError("nodes do not induce a connected subtree")
    for node in reversed(order):
        total = 1
        for neighbor, _ in tree.neighbors(node):
            if neighbor in member_set and parent.get(neighbor) == node:
                total += subtree_size[neighbor]
        subtree_size[node] = total

    best_node = root
    best_max = size + 1
    for node in order:
        largest = size - subtree_size[node]
        for neighbor, _ in tree.neighbors(node):
            if neighbor in member_set and parent.get(neighbor) == node:
                largest = max(largest, subtree_size[neighbor])
        if largest < best_max:
            best_max = largest
            best_node = node
    return best_node
