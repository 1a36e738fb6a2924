"""Protocol-model (graph-based) scheduling baseline.

The introduction criticises graph-based vicinity models: "Two nodes
... are connected by an edge ... if and only if they are in mutual
transmission range.  Interference is modelled through independence
constraints."  This module implements that classic approach so the
experiments can compare it against SINR-aware scheduling:

* two requests *conflict* when the distance between their closest
  endpoints is at most ``range_factor`` times the longer of the two
  links (a distance-2-matching-style constraint);
* the conflict graph is greedily colored;
* because protocol-model colorings may still violate SINR constraints
  (interference does not end abruptly at a boundary), an optional
  repair pass first-fit-splits every class until genuinely feasible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.instance import Instance
from repro.core.schedule import Schedule, build_schedule
from repro.scheduling.firstfit import first_fit_schedule

if TYPE_CHECKING:
    import networkx as nx


def protocol_conflict_graph(instance: Instance, range_factor: float = 2.0) -> nx.Graph:
    """The protocol-model conflict graph over requests."""
    import networkx as nx
    if range_factor <= 0:
        raise ValueError(f"range_factor must be > 0, got {range_factor}")
    dist = instance.metric.distance_matrix()
    s, r = instance.senders, instance.receivers
    pairwise = np.minimum.reduce(
        [
            dist[np.ix_(s, s)],
            dist[np.ix_(s, r)],
            dist[np.ix_(r, s)],
            dist[np.ix_(r, r)],
        ]
    )
    link = instance.link_distances
    radius = range_factor * np.maximum(link[:, None], link[None, :])
    graph = nx.Graph()
    graph.add_nodes_from(range(instance.n))
    conflicts = pairwise <= radius
    for i in range(instance.n):
        for j in range(i + 1, instance.n):
            if conflicts[i, j]:
                graph.add_edge(i, j)
    return graph


def protocol_schedule(
    instance: Instance,
    powers: np.ndarray,
    range_factor: float = 2.0,
    repair: bool = True,
    beta: Optional[float] = None,
) -> Tuple[Schedule, int]:
    """Schedule via protocol-model coloring, optionally SINR-repaired.

    Returns ``(schedule, raw_protocol_colors)``.  With ``repair=True``
    (default) every protocol class is re-split by SINR first-fit so the
    returned schedule is genuinely feasible; the raw color count shows
    what the graph model *claimed* was enough.
    """
    import networkx as nx
    powers = np.asarray(powers, dtype=float)
    graph = protocol_conflict_graph(instance, range_factor)
    greedy = nx.coloring.greedy_color(graph, strategy="largest_first")
    raw_colors = np.asarray([greedy[i] for i in range(instance.n)], dtype=int)
    raw_count = int(np.unique(raw_colors).size)
    if not repair:
        return build_schedule(raw_colors, powers), raw_count

    # Repair: process classes in order, splitting each into feasible
    # subclasses via first-fit restricted to the class.
    final_colors = np.full(instance.n, -1, dtype=int)
    next_color = 0
    for color in np.unique(raw_colors):
        members = np.flatnonzero(raw_colors == color)
        sub = instance.subset(members)
        sub_schedule = first_fit_schedule(sub, powers[members], beta=beta)
        for local, global_req in enumerate(members):
            final_colors[global_req] = next_color + int(sub_schedule.colors[local])
        next_color += sub_schedule.num_colors
    return build_schedule(final_colors, powers), raw_count
