"""An independent SINR oracle for the scheduler tests.

Everything here is derived from the model of §1.1 and nothing else:
distances come from the raw metric data (Euclidean points, line
coordinates, tree edges walked by BFS), losses are ``d ** alpha``,
and every interference sum is a plain-Python :func:`math.fsum`.  The
module imports no gain builder, context, kernel, feasibility helper or
scheduler of the library, so an error there cannot hide in both the
code under test and its reference (``tests/test_oracle.py`` checks the
imports).

* Directed gain of request ``j`` at request ``i``:
  ``p_j / l(u_j, v_i)``.
* Bidirectional gain at endpoint ``w`` of ``i``:
  ``p_j / min(l(u_j, w), l(v_j, w))``; a request's interference is the
  worse of its two endpoints.
* A zero loss (shared node) is an infinite gain: such requests can
  never share a color.
* SINR margin ``(p_i / l_i) / (beta * (I_i + noise))``; ``inf`` with
  neither interference nor noise, ``0`` under infinite interference.

The greedy decisions of first-fit, the peel (drop the worst margin,
then re-add) and local-search class dissolution are replayed by brute
force.  A replay is flagged ``ambiguous`` when one of its decisions is
too close to call: a compared value within :data:`AMBIGUITY_RTOL`
relative of its boundary, or a worst margin tied with another within
the same distance.  The schedulers' own tolerance is ``rtol = 1e-9``,
so they may legitimately resolve such a decision either way; callers
compare decisions only for unambiguous replays.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.instance import Direction
from repro.geometry.euclidean import EuclideanMetric
from repro.geometry.line import LineMetric
from repro.geometry.tree import TreeMetric

#: Relative distance below which a decision is too close to call.
AMBIGUITY_RTOL = 1e-9

#: The schedulers' default feasibility tolerance.
RTOL = 1e-9


def _distance_function(metric):
    """``d(a, b)`` over metric nodes, from the metric's raw data."""
    if isinstance(metric, EuclideanMetric):
        points = [[float(x) for x in row] for row in metric.points]
        return lambda a, b: math.sqrt(
            math.fsum((x - y) ** 2 for x, y in zip(points[a], points[b]))
        )
    if isinstance(metric, LineMetric):
        coords = [float(x) for x in metric.coordinates]
        return lambda a, b: abs(coords[a] - coords[b])
    if isinstance(metric, TreeMetric):
        table = _tree_distances(metric.n, metric.edges)
        return lambda a, b: table[a][b]
    raise TypeError(f"oracle has no distance rule for {type(metric).__name__}")


def _tree_distances(n: int, edges) -> List[List[float]]:
    """All-pairs path lengths of a tree, one BFS per source node; each
    path length is the fsum of the edge weights along the path."""
    adjacency: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adjacency[int(u)].append((int(v), float(w)))
        adjacency[int(v)].append((int(u), float(w)))
    table = []
    for source in range(n):
        paths: List[Optional[List[float]]] = [None] * n
        paths[source] = []
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor, weight in adjacency[node]:
                if paths[neighbor] is None:
                    paths[neighbor] = paths[node] + [weight]
                    queue.append(neighbor)
        table.append([math.fsum(path) for path in paths])
    return table


def near(a: float, b: float, rtol: float = AMBIGUITY_RTOL) -> bool:
    """Are *a* and *b* within *rtol* relative of each other?  Infinite
    and exactly-zero values come from exact rules (no interference,
    shared node), so they are never near anything but themselves."""
    if a == b:
        return math.isfinite(a) and a != 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class SINROracle:
    """Pairwise gains and SINR of one ``(instance, powers)`` pair.

    Parameters
    ----------
    beta, noise:
        Override the instance's gain and noise.
    """

    def __init__(self, instance, powers, beta=None, noise=None):
        self.n = int(instance.n)
        self.beta = float(instance.beta if beta is None else beta)
        self.noise = float(instance.noise if noise is None else noise)
        self.directed = instance.direction is Direction.DIRECTED
        self.powers = [float(p) for p in powers]
        if len(self.powers) != self.n:
            raise ValueError(f"{len(self.powers)} powers for {self.n} requests")
        distance = _distance_function(instance.metric)
        alpha = float(instance.alpha)
        senders = [int(s) for s in instance.senders]
        receivers = [int(r) for r in instance.receivers]

        def loss(a: int, b: int) -> float:
            return distance(a, b) ** alpha

        def gain(j: int, loss_value: float) -> float:
            if loss_value == 0.0:
                return math.inf
            return self.powers[j] / loss_value

        self.signals = [
            self.powers[i] / loss(senders[i], receivers[i])
            for i in range(self.n)
        ]
        # gains[e][i][j]: what j induces at endpoint e of i (e = 0 is
        # u_i, e = 1 is v_i; directed instances only use v_i).
        endpoints = (receivers,) if self.directed else (senders, receivers)
        self.gains = []
        for nodes in endpoints:
            table = []
            for i in range(self.n):
                row = []
                for j in range(self.n):
                    if i == j:
                        row.append(0.0)
                    elif self.directed:
                        row.append(gain(j, loss(senders[j], nodes[i])))
                    else:
                        row.append(
                            gain(
                                j,
                                min(
                                    loss(senders[j], nodes[i]),
                                    loss(receivers[j], nodes[i]),
                                ),
                            )
                        )
                table.append(row)
            self.gains.append(table)

    def gain(self, i: int, j: int) -> float:
        """Worst-endpoint gain request *j* induces at request *i*."""
        return max(table[i][j] for table in self.gains)

    def interference(self, i: int, members: Sequence[int]) -> float:
        """Worst-endpoint interference at *i* from *members* (``i``
        itself is skipped)."""
        worst = 0.0
        for table in self.gains:
            row = table[i]
            terms = [row[j] for j in members if j != i]
            total = math.inf if math.inf in terms else math.fsum(terms)
            worst = max(worst, total)
        return worst

    def margin(self, i: int, members: Sequence[int]) -> float:
        """SINR margin of *i* when *members* transmit with it."""
        interf = self.interference(i, members)
        if math.isinf(interf):
            return 0.0
        denom = self.beta * (interf + self.noise)
        return self.signals[i] / denom if denom > 0 else math.inf

    def margins(self, members: Sequence[int]) -> List[float]:
        """Margins of every request of *members* (aligned)."""
        return [self.margin(i, members) for i in members]

    def class_margins(self, colors: Sequence[int]) -> List[float]:
        """Per-request margins under same-color interference only."""
        classes = {}
        for i, c in enumerate(colors):
            classes.setdefault(int(c), []).append(i)
        return [self.margin(i, classes[int(c)]) for i, c in enumerate(colors)]

    def feasible(self, colors: Sequence[int], rtol: float = RTOL) -> bool:
        """Does every color class meet its SINR constraint?"""
        return all(m >= 1.0 - rtol for m in self.class_margins(colors))

    def feasible_subset(self, members: Sequence[int], rtol: float = RTOL) -> bool:
        """Can all of *members* share one color?"""
        return all(m >= 1.0 - rtol for m in self.margins(members))

    def budget(self, i: int) -> float:
        """Largest interference *i* tolerates: ``p_i/l_i/beta - noise``."""
        return self.signals[i] / self.beta - self.noise


@dataclass(frozen=True)
class Replay:
    """A brute-forced greedy run: its output and whether any decision
    on the way was too close to call."""

    value: Tuple[int, ...]
    ambiguous: bool


class _Tracker:
    """Collects the ambiguity of every decision of one replay."""

    def __init__(self) -> None:
        self.ambiguous = False

    def fits(self, oracle: SINROracle, members: Sequence[int], rtol: float) -> bool:
        """Margin-form SINR test of *members* (peel, local search)."""
        margins = oracle.margins(members)
        worst = min(margins)
        self.ambiguous |= near(worst, 1.0 - rtol)
        return worst >= 1.0 - rtol

    def admits(
        self, oracle: SINROracle, members: Sequence[int], rtol: float
    ) -> bool:
        """Budget-form test of first-fit: every interference within
        ``budget * (1 + rtol)``."""
        ok = True
        for i in members:
            interf = oracle.interference(i, members)
            limit = oracle.budget(i) * (1.0 + rtol)
            self.ambiguous |= near(interf, limit)
            ok &= interf <= limit
        return ok


def default_order(instance) -> List[int]:
    """Longest link first, ties by index."""
    distances = [float(d) for d in instance.link_distances]
    return sorted(range(len(distances)), key=lambda i: (-distances[i], i))


def first_fit(
    instance, powers, order=None, beta=None, rtol: float = RTOL
) -> Replay:
    """First-fit coloring: each request, in *order* (longest link first
    by default), joins the first class in which it and every member
    stay within budget."""
    order = default_order(instance) if order is None else order
    events = [("arrive", int(i)) for i in order]
    return online_first_fit(instance, powers, events, beta=beta, rtol=rtol)


def online_first_fit(
    instance, powers, events, beta=None, rtol: float = RTOL
) -> Replay:
    """First-fit over an arrival/departure stream.

    *events* is a sequence of ``("arrive", index)`` and
    ``("depart", index)``; a departed request leaves its class and an
    emptied class stays open for later arrivals.  Returns the color of
    every request (``-1`` for departed ones).
    """
    oracle = SINROracle(instance, powers, beta=beta)
    track = _Tracker()
    classes: List[List[int]] = []
    colors = [-1] * oracle.n
    for kind, req in events:
        if kind == "depart":
            classes[colors[req]].remove(req)
            colors[req] = -1
            continue
        for color, members in enumerate(classes):
            if track.admits(oracle, members + [req], rtol):
                members.append(req)
                colors[req] = color
                break
        else:
            classes.append([req])
            colors[req] = len(classes) - 1
    return Replay(tuple(colors), track.ambiguous)


def _peel(
    oracle: SINROracle, current: List[int], track: _Tracker, rtol: float
) -> List[int]:
    dropped = []
    while current:
        margins = oracle.margins(current)
        worst = min(margins)
        track.ambiguous |= near(worst, 1.0 - rtol)
        if worst >= 1.0 - rtol:
            break
        position = margins.index(worst)
        track.ambiguous |= any(
            near(m, worst) for p, m in enumerate(margins) if p != position
        )
        dropped.append(current.pop(position))
    for req in reversed(dropped):
        if track.fits(oracle, current + [req], rtol):
            current.append(req)
    return sorted(current)


def peel(
    instance, powers, candidates=None, beta=None, rtol: float = RTOL
) -> Replay:
    """Greedy maximal feasible subset: drop the worst-margin candidate
    (first in candidate order on an exact tie) until the rest is
    feasible, then re-add dropped requests, last dropped first, while
    they fit."""
    oracle = SINROracle(instance, powers, beta=beta)
    track = _Tracker()
    current = (
        list(range(oracle.n))
        if candidates is None
        else [int(i) for i in candidates]
    )
    return Replay(tuple(_peel(oracle, current, track, rtol)), track.ambiguous)


def peeling(instance, powers, rtol: float = RTOL) -> Replay:
    """The peeling scheduler: one peel per color over the remaining
    requests (a lone request when even that peel comes back empty)."""
    oracle = SINROracle(instance, powers)
    track = _Tracker()
    remaining = list(range(oracle.n))
    colors = [-1] * oracle.n
    color = 0
    while remaining:
        subset = _peel(oracle, list(remaining), track, rtol) or [remaining[0]]
        for req in subset:
            colors[req] = color
        remaining = [r for r in remaining if r not in subset]
        color += 1
    return Replay(tuple(colors), track.ambiguous)


def local_search(
    instance, powers, colors, beta=None, max_rounds=None, rtol: float = RTOL
) -> Replay:
    """Local search by class dissolution.

    Each round tries victims from the smallest class up (ties by
    color): every member, in index order, moves to the first other
    class it fits into; a stuck member undoes the whole attempt.  The
    first dissolved class ends the round and the colors are renumbered
    densely; a round without one ends the search.
    """
    oracle = SINROracle(instance, powers, beta=beta)
    track = _Tracker()
    ids = sorted(set(int(c) for c in colors))
    colors = [ids.index(int(c)) for c in colors]
    if max_rounds is None:
        max_rounds = len(ids)
    for _ in range(max_rounds):
        count = max(colors) + 1
        if count <= 1:
            break
        sizes = [colors.count(c) for c in range(count)]
        dissolved = None
        for victim in sorted(range(count), key=lambda c: (sizes[c], c)):
            trial = list(colors)
            for req in [i for i, c in enumerate(colors) if c == victim]:
                for target in range(count):
                    if target == victim:
                        continue
                    members = [i for i, c in enumerate(trial) if c == target]
                    if track.fits(oracle, members + [req], rtol):
                        trial[req] = target
                        break
                else:
                    break
            else:
                dissolved = victim
                colors = [c - (c > victim) for c in trial]
                break
        if dissolved is None:
            break
    return Replay(tuple(colors), track.ambiguous)
