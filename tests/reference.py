"""Plain references the tests compare against bit for bit.

* :func:`peel` — the greedy peel as a plain loop: drop the request of
  lowest fresh subset margin (:meth:`InterferenceContext.margins` with
  ``subset=``, first occurrence on ties) until the rest is feasible,
  then try the dropped requests again, last dropped first, keeping
  each one whose trial set is feasible.  Every round re-sums the whole
  subset, O(k²).
* :class:`ClassRows` — one color class's finite interference sum,
  infinite-contribution count and positive-contribution count at every
  request, per endpoint, fed one backend gain column at a time with
  ``+=`` and ``-=``.
* :func:`power_control_matrices` — the power-control matrices of the
  whole instance, from its full loss matrix, then sliced to a subset
  with ``np.ix_``.
* :func:`tree_path_sums` — all-pairs tree distances, each the parent's
  distance plus one edge weight, summed from the source outward.

All of them read only the context's margins and gain columns or the
raw instance and metric data.  None imports :mod:`repro.core.kernels`
or the analysis and scheduling layers built on it, so an error cannot
hide in both the code under test and its reference
(``tests/test_oracle.py`` checks the imports).
"""

import numpy as np

#: The library's default feasibility tolerance.
RTOL = 1e-9


def peel(context, candidates=None, beta=None, rtol=RTOL):
    """A maximal feasible subset of *candidates* (all requests by
    default), sorted: peel the worst margin, then re-add."""
    if candidates is None:
        current = list(range(context.n))
    else:
        current = np.asarray(candidates).astype(int).tolist()
    dropped = []
    while current:
        margins = context.margins(subset=np.asarray(current), beta=beta)
        if np.all(margins >= 1.0 - rtol):
            break
        dropped.append(current.pop(int(np.argmin(margins))))
    for request in reversed(dropped):
        trial = np.asarray(current + [request])
        if np.all(context.margins(subset=trial, beta=beta) >= 1.0 - rtol):
            current.append(request)
    return np.asarray(sorted(current), dtype=int)


class ClassRows:
    """The interference rows of one color class under add/remove.

    ``fin[e]``, ``ninf[e]`` and ``npos[e]`` are the class members'
    finite gain sum, infinite-gain count and positive-finite-gain count
    at every request's endpoint ``e`` (``u``, then ``v`` on a
    bidirectional instance).  Emptying the class resets them to exact
    zeros.
    """

    def __init__(self, context):
        backend = context.backend
        self._columns = [backend.col_u]
        if not backend.directed:
            self._columns.append(backend.col_v)
        n = context.n
        self.fin = [np.zeros(n) for _ in self._columns]
        self.ninf = [np.zeros(n, dtype=np.int64) for _ in self._columns]
        self.npos = [np.zeros(n, dtype=np.int64) for _ in self._columns]
        self.size = 0

    def _parts(self, endpoint, request):
        column = self._columns[endpoint](request)
        finite = np.isfinite(column)
        return np.where(finite, column, 0.0), ~finite, finite & (column > 0)

    def add(self, request):
        for e in range(len(self._columns)):
            values, infinite, positive = self._parts(e, request)
            self.fin[e] += values
            self.ninf[e] += infinite
            self.npos[e] += positive
        self.size += 1

    def remove(self, request):
        self.size -= 1
        for e in range(len(self._columns)):
            if self.size == 0:
                self.fin[e][:] = 0.0
                self.ninf[e][:] = 0
                self.npos[e][:] = 0
                continue
            values, infinite, positive = self._parts(e, request)
            self.fin[e] -= values
            self.ninf[e] -= infinite
            self.npos[e] -= positive

    def interference(self, request):
        """Worst-endpoint interference the class induces at *request*:
        ``inf`` under an infinite gain, an exact 0 with no positive
        contributor, else the running sum clamped at 0."""
        worst = 0.0
        for fin, ninf, npos in zip(self.fin, self.ninf, self.npos):
            if ninf[request] > 0:
                return np.inf
            if npos[request] > 0:
                worst = max(worst, float(fin[request]), 0.0)
        return worst


def power_control_matrices(instance, subset, beta):
    """``(B,)`` on a directed instance, ``(B_u, B_v)`` on a
    bidirectional one: ``B[i, j] = beta * l_i / l(u_j, v_i)`` (the
    endpoint matrices take the nearer endpoint of request ``j``), with
    ``inf`` for a zero loss and a zero diagonal, built over all ``n``
    requests and then sliced at ``np.ix_(subset, subset)``."""
    loss = instance.metric.loss_matrix(instance.alpha)
    s, r = instance.senders, instance.receivers
    if instance.direction.value == "directed":
        blocks = [loss[np.ix_(r, s)]]
    else:
        blocks = [
            np.minimum(loss[np.ix_(s, s)], loss[np.ix_(s, r)]),
            np.minimum(loss[np.ix_(r, s)], loss[np.ix_(r, r)]),
        ]
    idx = np.asarray(subset)
    matrices = []
    for block in blocks:
        with np.errstate(divide="ignore"):
            inv = np.where(block > 0, 1.0 / block, np.inf)
        matrix = beta * instance.link_losses[:, None] * inv
        np.fill_diagonal(matrix, 0.0)
        matrices.append(matrix[np.ix_(idx, idx)])
    return tuple(matrices)


def tree_path_sums(n, edges):
    """``(n, n)`` distances of the tree on *edges* ``(u, v, weight)``:
    a walk out from each source sets every node's distance to its
    parent's distance plus the edge weight between them."""
    adjacency = [[] for _ in range(n)]
    for u, v, w in edges:
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    dist = np.full((n, n), np.nan)
    for source in range(n):
        dist[source, source] = 0.0
        stack = [source]
        while stack:
            node = stack.pop()
            for neighbor, weight in adjacency[node]:
                if np.isnan(dist[source, neighbor]):
                    dist[source, neighbor] = dist[source, node] + weight
                    stack.append(neighbor)
    return dist
