"""Tree ensembles with cores (Lemma 6).

Lemma 6: for any finite metric there are ``r = O(log n)`` trees that
all *dominate* the metric, such that every node ``v`` has low stretch
(``T(u, v) <= O(log n) * d(u, v)`` for all ``u``) in at least a 9/10
fraction of the trees.  The trees with low stretch for ``v`` are the
trees whose *core* contains ``v``.

The construction samples independent FRT embeddings; since each pair's
expected stretch is O(log n), Markov + concentration over independent
trees yields the core property for suitable constants.  The constants
are exposed as parameters so experiment E7 can measure how small they
can be in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.embedding.hst import HstEmbedding, build_hst
from repro.geometry.metric import Metric
from repro.util.rng import RngLike, ensure_rng, spawn_rngs


@dataclass
class TreeEnsembleMember:
    """One tree of the ensemble with its per-node stretch and core."""

    embedding: HstEmbedding
    stretch: np.ndarray
    core: np.ndarray  # boolean mask over points


@dataclass
class TreeEnsemble:
    """An ensemble of dominating trees with cores (Lemma 6).

    Attributes
    ----------
    members:
        The sampled trees.
    stretch_bound:
        The stretch threshold defining core membership.
    """

    members: List[TreeEnsembleMember]
    stretch_bound: float

    @property
    def r(self) -> int:
        """Number of trees."""
        return len(self.members)

    def core_membership_counts(self) -> np.ndarray:
        """For each node, in how many cores it appears."""
        return np.sum([m.core for m in self.members], axis=0)

    def core_membership_fractions(self) -> np.ndarray:
        """Fraction of trees whose core contains each node."""
        return self.core_membership_counts() / max(1, self.r)

    def calibrated(self, fraction: float = 0.9) -> "TreeEnsemble":
        """Recompute cores with the smallest bound giving every node
        core membership in at least a *fraction* of the trees.

        Lemma 6 asserts such a bound of size O(log n) *exists*; this
        method measures it: per node, take the *fraction*-quantile of
        its stretches across trees, then the maximum over nodes.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        stretches = np.stack([m.stretch for m in self.members])  # (r, n)
        per_node = np.quantile(stretches, fraction, axis=0, method="higher")
        bound = float(np.max(per_node))
        members = [
            TreeEnsembleMember(
                embedding=m.embedding, stretch=m.stretch, core=m.stretch <= bound
            )
            for m in self.members
        ]
        return TreeEnsemble(members=members, stretch_bound=bound)

    def best_tree_for(self, active: Sequence[int]) -> int:
        """Index of the tree whose core contains the most of *active*.

        This realises Proposition 7: some tree's core contains at least
        a 9/10 fraction of any given node set (averaging argument).
        """
        active = np.asarray(active, dtype=int)
        counts = [int(np.sum(member.core[active])) for member in self.members]
        return int(np.argmax(counts))


def default_stretch_bound(n: int, factor: float = 8.0) -> float:
    """The core stretch threshold ``factor * log2(n + 1)``."""
    return factor * math.log2(n + 1)


def build_tree_ensemble(
    metric: Metric,
    r: Optional[int] = None,
    stretch_bound: Optional[float] = None,
    rng: RngLike = None,
) -> TreeEnsemble:
    """Sample a Lemma 6 tree ensemble for *metric*.

    Parameters
    ----------
    r:
        Number of trees; defaults to ``4 * ceil(log2(n + 1))`` (the
        lemma needs O(log n)).
    stretch_bound:
        Core membership threshold; defaults to
        :func:`default_stretch_bound`.
    """
    rng = ensure_rng(rng)
    n = metric.n
    if r is None:
        r = max(4, 4 * int(math.ceil(math.log2(n + 1))))
    if r < 1:
        raise ValueError("r must be >= 1")
    if stretch_bound is None:
        stretch_bound = default_stretch_bound(n)
    if stretch_bound <= 1:
        raise ValueError("stretch_bound must exceed 1")
    members: List[TreeEnsembleMember] = []
    for child_rng in spawn_rngs(rng, r):
        embedding = build_hst(metric, rng=child_rng)
        stretch = embedding.stretches(metric)
        core = stretch <= stretch_bound
        members.append(
            TreeEnsembleMember(embedding=embedding, stretch=stretch, core=core)
        )
    return TreeEnsemble(members=members, stretch_bound=float(stretch_bound))
