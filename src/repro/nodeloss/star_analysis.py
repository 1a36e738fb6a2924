"""Constructive Lemma 5 machinery (Section 4).

Lemma 5: if a star node-loss instance is ``gamma'``-feasible under
*some* power assignment, then a ``(1 - O((gamma/gamma')^{2/3}))``
fraction of its nodes is ``gamma``-feasible under the square-root
assignment.

The paper's proof is an explicit selection procedure; this module
implements it end to end so the retained fraction can be *measured*:

1. **Case split** (§4.4) — nodes with large loss-to-decay ratio
   ``a_i = l_i / d_i > 2^(alpha+1) / gamma'`` form the set ``L``; their
   losses are hypothetically reduced so every node looks small.
2. **Decay classes** (§4.3) — nodes are bucketed by powers of two of
   their decay ``d_i = delta_i**alpha``.
3. **Claim 12 trim** — within each class, nodes whose loss parameter
   exceeds ``2^(alpha+j+2) / (eps * gamma' * k_j)`` are dropped (at
   most an ``eps`` fraction when the witness assumption holds).
4. **Interference selection** — remaining nodes keep their place iff
   their measured square-root-assignment interference is at most the
   target threshold; removals only help survivors, so one pass
   suffices.
5. **Window trick** (§4.4) — a large-loss node is dropped when its
   neighbouring small-loss blocks ``S_i, S_succ(i)`` are too populous
   (more than ``gamma' / gamma''`` nodes).
6. **Final guarantee** — actual margins under the original losses are
   verified and any stragglers dropped, so the returned subset is
   *certified* gamma-feasible under the square-root assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nodeloss.feasibility import (
    max_feasible_gain,
    nodeloss_margins,
)
from repro.nodeloss.instance import StarNodeLoss


def large_loss_threshold(alpha: float, gamma_prime: float) -> float:
    """The §4 boundary ``2^(alpha+1) / gamma'`` between small and large
    loss-to-decay ratios."""
    if not gamma_prime > 0:
        raise ValueError(f"gamma_prime must be > 0, got {gamma_prime}")
    return 2.0 ** (alpha + 1) / gamma_prime


def split_large_small(
    star: StarNodeLoss, gamma_prime: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Indices of large-loss (``L``) and small-loss nodes (§4.4)."""
    threshold = large_loss_threshold(star.alpha, gamma_prime)
    ratios = star.loss_to_decay
    large = np.flatnonzero(ratios > threshold)
    small = np.flatnonzero(ratios <= threshold)
    return large, small


def decay_classes(star: StarNodeLoss) -> Dict[int, np.ndarray]:
    """Bucket nodes by decay: class ``j`` holds ``2^(j-1) < d/d_min <= 2^j``.

    Decays are normalised by the smallest decay so the class indices
    start at 0 (the paper's "w.l.o.g. assume d_u > 1").
    """
    decay = star.decay
    d_min = float(np.min(decay))
    normalised = decay / d_min
    # Class of a node: smallest j with normalised decay <= 2^j.
    with np.errstate(divide="ignore"):
        j = np.ceil(np.log2(np.maximum(normalised, 1.0) * (1 + 1e-12))).astype(int)
    classes: Dict[int, np.ndarray] = {}
    for cls in np.unique(j):
        classes[int(cls)] = np.flatnonzero(j == cls)
    return classes


def claim12_trim(
    star: StarNodeLoss,
    members: np.ndarray,
    gamma_prime: float,
    eps: float,
    losses: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The Claim 12 trim: drop per-class loss outliers.

    Within decay class ``D_j`` (cap ``c_j`` on raw decay, ``k_j``
    members), nodes whose loss parameter exceeds
    ``2^(alpha+2) * c_j / (eps * gamma' * k_j)`` are dropped.  Claim 12
    shows at most an ``eps`` fraction per class violates the bound when
    a ``gamma'`` witness power assignment exists.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    losses = star.losses if losses is None else np.asarray(losses, dtype=float)
    decay = star.decay
    member_set = set(int(i) for i in members)
    kept: List[int] = []
    classes = decay_classes(star)
    for indices in classes.values():
        present = [int(i) for i in indices if int(i) in member_set]
        if not present:
            continue
        k_j = len(present)
        cap = float(np.max(decay[present]))
        bound = 2.0 ** (star.alpha + 2) * cap / (eps * gamma_prime * k_j)
        kept.extend(i for i in present if losses[i] <= bound)
    return np.asarray(sorted(kept), dtype=int)


def small_loss_subset(
    star: StarNodeLoss,
    gamma: float,
    gamma_prime: Optional[float] = None,
    eps: Optional[float] = None,
    losses: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Lemma 11 made constructive: a gamma-feasible subset under the
    square-root assignment for stars with small loss parameters.

    Parameters
    ----------
    gamma:
        Target gain for the square-root assignment.
    gamma_prime:
        Witness gain (defaults to the star's best achievable gain).
    eps:
        Per-class trim fraction; the paper's optimum
        ``(gamma/gamma')^{2/3}`` by default.
    losses:
        Loss parameters to analyse (defaults to the star's; Lemma 5
        passes hypothetically reduced ones).
    """
    if gamma_prime is None:
        gamma_prime = max_feasible_gain(star)
    if not 0 < gamma:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if eps is None:
        ratio = min(1.0, gamma / gamma_prime) if math.isfinite(gamma_prime) else 0.0
        eps = max(1e-6, min(0.5, ratio ** (2.0 / 3.0)))
    losses_arr = star.losses if losses is None else np.asarray(losses, dtype=float)
    members = np.arange(star.m)
    members = claim12_trim(star, members, gamma_prime, eps, losses=losses_arr)
    if members.size == 0:
        return members
    # Interference selection under the square-root assignment of the
    # analysed losses.  Signal of node u is 1 / sqrt(l_u); keep u iff
    # gamma * I(u) <= signal.  Dropping violators only lowers the
    # interference of survivors, so one pass is sound.
    powers = np.sqrt(losses_arr)
    loss_pairwise = star.loss_matrix()[np.ix_(members, members)]
    gains = np.full_like(loss_pairwise, np.inf)
    np.divide(powers[members][None, :], loss_pairwise, out=gains, where=loss_pairwise > 0)
    np.fill_diagonal(gains, 0.0)
    interference = gains.sum(axis=1)
    signals = 1.0 / np.sqrt(losses_arr[members])
    ok = gamma * interference <= signals
    return members[ok]


@dataclass
class Lemma5Result:
    """Outcome of the full Lemma 5 selection.

    Attributes
    ----------
    kept:
        Indices of the certified gamma-feasible subset.
    gamma, gamma_prime:
        Target and witness gains.
    dropped_trim, dropped_selection, dropped_window, dropped_final:
        Node counts removed by each stage (Claim 12 trim, interference
        selection, §4.4 window trick, final certification pass).
    """

    kept: np.ndarray
    gamma: float
    gamma_prime: float
    dropped_trim: int = 0
    dropped_selection: int = 0
    dropped_window: int = 0
    dropped_final: int = 0

    @property
    def fraction_kept(self) -> float:
        """Fraction of the star's nodes retained."""
        total = (
            self.kept.size
            + self.dropped_trim
            + self.dropped_selection
            + self.dropped_window
            + self.dropped_final
        )
        return self.kept.size / total if total else 0.0


def lemma5_subset(
    star: StarNodeLoss,
    gamma: float,
    gamma_prime: Optional[float] = None,
    eps: Optional[float] = None,
) -> Lemma5Result:
    """The full Lemma 5 selection with certification.

    Combines the hypothetical loss reduction, the small-loss routine,
    the large-loss window trick and a final certification pass.  The
    returned subset is guaranteed gamma-feasible for the square-root
    assignment (verified on the star's true losses).
    """
    if gamma_prime is None:
        gamma_prime = max_feasible_gain(star)
    if math.isinf(gamma_prime):
        # No interaction at all: everything is feasible as-is.
        return Lemma5Result(
            kept=np.arange(star.m), gamma=gamma, gamma_prime=gamma_prime
        )
    threshold = large_loss_threshold(star.alpha, gamma_prime)
    reduced_losses = np.minimum(star.losses, star.decay * threshold)

    # Small-loss routine on the hypothetically reduced losses; the
    # paper runs it with an intermediate gain gamma'' >= 2 gamma.
    gamma_double_prime = 2.0 * gamma
    before_trim = star.m
    selected = small_loss_subset(
        star,
        gamma_double_prime,
        gamma_prime=gamma_prime,
        eps=eps,
        losses=reduced_losses,
    )
    trimmed = claim12_trim(
        star,
        np.arange(star.m),
        gamma_prime,
        eps
        if eps is not None
        else max(1e-6, min(0.5, (min(1.0, gamma / gamma_prime)) ** (2.0 / 3.0))),
        losses=reduced_losses,
    )
    dropped_trim = before_trim - trimmed.size
    dropped_selection = trimmed.size - selected.size

    # Window trick: order the selected nodes by decay; for each
    # large-loss node, count the small-loss nodes in its window
    # (between its predecessor in L and its successor in L); drop it if
    # the window holds more than gamma' / gamma'' nodes.
    large, _ = split_large_small(star, gamma_prime)
    large_set = set(int(i) for i in large)
    order = sorted(int(i) for i in selected)
    order.sort(key=lambda i: star.decay[i])
    window_limit = gamma_prime / gamma_double_prime
    keep_after_window: List[int] = []
    dropped_window = 0
    # Positions of large-loss nodes within the decay ordering.
    large_positions = [k for k, i in enumerate(order) if i in large_set]
    windows: Dict[int, int] = {}
    for pos_idx, pos in enumerate(large_positions):
        prev_pos = large_positions[pos_idx - 1] if pos_idx > 0 else -1
        next_pos = (
            large_positions[pos_idx + 1]
            if pos_idx + 1 < len(large_positions)
            else len(order)
        )
        # |S_i| + 1 + |S_succ(i)| = nodes strictly between the
        # neighbouring large nodes, inclusive of i itself.
        windows[pos] = next_pos - prev_pos - 1
    for k, i in enumerate(order):
        if i in large_set and windows.get(k, 0) > window_limit:
            dropped_window += 1
            continue
        keep_after_window.append(i)

    # Certification: verify against the *true* losses, peeling any
    # violators (counts how much slack the proof constants left).
    kept = np.asarray(sorted(keep_after_window), dtype=int)
    dropped_final = 0
    powers = star.sqrt_powers()
    while kept.size > 0:
        margins = nodeloss_margins(star, powers, subset=kept, gamma=gamma)
        if np.all(margins >= 1.0 - 1e-9):
            break
        worst = int(np.argmin(margins))
        kept = np.delete(kept, worst)
        dropped_final += 1

    return Lemma5Result(
        kept=kept,
        gamma=gamma,
        gamma_prime=gamma_prime,
        dropped_trim=dropped_trim,
        dropped_selection=dropped_selection,
        dropped_window=dropped_window,
        dropped_final=dropped_final,
    )
