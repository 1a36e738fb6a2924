"""Multi-process slotted random-access protocol (§6, for real).

:func:`repro.scheduling.distributed.distributed_coloring` *simulates*
the slotted ALOHA protocol inside one process: a single RNG draws
every node's coin, so nothing actually runs distributedly.  This
module stages the same protocol as a genuine message-passing system on
the :class:`~repro.runner.executors.ShardExecutor` abstraction:

* ``W`` worker processes each own a contiguous block of requests and
  keep that block's *private* protocol state — transmission
  probabilities, pending flags, and an RNG stream derived with
  :func:`repro.runner.spec.derive_shard_seed` (deterministic per
  ``(seed, W)`` regardless of executor or host).
* Each slot, every worker draws its own transmission decisions locally
  and announces only *who transmitted* — exactly the information a
  radio broadcast reveals.
* The parent plays the *channel*: it evaluates the slot's SINR
  feasibility over the union of transmitters
  (:meth:`~repro.core.context.InterferenceContext.feasible_mask`) and
  broadcasts the winner set back, as a receiver acknowledgement would.
* Workers apply multiplicative backoff to their own losers; nobody
  ever sees another block's probabilities.

Soundness is inherited from the single-process analysis: a slot's
winners heard all of the slot's transmitters, so they remain feasible
once the losers fall silent — every slot is a valid color class.
Outputs are deterministic for a given ``(seed, workers)`` but differ
from :func:`distributed_coloring` at the same seed, because each block
draws from its own stream (the point: no shared coin exists).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.context import get_context
from repro.core.instance import Instance
from repro.core.schedule import Schedule, build_schedule
from repro.distributed.sharded import shard_bounds
from repro.power.base import PowerAssignment
from repro.power.oblivious import SquareRootPower
from repro.runner.executors import ShardExecutor, build_shard_executor
from repro.runner.spec import derive_shard_seed
from repro.scheduling.distributed import DistributedStats, ProtocolStalledError

__all__ = ["ProtocolNodeBlock", "distributed_protocol"]


class ProtocolNodeBlock:
    """Worker-side actor: the protocol state of requests ``[lo, hi)``.

    Holds only what the block's nodes could know locally — their own
    probabilities, their own pending flags, and a private RNG.
    """

    def __init__(
        self,
        lo: int,
        hi: int,
        p0: float,
        backoff: float,
        p_min: float,
        policy: str,
        seed: int,
    ):
        self.lo, self.hi = int(lo), int(hi)
        k = self.hi - self.lo
        self.policy = policy
        self.backoff = float(backoff)
        self.p_min = float(p_min)
        self.probability = np.full(k, float(p0))
        self.pending = np.ones(k, dtype=bool)
        self.rng = np.random.default_rng(int(seed))

    def draw(self) -> np.ndarray:
        """One slot's local coin flips: global indices of this block's
        pending requests that transmit."""
        k = self.pending.size
        transmitting = self.pending & (
            self.rng.uniform(size=k) < self.probability
        )
        return self.lo + np.flatnonzero(transmitting)

    def resolve(self, winners: np.ndarray, losers: np.ndarray) -> int:
        """Apply the channel's verdict to this block; returns how many
        of the block's requests are still pending."""
        mine_w = np.asarray(winners, dtype=int)
        mine_w = mine_w[(mine_w >= self.lo) & (mine_w < self.hi)] - self.lo
        self.pending[mine_w] = False
        if self.policy == "backoff":
            mine_l = np.asarray(losers, dtype=int)
            mine_l = (
                mine_l[(mine_l >= self.lo) & (mine_l < self.hi)] - self.lo
            )
            if mine_l.size:
                self.probability[mine_l] = np.maximum(
                    self.probability[mine_l] * self.backoff, self.p_min
                )
        return int(self.pending.sum())


def _build_node_block(payload: Tuple) -> ProtocolNodeBlock:
    lo, hi, p0, backoff, p_min, policy, seed = payload
    return ProtocolNodeBlock(lo, hi, p0, backoff, p_min, policy, seed)


def distributed_protocol(
    instance: Instance,
    power: Optional[PowerAssignment] = None,
    workers: int = 2,
    executor: Optional[object] = None,
    policy: str = "backoff",
    p0: float = 0.5,
    backoff: float = 0.5,
    p_min: float = 1.0 / 1024.0,
    max_slots: Optional[int] = None,
    seed: int = 0,
) -> Tuple[Schedule, DistributedStats]:
    """Run the slotted protocol as ``W`` message-passing node blocks.

    Parameters mirror
    :func:`~repro.scheduling.distributed.distributed_coloring`, except
    randomness: each block owns a private stream derived from
    ``derive_shard_seed(seed, block)``, so results are a deterministic
    function of ``(seed, workers)`` alone.

    *executor* is a registered executor name (``"serial"`` /
    ``"process"``), an unstarted
    :class:`~repro.runner.executors.ShardExecutor` with matching
    worker count, or ``None`` for the process default.

    Raises
    ------
    ProtocolStalledError
        If the slot budget is exhausted before all requests succeed.
    """
    if policy not in ("fixed", "backoff"):
        raise ValueError(f"unknown policy {policy!r}")
    if not 0 < p0 <= 1:
        raise ValueError(f"p0 must be in (0, 1], got {p0}")
    if not 0 < backoff < 1:
        raise ValueError(f"backoff must be in (0, 1), got {backoff}")
    if not 0 < p_min <= p0:
        raise ValueError("p_min must satisfy 0 < p_min <= p0")
    if power is None:
        power = SquareRootPower()
    powers = power(instance)
    context = get_context(instance, powers)
    if max_slots is None:
        max_slots = int(64 * instance.n / p_min)

    workers = int(workers)
    if isinstance(executor, ShardExecutor):
        exec_obj = executor
        if exec_obj.workers != workers:
            raise ValueError(
                f"executor has {exec_obj.workers} workers, "
                f"expected {workers}"
            )
        owns_executor = False
    else:
        name = None if executor is None else str(executor)
        exec_obj = build_shard_executor(name, workers)
        owns_executor = True

    bounds = shard_bounds(instance.n, workers)
    payloads = [
        (lo, hi, p0, backoff, p_min, policy, derive_shard_seed(seed, k))
        for k, (lo, hi) in enumerate(bounds)
    ]
    colors = np.full(instance.n, -1, dtype=int)
    stats = DistributedStats()
    color = 0
    remaining = instance.n
    try:
        exec_obj.start(_build_node_block, payloads)
        for _ in range(max_slots):
            if remaining == 0:
                break
            draws = exec_obj.broadcast("draw")
            transmitters = np.concatenate(
                [np.asarray(d, dtype=int) for d in draws]
            )
            stats.slots += 1
            if transmitters.size == 0:
                stats.idle_slots += 1
                continue
            stats.attempts += int(transmitters.size)
            ok = context.feasible_mask(transmitters)
            winners = transmitters[ok]
            losers = transmitters[~ok]
            if winners.size:
                colors[winners] = color
                color += 1
                stats.successes += int(winners.size)
                stats.successes_per_slot.append(int(winners.size))
            else:
                stats.collision_slots += 1
            counts: List[int] = exec_obj.broadcast("resolve", winners, losers)
            remaining = int(sum(counts))
    finally:
        if owns_executor:
            exec_obj.close()

    if remaining:
        raise ProtocolStalledError(
            f"{remaining} requests still pending after {stats.slots} slots"
        )
    return build_schedule(colors, powers, copy_powers=False), stats
