"""E11 — §6 open problem: distributed vs centralized coloring.

The paper leaves open whether a *distributed* procedure can match the
centralized O(log n) approximation for the square-root assignment.
Earlier revisions measured a single-process *simulation* of the slotted
random-access protocol; the experiment now runs the real thing:
:func:`repro.distributed.distributed_protocol` stages the protocol as
``W`` message-passing node blocks on a
:class:`~repro.runner.executors.ShardExecutor` — each block draws its
own transmission coins from a private RNG stream and only the
channel's feasibility verdict crosses process boundaries.  Measured
against centralized first-fit: colors actually used, total protocol
slots (idle/collision slots included — the distributed cost), and
attempts per success.

``executor="serial"`` (the default, and both spec modes) runs the
message schedule in-process; ``"process"`` stages the same schedule on
real OS processes.  Outputs are bit-identical for a given ``(seed,
workers)`` by the executor determinism contract; CI's "E11 executor
contract" step checks that at the full spec's sizes, so the paper
table need not pay for process start-up.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.distributed import distributed_protocol
from repro.experiments.e03_sqrt_universal import InstanceFactory, default_families
from repro.power.oblivious import SquareRootPower
from repro.runner.spec import ExperimentSpec
from repro.scheduling.registry import run_algorithm
from repro.util.rng import RngLike, ensure_rng, spawn_rngs
from repro.util.tables import Table


def run_distributed(
    n_values: Sequence[int] = (10, 20, 40),
    families: Optional[Dict[str, InstanceFactory]] = None,
    trials: int = 3,
    rng: RngLike = 61,
    workers: int = 2,
    executor: str = "serial",
) -> Table:
    """Measure the distributed protocol against centralized first-fit.

    *workers* node blocks run the protocol per trial on the named
    *executor* (``"serial"``/``"process"``); results depend only on the
    derived seeds and *workers*, never on the executor.
    """
    if families is None:
        families = default_families()
    rng = ensure_rng(rng)
    table = Table(
        title="E11: §6 — distributed random-access vs centralized coloring",
        columns=[
            "family",
            "n",
            "centralized_colors",
            "distributed_colors",
            "protocol_slots",
            "attempts_per_success",
            "distributed_overhead",
        ],
    )
    table.add_note(
        "protocol: slotted random access under the sqrt assignment with "
        "multiplicative backoff, run as message-passing node blocks "
        f"(workers={int(workers)}, executor={executor}); "
        "overhead = protocol slots / centralized colors"
    )
    for family_name, factory in families.items():
        for n in n_values:
            central, dist_colors, slots, att = [], [], [], []
            for child in spawn_rngs(rng, trials):
                instance = factory(n, child)
                protocol_seed = int(child.integers(2**31))
                baseline = run_algorithm(
                    "first_fit", instance, powers=SquareRootPower()(instance)
                ).schedule
                baseline.validate(instance)
                schedule, stats = distributed_protocol(
                    instance,
                    workers=workers,
                    executor=executor,
                    seed=protocol_seed,
                )
                schedule.validate(instance)
                central.append(baseline.num_colors)
                dist_colors.append(schedule.num_colors)
                slots.append(stats.slots)
                att.append(stats.attempts_per_success)
            table.add_row(
                family=family_name,
                n=n,
                centralized_colors=float(np.mean(central)),
                distributed_colors=float(np.mean(dist_colors)),
                protocol_slots=float(np.mean(slots)),
                attempts_per_success=float(np.mean(att)),
                distributed_overhead=float(np.mean(slots)) / float(np.mean(central)),
            )
    return table
SPEC = ExperimentSpec(
    id="e11",
    title="Distributed protocol vs centralized",
    runner="repro.experiments.e11_distributed:run_distributed",
    full={"n_values": (10, 20, 40), "trials": 2},
    fast={"n_values": (8,), "trials": 1},
    seed=61,
    shard_by="n_values",
    metric="distributed_overhead",
    algorithms=("distributed", "first_fit"),
)
