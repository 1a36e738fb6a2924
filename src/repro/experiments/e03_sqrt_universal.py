"""E3 — Theorem 2: the square-root assignment is universally good
(bidirectional), empirically.

Theorem 2 states that whenever *some* power assignment schedules all
requests with one color, the square-root assignment admits a coloring
with polylog(n) colors.  Measured version: across random instance
families, compare the colors the square-root assignment needs (via the
Theorem 15 algorithm and via first-fit) against the colors an optimal
free-power schedule needs.  The ratio should stay bounded by a slowly
growing (polylogarithmic) function of ``n`` — in stark contrast to the
directed variant of E1.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.instance import Instance
from repro.instances.random_instances import (
    clustered_instance,
    random_tree_metric_instance,
    random_uniform_instance,
)
from repro.power.oblivious import SquareRootPower
from repro.runner.spec import ExperimentSpec
from repro.scheduling.registry import run_algorithm
from repro.util.rng import RngLike, ensure_rng, spawn_rngs
from repro.util.tables import Table

InstanceFactory = Callable[[int, np.random.Generator], Instance]


def run_theorem2_literal(
    n_values: Sequence[int] = (10, 20, 40),
    trials: int = 3,
    rng: RngLike = 4321,
) -> Table:
    """The literal Theorem 2 statement, measured.

    Instances are generated *certified one-color feasible* (a witness
    power assignment exists); the table reports the colors the
    square-root assignment needs — Theorem 2 bounds them by
    O(log^{3.5+alpha} n).
    """
    from repro.instances.feasible import one_color_feasible_instance

    rng = ensure_rng(rng)
    table = Table(
        title="E3b: Theorem 2 literal — one-color-feasible instances",
        columns=["n", "colors_sqrt_firstfit", "colors_sqrt_lp", "polylog_envelope"],
    )
    table.add_note(
        "instances certified one-color feasible under free powers; "
        "envelope = log2(n)^3.5 (alpha-independent part of the bound)"
    )
    for n in n_values:
        ff_counts, lp_counts = [], []
        for child in spawn_rngs(rng, trials):
            instance = one_color_feasible_instance(n, rng=child)
            powers = SquareRootPower()(instance)
            ff = run_algorithm("first_fit", instance, powers=powers).schedule
            lp = run_algorithm("sqrt_coloring", instance, rng=child).schedule
            ff.validate(instance)
            lp.validate(instance)
            ff_counts.append(ff.num_colors)
            lp_counts.append(lp.num_colors)
        table.add_row(
            n=n,
            colors_sqrt_firstfit=float(np.mean(ff_counts)),
            colors_sqrt_lp=float(np.mean(lp_counts)),
            polylog_envelope=math.log2(n) ** 3.5,
        )
    return table


def default_families() -> Dict[str, InstanceFactory]:
    """The random instance families exercised by E3."""
    return {
        "uniform-square": lambda n, rng: random_uniform_instance(n, rng=rng),
        "clustered": lambda n, rng: clustered_instance(n, rng=rng),
        "random-tree": lambda n, rng: random_tree_metric_instance(n, rng=rng),
    }


def run_sqrt_universal(
    n_values: Sequence[int] = (10, 20, 40, 80),
    families: Optional[Dict[str, InstanceFactory]] = None,
    trials: int = 3,
    rng: RngLike = 1234,
) -> Table:
    """Measure colors(sqrt) / colors(free-power) across families."""
    if families is None:
        families = default_families()
    rng = ensure_rng(rng)
    table = Table(
        title="E3: Theorem 2 — square-root assignment vs free-power optimum",
        columns=[
            "family",
            "n",
            "colors_sqrt_lp",
            "colors_sqrt_firstfit",
            "colors_free_power",
            "ratio",
            "log2n",
        ],
    )
    table.add_note(f"bidirectional, averaged over {trials} seeds per cell")
    for family_name, factory in families.items():
        for n in n_values:
            lp_counts, ff_counts, free_counts = [], [], []
            for child in spawn_rngs(rng, trials):
                instance = factory(n, child)
                sched_lp = run_algorithm(
                    "sqrt_coloring", instance, rng=child
                ).schedule
                powers = SquareRootPower()(instance)
                sched_ff = run_algorithm(
                    "first_fit", instance, powers=powers
                ).schedule
                sched_free = run_algorithm(
                    "first_fit_free_power", instance
                ).schedule
                for schedule in (sched_lp, sched_ff, sched_free):
                    schedule.validate(instance)
                lp_counts.append(sched_lp.num_colors)
                ff_counts.append(sched_ff.num_colors)
                free_counts.append(sched_free.num_colors)
            mean_lp = float(np.mean(lp_counts))
            mean_ff = float(np.mean(ff_counts))
            mean_free = float(np.mean(free_counts))
            table.add_row(
                family=family_name,
                n=n,
                colors_sqrt_lp=mean_lp,
                colors_sqrt_firstfit=mean_ff,
                colors_free_power=mean_free,
                ratio=min(mean_lp, mean_ff) / max(mean_free, 1.0),
                log2n=math.log2(n),
            )
    return table
SPEC = ExperimentSpec(
    id="e3",
    title="Theorem 2 sqrt universality",
    runner="repro.experiments.e03_sqrt_universal:run_sqrt_universal",
    full={"n_values": (10, 20, 40), "trials": 2},
    fast={"n_values": (8,), "trials": 1},
    seed=1234,
    shard_by="n_values",
    metric="ratio",
    algorithms=("sqrt_coloring", "first_fit", "first_fit_free_power"),
)

SPEC_THEOREM2 = ExperimentSpec(
    id="e3b",
    title="Theorem 2 literal (one-color-feasible)",
    runner="repro.experiments.e03_sqrt_universal:run_theorem2_literal",
    full={"n_values": (10, 20, 40), "trials": 2},
    fast={"n_values": (8,), "trials": 1},
    seed=4321,
    shard_by="n_values",
    metric="colors_sqrt_lp",
    algorithms=("sqrt_coloring", "first_fit"),
)
