"""Determinism regression: pinned golden schedules.

The golden colorings below were produced by the implementation that
predates the shared ``InterferenceContext`` on two small instances.
``first_fit_schedule`` and ``sqrt_coloring`` must keep reproducing them
bit-for-bit, on a cold context cache and on one an identical earlier
call has filled — any divergence means a refactor changed scheduling
decisions, not just their cost.  The Theorem 15 class-LP objectives of
the ``sqrt_coloring`` run are pinned alongside its colors, so a change
to how the LPs are built or solved shows even where the rounding hides
it.
"""

import numpy as np
import pytest

from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower
from repro.scheduling.firstfit import first_fit_schedule
from repro.scheduling.sqrt_coloring import sqrt_coloring

# Golden outputs pinned from the pre-refactor implementation
# (commit 7ad023e), generated with the exact calls used below.  The
# ``lp_objectives`` were recorded at commit 1d19b09, where every class
# LP still went to HiGHS with the stacked u/v rows.
GOLDEN = {
    "bidir-n12-rng0": {
        "first_fit": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
        "sqrt_coloring": [0, 1, 1, 1, 0, 0, 2, 0, 1, 0, 3, 1],
        "lp_objectives": [2.0, 6.0, 3.0, 3.0, 2.0],
    },
    "directed-n10-rng1": {
        "first_fit": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "sqrt_coloring": [0, 1, 1, 0, 0, 1, 2, 3, 0, 0],
        "lp_objectives": [4.0, 6.0, 4.0, 2.0],
    },
}


def _instances():
    return {
        "bidir-n12-rng0": random_uniform_instance(12, rng=0),
        "directed-n10-rng1": random_uniform_instance(
            10, rng=1, direction="directed"
        ),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_first_fit_matches_golden(prime_context_cache, name):
    instance = _instances()[name]

    def run():
        return first_fit_schedule(instance, SquareRootPower()(instance))

    prime_context_cache(run)
    schedule = run()
    assert schedule.colors.tolist() == GOLDEN[name]["first_fit"], (
        f"first_fit diverged from the pre-refactor golden on {name}"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sqrt_coloring_matches_golden(prime_context_cache, name):
    instance = _instances()[name]

    def run():
        return sqrt_coloring(instance, rng=42)

    prime_context_cache(run)
    schedule, stats = run()
    assert schedule.colors.tolist() == GOLDEN[name]["sqrt_coloring"], (
        f"sqrt_coloring diverged from the pre-refactor golden on {name}"
    )
    np.testing.assert_allclose(
        stats.lp_objectives,
        GOLDEN[name]["lp_objectives"],
        rtol=1e-12,
        err_msg=f"sqrt_coloring class-LP objectives moved on {name}",
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_identical_seeds_identical_schedules(prime_context_cache, name):
    """Same seed twice -> bitwise-identical output (no hidden state)."""
    instance = _instances()[name]

    def run():
        return sqrt_coloring(instance, rng=7)[0]

    prime_context_cache(run)
    first = run()
    second = run()
    np.testing.assert_array_equal(first.colors, second.colors)
    np.testing.assert_array_equal(first.powers, second.powers)
