"""Cross-algorithm conformance suite.

Every scheduler in :mod:`repro.scheduling` is run over a shared grid
of instances — directed x bidirectional, Euclidean / line / tree
metrics, n in {1, 2, 8, 32}, plus shared-node adversarial cases — and
every emitted schedule must

* satisfy :func:`repro.core.feasibility.is_feasible_partition` *and*
  the independent SINR oracle of ``tests/oracle.py``;
* reproduce, bit for bit, the golden coloring in
  ``tests/data/scheduler_goldens.json``.  The goldens were recorded at
  commit 4024ade, where every scheduler still had its from-scratch and
  accumulator reference paths, and each golden was checked identical
  across all of them before it was written.  The ``sqrt_coloring``
  entries of the instances with shared nodes (``shared-node-dir`` and
  the tree instances) were re-recorded, oracle-checked, once the class
  LP fixed infinite-gain columns at 0 instead of failing in HiGHS;
* for first-fit, peeling and local search, equal the oracle's
  brute-force replay of the greedy decisions whenever the replay is
  unambiguous.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import oracle
from repro.core.context import clear_context_cache
from repro.core.feasibility import is_feasible_partition
from repro.core.instance import Direction, Instance
from repro.geometry.line import LineMetric
from repro.instances.line_instances import equispaced_line_instance
from repro.instances.random_instances import (
    random_tree_metric_instance,
    random_uniform_instance,
)
from repro.power.oblivious import SquareRootPower
from repro.scheduling.distributed import distributed_coloring
from repro.scheduling.exact import MAX_EXACT_N, exact_minimum_colors
from repro.scheduling.firstfit import (
    first_fit_free_power_schedule,
    first_fit_schedule,
)
from repro.scheduling.gain_scaling import rescale_gain_coloring
from repro.scheduling.local_search import improve_schedule
from repro.scheduling.peeling import peeling_schedule
from repro.scheduling.protocol_model import protocol_schedule
from repro.scheduling.sqrt_coloring import sqrt_coloring
from repro.scheduling.trivial import trivial_schedule

SIZES = (1, 2, 8, 32)


def _shared_node_instance(direction: Direction) -> Instance:
    """Adversarial chain where consecutive requests share a node —
    infinite mutual gain, so no two of them may ever share a color."""
    metric = LineMetric([0.0, 1.0, 2.5, 4.5, 7.0])
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
    return Instance(
        metric,
        [p[0] for p in pairs],
        [p[1] for p in pairs],
        direction=direction,
    )


def _build_grid():
    grid = {}
    for direction in (Direction.DIRECTED, Direction.BIDIRECTIONAL):
        tag = direction.value[:3]
        for n in SIZES:
            grid[f"euclid-{tag}-n{n}"] = random_uniform_instance(
                n, rng=100 + n, direction=direction
            )
            grid[f"line-{tag}-n{n}"] = equispaced_line_instance(
                n, direction=direction
            )
            grid[f"tree-{tag}-n{n}"] = random_tree_metric_instance(
                n, rng=200 + n, direction=direction
            )
        grid[f"shared-node-{tag}"] = _shared_node_instance(direction)
    return grid


GRID = _build_grid()


def _schedulers():
    def fixed_power(fn):
        def run(instance, rng):
            powers = SquareRootPower()(instance)
            return fn(instance, powers)

        return run

    return {
        "trivial": lambda instance, rng: trivial_schedule(instance),
        "first_fit": fixed_power(first_fit_schedule),
        "first_fit_free_power": lambda instance, rng: (
            first_fit_free_power_schedule(instance)
        ),
        "peeling": fixed_power(peeling_schedule),
        "gain_scaling": fixed_power(
            lambda instance, powers: rescale_gain_coloring(
                instance, powers, gamma_target=2.0 * instance.beta
            )
        ),
        "sqrt_coloring": lambda instance, rng: sqrt_coloring(instance, rng=rng)[0],
        "sqrt_coloring_no_lp": lambda instance, rng: (
            sqrt_coloring(instance, rng=rng, use_lp=False)[0]
        ),
        "local_search": fixed_power(
            lambda instance, powers: improve_schedule(
                instance, first_fit_schedule(instance, powers)
            )
        ),
        "distributed": lambda instance, rng: distributed_coloring(
            instance, rng=rng
        )[0],
        "exact": lambda instance, rng: exact_minimum_colors(
            instance, SquareRootPower()(instance)
        )[1],
        "protocol_model": fixed_power(
            lambda instance, powers: protocol_schedule(instance, powers)[0]
        ),
    }


SCHEDULERS = _schedulers()

GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "scheduler_goldens.json").read_text()
)["conformance"]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("instance_name", sorted(GRID))
def test_scheduler_emits_feasible_partition(
    prime_context_cache, instance_name, scheduler_name
):
    instance = GRID[instance_name]
    if scheduler_name == "exact" and instance.n > MAX_EXACT_N:
        pytest.skip(f"exact solver caps at n={MAX_EXACT_N}")
    scheduler = SCHEDULERS[scheduler_name]

    def run():
        return scheduler(instance, np.random.default_rng(99))

    prime_context_cache(run)
    schedule = run()

    assert schedule.colors.shape == (instance.n,)
    assert np.all(schedule.colors >= 0)
    assert np.all(schedule.powers > 0)
    assert is_feasible_partition(instance, schedule.powers, schedule.colors), (
        f"{scheduler_name} emitted an infeasible schedule on {instance_name}"
    )
    assert oracle.SINROracle(instance, schedule.powers).feasible(
        schedule.colors
    ), f"{scheduler_name} on {instance_name} is infeasible per the oracle"
    np.testing.assert_array_equal(
        schedule.colors,
        GOLDENS[scheduler_name][instance_name],
        err_msg=f"{scheduler_name} on {instance_name} differs from its golden",
    )


@pytest.mark.parametrize("instance_name", sorted(GRID))
def test_gain_scaling_respects_target(prime_context_cache, instance_name):
    """The rescaled coloring must be feasible at the *stricter* gain."""
    instance = GRID[instance_name]
    powers = SquareRootPower()(instance)
    target = 2.0 * instance.beta

    def run():
        return rescale_gain_coloring(instance, powers, gamma_target=target)

    prime_context_cache(run)
    schedule = run()
    assert is_feasible_partition(
        instance, schedule.powers, schedule.colors, beta=target
    )
    assert oracle.SINROracle(instance, schedule.powers, beta=target).feasible(
        schedule.colors
    )


def _local_search_replay(instance, powers):
    """Local search from first-fit, ambiguous if either replay is."""
    seed = oracle.first_fit(instance, powers)
    replay = oracle.local_search(instance, powers, seed.value)
    return oracle.Replay(replay.value, seed.ambiguous or replay.ambiguous)


#: Oracle replays of the greedy schedulers, keyed like SCHEDULERS.
REPLAYS = {
    "first_fit": oracle.first_fit,
    "peeling": oracle.peeling,
    "local_search": _local_search_replay,
}


@pytest.mark.parametrize("scheduler_name", sorted(REPLAYS))
@pytest.mark.parametrize("instance_name", sorted(GRID))
def test_greedy_decisions_match_oracle(
    prime_context_cache, instance_name, scheduler_name
):
    """First-fit, peeling and local search make exactly the greedy
    decisions the oracle replays, unless a decision is too close to
    call (then only feasibility, checked above, is required)."""
    instance = GRID[instance_name]
    powers = SquareRootPower()(instance)
    replay = REPLAYS[scheduler_name](instance, powers)
    if replay.ambiguous:
        pytest.skip("a decision lies within 1e-9 of its boundary")

    def run():
        return SCHEDULERS[scheduler_name](instance, np.random.default_rng(99))

    prime_context_cache(run)
    schedule = run()
    np.testing.assert_array_equal(schedule.colors, replay.value)


#: Session.schedule equivalents of the legacy free-function calls
#: above: ``(algorithm, session params)`` keyed like SCHEDULERS.  The
#: registry facade must reproduce every legacy schedule bit-for-bit on
#: every gain backend (epsilon=0 sparse is lossless, like dense, so
#: zero flip-risk events are expected throughout), on a cold context
#: cache and on a dense context a previous session already warmed.
SESSION_CALLS = {
    "trivial": ("trivial", {}),
    "first_fit": ("first_fit", {}),
    "first_fit_free_power": ("first_fit_free_power", {}),
    "peeling": ("peeling", {}),
    "gain_scaling": ("gain_scaling", {}),  # gamma_target added per instance
    "sqrt_coloring": ("sqrt_coloring", {}),
    "sqrt_coloring_no_lp": ("sqrt_coloring", {"use_lp": False}),
    "local_search": ("local_search", {}),  # schedule= added per run
    "distributed": ("distributed", {}),
    "exact": ("exact", {}),
    "protocol_model": ("protocol_model", {}),
}


@pytest.mark.parametrize(
    "backend,warm",
    [
        pytest.param("dense", False, id="dense"),
        pytest.param("sparse", False, id="sparse"),
        pytest.param("dense", True, id="dense-warm"),
    ],
)
@pytest.mark.parametrize("scheduler_name", sorted(SESSION_CALLS))
@pytest.mark.parametrize(
    "instance_name",
    sorted(
        name
        for name in GRID
        if name.endswith(("n8", "n32")) or "shared-node" in name
    ),
)
def test_session_matches_legacy_free_functions(
    backend, warm, instance_name, scheduler_name
):
    """Acceptance: every scheduler resolved through the registry and
    called via Session.schedule emits the very schedule the submodule
    function emits under the process default — on the dense backend
    and the (lossless) sparse backend — with zero flip-risk events.
    The warm column first runs the same call in another session, so
    the measured session reuses a context whose caches (transposes,
    columns, kernel state) that run already filled."""
    from repro.api import Problem

    instance = GRID[instance_name]
    if scheduler_name == "exact" and instance.n > MAX_EXACT_N:
        pytest.skip(f"exact solver caps at n={MAX_EXACT_N}")
    legacy = SCHEDULERS[scheduler_name](instance, np.random.default_rng(99))

    clear_context_cache()
    algorithm, params = SESSION_CALLS[scheduler_name]

    def run_session():
        session = Problem(instance, backend=backend).session()
        call = dict(params)
        rng = None
        if scheduler_name in ("sqrt_coloring", "sqrt_coloring_no_lp", "distributed"):
            rng = np.random.default_rng(99)
        if scheduler_name == "gain_scaling":
            call["gamma_target"] = 2.0 * instance.beta
        if scheduler_name == "local_search":
            call["schedule"] = session.schedule("first_fit")
        return session, session.schedule(algorithm, rng=rng, **call)

    if warm:
        primed, _ = run_session()
        context = primed.context
    session, result = run_session()
    if warm:
        assert session.context is context

    np.testing.assert_array_equal(
        result.colors,
        legacy.colors,
        err_msg=(
            f"{scheduler_name} via Session on {backend} differs from the "
            f"legacy free function on {instance_name}"
        ),
    )
    np.testing.assert_array_equal(result.powers, legacy.powers)
    assert result.provenance.flip_risk_events == 0
    assert result.provenance.backend == backend
    clear_context_cache()


@pytest.mark.parametrize(
    "direction", [Direction.DIRECTED, Direction.BIDIRECTIONAL]
)
def test_shared_node_pairs_never_share_colors(prime_context_cache, direction):
    """On the shared-node chain, adjacent requests have infinite mutual
    gain; every scheduler must keep them in distinct colors."""
    instance = _shared_node_instance(direction)

    def run_all():
        rng = np.random.default_rng(5)
        return {
            name: scheduler(instance, rng)
            for name, scheduler in sorted(SCHEDULERS.items())
        }

    prime_context_cache(run_all)
    for name, schedule in run_all().items():
        colors = schedule.colors
        for i, j in ((0, 1), (1, 2), (2, 3)):
            assert colors[i] != colors[j], (
                f"{name} put shared-node requests {i}, {j} in one color"
            )
