"""Benchmark: stacked batch kernels vs a per-pair loop of the same kernels.

Two rows per size, each on ``B`` same-shape random instances:

* ``first_fit_batch{B}`` — :meth:`ContextBatch.first_fit_schedules`
  (the ``stacked_first_fit`` kernel, lockstep over ``(B, n, n)``
  stacked gains) against a loop of per-pair
  :func:`~repro.scheduling.firstfit.first_fit_schedule` calls;
* ``local_search_batch{B}`` — :meth:`ContextBatch.local_search_schedules`
  (the ``stacked_local_search`` kernel) against a loop of per-pair
  :func:`~repro.scheduling.local_search.improve_schedule` calls, both
  sides reporting best-of-2 wall time (see ``_time_min``).

Both sides of a row run the production kernels, so the ratio measures
lockstep batching alone, and every row asserts the two sides emit
bit-identical schedules.  The rows are reported, not gated: the
stacked local search wins at large ``n`` and ``B`` and can lose at
small ones.

Shared engine state (cached gain matrices, signals) is warmed before
timing — both sides read the same cache, and this benchmark measures
the scheduler layer, not the matrix build.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_scheduler_kernels.py
    PYTHONPATH=src python benchmarks/bench_scheduler_kernels.py --sizes 64,128 --ls-batch-pairs 4

The default arguments are the full run committed as
``benchmarks/artifacts/BENCH_sched_kernels.json``; any other arguments
record ``mode: smoke``.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time

import numpy as np

from repro.core.batch import ContextBatch
from repro.core.context import clear_context_cache, get_context
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower
from repro.runner.artifacts import BenchReport, ShardResult, write_artifact
from repro.scheduling.firstfit import first_fit_schedule
from repro.scheduling.local_search import improve_schedule
from repro.util.tables import Table

DEFAULT_SIZES = "256,1024"
DEFAULT_BATCH_PAIRS = 4
DEFAULT_LS_BATCH_PAIRS = 32


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _time_min(fn, repeats=2):
    """Best-of-``repeats`` wall time (both sides are pure functions).

    Used for the batched local-search row, whose working set (a
    (B, n, n) stacked gain tensor plus lockstep state) is large enough
    that the first run is dominated by first-touch page faults rather
    than compute.  The repeat reuses the freed pages, so the minimum
    reports steady-state throughput; both sides are measured the same
    way.
    """
    best, result = _time(fn)
    for _ in range(repeats - 1):
        elapsed, result = _time(fn)
        best = min(best, elapsed)
    return best, result


def _warm_pairs(n, count, seed):
    pairs = []
    for index in range(count):
        instance = random_uniform_instance(n, rng=seed + index)
        pairs.append((instance, SquareRootPower()(instance)))
    clear_context_cache()
    for instance, powers in pairs:
        context = get_context(instance, powers)
        context.gains_u
        context.gains_v
        context.signals
    return pairs


def _assert_identical(batched, looped, name):
    for schedule, reference in zip(batched, looped):
        assert np.array_equal(schedule.colors, reference.colors), (
            f"{name}: stacked schedules diverged from the per-pair loop"
        )


def _local_search_row(n, count, seed):
    pairs = _warm_pairs(n, count, seed + 200)
    # The seed schedules are the same for both sides; compute them
    # outside both timers via a throwaway batch so no per-context
    # transpose caches linger.  The stacked timer pays for its own
    # stack assembly.
    seed_batch = ContextBatch(pairs)
    seeds = seed_batch.first_fit_schedules()
    del seed_batch
    batch = ContextBatch(pairs)
    t_batch, improved = _time_min(lambda: batch.local_search_schedules(seeds))
    t_loop, references = _time_min(
        lambda: [improve_schedule(inst, s) for (inst, _), s in zip(pairs, seeds)]
    )
    name = f"local_search_batch{count}"
    _assert_identical(improved, references, name)
    clear_context_cache()
    return name, n, t_loop, t_batch


def _first_fit_row(n, count, seed):
    pairs = _warm_pairs(n, count, seed + 100)
    batch = ContextBatch(pairs)
    t_batch, schedules = _time(batch.first_fit_schedules)
    t_loop, references = _time(
        lambda: [first_fit_schedule(inst, p) for inst, p in pairs]
    )
    name = f"first_fit_batch{count}"
    _assert_identical(schedules, references, name)
    clear_context_cache()
    return name, n, t_loop, t_batch


def run(sizes, batch_pairs, ls_batch_pairs, seed=7, artifacts=None, mode="smoke"):
    run_start = time.perf_counter()
    rows = []
    for n in sizes:
        # Local search first: it is the largest resident set (B stacked
        # (n, n) matrices plus B warmed contexts), and timing it before
        # the first-fit row churns the heap keeps both timers on fresh
        # memory.
        if ls_batch_pairs > 1:
            rows.append(_local_search_row(n, ls_batch_pairs, seed))
        if batch_pairs > 1:
            rows.append(_first_fit_row(n, batch_pairs, seed))

    print(f"{'workload':<22} {'n':>5} {'loop':>12} {'stacked':>11} {'ratio':>7}")
    table_rows = []
    for name, n, loop, stacked in rows:
        ratio = loop / stacked if stacked > 0 else float("inf")
        table_rows.append((name, n, loop, stacked, ratio))
        print(
            f"{name:<22} {n:>5} {loop * 1e3:>10.1f} ms {stacked * 1e3:>8.1f} ms "
            f"{ratio:>6.2f}x"
        )

    if artifacts is not None:
        table = Table(
            title="Stacked batch kernels vs per-pair kernel loop",
            columns=["workload", "n", "loop_seconds", "stacked_seconds", "ratio"],
        )
        table.add_note(
            "loop = per-pair first_fit_schedule / improve_schedule calls; "
            "stacked = ContextBatch.first_fit_schedules / "
            "local_search_schedules; local_search rows best-of-2 per side; "
            "schedules asserted bit-identical; ungated"
        )
        table.add_note(
            f"machine: {platform.machine()}, {os.cpu_count()} CPUs, "
            f"Python {platform.python_version()}, NumPy {np.__version__}"
        )
        shards = []
        for name, n, loop, stacked, ratio in table_rows:
            table.add_row(
                workload=name,
                n=n,
                loop_seconds=loop,
                stacked_seconds=stacked,
                ratio=ratio,
            )
            shards.append(
                ShardResult(
                    key=f"{name}:n={n}", seed=seed, rows=1, seconds=loop + stacked
                )
            )
        report = BenchReport(
            experiment="sched_kernels",
            title="Stacked batch kernel ratio",
            mode=mode,
            table=table,
            shards=shards,
            run_wall_seconds=time.perf_counter() - run_start,
            metric="ratio",
        )
        write_artifact(artifacts, report)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default=DEFAULT_SIZES,
        help="comma-separated instance sizes; both rows run at each",
    )
    parser.add_argument(
        "--batch-pairs",
        type=int,
        default=DEFAULT_BATCH_PAIRS,
        help="pairs in the batched first-fit row (0/1 disables it)",
    )
    parser.add_argument(
        "--ls-batch-pairs",
        type=int,
        default=DEFAULT_LS_BATCH_PAIRS,
        help="pairs in the batched local-search row (0/1 disables it)",
    )
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="write BENCH_sched_kernels.json under DIR",
    )
    args = parser.parse_args(argv)
    full = (args.sizes, args.batch_pairs, args.ls_batch_pairs) == (
        DEFAULT_SIZES,
        DEFAULT_BATCH_PAIRS,
        DEFAULT_LS_BATCH_PAIRS,
    )
    return run(
        sorted(int(s) for s in args.sizes.split(",")),
        args.batch_pairs,
        args.ls_batch_pairs,
        artifacts=args.artifacts,
        mode="full" if full else "smoke",
    )


if __name__ == "__main__":
    sys.exit(main())
