"""Benchmark: first-fit over distributed gain shards at n = 131072.

The sharded backend exists to pass the memory wall the single-process
backends stop at: a dense gain matrix at n = 131072 would cost ~137 GB
and even the ε-pruned sparse CSR must be built from O(n²) gain
evaluations in one address space.  ``repro.distributed`` splits each
endpoint matrix into ``W`` block rows, builds them **in parallel
worker processes** that never materialize (or even see) the other
blocks, and answers backend queries by halo exchange — so the binding
constraint becomes per-worker memory, which this benchmark measures
and gates.

Workloads:

* conformance — first-fit on the sharded backend (``--conf-workers``
  serial shards, ε=0) at ``--conf-n`` must emit the *identical*
  schedule to the dense backend (hard failure otherwise);
* headline — first-fit at ``--n`` (default 131072) over ``--workers``
  (default 8) process shards at ``BENCH_EPSILON``, driven by the
  windowed admission loop
  (:func:`repro.core.kernels.first_fit_colors_sharded`, one column
  round trip per ``--window`` admissions).

Gates (exit non-zero on violation):

* the headline run must complete (build + schedule);
* every worker's peak RSS (``worker_health()``, measured inside the
  worker process) must stay within ``--rss-budget-mb`` (default 2048);
* the conformance schedule must match dense bit for bit.

Shard builds assemble dense scratch ``--tile-rows`` × n at a time;
smaller tiles trade build speed for per-worker peak RSS.  Tiling never
changes bits (per-row pairwise sums, per-row pruning), so the knob is
safe to tune per machine.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_distributed.py
    PYTHONPATH=src python benchmarks/bench_distributed.py \
        --n 4096 --workers 4 --conf-n 512 --artifacts out/

The committed seed artifact
(``benchmarks/artifacts/BENCH_distributed.json``) holds the full-size
reference run for this container; CI re-runs the reduced size.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

import numpy as np

#: Pruning budget for the headline run (same as bench_backends).
BENCH_EPSILON = 0.05


def _make_instance(n: int, seed: int):
    """Constant-density random geometric instance (directed) — the
    same scaling family as ``bench_backends.py``."""
    from repro.instances.random_instances import random_uniform_instance

    side = 2.0 * float(np.sqrt(n))
    return random_uniform_instance(
        n,
        side=side,
        max_link_fraction=min(1.0, 4.0 / side),
        direction="directed",
        rng=seed,
    )


def _parent_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sharded_first_fit(
    instance,
    powers,
    epsilon: float,
    workers: int,
    executor: str,
    tile_rows: int,
    window: int,
):
    """Build the sharded backend and run windowed first-fit on it.

    Returns a result dict with timings, colors, per-worker health and
    backend stats.  The context is assembled around the explicitly
    tuned backend (tile_rows is a build knob, not a context key — it
    never changes bits)."""
    from repro.core.context import InterferenceContext
    from repro.core.gains import BackendConfig
    from repro.core.kernels import first_fit_colors_sharded
    from repro.distributed import ShardedBackend

    build_start = time.perf_counter()
    backend = ShardedBackend.build(
        instance,
        powers,
        epsilon=epsilon,
        workers=workers,
        executor=executor,
        tile_rows=tile_rows,
    )
    build_seconds = time.perf_counter() - build_start
    try:
        context = InterferenceContext(
            instance,
            powers,
            config=BackendConfig(
                "sharded",
                sparse_epsilon=epsilon,
                workers=workers,
                shard_executor=executor,
            ),
        )
        context._backend = backend
        order = np.argsort(-instance.link_distances, kind="stable")
        limits = context.budgets() * (1.0 + 1e-9)
        schedule_start = time.perf_counter()
        colors = first_fit_colors_sharded(
            context, order, limits, window=window
        )
        schedule_seconds = time.perf_counter() - schedule_start
        health = backend.worker_health()
        return {
            "build_seconds": build_seconds,
            "schedule_seconds": schedule_seconds,
            "seconds": build_seconds + schedule_seconds,
            "colors": int(colors.max()) + 1,
            "schedule_colors": colors.tolist(),
            "worker_rss_mb": [h["peak_rss_mb"] for h in health],
            "worker_pids": [h["pid"] for h in health],
            "nnz": backend.nnz,
            "density": backend.density,
            "gain_bytes": backend.nbytes,
        }
    finally:
        backend.close()


def _dense_first_fit(instance, powers):
    from repro.core.gains import config_scope
    from repro.scheduling.firstfit import first_fit_schedule

    start = time.perf_counter()
    with config_scope(backend="dense"):
        schedule = first_fit_schedule(instance, powers)
    return {
        "seconds": time.perf_counter() - start,
        "colors": schedule.num_colors,
        "schedule_colors": schedule.colors.tolist(),
    }


def run(args) -> int:
    from repro.core.context import clear_context_cache
    from repro.power.oblivious import SquareRootPower

    rows = []
    failures = []
    run_start = time.perf_counter()

    # -- conformance: sharded eps=0 must match dense bit-for-bit ------
    conf_instance = _make_instance(args.conf_n, args.seed)
    conf_powers = SquareRootPower()(conf_instance)
    clear_context_cache()
    conf_dense = _dense_first_fit(conf_instance, conf_powers)
    clear_context_cache()
    conf_sharded = _sharded_first_fit(
        conf_instance,
        conf_powers,
        epsilon=0.0,
        workers=args.conf_workers,
        executor="serial",
        tile_rows=args.tile_rows,
        window=args.window,
    )
    rows.append(
        {
            "workload": "conformance/dense",
            "n": args.conf_n,
            "workers": 0,
            "executor": "-",
            "epsilon": 0.0,
            "build_seconds": float("nan"),
            "seconds": conf_dense["seconds"],
            "colors": conf_dense["colors"],
            "max_worker_rss_mb": float("nan"),
            "density": 1.0,
        }
    )
    rows.append(
        {
            "workload": "conformance/sharded-eps0",
            "n": args.conf_n,
            "workers": args.conf_workers,
            "executor": "serial",
            "epsilon": 0.0,
            "build_seconds": conf_sharded["build_seconds"],
            "seconds": conf_sharded["seconds"],
            "colors": conf_sharded["colors"],
            "max_worker_rss_mb": max(conf_sharded["worker_rss_mb"]),
            "density": conf_sharded["density"],
        }
    )
    print(
        f"conformance n={args.conf_n}: dense {conf_dense['seconds']:.2f}s "
        f"/ sharded(W={args.conf_workers}, serial) "
        f"{conf_sharded['seconds']:.2f}s, "
        f"colors {conf_dense['colors']} vs {conf_sharded['colors']}"
    )
    if conf_sharded["schedule_colors"] != conf_dense["schedule_colors"]:
        failures.append(
            f"sharded eps=0 first-fit diverged from dense at "
            f"n={args.conf_n}, W={args.conf_workers}"
        )

    # -- headline: first-fit at --n over real process shards ----------
    instance = _make_instance(args.n, args.seed)
    powers = SquareRootPower()(instance)
    clear_context_cache()
    print(
        f"headline: n={args.n}, W={args.workers} ({args.executor}), "
        f"eps={BENCH_EPSILON}, tile_rows={args.tile_rows}, "
        f"window={args.window} ..."
    )
    headline = _sharded_first_fit(
        instance,
        powers,
        epsilon=BENCH_EPSILON,
        workers=args.workers,
        executor=args.executor,
        tile_rows=args.tile_rows,
        window=args.window,
    )
    max_worker_rss = max(headline["worker_rss_mb"])
    rows.append(
        {
            "workload": "first_fit",
            "n": args.n,
            "workers": args.workers,
            "executor": args.executor,
            "epsilon": BENCH_EPSILON,
            "build_seconds": headline["build_seconds"],
            "seconds": headline["seconds"],
            "colors": headline["colors"],
            "max_worker_rss_mb": max_worker_rss,
            "density": headline["density"],
        }
    )
    unique_pids = len(set(headline["worker_pids"]))
    print(
        f"headline done: build {headline['build_seconds']:.1f}s + "
        f"schedule {headline['schedule_seconds']:.1f}s, "
        f"colors={headline['colors']}, "
        f"density={headline['density']:.5f}, "
        f"stored gain bytes={headline['gain_bytes'] / 1e6:.0f} MB "
        f"across {unique_pids} worker(s)"
    )
    print(
        f"gate: per-worker peak RSS {max_worker_rss:.0f} MB "
        f"(parent {_parent_rss_mb():.0f} MB) vs budget "
        f"{args.rss_budget_mb:g} MB"
    )
    if args.executor == "process" and unique_pids != args.workers:
        failures.append(
            f"expected {args.workers} distinct worker processes, "
            f"saw {unique_pids}"
        )
    if max_worker_rss > args.rss_budget_mb:
        failures.append(
            f"worker peak RSS {max_worker_rss:.0f} MB exceeds the "
            f"{args.rss_budget_mb:g} MB budget at n={args.n}"
        )

    if args.artifacts is not None:
        from repro.runner.artifacts import (
            BenchReport,
            ShardResult,
            write_artifact,
        )
        from repro.util.tables import Table

        table = Table(
            title="Distributed gain shards: first-fit beyond one process",
            columns=[
                "workload",
                "n",
                "workers",
                "executor",
                "epsilon",
                "build_seconds",
                "seconds",
                "colors",
                "max_worker_rss_mb",
                "density",
            ],
        )
        table.add_note(
            f"gate: headline first-fit at n={args.n} completes across "
            f"{args.workers} {args.executor} shards with per-worker "
            f"peak RSS <= {args.rss_budget_mb:g} MB; conformance "
            "workload bit-identical to dense"
        )
        table.add_note(
            "constant-density random geometric instances (directed, "
            "sqrt powers); worker RSS measured inside each worker "
            "process (worker_health); admission windowed at "
            f"{args.window} requests per column round trip"
        )
        shards = []
        for row in rows:
            table.add_row(**row)
            shards.append(
                ShardResult(
                    key=(
                        f"{row['workload']}:n={row['n']}"
                        f":W={row['workers']}"
                    ),
                    seed=args.seed,
                    rows=1,
                    seconds=row["seconds"],
                )
            )
        report = BenchReport(
            experiment="distributed",
            title="Sharded first-fit at n >> single-process memory",
            mode="smoke" if args.n < 131072 else "full",
            table=table,
            shards=shards,
            run_wall_seconds=time.perf_counter() - run_start,
            metric="seconds",
            backend="sharded",
            algorithms=("first_fit_sharded",),
        )
        write_artifact(args.artifacts, report)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: all distributed gates passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--n",
        type=int,
        default=131072,
        help="headline instance size (default 131072)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=8,
        help="shard workers for the headline run (default 8)",
    )
    parser.add_argument(
        "--executor",
        choices=("serial", "process"),
        default="process",
        help="executor for the headline run (default process)",
    )
    parser.add_argument(
        "--tile-rows",
        type=int,
        default=256,
        help="dense scratch rows per build tile; bounds per-worker "
        "build memory at tile_rows x n doubles (default 256)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=64,
        help="admissions per column-prefetch round trip; the next "
        "window is fetched while this one is admitted, so two windows "
        "must fit the 256-column cache: at most 128 (default 64)",
    )
    parser.add_argument(
        "--conf-n",
        type=int,
        default=2048,
        help="bit-exactness check size (default 2048)",
    )
    parser.add_argument(
        "--conf-workers",
        type=int,
        default=4,
        help="shard count for the conformance workload (default 4)",
    )
    parser.add_argument(
        "--rss-budget-mb",
        type=float,
        default=2048.0,
        help="per-worker peak-RSS budget (default 2048)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="write BENCH_distributed.json under DIR",
    )
    args = parser.parse_args(argv)
    if args.workers < 1 or args.conf_workers < 1:
        parser.error("worker counts must be >= 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
