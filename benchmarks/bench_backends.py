"""Benchmark: dense vs. sparse gain backends at large n.

The PR-4 backend split exists for exactly one reason: dense ``(n, n)``
gain matrices cap instance size long before algorithmic cost does.
This benchmark demonstrates (and gates) the unlock on random geometric
instances at **constant node density** (area grows with ``n``, the
physically meaningful scaling, where gains decay fast enough that
ε-pruning keeps a few percent of the entries):

* ``first_fit`` on the dense backend at ``--dense-n`` (default 4096) —
  the reference point;
* ``first_fit`` on the sparse backend at the same size (direct
  speedup) and at ``--sparse-n`` (default 16384), where the dense
  backend would need roughly ``16x`` the reference memory
  (loss matrix + both gain layouts — tens of GB);
* ``sqrt_coloring`` on the sparse backend at ``--sqrt-n`` (default
  8192) and ``--sqrt-big-n`` (default 32768) — the incremental peel
  kernel's unlock.  Under the old compacting peel (O(k^3) in the first
  distance bucket) n=8192 took ~343 s; the incremental kernel is gated
  to at least ``--sqrt-speedup`` (default 10x) faster than that
  committed ``--sqrt-seed-seconds`` baseline, and the big run must fit
  the RSS budget.  Both sqrt gates (and the big run itself) only
  engage when ``--sqrt-n`` is at least 8192, so CI's reduced size
  skips them;
* a bit-exactness check: at ``--conf-n`` the lossless sparse backend
  (``epsilon=0``) must emit the *identical* first-fit schedule to the
  dense backend (hard failure otherwise), and a certified pruned run
  (small epsilon, zero flip-risk events) must match too.

Every workload runs in its own spawned subprocess so peak RSS
(``ru_maxrss``) is measured per workload, not cumulatively.

Gates (exit non-zero on violation):

* sparse first-fit at ``--sparse-n`` must finish within
  ``--target-fraction`` (default 0.25) of the dense reference
  extrapolated quadratically (``dense_seconds * (sparse_n/dense_n)^2``);
* its peak RSS must stay within ``--rss-budget-mb`` (default 2048) — a
  budget the extrapolated dense run exceeds many times over;
* sqrt_coloring at ``--sqrt-n`` (when >= 8192) must beat the committed
  compacting-peel baseline by ``--sqrt-speedup``, and at
  ``--sqrt-big-n`` must stay within the RSS budget;
* the conformance workloads must match the dense schedule exactly.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_backends.py
    PYTHONPATH=src python benchmarks/bench_backends.py \
        --dense-n 1024 --sparse-n 4096 --sqrt-n 1024 --artifacts out/

Each row's ``seconds`` is ``build_s`` (the gain backend, built first)
plus ``solve_s`` (the scheduler on the built context).

Reference results (one run, defaults, 2-CPU x86-64 box, see
``benchmarks/artifacts/BENCH_backends.json``): sparse first-fit at
n=16384 takes 15.4 s (build 11.4 s + solve 4.0 s) at 0.76% stored
density in 355 MB of RSS.  The dense n=4096 reference now takes 1.05 s,
so the 25% time gate (4.2 s) fails: the gain build, not the solve, is
what the sparse path still pays for.  sqrt_coloring runs at n=8192 in
4.3 s against the 343 s compacting-peel seed (same schedule), and at
n=32768 in 675 MB RSS.
"""

from __future__ import annotations

import argparse
import multiprocessing
import resource
import sys
import time

import numpy as np

#: Pruning budget used for the lossy sparse rows (fraction of each
#: row's finite gain mass; see repro.core.gains).
BENCH_EPSILON = 0.05


def _make_instance(n: int, seed: int):
    """Constant-density random geometric instance (directed).

    The square's side grows like ``sqrt(n)`` so node density is
    n-independent, and link lengths are capped at an absolute scale
    (not a fraction of the growing side), keeping the workload the
    same 'local links in a large field' shape at every size.
    """
    from repro.instances.random_instances import random_uniform_instance

    side = 2.0 * float(np.sqrt(n))
    return random_uniform_instance(
        n,
        side=side,
        max_link_fraction=min(1.0, 4.0 / side),
        direction="directed",
        rng=seed,
    )


def _run_workload(spec: dict) -> dict:
    """Subprocess worker: build the instance, run one workload, report
    wall seconds + peak RSS + schedule/backend stats."""
    from repro.core.context import clear_context_cache, get_context
    from repro.core.gains import config_scope
    from repro.power.oblivious import SquareRootPower
    from repro.scheduling.firstfit import first_fit_schedule
    from repro.scheduling.sqrt_coloring import sqrt_coloring

    n = spec["n"]
    backend = spec["backend"]
    epsilon = spec["epsilon"]
    instance = _make_instance(n, spec["seed"])
    powers = SquareRootPower()(instance)
    clear_context_cache()
    with config_scope(backend=backend, sparse_epsilon=epsilon):
        # Build the gains first (the scheduler reuses the cached
        # context), so the wall time splits into build and solve.
        start = time.perf_counter()
        get_context(instance, powers).backend
        built = time.perf_counter()
        if spec["workload"] == "first_fit":
            schedule = first_fit_schedule(instance, powers)
        elif spec["workload"] == "sqrt":
            schedule, _ = sqrt_coloring(instance, rng=3, use_lp=False)
        else:  # pragma: no cover - spec misuse
            raise ValueError(spec["workload"])
        build_s = built - start
        solve_s = time.perf_counter() - built
        context = get_context(instance, schedule.powers)
        backend_obj = context.backend
        stats = {
            "density": backend_obj.density,
            "nnz": backend_obj.nnz,
            "gain_bytes": backend_obj.nbytes,
            "flip_risk": backend_obj.flip_risk_events,
        }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "seconds": build_s + solve_s,
        "build_s": build_s,
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
        "colors": schedule.num_colors,
        "schedule_colors": schedule.colors.tolist(),
        **stats,
    }


def _in_subprocess(spec: dict) -> dict:
    """Run one workload isolated in a fresh (spawned) interpreter so
    ru_maxrss reflects that workload alone."""
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1) as pool:
        return pool.apply(_run_workload, (spec,))


def run(args) -> int:
    rows = []
    failures = []

    def workload(name, workload_id, n, backend, epsilon, seed=42, repeats=1):
        spec = {
            "workload": workload_id,
            "n": n,
            "backend": backend,
            "epsilon": epsilon,
            "seed": seed,
        }
        # repeats > 1: keep the median-by-wall-time result.  The dense
        # reference allocates GBs, so its wall time swings with page
        # cache / zeroing state; the gate budget derives from it, so it
        # gets the noise treatment.
        results = sorted(
            (_in_subprocess(spec) for _ in range(max(1, repeats))),
            key=lambda r: r["seconds"],
        )
        result = results[len(results) // 2]
        rows.append(
            {
                "workload": name,
                "n": n,
                "backend": backend,
                "epsilon": epsilon,
                "seconds": result["seconds"],
                "build_s": result["build_s"],
                "solve_s": result["solve_s"],
                "peak_rss_mb": result["peak_rss_mb"],
                "colors": result["colors"],
                "density": result["density"],
                "flip_risk": result["flip_risk"],
            }
        )
        print(
            f"{name:<26} n={n:<6} {backend:<7} eps={epsilon:<5g} "
            f"{result['seconds']:>8.2f}s (build {result['build_s']:.2f}s "
            f"+ solve {result['solve_s']:.2f}s) "
            f"{result['peak_rss_mb']:>8.1f} MB "
            f"colors={result['colors']:<5} density={result['density']:.4f} "
            f"flip_risk={result['flip_risk']}"
        )
        return result

    run_start = time.perf_counter()

    # -- conformance: lossless sparse must match dense bit-for-bit ----
    conf_dense = workload(
        "conformance/dense", "first_fit", args.conf_n, "dense", 0.0
    )
    conf_sparse = workload(
        "conformance/sparse-eps0", "first_fit", args.conf_n, "sparse", 0.0
    )
    if conf_sparse["schedule_colors"] != conf_dense["schedule_colors"]:
        failures.append(
            f"lossless sparse first-fit diverged from dense at n={args.conf_n}"
        )
    # Certified pruned run: epsilon small enough that no admission
    # lands in the pruned-mass band — must also match exactly.
    conf_certified = workload(
        "conformance/sparse-certified",
        "first_fit",
        args.conf_n,
        "sparse",
        args.certified_epsilon,
    )
    if conf_certified["flip_risk"] == 0:
        if conf_certified["schedule_colors"] != conf_dense["schedule_colors"]:
            failures.append(
                "certified pruned run (0 flip-risk events) diverged from "
                f"dense at n={args.conf_n}"
            )
    else:
        print(
            f"note: epsilon={args.certified_epsilon} was not certified at "
            f"n={args.conf_n} ({conf_certified['flip_risk']} at-risk "
            "admissions); equality not required"
        )

    # -- headline: dense reference vs sparse at scale -----------------
    dense_ref = workload(
        "first_fit", "first_fit", args.dense_n, "dense", 0.0, repeats=3
    )
    workload("first_fit", "first_fit", args.dense_n, "sparse", BENCH_EPSILON)
    sparse_big = workload(
        "first_fit", "first_fit", args.sparse_n, "sparse", BENCH_EPSILON
    )
    sqrt_result = workload(
        "sqrt_coloring", "sqrt", args.sqrt_n, "sparse", BENCH_EPSILON
    )
    # The sqrt gates only engage at full size: CI runs a reduced
    # --sqrt-n, where the seed baseline (a full-size measurement) says
    # nothing and the big workload would dominate the job.
    sqrt_full_size = args.sqrt_n >= 8192
    if sqrt_full_size:
        sqrt_budget = args.sqrt_seed_seconds / args.sqrt_speedup
        print(
            f"gate: sqrt_coloring n={args.sqrt_n}: "
            f"{sqrt_result['seconds']:.2f}s vs budget {sqrt_budget:.2f}s "
            f"(>= {args.sqrt_speedup:g}x over the {args.sqrt_seed_seconds:g}s "
            "compacting-peel seed baseline)"
        )
        if sqrt_result["seconds"] > sqrt_budget:
            failures.append(
                f"sqrt_coloring at n={args.sqrt_n} took "
                f"{sqrt_result['seconds']:.2f}s (> {sqrt_budget:.2f}s = "
                f"{args.sqrt_seed_seconds:g}s seed / "
                f"{args.sqrt_speedup:g}x budget)"
            )
        if args.sqrt_big_n > args.sqrt_n:
            sqrt_big = workload(
                "sqrt_coloring", "sqrt", args.sqrt_big_n, "sparse",
                BENCH_EPSILON,
            )
            print(
                f"gate: sqrt_coloring n={args.sqrt_big_n}: "
                f"RSS {sqrt_big['peak_rss_mb']:.0f} MB vs budget "
                f"{args.rss_budget_mb:g} MB"
            )
            if sqrt_big["peak_rss_mb"] > args.rss_budget_mb:
                failures.append(
                    f"sqrt_coloring at n={args.sqrt_big_n} peaked at "
                    f"{sqrt_big['peak_rss_mb']:.0f} MB RSS "
                    f"(> {args.rss_budget_mb:g} MB budget)"
                )

    scale = (args.sparse_n / args.dense_n) ** 2
    budget_seconds = args.target_fraction * dense_ref["seconds"] * scale
    dense_extrapolated_mb = dense_ref["peak_rss_mb"] * scale
    print(
        f"\ngate: sparse first_fit n={args.sparse_n}: "
        f"{sparse_big['seconds']:.2f}s vs budget {budget_seconds:.2f}s "
        f"({args.target_fraction:.0%} of dense n={args.dense_n} "
        f"x{scale:.0f} quadratic extrapolation); "
        f"RSS {sparse_big['peak_rss_mb']:.0f} MB vs budget "
        f"{args.rss_budget_mb} MB (dense extrapolates to "
        f"~{dense_extrapolated_mb:.0f} MB)"
    )
    if sparse_big["seconds"] > budget_seconds:
        failures.append(
            f"sparse first-fit at n={args.sparse_n} took "
            f"{sparse_big['seconds']:.2f}s (> {budget_seconds:.2f}s budget)"
        )
    if sparse_big["peak_rss_mb"] > args.rss_budget_mb:
        failures.append(
            f"sparse first-fit at n={args.sparse_n} peaked at "
            f"{sparse_big['peak_rss_mb']:.0f} MB RSS "
            f"(> {args.rss_budget_mb} MB budget)"
        )

    if args.artifacts is not None:
        from repro.runner.artifacts import (
            BenchReport,
            ShardResult,
            write_artifact,
        )
        from repro.util.tables import Table

        table = Table(
            title="Gain backends: dense vs epsilon-pruned sparse",
            columns=[
                "workload",
                "n",
                "backend",
                "epsilon",
                "seconds",
                "build_s",
                "solve_s",
                "peak_rss_mb",
                "colors",
                "density",
                "flip_risk",
            ],
        )
        table.add_note(
            f"gate: sparse first_fit at n={args.sparse_n} within "
            f"{args.target_fraction:.0%} of the dense n={args.dense_n} "
            f"quadratic extrapolation and {args.rss_budget_mb} MB RSS; "
            "conformance workloads bit-identical to dense"
        )
        if sqrt_full_size:
            table.add_note(
                f"gate: sqrt_coloring at n={args.sqrt_n} at least "
                f"{args.sqrt_speedup:g}x faster than the "
                f"{args.sqrt_seed_seconds:g}s compacting-peel seed "
                f"baseline (incremental peel kernel); the "
                f"n={args.sqrt_big_n} run within {args.rss_budget_mb:g} "
                "MB RSS"
            )
        table.add_note(
            "constant-density random geometric instances (directed, "
            "sqrt powers); each workload measured in its own spawned "
            "subprocess (ru_maxrss)"
        )
        shards = []
        for row in rows:
            table.add_row(**row)
            shards.append(
                ShardResult(
                    key=f"{row['workload']}:n={row['n']}:{row['backend']}",
                    seed=42,
                    rows=1,
                    seconds=row["seconds"],
                )
            )
        report = BenchReport(
            experiment="backends",
            title="Sparse gain backend at n >> 10^3",
            mode="smoke" if args.sparse_n < 16384 else "full",
            table=table,
            shards=shards,
            run_wall_seconds=time.perf_counter() - run_start,
            metric="seconds",
            backend="sparse",
        )
        write_artifact(args.artifacts, report)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: all backend gates passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dense-n",
        type=int,
        default=4096,
        help="dense reference size (default 4096)",
    )
    parser.add_argument(
        "--sparse-n",
        type=int,
        default=16384,
        help="gated sparse first-fit size (default 16384)",
    )
    parser.add_argument(
        "--sqrt-n",
        type=int,
        default=8192,
        help="sqrt_coloring size on the sparse backend (default 8192; "
        "the speed gate and the --sqrt-big-n workload only engage when "
        "this is >= 8192, so CI's reduced size skips them)",
    )
    parser.add_argument(
        "--sqrt-big-n",
        type=int,
        default=32768,
        help="scaled sqrt_coloring size, RSS-gated (default 32768; "
        "skipped when --sqrt-n is reduced or this does not exceed it)",
    )
    parser.add_argument(
        "--sqrt-seed-seconds",
        type=float,
        default=343.0,
        help="committed wall-time of the compacting-peel sqrt_coloring "
        "run at n=8192 (the seed baseline the speed gate divides)",
    )
    parser.add_argument(
        "--sqrt-speedup",
        type=float,
        default=10.0,
        help="required speedup of sqrt_coloring at --sqrt-n over the "
        "seed baseline (default 10x)",
    )
    parser.add_argument(
        "--conf-n",
        type=int,
        default=2048,
        help="bit-exactness check size (default 2048)",
    )
    parser.add_argument(
        "--certified-epsilon",
        type=float,
        default=1e-6,
        help="pruning budget for the certified-conformance workload",
    )
    parser.add_argument(
        "--target-fraction",
        type=float,
        default=0.25,
        help="allowed fraction of the quadratically extrapolated dense "
        "wall time (default 0.25)",
    )
    parser.add_argument(
        "--rss-budget-mb",
        type=float,
        default=2048.0,
        help="peak-RSS budget for the gated sparse run (default 2048)",
    )
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="write BENCH_backends.json under DIR",
    )
    args = parser.parse_args(argv)
    if args.sparse_n <= args.dense_n:
        parser.error("--sparse-n must exceed --dense-n")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
