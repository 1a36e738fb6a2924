"""Benchmark: online admission vs. rebuild-per-arrival, plus serve throughput.

The PR-7 serving layer exists for one reason: before it, every arrival
tore down the pinned ``(instance, powers)`` context and rebuilt the
O(n^2) gain matrices from scratch.  With in-place backend edits an
arrival writes its slot's gain row and column (a reused slot, or one
appended past ``n``) plus a single O(n) vectorized admission against
the live kernel.  This benchmark
measures (and gates) that unlock at steady state:

* **incremental**: a live session held at ``--n`` active requests
  (default 4096); each step admits one arrival through
  ``Session.add_requests`` and departs the oldest request, so the
  active count is constant — and so is storage: every arrival after
  the first takes over the slot the previous departure freed, so the
  session stores ``n + 1`` rows throughout.  Reports arrivals/sec and
  p50/p99 per-admission latency.
* **rebuild-per-arrival**: the pre-PR behavior — every arrival builds
  a cold context for the grown instance and replays all admissions.
  Amortized over ``--baseline-arrivals`` arrivals (few: each one costs
  a full O(n^2) rebuild).
* **serve**: the same steady-state stream pushed through the asyncio
  ``repro.serve`` front-end (bounded queue, worker admission), so the
  queueing layer's overhead is visible next to the raw session numbers.

Gate (exit non-zero on violation): mean incremental admission must be
at least ``--speedup`` (default 10x) faster than mean
rebuild-per-arrival admission.  The rebuild path is O(n^2) against the
incremental path's O(n), so the gate engages at every size CI runs.

**Soak mode** (``--soak N``) replaces the workloads above with one long
run: ``N`` arrive/depart pairs at ``--n`` active requests through the
serve front-end (with ``--fault-every K``, one recovered mid-admission
fault every ``K`` arrivals), arrivals cycling through a pool of links
drawn like the instance's own.  It gates what sustained churn must not
do: the p99 of the last decile of arrivals must stay within 1.5x of the
first decile's, the peak resident memory of the last decile within 5%
of the first decile's, and storage at most ``n + 1`` rows.
``--backend sparse`` runs it on the lossless (``epsilon = 0``) sparse
backend, whose slot edits wait in an overlay that is written back every
``nnz / 2n`` replaced slots.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --n 512 --artifacts out/
    PYTHONPATH=src python benchmarks/bench_serve.py --n 512 --soak 20000
    PYTHONPATH=src python benchmarks/bench_serve.py --n 512 --soak 20000 \
        --fault-every 32
    PYTHONPATH=src python benchmarks/bench_serve.py --n 512 --soak 20000 \
        --backend sparse

Reference results (one run, defaults, 2-vCPU x86_64 VM, see
``benchmarks/artifacts/BENCH_serve.json``): at n=4096 steady state the
incremental path admits an arrival in 0.90 ms p50 (3.5 ms p99) and the
serve front-end in 1.03 ms p50, 334 and 318 arrivals/s; a
rebuild-per-arrival step costs 0.91 s p50, 316x over the 10x gate.
The means (2.9 and 3.0 ms) are set by the first arrival, which finds
no free slot and grows the gain buffers by a quarter, to 5120 rows
(about 0.5 s, the mean's excess over 256 arrivals).
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import os
import resource
import sys
import time

import numpy as np


def _make_instance(n: int, seed: int):
    """Constant-density random geometric instance (directed), same
    shape as bench_backends."""
    from repro.instances.random_instances import random_uniform_instance

    side = 2.0 * float(np.sqrt(n))
    return random_uniform_instance(
        n,
        side=side,
        max_link_fraction=min(1.0, 4.0 / side),
        direction="directed",
        rng=seed,
    )


def _pair_stream(instance, seed):
    """Random arrival pairs over the instance's metric nodes."""
    rng = np.random.default_rng(seed)
    metric_size = instance.metric.n
    while True:
        s = int(rng.integers(0, metric_size))
        r = int(rng.integers(0, metric_size))
        if s != r:
            yield (s, r)


def _churn_stream(n: int, seed: int):
    """``(instance, pairs)`` for sustained churn: a pool of ``2n`` links
    drawn like the instance's own, the first ``n`` active and the rest,
    cycled, the arrival stream.  With oldest-first departures a link
    re-arrives only after it has departed, and arrivals keep the
    instance's link lengths (and hence its color count) instead of the
    long random pairs of :func:`_pair_stream`, which would drive the
    class count towards ``n/2``."""
    pool = _make_instance(2 * n, seed)
    order = np.random.default_rng(seed + 1).permutation(2 * n)

    def pairs():
        k = n
        while True:
            link = int(order[k % (2 * n)])
            yield int(pool.senders[link]), int(pool.receivers[link])
            k += 1

    return pool.subset(order[:n]), pairs()


def _percentiles(latencies):
    lat = np.asarray(latencies, dtype=np.float64)
    return {
        "mean_ms": float(lat.mean() * 1e3),
        "p50_ms": float(np.percentile(lat, 50) * 1e3),
        "p99_ms": float(np.percentile(lat, 99) * 1e3),
    }


def measure_incremental(n: int, arrivals: int, seed: int) -> dict:
    """Steady-state arrival/departure stream on one live session."""
    from repro.api import Problem

    instance = _make_instance(n, seed)
    session = Problem(instance, backend="dense").session()
    session.ensure_live()
    pairs = _pair_stream(instance, seed + 1)
    fifo = list(session.handles)
    latencies = []
    start = time.perf_counter()
    for _ in range(arrivals):
        pair = next(pairs)
        t0 = time.perf_counter()
        handle = session.add_requests([pair])[0]
        latencies.append(time.perf_counter() - t0)
        # Depart the oldest request: n stays at steady state.
        session.remove_requests([fifo.pop(0)])
        fifo.append(handle)
    elapsed = time.perf_counter() - start
    session.live_result().validate()
    return {
        "workload": "incremental",
        "n": n,
        "arrivals": arrivals,
        "arrivals_per_sec": arrivals / elapsed,
        **_percentiles(latencies),
    }


def measure_rebuild(n: int, arrivals: int, seed: int) -> dict:
    """The pre-growth behavior: cold context + full admission replay
    for every single arrival."""
    from repro.api import Problem
    from repro.core.context import clear_context_cache
    from repro.core.instance import Instance

    instance = _make_instance(n, seed)
    pairs = _pair_stream(instance, seed + 1)
    latencies = []
    start = time.perf_counter()
    for _ in range(arrivals):
        s, r = next(pairs)
        t0 = time.perf_counter()
        instance = Instance(
            instance.metric,
            np.concatenate([instance.senders, [s]]),
            np.concatenate([instance.receivers, [r]]),
            direction=instance.direction,
            alpha=instance.alpha,
        )
        clear_context_cache()
        Problem(instance, backend="dense").session().ensure_live()
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    return {
        "workload": "rebuild-per-arrival",
        "n": n,
        "arrivals": arrivals,
        "arrivals_per_sec": arrivals / elapsed,
        **_percentiles(latencies),
    }


def measure_serve(n: int, arrivals: int, seed: int) -> dict:
    """The same steady-state stream through the asyncio front-end."""
    from repro.api import Problem
    from repro.serve import ScheduleServer, ServeConfig

    instance = _make_instance(n, seed)
    pairs = _pair_stream(instance, seed + 1)

    async def main():
        async with ScheduleServer() as server:
            session = server.add_session(
                "bench", Problem(instance, backend="dense"),
                ServeConfig(queue_capacity=128),
            )
            session.ensure_live()
            fifo = list(session.handles)
            start = time.perf_counter()
            for _ in range(arrivals):
                decision = await server.submit("bench", next(pairs))
                server.remove("bench", fifo.pop(0))
                fifo.append(decision.handle)
            elapsed = time.perf_counter() - start
            stats = server.stats("bench")
        return {
            "workload": "serve",
            "n": n,
            "arrivals": arrivals,
            "arrivals_per_sec": arrivals / elapsed,
            "mean_ms": stats["mean_latency_s"] * 1e3,
            "p50_ms": stats["p50_latency_s"] * 1e3,
            "p99_ms": stats["p99_latency_s"] * 1e3,
        }

    return asyncio.run(main())


def _fault_plan(arrivals: int, fault_every: int):
    """A plan faulting every *fault_every*-th arrival mid-admission
    (``add_requests:grown``), for a supervisor that retries once."""
    from repro.resilience.faults import FaultPlan, FaultSpec

    # Each add_requests fires one "grown" occurrence, and each faulted
    # admission consumes a second one for its retry — replay the
    # arithmetic to fault exactly every fault_every-th arrival.
    fault_at = []
    occurrence = 0
    for index in range(arrivals):
        if (index + 1) % fault_every == 0:
            fault_at.append(occurrence)
            occurrence += 2  # the fault + the successful retry
        else:
            occurrence += 1
    return FaultPlan(
        specs=(
            FaultSpec(
                site="session",
                phase="add_requests:grown",
                at=tuple(fault_at),
            ),
        )
    )


def measure_serve_faulty(
    n: int, arrivals: int, seed: int, fault_every: int
) -> dict:
    """The serve stream with a deterministic fault injected every
    *fault_every*-th admission (mid-mutation, ``add_requests:grown``),
    recovered by the supervisor and retried once.

    Measures what self-healing costs at steady state: each recovery is
    a compacting session rebuild (the next admission replays against a
    cold context), amortized over the fault-free admissions between
    faults.  The returned mean therefore bounds the *degraded* serving
    rate, which the gate still holds against the rebuild baseline.
    """
    from repro.api import Problem
    from repro.serve import ScheduleServer, ServeConfig

    plan = _fault_plan(arrivals, fault_every)
    instance = _make_instance(n, seed)
    pairs = _pair_stream(instance, seed + 1)

    async def main():
        async with ScheduleServer() as server:
            session = server.add_session(
                "bench-faulty", Problem(instance, backend="dense"),
                ServeConfig(
                    queue_capacity=128, fault_plan=plan, admit_retries=1
                ),
            )
            session.ensure_live()
            fifo = list(session.handles)
            start = time.perf_counter()
            for _ in range(arrivals):
                decision = await server.submit("bench-faulty", next(pairs))
                assert decision.accepted, decision
                server.remove("bench-faulty", fifo.pop(0))
                fifo.append(decision.handle)
            elapsed = time.perf_counter() - start
            stats = server.stats("bench-faulty")
            session.live_result().validate()
        return {
            "workload": f"serve-faulty(1/{fault_every})",
            "n": n,
            "arrivals": arrivals,
            "arrivals_per_sec": arrivals / elapsed,
            "mean_ms": stats["mean_latency_s"] * 1e3,
            "p50_ms": stats["p50_latency_s"] * 1e3,
            "p99_ms": stats["p99_latency_s"] * 1e3,
            "recoveries": stats["recoveries"],
        }

    return asyncio.run(main())


def _rss_mb() -> float:
    """Current resident set size (falls back to the peak where
    ``/proc`` is unavailable)."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak / (2**20 if sys.platform == "darwin" else 2**10)


def measure_soak(
    n: int, pairs: int, seed: int, fault_every: int = 0,
    backend: str = "dense",
) -> dict:
    """*pairs* arrive/depart pairs at *n* active requests through the
    serve front-end on the given gain *backend*, optionally with a
    recovered fault every *fault_every* arrivals.  Returns per-decile
    p99 latency and peak RSS, the storage size at the end and the
    recovery count."""
    from repro.api import Problem
    from repro.serve import ScheduleServer, ServeConfig

    instance, stream = _churn_stream(n, seed)
    plan = _fault_plan(pairs, fault_every) if fault_every > 0 else None
    decile = max(1, pairs // 10)
    sample_every = max(1, decile // 64)

    async def main():
        async with ScheduleServer() as server:
            session = server.add_session(
                "soak",
                Problem(instance, backend=backend, sparse_epsilon=0.0),
                ServeConfig(
                    queue_capacity=128,
                    fault_plan=plan,
                    admit_retries=1 if plan is not None else 0,
                ),
            )
            session.ensure_live()
            fifo = collections.deque(session.handles)
            # Preallocated, so the harness itself adds nothing to the
            # memory the gate watches.
            latencies = np.empty(pairs)
            rss = []
            start = time.perf_counter()
            for index in range(pairs):
                t0 = time.perf_counter()
                decision = await server.submit("soak", next(stream))
                latencies[index] = time.perf_counter() - t0
                assert decision.accepted, decision
                server.remove("soak", fifo.popleft())
                fifo.append(decision.handle)
                if index % sample_every == 0 or index == pairs - 1:
                    rss.append((index, _rss_mb()))
            elapsed = time.perf_counter() - start
            damage = session.check_consistency()
            assert damage is None, damage
            session.live_result().validate()
            return (
                latencies, rss, elapsed, session.instance.n,
                server.stats("soak")["recoveries"],
            )

    latencies, rss, elapsed, storage, recoveries = asyncio.run(main())
    first, last = latencies[:decile], latencies[-decile:]
    rss_first = max(mb for index, mb in rss if index < decile)
    rss_last = max(mb for index, mb in rss if index >= pairs - decile)
    return {
        "workload": "soak" + (f"-faulty(1/{fault_every})" if fault_every else ""),
        "backend": backend,
        "n": n,
        "arrivals": pairs,
        "arrivals_per_sec": pairs / elapsed,
        **_percentiles(latencies),
        "p99_first_decile_ms": float(np.percentile(first, 99) * 1e3),
        "p99_last_decile_ms": float(np.percentile(last, 99) * 1e3),
        "rss_first_decile_mb": rss_first,
        "rss_last_decile_mb": rss_last,
        "storage_rows": storage,
        "recoveries": recoveries,
    }


def run_soak(args) -> int:
    """The ``--soak`` mode: one long churn run and its gates."""
    run_start = time.perf_counter()
    result = measure_soak(
        args.n, args.soak, args.seed, args.fault_every, args.backend
    )
    print(
        f"{result['workload']:<22} {result['backend']} n={result['n']:<6} "
        f"arrivals={result['arrivals']:<7} "
        f"{result['arrivals_per_sec']:>10.1f}/s "
        f"p50={result['p50_ms']:>8.3f} ms p99={result['p99_ms']:>8.3f} ms"
    )
    print(
        f"p99 first/last decile: {result['p99_first_decile_ms']:.3f} / "
        f"{result['p99_last_decile_ms']:.3f} ms; peak RSS first/last "
        f"decile: {result['rss_first_decile_mb']:.1f} / "
        f"{result['rss_last_decile_mb']:.1f} MB; storage "
        f"{result['storage_rows']} rows; recoveries {result['recoveries']}"
    )
    failures = []
    if result["p99_last_decile_ms"] > 1.5 * result["p99_first_decile_ms"]:
        failures.append(
            "p99 is not flat: the last decile's "
            f"{result['p99_last_decile_ms']:.3f} ms exceeds 1.5x the first "
            f"decile's {result['p99_first_decile_ms']:.3f} ms"
        )
    if result["rss_last_decile_mb"] > 1.05 * result["rss_first_decile_mb"]:
        failures.append(
            "resident memory grew: the last decile's peak "
            f"{result['rss_last_decile_mb']:.1f} MB exceeds the first "
            f"decile's {result['rss_first_decile_mb']:.1f} MB by over 5%"
        )
    if result["storage_rows"] > args.n + 1:
        failures.append(
            f"storage holds {result['storage_rows']} rows for {args.n} "
            "active requests (departed slots are not being reused)"
        )
    if args.fault_every > 0:
        expected = args.soak // args.fault_every
        if result["recoveries"] != expected:
            failures.append(
                f"expected {expected} recoveries, the server counted "
                f"{result['recoveries']}"
            )

    if args.artifacts is not None:
        from repro.runner.artifacts import (
            BenchReport,
            ShardResult,
            write_artifact,
        )
        from repro.util.tables import Table

        table = Table(
            title="Online serving under sustained churn (soak)",
            columns=list(result),
        )
        table.add_note(
            "gates: last-decile p99 <= 1.5x first-decile p99; last-decile "
            "peak RSS <= first-decile peak + 5%; storage <= n + 1 rows"
        )
        table.add_row(**result)
        report = BenchReport(
            experiment="serve_soak",
            title="Online serving layer under sustained churn",
            mode="full" if args.n >= 4096 and args.soak >= 100_000 else "smoke",
            table=table,
            shards=[
                ShardResult(
                    key=f"{result['workload']}:n={args.n}",
                    seed=args.seed,
                    rows=1,
                    seconds=args.soak / result["arrivals_per_sec"],
                )
            ],
            run_wall_seconds=time.perf_counter() - run_start,
            metric="arrivals_per_sec",
            backend=args.backend,
            algorithms=("first_fit",),
        )
        print(f"wrote {write_artifact(args.artifacts, report)}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: all soak gates passed")
    return 0


def run(args) -> int:
    if args.soak > 0:
        return run_soak(args)
    rows = []
    failures = []
    run_start = time.perf_counter()

    def show(result):
        rows.append(result)
        print(
            f"{result['workload']:<22} n={result['n']:<6} "
            f"arrivals={result['arrivals']:<5} "
            f"{result['arrivals_per_sec']:>10.1f}/s "
            f"p50={result['p50_ms']:>8.3f} ms p99={result['p99_ms']:>8.3f} ms"
        )
        return result

    incremental = show(
        measure_incremental(args.n, args.arrivals, args.seed)
    )
    rebuild = show(
        measure_rebuild(args.n, args.baseline_arrivals, args.seed)
    )
    serve = show(measure_serve(args.n, args.arrivals, args.seed))
    faulty = None
    if args.fault_every > 0:
        faulty = show(
            measure_serve_faulty(
                args.n, args.arrivals, args.seed, args.fault_every
            )
        )

    speedup = rebuild["mean_ms"] / incremental["mean_ms"]
    print(
        f"\ngate: incremental admission {incremental['mean_ms']:.3f} ms "
        f"vs rebuild-per-arrival {rebuild['mean_ms']:.3f} ms "
        f"= {speedup:.1f}x (required >= {args.speedup:g}x)"
    )
    if speedup < args.speedup:
        failures.append(
            f"incremental admission is only {speedup:.1f}x faster than "
            f"rebuild-per-arrival (< {args.speedup:g}x) at n={args.n}"
        )
    # The queueing layer must not erase the win.
    if serve["arrivals_per_sec"] < 0.5 * incremental["arrivals_per_sec"]:
        failures.append(
            "serve throughput fell below half the raw incremental rate "
            f"({serve['arrivals_per_sec']:.1f}/s vs "
            f"{incremental['arrivals_per_sec']:.1f}/s)"
        )
    if faulty is not None:
        # Self-healing must not erase the win either: even with a
        # recovery (compacting rebuild) every fault_every-th arrival,
        # mean admission keeps the same gate over rebuild-per-arrival.
        faulty_speedup = rebuild["mean_ms"] / faulty["mean_ms"]
        expected_recoveries = args.arrivals // args.fault_every
        print(
            f"gate: degraded (1 fault / {args.fault_every} arrivals) "
            f"admission {faulty['mean_ms']:.3f} ms vs rebuild-per-arrival "
            f"{rebuild['mean_ms']:.3f} ms = {faulty_speedup:.1f}x "
            f"(required >= {args.speedup:g}x; "
            f"recoveries={faulty['recoveries']})"
        )
        if faulty_speedup < args.speedup:
            failures.append(
                f"recovery overhead drops degraded admission to only "
                f"{faulty_speedup:.1f}x over rebuild-per-arrival "
                f"(< {args.speedup:g}x) at n={args.n}"
            )
        if faulty["recoveries"] != expected_recoveries:
            failures.append(
                f"expected {expected_recoveries} recoveries, the server "
                f"counted {faulty['recoveries']}"
            )

    if args.artifacts is not None:
        from repro.runner.artifacts import (
            BenchReport,
            ShardResult,
            write_artifact,
        )
        from repro.util.tables import Table

        table = Table(
            title="Online serving: incremental admission at steady state",
            columns=[
                "workload",
                "n",
                "arrivals",
                "arrivals_per_sec",
                "mean_ms",
                "p50_ms",
                "p99_ms",
                "recoveries",
            ],
        )
        table.add_note(
            f"gate: mean incremental admission >= {args.speedup:g}x faster "
            f"than rebuild-per-arrival at n={args.n} steady state "
            f"(measured {speedup:.1f}x)"
        )
        table.add_note(
            "steady state: each step admits one arrival and departs the "
            "oldest active request, so n is constant; dense backend, "
            "constant-density directed instances, sqrt powers"
        )
        shards = []
        for row in rows:
            table.add_row(**{"recoveries": 0, **row})
            shards.append(
                ShardResult(
                    key=f"{row['workload']}:n={row['n']}",
                    seed=args.seed,
                    rows=1,
                    seconds=row["arrivals"] / row["arrivals_per_sec"],
                )
            )
        report = BenchReport(
            experiment="serve",
            title="Online serving layer at steady state",
            mode="full" if args.n >= 4096 else "smoke",
            table=table,
            shards=shards,
            run_wall_seconds=time.perf_counter() - run_start,
            metric="arrivals_per_sec",
            backend="dense",
            algorithms=("first_fit",),
        )
        path = write_artifact(args.artifacts, report)
        print(f"wrote {path}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: all serve gates passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--n",
        type=int,
        default=4096,
        help="steady-state active request count (default 4096)",
    )
    parser.add_argument(
        "--arrivals",
        type=int,
        default=256,
        help="measured arrivals for the incremental/serve workloads "
        "(default 256)",
    )
    parser.add_argument(
        "--baseline-arrivals",
        type=int,
        default=4,
        help="arrivals for the rebuild-per-arrival baseline (default 4; "
        "each one costs a full O(n^2) context rebuild)",
    )
    parser.add_argument(
        "--speedup",
        type=float,
        default=10.0,
        help="required incremental-over-rebuild admission speedup "
        "(default 10x)",
    )
    parser.add_argument(
        "--fault-every",
        type=int,
        default=0,
        help="inject one recovered mid-admission fault every N arrivals "
        "in an extra serve workload and gate its degraded mean too "
        "(0 = off)",
    )
    parser.add_argument(
        "--soak",
        type=int,
        default=0,
        help="run only the soak: this many arrive/depart pairs at --n "
        "active requests (faulty with --fault-every), gating a flat p99 "
        "and bounded memory (0 = off)",
    )
    parser.add_argument(
        "--backend",
        choices=("dense", "sparse"),
        default="dense",
        help="gain backend of the soak session (soak only; default dense)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--artifacts",
        default=None,
        help="directory to write BENCH_serve.json into",
    )
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
