"""Micro-benchmark: amortized sparse-backend growth under an arrival stream.

``SparseBackend.replace_requests`` is the one way a request enters a
built sparse backend.  A reused slot and an appended slot (an index
past ``n``: the CSR is first padded with empty rows and columns) are
written the same way: their gain rows and columns go into one dense
overlay that row/column queries read directly, and the overlay is
written back into the CSR every ``nnz / 2n`` written slots (or on
``flush_growth()``).  Consolidating on every arrival instead costs
O(nnz) per admission, so a stream of k arrivals would cost O(k · nnz).

This benchmark replays the same ``--arrivals`` (default 256)
one-request-at-a-time append stream twice on a lossless sparse backend:

* **deferred** — the production path: plain ``replace_requests`` calls
  with the appended slot, the overlay written back lazily;
* **eager** — ``flush_growth()`` forced after every arrival, which
  reproduces the consolidate-per-arrival cost profile.

It then runs a **mixed** stream of the same length on the same links:
appends interleaved with departures whose slots the next arrival
reuses, all through the same overlay.

Gates (exit non-zero on violation):

* the deferred stream must finish within ``--max-fraction`` (default
  0.5) of the eager stream's wall time;
* after a final ``flush_growth()`` the deferred backend's matrices
  must be **bit-identical** to a cold rebuild on the grown instance
  (the lossless-growth contract of ``tests/core/test_gain_append.py``,
  re-checked here so the fast path cannot drift from the semantics);
* after a final ``flush_growth()`` the mixed stream's CSR storage
  (data, indices and row pointers of every stored matrix) must be
  bit-identical to a cold rebuild on its final instance.

The second-half/first-half wall-time ratio of the deferred stream is
reported (a consolidate-per-arrival regression drives it up) but not
gated — at micro-bench scale it is too noisy to fail a build on.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_sparse_growth.py
    PYTHONPATH=src python benchmarks/bench_sparse_growth.py \
        --base-n 512 --arrivals 128 --artifacts out/
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


def _prefix_instances(base_n: int, arrivals: int, seed: int):
    """The full grown instance plus every prefix the stream visits."""
    from repro.core.instance import Instance
    from repro.instances.random_instances import random_uniform_instance

    full = random_uniform_instance(
        base_n + arrivals, rng=seed, direction="directed"
    )

    def prefix(k: int) -> Instance:
        return Instance(
            full.metric,
            full.senders[:k],
            full.receivers[:k],
            direction=full.direction,
            alpha=full.alpha,
        )

    return full, prefix


def _replay_stream(prefix, powers_of, base_n, arrivals, eager: bool):
    """Build at ``base_n`` then append one request at a time; returns
    (backend, total_seconds, first_half_seconds, second_half_seconds)."""
    from repro.core.gains import SparseBackend

    backend = SparseBackend.build(
        prefix(base_n), powers_of(base_n), epsilon=0.0
    )
    half = arrivals // 2
    spans = [0.0, 0.0]
    start = time.perf_counter()
    for step in range(arrivals):
        k = base_n + step + 1
        tick = time.perf_counter()
        backend.replace_requests([k - 1], prefix(k), powers_of(k))
        if eager:
            backend.flush_growth()
        spans[step >= half] += time.perf_counter() - tick
    total = time.perf_counter() - start
    return backend, total, spans[0], spans[1]


def _mixed_stream(full, prefix, base_n, arrivals, seed):
    """Replay the same links as a churning stream: even steps append
    the next link, odd steps depart a random request and put the next
    link into its slot.  Returns (backend, instance, powers, seconds)."""
    from repro.core.gains import SparseBackend
    from repro.power.oblivious import SquareRootPower

    rng = np.random.default_rng(seed)
    sqrt_power = SquareRootPower()
    instance = prefix(base_n)
    powers = sqrt_power(instance)
    backend = SparseBackend.build(instance, powers, epsilon=0.0)
    start = time.perf_counter()
    for step in range(arrivals):
        pair = (int(full.senders[base_n + step]), int(full.receivers[base_n + step]))
        if step % 2 == 0:
            slots = [instance.n]
            instance = instance.appended([pair])
        else:
            slots = [int(rng.integers(instance.n))]
            instance = instance.replaced(slots, [pair])
        powers = sqrt_power(instance)
        backend.replace_requests(slots, instance, powers)
    return backend, instance, powers, time.perf_counter() - start


def _csr_arrays(backend):
    """The stored CSR arrays of a written-back sparse backend."""
    backend.flush_growth()
    out = []
    for csr in (backend._csr_u, backend._csr_v, backend._csr_ut, backend._csr_vt):
        out += [csr.data, csr.indices, csr.indptr]
    return out


def run(args) -> int:
    from repro.core.gains import SparseBackend
    from repro.power.oblivious import SquareRootPower

    failures = []
    run_start = time.perf_counter()
    full, prefix = _prefix_instances(args.base_n, args.arrivals, args.seed)
    sqrt_power = SquareRootPower()
    full_powers = np.asarray(sqrt_power(full), dtype=float)

    def powers_of(k: int) -> np.ndarray:
        # The sqrt assignment is per-request, hence prefix-stable.
        return full_powers[:k]

    deferred, deferred_s, first_half, second_half = _replay_stream(
        prefix, powers_of, args.base_n, args.arrivals, eager=False
    )
    eager_backend, eager_s, _, _ = _replay_stream(
        prefix, powers_of, args.base_n, args.arrivals, eager=True
    )
    half_ratio = second_half / first_half if first_half > 0 else float("nan")
    print(
        f"deferred stream: {deferred_s:.3f}s "
        f"(halves {first_half:.3f}s / {second_half:.3f}s, "
        f"ratio {half_ratio:.2f})"
    )
    print(f"eager stream:    {eager_s:.3f}s (flush_growth per arrival)")

    budget = args.max_fraction * eager_s
    print(
        f"gate: deferred within {args.max_fraction:.0%} of eager: "
        f"{deferred_s:.3f}s vs {budget:.3f}s"
    )
    if deferred_s > budget:
        failures.append(
            f"deferred growth stream took {deferred_s:.3f}s "
            f"(> {budget:.3f}s = {args.max_fraction:.0%} of the "
            f"{eager_s:.3f}s consolidate-per-arrival replay)"
        )

    # Bit-identity: write everything back and compare against a cold
    # rebuild.
    deferred.flush_growth()
    n_final = args.base_n + args.arrivals
    cold = SparseBackend.build(
        prefix(n_final), powers_of(n_final), epsilon=0.0
    )
    if not np.array_equal(deferred.dense_u(), cold.dense_u()) or not (
        np.array_equal(deferred.dense_v(), cold.dense_v())
    ):
        failures.append(
            "deferred-growth backend diverged from a cold rebuild at "
            f"n={n_final} (lossless growth must be bit-identical)"
        )

    mixed, mixed_instance, mixed_powers, mixed_s = _mixed_stream(
        full, prefix, args.base_n, args.arrivals, args.seed
    )
    print(
        f"mixed stream:    {mixed_s:.3f}s (appends interleaved with "
        f"reused slots, n={mixed_instance.n})"
    )
    mixed_cold = SparseBackend.build(mixed_instance, mixed_powers, epsilon=0.0)
    if not all(
        np.array_equal(got, want)
        for got, want in zip(_csr_arrays(mixed), _csr_arrays(mixed_cold))
    ):
        failures.append(
            "mixed append/reuse stream diverged from a cold rebuild at "
            f"n={mixed_instance.n} (lossless edits must be bit-identical)"
        )

    if args.artifacts is not None:
        from repro.runner.artifacts import (
            BenchReport,
            ShardResult,
            write_artifact,
        )
        from repro.util.tables import Table

        table = Table(
            title="Sparse backend growth: deferred vs per-arrival write-backs",
            columns=[
                "mode",
                "base_n",
                "arrivals",
                "seconds",
                "first_half_seconds",
                "second_half_seconds",
            ],
        )
        table.add_note(
            f"gate: deferred stream within {args.max_fraction:.0%} of the "
            "flush-per-arrival replay; final matrices of the append and "
            "the mixed append/reuse streams bit-identical to a cold "
            "rebuild (epsilon=0)"
        )
        table.add_row(
            mode="deferred",
            base_n=args.base_n,
            arrivals=args.arrivals,
            seconds=deferred_s,
            first_half_seconds=first_half,
            second_half_seconds=second_half,
        )
        table.add_row(
            mode="eager",
            base_n=args.base_n,
            arrivals=args.arrivals,
            seconds=eager_s,
            first_half_seconds=float("nan"),
            second_half_seconds=float("nan"),
        )
        table.add_row(
            mode="mixed",
            base_n=args.base_n,
            arrivals=args.arrivals,
            seconds=mixed_s,
            first_half_seconds=float("nan"),
            second_half_seconds=float("nan"),
        )
        report = BenchReport(
            experiment="sparse_growth",
            title="Amortized sparse growth over an arrival stream",
            mode="smoke" if args.arrivals < 256 else "full",
            table=table,
            shards=[
                ShardResult(
                    key=f"deferred:{args.arrivals}",
                    seed=args.seed,
                    rows=1,
                    seconds=deferred_s,
                ),
                ShardResult(
                    key=f"eager:{args.arrivals}",
                    seed=args.seed,
                    rows=1,
                    seconds=eager_s,
                ),
                ShardResult(
                    key=f"mixed:{args.arrivals}",
                    seed=args.seed,
                    rows=1,
                    seconds=mixed_s,
                ),
            ],
            run_wall_seconds=time.perf_counter() - run_start,
            metric="seconds",
            backend="sparse",
        )
        write_artifact(args.artifacts, report)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: sparse growth gates passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base-n",
        type=int,
        default=1024,
        help="requests in the cold-built base backend (default 1024)",
    )
    parser.add_argument(
        "--arrivals",
        type=int,
        default=256,
        help="length of the one-request-at-a-time arrival stream "
        "(default 256)",
    )
    parser.add_argument(
        "--max-fraction",
        type=float,
        default=0.5,
        help="allowed fraction of the flush-per-arrival replay's wall "
        "time (default 0.5)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="write BENCH_sparse_growth.json under DIR",
    )
    args = parser.parse_args(argv)
    if args.arrivals < 2:
        parser.error("--arrivals must be >= 2")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
