"""One benchmark for oblivious-power SINR scheduling.

Runs one workload of the library in ``src/`` for a measuring window and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload dense_batch --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --list

``--trace 0`` reports the end-to-end metrics, measured with tracing
off.  ``--trace 1`` runs one untraced round of instance 0 as the
baseline, then traced passes that wrap each layer's public entry points
in spans, and reports the per-layer metrics.  Every output is checked by the
exact-SINR oracle in ``perfbench/oracle.py``.  The workloads and the
metric catalogue are described in ``perfbench/README.md``.

The library is imported from ``src/`` next to this directory; the run
fails (non-zero exit, no result line) when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at ``nproc`` (before numpy loads); the
    spawned shard workers inherit the environment."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(ram / 2**30, 2),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def stop_children() -> None:
    """Stop and reap every process this run started: any shard worker
    still alive (an error path skipped its executor's close), then
    multiprocessing's resource tracker, which ``spawn`` starts with the
    first worker and which would otherwise outlive the run until it
    notices its pipe closed."""
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Warm up, then run one full pass (one round per instance) and keep
    cycling through the instances, round by round, until the next round
    would overrun the window, so the whole window is measured.  Returns
    ``(baseline, passes, layers)``; the last pass may be partial.  In
    trace mode ``baseline`` is an untraced round of instance 0 run
    first, every pass is traced and ``layers`` holds each traced round's
    per-layer metrics."""
    from perfbench import spans, workloads

    round_fn = workloads.ROUNDS[workload]
    warm = round_fn(workloads.make_inputs(workload, seed, warmup=True), None)
    for problem in warm.problems:
        print(f"warm-up: {problem}", file=sys.stderr)
    instances = [
        workloads.make_inputs(workload, seed, index)
        for index in range(workloads.INSTANCES[workload])
    ]
    gc.collect()

    deadline = time.perf_counter() + seconds
    baseline = None
    tracer = None
    instrumentation = None
    passes, layers, walls = [], [], []
    try:
        if trace:
            baseline = round_fn(instances[0], None)
            gc.collect()
            tracer = spans.Tracer()
            instrumentation = spans.install(tracer)
        for count in itertools.count(1):
            index = (count - 1) % len(instances)
            began = time.perf_counter()
            if tracer is not None:
                tracer.clear()
            rnd = round_fn(instances[index], tracer)
            if tracer is not None:
                layers.append(layer_metrics(tracer.spans, rnd))
            gc.collect()
            if index == 0:
                passes.append([])
            passes[-1].append(rnd)
            now = time.perf_counter()
            walls.append(now - began)
            if count >= len(instances) and now + statistics.median(walls) > deadline:
                break
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()
    return baseline, passes, layers


def end_to_end(workload: str, passes) -> dict:
    """Medians over rounds of each round's figures: pooling the samples
    of all rounds instead lets the few slowest calls of one round, or
    one round run while the machine was slow, set the tail."""
    rounds = [r for rounds in passes for r in rounds]
    if workload == "churn_serve":
        latencies = [r.latencies_s for r in rounds]
        rates = [r.admitted / r.loop_s if r.loop_s > 0 else 0.0 for r in rounds]
    else:
        latencies = [[c.wall_s for c in r.calls] for r in rounds]
        rates = [
            sum(c.requests for c in r.calls) / r.solve_s if r.solve_s > 0 else 0.0
            for r in rounds
        ]
    print(f"samples: {len(passes)} passes, {len(rounds)} rounds, "
          f"{sum(map(len, latencies))} latencies")
    print(json.dumps({"rounds": [
        {"setup_s": r.setup_s, "solve_s": r.solve_s, "loop_s": r.loop_s,
         "admitted": r.admitted, "calls": [c.wall_s for c in r.calls],
         "admit_p50_ms": percentile(r.latencies_s, 50) * 1e3}
        for r in rounds
    ]}))
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "solve_s": statistics.median(r.solve_s for r in rounds),
        "admit_p50_ms": statistics.median(percentile(x, 50) for x in latencies) * 1e3,
        "admit_p99_ms": statistics.median(percentile(x, 99) for x in latencies) * 1e3,
        "arrivals_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
        # Every pass repeats the first one's schedules (checked in main).
        "colors": sum(r.colors for r in passes[0]),
    }


def layer_metrics(spans_, rnd) -> dict:
    """One traced round's per-layer metrics (those that need the
    untraced baseline are added by :func:`per_layer`)."""
    from perfbench.metrics import SCHEDULING_ALGORITHMS
    from perfbench.spans import LAYERS, outermost, self_times

    selfs = self_times(spans_)

    def total(match):
        outer = outermost(spans_, match)
        return sum(s.duration for s in outer), float(len(outer))

    def named(name):
        return lambda s: s.name == name

    m = {}
    m["gains.build_s"], m["gains.build_calls"] = total(
        lambda s: s.layer == "gains" and s.name.endswith(".build")
    )
    m["gains.append_s"], m["gains.append_calls"] = total(
        lambda s: s.name.endswith(".append_requests")
    )
    for key in ("gains.bytes", "gains.density", "gains.storage_rows",
                "gains.live_fraction"):
        m[key] = rnd.layer.get(key, 0.0)

    m["kernels.admit_s"], m["kernels.admit_calls"] = total(
        named("kernels.first_fit_admit")
    )
    m["kernels.remove_s"], m["kernels.remove_calls"] = total(named("kernels.remove"))
    m["kernels.peel_s"], m["kernels.peel_calls"] = total(
        named("kernels.peel_max_feasible_subset")
    )
    m["kernels.move_calls"] = total(named("kernels.move"))[1]
    m["kernels.admissible_calls"] = total(named("kernels.admissible_targets"))[1]
    m["kernels.sharded_first_fit_s"] = total(
        named("kernels.first_fit_colors_sharded")
    )[0]
    flips = sum(c.flip_risk_events for c in rnd.calls)
    admits = m["kernels.admit_calls"]
    m["kernels.flip_risk_frac"] = flips / admits if admits else 0.0
    m["kernels.peel_risk_events"] = float(sum(c.peel_risk_events for c in rnd.calls))

    for algorithm in SCHEDULING_ALGORITHMS:
        m[f"scheduling.{algorithm}_s"] = sum(
            c.provenance_s for c in rnd.calls if c.algorithm == algorithm
        )
    m["scheduling.lp_s"], m["scheduling.lp_calls"] = total(named("scheduling.lp"))

    m["api.schedule_overhead_s"] = sum(c.wall_s - c.provenance_s for c in rnd.calls)
    m["api.add_requests_s"] = total(named("api.add_requests"))[0]
    m["api.add_overhead_s"] = sum(
        selfs[i] for i, s in enumerate(spans_) if s.name == "api.add_requests"
    )
    m["api.remove_s"] = total(named("api.remove_requests"))[0]
    m["api.live_build_s"] = total(named("api.ensure_live"))[0]

    add_span = {}
    for s in spans_:
        if s.name == "api.add_requests" and s.tag:
            for uid in s.tag:
                add_span[uid] = s.duration
    waits = [
        latency - add_span[uid]
        for uid, latency in rnd.uid_latency.items()
        if uid in add_span
    ]
    m["serve.queue_wait_ms_p50"] = percentile(waits, 50) * 1e3
    m["serve.queue_wait_ms_p99"] = percentile(waits, 99) * 1e3
    m["serve.queue_depth_max"] = float(rnd.queue_depth_max)
    m["serve.rejected"] = float(rnd.rejected)

    trips = outermost(
        spans_, lambda s: s.layer == "transport" and s.name != "transport.start"
    )
    m["transport.round_trips"] = float(len(trips))
    m["transport.s"] = sum(s.duration for s in trips)
    m["transport.bytes"] = float(sum(s.tag or 0 for s in trips))
    sharded = rnd.layer.get("sharded_requests", 0.0)
    m["transport.round_trips_per_request"] = len(trips) / sharded if sharded else 0.0
    m["transport.respawns"] = rnd.layer.get("transport.respawns", 0.0)
    m["shards.build_s"] = total(named("transport.start"))[0]
    m["shards.worker_rss_mb_max"] = rnd.layer.get("shards.worker_rss_mb_max", 0.0)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            selfs[i] for i, s in enumerate(spans_) if s.layer == layer
        )

    return m


def per_layer(workload: str, baseline, passes, layers) -> dict:
    """Medians over traced rounds; the trace overhead and the
    blocking-path check compare instance 0's traced rounds with its
    untraced baseline round."""
    from perfbench.metrics import SCHEDULING_ALGORITHMS

    merged = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    size = len(passes[0])
    overheads, blocking = [], []
    for p, rounds in enumerate(passes):
        m = layers[p * size]
        overheads.append(rounds[0].work_s / baseline.work_s - 1.0)
        blocking.append(
            (
                m["gains.build_s"]
                + sum(m[f"scheduling.{a}_s"] for a in SCHEDULING_ALGORITHMS)
                + m["api.schedule_overhead_s"]
            )
            / (baseline.setup_s + baseline.solve_s)
        )
    overhead = merged["trace.overhead_frac"] = statistics.median(overheads)
    frac = merged["trace.blocking_path_frac"] = statistics.median(blocking)
    if workload != "churn_serve":
        # The overhead can come out negative when the machine ran the
        # untraced baseline round slower than the traced ones.
        verdict = "ok" if abs(frac - 1.0) <= abs(overhead) + 0.05 else "OUTSIDE"
        print(
            f"check: blocking-path spans / untraced setup+solve = {frac:.4f} "
            f"(trace overhead {overhead:+.4f}, allowed |x-1| <= |overhead| + 0.05): "
            f"{verdict}"
        )
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and target")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the library is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    cap_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from perfbench import metrics

    if args.list:
        for e in metrics.END_TO_END:
            print(f"{e.name:<34} {e.unit:<6} {e.better:<6} bound {e.bound:<5} {e.meaning}")
        for p in metrics.PER_LAYER:
            print(f"{p.name:<34} {p.unit:<6} {p.better:<6} moves "
                  f"{metrics.describe_targets(p)}: {p.meaning}")
        return 0
    if args.workload not in metrics.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(metrics.WORKLOADS)}")

    info = machine()
    baseline, passes, layers = run_passes(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    rounds = [r for pass_ in passes for r in pass_]
    everything = rounds if baseline is None else [baseline] + rounds
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    checked = sum(r.checked for r in everything)
    violations = sum(r.violations for r in everything)
    worst = min(r.worst_margin for r in everything)
    # Every pass (and the baseline, a round of instance 0) must repeat
    # the first pass's schedules bit for bit.
    reference = passes[0]
    again = [(r, reference[i % len(reference)]) for i, r in enumerate(rounds)]
    if baseline is not None:
        again.append((baseline, reference[0]))
    repeatable = all(
        len(r.outputs) == len(ref.outputs)
        and all(
            a.shape == b.shape and (a == b).all()
            for a, b in zip(r.outputs, ref.outputs)
        )
        for r, ref in again
    )
    for r in everything:
        for problem in r.problems:
            print(f"problem: {problem}", file=sys.stderr)
    if not repeatable:
        print("problem: rounds of one seed produced different schedules",
              file=sys.stderr)
    print(f"oracle: {checked} scheduled requests checked, {violations} below beta "
          f"(worst SINR/beta {worst:.6g})")

    if args.trace:
        values = per_layer(args.workload, baseline, passes, layers)
        values["sinr_violation_frac"] = violations / checked if checked else 0.0
        values["error_rate"] = failed / attempted if attempted else 0.0
        catalogue = [(p.name, p.unit) for p in metrics.PER_LAYER]
    else:
        values = end_to_end(args.workload, passes)
        catalogue = [(e.name, e.unit) for e in metrics.END_TO_END]
    result_metrics = {}
    for name, unit in catalogue:
        value = float(values[name])
        print(f"{name:<34} {value:>16.6f} {unit}")
        result_metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "machine": info}))
    print(json.dumps({
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
