"""The benchmark's metric catalogue.

``END_TO_END`` lists what a user of the library sees, measured with
tracing off.  ``PER_LAYER`` lists the traced run's layer metrics, each
with the end-to-end metrics it should move and the workloads it should
move them on, written down before any optimisation.
``BENCHMARK.json`` at the repository root mirrors the names, units,
directions and bounds; a test keeps the two in step.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

WORKLOADS = ("dense_batch", "paper_sqrt", "pruned_first_fit", "churn_serve")
BATCH = ("dense_batch", "paper_sqrt", "pruned_first_fit")

#: Algorithms whose ``Provenance.wall_seconds`` feed ``scheduling.<name>_s``.
SCHEDULING_ALGORITHMS = (
    "first_fit",
    "local_search",
    "peeling",
    "sqrt_coloring",
    "first_fit_sharded",
)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


Target = Tuple[str, Tuple[str, ...]]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    targets: Tuple[Target, ...]
    meaning: str


END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median time from Problem(...) to a usable session: gain backend "
        "build (forced via session.context.backend), ensure_live() on "
        "churn_serve, shard spawn and in-worker builds on pruned_first_fit",
    ),
    EndToEnd(
        "solve_s", "s", "lower", 0.25,
        "median per round of the summed wall time of the round's "
        "Session.schedule calls",
    ),
    EndToEnd(
        "admit_p50_ms", "ms", "lower", 0.25,
        "median over rounds of the round's median submit-to-decision "
        "latency of one unit of work: an arrival through "
        "ScheduleServer.submit on churn_serve, one Session.schedule call "
        "on the batch workloads",
    ),
    EndToEnd(
        "admit_p99_ms", "ms", "lower", 0.25,
        "median over rounds of the round's 99th percentile of the same "
        "latencies",
    ),
    EndToEnd(
        "arrivals_per_s", "1/s", "higher", 0.25,
        "median over rounds of requests placed per second: closed-loop "
        "admissions per second of loop wall time on churn_serve, "
        "requests colored per second of Session.schedule wall time on "
        "the batch workloads",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.1,
        "peak resident set of the process running the workload",
    ),
    EndToEnd(
        "colors", "count", "lower", 0.15,
        "total schedule length across one round's outputs",
    ),
)


def _t(metric: str, *workloads: str) -> Target:
    return (metric, workloads)


_ADMIT = _t("admit_p50_ms", "churn_serve")
_KERNEL = (_t("solve_s", "dense_batch", "pruned_first_fit"), _ADMIT)

PER_LAYER = (
    # repro.core.gains
    PerLayer("gains.build_s", "s", "lower",
             (_t("setup_s", "dense_batch", "pruned_first_fit"),),
             "time in the *Backend.build classmethods"),
    PerLayer("gains.build_calls", "count", "lower",
             (_t("setup_s", "dense_batch", "pruned_first_fit"),),
             "*Backend.build calls per round"),
    PerLayer("gains.bytes", "bytes", "lower",
             (_t("peak_rss_mb", *WORKLOADS),),
             "backend.nbytes of the round's gain backends"),
    PerLayer("gains.density", "frac", "lower",
             (_t("peak_rss_mb", *WORKLOADS),),
             "stored nonzeros over n^2"),
    PerLayer("gains.append_s", "s", "lower", (_ADMIT,),
             "time in append_requests"),
    PerLayer("gains.append_calls", "count", "lower", (_ADMIT,),
             "append_requests calls per round"),
    PerLayer("gains.storage_rows", "count", "lower",
             (_ADMIT, _t("arrivals_per_s", "churn_serve")),
             "request rows the backend holds, tombstones included"),
    PerLayer("gains.live_fraction", "frac", "higher",
             (_ADMIT, _t("arrivals_per_s", "churn_serve")),
             "active requests over stored rows"),
    PerLayer("gains.self_s", "s", "lower",
             (_t("setup_s", "dense_batch", "pruned_first_fit"),),
             "self time of the gains layer's spans"),
    # repro.core.kernels
    PerLayer("kernels.admit_s", "s", "lower", _KERNEL,
             "time in ScheduleKernel.first_fit_admit"),
    PerLayer("kernels.admit_calls", "count", "lower", _KERNEL,
             "first_fit_admit calls per round"),
    PerLayer("kernels.remove_s", "s", "lower", _KERNEL,
             "time in ScheduleKernel.remove"),
    PerLayer("kernels.remove_calls", "count", "lower", _KERNEL,
             "ScheduleKernel.remove calls per round"),
    PerLayer("kernels.peel_s", "s", "lower", _KERNEL,
             "time in peel_max_feasible_subset, wrapped where "
             "repro.analysis.capacity and repro.core.kernels bind it"),
    PerLayer("kernels.peel_calls", "count", "lower", _KERNEL,
             "peel calls per round"),
    PerLayer("kernels.move_calls", "count", "lower", _KERNEL,
             "ScheduleKernel.move calls (local search) per round"),
    PerLayer("kernels.admissible_calls", "count", "lower", _KERNEL,
             "ScheduleKernel.admissible_targets calls (local search) per "
             "round"),
    PerLayer("kernels.sharded_first_fit_s", "s", "lower", _KERNEL,
             "time in first_fit_colors_sharded"),
    PerLayer("kernels.flip_risk_frac", "frac", "lower", _KERNEL,
             "at-risk admissions (Provenance.flip_risk_events) over "
             "first_fit_admit calls"),
    PerLayer("kernels.peel_risk_events", "count", "lower", _KERNEL,
             "Provenance.peel_risk_events per round"),
    PerLayer("kernels.self_s", "s", "lower", _KERNEL,
             "self time of the kernels layer's spans"),
    # repro.scheduling
    PerLayer("scheduling.first_fit_s", "s", "lower",
             (_t("solve_s", "dense_batch", "pruned_first_fit", "churn_serve"),),
             "Provenance.wall_seconds of first_fit"),
    PerLayer("scheduling.local_search_s", "s", "lower",
             (_t("solve_s", "dense_batch"),),
             "Provenance.wall_seconds of local_search"),
    PerLayer("scheduling.peeling_s", "s", "lower",
             (_t("solve_s", "dense_batch"),),
             "Provenance.wall_seconds of peeling"),
    PerLayer("scheduling.sqrt_coloring_s", "s", "lower",
             (_t("solve_s", "paper_sqrt"),),
             "Provenance.wall_seconds of sqrt_coloring"),
    PerLayer("scheduling.first_fit_sharded_s", "s", "lower",
             (_t("solve_s", "pruned_first_fit"),),
             "Provenance.wall_seconds of first_fit_sharded"),
    PerLayer("scheduling.lp_s", "s", "lower",
             (_t("solve_s", "paper_sqrt"),),
             "time in scipy linprog as bound in "
             "repro.scheduling.sqrt_coloring"),
    PerLayer("scheduling.lp_calls", "count", "lower",
             (_t("solve_s", "paper_sqrt"),),
             "linprog calls per round"),
    PerLayer("scheduling.self_s", "s", "lower",
             (_t("solve_s", *BATCH),),
             "self time of the scheduling layer's spans"),
    # repro.api
    PerLayer("api.schedule_overhead_s", "s", "lower",
             (_t("solve_s", *WORKLOADS),),
             "Session.schedule wall minus Provenance.wall_seconds"),
    PerLayer("api.add_requests_s", "s", "lower", (_ADMIT,),
             "time in Session.add_requests"),
    PerLayer("api.add_overhead_s", "s", "lower", (_ADMIT,),
             "self time of Session.add_requests (gains and kernels "
             "children excluded)"),
    PerLayer("api.remove_s", "s", "lower", (_ADMIT,),
             "time in Session.remove_requests"),
    PerLayer("api.live_build_s", "s", "lower",
             (_t("setup_s", "churn_serve"),),
             "time in Session.ensure_live"),
    PerLayer("api.self_s", "s", "lower", (_ADMIT,),
             "self time of the api layer's spans"),
    # repro.serve
    PerLayer("serve.queue_wait_ms_p50", "ms", "lower",
             (_t("admit_p99_ms", "churn_serve"),),
             "decision latency minus the arrival's add_requests span, "
             "median"),
    PerLayer("serve.queue_wait_ms_p99", "ms", "lower",
             (_t("admit_p99_ms", "churn_serve"),),
             "the same, 99th percentile"),
    PerLayer("serve.queue_depth_max", "count", "lower",
             (_t("admit_p99_ms", "churn_serve"),),
             "deepest arrival queue seen at a submit"),
    PerLayer("serve.rejected", "count", "lower",
             (_t("arrivals_per_s", "churn_serve"),),
             "rejected arrivals per round"),
    PerLayer("serve.self_s", "s", "lower", (_ADMIT,),
             "self time of the serve layer's spans (ScheduleServer.remove)"),
    # repro.runner.executors / repro.distributed: the transport layer
    PerLayer("transport.round_trips", "count", "lower",
             (_t("solve_s", "pruned_first_fit"),),
             "outermost ShardExecutor call/broadcast/scatter calls per round"),
    PerLayer("transport.s", "s", "lower",
             (_t("solve_s", "pruned_first_fit"),),
             "time in those calls"),
    PerLayer("transport.bytes", "bytes", "lower",
             (_t("solve_s", "pruned_first_fit"),),
             "ndarray payload bytes sent and received by those calls"),
    PerLayer("transport.round_trips_per_request", "frac", "lower",
             (_t("solve_s", "pruned_first_fit"),),
             "round trips per request scheduled on the sharded backend"),
    PerLayer("transport.respawns", "count", "lower",
             (_t("solve_s", "pruned_first_fit"),),
             "shard worker pid changes per round"),
    PerLayer("transport.self_s", "s", "lower",
             (_t("solve_s", "pruned_first_fit"),),
             "self time of the transport layer's spans"),
    PerLayer("shards.build_s", "s", "lower",
             (_t("setup_s", "pruned_first_fit"),),
             "ShardExecutor.start: worker spawn plus the in-worker builds"),
    PerLayer("shards.worker_rss_mb_max", "MB", "lower",
             (_t("peak_rss_mb", "pruned_first_fit"),),
             "largest shard worker peak RSS (worker_health)"),
    # the benchmark's own measurement and correctness layer
    PerLayer("trace.overhead_frac", "frac", "lower",
             (_t("solve_s", *WORKLOADS),),
             "traced over untraced set-up plus work time, minus one"),
    PerLayer("trace.blocking_path_frac", "frac", "lower",
             (_t("solve_s", *BATCH),),
             "(gains.build_s + scheduling.*_s + api.schedule_overhead_s) "
             "over the untraced setup_s + solve_s"),
    PerLayer("sinr_violation_frac", "frac", "lower",
             (_t("colors", *WORKLOADS),),
             "scheduled requests below beta under the exact-SINR oracle"),
    PerLayer("error_rate", "frac", "lower",
             (_t("arrivals_per_s", *WORKLOADS),),
             "failed operations over attempted ones"),
)


def describe_targets(metric: PerLayer) -> str:
    return "; ".join(
        f"{name} on {', '.join(workloads)}" for name, workloads in metric.targets
    )
