"""Command-line experiment orchestrator.

Regenerates any subset of the paper's experiment tables, fanning the
work out over worker processes and optionally writing one
machine-readable ``BENCH_<experiment>.json`` artifact per experiment:

    python -m repro.experiments                       # run everything
    python -m repro.experiments e1 e2 e5              # selected experiments
    python -m repro.experiments --list                # show what exists
    python -m repro.experiments --list-algorithms     # the algorithm registry
    python -m repro.experiments e3 --fast             # reduced smoke sizes
    python -m repro.experiments --jobs 4              # 4 worker processes
    python -m repro.experiments --fast --jobs 4 --artifacts out/

Tables are bit-identical for any ``--jobs`` value: shard seeds derive
from the experiment specs alone and results merge in spec order (see
:mod:`repro.runner`).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.gains import BACKENDS
from repro.experiments.registry import get_registry
from repro.resilience.policy import RetryPolicy
from repro.runner.orchestrator import run_experiments
from repro.scheduling.registry import list_algorithms
from repro.util.tables import format_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper-reproduction experiment tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (e1 .. e13, e3b); all when omitted",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--list-algorithms",
        action="store_true",
        help="list the scheduling-algorithm registry with capability flags",
    )
    parser.add_argument(
        "--fast", action="store_true", help="reduced sizes (smoke run)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1; results are identical for any N)",
    )
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="write one BENCH_<experiment>.json per experiment under DIR",
    )
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help=(
            "gain backend for every experiment without its own pin "
            "(default: the process default, see REPRO_BACKEND)"
        ),
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retry a failing shard up to N attempts, then quarantine it "
            "into the artifact's 'failures' section (default: fail fast "
            "on the first error, as always)"
        ),
    )
    parser.add_argument(
        "--retry-base-delay",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help=(
            "backoff before the first retry; doubles per retry "
            "(default 0.05; only meaningful with --max-attempts)"
        ),
    )
    parser.add_argument(
        "--shard-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-shard result deadline; a late shard counts as a failed "
            "attempt and its stuck worker is reclaimed (requires "
            "--jobs > 1 to preempt; implies a retry policy)"
        ),
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help=(
            "ignore shard checkpoints from an interrupted run with the "
            "same --artifacts directory (default: resume them)"
        ),
    )
    args = parser.parse_args(argv)

    registry = get_registry()
    if args.list_algorithms:
        specs = list_algorithms()
        width = max(len(spec.name) for spec in specs)
        flag_width = max(len(spec.capabilities.flags()) for spec in specs)
        for spec in specs:
            print(
                f"{spec.name:<{width}}  "
                f"[{spec.capabilities.flags():<{flag_width}}]  "
                f"{spec.summary}"
            )
        return 0
    if args.list:
        for key in registry:
            print(key)
        return 0
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.max_attempts is not None and args.max_attempts < 1:
        parser.error("--max-attempts must be >= 1")
    retry = None
    if args.max_attempts is not None or args.shard_deadline is not None:
        retry = RetryPolicy(
            max_attempts=args.max_attempts or 1,
            base_delay=args.retry_base_delay,
            deadline=args.shard_deadline,
        )

    had_failures = False

    def _print_report(report) -> None:
        nonlocal had_failures
        print(format_table(report.table))
        for failure in report.failures:
            had_failures = True
            print(
                f"  QUARANTINED shard {failure.key} "
                f"({failure.error_type} after {failure.attempts} "
                f"attempt(s)): {failure.error}",
                file=sys.stderr,
            )
        print()

    try:
        run_experiments(
            args.experiments,
            fast=args.fast,
            jobs=args.jobs,
            artifacts_dir=args.artifacts,
            on_report=_print_report,
            backend=args.backend,
            retry=retry,
            resume=not args.no_resume,
        )
    except KeyError as exc:
        # resolve_specs rejects unknown ids before any work starts.
        parser.error(str(exc).strip("'\""))
    return 1 if had_failures else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
