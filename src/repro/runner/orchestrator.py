"""Parallel experiment orchestrator with fault-tolerant execution.

Experiments are expanded into :class:`~repro.runner.spec.Shard` units
(per size, with deterministically derived seeds), fanned out over a
:class:`~concurrent.futures.ProcessPoolExecutor`, and merged back into
one table per experiment **in shard order** — so the result is
bit-identical whether the run used one worker or many.

Workers re-resolve the shard from the experiment registry by
``(spec_id, mode, shard_index)``; only small picklable identifiers
cross the process boundary on the way in and a plain
:class:`~repro.util.tables.Table` on the way out.

Fault tolerance (see :mod:`repro.resilience`)
---------------------------------------------
Supplying a :class:`~repro.resilience.RetryPolicy` (run-level, or
pinned per spec via :attr:`~repro.runner.spec.ExperimentSpec.retry`)
turns shard failures from run-aborting exceptions into managed events:

* an ordinary shard exception is retried with exponential backoff, up
  to ``max_attempts``; a shard that exhausts its budget is
  *quarantined* — the run continues and the experiment's
  :class:`~repro.runner.artifacts.BenchReport` carries a structured
  :class:`~repro.resilience.ShardFailure` instead of rows for it;
* a dead worker (OOM kill → ``BrokenProcessPool``) rebuilds the pool.
  The breakage cannot be attributed to a specific shard while several
  are in flight, so the scheduler falls back to *serial probing*: the
  remaining shards run one at a time, where a repeat kill identifies
  the poison shard exactly — it alone accumulates attempts and is
  quarantined, while innocent shards never lose retry budget to a
  sibling's crash;
* with ``jobs > 1`` a shard whose result does not arrive within the
  policy's ``deadline`` counts as a failed attempt and the pool is
  rebuilt to reclaim the stuck worker (``jobs == 1`` cannot preempt a
  running shard, so deadlines are not enforced in-process).

With no policy configured anywhere, behavior is exactly historical:
the first failure propagates and aborts the run (fail-fast).  The
default policy ``RetryPolicy()`` itself has ``max_attempts=1`` — it
adds quarantine-instead-of-abort but no retries.

Checkpoint / resume
-------------------
When ``artifacts_dir`` is given, every completed shard's table is
persisted atomically under ``<artifacts_dir>/.checkpoints/<id>/`` and
deleted once the experiment's final ``BENCH_<id>.json`` lands.  A run
that died mid-way (crash, ``SIGKILL``, power loss) restarts with only
its unfinished shards re-executing; because per-shard seeds derive
from the spec alone, the resumed artifact is bit-identical to an
uninterrupted run's.  Resumed shards are flagged ``resumed=True`` in
the artifact's ``shards`` section.
"""

from __future__ import annotations

import os
import select
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.gains import BackendConfig, config_scope, default_config
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RetryPolicy, ShardFailure
from repro.runner.artifacts import (
    BenchReport,
    ShardResult,
    clear_checkpoints,
    read_checkpoint,
    validate_artifacts_dir,
    write_artifact,
    write_checkpoint,
)
from repro.runner.executors import _ensure_fork_server
from repro.runner.spec import ExperimentSpec, Shard, merge_tables
from repro.util.tables import Table

#: ``(spec id, shard index)`` — the unit the scheduler tracks.
_ShardKey = Tuple[str, int]


def _registry() -> "Dict[str, ExperimentSpec]":
    # Imported lazily: the experiment modules import repro.runner.spec
    # for their SPEC declarations, so a module-level import here would
    # be circular.
    from repro.experiments.registry import get_registry

    return get_registry()


def available_experiments() -> List[str]:
    """Experiment ids in canonical (registry) order."""
    return list(_registry())


def resolve_specs(
    experiment_ids: Optional[Sequence[str]] = None,
) -> List[ExperimentSpec]:
    """Specs for *experiment_ids* (all, in registry order, when omitted).

    Raises ``KeyError`` naming the unknown ids otherwise.
    """
    registry = _registry()
    if not experiment_ids:
        return list(registry.values())
    chosen = [e.lower() for e in experiment_ids]
    unknown = sorted(set(chosen) - set(registry))
    if unknown:
        raise KeyError(f"unknown experiment id(s): {', '.join(unknown)}")
    return [registry[e] for e in chosen]


def run_shard(
    spec_id: str,
    fast: bool,
    shard_index: int,
    config: Optional[BackendConfig] = None,
    attempt: int = 0,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[Table, float]:
    """Execute one shard (in this process) and time it.

    *config* is the resolved :class:`~repro.core.gains.BackendConfig`
    for this shard (``None`` = :func:`~repro.core.gains.default_config`);
    it is applied with :func:`~repro.core.gains.config_scope` (workers
    receive it explicitly, since the parent's scope does not cross the
    process boundary).  *attempt* is the 0-based retry
    attempt — it does not influence the computation (shard seeds come
    from the spec alone, so retries are bit-identical), only the
    deterministic *fault_plan* injection point ``("shard",
    "<spec_id>:<shard_index>")``, which fires **before** any work so an
    injected crash never leaves a half-computed table behind.
    """
    if fault_plan is not None:
        fault_plan.fire(
            "shard", key=f"{spec_id}:{shard_index}", index=int(attempt)
        )
    spec = _registry()[spec_id]
    shard = spec.shards(fast)[shard_index]
    run = spec.resolve()
    start = time.perf_counter()
    with config_scope(config):
        table = run(**shard.kwargs)
    return table, time.perf_counter() - start


def _exit_with(pidfd: int) -> None:
    """Block until the process behind *pidfd* exits, then exit."""
    select.select([pidfd], [], [])
    os._exit(1)


def _init_worker(sys_path: List[str], orchestrator_pid: int) -> None:
    """Reproduce the parent's import path in pool workers, and make
    each worker exit once the orchestrator dies.

    Workers are forked from the orchestrator's preloaded fork server
    (:func:`repro.runner.executors._ensure_fork_server`), never from
    the orchestrator itself: they inherit neither its threads nor its
    ``config_scope``, so each shard runs on the config shipped with it.

    A killed orchestrator never shuts its pool down, and its fork
    server outlives it while any worker holds the server's liveness
    pipe, so a worker cannot wait for a parent to change.  It opens a
    pidfd on the orchestrator instead (readable once that process has
    exited, reaped or not), and a daemon thread blocked on it ends the
    worker instead of leaving it running.
    """
    for entry in sys_path:
        if entry not in sys.path:
            sys.path.append(entry)
    try:
        pidfd = os.pidfd_open(orchestrator_pid)
    except ProcessLookupError:
        os._exit(1)
    threading.Thread(target=_exit_with, args=(pidfd,), daemon=True).start()


@dataclass
class _Outcome:
    """Terminal state of one shard: a table or a quarantine record."""

    table: Optional[Table]
    seconds: float
    attempts: int
    resumed: bool = False
    failure: Optional[ShardFailure] = None


class _ShardScheduler:
    """Retry/deadline/pool-recovery engine behind ``run_experiments``.

    ``jobs == 1`` executes shards in-process; otherwise shards run on a
    :class:`ProcessPoolExecutor` that is rebuilt whenever it breaks (a
    worker died) or a shard result misses its deadline (the worker is
    stuck).  After an *unattributed* breakage — several shards were in
    flight, any of them may have killed the worker — the scheduler
    degrades to serial probing for the rest of the run: one shard in
    flight at a time, so every further failure is attributable and only
    the culprit spends retry budget.
    """

    def __init__(
        self,
        jobs: int,
        fast: bool,
        configs: Dict[str, BackendConfig],
        policies: Dict[str, Optional[RetryPolicy]],
        fault_plan: Optional[FaultPlan],
    ):
        self.jobs = jobs
        self.fast = fast
        self.configs = configs
        self.policies = policies
        self.fault_plan = fault_plan
        self.work: Dict[_ShardKey, Shard] = {}
        self.unresolved: set = set()
        self.serial = False
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Dict[_ShardKey, object] = {}
        self._failures: Dict[_ShardKey, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def prime(self, work: Dict[_ShardKey, Shard]) -> None:
        """Register *work* and (for pool runs) submit all of it."""
        self.work = dict(work)
        self.unresolved = set(work)
        if self.jobs > 1 and self.work:
            self._pool = self._new_pool()
            for key in self.work:
                self._submit(key)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._futures.clear()

    def _new_pool(self) -> ProcessPoolExecutor:
        _ensure_fork_server()
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=get_context("forkserver"),
            initializer=_init_worker,
            initargs=(list(sys.path), os.getpid()),
        )

    def _rebuild_pool(self) -> None:
        """Replace a broken/hogged pool; resubmit survivors unless the
        scheduler has degraded to serial probing."""
        pool, self._pool = self._pool, None
        if pool is not None:
            # wait=False: a stuck or dying worker must not block
            # recovery; orphaned workers exit on their own.
            pool.shutdown(wait=False, cancel_futures=True)
        self._futures.clear()
        self._pool = self._new_pool()
        if not self.serial:
            for key in sorted(self.unresolved):
                self._submit(key)

    def _submit(self, key: _ShardKey) -> None:
        spec_id, shard_index = key
        self._futures[key] = self._pool.submit(
            run_shard,
            spec_id,
            self.fast,
            shard_index,
            config=self.configs[spec_id],
            attempt=self._failures.get(key, 0),
            fault_plan=self.fault_plan,
        )

    # -- failure accounting ------------------------------------------------

    def _record_failure(
        self, key: _ShardKey, exc: BaseException
    ) -> Optional[_Outcome]:
        """Count one failed attempt; quarantine when the budget is gone.

        Returns the quarantine :class:`_Outcome`, or ``None`` when the
        shard gets another attempt.  With no policy configured the
        exception propagates unchanged — the historical fail-fast run
        abort.
        """
        spec_id, shard_index = key
        policy = self.policies[spec_id]
        if policy is None:
            raise exc
        failures = self._failures.get(key, 0) + 1
        self._failures[key] = failures
        if failures < policy.max_attempts:
            return None
        shard = self.work[key]
        return _Outcome(
            table=None,
            seconds=0.0,
            attempts=failures,
            failure=ShardFailure(
                key=shard.key,
                shard_index=shard_index,
                seed=shard.seed,
                error_type=type(exc).__name__,
                error=str(exc),
                attempts=failures,
            ),
        )

    def _backoff(self, key: _ShardKey) -> None:
        policy = self.policies[key[0]]
        delay = policy.delay_before_retry(self._failures[key])
        if delay > 0:
            time.sleep(delay)

    def _finish(self, key: _ShardKey) -> None:
        self.unresolved.discard(key)
        self._futures.pop(key, None)

    # -- resolution --------------------------------------------------------

    def resolve(self, key: _ShardKey) -> _Outcome:
        """Block until *key* has a terminal outcome (table or
        quarantine), retrying and recovering the pool as needed."""
        if self.jobs == 1:
            return self._resolve_inline(key)
        return self._resolve_pool(key)

    def _resolve_inline(self, key: _ShardKey) -> _Outcome:
        spec_id, shard_index = key
        while True:
            attempt = self._failures.get(key, 0)
            try:
                table, seconds = run_shard(
                    spec_id,
                    self.fast,
                    shard_index,
                    config=self.configs[spec_id],
                    attempt=attempt,
                    fault_plan=self.fault_plan,
                )
            except Exception as exc:
                outcome = self._record_failure(key, exc)
                if outcome is not None:
                    self._finish(key)
                    return outcome
                self._backoff(key)
                continue
            self._finish(key)
            return _Outcome(table, seconds, attempts=attempt + 1)

    def _resolve_pool(self, key: _ShardKey) -> _Outcome:
        spec_id, _ = key
        while True:
            future = self._futures.get(key)
            if future is None:
                self._submit(key)
                future = self._futures[key]
            policy = self.policies[spec_id]
            deadline = policy.deadline if policy is not None else None
            try:
                table, seconds = future.result(timeout=deadline)
            except FuturesTimeout:
                # The worker is stuck past the shard's deadline.
                # Attribution is exact (it is this shard's own budget),
                # and the pool must be rebuilt either way to reclaim
                # the hogged worker.
                outcome = self._record_failure(
                    key,
                    TimeoutError(
                        f"shard result exceeded deadline of {deadline:g}s"
                    ),
                )
                if outcome is not None:
                    self._finish(key)
                    self._rebuild_pool()
                    return outcome
                self._rebuild_pool()
                self._backoff(key)
            except BrokenProcessPool as exc:
                if self.serial:
                    # Serial probing: this shard was alone in flight,
                    # so the worker death is provably its doing.
                    outcome = self._record_failure(key, exc)
                    self._rebuild_pool()
                    if outcome is not None:
                        self._finish(key)
                        return outcome
                    self._backoff(key)
                else:
                    # Several shards in flight — any of them may have
                    # killed the worker.  Charge nobody; rerun the
                    # survivors one at a time so the next death has
                    # exactly one suspect.
                    self.serial = True
                    self._rebuild_pool()
            except Exception as exc:
                # An ordinary exception raised *by* the shard: exact
                # attribution, pool intact.
                self._futures.pop(key, None)
                outcome = self._record_failure(key, exc)
                if outcome is not None:
                    self._finish(key)
                    return outcome
                self._backoff(key)
            else:
                self._finish(key)
                return _Outcome(
                    table,
                    seconds,
                    attempts=self._failures.get(key, 0) + 1,
                )


def run_experiments(
    experiment_ids: Optional[Sequence[str]] = None,
    fast: bool = False,
    jobs: int = 1,
    artifacts_dir: Optional[str] = None,
    on_report: Optional[Callable[[BenchReport], None]] = None,
    backend: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    resume: bool = True,
) -> List[BenchReport]:
    """Run experiments, in parallel across shards, and merge results.

    Experiments are reported **as they complete**, in spec order: each
    experiment's artifact is written (and *on_report* called) as soon
    as its last shard finishes, so a failure or interruption late in a
    long run does not discard the experiments already done.

    Parameters
    ----------
    experiment_ids:
        Ids to run (default: every registered experiment).
    fast:
        Use each spec's reduced smoke parameters.
    jobs:
        Worker processes.  ``1`` runs everything in-process; results
        are identical either way (seeds and merge order are derived
        from the specs alone).
    artifacts_dir:
        When given, one ``BENCH_<id>.json`` per experiment is written
        there (see :mod:`repro.runner.artifacts`).  The directory is
        validated (creatable + writable) **before any shard is
        submitted**, and completed shards are checkpointed under
        ``<artifacts_dir>/.checkpoints/`` for crash resume.
    on_report:
        Optional callback invoked with each experiment's
        :class:`BenchReport` as soon as it is complete (the CLI uses
        this to stream tables).
    backend:
        Run-level gain-backend choice (the CLI ``--backend`` flag).  A
        spec's own ``backend`` pin wins over this; ``None`` falls back
        to :func:`~repro.core.gains.default_config`, so
        ``REPRO_BACKEND=sparse`` (or an enclosing
        :func:`~repro.core.gains.config_scope`) flips a whole run.  The
        other backend settings always come from the default config.
        The resolved name is recorded per experiment in the artifact's
        ``env`` section.
    retry:
        Run-level :class:`~repro.resilience.RetryPolicy`.  A spec's
        own ``retry`` pin wins over this.  With **no** policy anywhere
        (the default) failures propagate exactly as they always have;
        any configured policy instead retries with backoff and
        quarantines exhausted shards into
        :attr:`BenchReport.failures`.
    fault_plan:
        Deterministic :class:`~repro.resilience.FaultPlan` driven
        through the ``"shard"`` (worker-side, attempt-indexed) and
        ``"checkpoint"`` (parent-side) injection points.  Test/chaos
        tooling only; ``None`` in production.
    resume:
        Load shard checkpoints left by an interrupted run with the
        same *artifacts_dir* (default ``True``).  Stale checkpoints —
        key, seed or resolved backend config no longer matching the
        spec and run configuration — are ignored.

    Returns
    -------
    One :class:`BenchReport` per experiment, in request order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    specs = resolve_specs(experiment_ids)
    mode = "fast" if fast else "full"
    plan: List[Tuple[ExperimentSpec, List[Shard]]] = [
        (spec, spec.shards(fast)) for spec in specs
    ]
    # Resolve each spec's backend config and retry policy up front:
    # spec pin > run-level choice > default.  Workers receive the
    # resolved config explicitly.
    configs: Dict[str, BackendConfig] = {
        spec.id: default_config(backend=spec.backend or backend)
        for spec, _ in plan
    }
    # Checkpoint staleness tag: the config's canonical key — shard
    # tables are only reusable across runs that execute on the same
    # backend configuration (pruning budget and shard settings included).
    backend_tags: Dict[str, str] = {
        spec_id: str(config.key()) for spec_id, config in configs.items()
    }
    policies: Dict[str, Optional[RetryPolicy]] = {
        spec.id: (spec.retry if spec.retry is not None else retry)
        for spec, _ in plan
    }
    if artifacts_dir is not None:
        # Fail fast: a run can compute for hours — an unusable output
        # directory must abort before the first shard, not at the
        # first write.
        validate_artifacts_dir(artifacts_dir)

    start = time.perf_counter()
    reports: List[BenchReport] = []
    # Terminal outcome per (spec id, shard index): duplicate experiment
    # ids in the request reuse one computation, and checkpoint-resumed
    # shards never re-execute.
    outcomes: Dict[_ShardKey, _Outcome] = {}
    if artifacts_dir is not None and resume:
        for spec, shards in plan:
            for shard in shards:
                key = (spec.id, shard.index)
                if key in outcomes:
                    continue
                loaded = read_checkpoint(
                    artifacts_dir,
                    spec.id,
                    shard.index,
                    shard.key,
                    shard.seed,
                    backend=backend_tags[spec.id],
                )
                if loaded is not None:
                    table, seconds, attempts = loaded
                    outcomes[key] = _Outcome(
                        table, seconds, attempts=attempts, resumed=True
                    )

    scheduler = _ShardScheduler(jobs, fast, configs, policies, fault_plan)
    work: Dict[_ShardKey, Shard] = {}
    for spec, shards in plan:
        for shard in shards:
            key = (spec.id, shard.index)
            if key not in outcomes and key not in work:
                work[key] = shard
    scheduler.prime(work)
    try:
        for spec, shards in plan:
            shard_results: List[ShardResult] = []
            failures: List[ShardFailure] = []
            tables: List[Table] = []
            for shard in shards:
                key = (spec.id, shard.index)
                if key not in outcomes:
                    outcomes[key] = scheduler.resolve(key)
                    outcome = outcomes[key]
                    if (
                        artifacts_dir is not None
                        and outcome.failure is None
                    ):
                        write_checkpoint(
                            artifacts_dir,
                            spec.id,
                            shard.index,
                            shard.key,
                            shard.seed,
                            outcome.table,
                            outcome.seconds,
                            attempts=outcome.attempts,
                            backend=backend_tags[spec.id],
                        )
                        if fault_plan is not None:
                            fault_plan.fire(
                                "checkpoint", key=f"{spec.id}:{shard.index}"
                            )
                outcome = outcomes[key]
                if outcome.failure is not None:
                    failures.append(outcome.failure)
                    continue
                tables.append(outcome.table)
                shard_results.append(
                    ShardResult(
                        key=shard.key,
                        seed=shard.seed,
                        rows=len(outcome.table),
                        seconds=outcome.seconds,
                        attempts=outcome.attempts,
                        resumed=outcome.resumed,
                    )
                )
            if tables:
                merged = merge_tables(tables)
            else:
                # Every shard quarantined: an empty (but well-formed)
                # table keeps the artifact and the sibling experiments
                # flowing.
                merged = Table(title=spec.title, columns=[])
                merged.add_note(
                    "all shards quarantined; see the 'failures' section"
                )
            report = BenchReport(
                experiment=spec.id,
                title=spec.title,
                mode=mode,
                table=merged,
                shards=shard_results,
                run_wall_seconds=time.perf_counter() - start,
                jobs=jobs,
                metric=spec.metric,
                backend=configs[spec.id].backend,
                algorithms=tuple(spec.algorithms),
                failures=failures,
            )
            if artifacts_dir is not None:
                write_artifact(artifacts_dir, report)
                clear_checkpoints(artifacts_dir, spec.id)
            reports.append(report)
            if on_report is not None:
                on_report(report)
    finally:
        scheduler.close()
    return reports
