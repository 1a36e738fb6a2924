"""Machine-readable benchmark artifacts (``BENCH_<experiment>.json``).

Every orchestrator run can persist, per experiment, one JSON artifact
holding the merged result table, per-shard timings/seeds/sizes and the
summary quality metrics.  CI uploads these files as workflow artifacts
so the performance trajectory of the repo is diffable run over run
instead of being asserted in prose.

Schema (``format_version`` 1)::

    {
      "format_version": 1,
      "kind": "bench",
      "experiment": "e3",
      "title": "Theorem 2 universality",
      "mode": "fast" | "full" (or a benchmark-defined label, e.g. "smoke"),
      "table": {<repro.serialization table payload>},
      "shards": [
        {"key": "n=10", "seed": 123..., "rows": 3, "seconds": 0.41,
         "attempts": 1, "resumed": false},
        ...
      ],
      "failures": [
        {"key": "n=20", "shard_index": 1, "seed": 456...,
         "error_type": "InjectedFault", "error": "...", "attempts": 3},
        ...
      ],
      "timings": {"run_wall_seconds": 1.3, "total_shard_seconds": 2.2},
      "metrics": {"rows": 9, "ratio_mean": 1.4, ...},
      "env": {"jobs": 4, "backend": "dense", "algorithms": ["first_fit"]}
    }

``env.backend`` names the gain backend the experiment ran on
(``"dense"``/``"sparse"``, see :mod:`repro.core.gains`); artifacts
written before the backend split are read back as ``"dense"``.
``env.algorithms`` lists the registry algorithms the experiment
declares (:attr:`repro.runner.spec.ExperimentSpec.algorithms`); older
artifacts read back with an empty tuple.  ``shards[*].attempts`` /
``shards[*].resumed`` and the top-level ``failures`` list (quarantined
shards, see :class:`repro.resilience.ShardFailure`) arrived with the
fault-tolerant runner; artifacts written before it read back with
``attempts=1``, ``resumed=False`` and no failures.  All artifact and
checkpoint writes are atomic (temp file + ``os.replace``), so readers
never observe a truncated file.

``run_wall_seconds`` is the wall time from the start of the
orchestrator run until this experiment's results were complete (the
orchestrator reports experiments as they finish);
``total_shard_seconds`` sums this experiment's own shard times and is
the per-experiment number to diff run over run.  Everything outside
``timings``/``env`` (and the per-shard ``seconds``) is deterministic
for a given spec and mode; comparing the ``table`` sections of two
artifacts is the supported way to assert result identity across worker
counts.  Artifacts are strict JSON: non-finite table cells are encoded
as ``{"$float": "Infinity" | "-Infinity" | "NaN"}`` wrappers (see
:mod:`repro.serialization`).
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.resilience.policy import ShardFailure
from repro.serialization import (
    FORMAT_VERSION,
    SerializationError,
    table_from_dict,
    table_to_dict,
)
from repro.util.tables import Table


@dataclass
class ShardResult:
    """Outcome of one executed shard."""

    key: str
    seed: Optional[int]
    rows: int
    seconds: float
    #: Attempts the shard consumed (1 = first try succeeded).
    attempts: int = 1
    #: ``True`` when the result was loaded from a checkpoint of an
    #: earlier, interrupted run instead of being re-executed.
    resumed: bool = False


@dataclass
class BenchReport:
    """In-memory form of one ``BENCH_*.json`` artifact."""

    experiment: str
    title: str
    mode: str
    table: Table
    shards: List[ShardResult] = field(default_factory=list)
    run_wall_seconds: float = 0.0
    jobs: int = 1
    metric: Optional[str] = None
    backend: str = "dense"
    #: Registry algorithm names the experiment declares it exercises
    #: (see :attr:`repro.runner.spec.ExperimentSpec.algorithms`).
    algorithms: Tuple[str, ...] = ()
    #: Shards quarantined after exhausting their retry budget (see
    #: :class:`repro.resilience.RetryPolicy`); the merged table holds
    #: only the healthy shards' rows.  Older artifacts read back empty.
    failures: List[ShardFailure] = field(default_factory=list)

    @property
    def total_shard_seconds(self) -> float:
        return float(sum(shard.seconds for shard in self.shards))

    def metrics(self) -> Dict[str, Union[int, float]]:
        """Summary metrics: row count plus metric mean/min/max."""
        summary: Dict[str, Union[int, float]] = {"rows": len(self.table)}
        if self.metric is None or self.metric not in self.table.columns:
            return summary
        values = [
            float(v)
            for v in self.table.column(self.metric)
            if isinstance(v, (int, float)) and math.isfinite(float(v))
        ]
        if values:
            summary[f"{self.metric}_mean"] = sum(values) / len(values)
            summary[f"{self.metric}_min"] = min(values)
            summary[f"{self.metric}_max"] = max(values)
        return summary


def bench_to_dict(report: BenchReport) -> Dict[str, Any]:
    """Serializable dictionary for *report* (schema above)."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "bench",
        "experiment": report.experiment,
        "title": report.title,
        "mode": report.mode,
        "metric_column": report.metric,
        "table": table_to_dict(report.table),
        "shards": [
            {
                "key": shard.key,
                "seed": shard.seed,
                "rows": shard.rows,
                "seconds": shard.seconds,
                "attempts": shard.attempts,
                "resumed": shard.resumed,
            }
            for shard in report.shards
        ],
        "failures": [failure.to_dict() for failure in report.failures],
        "timings": {
            "run_wall_seconds": report.run_wall_seconds,
            "total_shard_seconds": report.total_shard_seconds,
        },
        "metrics": report.metrics(),
        "env": {
            "jobs": report.jobs,
            "backend": report.backend,
            "algorithms": list(report.algorithms),
        },
    }


def bench_from_dict(payload: Dict[str, Any]) -> BenchReport:
    """Rebuild a :class:`BenchReport` from :func:`bench_to_dict` output."""
    if payload.get("kind") != "bench":
        raise SerializationError("payload is not a bench artifact")
    if payload.get("format_version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {payload.get('format_version')!r}"
        )
    report = BenchReport(
        experiment=payload["experiment"],
        title=payload["title"],
        mode=payload["mode"],
        table=table_from_dict(payload["table"]),
        shards=[
            ShardResult(
                key=shard["key"],
                seed=shard["seed"],
                rows=shard["rows"],
                seconds=shard["seconds"],
                attempts=int(shard.get("attempts", 1)),
                resumed=bool(shard.get("resumed", False)),
            )
            for shard in payload.get("shards", [])
        ],
        failures=[
            ShardFailure.from_dict(entry)
            for entry in payload.get("failures", [])
        ],
        run_wall_seconds=payload.get("timings", {}).get(
            "run_wall_seconds", 0.0
        ),
        jobs=payload.get("env", {}).get("jobs", 1),
        metric=payload.get("metric_column"),
        backend=payload.get("env", {}).get("backend", "dense"),
        algorithms=tuple(payload.get("env", {}).get("algorithms", ())),
    )
    return report


def artifact_path(directory: Union[str, pathlib.Path], experiment: str) -> pathlib.Path:
    """``<directory>/BENCH_<experiment>.json``."""
    return pathlib.Path(directory) / f"BENCH_{experiment}.json"


def atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write *text* to *path* atomically.

    The payload goes to a temporary file **in the same directory**
    (same filesystem, so the final ``os.replace`` is atomic); readers
    therefore only ever observe either the previous complete file or
    the new complete file.  A crash — even ``SIGKILL`` — mid-write
    leaves at worst a stray ``*.tmp`` file, never a truncated artifact.
    """
    path = pathlib.Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_artifact(
    directory: Union[str, pathlib.Path], report: BenchReport
) -> pathlib.Path:
    """Write *report* under *directory* (created if missing).

    The write is atomic (temp file + ``os.replace``): an interrupted
    run never leaves a truncated or half-serialized ``BENCH_*.json``.
    """
    path = artifact_path(directory, report.experiment)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        path,
        json.dumps(bench_to_dict(report), indent=2, allow_nan=False) + "\n",
    )
    return path


def read_artifact(path: Union[str, pathlib.Path]) -> BenchReport:
    """Load one ``BENCH_*.json`` artifact."""
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    return bench_from_dict(payload)


def validate_artifacts_dir(directory: Union[str, pathlib.Path]) -> pathlib.Path:
    """Fail fast if *directory* cannot hold artifacts.

    Creates the directory (parents included) and round-trips a probe
    file through the same atomic-replace path artifacts use.  Called by
    :func:`repro.runner.orchestrator.run_experiments` **before any
    shard is submitted**, so an unusable output location surfaces as an
    immediate, clearly worded error instead of a crash after hours of
    compute at the first write.
    """
    path = pathlib.Path(directory)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / f".write-probe-{os.getpid()}"
        atomic_write_text(probe, "probe\n")
        probe.unlink()
    except OSError as exc:
        raise ValueError(
            f"artifacts_dir {str(directory)!r} is not a writable directory "
            f"({exc}); fix the path/permissions before launching the run"
        ) from exc
    return path


# ----------------------------------------------------------------------
# Shard checkpoints (interrupted-run resume)
# ----------------------------------------------------------------------
#
# Completed shard tables persist under
# ``<artifacts_dir>/.checkpoints/<experiment>/shard_<k>.json`` so an
# interrupted run restarts only its unfinished shards.  Per-shard
# seeding is derived from the spec alone, so a resumed run's merged
# table is bit-identical to an uninterrupted one.  Checkpoints are
# deleted once the experiment's final artifact is written.


def checkpoint_dir(
    directory: Union[str, pathlib.Path], experiment: str
) -> pathlib.Path:
    """``<directory>/.checkpoints/<experiment>``."""
    return pathlib.Path(directory) / ".checkpoints" / experiment


def checkpoint_path(
    directory: Union[str, pathlib.Path], experiment: str, shard_index: int
) -> pathlib.Path:
    """The checkpoint file for one shard."""
    return checkpoint_dir(directory, experiment) / f"shard_{shard_index}.json"


def write_checkpoint(
    directory: Union[str, pathlib.Path],
    experiment: str,
    shard_index: int,
    key: str,
    seed: Optional[int],
    table: Table,
    seconds: float,
    attempts: int = 1,
    backend: Optional[str] = None,
) -> pathlib.Path:
    """Atomically persist one completed shard's table.

    *backend* is the resolved execution-backend tag of the run (the
    orchestrator writes ``str(BackendConfig.key())``); it becomes part
    of the staleness key so a resume under a different ``--backend`` or
    pruning budget re-runs the shard instead of splicing in tables
    computed on another backend configuration.
    """
    path = checkpoint_path(directory, experiment, shard_index)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "shard_checkpoint",
        "experiment": experiment,
        "shard_index": shard_index,
        "key": key,
        "seed": seed,
        "backend": backend,
        "seconds": seconds,
        "attempts": attempts,
        "table": table_to_dict(table),
    }
    atomic_write_text(
        path, json.dumps(payload, indent=2, allow_nan=False) + "\n"
    )
    return path


def read_checkpoint(
    directory: Union[str, pathlib.Path],
    experiment: str,
    shard_index: int,
    key: str,
    seed: Optional[int],
    backend: Optional[str] = None,
) -> Optional[Tuple[Table, float, int]]:
    """Load a shard checkpoint, or ``None`` when absent or stale.

    A checkpoint only resumes when its recorded ``(experiment, key,
    seed, backend)`` matches the current spec's shard — a spec or
    ``--backend`` change between runs silently invalidates old
    checkpoints instead of splicing mismatched rows into the merged
    table (shard tables can legitimately differ across backends, e.g.
    under sparse pruning).  Checkpoints written before the backend tag
    existed carry ``backend = null`` and therefore also re-run.
    Unreadable/corrupt files are likewise treated as absent (the shard
    simply re-runs).
    """
    path = checkpoint_path(directory, experiment, shard_index)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if (
        payload.get("kind") != "shard_checkpoint"
        or payload.get("format_version") != FORMAT_VERSION
        or payload.get("experiment") != experiment
        or payload.get("key") != key
        or payload.get("seed") != seed
        or payload.get("backend") != backend
    ):
        return None
    try:
        table = table_from_dict(payload["table"])
    except (KeyError, SerializationError):
        return None
    return (
        table,
        float(payload.get("seconds", 0.0)),
        int(payload.get("attempts", 1)),
    )


def clear_checkpoints(
    directory: Union[str, pathlib.Path], experiment: str
) -> None:
    """Drop an experiment's checkpoint directory (after its final
    artifact landed)."""
    target = checkpoint_dir(directory, experiment)
    if not target.is_dir():
        return
    for entry in target.glob("*.json"):
        try:
            entry.unlink()
        except OSError:
            pass
    try:
        target.rmdir()
    except OSError:
        pass
