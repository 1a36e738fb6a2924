"""Declarative experiment specifications for the orchestrator.

Each experiment module exports a thin :class:`ExperimentSpec` naming its
``run_*`` function, its full/fast parameter sets, how to shard the work
into independent units, and which table column summarizes scheduler
quality.  The orchestrator (:mod:`repro.runner.orchestrator`) expands a
spec into :class:`Shard` units, fans them out over worker processes and
merges the per-shard tables deterministically — no experiment module
hand-rolls its own outer loop or seeding anymore.

Seeding contract
----------------

Shard seeds are derived from ``(spec.seed, shard_index)`` through
:class:`numpy.random.SeedSequence`, so they depend only on the spec —
never on worker count, submission order or scheduling.  This is what
makes ``--jobs 1`` and ``--jobs N`` produce bit-identical tables.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.gains import BACKENDS
from repro.resilience.policy import RetryPolicy
from repro.util.tables import Table

#: Sharding strategies a spec may declare.
SHARD_MODES = (None, "n_values")


def derive_shard_seed(base_seed: int, shard_index: int) -> int:
    """Deterministic child seed for shard *shard_index* of *base_seed*.

    Seeds are 32-bit so they stay exactly representable in IEEE
    doubles — the ``BENCH_*.json`` artifacts record them, and non-Python
    JSON consumers must be able to read them back verbatim.
    """
    state = np.random.SeedSequence([int(base_seed), int(shard_index)])
    return int(state.generate_state(1)[0])


@dataclass(frozen=True)
class Shard:
    """One independently runnable unit of an experiment."""

    spec_id: str
    index: int
    key: str
    kwargs: Mapping[str, Any]
    seed: Optional[int] = None


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment for the runner.

    Attributes
    ----------
    id:
        CLI identifier (``"e1"`` .. ``"e13"``, ``"e3b"``).
    title:
        Short human-readable label (the table carries the full title).
    runner:
        Dotted ``"module:function"`` reference to the ``run_*`` function;
        resolved lazily so specs stay picklable and import-cheap.
    full, fast:
        Keyword arguments for the full run and the ``--fast`` smoke run.
        ``rng`` must *not* appear here — seeding is the runner's job.
    seed:
        Base seed for shard-seed derivation; ``None`` for experiments
        whose run function takes no ``rng`` (fully deterministic).
    shard_by:
        ``"n_values"`` to fan out one shard per entry of the
        ``n_values`` kwarg, or ``None`` for a single shard.
    metric:
        Optional numeric column summarizing scheduler quality in the
        bench artifact (mean/min/max are recorded).
    backend:
        Optional gain-backend pin (``"dense"``/``"sparse"``) for every
        shard of this experiment.  ``None`` (the default) follows the
        run-level ``--backend`` choice, falling back to the process
        default (:func:`repro.core.gains.default_config`).  The
        resolved name is recorded in the ``BENCH_*.json`` artifact.
    algorithms:
        Names from :mod:`repro.scheduling.registry` this experiment
        exercises.  Validated against the registry at spec construction
        (a typo fails the import, not the run), listed by the CLI and
        recorded in the artifact's ``env.algorithms``.
    retry:
        Optional per-shard :class:`~repro.resilience.RetryPolicy` pin
        for this experiment.  ``None`` (the default) follows the
        run-level policy passed to
        :func:`~repro.runner.orchestrator.run_experiments`, falling
        back to fail-fast (``max_attempts=1``).
    """

    id: str
    title: str
    runner: str
    full: Mapping[str, Any] = field(default_factory=dict)
    fast: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    shard_by: Optional[str] = None
    metric: Optional[str] = None
    backend: Optional[str] = None
    algorithms: Tuple[str, ...] = ()
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.shard_by not in SHARD_MODES:
            raise ValueError(
                f"{self.id}: shard_by must be one of {SHARD_MODES}, "
                f"got {self.shard_by!r}"
            )
        if self.algorithms:
            # Imported lazily: the registry pulls in the scheduler
            # modules, which must stay importable without the runner.
            from repro.scheduling.registry import algorithm_names

            unknown = sorted(set(self.algorithms) - set(algorithm_names()))
            if unknown:
                raise ValueError(
                    f"{self.id}: unknown algorithm(s) {unknown}; "
                    f"registered: {sorted(algorithm_names())}"
                )
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"{self.id}: backend must be one of {BACKENDS} or None, "
                f"got {self.backend!r}"
            )
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ValueError(
                f"{self.id}: retry must be a RetryPolicy or None, "
                f"got {self.retry!r}"
            )
        for mode_name, kwargs in (("full", self.full), ("fast", self.fast)):
            if "rng" in kwargs:
                raise ValueError(
                    f"{self.id}: {mode_name} kwargs must not pin 'rng' — "
                    "seeding is derived per shard"
                )
            if self.shard_by is not None and self.shard_by not in kwargs:
                raise ValueError(
                    f"{self.id}: shard_by={self.shard_by!r} missing from "
                    f"{mode_name} kwargs"
                )

    def resolve(self) -> Callable[..., Table]:
        """Import and return the ``run_*`` function."""
        module_name, _, function_name = self.runner.partition(":")
        if not function_name:
            raise ValueError(f"{self.id}: runner must be 'module:function'")
        module = importlib.import_module(module_name)
        return getattr(module, function_name)

    def kwargs_for(self, fast: bool) -> Dict[str, Any]:
        """A mutable copy of the parameter set for the chosen mode."""
        return dict(self.fast if fast else self.full)

    def shards(self, fast: bool) -> List[Shard]:
        """Expand this spec into its independently runnable shards."""
        kwargs = self.kwargs_for(fast)
        units: List[Tuple[str, Dict[str, Any]]] = []
        if self.shard_by == "n_values":
            for n in kwargs["n_values"]:
                shard_kwargs = dict(kwargs)
                shard_kwargs["n_values"] = (int(n),)
                units.append((f"n={int(n)}", shard_kwargs))
        else:
            units.append(("all", kwargs))
        shards: List[Shard] = []
        for index, (key, shard_kwargs) in enumerate(units):
            seed = None
            if self.seed is not None:
                seed = derive_shard_seed(self.seed, index)
                shard_kwargs["rng"] = seed
            shards.append(
                Shard(
                    spec_id=self.id,
                    index=index,
                    key=key,
                    kwargs=shard_kwargs,
                    seed=seed,
                )
            )
        return shards


def merge_tables(tables: List[Table]) -> Table:
    """Deterministically merge per-shard tables (in shard order).

    The merged table takes its title and columns from the first shard;
    rows are concatenated in shard order and notes are deduplicated
    preserving first occurrence.
    """
    if not tables:
        raise ValueError("cannot merge zero tables")
    first = tables[0]
    merged = Table(title=first.title, columns=list(first.columns))
    seen_notes = set()
    for table in tables:
        if list(table.columns) != list(merged.columns):
            raise ValueError(
                f"shard tables disagree on columns: {table.columns} "
                f"vs {merged.columns}"
            )
        for row in table.rows:
            merged.rows.append(dict(row))
        for note in table.notes:
            if note not in seen_notes:
                seen_notes.add(note)
                merged.add_note(note)
    return merged
