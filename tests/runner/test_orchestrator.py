"""Tests for the batched experiment orchestrator.

Covers the three guarantees the runner makes: deterministic results
independent of worker count, a valid machine-readable artifact per
experiment, and full registry coverage in ``--fast`` smoke mode.
"""

import json

import pytest

from repro.core.gains import config_scope, default_config
from repro.experiments.registry import get_registry
from repro.runner.artifacts import (
    BenchReport,
    artifact_path,
    bench_from_dict,
    bench_to_dict,
    read_artifact,
)
from repro.runner.orchestrator import (
    available_experiments,
    resolve_specs,
    run_experiments,
    run_shard,
)
from repro.runner.spec import ExperimentSpec, derive_shard_seed, merge_tables
from repro.util.tables import Table

ALL_IDS = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
    "e3b", "e11", "e12", "e13",
]


class TestRegistry:
    def test_all_experiments_registered(self):
        assert available_experiments() == ALL_IDS

    def test_specs_resolve_and_shard(self):
        for spec in get_registry().values():
            assert callable(spec.resolve())
            for fast in (False, True):
                shards = spec.shards(fast)
                assert len(shards) >= 1
                assert [s.index for s in shards] == list(range(len(shards)))
                if spec.seed is None:
                    assert all(s.seed is None for s in shards)
                else:
                    seeds = [s.seed for s in shards]
                    assert len(set(seeds)) == len(seeds)

    def test_resolve_specs_unknown_id(self):
        with pytest.raises(KeyError, match="e99"):
            resolve_specs(["e1", "e99"])

    def test_spec_rejects_pinned_rng(self):
        with pytest.raises(ValueError, match="rng"):
            ExperimentSpec(
                id="x", title="x", runner="m:f", full={"rng": 1}, seed=3
            )

    def test_spec_rejects_bad_shard_mode(self):
        with pytest.raises(ValueError, match="shard_by"):
            ExperimentSpec(id="x", title="x", runner="m:f", shard_by="trials")

    def test_shard_seeds_are_stable(self):
        assert derive_shard_seed(1234, 0) == derive_shard_seed(1234, 0)
        assert derive_shard_seed(1234, 0) != derive_shard_seed(1234, 1)
        assert derive_shard_seed(1234, 0) != derive_shard_seed(4321, 0)

    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ExperimentSpec(id="x", title="x", runner="m:f", backend="gpu")
        # Valid pins are accepted.
        spec = ExperimentSpec(id="x", title="x", runner="m:f", backend="sparse")
        assert spec.backend == "sparse"


class TestBackendPlumbing:
    def test_run_records_backend_in_artifact(self, tmp_path):
        reports = run_experiments(
            ["e2"], fast=True, artifacts_dir=str(tmp_path), backend="sparse"
        )
        assert reports[0].backend == "sparse"
        payload = json.loads(artifact_path(tmp_path, "e2").read_text())
        assert payload["env"]["backend"] == "sparse"
        assert read_artifact(artifact_path(tmp_path, "e2")).backend == "sparse"

    def test_backend_choice_does_not_change_tables(self):
        """Default sparse is lossless, so experiment tables must be
        identical across backends."""
        dense = run_experiments(["e2"], fast=True, backend="dense")
        sparse = run_experiments(["e2"], fast=True, backend="sparse")
        assert bench_to_dict(dense[0])["table"] == (
            bench_to_dict(sparse[0])["table"]
        )
        assert dense[0].backend == "dense"
        assert sparse[0].backend == "sparse"

    def test_scoped_config_reaches_pool_workers(self, tmp_path, monkeypatch):
        """A config set with ``config_scope`` in the parent, not through
        the environment, reaches ``--jobs 2`` pool workers: pruned
        sparse moves e1's colors, and the pooled table equals the
        in-process one.  Workers are spawned, so they inherit neither
        the parent's scope (as a fork would) nor a ``REPRO_*`` variable:
        only the config shipped with each shard can reach them."""
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial
        from multiprocessing import get_context

        from repro.runner import orchestrator

        monkeypatch.setattr(
            orchestrator,
            "ProcessPoolExecutor",
            partial(ProcessPoolExecutor, mp_context=get_context("spawn")),
        )
        for var in ("REPRO_BACKEND", "REPRO_SPARSE_EPSILON"):
            monkeypatch.delenv(var, raising=False)
        with config_scope(backend="dense"):
            dense = run_experiments(["e1"], fast=True, jobs=1)[0]
        with config_scope(backend="sparse", sparse_epsilon=0.05):
            seq = run_experiments(
                ["e1"], fast=True, jobs=1, artifacts_dir=tmp_path / "seq"
            )[0]
            par = run_experiments(
                ["e1"], fast=True, jobs=2, artifacts_dir=tmp_path / "par"
            )[0]
        assert len(par.shards) == 2
        assert bench_to_dict(seq)["table"] != bench_to_dict(dense)["table"]
        assert bench_to_dict(par)["table"] == bench_to_dict(seq)["table"]
        for out in ("seq", "par"):
            payload = json.loads(artifact_path(tmp_path / out, "e1").read_text())
            assert payload["env"]["backend"] == "sparse"

    def test_run_shard_applies_backend(self):
        table_dense, _ = run_shard(
            "e2", True, 0, config=default_config(backend="dense")
        )
        table_sparse, _ = run_shard(
            "e2", True, 0, config=default_config(backend="sparse")
        )
        assert table_dense.rows == table_sparse.rows

    def test_old_artifacts_read_as_dense(self):
        report = BenchReport(
            experiment="x",
            title="t",
            mode="fast",
            table=Table(title="t", columns=["a"]),
        )
        payload = bench_to_dict(report)
        del payload["env"]["backend"]  # pre-backend artifact
        assert bench_from_dict(payload).backend == "dense"


class TestDeterminism:
    # A representative subset keeps this test fast: sharded seeded
    # (e3), sharded seedless (e1), unsharded seeded (e5).
    SUBSET = ["e1", "e3", "e5"]

    def test_jobs_1_vs_jobs_4_bit_identical(self, tmp_path):
        seq = run_experiments(
            self.SUBSET, fast=True, jobs=1, artifacts_dir=tmp_path / "seq"
        )
        par = run_experiments(
            self.SUBSET, fast=True, jobs=4, artifacts_dir=tmp_path / "par"
        )
        for a, b in zip(seq, par):
            assert a.experiment == b.experiment
            assert a.table.title == b.table.title
            assert a.table.rows == b.table.rows
            assert a.table.notes == b.table.notes
        for experiment in self.SUBSET:
            a = json.loads(artifact_path(tmp_path / "seq", experiment).read_text())
            b = json.loads(artifact_path(tmp_path / "par", experiment).read_text())
            assert a["table"] == b["table"]
            assert a["shards"] is not None
            for s1, s4 in zip(a["shards"], b["shards"]):
                assert (s1["key"], s1["seed"], s1["rows"]) == (
                    s4["key"], s4["seed"], s4["rows"],
                )

    def test_run_shard_matches_orchestrated_row(self):
        table, seconds = run_shard("e3", True, 0)
        assert seconds >= 0
        report = run_experiments(["e3"], fast=True, jobs=1)[0]
        assert report.table.rows[: len(table)] == table.rows


class TestFastSmoke:
    def test_all_ids_produce_valid_artifacts(self, tmp_path):
        reports = run_experiments(fast=True, jobs=2, artifacts_dir=tmp_path)
        assert [r.experiment for r in reports] == ALL_IDS
        for report in reports:
            path = artifact_path(tmp_path, report.experiment)
            assert path.exists()
            loaded = read_artifact(path)
            assert loaded.experiment == report.experiment
            assert loaded.mode == "fast"
            assert loaded.table.rows == report.table.rows
            assert len(loaded.shards) == len(report.shards)
            payload = json.loads(path.read_text())
            for key in (
                "format_version", "kind", "experiment", "title", "mode",
                "table", "shards", "timings", "metrics", "env",
            ):
                assert key in payload, f"{report.experiment}: missing {key}"
            assert payload["kind"] == "bench"
            assert payload["metrics"]["rows"] == len(report.table)


class TestArtifacts:
    def test_round_trip_preserves_everything_deterministic(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(a=1, b=0.25)
        table.add_row(a=2, b=float("inf"))
        table.add_note("note")
        report = BenchReport(
            experiment="ex",
            title="Example",
            mode="fast",
            table=table,
            run_wall_seconds=1.5,
            jobs=3,
            metric="b",
        )
        payload = bench_to_dict(report)
        clone = bench_from_dict(json.loads(json.dumps(payload)))
        assert bench_to_dict(clone) == payload

    def test_metrics_skip_non_finite(self):
        table = Table(title="t", columns=["m"])
        table.add_row(m=2.0)
        table.add_row(m=float("inf"))
        report = BenchReport(
            experiment="ex", title="t", mode="full", table=table, metric="m"
        )
        metrics = report.metrics()
        assert metrics["rows"] == 2
        assert metrics["m_mean"] == 2.0

    def test_bad_kind_rejected(self):
        from repro.serialization import SerializationError

        with pytest.raises(SerializationError):
            bench_from_dict({"kind": "nope"})


class TestMergeTables:
    def test_merge_preserves_order_and_dedupes_notes(self):
        t1 = Table(title="T", columns=["x"])
        t1.add_row(x=1)
        t1.add_note("shared")
        t2 = Table(title="T", columns=["x"])
        t2.add_row(x=2)
        t2.add_note("shared")
        t2.add_note("extra")
        merged = merge_tables([t1, t2])
        assert merged.column("x") == [1, 2]
        assert merged.notes == ["shared", "extra"]

    def test_merge_rejects_column_mismatch(self):
        t1 = Table(title="T", columns=["x"])
        t2 = Table(title="T", columns=["y"])
        with pytest.raises(ValueError):
            merge_tables([t1, t2])


class TestErrors:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_experiments(["e1"], jobs=0)
