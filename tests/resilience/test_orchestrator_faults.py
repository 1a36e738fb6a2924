"""Fault-injection suite for the orchestrator's retry/resume machinery.

Covers the PR's acceptance criteria: (a) injected shard crash + retry
produces a BENCH artifact bit-identical to a clean run, (b) a killed
``--jobs N`` run resumed against the same artifacts dir re-executes
only unfinished shards and matches the clean artifact, plus quarantine,
deadline, fail-fast-default and BrokenProcessPool-recovery semantics.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time
import uuid

import pytest

import repro
from repro.resilience import FaultPlan, RetryPolicy, ShardFailure
from repro.resilience.faults import FAULT_KILL_EXIT, FaultSpec, InjectedFault
from repro.runner import (
    bench_to_dict,
    checkpoint_path,
    read_artifact,
    run_experiments,
    write_checkpoint,
)

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])

NO_DELAY = dict(base_delay=0.0)


def normalized(report_or_payload):
    """A bench artifact stripped of timing/attempt metadata, so two
    runs compare on results alone."""
    payload = (
        bench_to_dict(report_or_payload)
        if not isinstance(report_or_payload, dict)
        else json.loads(json.dumps(report_or_payload))
    )
    payload.pop("timings", None)
    payload.pop("failures", None)
    payload.get("env", {}).pop("jobs", None)
    for shard in payload.get("shards", []):
        shard.pop("seconds", None)
        shard.pop("attempts", None)
        shard.pop("resumed", None)
    return payload


@pytest.fixture(scope="module")
def clean_e1():
    """The reference clean fast run of e1 (two shards)."""
    return run_experiments(["e1"], fast=True, jobs=1)[0]


class TestRetryInProcess:
    def test_crash_then_retry_is_bit_identical(self, clean_e1):
        # Every shard fails its first attempt, succeeds on the second.
        plan = FaultPlan(specs=(FaultSpec(site="shard", at=(0,)),))
        report = run_experiments(
            ["e1"],
            fast=True,
            jobs=1,
            retry=RetryPolicy(max_attempts=3, **NO_DELAY),
            fault_plan=plan,
        )[0]
        assert plan.fired == 2
        assert [s.attempts for s in report.shards] == [2, 2]
        assert report.failures == []
        assert normalized(report) == normalized(clean_e1)

    def test_quarantine_keeps_siblings(self, clean_e1):
        # Shard 0 fails on every attempt; shard 1 is untouched.
        plan = FaultPlan(
            specs=(FaultSpec(site="shard", key="e1:0", at=(0, 1, 2)),)
        )
        report = run_experiments(
            ["e1"],
            fast=True,
            jobs=1,
            retry=RetryPolicy(max_attempts=3, **NO_DELAY),
            fault_plan=plan,
        )[0]
        assert [f.shard_index for f in report.failures] == [0]
        failure = report.failures[0]
        assert isinstance(failure, ShardFailure)
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 3
        # The healthy shard's rows survive, in order.
        healthy = [s.key for s in report.shards]
        assert healthy == [clean_e1.shards[1].key]

    def test_all_shards_quarantined_yields_empty_table(self):
        plan = FaultPlan(specs=(FaultSpec(site="shard", at=(0,)),))
        report = run_experiments(
            ["e1"],
            fast=True,
            jobs=1,
            retry=RetryPolicy(max_attempts=1),
            fault_plan=plan,
        )[0]
        assert len(report.failures) == 2
        assert len(report.table) == 0
        assert any("quarantined" in note for note in report.table.notes)

    def test_no_policy_preserves_fail_fast(self):
        # Without a RetryPolicy anywhere, the historical contract
        # holds: the first shard failure aborts the run.
        plan = FaultPlan(specs=(FaultSpec(site="shard", at=(0,)),))
        with pytest.raises(InjectedFault):
            run_experiments(["e1"], fast=True, jobs=1, fault_plan=plan)

    def test_default_policy_is_quarantine_without_retry(self):
        # RetryPolicy() keeps max_attempts=1 — no second attempt — but
        # opting into a policy turns aborts into quarantines.
        plan = FaultPlan(specs=(FaultSpec(site="shard", key="e1:0", at=(0,)),))
        report = run_experiments(
            ["e1"],
            fast=True,
            jobs=1,
            retry=RetryPolicy(),
            fault_plan=plan,
        )[0]
        assert [f.attempts for f in report.failures] == [1]

    def test_spec_pin_overrides_run_level_policy(self, monkeypatch):
        import dataclasses

        from repro.experiments import registry as registry_mod

        registry = dict(registry_mod.get_registry())
        registry["e1"] = dataclasses.replace(
            registry["e1"], retry=RetryPolicy(max_attempts=2, **NO_DELAY)
        )
        monkeypatch.setattr(registry_mod, "get_registry", lambda: registry)
        monkeypatch.setattr(
            "repro.runner.orchestrator._registry", lambda: registry
        )
        plan = FaultPlan(specs=(FaultSpec(site="shard", at=(0,)),))
        # Run-level policy would abort after 1 attempt; the pin's 2
        # attempts win, so the run completes cleanly.
        report = run_experiments(
            ["e1"],
            fast=True,
            jobs=1,
            retry=RetryPolicy(max_attempts=1),
            fault_plan=plan,
        )[0]
        assert report.failures == []
        assert [s.attempts for s in report.shards] == [2, 2]

    def test_failures_round_trip_through_artifact(self, tmp_path):
        plan = FaultPlan(specs=(FaultSpec(site="shard", key="e1:0", at=(0,)),))
        run_experiments(
            ["e1"],
            fast=True,
            jobs=1,
            artifacts_dir=str(tmp_path),
            retry=RetryPolicy(),
            fault_plan=plan,
        )
        loaded = read_artifact(tmp_path / "BENCH_e1.json")
        assert [f.error_type for f in loaded.failures] == ["InjectedFault"]
        assert loaded.failures[0].shard_index == 0


class TestCheckpointResume:
    def test_interrupted_run_resumes_only_unfinished_shards(
        self, tmp_path, clean_e1
    ):
        # Kill the run (via an ordinary exception here; SIGKILL below)
        # right after shard 0's checkpoint lands.
        plan = FaultPlan(
            specs=(FaultSpec(site="checkpoint", key="e1:0", at=(0,)),)
        )
        with pytest.raises(InjectedFault):
            run_experiments(
                ["e1"],
                fast=True,
                jobs=1,
                artifacts_dir=str(tmp_path),
                fault_plan=plan,
            )
        assert checkpoint_path(tmp_path, "e1", 0).is_file()
        assert not (tmp_path / "BENCH_e1.json").exists()

        resumed = run_experiments(
            ["e1"], fast=True, jobs=1, artifacts_dir=str(tmp_path)
        )[0]
        assert [s.resumed for s in resumed.shards] == [True, False]
        assert normalized(resumed) == normalized(clean_e1)
        # Checkpoints are cleared once the final artifact lands.
        assert not checkpoint_path(tmp_path, "e1", 0).exists()

    def test_resume_false_ignores_checkpoints(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(site="checkpoint", key="e1:0", at=(0,)),)
        )
        with pytest.raises(InjectedFault):
            run_experiments(
                ["e1"],
                fast=True,
                jobs=1,
                artifacts_dir=str(tmp_path),
                fault_plan=plan,
            )
        report = run_experiments(
            ["e1"], fast=True, jobs=1, artifacts_dir=str(tmp_path), resume=False
        )[0]
        assert [s.resumed for s in report.shards] == [False, False]

    def test_stale_checkpoint_is_ignored(self, tmp_path, clean_e1):
        from repro.util.tables import Table

        # A checkpoint whose seed doesn't match the spec must silently
        # re-run, not splice foreign rows into the merged table.
        bogus = Table(title="bogus", columns=["x"])
        bogus.add_row(x=1)
        write_checkpoint(tmp_path, "e1", 0, "n=4", seed=999999, table=bogus, seconds=0.1)
        report = run_experiments(
            ["e1"], fast=True, jobs=1, artifacts_dir=str(tmp_path)
        )[0]
        assert [s.resumed for s in report.shards] == [False, False]
        assert normalized(report) == normalized(clean_e1)

    def test_backend_tag_mismatch_invalidates_checkpoint(self, tmp_path):
        from repro.runner import read_checkpoint
        from repro.util.tables import Table

        # Shard tables can legitimately differ across backends (sparse
        # pruning, shard settings), so the resolved backend tag is
        # part of the staleness key.
        table = Table(title="t", columns=["x"])
        table.add_row(x=1)
        write_checkpoint(
            tmp_path, "e1", 0, "n=4", seed=7, table=table, seconds=0.1,
            backend="sparse",
        )
        hit = read_checkpoint(tmp_path, "e1", 0, "n=4", seed=7, backend="sparse")
        assert hit is not None
        assert read_checkpoint(
            tmp_path, "e1", 0, "n=4", seed=7, backend="dense"
        ) is None

    def test_pre_backend_tag_checkpoint_reruns(self, tmp_path):
        from repro.runner import read_checkpoint
        from repro.util.tables import Table

        # Checkpoints written before the backend tag existed carry
        # backend=null and never resume under a tagged reader.
        table = Table(title="t", columns=["x"])
        table.add_row(x=1)
        write_checkpoint(
            tmp_path, "e1", 0, "n=4", seed=7, table=table, seconds=0.1
        )
        assert read_checkpoint(
            tmp_path, "e1", 0, "n=4", seed=7, backend="dense"
        ) is None

    def test_resume_under_different_backend_reruns_shards(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(site="checkpoint", key="e1:0", at=(0,)),)
        )
        with pytest.raises(InjectedFault):
            run_experiments(
                ["e1"],
                fast=True,
                jobs=1,
                artifacts_dir=str(tmp_path),
                fault_plan=plan,
                backend="dense",
            )
        assert checkpoint_path(tmp_path, "e1", 0).is_file()
        # A --backend switch between the interrupted run and the resume
        # must invalidate the dense-tagged checkpoint.
        report = run_experiments(
            ["e1"],
            fast=True,
            jobs=1,
            artifacts_dir=str(tmp_path),
            backend="sparse",
        )[0]
        assert [s.resumed for s in report.shards] == [False, False]

    def test_resume_under_different_sparse_epsilon_reruns_shards(
        self, tmp_path
    ):
        from repro.core.gains import config_scope

        plan = FaultPlan(
            specs=(FaultSpec(site="checkpoint", key="e1:0", at=(0,)),)
        )
        with config_scope(backend="sparse", sparse_epsilon=0.0):
            with pytest.raises(InjectedFault):
                run_experiments(
                    ["e1"],
                    fast=True,
                    jobs=1,
                    artifacts_dir=str(tmp_path),
                    fault_plan=plan,
                )
        assert checkpoint_path(tmp_path, "e1", 0).is_file()
        # Same backend name, different pruning budget: the lossless
        # checkpoint must not be spliced into a pruned run.
        with config_scope(backend="sparse", sparse_epsilon=0.05):
            report = run_experiments(
                ["e1"], fast=True, jobs=1, artifacts_dir=str(tmp_path)
            )[0]
        assert [s.resumed for s in report.shards] == [False, False]

    def test_corrupt_checkpoint_is_ignored(self, tmp_path, clean_e1):
        path = checkpoint_path(tmp_path, "e1", 0)
        path.parent.mkdir(parents=True)
        path.write_text('{"kind": "shard_checkpoint", "truncated...')
        report = run_experiments(
            ["e1"], fast=True, jobs=1, artifacts_dir=str(tmp_path)
        )[0]
        assert [s.resumed for s in report.shards] == [False, False]
        assert normalized(report) == normalized(clean_e1)


@pytest.mark.slow
class TestProcessPoolRecovery:
    """Worker-death recovery: these spawn real process pools."""

    def test_worker_kill_recovers_bit_identically(self, clean_e1):
        # Shard 1's first attempt SIGKILLs its worker: the pool breaks,
        # the scheduler rebuilds it, degrades to serial probing, and
        # the retried shard completes — bit-identical to a clean run.
        plan = FaultPlan(
            specs=(FaultSpec(site="shard", kind="kill", key="e1:1", at=(0,)),)
        )
        report = run_experiments(
            ["e1"],
            fast=True,
            jobs=2,
            retry=RetryPolicy(max_attempts=2, **NO_DELAY),
            fault_plan=plan,
        )[0]
        assert report.failures == []
        assert normalized(report) == normalized(clean_e1)
        # Only the poison shard consumed retry budget.
        attempts = {s.key: s.attempts for s in report.shards}
        assert attempts[clean_e1.shards[0].key] == 1
        assert attempts[clean_e1.shards[1].key] == 2

    def test_poison_shard_is_quarantined(self, clean_e1):
        # Kills on every attempt: quarantined as BrokenProcessPool,
        # sibling shard unharmed.
        plan = FaultPlan(
            specs=(
                FaultSpec(site="shard", kind="kill", key="e1:1", at=(0, 1)),
            )
        )
        report = run_experiments(
            ["e1"],
            fast=True,
            jobs=2,
            retry=RetryPolicy(max_attempts=2, **NO_DELAY),
            fault_plan=plan,
        )[0]
        assert [f.error_type for f in report.failures] == ["BrokenProcessPool"]
        assert report.failures[0].attempts == 2
        assert [s.key for s in report.shards] == [clean_e1.shards[0].key]

    def test_deadline_reclaims_stuck_worker(self, clean_e1):
        # Shard 0's first attempt hangs well past the deadline; the
        # attempt times out, the pool is rebuilt, the retry succeeds.
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="shard",
                    kind="delay",
                    key="e1:0",
                    at=(0,),
                    delay_s=20.0,
                ),
            )
        )
        report = run_experiments(
            ["e1"],
            fast=True,
            jobs=2,
            retry=RetryPolicy(max_attempts=2, deadline=1.0, **NO_DELAY),
            fault_plan=plan,
        )[0]
        assert report.failures == []
        assert normalized(report) == normalized(clean_e1)

    def test_deadline_exhaustion_quarantines_as_timeout(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="shard",
                    kind="delay",
                    key="e1:0",
                    at=(0, 1),
                    delay_s=20.0,
                ),
            )
        )
        report = run_experiments(
            ["e1"],
            fast=True,
            jobs=2,
            retry=RetryPolicy(max_attempts=2, deadline=1.0, **NO_DELAY),
            fault_plan=plan,
        )[0]
        assert [f.error_type for f in report.failures] == ["TimeoutError"]
        assert "deadline" in report.failures[0].error


def _processes_with_env(entry: bytes):
    """Pids of live processes whose environment holds *entry*."""
    pids = []
    for environ in pathlib.Path("/proc").glob("[0-9]*/environ"):
        try:
            if entry in environ.read_bytes().split(b"\0"):
                pids.append(int(environ.parent.name))
        except OSError:
            continue
    return pids


class TestWorkerReaping:
    def test_worker_exits_when_its_parent_dies(self):
        """A pool worker whose orchestrator dies without shutting the
        pool down exits on its own."""
        driver = textwrap.dedent(
            """
            import os, time
            from repro.runner.orchestrator import _init_worker

            read, write = os.pipe()
            if os.fork() == 0:  # stands in for the orchestrator
                if os.fork() == 0:  # its pool worker
                    os.close(read)
                    _init_worker([], os.getppid())
                    os.write(write, b"up")
                    time.sleep(60)
                    os._exit(0)
                os.close(write)
                # Die without shutting the worker down, once it is up.
                os._exit(0 if os.read(read, 2) == b"up" else 1)
            os.close(read)
            os.close(write)
            _, status = os.wait()
            raise SystemExit(os.waitstatus_to_exitcode(status))
            """
        )
        token = uuid.uuid4().hex
        proc = subprocess.run(
            [sys.executable, "-c", driver],
            env={
                **os.environ,
                "PYTHONPATH": SRC_DIR,
                "REPRO_ORPHANED_WORKER_MARKER": token,
            },
            timeout=60,
        )
        assert proc.returncode == 0, "the worker never came up"
        marker = f"REPRO_ORPHANED_WORKER_MARKER={token}".encode()
        deadline = time.monotonic() + 10.0
        while _processes_with_env(marker) and time.monotonic() < deadline:
            time.sleep(0.2)
        assert not _processes_with_env(marker)

    def test_worker_under_another_parent_is_not_watched(self):
        """A worker whose parent is not the orchestrator (a fork server
        in between) must not take that for its parent's death."""
        import threading

        from repro.runner.orchestrator import _init_worker

        before = threading.active_count()
        _init_worker([], -1)
        assert threading.active_count() == before


@pytest.mark.slow
class TestSigkillResume:
    def test_killed_jobs4_run_resumes_bit_identically(self, tmp_path):
        """Acceptance criterion (b): SIGKILL a ``--jobs 4`` run after
        its first checkpoint, resume it, and get an artifact
        bit-identical to a clean run's — having re-executed only the
        unfinished shards — and the killed run's pool workers exit
        instead of outliving it."""
        driver = textwrap.dedent(
            """
            import sys
            from repro.resilience import FaultPlan
            from repro.resilience.faults import FaultSpec
            from repro.runner import run_experiments

            # SIGKILL the parent right after shard (e1, 0)'s checkpoint
            # is written — a power-loss-grade interruption.
            plan = FaultPlan(
                specs=(
                    FaultSpec(
                        site="checkpoint", kind="kill", key="e1:0", at=(0,)
                    ),
                )
            )
            run_experiments(
                ["e1", "e2"],
                fast=True,
                jobs=4,
                artifacts_dir=sys.argv[1],
                fault_plan=plan,
            )
            raise SystemExit("unreachable: the kill fault did not fire")
            """
        )
        # Every process of the killed run inherits this unique entry.
        token = uuid.uuid4().hex
        marker = f"REPRO_KILLED_RUN_MARKER={token}".encode()
        proc = subprocess.run(
            [sys.executable, "-c", driver, str(tmp_path)],
            env={
                **os.environ,
                "PYTHONPATH": SRC_DIR,
                "REPRO_KILLED_RUN_MARKER": token,
            },
            timeout=300,
        )
        assert proc.returncode == FAULT_KILL_EXIT == -signal.SIGKILL
        deadline = time.monotonic() + 10.0
        survivors = _processes_with_env(marker)
        while survivors and time.monotonic() < deadline:
            time.sleep(0.2)
            survivors = _processes_with_env(marker)
        assert not survivors, f"pool workers outlived the killed run: {survivors}"
        assert checkpoint_path(tmp_path, "e1", 0).is_file()
        assert not (tmp_path / "BENCH_e1.json").exists()

        resumed = run_experiments(
            ["e1", "e2"], fast=True, jobs=4, artifacts_dir=str(tmp_path)
        )
        # Only the checkpointed shard is marked resumed — everything
        # else re-executed.
        assert [s.resumed for s in resumed[0].shards] == [True, False]
        assert [s.resumed for s in resumed[1].shards] == [False, False]

        clean = run_experiments(["e1", "e2"], fast=True, jobs=1)
        for resumed_report, clean_report in zip(resumed, clean):
            assert normalized(resumed_report) == normalized(clean_report)
        # And the on-disk artifacts are complete and parseable.
        for experiment in ("e1", "e2"):
            loaded = read_artifact(tmp_path / f"BENCH_{experiment}.json")
            assert loaded.experiment == experiment
