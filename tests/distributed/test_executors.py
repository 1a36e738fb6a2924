"""Unit tests for the ShardExecutor abstraction (serial + process)."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.resilience import RetryPolicy
from repro.runner.executors import (
    SHARD_EXECUTORS,
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardExecutorError,
    _current_rss_mb,
    _vm_hwm_mb,
    build_shard_executor,
    worker_identity,
)


class Counter:
    """Tiny deterministic actor used across the executor tests."""

    def __init__(self, payload):
        self.base = int(payload)

    def add(self, x):
        return self.base + int(x)

    def scaled(self, x):
        return np.linspace(0.0, 1.0, 7) * (self.base + x) / 3.0

    def check(self, x):
        if x < 0:
            raise ValueError(f"negative input {x}")
        return self.base + x

    def pid(self):
        return os.getpid()

    def identity(self):
        return worker_identity()

    def boom(self):
        raise ValueError("deterministic actor error")

    def die(self):
        os.kill(os.getpid(), signal.SIGKILL)


def _counter_factory(payload):
    return Counter(payload)


def _bad_factory(payload):
    raise ValueError(f"bad shard payload: {payload!r}")


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("not picklable")


def _bad_on_one_factory(payload):
    if payload == 1:
        raise ValueError("bad shard payload: 1")
    return Counter(payload)


def _barrier_factory(payload):
    """Worker ``i`` of ``W`` marks itself ready, then waits for every
    other worker's mark: it builds only if all W build at once."""
    directory, index, workers = payload
    open(os.path.join(directory, f"ready-{index}"), "w").close()
    deadline = time.monotonic() + 60.0
    names = [os.path.join(directory, f"ready-{k}") for k in range(workers)]
    while not all(os.path.exists(name) for name in names):
        if time.monotonic() > deadline:
            raise RuntimeError(f"worker {index} never saw all {workers} workers")
        time.sleep(0.01)
    return Counter(index)


def _die_once_factory(payload):
    """SIGKILL the worker on its first build (recording the pid in a
    marker file); build normally on every later attempt."""
    marker, base = payload
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return Counter(base)


def _die_on_payload_factory(payload):
    if payload == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return Counter(payload)


def _refuse_unpickle():
    raise RuntimeError("this factory cannot be rebuilt in a worker")


class _BootstrapBomb:
    """A factory that pickles in the parent but raises while a spawned
    worker unpickles it: the worker exits with a Python error before
    its loop runs, as when the main module cannot be re-imported."""

    def __call__(self, payload):
        return Counter(payload)

    def __reduce__(self):
        return (_refuse_unpickle, ())


def _new_children(before):
    return set(multiprocessing.active_children()) - before


class TestSerialExecutor:
    def test_call_broadcast_scatter_order(self):
        with SerialShardExecutor(3) as ex:
            ex.start(_counter_factory, [10, 20, 30])
            assert ex.call(1, "add", 5) == 25
            assert ex.broadcast("add", 1) == [11, 21, 31]
            assert ex.scatter("add", [(1,), (2,), (3,)]) == [11, 22, 33]

    def test_payload_count_validated(self):
        ex = SerialShardExecutor(2)
        with pytest.raises(ValueError, match="one payload per worker"):
            ex.start(_counter_factory, [1])

    def test_double_start_rejected(self):
        ex = SerialShardExecutor(1)
        ex.start(_counter_factory, [0])
        with pytest.raises(RuntimeError, match="already started"):
            ex.start(_counter_factory, [0])

    def test_call_before_start_rejected(self):
        with pytest.raises(RuntimeError, match="not started"):
            SerialShardExecutor(1).call(0, "add", 1)

    def test_actor_error_propagates(self):
        ex = SerialShardExecutor(1)
        ex.start(_counter_factory, [0])
        with pytest.raises(ValueError, match="deterministic actor error"):
            ex.call(0, "boom")

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            SerialShardExecutor(0)


@pytest.mark.parametrize("kind", SHARD_EXECUTORS)
def test_post_collect_contract(kind):
    """``collect(post(...))`` is ``scatter(...)``; whatever runs while a
    post is outstanding gets its own reply, and so does the post."""
    before = set(multiprocessing.active_children())
    ex = build_shard_executor(kind, 2)
    ex.start(_counter_factory, [10, 20])
    try:
        args = [(1.5,), (2.5,)]
        posted = ex.collect(ex.post("scaled", args))
        scattered = ex.scatter("scaled", args)
        assert [a.tobytes() for a in posted] == [a.tobytes() for a in scattered]

        requests = [
            (lambda: ex.call(1, "add", 5), 25),
            (lambda: ex.broadcast("add", 3), [13, 23]),
            (lambda: ex.scatter("add", [(4,), (5,)]), [14, 25]),
            (lambda: ex.collect(ex.post("add", [(6,), (7,)])), [16, 27]),
        ]
        for request, expected in requests:
            outstanding = ex.post("add", [(1,), (2,)])
            assert request() == expected
            assert ex.collect(outstanding) == [11, 22]

        # An actor error stays with its own post: the call that drains
        # it reads its own reply, not worker 1's answer to the post.
        failing = ex.post("check", [(-1,), (1,)])
        assert ex.call(1, "add", 0) == 20
        with pytest.raises((ValueError, ShardExecutorError), match="negative"):
            ex.collect(failing)

        ex.post("add", [(1,), (2,)])
    finally:
        ex.close()
    assert _new_children(before) == set()


class TestBuildShardExecutor:
    def test_names(self):
        assert build_shard_executor("serial", 2).workers == 2
        proc = build_shard_executor("process", 2)
        assert isinstance(proc, ProcessShardExecutor)
        proc.close()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="shard executor"):
            build_shard_executor("mpi", 2)

    def test_registry_constant_matches_gains_copy(self):
        from repro.core.gains import SHARD_EXECUTORS as gains_names

        assert tuple(SHARD_EXECUTORS) == tuple(gains_names)

    def test_none_resolves_process_default(self):
        from repro.core.gains import config_scope

        with config_scope(backend="sharded", shard_executor="serial"):
            assert isinstance(build_shard_executor(None, 1), SerialShardExecutor)


class TestProcessExecutor:
    def test_calls_run_in_real_processes(self):
        with ProcessShardExecutor(2) as ex:
            ex.start(_counter_factory, [100, 200])
            assert ex.broadcast("add", 7) == [107, 207]
            pids = ex.broadcast("pid")
            assert len(set(pids)) == 2
            assert os.getpid() not in pids

    def test_scatter_order_and_results(self):
        with ProcessShardExecutor(2) as ex:
            ex.start(_counter_factory, [1, 2])
            assert ex.scatter("add", [(10,), (20,)]) == [11, 22]

    def test_actor_error_propagates_without_respawn(self):
        with ProcessShardExecutor(1) as ex:
            ex.start(_counter_factory, [0])
            pid = ex.call(0, "pid")
            with pytest.raises(ShardExecutorError, match="ValueError") as info:
                ex.call(0, "boom")
            assert info.value.failure.shard_index == 0
            assert info.value.failure.error_type == "ValueError"
            # Same process is still serving: no respawn happened.
            assert ex.call(0, "pid") == pid

    def test_sigkill_respawns_and_replays(self):
        with ProcessShardExecutor(2) as ex:
            ex.start(_counter_factory, [10, 20])
            victim = ex.worker_pids()[1]
            os.kill(victim, signal.SIGKILL)
            # The dead worker is respawned from its payload mid-call.
            assert ex.broadcast("add", 1) == [11, 21]
            assert ex.worker_pids()[1] != victim

    def test_suicide_inside_call_is_replayed(self):
        with ProcessShardExecutor(1) as ex:
            ex.start(_counter_factory, [5])
            with pytest.raises(ShardExecutorError, match="retry budget"):
                # `die` kills the worker during every replay, so the
                # budget must eventually exhaust with a ShardFailure.
                ex.call(0, "die")

    def test_retry_budget_recorded_in_failure(self):
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        with ProcessShardExecutor(1, retry=retry) as ex:
            ex.start(_counter_factory, [5])
            with pytest.raises(ShardExecutorError) as info:
                ex.call(0, "die")
            assert info.value.failure.attempts == 2
            assert info.value.failure.key == "die"

    def test_build_error_surfaces_without_retry(self):
        ex = ProcessShardExecutor(1)
        with pytest.raises(ShardExecutorError, match="failed to build"):
            ex.start(_bad_factory, [17])
        ex.close()

    def test_unpicklable_payload_fails_start(self):
        ex = ProcessShardExecutor(1)
        with pytest.raises(Exception):
            ex.start(_counter_factory, [_Unpicklable()])
        ex.close()

    def test_close_idempotent_and_kills_workers(self):
        ex = ProcessShardExecutor(2)
        ex.start(_counter_factory, [0, 1])
        pids = ex.worker_pids()
        ex.close()
        ex.close()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        with pytest.raises(RuntimeError, match="closed"):
            ex.call(0, "add", 1)


class TestProcessStart:
    def test_workers_build_concurrently(self, tmp_path):
        # Each build waits for every other worker's ready mark, so this
        # passes only if all workers are launched before any handshake
        # is awaited.
        with ProcessShardExecutor(2) as ex:
            ex.start(
                _barrier_factory,
                [(str(tmp_path), index, 2) for index in range(2)],
            )
            assert ex.broadcast("add", 0) == [0, 1]

    @pytest.mark.parametrize(
        "factory, payloads, error",
        [
            (_bad_on_one_factory, [0, 1], ShardExecutorError),
            (_counter_factory, [0, _Unpicklable()], TypeError),
        ],
        ids=["build-error", "unpicklable-payload"],
    )
    def test_failed_start_reaps_every_worker(self, factory, payloads, error):
        before = set(multiprocessing.active_children())
        ex = ProcessShardExecutor(2)
        with pytest.raises(error):
            ex.start(factory, payloads)
        # No close(): start itself must leave no worker behind.
        assert _new_children(before) == set()
        with pytest.raises(RuntimeError, match="closed"):
            ex.call(0, "add", 1)

    def test_build_death_is_retried(self, tmp_path):
        markers = [str(tmp_path / f"died-{k}") for k in range(2)]
        with ProcessShardExecutor(2) as ex:
            ex.start(_die_once_factory, [(markers[0], 10), (markers[1], 20)])
            assert ex.broadcast("add", 1) == [11, 21]
            for worker, marker in enumerate(markers):
                with open(marker) as handle:
                    dead_pid = int(handle.read())
                assert ex.call(worker, "pid") != dead_pid

    def test_bootstrap_error_is_not_retried(self, monkeypatch):
        retry = RetryPolicy(max_attempts=3, base_delay=0.0)
        before = set(multiprocessing.active_children())
        ex = ProcessShardExecutor(1, retry=retry)
        launches = []
        process = ex._ctx.Process

        def counting(*args, **kwargs):
            launches.append(kwargs["name"])
            return process(*args, **kwargs)

        monkeypatch.setattr(ex._ctx, "Process", counting)
        with pytest.raises(ShardExecutorError, match="exited with code 1") as info:
            ex.start(_BootstrapBomb(), [0])
        assert "stderr" in str(info.value)
        assert launches == ["repro-shard-0"]
        failure = info.value.failure
        assert failure.key == "__build__"
        assert failure.error_type == "WorkerExit"
        assert failure.attempts == 1
        assert _new_children(before) == set()

    def test_build_death_exhausts_retry_budget(self):
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        before = set(multiprocessing.active_children())
        ex = ProcessShardExecutor(2, retry=retry)
        with pytest.raises(ShardExecutorError, match="died while building") as info:
            ex.start(_die_on_payload_factory, [0, "die"])
        failure = info.value.failure
        assert failure.key == "__build__"
        assert failure.shard_index == 1
        assert failure.attempts == retry.max_attempts
        assert _new_children(before) == set()


class TestWorkerPeakRss:
    STATUS = (
        "Name:\tpython\n"
        "VmPeak:\t  412345 kB\n"
        "VmHWM:\t   56196 kB\n"
        "VmRSS:\t   40000 kB\n"
    )

    def test_vm_hwm_parsed_from_status_text(self):
        assert _vm_hwm_mb(self.STATUS) == pytest.approx(56196 / 1024.0)

    def test_status_without_vm_hwm_gives_none(self):
        assert _vm_hwm_mb("Name:\tpython\nVmRSS:\t 40000 kB\n") is None

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
    )
    def test_worker_reports_its_own_peak_not_its_parents(self):
        ballast = np.ones(200 * 2**20 // 8)  # ~200 MB touched by the parent
        parent_mb = _current_rss_mb()
        with ProcessShardExecutor(1) as ex:
            ex.start(_counter_factory, [0])
            worker = ex.call(0, "identity")
        del ballast
        assert worker["pid"] != os.getpid()
        assert parent_mb > 200
        assert worker["peak_rss_mb"] < parent_mb - 100


PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fork_server_probe.py")
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _probe(tmp_path, *args):
    """Start the probe as perfbench starts the library: no
    ``PYTHONPATH``, ``src`` put on ``sys.path`` at run time."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.Popen(
        [sys.executable, PROBE, SRC_DIR, *args],
        cwd=tmp_path,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _gone(pid):
    """True once *pid* has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            return any(
                line.startswith("State:") and line.split()[1] == "Z"
                for line in handle
            )
    except FileNotFoundError:
        return True


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/<pid>/status"
)
class TestForkServer:
    def test_workers_fork_from_one_preloaded_server(self, tmp_path):
        proc = _probe(tmp_path, "preload")
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        report = json.loads(out.strip().splitlines()[-1])
        workers = report["workers"]
        assert len(workers) == 4
        for worker in workers:
            assert worker["preloaded"] == ["numpy", "repro.distributed.sharded"]
        servers = {worker["ppid"] for worker in workers}
        assert len(servers) == 1
        assert servers.isdisjoint({report["pid"], os.getpid()})

    def test_forked_copy_starts_its_own_server(self, tmp_path):
        """A process forked from one that runs the fork server (an
        orchestrator pool worker, say) is not the server's parent, so it
        must start a server of its own rather than use the inherited one."""
        proc = _probe(tmp_path, "forked")
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        report = json.loads(out.strip().splitlines()[-1])
        first, forked = report["first"], report["forked"]
        assert "error" not in forked, forked["error"]
        assert forked["preloaded"] == ["numpy", "repro.distributed.sharded"]
        assert forked["ppid"] not in (first["ppid"], forked["parent"])

    @pytest.mark.parametrize("ending", ["exit", "sigkill"])
    def test_nothing_outlives_the_parent(self, tmp_path, ending):
        proc = _probe(tmp_path, "sharded", "exit" if ending == "exit" else "wait")
        try:
            line = proc.stdout.readline()
            assert line, proc.stderr.read()
            report = json.loads(line)
            if ending == "sigkill":
                os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
            proc.stdin.close()
        pids = report["fork_servers"] + report["workers"]
        assert len(report["fork_servers"]) == 1 and len(pids) == 3
        if ending == "exit":
            # The parent reaped all it started, leaving init no zombie.
            assert [pid for pid in pids if os.path.exists(f"/proc/{pid}")] == []
        else:
            deadline = time.monotonic() + 5.0
            while not all(map(_gone, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if not _gone(pid)] == []
