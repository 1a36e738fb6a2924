"""Real-process conformance and fault injection for the sharded backend.

The serial executor is the conformance reference; these tests assert
the ``"process"`` executor is indistinguishable from it — including
when a shard worker is SIGKILLed mid-run and the
:class:`repro.resilience.RetryPolicy` respawn-and-replay path has to
rebuild the lost actor from its payload.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.core.context import clear_context_cache
from repro.core.gains import build_backend, default_config
from repro.distributed import ShardedBackend, distributed_protocol
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower
from repro.resilience import RetryPolicy
from repro.runner.executors import ProcessShardExecutor


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


def _instance(n=20, seed=7):
    return random_uniform_instance(n, rng=seed, direction="directed")


@pytest.mark.slow
class TestProcessConformance:
    def test_process_matches_dense_and_owns_real_workers(self):
        instance = _instance()
        powers = SquareRootPower()(instance)
        dense = build_backend(
            instance, powers, config=default_config(backend="dense")
        )
        backend = ShardedBackend.build(
            instance, powers, epsilon=0.0, workers=2, executor="process"
        )
        try:
            health = backend.worker_health()
            pids = [record["pid"] for record in health]
            assert len(set(pids)) == 2
            assert os.getpid() not in pids
            np.testing.assert_array_equal(dense.dense_u(), backend.dense_u())
            colors = np.arange(instance.n) % 3
            np.testing.assert_array_equal(
                dense.class_sum_u(colors), backend.class_sum_u(colors)
            )
            backend.prefetch_columns(np.arange(4))
            np.testing.assert_array_equal(
                dense.col_u(2), backend.col_u(2)
            )
        finally:
            backend.close()

    def test_failed_build_closes_its_own_executor(self, monkeypatch):
        def lost_meta(self, method, *args):
            raise RuntimeError(f"{method} lost")

        instance = _instance()
        powers = SquareRootPower()(instance)
        before = set(multiprocessing.active_children())
        monkeypatch.setattr(ProcessShardExecutor, "broadcast", lost_meta)
        with pytest.raises(RuntimeError, match="meta lost") as info:
            ShardedBackend.build(
                instance, powers, epsilon=0.0, workers=2, executor="process"
            )
        # The held traceback keeps the executor referenced, so only an
        # explicit close inside build() can have stopped its workers.
        assert info.traceback
        assert set(multiprocessing.active_children()) - before == set()

    def test_serial_and_process_first_fit_identical(self):
        instance = _instance()
        powers = SquareRootPower()(instance)
        results = {}
        for executor in ("serial", "process"):
            backend = ShardedBackend.build(
                instance, powers, epsilon=0.0, workers=2, executor=executor
            )
            try:
                results[executor] = backend.dense_u()
            finally:
                backend.close()
        np.testing.assert_array_equal(results["serial"], results["process"])


@pytest.mark.slow
class TestSigkillRecovery:
    def test_sigkilled_worker_respawns_and_run_completes(self):
        """The ISSUE acceptance case: one shard worker is SIGKILLed and
        the retry path completes the run with bit-identical results."""
        instance = _instance(n=24, seed=11)
        powers = SquareRootPower()(instance)
        colors = np.arange(instance.n) % 2
        dense = build_backend(
            instance, powers, config=default_config(backend="dense")
        )
        expected_dense_u = dense.dense_u()
        expected_class_sum = dense.class_sum_u(colors)
        backend = ShardedBackend.build(
            instance, powers, epsilon=0.0, workers=2, executor="process"
        )
        try:
            executor = backend.executor
            before = executor.worker_pids()
            os.kill(before[0], signal.SIGKILL)
            # Every subsequent query self-heals: the dead worker is
            # rebuilt from its deterministic payload and replayed.
            np.testing.assert_array_equal(
                expected_dense_u, backend.dense_u()
            )
            after = executor.worker_pids()
            assert after[0] != before[0]
            assert after[1] == before[1]
            np.testing.assert_array_equal(
                expected_class_sum, backend.class_sum_u(colors)
            )
        finally:
            backend.close()

    def test_idle_death_is_not_charged_to_the_retry_budget(self):
        """A worker killed *between* calls is respawned on the next
        call's first attempt — only deaths *during* an attempt consume
        the budget (exhaustion is covered by the executor `die` tests),
        so even ``max_attempts=1`` survives an idle-time SIGKILL."""
        instance = _instance(n=12, seed=3)
        powers = SquareRootPower()(instance)
        dense = build_backend(
            instance, powers, config=default_config(backend="dense")
        )
        expected = dense.dense_u()
        retry = RetryPolicy(max_attempts=1, base_delay=0.0)
        executor = ProcessShardExecutor(2, retry=retry)
        backend = ShardedBackend.build(
            instance, powers, epsilon=0.0, workers=2, executor=executor
        )
        try:
            victim = executor.worker_pids()[1]
            os.kill(victim, signal.SIGKILL)
            np.testing.assert_array_equal(expected, backend.dense_u())
            assert executor.worker_pids()[1] != victim
        finally:
            backend.close()


@pytest.mark.slow
class TestProtocolProcess:
    def test_protocol_serial_process_bit_identical(self):
        instance = _instance(n=16, seed=5)
        serial_schedule, serial_stats = distributed_protocol(
            instance, workers=2, executor="serial", seed=99
        )
        process_schedule, process_stats = distributed_protocol(
            instance, workers=2, executor="process", seed=99
        )
        np.testing.assert_array_equal(
            serial_schedule.colors, process_schedule.colors
        )
        assert serial_stats.slots == process_stats.slots
        process_schedule.validate(instance)


class TestEndToEndProcessFirstFit:
    @pytest.mark.slow
    def test_problem_process_first_fit_matches_dense(self):
        from repro.api import Problem

        instance = _instance(n=18, seed=29)
        dense_colors = (
            Problem(instance, backend="dense")
            .session()
            .schedule("first_fit")
            .schedule.colors
        )
        result = (
            Problem(
                instance,
                backend="sharded",
                workers=2,
                shard_executor="process",
                sparse_epsilon=0.0,
            )
            .session()
            .schedule("first_fit")
        )
        np.testing.assert_array_equal(dense_colors, result.schedule.colors)
        assert result.provenance.certified is True


def test_rebuilt_backends_are_deterministic():
    """Shard payloads rebuild bit-identical actors: two fresh builds
    (the same mechanism a post-SIGKILL respawn uses) agree exactly."""
    instance = _instance(n=14, seed=41)
    powers = SquareRootPower()(instance)
    results = []
    for _ in range(2):
        backend = ShardedBackend.build(
            instance, powers, epsilon=0.0, workers=2, executor="serial"
        )
        try:
            results.append(backend.dense_u())
        finally:
            backend.close()
    np.testing.assert_array_equal(results[0], results[1])
