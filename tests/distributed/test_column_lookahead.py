"""The sharded first-fit column lookahead over real shard workers.

The driver posts window k+1's column fetch before it admits window k,
so a fetch is often in flight on the process executor when something
else happens: a worker dies, an admission raises, another query runs.
Each case must leave the backend answering exactly what a
:class:`repro.core.gains.SparseBackend` of the same instance and ε (or
a serial-executor shard fleet) answers.  One process backend serves the
module: every test leaves it with no fetch in flight.  ``close()`` with
a post outstanding is covered, on both executors, by
``test_executors.py::test_post_collect_contract``.
"""

import os
import signal

import numpy as np
import pytest

from repro.core.context import InterferenceContext
from repro.core.gains import SparseBackend, default_config
from repro.core.kernels import ScheduleKernel, first_fit_colors_sharded
from repro.distributed import ShardedBackend
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower

EPSILON = 0.05
N = 200  # four 64-request windows: the third is in flight at request 70


@pytest.fixture(scope="module")
def instance_and_powers():
    instance = random_uniform_instance(N, rng=17, direction="bidirectional")
    return instance, SquareRootPower()(instance)


@pytest.fixture(scope="module")
def process_backend(instance_and_powers):
    backend = ShardedBackend.build(
        *instance_and_powers, epsilon=EPSILON, workers=2, executor="process"
    )
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def sparse_backend(instance_and_powers):
    return SparseBackend.build(*instance_and_powers, epsilon=EPSILON)


def test_sigkill_between_post_and_collect_replays(
    instance_and_powers, process_backend
):
    serial = ShardedBackend.build(
        *instance_and_powers, epsilon=EPSILON, workers=2, executor="serial"
    )
    js = np.arange(64, 128)
    expected = serial.executor.scatter("columns", [(js,)] * 2)
    serial.close()

    executor = process_backend.executor
    victim = executor.worker_pids()[1]
    # Stopped, the worker cannot answer before it dies: the reply must
    # come from its respawned replacement.
    os.kill(victim, signal.SIGSTOP)
    post = executor.post("columns", [(js,)] * 2)
    os.kill(victim, signal.SIGKILL)
    parts = executor.collect(post)

    assert executor.worker_pids()[1] not in (victim, -1)
    assert len(parts) == len(expected)
    for got, want in zip(parts, expected):
        for got_triple, want_triple in zip(got, want):
            for a, b in zip(got_triple, want_triple):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()


def test_failed_admission_leaves_fetch_answerable(
    monkeypatch, instance_and_powers, process_backend, sparse_backend
):
    instance, powers = instance_and_powers
    context = InterferenceContext(
        instance,
        powers,
        config=default_config(
            backend="sharded",
            sparse_epsilon=EPSILON,
            workers=2,
            shard_executor="process",
        ),
    )
    context._backend = process_backend
    add = ScheduleKernel.add

    def add_failing_at_70(self, req, color):
        if req == 70:
            raise RuntimeError("admission failed at request 70")
        return add(self, req, color)

    monkeypatch.setattr(ScheduleKernel, "add", add_failing_at_70)
    with pytest.raises(RuntimeError, match="request 70"):
        first_fit_colors_sharded(
            context, np.arange(N), context.budgets() * (1.0 + 1e-9)
        )
    # Window 128..191 is in flight; each query gets its own reply.
    colors = np.arange(N) % 5
    np.testing.assert_array_equal(
        process_backend.row_u(3), sparse_backend.row_u(3)
    )
    np.testing.assert_array_equal(
        process_backend.class_sum_u(colors), sparse_backend.class_sum_u(colors)
    )
    for j in (130, 70, 199):  # in flight, cached, never fetched
        np.testing.assert_array_equal(
            process_backend.col_u(j), sparse_backend.col_u(j)
        )
        np.testing.assert_array_equal(
            process_backend.col_v(j), sparse_backend.col_v(j)
        )
