"""The row-tile runner and every gain pass that goes through it.

Each dense matrix, cached transpose, CSR triple and pruned bound built
band by band on the tile pool must equal, bit for bit, one
``_gain_block`` over every row (pruned by one ``_prune_tile`` call),
however the rows are split.  ``TASK_ENTRIES`` is lowered so that small
instances split into many bands whose last one is short.  The runner
itself must carry the caller's context into its bands, surface a
band's error, and survive a fork.

Run these tests a second time pinned to one CPU (``taskset -c 0``) to
cover the inline path.
"""

import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from scipy import sparse as sp

from repro.core import tiles
from repro.core.gains import (
    DenseBackend,
    SparseBackend,
    _prune_tile,
    config_scope,
    default_config,
)
from repro.core.instance import Direction, Instance
from repro.core.interference import _gain_block
from repro.distributed.sharded import GainShard, shard_bounds
from repro.geometry.line import LineMetric
from repro.geometry.tree import TreeMetric
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower
from test_prune_rule import _straddles

#: Absolute src/ dir, so the subprocess imports the same repro tree no
#: matter what cwd pytest runs from.
SRC_DIR = str(pathlib.Path(tiles.__file__).resolve().parents[2])


def _line_instance(direction):
    """Unit links on an integer line: every gain value recurs, so
    pruned rows have ties straddling their cut."""
    metric = LineMetric(np.arange(2 * 151, dtype=float))
    return Instance(
        metric,
        np.arange(0, 2 * 151, 2),
        np.arange(1, 2 * 151, 2),
        direction=direction,
    )


def _shared_node_instance():
    """Bidirectional chain ``(i, i + 1)``: infinite mutual gains."""
    metric = LineMetric(np.cumsum(np.linspace(1.0, 2.0, 152)))
    return Instance(
        metric,
        np.arange(151),
        np.arange(1, 152),
        direction=Direction.BIDIRECTIONAL,
    )


def _tree_instance():
    """Leaves of a random weighted tree paired up."""
    rng = np.random.default_rng(4)
    size = 320
    parents = [int(rng.integers(0, k)) for k in range(1, size)]
    edges = [(k + 1, p, float(rng.uniform(0.5, 3.0))) for k, p in enumerate(parents)]
    metric = TreeMetric(size, edges)
    nodes = rng.permutation(size)[: 2 * 151]
    return Instance(
        metric, nodes[0::2], nodes[1::2], direction=Direction.DIRECTED
    )


INSTANCES = {
    "directed": lambda: random_uniform_instance(
        151, rng=5, direction=Direction.DIRECTED
    ),
    "bidirectional": lambda: random_uniform_instance(
        151, rng=6, direction=Direction.BIDIRECTIONAL
    ),
    "shared-node": _shared_node_instance,
    "line-directed": lambda: _line_instance(Direction.DIRECTED),
    "line-bidirectional": lambda: _line_instance(Direction.BIDIRECTIONAL),
    "tree": _tree_instance,
}


@pytest.fixture
def small_bands(monkeypatch):
    """Bands of 6 rows at n = 151: 26 of them, the last of one row."""
    monkeypatch.setattr(tiles, "TASK_ENTRIES", 6 * 151)
    assert tiles.row_bands(151, 151, 512)[-1] == (150, 151)


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype, a.shape, a.tobytes()


def _reference_matrices(instance, powers):
    idx = np.arange(instance.n)
    nodes = (
        (instance.receivers,)
        if instance.direction is Direction.DIRECTED
        else (instance.senders, instance.receivers)
    )
    return [_gain_block(instance, powers, w, idx, idx) for w in nodes]


def _dense_matrices(backend):
    if backend.directed:
        return [backend.gains_u], [backend.gains_ut]
    return [backend.gains_u, backend.gains_v], [backend.gains_ut, backend.gains_vt]


@pytest.mark.parametrize("kind", sorted(INSTANCES))
def test_dense_matrices_and_transposes_match_one_block(small_bands, kind):
    instance = INSTANCES[kind]()
    powers = SquareRootPower()(instance)
    want = _reference_matrices(instance, powers)
    matrices, transposes = _dense_matrices(DenseBackend.build(instance, powers))
    assert [_bits(m) for m in matrices] == [_bits(w) for w in want]
    assert [_bits(t) for t in transposes] == [_bits(w.T) for w in want]
    if kind == "shared-node":
        assert np.isinf(matrices[0]).any()


def test_instance_smaller_than_one_band():
    instance = random_uniform_instance(20, rng=2, direction=Direction.BIDIRECTIONAL)
    powers = SquareRootPower()(instance)
    assert len(tiles.row_bands(20, 20, 512)) == 1
    want = _reference_matrices(instance, powers)
    matrices, transposes = _dense_matrices(DenseBackend.build(instance, powers))
    assert [_bits(m) for m in matrices] == [_bits(w) for w in want]
    assert [_bits(t) for t in transposes] == [_bits(w.T) for w in want]


def _reference_csr(instance, powers, nodes, rows, epsilon):
    """One block over *rows*, pruned by one ``_prune_tile`` call."""
    gains = _gain_block(instance, powers, nodes, rows, np.arange(instance.n))
    keep, pruned = _prune_tile(gains, epsilon)
    kept_rows, kept_cols = np.nonzero(keep)
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(kept_rows, minlength=rows.size), out=indptr[1:])
    csr = sp.csr_matrix(
        (gains[kept_rows, kept_cols], kept_cols, indptr),
        shape=(rows.size, instance.n),
    )
    return csr, pruned


def _csr_bits(csr, pruned):
    return [_bits(a) for a in (csr.indptr, csr.indices, csr.data, pruned)]


def _endpoint_nodes(instance):
    if instance.direction is Direction.DIRECTED:
        return {"u": instance.receivers, "v": instance.receivers}
    return {"u": instance.senders, "v": instance.receivers}


@pytest.mark.parametrize("epsilon", [0.0, 1e-6, 0.05])
@pytest.mark.parametrize("kind", sorted(INSTANCES))
def test_sparse_build_matches_one_block(small_bands, kind, epsilon):
    instance = INSTANCES[kind]()
    powers = SquareRootPower()(instance)
    backend = SparseBackend.build(instance, powers, epsilon=epsilon)
    rows = np.arange(instance.n)
    for endpoint, nodes in _endpoint_nodes(instance).items():
        csr, pruned = _reference_csr(instance, powers, nodes, rows, epsilon)
        got = getattr(backend, f"_csr_{endpoint}")
        got_pruned = getattr(backend, f"pruned_mass_{endpoint}")
        assert _csr_bits(got, got_pruned) == _csr_bits(csr, pruned)


@pytest.mark.parametrize("epsilon", [0.0, 1e-6, 0.05])
@pytest.mark.parametrize("kind", ["bidirectional", "line-directed", "shared-node"])
def test_shard_rows_match_one_block(small_bands, kind, epsilon):
    instance = INSTANCES[kind]()
    powers = SquareRootPower()(instance)
    for lo, hi in shard_bounds(instance.n, 3):
        shard = GainShard(instance, powers, lo, hi, epsilon)
        for endpoint, nodes in _endpoint_nodes(instance).items():
            csr, pruned = _reference_csr(
                instance, powers, nodes, np.arange(lo, hi), epsilon
            )
            got = _csr_bits(shard._blk[endpoint], shard._pruned[endpoint])
            assert got == _csr_bits(csr, pruned)


def test_line_instance_has_straddling_ties():
    """The pruned line builds above reach ``_prune_tile``'s tie path."""
    instance = _line_instance(Direction.DIRECTED)
    powers = SquareRootPower()(instance)
    assert _straddles(_reference_matrices(instance, powers)[0], 0.05) > 0


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


def _bands(n=64, step=4):
    return n, n, step


def test_results_come_back_in_tile_order():
    got = tiles.map_row_tiles(lambda lo, hi: (lo, hi), *_bands())
    assert got == tiles.row_bands(*_bands())
    assert len(got) == 16


@pytest.mark.skipif(tiles.worker_count() < 2, reason="one CPU: bands run inline")
def test_bands_are_shared_between_the_caller_and_pool_threads():
    def task(lo, hi):
        time.sleep(0.005)
        return threading.current_thread().name

    names = tiles.map_row_tiles(task, *_bands())
    assert threading.current_thread().name in names
    assert any(name.startswith("repro-tiles") for name in names)


def test_one_cpu_runs_bands_inline(monkeypatch):
    monkeypatch.setattr(tiles, "worker_count", lambda: 1)
    caller = threading.current_thread()
    threads = tiles.map_row_tiles(
        lambda lo, hi: threading.current_thread(), *_bands()
    )
    assert all(thread is caller for thread in threads)


def test_nested_call_runs_inline_on_its_thread():
    def outer(lo, hi):
        here = threading.current_thread()
        inner = tiles.map_row_tiles(
            lambda a, b: threading.current_thread(), *_bands()
        )
        return all(thread is here for thread in inner)

    assert all(tiles.map_row_tiles(outer, *_bands()))


def test_bands_see_the_callers_errstate_and_config():
    def probe(lo, hi):
        time.sleep(0.002)
        try:
            np.float64(1.0) / np.float64(0.0)
        except FloatingPointError:
            return "raised", default_config().backend
        return "no error", default_config().backend

    def on_pool_thread(lo, hi):
        return (*probe(lo, hi), threading.current_thread().name.startswith("repro-tiles"))

    with np.errstate(all="raise"), config_scope(backend="sparse"):
        got = tiles.map_row_tiles(on_pool_thread, *_bands())
    assert [g[:2] for g in got] == [("raised", "sparse")] * 16
    assert any(g[2] for g in got) or tiles.worker_count() < 2
    # And the caller's settings do not stay behind on the pool threads.
    with np.errstate(divide="ignore"):
        got = tiles.map_row_tiles(probe, *_bands())
    assert got == [("no error", default_config().backend)] * 16


def test_a_band_error_propagates_after_every_band_stops():
    finished = []

    def task(lo, hi):
        time.sleep(0.002)
        if lo == 8:
            raise ValueError(f"band {lo}")
        finished.append(lo)
        return lo

    with pytest.raises(ValueError, match="band 8"):
        tiles.map_row_tiles(task, *_bands())
    settled = list(finished)
    time.sleep(0.05)
    assert finished == settled
    # The pool is still usable.
    assert tiles.map_row_tiles(lambda lo, hi: lo, *_bands()) == list(range(0, 64, 4))


def test_lazy_metric_matrix_is_computed_once_under_contention(small_bands):
    """Many builds at once on a fresh cached-matrix metric, with a
    short switch interval: the matrix is computed by one of them, and
    every build is bitwise the same."""
    calls = []

    class CountingLine(LineMetric):
        def _compute_matrix(self):
            calls.append(threading.get_ident())
            time.sleep(0.01)
            return super()._compute_matrix()

    metric = CountingLine(np.arange(400, dtype=float))
    instance = Instance(
        metric, np.arange(0, 400, 2), np.arange(1, 400, 2),
        direction=Direction.DIRECTED,
    )
    powers = SquareRootPower()(instance)
    # Measuring the links filled the cache; every build below must
    # find it empty.
    metric._matrix_cache = None
    calls.clear()
    results = [None] * 8

    def build(k):
        results[k] = DenseBackend.build(instance, powers).gains_u

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(calls) == 1
    assert len({_bits(r) for r in results}) == 1


def test_forked_child_builds_with_its_own_pool():
    """Build in the parent (its pool now has threads), fork, build in
    the child: the child must not wait on the parent's threads."""
    script = textwrap.dedent(
        """
        import os, sys
        import numpy as np
        from repro.core.gains import DenseBackend, SparseBackend
        from repro.instances.random_instances import random_uniform_instance
        from repro.power.oblivious import SquareRootPower

        instance = random_uniform_instance(1200, rng=1)
        powers = SquareRootPower()(instance)
        parent = DenseBackend.build(instance, powers).gains_ut.tobytes()
        pid = os.fork()
        if pid == 0:
            child = DenseBackend.build(instance, powers).gains_ut.tobytes()
            SparseBackend.build(instance, powers, epsilon=0.05)
            os._exit(0 if child == parent else 3)
        _, status = os.waitpid(pid, 0)
        sys.exit(os.waitstatus_to_exitcode(status))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        timeout=60,
    )
    assert proc.returncode == 0
