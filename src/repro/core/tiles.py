"""Row-tile runner: the full O(n²) passes that build or copy a gain
matrix, run a band of rows at a time on every CPU.

Every such pass (the dense builders of :mod:`repro.core.interference`,
the ε-pruned CSR assembly of :mod:`repro.core.gains` behind the sparse
and sharded backends, the dense backend's cached transposes) fills
independent row bands with elementwise NumPy work, which releases the
interpreter lock.  :func:`map_row_tiles` splits the rows into bands of
about :data:`TASK_ENTRIES` entries and returns their results in band
order.  The caller and the threads of a process-wide
:class:`~concurrent.futures.ThreadPoolExecutor` (one fewer than the
CPUs the process may run on) claim the bands in order, one at a time,
until none is left.  A band computes exactly what it would compute
serially (each output row depends on its own row alone), so a build is
bit for bit the same however its rows are split and on however many
threads.

* The bands run inline, in order, when there is one band or one CPU,
  or when the caller is itself running a band (a nested build).
* Pool threads run their bands in a copy of the caller's
  :mod:`contextvars` context (:func:`repro.core.gains.config_scope` is
  a context variable, which pool threads do not otherwise inherit) and
  under the caller's ``np.errstate`` (a context variable in NumPy 2,
  thread-local before).
* A band's exception stops further claims and is raised once every
  band still running has finished (the first failed band in band order
  wins); the pool stays usable.
* A forked child drops the parent's pool (its threads do not exist in
  the child) and creates its own on first use.
* Bands stay small (about 1 MB of float64 each) because glibc keeps
  the scratch a thread frees in that thread's arena: wider bands, or a
  pool thread for every CPU while the caller waits, raise the peak RSS
  of every later phase of the process.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Tuple, TypeVar

import numpy as np

__all__ = ["TASK_ENTRIES", "map_row_tiles", "row_bands", "worker_count"]

T = TypeVar("T")

#: Target output entries per band: 64 rows at ``n = 2048``.
TASK_ENTRIES = 1 << 17

_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None
#: ``_running.band`` is true on a thread while it runs bands.
_running = threading.local()


def worker_count() -> int:
    """CPUs this process may run on: the caller and the pool's
    threads together."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def row_bands(rows: int, width: int, tile_rows: int) -> List[Tuple[int, int]]:
    """``[lo, hi)`` bands covering ``range(rows)``: at most *tile_rows*
    rows each and about :data:`TASK_ENTRIES` entries of a
    *width*-column output."""
    step = max(1, min(int(tile_rows), TASK_ENTRIES // max(int(width), 1)))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(1, worker_count() - 1),
                thread_name_prefix="repro-tiles",
            )
        return _pool


def _forget_pool() -> None:
    global _pool, _lock
    _pool = None
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def map_row_tiles(
    task: Callable[[int, int], T], rows: int, width: int, tile_rows: int
) -> List[T]:
    """``[task(lo, hi) for lo, hi in row_bands(rows, width, tile_rows)]``,
    the bands shared out between the caller and the pool's threads
    (see the module docstring for when they run inline)."""
    bands = row_bands(rows, width, tile_rows)
    helpers = min(worker_count(), len(bands)) - 1
    if helpers <= 0 or getattr(_running, "band", False):
        return [task(lo, hi) for lo, hi in bands]
    results: List[Optional[T]] = [None] * len(bands)
    failures: List[Tuple[int, BaseException]] = []
    claim = itertools.count()  # next() is atomic: each band runs once

    def drain() -> None:
        _running.band = True
        try:
            while not failures:
                k = next(claim)
                if k >= len(bands):
                    return
                try:
                    results[k] = task(*bands[k])
                except BaseException as exc:
                    failures.append((k, exc))
        finally:
            _running.band = False

    errors = np.geterr()

    def helper() -> None:
        with np.errstate(**errors):
            drain()

    pool = _shared_pool()
    futures = [
        pool.submit(contextvars.copy_context().run, helper)
        for _ in range(helpers)
    ]
    try:
        drain()
    finally:
        # No band may still be running into the caller's output once
        # this call returns, on an error or an interrupt alike.
        wait(futures)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
