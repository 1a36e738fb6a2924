"""Pluggable executors for long-lived *shard actors*.

The orchestrator (:mod:`repro.runner.orchestrator`) fans independent,
run-to-completion shard functions over a ``ProcessPoolExecutor``.  The
distributed data plane (:mod:`repro.distributed`) needs something the
pool cannot express: W long-lived workers, each *owning* state built
once from a per-worker payload (a block-row of the gain matrix, a slice
of protocol requests) and answering many small method calls against it.
:class:`ShardExecutor` names that contract, with two implementations:

* :class:`SerialShardExecutor` — the actors live in the calling
  process.  Zero transport, deterministic by construction; the
  conformance reference and the default for tests.
* :class:`ProcessShardExecutor` — one OS process per worker, speaking a
  length-delimited pickle protocol over a duplex
  :func:`multiprocessing.Pipe`.  A worker that dies mid-call (crash,
  ``SIGKILL``, OOM) is respawned from its original ``(factory,
  payload)`` under a :class:`repro.resilience.RetryPolicy` and the
  in-flight call is replayed — the same self-healing contract the
  PR-8 orchestrator applies to run-to-completion shards, applied here
  to resident actors.

Determinism contract
--------------------

Executors never generate randomness: any seeding must arrive *inside*
the payloads (derive it with
:func:`repro.runner.spec.derive_shard_seed`), so an actor rebuilt after
a crash is bit-identical to the one it replaces and replayed calls
return exactly what the lost call would have.  ``broadcast``/``scatter``
results always come back in worker order regardless of completion
order, mirroring the mergeable-aggregate rule (shard-order concat) of
:func:`repro.runner.spec.merge_tables`.
"""

from __future__ import annotations

import abc
import atexit
import os
import sys
import threading
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.resilience import RetryPolicy, ShardFailure

__all__ = [
    "ShardExecutor",
    "SerialShardExecutor",
    "ProcessShardExecutor",
    "ShardExecutorError",
    "SHARD_EXECUTORS",
    "build_shard_executor",
]

#: Registered executor names (see :func:`build_shard_executor`).
SHARD_EXECUTORS = ("serial", "process")

#: What a shard worker imports before it can build: numpy and
#: ``scipy.sparse`` for the gain shards, this module for the worker
#: loop, and :mod:`repro.distributed.sharded`, whose package import
#: brings in :mod:`repro.distributed.protocol` (e11's node blocks) and
#: the rest of repro.  The fork server imports them once; every worker
#: forks from it with them loaded.
WORKER_PRELOAD = (
    "numpy",
    "scipy.sparse",
    "repro.runner.executors",
    "repro.distributed.sharded",
)

_fork_server_lock = threading.Lock()
#: Pid of the process that started the fork server (``None`` before).
_fork_server_owner: Optional[int] = None

#: Transport errors that mean "the worker process is gone" (as opposed
#: to an exception *inside* the actor method, which is deterministic
#: and therefore never retried).
_TRANSPORT_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError, OSError)


class ShardExecutorError(RuntimeError):
    """A worker could not complete a call.

    ``failure`` carries the structured :class:`repro.resilience.ShardFailure`
    record (worker index in ``shard_index``) for quarantine-style
    reporting.
    """

    def __init__(self, message: str, failure: Optional[ShardFailure] = None):
        super().__init__(message)
        self.failure = failure


class ShardPost:
    """One scatter in flight, from :meth:`ShardExecutor.post` to
    :meth:`ShardExecutor.collect`: the per-worker arguments, which
    workers were sent them, and, once received, the replies in worker
    order (or the first worker error, raised by ``collect``)."""

    __slots__ = ("method", "args", "sent", "replies", "error")

    def __init__(self, method: str, args: List[Tuple[Any, ...]]):
        self.method = method
        self.args = args
        self.sent = [False] * len(args)
        self.replies: Optional[List[Any]] = None
        self.error: Optional[BaseException] = None


class ShardExecutor(abc.ABC):
    """W long-lived actors, one per worker, addressed by method calls.

    Lifecycle: :meth:`start` builds actor ``k`` as ``factory(payloads[k])``;
    :meth:`call`/:meth:`broadcast`/:meth:`scatter` invoke actor methods;
    :meth:`close` tears everything down (idempotent).  A scatter splits
    into :meth:`post`, which sends every worker its request and returns
    at once, and :meth:`collect`, which returns the replies **in worker
    order**; ``scatter`` is ``collect(post(...))``.  At most one post is
    outstanding: a later call or post first receives its replies and
    keeps them for that post's own ``collect``, so no caller reads
    another caller's reply; ``close`` drops them.
    """

    @property
    @abc.abstractmethod
    def workers(self) -> int:
        """Number of workers (fixed at construction)."""

    @abc.abstractmethod
    def start(
        self, factory: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> None:
        """Build one actor per worker from ``factory(payload)``.

        ``len(payloads)`` must equal :attr:`workers`.  May only be
        called once per executor.
        """

    @abc.abstractmethod
    def call(self, worker: int, method: str, *args: Any) -> Any:
        """Invoke ``actor.<method>(*args)`` on one worker and return
        its result."""

    def broadcast(self, method: str, *args: Any) -> List[Any]:
        """Invoke the same call on every worker; results in worker
        order.  Process implementations overlap the workers' compute."""
        return self.scatter(method, [args] * self.workers)

    def scatter(
        self, method: str, per_worker_args: Sequence[Tuple[Any, ...]]
    ) -> List[Any]:
        """Invoke ``actor.<method>(*per_worker_args[k])`` on worker
        ``k``; results in worker order."""
        return self.collect(self.post(method, per_worker_args))

    def post(
        self, method: str, per_worker_args: Sequence[Tuple[Any, ...]]
    ) -> ShardPost:
        """Start a scatter; :meth:`collect` returns its results or
        raises its first worker error.  The base implementation answers
        at once, through :meth:`call`."""
        post = ShardPost(method, self._per_worker(per_worker_args))
        try:
            post.replies = [
                self.call(k, method, *args) for k, args in enumerate(post.args)
            ]
        except Exception as exc:  # noqa: BLE001 - raised by collect
            post.error = exc
        return post

    def collect(self, post: ShardPost) -> List[Any]:
        """The results of *post*, in worker order."""
        if post.error is not None:
            raise post.error
        if post.replies is None:
            raise RuntimeError("executor closed before the post was collected")
        return post.replies

    def _per_worker(
        self, per_worker_args: Sequence[Tuple[Any, ...]]
    ) -> List[Tuple[Any, ...]]:
        if len(per_worker_args) != self.workers:
            raise ValueError(
                f"scatter needs one argument tuple per worker "
                f"({self.workers}), got {len(per_worker_args)}"
            )
        return [tuple(args) for args in per_worker_args]

    @abc.abstractmethod
    def close(self) -> None:
        """Tear down all workers (idempotent; safe after failures)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialShardExecutor(ShardExecutor):
    """In-process actors: the conformance reference.

    Every call is a plain method invocation, so a serial run is the
    ground truth a process run must match bit-for-bit (all repro actors
    are deterministic functions of their payload).
    """

    name = "serial"

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = int(workers)
        self._actors: Optional[List[Any]] = None

    @property
    def workers(self) -> int:
        return self._workers

    def start(
        self, factory: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> None:
        if self._actors is not None:
            raise RuntimeError("executor already started")
        if len(payloads) != self._workers:
            raise ValueError(
                f"need one payload per worker ({self._workers}), "
                f"got {len(payloads)}"
            )
        self._actors = [factory(payload) for payload in payloads]

    def call(self, worker: int, method: str, *args: Any) -> Any:
        if self._actors is None:
            raise RuntimeError("executor not started")
        return getattr(self._actors[worker], method)(*args)

    def close(self) -> None:
        self._actors = None


def _pipe_worker_main(conn, factory):  # pragma: no cover - child
    """Child-process loop: receive the payload, build the actor, answer
    calls until EOF.

    Runs in the worker process (coverage does not see it).  The payload
    is the first message on the pipe, not a ``Process`` argument (see
    :class:`ProcessShardExecutor`).  Errors raised by the factory or by
    actor methods are reported back as ``("err", ...)`` — they are
    deterministic and must surface in the parent, never trigger a
    respawn.
    """
    try:
        payload = conn.recv()
    except _TRANSPORT_ERRORS:
        return  # the parent gave up before sending it
    try:
        actor = factory(payload)
    except BaseException as exc:  # noqa: BLE001 - reported to parent
        try:
            conn.send(("err", type(exc).__name__, f"actor build failed: {exc}"))
        except _TRANSPORT_ERRORS:
            pass
        return
    try:
        conn.send(("ok", None))  # build handshake
    except _TRANSPORT_ERRORS:
        return
    while True:
        try:
            message = conn.recv()
        except _TRANSPORT_ERRORS:
            return
        if message is None:
            return
        method, args = message
        try:
            result = getattr(actor, method)(*args)
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            try:
                conn.send(("err", type(exc).__name__, str(exc)))
            except _TRANSPORT_ERRORS:
                return
            continue
        try:
            conn.send(("ok", result))
        except _TRANSPORT_ERRORS:
            return


def _ensure_fork_server() -> None:
    """Start this process's fork server, with :data:`WORKER_PRELOAD`
    imported in it, unless it is already running.

    Every :class:`ProcessShardExecutor` of the process, and the
    experiment orchestrator's pool, forks its workers from this one
    server, a single-threaded interpreter that paid for the imports
    once (the parent may run threads, such as the gain builds' tile
    pool, which a plain fork must not copy).  CPython (3.11–3.13)
    hands the server the parent's ``sys.path`` but never applies it,
    and skips a preload that fails to import without a word: repro,
    importable in a caller that put it on ``sys.path`` at run time,
    would not be preloaded.  So the server is started with the parent's
    ``sys.path`` as its ``PYTHONPATH``, set only for that start.
    Called before every start batch, so a server that died is started
    again, preloaded.  A process
    forked from the one that started the server inherits CPython's
    record of it, though the server is not its child and cannot fork
    for it: it forgets that record and starts a server of its own.
    """
    global _fork_server_owner
    from multiprocessing import forkserver

    with _fork_server_lock:
        if _fork_server_owner is None:
            atexit.register(_stop_fork_server)
        elif _fork_server_owner != os.getpid():
            server = forkserver._forkserver
            if server._forkserver_alive_fd is not None:
                os.close(server._forkserver_alive_fd)
            server._forkserver_alive_fd = None
            server._forkserver_address = None
            server._forkserver_pid = None
        _fork_server_owner = os.getpid()
        forkserver.set_forkserver_preload(list(WORKER_PRELOAD))
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            entry for entry in sys.path if isinstance(entry, str) and entry
        )
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved


def _stop_fork_server() -> None:
    """At exit, stop the fork server and reap it, so the process leaves
    no orphan behind for init to reap.  Shard workers still running are
    terminated first, as multiprocessing would terminate them anyway; a
    server that may still serve another child process is left alone."""
    import multiprocessing
    from multiprocessing import forkserver

    if _fork_server_owner != os.getpid():
        return  # not started here (or a forked copy of where it was)
    children = multiprocessing.active_children()
    if any(not child.name.startswith("repro-shard-") for child in children):
        return
    for child in children:
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():  # pragma: no cover - last resort
            child.kill()
            child.join()
    try:
        forkserver._forkserver._stop()
    except OSError:  # pragma: no cover - already reaped elsewhere
        pass


class ProcessShardExecutor(ShardExecutor):
    """One resident OS process per worker, self-healing under a
    :class:`~repro.resilience.RetryPolicy`.

    Workers are forked from the process's one fork server (see
    :func:`_ensure_fork_server`), which has numpy, ``scipy.sparse`` and
    repro already imported, so a worker starts in milliseconds without
    inheriting the parent's memory or threads.  They are daemons, and
    each exits when its pipe to the parent closes, so none outlives the
    parent; the fork server exits once the parent and every worker are
    gone.

    Start order: every worker is launched first, with only ``(conn,
    factory)`` as its ``Process`` arguments; then each is sent its
    payload over its own pipe; then the build handshakes are collected
    in worker order.  The workers' builds therefore overlap instead of
    running one after another.  The payload stays off the ``Process``
    arguments because ``Process.start`` writes those into the child's
    bootstrap pipe and returns only once it is written: a payload larger
    than the pipe buffer (a block row of gains easily is) would hold the
    parent until that child had read it.  A worker killed while starting
    (``SIGKILL``, OOM) is started again the same way under the retry
    policy; a build error, a worker that exits with a Python error
    during its bootstrap, or a payload that cannot be pickled fails
    :meth:`start` at once, and every worker it launched is reaped before
    the error propagates.

    A *transport* failure on a call — the pipe breaks because the
    worker crashed or was killed — rebuilds the actor through that same
    start path from its original ``(factory, payload)`` and replays the
    call, up to ``retry.max_attempts`` total attempts per call with
    ``retry.delay_before_retry`` backoff between them.  Exceptions
    raised *by the actor method* are re-raised in the parent as
    :class:`ShardExecutorError` without any retry (they are
    deterministic: a replay would fail identically).
    """

    name = "process"

    #: Default self-healing budget per call: the first attempt plus two
    #: respawn-and-replay attempts.
    DEFAULT_RETRY = RetryPolicy(max_attempts=3, base_delay=0.05)

    def __init__(self, workers: int, retry: Optional[RetryPolicy] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        import multiprocessing

        self._workers = int(workers)
        self._retry = self.DEFAULT_RETRY if retry is None else retry
        self._ctx = multiprocessing.get_context("forkserver")
        self._factory: Optional[Callable[[Any], Any]] = None
        self._payloads: Optional[List[Any]] = None
        self._conns: List[Any] = []
        self._procs: List[Any] = []
        self._outstanding: Optional[ShardPost] = None
        self._closed = False

    @property
    def workers(self) -> int:
        return self._workers

    # -- lifecycle -----------------------------------------------------

    def _start_workers(
        self, workers: Sequence[int], failures: Optional[Sequence[int]] = None
    ) -> List[Tuple[int, BaseException]]:
        """The one start path, for cold start and respawn alike: launch
        every worker in *workers*, then send each its payload, then
        collect the build handshakes in worker order.

        Returns the workers lost to a transport failure on the way (each
        already reaped) with their errors.  Deterministic failures raise
        :class:`ShardExecutorError` at once: a build error, and a worker
        that exited with a positive code (a Python error during its
        bootstrap — the main module could not be re-imported, or the
        factory could not be unpickled — which every retry would
        repeat).  A death by signal (negative code, e.g. an OOM
        ``SIGKILL``) is a transport failure.  *failures* counts each
        worker's earlier failed starts, for the error's attempt count.
        """
        _ensure_fork_server()
        for worker in workers:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=_pipe_worker_main,
                args=(child_conn, self._factory),
                daemon=True,
                name=f"repro-shard-{worker}",
            )
            proc.start()
            child_conn.close()
            self._conns[worker] = parent_conn
            self._procs[worker] = proc
        lost = {}
        for worker in workers:
            try:
                self._conns[worker].send(self._payloads[worker])
            except _TRANSPORT_ERRORS as exc:
                lost[worker] = exc
        for worker in workers:
            if worker in lost:
                continue
            # Build handshake: surfaces build errors eagerly and
            # guarantees the actor exists before the first real call.
            try:
                status = self._recv(worker)
            except _TRANSPORT_ERRORS as exc:
                lost[worker] = exc
                continue
            if status[0] != "ok":
                raise ShardExecutorError(
                    f"worker {worker} failed to build its actor: "
                    f"{status[1]}: {status[2]}"
                )
        exits = {}
        for worker in lost:
            # A lost worker is dead or dying: wait briefly for its exit
            # code (None if it hangs on; _reap terminates it).
            self._procs[worker].join(timeout=1.0)
            exits[worker] = self._procs[worker].exitcode
            self._reap(worker)
        for worker, code in sorted(exits.items()):
            if code is not None and code > 0:
                attempts = 1 + (failures[worker] if failures is not None else 0)
                raise ShardExecutorError(
                    f"worker {worker} exited with code {code} while "
                    "starting, before it could build its actor (a Python "
                    "error in the worker's bootstrap, e.g. the factory "
                    "could not be unpickled or the main module not "
                    "re-imported; the traceback is on the worker's "
                    "stderr); not retried",
                    failure=ShardFailure(
                        key="__build__",
                        shard_index=worker,
                        seed=None,
                        error_type="WorkerExit",
                        error=f"exit code {code}",
                        attempts=attempts,
                    ),
                ) from lost[worker]
        return sorted(lost.items())

    def start(
        self, factory: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> None:
        if self._factory is not None:
            raise RuntimeError("executor already started")
        if len(payloads) != self._workers:
            raise ValueError(
                f"need one payload per worker ({self._workers}), "
                f"got {len(payloads)}"
            )
        self._factory = factory
        self._payloads = list(payloads)
        self._conns = [None] * self._workers
        self._procs = [None] * self._workers
        try:
            self._start_with_retry()
        except BaseException:
            # Reap rather than close(): a worker still waiting for its
            # payload would take close()'s None sentinel as one.
            self._closed = True
            for worker in range(self._workers):
                self._reap(worker)
            raise

    def _start_with_retry(self) -> None:
        """Start every worker under the retry policy: a worker killed
        while *building* (e.g. OOM-killed mid-construction) is started
        again, each worker counting its own attempts; deterministic
        build and bootstrap errors surface immediately."""
        policy = self._retry
        failures = [0] * self._workers
        pending: Sequence[int] = range(self._workers)
        while pending:
            lost = self._start_workers(pending, failures)
            for worker, exc in lost:
                failures[worker] += 1
                if failures[worker] >= policy.max_attempts:
                    raise ShardExecutorError(
                        f"worker {worker} died while building its actor "
                        f"({failures[worker]}/{policy.max_attempts} "
                        f"attempts)",
                        failure=ShardFailure(
                            key="__build__",
                            shard_index=worker,
                            seed=None,
                            error_type=type(exc).__name__,
                            error=str(exc) or "worker process died",
                            attempts=failures[worker],
                        ),
                    ) from exc
            pending = [worker for worker, _ in lost]
            if pending:
                time.sleep(policy.delay_before_retry(max(failures)))

    def _reap(self, worker: int) -> None:
        proc = self._procs[worker]
        conn = self._conns[worker]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=5.0)
        self._conns[worker] = None
        self._procs[worker] = None

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._outstanding = None  # its workers are reaped below
        for worker, conn in enumerate(self._conns):
            if conn is None:
                continue
            try:
                conn.send(None)
            except _TRANSPORT_ERRORS:
                pass
        for worker in range(len(self._procs)):
            self._reap(worker)

    # -- calls ---------------------------------------------------------

    def _recv(self, worker: int) -> Any:
        """Receive one reply, polling so a worker that dies without the
        pipe EOFing in the parent (e.g. killed while another process
        still holds its end of the pipe) still raises a transport
        error instead of blocking forever."""
        conn = self._conns[worker]
        proc = self._procs[worker]
        while True:
            if conn.poll(0.05):
                return conn.recv()
            if proc is not None and not proc.is_alive():
                if conn.poll(0.0):  # reply raced the death
                    return conn.recv()
                raise EOFError(f"worker {worker} died before replying")

    def _ensure_alive(self, worker: int) -> None:
        if self._conns[worker] is None:
            lost = self._start_workers([worker])
            if lost:
                raise lost[0][1]

    def _attempt(self, worker: int, method: str, args: Tuple[Any, ...]) -> Any:
        """One send/recv attempt; raises a transport error on a dead
        worker, :class:`ShardExecutorError` on an actor exception."""
        self._ensure_alive(worker)
        self._conns[worker].send((method, args))
        return self._reply(worker, method, self._recv(worker))

    @staticmethod
    def _reply(worker: int, method: str, status: Tuple[Any, ...]) -> Any:
        """A worker's ``("ok", result)`` as its result; an
        ``("err", ...)`` as :class:`ShardExecutorError`."""
        if status[0] != "ok":
            raise ShardExecutorError(
                f"worker {worker} raised in {method!r}: "
                f"{status[1]}: {status[2]}",
                failure=ShardFailure(
                    key=method,
                    shard_index=worker,
                    seed=None,
                    error_type=status[1],
                    error=status[2],
                    attempts=1,
                ),
            )
        return status[1]

    def _call_with_retry(
        self, worker: int, method: str, args: Tuple[Any, ...]
    ) -> Any:
        if self._factory is None:
            raise RuntimeError("executor not started")
        if self._closed:
            raise RuntimeError("executor is closed")
        policy = self._retry
        failures = 0
        deadline = (
            None
            if policy.deadline is None
            else time.monotonic() + policy.deadline
        )
        while True:
            try:
                return self._attempt(worker, method, args)
            except _TRANSPORT_ERRORS as exc:
                failures += 1
                self._reap(worker)
                out_of_time = (
                    deadline is not None and time.monotonic() >= deadline
                )
                if failures >= policy.max_attempts or out_of_time:
                    raise ShardExecutorError(
                        f"worker {worker} died during {method!r} and the "
                        f"retry budget is exhausted "
                        f"({failures}/{policy.max_attempts} attempts)",
                        failure=ShardFailure(
                            key=method,
                            shard_index=worker,
                            seed=None,
                            error_type=type(exc).__name__,
                            error=str(exc) or "worker process died",
                            attempts=failures,
                        ),
                    ) from exc
                time.sleep(policy.delay_before_retry(failures))

    def call(self, worker: int, method: str, *args: Any) -> Any:
        self._drain()
        return self._call_with_retry(worker, method, args)

    def post(
        self, method: str, per_worker_args: Sequence[Tuple[Any, ...]]
    ) -> ShardPost:
        """Send every worker its request and return without waiting:
        the workers compute while the caller goes on.  (Before start or
        after close no worker is sent anything; collect raises.)"""
        post = ShardPost(method, self._per_worker(per_worker_args))
        self._drain()
        for worker, conn in enumerate(self._conns):
            if conn is None:
                continue  # replayed by _drain
            try:
                conn.send((method, post.args[worker]))
                post.sent[worker] = True
            except _TRANSPORT_ERRORS:
                self._reap(worker)
        self._outstanding = post
        return post

    def collect(self, post: ShardPost) -> List[Any]:
        if post is self._outstanding:
            self._drain()
        return super().collect(post)

    def _drain(self) -> None:
        """Receive the outstanding post's replies in worker order.  A
        worker lost before or during the post falls back to the serial
        respawn-and-replay path (with a fresh per-call retry budget);
        the first worker error is kept for the post's ``collect``."""
        post, self._outstanding = self._outstanding, None
        if post is None:
            return
        replies: List[Any] = [None] * self._workers
        for worker, args in enumerate(post.args):
            try:
                if post.sent[worker]:
                    try:
                        status = self._recv(worker)
                    except _TRANSPORT_ERRORS:
                        self._reap(worker)
                    else:
                        replies[worker] = self._reply(worker, post.method, status)
                        continue
                replies[worker] = self._call_with_retry(worker, post.method, args)
            except ShardExecutorError as exc:
                post.error = post.error or exc
        post.replies = replies

    def worker_pids(self) -> List[int]:
        """Live worker process ids (for fault-injection tests)."""
        return [
            proc.pid if proc is not None else -1 for proc in self._procs
        ]

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def build_shard_executor(
    name: Optional[str],
    workers: int,
    retry: Optional[RetryPolicy] = None,
) -> ShardExecutor:
    """Construct a registered executor by name.

    ``None`` resolves to the executor of
    :func:`repro.core.gains.default_config`.
    """
    if name is None:
        from repro.core.gains import default_config

        name = default_config().shard_executor
    name = str(name).strip().lower()
    if name == "serial":
        return SerialShardExecutor(workers)
    if name == "process":
        return ProcessShardExecutor(workers, retry=retry)
    raise ValueError(
        f"shard executor must be one of {SHARD_EXECUTORS}, got {name!r}"
    )


def _vm_hwm_mb(status: str) -> Optional[float]:
    """The ``VmHWM`` (peak resident set) line of a
    ``/proc/<pid>/status`` text, in MiB; ``None`` without one."""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    return None


def _current_rss_mb() -> float:
    """This process's peak RSS in MiB (actors expose it per worker).

    ``VmHWM`` where ``/proc`` has it: Linux carries ``ru_maxrss``
    across ``exec`` and into a forked child, so a worker's
    ``ru_maxrss`` can start at an ancestor's peak.  ``ru_maxrss``
    elsewhere."""
    try:
        with open("/proc/self/status") as handle:
            peak = _vm_hwm_mb(handle.read())
    except OSError:
        peak = None
    if peak is not None:
        return peak
    try:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return float(rss_kb) / 1024.0
    except Exception:  # pragma: no cover - non-POSIX fallback
        return float("nan")


def worker_identity() -> dict:
    """Identity/health record of the calling process — actors expose
    this verbatim so tests and benches can observe real process
    boundaries (pid) and per-worker memory (peak RSS)."""
    return {"pid": os.getpid(), "peak_rss_mb": _current_rss_mb()}
