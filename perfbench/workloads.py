"""The four workloads and their seeded inputs.

A workload is a fixed set of ``INSTANCES[workload]`` instances, all
drawn from the workload seed: instance ``i`` comes from the generator
seeded with ``(seed, i)``.  Each is a constant-density random geometric
instance with directed links (the paper's setting, under the oblivious
square-root powers), plus ``sqrt_coloring``'s rng seed on
``paper_sqrt`` and the arrival order on ``churn_serve``.  The library
receives only these generated inputs.

A *round* is one complete use of the library on one instance: set up a
session from a fresh instance, run the workload's operations, check
every output with the exact-SINR oracle and tear everything down.  A
*pass* runs one round per instance.  Several instances per pass average
out how much one random instance's schedule length and solve time
depend on its geometry and on ``sqrt_coloring``'s coin flips.
"""

from __future__ import annotations

import asyncio
import collections
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from perfbench import oracle
from perfbench.spans import Tracer

ALPHA = 3.0
BETA = 1.0
#: Longest link, in the same unit as the square's side ``2 sqrt(n)``.
MAX_LINK = 4.0

#: Workload sizes (requests) and instances per pass; a pass takes
#: about 17-23 s on a 2-CPU machine.  See ``perfbench/README.md`` for why.
DENSE_N = 2048
SQRT_N = 256
PRUNED_N = 2048
PRUNED_EPSILON = 0.05
#: Both pruned first-fits run this often per session: set-up (worker
#: spawn and builds) is five times the solve, and one solve per round
#: left too few solve samples in a run to be steady.
PRUNED_REPEATS = 3
SHARD_WORKERS = 2
CHURN_ACTIVE = 1024
CHURN_POOL = 2048
CHURN_ARRIVALS = 2048
CHURN_CLIENTS = 2
INSTANCES = {
    "dense_batch": 11,
    "paper_sqrt": 72,
    "pruned_first_fit": 6,
    "churn_serve": 4,
}
#: Warm-up rounds (untimed) run every code path once at this size.
WARMUP_N = 64


@dataclass(frozen=True)
class Links:
    """``n`` directed links between ``2n`` distinct points: link ``i``
    sends from point ``2i`` to point ``2i + 1``."""

    points: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray

    @property
    def n(self) -> int:
        return int(self.senders.size)

    def instance(self, links: Optional[np.ndarray] = None):
        """A fresh library instance over a fresh metric (so no cached
        distance matrix or interference context carries over), holding
        the given *links* (all by default)."""
        from repro.core.instance import Instance
        from repro.geometry.euclidean import EuclideanMetric

        idx = np.arange(self.n) if links is None else np.asarray(links)
        return Instance(
            EuclideanMetric(self.points),
            self.senders[idx],
            self.receivers[idx],
            direction="directed",
            alpha=ALPHA,
            beta=BETA,
        )

    def check(self, senders, receivers, colors, powers) -> oracle.OracleReport:
        return oracle.check_schedule(
            self.points, senders, receivers, colors, ALPHA, BETA, powers=powers
        )


def make_links(n: int, rng: np.random.Generator) -> Links:
    """Uniform senders in a square of side ``2 sqrt(n)`` (constant node
    density); each receiver at a uniform angle and a uniform length up
    to :data:`MAX_LINK`, clipped to the square."""
    side = 2.0 * float(np.sqrt(n))
    max_len = min(side, MAX_LINK)
    tx = rng.uniform(0.0, side, size=(n, 2))
    rx = np.empty_like(tx)
    todo = np.arange(n)
    while todo.size:
        angle = rng.uniform(0.0, 2.0 * np.pi, size=todo.size)
        length = rng.uniform(1e-3 * side, max_len, size=todo.size)
        step = length[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        rx[todo] = np.clip(tx[todo] + step, 0.0, side)
        gap = np.linalg.norm(rx[todo] - tx[todo], axis=1)
        todo = todo[gap <= 1e-9 * side]
    points = np.empty((2 * n, 2))
    points[0::2] = tx
    points[1::2] = rx
    index = np.arange(n)
    return Links(points, 2 * index, 2 * index + 1)


@dataclass(frozen=True)
class Inputs:
    links: Links
    #: ``sqrt_coloring``'s rng seed (``paper_sqrt``).
    rng_seed: int = 0
    #: Pool positions: the first ``active`` are the initial requests,
    #: the rest (cycling) is the arrival stream (``churn_serve``).
    order: Optional[np.ndarray] = None
    active: int = 0
    arrivals: int = 0


def make_inputs(
    workload: str, seed: int, index: int = 0, warmup: bool = False
) -> Inputs:
    """Instance *index* of the workload, a pure function of
    ``(workload, seed, index)``."""
    rng = np.random.default_rng([seed, index])
    if workload == "churn_serve":
        pool = WARMUP_N if warmup else CHURN_POOL
        links = make_links(pool, rng)
        return Inputs(
            links,
            order=rng.permutation(pool),
            active=pool // 2,
            arrivals=pool if warmup else CHURN_ARRIVALS,
        )
    n = {"dense_batch": DENSE_N, "paper_sqrt": SQRT_N, "pruned_first_fit": PRUNED_N}
    links = make_links(WARMUP_N if warmup else n[workload], rng)
    return Inputs(links, rng_seed=int(rng.integers(2**63 - 1)))


def arrival_stream(inputs: Inputs) -> np.ndarray:
    """Pool link of every arrival: the pool order, cycled, starting
    after the initial requests, so a departed link later re-arrives."""
    k = np.arange(inputs.arrivals)
    return inputs.order[(inputs.active + k) % inputs.order.size]


# ----------------------------------------------------------------------
# Round results
# ----------------------------------------------------------------------


@dataclass
class Call:
    """One ``Session.schedule`` call."""

    algorithm: str
    wall_s: float
    provenance_s: float
    requests: int
    flip_risk_events: int
    peel_risk_events: int


@dataclass
class Round:
    setup_s: float = 0.0
    calls: List[Call] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    loop_s: float = 0.0
    admitted: int = 0
    colors: int = 0
    checked: int = 0
    violations: int = 0
    worst_margin: float = float("inf")
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    outputs: List[np.ndarray] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)
    #: churn_serve: admitted uid -> latency, deepest queue seen, rejections.
    uid_latency: Dict[int, float] = field(default_factory=dict)
    queue_depth_max: int = 0
    rejected: int = 0

    @property
    def solve_s(self) -> float:
        return sum(call.wall_s for call in self.calls)

    @property
    def work_s(self) -> float:
        return self.setup_s + self.solve_s + self.loop_s

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def record_check(self, report: oracle.OracleReport, exact: bool, what: str):
        self.checked += report.requests
        self.violations += report.violations
        self.worst_margin = min(self.worst_margin, report.worst_margin)
        if report.power_mismatches:
            self.problems.append(
                f"{what}: {report.power_mismatches} powers differ from the "
                "square-root assignment"
            )
            return False
        if exact and report.violations:
            self.problems.append(
                f"{what}: {report.violations}/{report.requests} requests "
                f"below beta (worst margin {report.worst_margin:.6g})"
            )
            return False
        return True


def _schedule(out: Round, session, algorithm: str, **params):
    """Run and time one ``Session.schedule`` call; a raising call is a
    failed operation (reported, never fatal to the run)."""
    out.attempted += 1
    start = time.perf_counter()
    try:
        result = session.schedule(algorithm, **params)
    except Exception:
        out.fail(f"{algorithm} raised:\n{traceback.format_exc()}")
        return None
    wall = time.perf_counter() - start
    prov = result.provenance
    out.calls.append(
        Call(
            algorithm,
            wall,
            prov.wall_seconds,
            result.instance.n,
            prov.flip_risk_events,
            prov.peel_risk_events,
        )
    )
    out.colors += result.num_colors
    out.outputs.append(np.asarray(result.colors))
    return result


def _check_result(out: Round, links: Links, result, exact: bool) -> bool:
    """Oracle-check a batch result over the links it was asked to
    schedule (all of *links*, in order); a failed check fails the
    operation."""
    inst = result.instance
    if not (
        np.array_equal(inst.senders, links.senders)
        and np.array_equal(inst.receivers, links.receivers)
    ):
        out.fail(f"{result.provenance.algorithm}: scheduled other requests")
        return False
    report = links.check(links.senders, links.receivers, result.colors, result.powers)
    if not out.record_check(report, exact, result.provenance.algorithm):
        out.failed += 1
        return False
    return True


def _backend_layer(out: Round, backends, active: Optional[int] = None) -> None:
    rows = sum(b.n for b in backends)
    out.layer["gains.bytes"] = float(sum(b.nbytes for b in backends))
    out.layer["gains.density"] = sum(b.nnz for b in backends) / float(
        sum(b.n * b.n for b in backends)
    )
    out.layer["gains.storage_rows"] = float(rows)
    out.layer["gains.live_fraction"] = (rows if active is None else active) / rows


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------


def dense_batch(inputs: Inputs, tracer: Optional[Tracer]) -> Round:
    """first_fit, local_search seeded from it, then peeling, on the
    exact dense backend."""
    from repro.api import Problem

    out = Round()
    links = inputs.links
    instance = links.instance()
    start = time.perf_counter()
    session = Problem(instance, backend="dense").session()
    session.context.backend
    out.setup_s = time.perf_counter() - start
    first = _schedule(out, session, "first_fit")
    if first is not None:
        _check_result(out, links, first, exact=True)
        improved = _schedule(out, session, "local_search", schedule=first)
        if improved is not None:
            _check_result(out, links, improved, exact=True)
    peeled = _schedule(out, session, "peeling")
    if peeled is not None:
        _check_result(out, links, peeled, exact=True)
    if tracer is not None:
        with tracer.paused():
            _backend_layer(out, [session.context.backend])
    return out


def paper_sqrt(inputs: Inputs, tracer: Optional[Tracer]) -> Round:
    """The paper's sqrt_coloring (Theorem 15) on the exact dense
    backend, with a seeded rng."""
    from repro.api import Problem

    out = Round()
    links = inputs.links
    instance = links.instance()
    start = time.perf_counter()
    session = Problem(instance, backend="dense").session()
    session.context.backend
    out.setup_s = time.perf_counter() - start
    rng = np.random.default_rng(inputs.rng_seed)
    result = _schedule(out, session, "sqrt_coloring", rng=rng)
    if result is not None:
        _check_result(out, links, result, exact=True)
    if tracer is not None:
        with tracer.paused():
            _backend_layer(out, [session.context.backend])
    return out


def pruned_first_fit(inputs: Inputs, tracer: Optional[Tracer]) -> Round:
    """ε-pruned first_fit in process (sparse) and over two process
    shard workers (sharded) on the same instance, ``PRUNED_REPEATS``
    times on the same two sessions; the two colorings must be
    identical."""
    from repro.api import Problem

    out = Round()
    links = inputs.links
    local_instance, sharded_instance = links.instance(), links.instance()
    backend = None
    start = time.perf_counter()
    try:
        local = Problem(
            local_instance, backend="sparse", sparse_epsilon=PRUNED_EPSILON
        ).session()
        local.context.backend
        sharded = Problem(
            sharded_instance,
            backend="sharded",
            sparse_epsilon=PRUNED_EPSILON,
            workers=SHARD_WORKERS,
            shard_executor="process",
        ).session()
        backend = sharded.context.backend
        out.setup_s = time.perf_counter() - start
        pids = backend.executor.worker_pids()
        for _ in range(PRUNED_REPEATS):
            first = _schedule(out, local, "first_fit")
            if first is not None:
                _check_result(out, links, first, exact=False)
            spread = _schedule(out, sharded, "first_fit_sharded")
            if spread is not None and _check_result(out, links, spread, exact=False):
                if first is not None and not np.array_equal(
                    first.colors, spread.colors
                ):
                    out.fail("first_fit_sharded coloring differs from sparse first_fit")
        if tracer is not None:
            with tracer.paused():
                _backend_layer(out, [local.context.backend])
                now = backend.executor.worker_pids()
                out.layer["transport.respawns"] = float(
                    sum(a != b for a, b in zip(pids, now))
                )
                out.layer["shards.worker_rss_mb_max"] = max(
                    float(h["peak_rss_mb"]) for h in backend.worker_health()
                )
                out.layer["sharded_requests"] = float(
                    sum(c.requests for c in out.calls
                        if c.algorithm == "first_fit_sharded")
                )
    finally:
        if backend is not None:
            backend.close()
    return out


# ----------------------------------------------------------------------
# Online workload
# ----------------------------------------------------------------------


async def _closed_loop(
    out: Round, session, pairs, stream, link_of: Dict[int, int], clients: int
) -> List[Any]:
    """``clients`` concurrent closed-loop clients submit the stream
    through one ScheduleServer session; every admission departs the
    oldest active request.  Returns the surviving handles and records
    each admitted uid's link in *link_of*."""
    from repro.serve import ScheduleServer, ServeConfig

    name = "cell"
    active = collections.deque(session.handles)
    position = 0

    async def client(server) -> None:
        nonlocal position
        while position < stream.size:
            link = int(stream[position])
            position += 1
            out.queue_depth_max = max(out.queue_depth_max, server.pending(name))
            out.attempted += 1
            start = time.perf_counter()
            try:
                decision = await server.submit(name, pairs[link])
            except Exception:
                out.fail(f"arrival of link {link} raised:\n{traceback.format_exc()}")
                continue
            latency = time.perf_counter() - start
            if not decision.accepted:
                out.rejected += 1
                out.fail(f"arrival of link {link} rejected: {decision.reason}")
                continue
            out.latencies_s.append(latency)
            out.uid_latency[decision.handle.uid] = latency
            link_of[decision.handle.uid] = link
            out.admitted += 1
            active.append(decision.handle)
            server.remove(name, active.popleft())

    async with ScheduleServer(ServeConfig()) as server:
        server.add_session(name, session)
        start = time.perf_counter()
        await asyncio.gather(*(client(server) for _ in range(clients)))
        out.loop_s = time.perf_counter() - start
    return list(active)


def churn_serve(inputs: Inputs, tracer: Optional[Tracer]) -> Round:
    """A live dense session with ``CHURN_ACTIVE`` requests under
    closed-loop arrive/depart churn through ``repro.serve``, then one
    batch first_fit re-plan of the surviving requests."""
    from repro.api import Problem

    out = Round()
    links = inputs.links
    initial = inputs.order[: inputs.active]
    pairs = list(zip(links.senders.tolist(), links.receivers.tolist()))
    instance = links.instance(initial)
    start = time.perf_counter()
    session = Problem(instance, backend="dense").session()
    session.context.backend
    session.ensure_live()
    out.setup_s = time.perf_counter() - start

    # Initial requests get uids 0 .. active-1 in instance order.
    link_of = {uid: int(link) for uid, link in enumerate(initial)}
    active = asyncio.run(
        _closed_loop(
            out, session, pairs, arrival_stream(inputs), link_of, CHURN_CLIENTS
        )
    )

    # The live schedule over the surviving requests, checked per uid.
    held = np.array([link_of[h.uid] for h in active])
    live = np.array([session.color_of(h) for h in active])
    report = links.check(links.senders[held], links.receivers[held], live, None)
    if not out.record_check(report, True, "live schedule"):
        out.failed += 1
    out.colors += int(np.unique(live).size)
    out.outputs.append(live)
    if tracer is not None:
        with tracer.paused():
            _backend_layer(out, [session.context.backend], active=len(active))

    replan = _schedule(out, session, "first_fit")
    if replan is not None:
        got = sorted(zip(replan.instance.senders.tolist(),
                         replan.instance.receivers.tolist()))
        want = sorted((pairs[link] for link in held))
        if got != want:
            out.fail("re-plan scheduled other requests than the active ones")
        else:
            rep = links.check(
                replan.instance.senders,
                replan.instance.receivers,
                replan.colors,
                replan.powers,
            )
            if not out.record_check(rep, True, "re-plan first_fit"):
                out.failed += 1
    return out


ROUNDS = {
    "dense_batch": dense_batch,
    "paper_sqrt": paper_sqrt,
    "pruned_first_fit": pruned_first_fit,
    "churn_serve": churn_serve,
}
