"""Span tracing from outside the library.

:class:`Tracer` keeps spans in memory: a name, the layer it belongs to,
start and end ``perf_counter`` stamps, the index of the span that was
open when it began (its parent, tracked per asyncio task through a
``contextvars.ContextVar``) and an optional tag.  :class:`Instrumentation`
installs the spans by wrapping the public entry points of each layer in
place and restores the originals on :meth:`Instrumentation.uninstall`.

A span's self time is its duration minus the part of its interval that
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

#: The layers spans are attributed to, in reporting order.
LAYERS = ("gains", "kernels", "scheduling", "api", "serve", "transport")

_CURRENT: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_span", default=-1
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    tag: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = True

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (the benchmark's own probes)."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def begin(self, name: str, layer: str) -> Tuple[Span, contextvars.Token]:
        span = Span(name, layer, time.perf_counter(), float("nan"), _CURRENT.get())
        index = len(self.spans)
        self.spans.append(span)
        return span, _CURRENT.set(index)

    def finish(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)

    def clear(self) -> None:
        self.spans = []


def covered_length(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered_length(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def outermost(spans: Sequence[Span], match: Callable[[Span], bool]) -> List[Span]:
    """Matching spans with no matching ancestor (so nested calls of one
    entry point are counted once)."""
    out = []
    for span in spans:
        if not match(span):
            continue
        parent = span.parent
        while parent >= 0 and not match(spans[parent]):
            parent = spans[parent].parent
        if parent < 0:
            out.append(span)
    return out


def payload_bytes(value: Any) -> int:
    """Bytes of the ndarrays inside *value* (tuples, lists and dicts are
    walked); what a pipe transport has to move besides pickle framing."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(payload_bytes(item) for item in value)
    if isinstance(value, dict):
        return sum(payload_bytes(item) for item in value.values())
    return 0


Annotate = Callable[[Span, tuple, dict, Any], None]


class Instrumentation:
    """Wraps library entry points in spans of one :class:`Tracer`."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        annotate: Optional[Annotate] = None,
        name_of: Optional[Callable[[tuple], str]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        *owner* is a module or a class; classmethods keep their kind.
        *name_of* derives the span name from the call's arguments.
        """
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            span, token = tracer.begin(
                name if name_of is None else name_of(args), layer
            )
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.finish(span, token)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def _tag_handles(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.tag = [handle.uid for handle in result]


def _tag_transport(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    method = span.name.rsplit(".", 1)[-1]
    executor = args[0]
    if method == "broadcast":
        sent = payload_bytes(args[2:]) * executor.workers
    elif method == "scatter":
        sent = payload_bytes(args[2])
    else:  # call(worker, method, *args)
        sent = payload_bytes(args[3:])
    span.tag = sent + payload_bytes(result)


def install(tracer: Tracer) -> Instrumentation:
    """Span every layer boundary the benchmark reports on."""
    # import_module, not ``import a.b as c``: repro.scheduling re-exports
    # a function under its submodule's name (sqrt_coloring).
    (capacity, api, gains, kernels, distributed, executors, firstfit,
     registry, sqrt_coloring, serve) = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "analysis.capacity",
            "api",
            "core.gains",
            "core.kernels",
            "distributed",
            "runner.executors",
            "scheduling.firstfit",
            "scheduling.registry",
            "scheduling.sqrt_coloring",
            "serve",
        )
    )

    inst = Instrumentation(tracer)
    for cls in (
        gains.DenseBackend,
        gains.ArrayBackend,
        gains.SparseBackend,
        distributed.ShardedBackend,
    ):
        inst.wrap(cls, "build", f"gains.{cls.__name__}.build", "gains")
        if "append_requests" in vars(cls):
            inst.wrap(
                cls, "append_requests", f"gains.{cls.__name__}.append_requests",
                "gains",
            )

    kernel = kernels.ScheduleKernel
    for attr in (
        "__init__",
        "from_colors",
        "extend_to",
        "first_fit_admit",
        "add",
        "remove",
        "move",
        "admissible_targets",
    ):
        inst.wrap(kernel, attr, f"kernels.{attr.strip('_')}", "kernels")
    inst.wrap(kernels, "first_fit_colors", "kernels.first_fit_colors", "kernels")
    inst.wrap(firstfit, "first_fit_colors", "kernels.first_fit_colors", "kernels")
    inst.wrap(
        kernels,
        "first_fit_colors_sharded",
        "kernels.first_fit_colors_sharded",
        "kernels",
    )
    for module in (kernels, capacity):
        inst.wrap(
            module,
            "peel_max_feasible_subset",
            "kernels.peel_max_feasible_subset",
            "kernels",
        )

    inst.wrap(
        registry.AlgorithmSpec,
        "run",
        "scheduling.run",
        "scheduling",
        name_of=lambda args: f"scheduling.{args[0].name}",
    )
    inst.wrap(sqrt_coloring, "linprog", "scheduling.lp", "scheduling")

    session = api.Session
    for attr in ("schedule", "remove_requests", "ensure_live", "rebuild"):
        inst.wrap(session, attr, f"api.{attr}", "api")
    inst.wrap(session, "add_requests", "api.add_requests", "api", _tag_handles)

    # Not add_session: the worker task it starts would inherit its span
    # as the parent of every admission.
    inst.wrap(serve.ScheduleServer, "remove", "serve.remove", "serve")

    for cls in (
        executors.ShardExecutor,
        executors.SerialShardExecutor,
        executors.ProcessShardExecutor,
    ):
        for attr in ("start", "call", "broadcast", "scatter"):
            func = vars(cls).get(attr)
            if func is None or getattr(func, "__isabstractmethod__", False):
                continue
            inst.wrap(
                cls,
                attr,
                f"transport.{attr}",
                "transport",
                None if attr == "start" else _tag_transport,
            )
    return inst
