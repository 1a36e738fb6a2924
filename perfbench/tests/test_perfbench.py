"""The benchmark's own tests: oracle, span arithmetic, seed discipline,
and the metric catalogue against BENCHMARK.json."""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import metrics, oracle, spans, workloads

ROOT = Path(__file__).resolve().parents[2]


def _links(n=48, seed=3):
    return workloads.make_links(n, np.random.default_rng(seed))


# -- exact-SINR oracle --------------------------------------------------


@pytest.mark.parametrize("algorithm", ["first_fit", "peeling"])
def test_oracle_agrees_with_validate_on_dense_outputs(algorithm):
    from repro.api import Problem

    links = _links()
    result = Problem(links.instance(), backend="dense").session().schedule(algorithm)
    result.validate()
    report = links.check(links.senders, links.receivers, result.colors, result.powers)
    assert report.violations == 0
    assert report.power_mismatches == 0
    assert report.requests == links.n
    assert report.classes == result.num_colors


def test_oracle_margins_match_the_library_and_flag_a_planted_violation():
    from repro.core.errors import InvalidScheduleError
    from repro.core.feasibility import sinr_margins
    from repro.core.schedule import Schedule

    links = _links()
    instance = links.instance()
    powers = oracle.sqrt_powers(
        links.points, links.senders, links.receivers, workloads.ALPHA
    )
    planted = np.zeros(links.n, dtype=int)  # everyone in one slot
    theirs = sinr_margins(instance, powers, colors=planted)
    ours = oracle.class_margins(
        links.points, links.senders, links.receivers, powers,
        workloads.ALPHA, workloads.BETA, 0.0,
    )
    np.testing.assert_allclose(ours, theirs, rtol=1e-9)
    report = links.check(links.senders, links.receivers, planted, powers)
    assert report.violations == int(np.count_nonzero(theirs < 1 - oracle.RTOL)) > 0
    assert report.worst_margin < 1
    with pytest.raises(InvalidScheduleError):
        Schedule(planted, powers).validate(instance)


def test_oracle_flags_powers_that_are_not_square_root():
    links = _links()
    colors = np.arange(links.n)  # one request per slot: always feasible
    powers = oracle.sqrt_powers(
        links.points, links.senders, links.receivers, workloads.ALPHA
    )
    clean = links.check(links.senders, links.receivers, colors, powers)
    assert (clean.violations, clean.power_mismatches) == (0, 0)
    powers[5] *= 1.01
    report = links.check(links.senders, links.receivers, colors, powers)
    assert report.power_mismatches == 1


# -- span arithmetic ----------------------------------------------------


def test_self_time_is_parent_minus_covered_children():
    spans_ = [
        spans.Span("p", "api", 0.0, 10.0, -1),
        spans.Span("a", "gains", 1.0, 3.0, 0),
        spans.Span("b", "gains", 2.0, 4.0, 0),  # overlaps a
        spans.Span("c", "kernels", 9.0, 12.0, 0),  # runs past the parent
        spans.Span("d", "kernels", 1.5, 2.5, 1),  # grandchild
    ]
    selfs = spans.self_times(spans_)
    # parent: 10 - |[1,4] u [9,10]| = 10 - 4
    assert selfs == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])
    assert spans.covered_length([], 0.0, 1.0) == 0.0


def test_outermost_counts_nested_entry_points_once():
    spans_ = [
        spans.Span("t.broadcast", "transport", 0.0, 2.0, -1),
        spans.Span("t.scatter", "transport", 0.5, 1.5, 0),
        spans.Span("t.scatter", "transport", 3.0, 4.0, -1),
    ]
    outer = spans.outermost(spans_, lambda s: s.layer == "transport")
    assert [s.start for s in outer] == [0.0, 3.0]


class _Thing:
    def work(self, x):
        return self.helper(x) + 1

    def helper(self, x):
        return 2 * x

    @classmethod
    def make(cls):
        return cls()


def test_instrumentation_records_parents_and_uninstalls():
    tracer = spans.Tracer()
    inst = spans.Instrumentation(tracer)
    originals = dict(vars(_Thing))
    inst.wrap(_Thing, "work", "api.work", "api")
    inst.wrap(_Thing, "helper", "kernels.helper", "kernels")
    inst.wrap(_Thing, "make", "gains.make", "gains")
    try:
        assert _Thing.make().work(3) == 7
        with tracer.paused():
            _Thing().work(1)
    finally:
        inst.uninstall()
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("gains.make", -1),
        ("api.work", -1),
        ("kernels.helper", 1),
    ]
    assert all(vars(_Thing)[k] is v for k, v in originals.items())


def test_payload_bytes_walks_containers():
    a = np.zeros(4)
    assert spans.payload_bytes(([a, (a, 1)], {"k": a}, "x")) == 3 * a.nbytes


# -- seed discipline ----------------------------------------------------


def _fingerprint(inputs):
    links = inputs.links
    parts = [links.points, links.senders, links.receivers]
    if inputs.order is not None:
        parts += [inputs.order, workloads.arrival_stream(inputs)]
    return b"".join(p.tobytes() for p in parts) + str(inputs.rng_seed).encode()


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = workloads.make_inputs(workload, 11, warmup=True)
    again = workloads.make_inputs(workload, 11, warmup=True)
    other = workloads.make_inputs(workload, 12, warmup=True)
    sibling = workloads.make_inputs(workload, 11, index=1, warmup=True)
    assert _fingerprint(first) == _fingerprint(again)
    assert _fingerprint(first) != _fingerprint(other)
    assert _fingerprint(first) != _fingerprint(sibling)


def test_churn_stream_cycles_the_pool_without_duplicating_an_active_link():
    inputs = workloads.make_inputs("churn_serve", 5)
    stream = workloads.arrival_stream(inputs)
    pool, active = inputs.order.size, inputs.active
    assert stream.size == workloads.CHURN_ARRIVALS
    # Rows stored by the end: initial requests plus one per arrival.
    assert active + stream.size <= 8192
    sequence = np.concatenate([inputs.order[:active], stream])
    # Each arrival joins the `active` requests admitted before it.
    for k in range(stream.size):
        assert np.unique(sequence[k : k + active + 1]).size == active + 1
    # A departed link re-arrives one pool length later.
    assert np.array_equal(sequence[pool:], sequence[: sequence.size - pool])


def test_links_are_local_and_distinct():
    links = _links(256)
    side = 2.0 * np.sqrt(256)
    lengths = np.linalg.norm(
        links.points[links.senders] - links.points[links.receivers], axis=1
    )
    assert np.all(lengths > 0) and np.all(lengths <= workloads.MAX_LINK + 1e-12)
    assert np.all((links.points >= 0) & (links.points <= side))
    assert np.unique(links.points, axis=0).shape[0] == 2 * links.n


# -- process lifetime ---------------------------------------------------


def test_stop_children_reaps_workers_and_the_resource_tracker():
    import multiprocessing
    import time
    from multiprocessing import resource_tracker

    from perfbench.run import stop_children

    worker = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(60,), daemon=True
    )
    worker.start()
    assert resource_tracker._resource_tracker._pid is not None
    stop_children()
    assert not worker.is_alive()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


# -- catalogue ----------------------------------------------------------


def test_benchmark_json_mirrors_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]
    setup = spec["end_to_end"][0]
    assert setup["name"] == "setup_s"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in metrics.PER_LAYER:
        for target, on in metric.targets:
            assert target in {m.name for m in metrics.END_TO_END}
            assert set(on) <= set(metrics.WORKLOADS)
