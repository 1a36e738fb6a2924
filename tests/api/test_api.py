"""The Problem/Session/ScheduleResult facade and its batch entry points."""

import numpy as np
import pytest

from repro.api import BatchSession, Problem, ScheduleResult, Session, schedule_batch
from repro.core.batch import BatchFallbackInfo
from repro.core.context import cache_info, clear_context_cache
from repro.core.errors import InvalidScheduleError
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower, UniformPower
from repro.scheduling.firstfit import first_fit_schedule
from repro.scheduling.sqrt_coloring import sqrt_coloring


@pytest.fixture
def instance():
    return random_uniform_instance(12, rng=7)


@pytest.fixture
def powers(instance):
    return SquareRootPower()(instance)


class TestProblem:
    @pytest.mark.parametrize("backend", ["gpu", "array"])
    def test_bad_backend_fails_at_construction(self, instance, backend):
        with pytest.raises(ValueError, match="'dense', 'sparse', 'sharded'"):
            Problem(instance, backend=backend)

    def test_bad_epsilon_fails_at_construction(self, instance):
        with pytest.raises(ValueError, match="epsilon"):
            Problem(instance, sparse_epsilon=1.5)

    def test_session_from_instance_directly(self, instance):
        result = Session(instance).schedule("first_fit")
        assert isinstance(result, ScheduleResult)

    def test_default_powers_are_square_root(self, instance, powers):
        session = Problem(instance).session()
        np.testing.assert_array_equal(session.powers, powers)

    def test_assignment_powers(self, instance):
        session = Problem(instance, powers=UniformPower()).session()
        np.testing.assert_array_equal(
            session.powers, UniformPower()(instance)
        )


class TestSessionSchedule:
    def test_bit_identical_to_free_function(self, instance, powers):
        result = Problem(instance).session().schedule("first_fit")
        ref = first_fit_schedule(instance, powers)
        np.testing.assert_array_equal(result.colors, ref.colors)
        np.testing.assert_array_equal(result.powers, ref.powers)

    def test_result_properties_and_validate(self, instance):
        result = Problem(instance).session().schedule("first_fit")
        assert result.num_colors == result.schedule.num_colors
        assert result.validate() is result

    def test_provenance_fields(self, instance):
        result = (
            Problem(instance, backend="dense").session().schedule("first_fit")
        )
        prov = result.provenance
        assert prov.algorithm == "first_fit"
        assert prov.backend == "dense"
        assert prov.wall_seconds >= 0.0
        assert prov.flip_risk_events == 0
        assert prov.certified is True  # dense, certifiable algorithm
        assert prov.batch_fallback is None
        assert prov.peel_risk_events == 0  # first-fit never peels
        assert prov.peel_fallbacks == ()

    def test_non_certifiable_algorithm_has_no_verdict(self, instance):
        result = Problem(instance).session().schedule("peeling")
        assert result.provenance.certified is None

    def test_peel_counters_scoped_per_run(self, instance):
        """Peel provenance is a per-run delta of the module totals, so
        events from earlier runs must not bleed into later results."""
        from repro.core import kernels

        session = Problem(instance).session()
        first = session.schedule("peeling")
        assert first.provenance.peel_risk_events >= 0
        assert first.provenance.peel_fallbacks == ()
        total = kernels.peel_risk_events()
        second = session.schedule("peeling")
        # Same instance, same peel: the per-run delta equals the first
        # run's count, not the accumulated total.
        assert (
            second.provenance.peel_risk_events
            == first.provenance.peel_risk_events
        )
        assert kernels.peel_risk_events() >= total

    def test_params_recorded(self, instance):
        result = (
            Problem(instance)
            .session()
            .schedule("gain_scaling", gamma_target=2.0)
        )
        assert result.provenance.params == {"gamma_target": 2.0}

    def test_randomized_algorithm_matches_impl(self, instance):
        result = Problem(instance).session().schedule("sqrt_coloring", rng=42)
        ref, stats = sqrt_coloring(instance, rng=42)
        np.testing.assert_array_equal(result.colors, ref.colors)
        assert result.stats.rounds == stats.rounds

    def test_local_search_accepts_schedule_result(self, instance):
        session = Problem(instance).session()
        base = session.schedule("first_fit")
        improved = session.schedule("local_search", schedule=base)
        assert improved.num_colors <= base.num_colors

    def test_sparse_session_certified_and_identical(self, instance):
        clear_context_cache()
        dense = (
            Problem(instance, backend="dense").session().schedule("first_fit")
        )
        sparse = (
            Problem(instance, backend="sparse").session().schedule("first_fit")
        )
        np.testing.assert_array_equal(sparse.colors, dense.colors)
        assert sparse.provenance.backend == "sparse"
        assert sparse.provenance.sparse_epsilon == 0.0
        assert sparse.provenance.certified is True

    def test_non_querying_algorithm_skips_context_build(self, instance):
        session = Problem(instance).session()
        session.schedule("trivial")
        # trivial issues no interference queries; the O(n^2) gain
        # matrices must not be materialized just for provenance.
        assert session._context is None

    def test_last_result_and_repr(self, instance):
        session = Problem(instance).session()
        assert session.last_result is None
        result = session.schedule("first_fit")
        assert session.last_result is result
        assert "first_fit" in repr(session)


class TestIncremental:
    def test_reschedule_without_history_fails(self, instance):
        with pytest.raises(ValueError, match="reschedule"):
            Problem(instance).session().reschedule()

    def test_add_requests_reresolves_assignment_powers(self):
        instance = random_uniform_instance(8, rng=1)
        session = Problem(instance).session()
        first = session.schedule("first_fit")
        session.add_requests([(0, 3), (2, 7)])
        assert session.instance.n == 10
        assert session.powers.shape == (10,)
        np.testing.assert_array_equal(
            session.powers, SquareRootPower()(session.instance)
        )
        second = session.reschedule()
        assert second.provenance.algorithm == "first_fit"
        # The grown schedule is exactly the from-scratch schedule of
        # the grown instance.
        ref = first_fit_schedule(session.instance, session.powers)
        np.testing.assert_array_equal(second.colors, ref.colors)
        assert first.schedule.n == 8 and second.schedule.n == 10

    def test_add_requests_explicit_powers(self):
        instance = random_uniform_instance(8, rng=2)
        powers = SquareRootPower()(instance)
        session = Problem(instance, powers=powers).session()
        with pytest.raises(ValueError, match="powers="):
            session.add_requests([(0, 3)])
        session.add_requests([(0, 3)], powers=[1.5])
        assert session.powers[-1] == 1.5
        with pytest.raises(ValueError, match="1 new request"):
            session.add_requests([(1, 4)], powers=[1.0, 2.0])

    def test_add_requests_rejects_powers_with_assignment(self, instance):
        session = Problem(instance).session()
        with pytest.raises(ValueError, match="assignment"):
            session.add_requests([(0, 1)], powers=[1.0])

    def test_add_nothing_is_a_noop(self, instance):
        session = Problem(instance).session()
        handles = session.add_requests([])
        assert list(handles) == []
        assert session.instance is instance

    def test_reschedule_replays_last_params(self, instance):
        session = Problem(instance).session()
        first = session.schedule("gain_scaling", gamma_target=2.0)
        session.add_requests([(0, 5)])
        # Required params of the last call are replayed, not dropped.
        again = session.reschedule()
        assert again.provenance.algorithm == "gain_scaling"
        assert again.provenance.params == {"gamma_target": 2.0}
        assert first.schedule.n < again.schedule.n
        # Explicit overrides win over the replayed params.
        stricter = session.reschedule(gamma_target=4.0)
        assert stricter.provenance.params == {"gamma_target": 4.0}

    def test_reschedule_with_algorithm_starts_fresh(self, instance):
        session = Problem(instance).session()
        session.schedule("gain_scaling", gamma_target=2.0)
        fresh = session.reschedule("first_fit")
        assert fresh.provenance.params == {}


class TestBackendConfigPlumbing:
    """A problem's backend config reaches every context its sessions,
    batches and algorithm runs build — one config, one context."""

    def _sharded(self, seed, workers=3):
        return Problem(
            random_uniform_instance(10, rng=seed),
            backend="sharded",
            sparse_epsilon=0.05,
            workers=workers,
            shard_executor="serial",
        )

    def test_batch_pools_the_problem_config(self):
        from repro.runner.executors import SerialShardExecutor

        batch = BatchSession([self._sharded(0)])
        pooled = batch.batch.contexts[0]
        backend = pooled.backend
        try:
            assert (backend.epsilon, backend.workers) == (0.05, 3)
            assert isinstance(backend.executor, SerialShardExecutor)
        finally:
            backend.close()
        session = batch.sessions[0]
        assert pooled.config == session.context.config
        assert pooled is session.context

    def test_batch_rejects_mixed_shard_workers(self):
        with pytest.raises(ValueError, match="share backend"):
            BatchSession([self._sharded(0, workers=2), self._sharded(1)])

    def test_device_run_builds_one_context(self, instance):
        clear_context_cache()
        session = Problem(
            instance, backend="dense", array_namespace="numpy", device="cpu"
        ).session()
        result = session.schedule("first_fit")
        assert cache_info()["contexts"] == 1
        assert session.context.config.device == "cpu"
        assert result.provenance.certified is True
        clear_context_cache()

    def test_dense_default_epsilon_reaches_sparse_problem(
        self, instance
    ):
        from repro.core.gains import config_scope

        with config_scope(backend="dense", sparse_epsilon=0.05):
            problem = Problem(instance, backend="sparse")
        assert problem.config.sparse_epsilon == 0.05
        assert problem.session().context.backend.epsilon == 0.05


class TestBatchSession:
    def _problems(self, count=3, n=10):
        # Backend pinned dense: the stacked path is dense-only, and the
        # suite must behave identically under REPRO_BACKEND=sparse.
        return [
            Problem(random_uniform_instance(n, rng=100 + i), backend="dense")
            for i in range(count)
        ]

    def test_stacked_first_fit_matches_per_pair(self):
        problems = self._problems()
        results = BatchSession(problems).schedule("first_fit")
        assert len(results) == 3
        for problem, result in zip(problems, results):
            ref = first_fit_schedule(
                problem.instance, SquareRootPower()(problem.instance)
            )
            np.testing.assert_array_equal(result.colors, ref.colors)
            assert result.provenance.batch_fallback is None
            assert result.provenance.certified is True

    def test_ragged_batch_records_fallback(self):
        problems = [
            Problem(random_uniform_instance(10, rng=0), backend="dense"),
            Problem(random_uniform_instance(6, rng=1), backend="dense"),
        ]
        results = BatchSession(problems).schedule("first_fit")
        info = results[0].provenance.batch_fallback
        assert isinstance(info, BatchFallbackInfo)
        assert "ragged_n" in info.reasons
        for problem, result in zip(problems, results):
            ref = first_fit_schedule(
                problem.instance, SquareRootPower()(problem.instance)
            )
            np.testing.assert_array_equal(result.colors, ref.colors)

    def test_unbatchable_algorithm_loops_sessions(self):
        results = BatchSession(self._problems()).schedule("peeling")
        for result in results:
            assert result.provenance.batch_fallback.reasons == (
                "no_batch_kernel",
            )
            assert result.provenance.algorithm == "peeling"

    def test_randomized_fanout_is_seed_deterministic(self):
        problems = self._problems()
        a = BatchSession(problems).schedule("sqrt_coloring", rng=9)
        b = BatchSession(problems).schedule("sqrt_coloring", rng=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.colors, y.colors)

    def test_deterministic_batch_rejects_rng(self):
        with pytest.raises(TypeError, match="deterministic"):
            BatchSession(self._problems()).schedule("first_fit", rng=42)

    def test_mixed_backend_preferences_rejected(self):
        problems = [
            Problem(random_uniform_instance(8, rng=0), backend="dense"),
            Problem(random_uniform_instance(8, rng=1), backend="sparse"),
        ]
        with pytest.raises(ValueError, match="backend"):
            BatchSession(problems)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchSession([])

    def test_validate_roundtrip(self):
        batch = BatchSession(self._problems())
        with pytest.raises(InvalidScheduleError, match="schedule"):
            batch.validate()
        batch.schedule("first_fit")
        assert batch.validate() is batch

    def test_schedule_batch_convenience(self):
        problems = self._problems(count=2)
        results = schedule_batch(problems, "first_fit")
        assert [r.num_colors for r in results] == [
            r.num_colors
            for r in BatchSession(problems).schedule("first_fit")
        ]

    def test_instances_accepted_directly(self):
        instances = [random_uniform_instance(8, rng=i) for i in range(2)]
        results = schedule_batch(instances)
        assert len(results) == 2
