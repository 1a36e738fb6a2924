"""The Problem/Session/ScheduleResult facade and its batch entry points."""

import numpy as np
import pytest

from repro.api import BatchSession, Problem, ScheduleResult, Session, schedule_batch
from repro.core.context import cache_info, clear_context_cache, get_context
from repro.core.errors import InvalidScheduleError
from repro.core.gains import default_config
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.geometry.line import LineMetric
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
        context = batch.sessions[0].context
        backend = context.backend
        try:
            assert (backend.epsilon, backend.workers) == (0.05, 3)
            assert isinstance(backend.executor, SerialShardExecutor)
        finally:
            backend.close()
        assert context.config == batch.problems[0].config

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
    def _problems(self, count=3, n=10, direction="bidirectional"):
        # Backend pinned dense: the suite must behave identically under
        # REPRO_BACKEND=sparse.
        return [
            Problem(
                random_uniform_instance(n, rng=100 + i, direction=direction),
                backend="dense",
            )
            for i in range(count)
        ]

    def test_first_fit_matches_per_pair(self):
        problems = self._problems()
        results = BatchSession(problems).schedule("first_fit")
        assert len(results) == 3
        for problem, result in zip(problems, results):
            ref = first_fit_schedule(
                problem.instance, SquareRootPower()(problem.instance)
            )
            np.testing.assert_array_equal(result.colors, ref.colors)
            assert result.provenance.certified is True

    def test_ragged_batch_records_fallback(self):
        problems = [
            Problem(random_uniform_instance(10, rng=0), backend="dense"),
            Problem(random_uniform_instance(6, rng=1), backend="dense"),
        ]
        batch = BatchSession(problems)
        results = batch.schedule("first_fit")
        for problem, result in zip(problems, results):
            ref = first_fit_schedule(
                problem.instance, SquareRootPower()(problem.instance)
            )
            np.testing.assert_array_equal(result.colors, ref.colors)
        assert batch.validate() is batch

    def test_peeling_runs_through_sessions(self):
        problems = self._problems()
        results = BatchSession(problems).schedule("peeling")
        for problem, result in zip(problems, results):
            ref = problem.session().schedule("peeling")
            np.testing.assert_array_equal(result.colors, ref.colors)
            assert result.provenance.algorithm == "peeling"

    @staticmethod
    def _shared_node_problems():
        """Chains with shared nodes: consecutive requests have infinite
        mutual gain."""
        metric = LineMetric([0.0, 1.0, 2.5, 4.5, 7.0])
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
        return [
            Problem(
                Instance(
                    metric,
                    [p[0] for p in pairs],
                    [p[1] for p in pairs],
                    direction=direction,
                ),
                powers=np.full(4, power),
                backend="dense",
            )
            for direction, power in (("bidirectional", 1.0), ("directed", 2.0))
        ]

    @pytest.mark.parametrize("max_rounds", [None, 1])
    @pytest.mark.parametrize("kind", ["bidirectional", "directed", "shared"])
    def test_local_search_matches_each_session(self, kind, max_rounds):
        if kind == "shared":
            problems = self._shared_node_problems()
        else:
            problems = self._problems(count=4, n=40, direction=kind)
        params = {} if max_rounds is None else {"max_rounds": max_rounds}
        batch = BatchSession(problems)
        seeds = batch.schedule("first_fit")
        # Seeds may be ScheduleResults or bare Schedules.
        seeds[0] = seeds[0].schedule
        results = batch.schedule("local_search", schedule=seeds, **params)
        assert len(results) == len(problems)
        for problem, seed, result in zip(problems, seeds, results):
            ref = problem.session().schedule(
                "local_search", schedule=seed, **params
            )
            np.testing.assert_array_equal(result.colors, ref.colors)
            np.testing.assert_array_equal(result.powers, ref.powers)
            assert result.provenance.algorithm == "local_search"
        assert batch.validate() is batch

    def test_local_search_seed_count_must_match(self):
        batch = BatchSession(self._problems())
        seeds = batch.schedule("first_fit")
        with pytest.raises(ValueError, match="2 schedules for 3 problems"):
            batch.schedule("local_search", schedule=seeds[:2])

    def test_local_search_requires_schedule(self):
        with pytest.raises(TypeError, match="pass schedule="):
            BatchSession(self._problems()).schedule("local_search")

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

    # -- validation: each session's latest result, first bad pair named --

    @staticmethod
    def _pairs(n_values, direction="bidirectional", seed=0):
        pairs = []
        for i, n in enumerate(n_values):
            instance = random_uniform_instance(n, direction=direction, rng=seed + i)
            pairs.append((instance, SquareRootPower()(instance)))
        return pairs

    @staticmethod
    def _batch_session(pairs, **config):
        """A :class:`BatchSession` over *pairs*, each problem pinned to
        its pair's powers and to *config*."""
        return BatchSession(
            [Problem(instance, powers=powers, **config) for instance, powers in pairs]
        )

    def _shared_node_pair(self):
        problem = self._shared_node_problems()[0]  # bidirectional, unit powers
        return problem.instance, problem.powers

    @staticmethod
    def _corrupt(session, i, j):
        """Replace the session's latest result by one that puts requests
        *i* and *j* in the same color."""
        import dataclasses

        result = session.last_result
        colors = result.colors.copy()
        colors[j] = colors[i]
        session.last_result = dataclasses.replace(
            result, schedule=Schedule(colors=colors, powers=result.powers)
        )

    def test_valid_schedules_pass(self):
        batch = self._batch_session(self._pairs([10, 10, 10]))
        batch.schedule("first_fit")
        assert batch.validate() is batch

    def test_single_shared_instance(self):
        instance = random_uniform_instance(10, rng=3)
        batch = BatchSession(
            [
                Problem(instance, powers=UniformPower(), backend="dense"),
                Problem(instance, powers=SquareRootPower(), backend="dense"),
            ]
        )
        batch.schedule("first_fit")
        assert batch.validate() is batch

    def test_infeasible_schedule_raises_with_pair_index(self):
        pairs = self._pairs([10]) + [self._shared_node_pair()]
        batch = self._batch_session(pairs)
        batch.schedule("first_fit")
        self._corrupt(batch.sessions[1], 0, 1)
        assert not batch.sessions[1].last_result.schedule.is_feasible(pairs[1][0])
        with pytest.raises(InvalidScheduleError, match=r"^pair 1: SINR"):
            batch.validate()

    def test_matches_schedule_validate_decision(self):
        pairs = self._pairs([8, 8, 8], seed=21)
        for bad in [(), (0,), (2,), (1, 2)]:
            batch = self._batch_session(pairs)
            batch.schedule("first_fit")
            for i in bad:
                self._corrupt(batch.sessions[i], 0, 1)
            feasible = [
                s.last_result.schedule.is_feasible(instance)
                for s, (instance, _) in zip(batch.sessions, pairs)
            ]
            if all(feasible):
                assert batch.validate() is batch
            else:
                first = feasible.index(False)
                with pytest.raises(InvalidScheduleError, match=rf"^pair {first}: "):
                    batch.validate()

    def test_count_mismatch(self):
        batch = self._batch_session(self._pairs([6, 6], seed=1))
        batch.sessions[0].schedule("first_fit")
        with pytest.raises(InvalidScheduleError, match="call schedule"):
            batch.validate()

    def test_validate_after_growth(self):
        """Regression: validation follows a session that grew after the
        batch first validated (a stale per-batch context cache broke
        here)."""
        batch = BatchSession(self._problems(count=2, n=20))
        batch.schedule("first_fit")
        batch.validate()
        batch.sessions[0].add_requests([(0, 3), (5, 8)])
        batch.schedule("first_fit")
        assert batch.sessions[0].instance.n == 22
        assert batch.validate() is batch

    def test_validate_after_departure_and_arrival(self):
        batch = BatchSession(self._problems(count=2, n=20))
        batch.schedule("first_fit")
        batch.validate()
        session = batch.sessions[1]
        session.remove_requests([3])
        session.add_requests([(0, 7), (2, 9)])
        batch.schedule("first_fit")
        assert batch.validate() is batch

    def test_infeasible_result_after_growth_names_the_pair(self):
        batch = BatchSession(self._problems(count=2, n=20))
        batch.schedule("first_fit")
        batch.validate()
        session = batch.sessions[1]
        sender = int(session.instance.senders[0])
        session.add_requests([(sender, int(session.instance.receivers[4]))])
        batch.schedule("first_fit")
        # The arrival shares its sender with request 0: one color for
        # both is infeasible under every power assignment.
        self._corrupt(session, 0, session.instance.n - 1)
        with pytest.raises(InvalidScheduleError, match=r"^pair 1: "):
            batch.validate()

    # -- ragged batches (moved with their behaviour from the deleted
    # stacked query plane) ------------------------------------------------

    def test_ragged_first_fit_matches_per_pair(self):
        pairs = self._pairs([6, 11, 9], seed=71)
        batch = self._batch_session(pairs)
        results = batch.schedule("first_fit")
        for (instance, powers), result in zip(pairs, results):
            reference = first_fit_schedule(instance, powers)
            np.testing.assert_array_equal(result.colors, reference.colors)
            np.testing.assert_array_equal(result.powers, reference.powers)
            result.schedule.validate(instance)
        assert batch.validate() is batch

    def test_ragged_first_fit_with_shared_node_pair(self):
        pairs = self._pairs([6, 9], seed=72) + [self._shared_node_pair()]
        results = self._batch_session(pairs).schedule("first_fit")
        for (instance, powers), result in zip(pairs, results):
            reference = first_fit_schedule(instance, powers)
            np.testing.assert_array_equal(result.colors, reference.colors)
        # The shared-node chain must never share colors between
        # adjacent (infinite-gain) requests.
        shared_colors = results[-1].colors
        for i, j in ((0, 1), (1, 2), (2, 3)):
            assert shared_colors[i] != shared_colors[j]

    def test_ragged_validation_matches_per_pair(self):
        pairs = self._pairs([6, 9], seed=73) + [self._shared_node_pair()]
        batch = self._batch_session(pairs)
        batch.schedule("first_fit")
        batch.validate()  # must not raise
        # Merging two adjacent shared-node requests into one color must
        # be rejected, naming the pair.
        self._corrupt(batch.sessions[2], 0, 1)
        with pytest.raises(InvalidScheduleError, match="pair 2"):
            batch.validate()

    # -- local search over a batch ----------------------------------------

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    @pytest.mark.parametrize(
        "backend,epsilon,namespace",
        [
            pytest.param("dense", None, None, id="dense-None"),
            pytest.param("sparse", 0.0, None, id="sparse-0.0"),
        ]
        + [
            pytest.param("dense", None, ns, id=f"dense-{ns}")
            for ns in sorted({"numpy", default_config().array_namespace})
        ],
    )
    def test_matches_improve_schedule(self, direction, backend, epsilon, namespace):
        from repro.scheduling.local_search import improve_schedule

        pairs = self._pairs([30, 30, 30], direction=direction, seed=90)
        batch = self._batch_session(
            pairs, backend=backend, sparse_epsilon=epsilon, array_namespace=namespace
        )
        seeds = batch.schedule("first_fit")
        improved = batch.schedule("local_search", schedule=seeds)
        for (instance, _), seed, result in zip(pairs, seeds, improved):
            reference = improve_schedule(instance, seed.schedule)
            np.testing.assert_array_equal(result.colors, reference.colors)
            result.schedule.validate(instance)
        assert batch.validate() is batch

    def test_ragged_local_search_matches(self):
        from repro.scheduling.local_search import improve_schedule

        pairs = self._pairs([10, 16], seed=91)
        batch = self._batch_session(pairs)
        seeds = batch.schedule("first_fit")
        improved = batch.schedule("local_search", schedule=seeds)
        for (instance, _), seed, result in zip(pairs, seeds, improved):
            reference = improve_schedule(instance, seed.schedule)
            np.testing.assert_array_equal(result.colors, reference.colors)

    def test_max_rounds_threads_through(self):
        batch = self._batch_session(self._pairs([20, 20], seed=92))
        seeds = batch.schedule("first_fit")
        capped = batch.schedule("local_search", schedule=seeds, max_rounds=0)
        for seed, result in zip(seeds, capped):
            np.testing.assert_array_equal(
                result.colors, seed.schedule.compacted().colors
            )

    def test_schedule_count_mismatch(self):
        batch = self._batch_session(self._pairs([8, 8], seed=93))
        seeds = batch.schedule("first_fit")
        with pytest.raises(ValueError, match="1 schedules for 2 problems"):
            batch.schedule("local_search", schedule=seeds[:1])

    def test_foreign_powers_kept(self):
        """A seed carries its own powers: each problem's local search
        improves it under those powers, exactly as a per-pair
        ``improve_schedule`` does."""
        from repro.scheduling.local_search import improve_schedule

        pairs = self._pairs([8, 8], seed=94)
        batch = self._batch_session(pairs)
        seeds = batch.schedule("first_fit")
        foreign = Schedule(colors=seeds[1].colors.copy(), powers=seeds[1].powers * 2.0)
        improved = batch.schedule("local_search", schedule=[seeds[0], foreign])
        reference = improve_schedule(pairs[1][0], foreign)
        np.testing.assert_array_equal(improved[1].colors, reference.colors)
        np.testing.assert_array_equal(improved[1].powers, foreign.powers)


#: Dense storage namespaces: numpy plus the process default's
#: (``REPRO_ARRAY_NAMESPACE``, numpy unless set).
NAMESPACES = sorted({"numpy", default_config().array_namespace})

#: ``(backend, sparse_epsilon, array_namespace)`` of the lossless
#: configurations whose queries must equal numpy dense bit for bit.
LOSSLESS = [pytest.param("sparse", 0.0, None, id="sparse-0.0")] + [
    pytest.param("dense", None, ns, id=f"dense-{ns}") for ns in NAMESPACES
]


class TestBatchQueries:
    """Each pair of a batch answers its SINR queries through its own
    session's :class:`~repro.core.context.InterferenceContext`: built
    for that pair's instance, powers and backend preferences, equal to
    a context built from scratch and to the independent oracle, on
    equal-size, ragged and mixed-direction batches alike."""

    @staticmethod
    def _batch(n_values, direction="bidirectional", seed=0, **config):
        problems = []
        for i, n in enumerate(n_values):
            instance = random_uniform_instance(n, direction=direction, rng=seed + i)
            problems.append(Problem(instance, **config))
        return BatchSession(problems)

    @staticmethod
    def _fresh(session, config=None):
        """A context for *session*'s pair built outside the cache."""
        from repro.core.context import InterferenceContext

        return InterferenceContext(
            session.instance,
            session.powers,
            config=session.problem.config if config is None else config,
        )

    @staticmethod
    def _oracle(session, **kwargs):
        import oracle

        return oracle.SINROracle(session.instance, session.powers, **kwargs)

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    def test_margins_match_per_context_exactly(self, direction, dense_backend):
        batch = self._batch([12, 12, 12], direction=direction)
        for session in batch.sessions:
            margins = session.context.margins()
            assert margins.shape == (12,)
            np.testing.assert_array_equal(margins, self._fresh(session).margins())
            np.testing.assert_allclose(
                margins, self._oracle(session).margins(range(12)), rtol=1e-12
            )

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    def test_colored_margins_match(self, direction):
        batch = self._batch([10, 10], direction=direction, seed=3)
        results = batch.schedule("first_fit")
        for session, result in zip(batch.sessions, results):
            margins = session.context.margins(colors=result.colors)
            np.testing.assert_array_equal(
                margins, self._fresh(session).margins(colors=result.colors)
            )
            np.testing.assert_allclose(
                margins,
                self._oracle(session).class_margins(result.colors),
                rtol=1e-12,
            )

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    def test_interference_matches(self, direction):
        batch = self._batch([9, 9, 9, 9], direction=direction, seed=5)
        for session in batch.sessions:
            interference = session.context.interference()
            np.testing.assert_array_equal(
                interference, self._fresh(session).interference()
            )
            sinr = self._oracle(session)
            expected = [sinr.interference(i, range(9)) for i in range(9)]
            np.testing.assert_allclose(interference, expected, rtol=1e-12)

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    def test_beta_noise_overrides(self, direction):
        batch = self._batch([8, 8], direction=direction, seed=7)
        for session in batch.sessions:
            margins = session.context.margins(beta=0.5, noise=0.1)
            np.testing.assert_array_equal(
                margins, self._fresh(session).margins(beta=0.5, noise=0.1)
            )
            np.testing.assert_allclose(
                margins,
                self._oracle(session, beta=0.5, noise=0.1).margins(range(8)),
                rtol=1e-12,
            )

    def test_mixed_powers_same_instance(self, dense_backend):
        instance = random_uniform_instance(10, rng=5)
        batch = BatchSession(
            [
                Problem(instance, powers=UniformPower()),
                Problem(instance, powers=SquareRootPower()),
            ]
        )
        first, second = (session.context for session in batch.sessions)
        assert first is not second
        for session, assignment in zip(
            batch.sessions, (UniformPower(), SquareRootPower())
        ):
            np.testing.assert_array_equal(
                session.context.powers, assignment(instance)
            )
            np.testing.assert_array_equal(
                session.context.margins(), self._fresh(session).margins()
            )

    def test_ragged_contexts_match(self):
        batch = self._batch([6, 9, 12], seed=11)
        for session, n in zip(batch.sessions, (6, 9, 12)):
            margins = session.context.margins()
            assert margins.shape == (n,)
            np.testing.assert_array_equal(margins, self._fresh(session).margins())

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    def test_feasible_per_pair(self, direction):
        batch = self._batch([6, 9], direction=direction, seed=13)
        results = batch.schedule("first_fit")
        for session, result in zip(batch.sessions, results):
            assert session.context.is_feasible_partition(result.colors)
            assert self._oracle(session).feasible(result.colors)

    def test_mixed_direction_batch(self):
        bidirectional = random_uniform_instance(8, rng=17)
        directed = random_uniform_instance(8, rng=9, direction="directed")
        batch = BatchSession([bidirectional, directed])
        assert [s.context.directed for s in batch.sessions] == [False, True]
        results = batch.schedule("first_fit")
        for instance, result in zip((bidirectional, directed), results):
            reference = first_fit_schedule(instance, SquareRootPower()(instance))
            np.testing.assert_array_equal(result.colors, reference.colors)
        assert batch.validate() is batch

    def test_shared_node_pair_margins(self):
        problem = TestBatchSession._shared_node_problems()[0]
        batch = BatchSession([Problem(random_uniform_instance(6, rng=37)), problem])
        session = batch.sessions[1]
        # Adjacent requests share a node: one color for both drowns them.
        colors = np.asarray([0, 0, 1, 2])
        margins = session.context.margins(colors=colors)
        np.testing.assert_array_equal(margins[:2], [0.0, 0.0])
        np.testing.assert_array_equal(
            margins, self._oracle(session).class_margins(colors)
        )
        assert not session.context.is_feasible_partition(colors)

    def test_contexts_follow_growth(self):
        batch = self._batch([20, 20], seed=41)
        before = batch.sessions[0].context.margins()
        batch.sessions[0].add_requests([(0, 3), (5, 8)])
        for session, n in zip(batch.sessions, (22, 20)):
            margins = session.context.margins()
            assert margins.shape == (n,)
            np.testing.assert_allclose(
                margins, self._oracle(session).margins(range(n)), rtol=1e-12
            )
        assert not np.array_equal(before, batch.sessions[0].context.margins()[:20])

    def test_contexts_follow_departure_and_arrival(self):
        batch = self._batch([20, 20], seed=43)
        session = batch.sessions[1]
        session.remove_requests([3])
        session.add_requests([(0, 7), (2, 9)])
        results = batch.schedule("first_fit")
        for session, result in zip(batch.sessions, results):
            n = session.instance.n
            np.testing.assert_allclose(
                session.context.margins(colors=result.colors),
                self._oracle(session).class_margins(result.colors),
                rtol=1e-12,
            )
            assert session.context.n == n
        assert batch.validate() is batch

    # -- contexts are the shared cache entries each session pins ----------

    def test_validate_reuses_session_contexts(self, dense_backend):
        batch = self._batch([10, 12], seed=47)
        batch.schedule("first_fit")
        contexts = [session.context for session in batch.sessions]
        misses = cache_info()["misses"]
        assert batch.validate() is batch
        assert cache_info()["misses"] == misses
        assert [session.context for session in batch.sessions] == contexts

    def test_reuses_contexts(self):
        batch = self._batch([8], seed=19)
        session = batch.sessions[0]
        context = session.context
        assert session.context is context
        assert (
            get_context(session.instance, session.powers, config=session.problem.config)
            is context
        )

    def test_batch_shares_contexts(self):
        problems = self._batch([6, 6], seed=40).problems
        first, second = BatchSession(problems), BatchSession(problems)
        for a, b in zip(first.sessions, second.sessions):
            assert a.context is b.context

    def test_lru_bound_keeps_session_contexts(self):
        from repro.core.context import context_cache_limit, set_context_cache_limit

        previous = context_cache_limit()
        set_context_cache_limit(2)
        try:
            batch = self._batch([5, 6, 7], seed=30)
            contexts = [session.context for session in batch.sessions]
            assert cache_info()["contexts"] <= 2
            results = batch.schedule("first_fit")
            for session, context, result in zip(batch.sessions, contexts, results):
                assert session.context is context
                reference = first_fit_schedule(session.instance, session.powers)
                np.testing.assert_array_equal(result.colors, reference.colors)
            assert batch.validate() is batch
        finally:
            set_context_cache_limit(previous)
            clear_context_cache()

    # -- backend preferences reach every pair's context -------------------

    def test_backend_preference_threads_to_contexts(self):
        from repro.core.gains import SparseBackend

        batch = self._batch([8, 8], backend="sparse", sparse_epsilon=0.0)
        for session in batch.sessions:
            assert session.context.config.backend == "sparse"
            assert isinstance(session.context.backend, SparseBackend)

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    def test_lossy_backend_validates_exactly(self, direction):
        batch = self._batch(
            [8, 8], direction=direction, seed=23, backend="sparse", sparse_epsilon=1e-3
        )
        results = batch.schedule("first_fit")
        for session, result in zip(batch.sessions, results):
            assert session.context.backend.epsilon == 1e-3
            assert self._oracle(session).feasible(result.colors)
        assert batch.validate() is batch

    def test_ragged_mixed_direction_lossy_batch(self):
        problems = [
            Problem(random_uniform_instance(8, rng=29), backend="sparse", sparse_epsilon=1e-3),
            Problem(
                random_uniform_instance(6, rng=31, direction="directed"),
                backend="sparse",
                sparse_epsilon=1e-3,
            ),
        ]
        batch = BatchSession(problems)
        results = batch.schedule("first_fit")
        for problem, result in zip(problems, results):
            reference = problem.session().schedule("first_fit")
            np.testing.assert_array_equal(result.colors, reference.colors)
        assert batch.validate() is batch

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    @pytest.mark.parametrize("backend,epsilon,namespace", LOSSLESS)
    def test_queries_match_dense(self, direction, backend, epsilon, namespace):
        """Lossless backends answer every pair's queries bit-identically
        to numpy dense, above the backends' tile size."""
        numpy_dense = default_config(backend="dense", array_namespace="numpy")
        batch = self._batch(
            [640, 640],
            direction=direction,
            seed=80,
            backend=backend,
            sparse_epsilon=epsilon,
            array_namespace=namespace,
        )
        for session in batch.sessions:
            reference = self._fresh(session, config=numpy_dense)
            np.testing.assert_array_equal(session.context.margins(), reference.margins())
            colors = first_fit_schedule(session.instance, session.powers).colors
            np.testing.assert_array_equal(
                session.context.margins(colors=colors), reference.margins(colors=colors)
            )

    @pytest.mark.parametrize(
        "backend,epsilon,namespace",
        # numpy dense answers from its own host arrays by design.
        [p for p in LOSSLESS if p.values[2] != "numpy"],
    )
    def test_queries_never_densify(self, backend, epsilon, namespace, monkeypatch):
        from repro.core import gains as gains_mod

        def boom(self, *args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("a query materialized a dense matrix")

        cls = gains_mod.SparseBackend if backend == "sparse" else gains_mod.DenseBackend
        for name in ("dense_u", "dense_v", "dense_ut", "dense_vt"):
            monkeypatch.setattr(cls, name, boom)
        batch = self._batch(
            [12, 12],
            seed=81,
            backend=backend,
            sparse_epsilon=epsilon,
            array_namespace=namespace,
        )
        for session in batch.sessions:
            colors = np.arange(12) % 3
            session.context.margins()
            session.context.margins(colors=colors)
            session.context.interference()
