"""The Problem/Session/ScheduleResult facade, one session per problem."""

import numpy as np
import pytest

from repro.api import Problem, ScheduleResult, Session
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

    def test_reused_and_appended_arrivals_make_one_context_edit(
        self, monkeypatch
    ):
        from repro.core.context import InterferenceContext

        session = Problem(random_uniform_instance(12, rng=5), backend="dense").session()
        session.ensure_live()
        session.remove_requests(session.handles[:2])
        calls = []
        edit = InterferenceContext.replace_requests

        def counting(self, slots, instance, powers):
            calls.append(list(slots))
            return edit(self, slots, instance, powers)

        monkeypatch.setattr(InterferenceContext, "replace_requests", counting)
        session.add_requests([(0, 3), (5, 8), (1, 9), (2, 7)])
        assert calls == [[0, 1, 12, 13]]
        assert session.instance.n == 14
        cold = InterferenceContext(
            session.instance, session.powers, config=session.problem.config
        )
        np.testing.assert_array_equal(session.context.margins(), cold.margins())
        assert session.check_consistency() is None

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
    """A problem's backend config reaches every context its sessions
    and algorithm runs build — one config, one context."""

    def test_session_pools_the_problem_config(self):
        from repro.runner.executors import SerialShardExecutor

        problem = Problem(
            random_uniform_instance(10, rng=0),
            backend="sharded",
            sparse_epsilon=0.05,
            workers=3,
            shard_executor="serial",
        )
        context = problem.session().context
        backend = context.backend
        try:
            assert (backend.epsilon, backend.workers) == (0.05, 3)
            assert isinstance(backend.executor, SerialShardExecutor)
        finally:
            backend.close()
        assert context.config == problem.config

    def test_dense_default_epsilon_reaches_sparse_problem(
        self, instance
    ):
        from repro.core.gains import config_scope

        with config_scope(backend="dense", sparse_epsilon=0.05):
            problem = Problem(instance, backend="sparse")
        assert problem.config.sparse_epsilon == 0.05
        assert problem.session().context.backend.epsilon == 0.05


def _sessions(problems):
    """One session per problem (an instance gets the default problem)."""
    return [Session(problem) for problem in problems]


def _schedule_all(sessions, algorithm, **params):
    return [session.schedule(algorithm, **params) for session in sessions]


class TestManyProblems:
    """Many problems at once are one session each: every algorithm
    runs through each problem's own session, and each result validates
    itself against its own instance."""

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
        results = _schedule_all(_sessions(problems), "first_fit")
        assert len(results) == 3
        for problem, result in zip(problems, results):
            ref = first_fit_schedule(
                problem.instance, SquareRootPower()(problem.instance)
            )
            np.testing.assert_array_equal(result.colors, ref.colors)
            assert result.provenance.certified is True

    def test_ragged_problems_match_per_pair(self):
        problems = [
            Problem(random_uniform_instance(10, rng=0), backend="dense"),
            Problem(random_uniform_instance(6, rng=1), backend="dense"),
        ]
        results = _schedule_all(_sessions(problems), "first_fit")
        for problem, result in zip(problems, results):
            ref = first_fit_schedule(
                problem.instance, SquareRootPower()(problem.instance)
            )
            np.testing.assert_array_equal(result.colors, ref.colors)
            assert result.validate() is result

    def test_peeling_runs_through_sessions(self):
        problems = self._problems()
        results = _schedule_all(_sessions(problems), "peeling")
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
        from repro.scheduling.local_search import improve_schedule

        if kind == "shared":
            problems = self._shared_node_problems()
        else:
            problems = self._problems(count=4, n=40, direction=kind)
        params = {} if max_rounds is None else {"max_rounds": max_rounds}
        sessions = _sessions(problems)
        seeds = _schedule_all(sessions, "first_fit")
        # Seeds may be ScheduleResults or bare Schedules.
        seeds[0] = seeds[0].schedule
        for session, seed in zip(sessions, seeds):
            result = session.schedule("local_search", schedule=seed, **params)
            if not isinstance(seed, Schedule):
                seed = seed.schedule
            ref = improve_schedule(session.instance, seed, **params)
            np.testing.assert_array_equal(result.colors, ref.colors)
            np.testing.assert_array_equal(result.powers, ref.powers)
            assert result.provenance.algorithm == "local_search"
            assert result.validate() is result

    def test_local_search_requires_schedule(self):
        with pytest.raises(TypeError, match="schedule="):
            self._problems()[0].session().schedule("local_search")

    def test_deterministic_run_rejects_rng(self):
        with pytest.raises(TypeError, match="deterministic"):
            self._problems()[0].session().schedule("first_fit", rng=42)

    def test_randomized_runs_are_seed_deterministic(self):
        problems = self._problems()
        a = _schedule_all(_sessions(problems), "sqrt_coloring", rng=9)
        b = _schedule_all(_sessions(problems), "sqrt_coloring", rng=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.colors, y.colors)

    # -- validation: each session's latest result -------------------------

    @staticmethod
    def _pairs(n_values, direction="bidirectional", seed=0):
        pairs = []
        for i, n in enumerate(n_values):
            instance = random_uniform_instance(n, direction=direction, rng=seed + i)
            pairs.append((instance, SquareRootPower()(instance)))
        return pairs

    @staticmethod
    def _pair_sessions(pairs, **config):
        """One session per pair, each problem pinned to its pair's
        powers and to *config*."""
        return _sessions(
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

    def test_single_shared_instance(self):
        instance = random_uniform_instance(10, rng=3)
        sessions = _sessions(
            [
                Problem(instance, powers=UniformPower(), backend="dense"),
                Problem(instance, powers=SquareRootPower(), backend="dense"),
            ]
        )
        for result in _schedule_all(sessions, "first_fit"):
            assert result.validate() is result

    def test_infeasible_schedule_raises(self):
        pairs = self._pairs([10]) + [self._shared_node_pair()]
        sessions = self._pair_sessions(pairs)
        _schedule_all(sessions, "first_fit")
        self._corrupt(sessions[1], 0, 1)
        assert not sessions[1].last_result.schedule.is_feasible(pairs[1][0])
        sessions[0].last_result.validate()
        with pytest.raises(InvalidScheduleError, match=r"^SINR"):
            sessions[1].last_result.validate()

    def test_matches_schedule_validate_decision(self):
        pairs = self._pairs([8, 8, 8], seed=21)
        for bad in [(), (0,), (2,), (1, 2)]:
            sessions = self._pair_sessions(pairs)
            _schedule_all(sessions, "first_fit")
            for i in bad:
                self._corrupt(sessions[i], 0, 1)
            for session, (instance, _) in zip(sessions, pairs):
                if session.last_result.schedule.is_feasible(instance):
                    session.last_result.validate()
                else:
                    with pytest.raises(InvalidScheduleError):
                        session.last_result.validate()

    def test_validate_after_growth(self):
        """Validation follows a session that grew after its first
        validated result."""
        session = self._problems(count=1, n=20)[0].session()
        session.schedule("first_fit").validate()
        session.add_requests([(0, 3), (5, 8)])
        result = session.schedule("first_fit")
        assert session.instance.n == 22
        assert result.validate() is result

    def test_validate_after_departure_and_arrival(self):
        session = self._problems(count=1, n=20)[0].session()
        session.schedule("first_fit").validate()
        session.remove_requests([3])
        session.add_requests([(0, 7), (2, 9)])
        result = session.schedule("first_fit")
        assert result.validate() is result

    def test_infeasible_result_after_growth_raises(self):
        session = self._problems(count=1, n=20)[0].session()
        session.schedule("first_fit").validate()
        sender = int(session.instance.senders[0])
        session.add_requests([(sender, int(session.instance.receivers[4]))])
        session.schedule("first_fit")
        # The arrival shares its sender with request 0: one color for
        # both is infeasible under every power assignment.
        self._corrupt(session, 0, session.instance.n - 1)
        with pytest.raises(InvalidScheduleError):
            session.last_result.validate()

    # -- ragged problems ----------------------------------------------------

    def test_ragged_first_fit_matches_per_pair(self):
        pairs = self._pairs([6, 11, 9], seed=71)
        results = _schedule_all(self._pair_sessions(pairs), "first_fit")
        for (instance, powers), result in zip(pairs, results):
            reference = first_fit_schedule(instance, powers)
            np.testing.assert_array_equal(result.colors, reference.colors)
            np.testing.assert_array_equal(result.powers, reference.powers)
            result.schedule.validate(instance)
            assert result.validate() is result

    def test_ragged_first_fit_with_shared_node_pair(self):
        pairs = self._pairs([6, 9], seed=72) + [self._shared_node_pair()]
        results = _schedule_all(self._pair_sessions(pairs), "first_fit")
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
        sessions = self._pair_sessions(pairs)
        for result in _schedule_all(sessions, "first_fit"):
            result.validate()  # must not raise
        # Merging two adjacent shared-node requests into one color must
        # be rejected.
        self._corrupt(sessions[2], 0, 1)
        with pytest.raises(InvalidScheduleError, match="SINR"):
            sessions[2].last_result.validate()

    # -- local search, one session per problem ------------------------------

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    @pytest.mark.parametrize(
        "config",
        [
            pytest.param({"backend": "dense"}, id="dense-None"),
            pytest.param({"backend": "sparse", "sparse_epsilon": 0.0}, id="sparse-0.0"),
            pytest.param(
                {
                    "backend": "sharded",
                    "sparse_epsilon": 0.0,
                    "workers": 2,
                    "shard_executor": "serial",
                },
                id="sharded-0.0",
            ),
        ],
    )
    def test_matches_improve_schedule(self, direction, config):
        from repro.scheduling.local_search import improve_schedule

        pairs = self._pairs([30, 30, 30], direction=direction, seed=90)
        sessions = self._pair_sessions(pairs, **config)
        seeds = _schedule_all(sessions, "first_fit")
        for session, (instance, _), seed in zip(sessions, pairs, seeds):
            result = session.schedule("local_search", schedule=seed)
            reference = improve_schedule(instance, seed.schedule)
            np.testing.assert_array_equal(result.colors, reference.colors)
            result.schedule.validate(instance)
            assert result.validate() is result

    def test_ragged_local_search_matches(self):
        from repro.scheduling.local_search import improve_schedule

        pairs = self._pairs([10, 16], seed=91)
        sessions = self._pair_sessions(pairs)
        seeds = _schedule_all(sessions, "first_fit")
        for session, (instance, _), seed in zip(sessions, pairs, seeds):
            result = session.schedule("local_search", schedule=seed)
            reference = improve_schedule(instance, seed.schedule)
            np.testing.assert_array_equal(result.colors, reference.colors)

    def test_max_rounds_threads_through(self):
        sessions = self._pair_sessions(self._pairs([20, 20], seed=92))
        seeds = _schedule_all(sessions, "first_fit")
        for session, seed in zip(sessions, seeds):
            capped = session.schedule("local_search", schedule=seed, max_rounds=0)
            np.testing.assert_array_equal(
                capped.colors, seed.schedule.compacted().colors
            )

    def test_foreign_powers_kept(self):
        """A seed carries its own powers: the session's local search
        improves it under those powers, exactly as ``improve_schedule``
        does."""
        from repro.scheduling.local_search import improve_schedule

        pairs = self._pairs([8, 8], seed=94)
        sessions = self._pair_sessions(pairs)
        seed = sessions[1].schedule("first_fit")
        foreign = Schedule(colors=seed.colors.copy(), powers=seed.powers * 2.0)
        improved = sessions[1].schedule("local_search", schedule=foreign)
        reference = improve_schedule(pairs[1][0], foreign)
        np.testing.assert_array_equal(improved.colors, reference.colors)
        np.testing.assert_array_equal(improved.powers, foreign.powers)


#: ``(backend, sparse_epsilon)`` of the lossless configurations whose
#: queries must equal dense bit for bit.
LOSSLESS = [
    pytest.param("sparse", 0.0, id="sparse-0.0"),
    pytest.param("dense", None, id="dense"),
]


class TestPerProblemQueries:
    """Each problem answers its SINR queries through its own session's
    :class:`~repro.core.context.InterferenceContext`: built for that
    problem's instance, powers and backend preferences, equal to a
    context built from scratch and to the independent oracle, for
    equal-size, ragged and mixed-direction problems alike."""

    @staticmethod
    def _problems(n_values, direction="bidirectional", seed=0, **config):
        problems = []
        for i, n in enumerate(n_values):
            instance = random_uniform_instance(n, direction=direction, rng=seed + i)
            problems.append(Problem(instance, **config))
        return problems

    @classmethod
    def _sessions(cls, n_values, **kwargs):
        return _sessions(cls._problems(n_values, **kwargs))

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
        sessions = self._sessions([12, 12, 12], direction=direction)
        for session in sessions:
            margins = session.context.margins()
            assert margins.shape == (12,)
            np.testing.assert_array_equal(margins, self._fresh(session).margins())
            np.testing.assert_allclose(
                margins, self._oracle(session).margins(range(12)), rtol=1e-12
            )

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    def test_colored_margins_match(self, direction):
        sessions = self._sessions([10, 10], direction=direction, seed=3)
        results = _schedule_all(sessions, "first_fit")
        for session, result in zip(sessions, results):
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
        sessions = self._sessions([9, 9, 9, 9], direction=direction, seed=5)
        for session in sessions:
            interference = session.context.interference()
            np.testing.assert_array_equal(
                interference, self._fresh(session).interference()
            )
            sinr = self._oracle(session)
            expected = [sinr.interference(i, range(9)) for i in range(9)]
            np.testing.assert_allclose(interference, expected, rtol=1e-12)

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    def test_beta_noise_overrides(self, direction):
        sessions = self._sessions([8, 8], direction=direction, seed=7)
        for session in sessions:
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
        sessions = _sessions(
            [
                Problem(instance, powers=UniformPower()),
                Problem(instance, powers=SquareRootPower()),
            ]
        )
        first, second = (session.context for session in sessions)
        assert first is not second
        for session, assignment in zip(
            sessions, (UniformPower(), SquareRootPower())
        ):
            np.testing.assert_array_equal(
                session.context.powers, assignment(instance)
            )
            np.testing.assert_array_equal(
                session.context.margins(), self._fresh(session).margins()
            )

    def test_ragged_contexts_match(self):
        sessions = self._sessions([6, 9, 12], seed=11)
        for session, n in zip(sessions, (6, 9, 12)):
            margins = session.context.margins()
            assert margins.shape == (n,)
            np.testing.assert_array_equal(margins, self._fresh(session).margins())

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    def test_feasible_per_pair(self, direction):
        sessions = self._sessions([6, 9], direction=direction, seed=13)
        results = _schedule_all(sessions, "first_fit")
        for session, result in zip(sessions, results):
            assert session.context.is_feasible_partition(result.colors)
            assert self._oracle(session).feasible(result.colors)

    def test_mixed_direction_problems(self):
        bidirectional = random_uniform_instance(8, rng=17)
        directed = random_uniform_instance(8, rng=9, direction="directed")
        sessions = _sessions([bidirectional, directed])
        assert [s.context.directed for s in sessions] == [False, True]
        results = _schedule_all(sessions, "first_fit")
        for instance, result in zip((bidirectional, directed), results):
            reference = first_fit_schedule(instance, SquareRootPower()(instance))
            np.testing.assert_array_equal(result.colors, reference.colors)
        for session in sessions:
            session.last_result.validate()

    def test_shared_node_pair_margins(self):
        problem = TestManyProblems._shared_node_problems()[0]
        sessions = _sessions([Problem(random_uniform_instance(6, rng=37)), problem])
        session = sessions[1]
        # Adjacent requests share a node: one color for both drowns them.
        colors = np.asarray([0, 0, 1, 2])
        margins = session.context.margins(colors=colors)
        np.testing.assert_array_equal(margins[:2], [0.0, 0.0])
        np.testing.assert_array_equal(
            margins, self._oracle(session).class_margins(colors)
        )
        assert not session.context.is_feasible_partition(colors)

    def test_contexts_follow_growth(self):
        sessions = self._sessions([20, 20], seed=41)
        before = sessions[0].context.margins()
        sessions[0].add_requests([(0, 3), (5, 8)])
        for session, n in zip(sessions, (22, 20)):
            margins = session.context.margins()
            assert margins.shape == (n,)
            np.testing.assert_allclose(
                margins, self._oracle(session).margins(range(n)), rtol=1e-12
            )
        assert not np.array_equal(before, sessions[0].context.margins()[:20])

    def test_contexts_follow_departure_and_arrival(self):
        sessions = self._sessions([20, 20], seed=43)
        session = sessions[1]
        session.remove_requests([3])
        session.add_requests([(0, 7), (2, 9)])
        results = _schedule_all(sessions, "first_fit")
        for session, result in zip(sessions, results):
            n = session.instance.n
            np.testing.assert_allclose(
                session.context.margins(colors=result.colors),
                self._oracle(session).class_margins(result.colors),
                rtol=1e-12,
            )
            assert session.context.n == n
        for session in sessions:
            session.last_result.validate()

    # -- contexts are the shared cache entries each session pins ----------

    def test_validate_reuses_session_contexts(self, dense_backend):
        sessions = self._sessions([10, 12], seed=47)
        _schedule_all(sessions, "first_fit")
        contexts = [session.context for session in sessions]
        misses = cache_info()["misses"]
        for session in sessions:
            session.last_result.validate()
        assert cache_info()["misses"] == misses
        assert [session.context for session in sessions] == contexts

    def test_reuses_contexts(self):
        sessions = self._sessions([8], seed=19)
        session = sessions[0]
        context = session.context
        assert session.context is context
        assert (
            get_context(session.instance, session.powers, config=session.problem.config)
            is context
        )

    def test_sessions_share_contexts(self):
        problems = self._problems([6, 6], seed=40)
        first, second = _sessions(problems), _sessions(problems)
        for a, b in zip(first, second):
            assert a.context is b.context

    def test_lru_bound_keeps_session_contexts(self):
        from repro.core.context import context_cache_limit, set_context_cache_limit

        previous = context_cache_limit()
        set_context_cache_limit(2)
        try:
            sessions = self._sessions([5, 6, 7], seed=30)
            contexts = [session.context for session in sessions]
            assert cache_info()["contexts"] <= 2
            results = _schedule_all(sessions, "first_fit")
            for session, context, result in zip(sessions, contexts, results):
                assert session.context is context
                reference = first_fit_schedule(session.instance, session.powers)
                np.testing.assert_array_equal(result.colors, reference.colors)
            for session in sessions:
                session.last_result.validate()
        finally:
            set_context_cache_limit(previous)
            clear_context_cache()

    # -- backend preferences reach every problem's context ----------------

    def test_backend_preference_threads_to_contexts(self):
        from repro.core.gains import SparseBackend

        sessions = self._sessions([8, 8], backend="sparse", sparse_epsilon=0.0)
        for session in sessions:
            assert session.context.config.backend == "sparse"
            assert isinstance(session.context.backend, SparseBackend)

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    def test_lossy_backend_validates_exactly(self, direction):
        sessions = self._sessions(
            [8, 8], direction=direction, seed=23, backend="sparse", sparse_epsilon=1e-3
        )
        results = _schedule_all(sessions, "first_fit")
        for session, result in zip(sessions, results):
            assert session.context.backend.epsilon == 1e-3
            assert self._oracle(session).feasible(result.colors)
        for session in sessions:
            session.last_result.validate()

    def test_ragged_mixed_direction_lossy_problems(self):
        problems = [
            Problem(random_uniform_instance(8, rng=29), backend="sparse", sparse_epsilon=1e-3),
            Problem(
                random_uniform_instance(6, rng=31, direction="directed"),
                backend="sparse",
                sparse_epsilon=1e-3,
            ),
        ]
        sessions = _sessions(problems)
        results = _schedule_all(sessions, "first_fit")
        for problem, result in zip(problems, results):
            reference = problem.session().schedule("first_fit")
            np.testing.assert_array_equal(result.colors, reference.colors)
        for session in sessions:
            session.last_result.validate()

    @pytest.mark.parametrize("direction", ["bidirectional", "directed"])
    @pytest.mark.parametrize("backend,epsilon", LOSSLESS)
    def test_queries_match_dense(self, direction, backend, epsilon):
        """Lossless backends answer every problem's queries bit-identically
        to a fresh dense context, above the backends' tile size."""
        dense = default_config(backend="dense")
        sessions = self._sessions(
            [640, 640],
            direction=direction,
            seed=80,
            backend=backend,
            sparse_epsilon=epsilon,
        )
        for session in sessions:
            reference = self._fresh(session, config=dense)
            np.testing.assert_array_equal(session.context.margins(), reference.margins())
            colors = first_fit_schedule(session.instance, session.powers).colors
            np.testing.assert_array_equal(
                session.context.margins(colors=colors), reference.margins(colors=colors)
            )

    def test_queries_never_densify(self, monkeypatch):
        """Sparse queries never materialize a dense matrix (dense
        answers from its own host arrays by design)."""
        from repro.core import gains as gains_mod

        def boom(self, *args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("a query materialized a dense matrix")

        for name in ("dense_u", "dense_v", "dense_ut", "dense_vt"):
            monkeypatch.setattr(gains_mod.SparseBackend, name, boom)
        sessions = self._sessions([12, 12], seed=81, backend="sparse", sparse_epsilon=0.0)
        for session in sessions:
            colors = np.arange(12) % 3
            session.context.margins()
            session.context.margins(colors=colors)
            session.context.interference()
