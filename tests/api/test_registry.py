"""Algorithm registry: resolution, capability enforcement, adapters."""

import numpy as np
import pytest

from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower
from repro.scheduling.distributed import distributed_coloring
from repro.scheduling.exact import exact_minimum_colors
from repro.scheduling.firstfit import (
    first_fit_free_power_schedule,
    first_fit_schedule,
)
from repro.scheduling.gain_scaling import (
    densest_subset_at_gain,
    rescale_gain_coloring,
)
from repro.scheduling.local_search import improve_schedule
from repro.scheduling.peeling import peeling_schedule
from repro.scheduling.protocol_model import protocol_schedule
from repro.scheduling.registry import (
    AlgorithmCapabilities,
    AlgorithmSpec,
    algorithm_names,
    get_algorithm,
    list_algorithms,
    register,
    run_algorithm,
)
from repro.scheduling.sqrt_coloring import sqrt_coloring
from repro.scheduling.trivial import trivial_schedule

NINE = (
    "trivial",
    "first_fit",
    "peeling",
    "gain_scaling",
    "sqrt_coloring",
    "local_search",
    "distributed",
    "exact",
    "protocol_model",
)


@pytest.fixture
def instance():
    return random_uniform_instance(12, rng=3)


@pytest.fixture
def powers(instance):
    return SquareRootPower()(instance)


class TestResolution:
    def test_all_nine_schedulers_registered(self):
        names = algorithm_names()
        for name in NINE:
            assert name in names

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="first_fit"):
            get_algorithm("does_not_exist")

    def test_list_matches_names(self):
        assert [spec.name for spec in list_algorithms()] == algorithm_names()

    def test_duplicate_registration_rejected(self):
        spec = get_algorithm("trivial")
        with pytest.raises(ValueError, match="already registered"):
            register(spec)

    def test_flags_rendering(self):
        caps = get_algorithm("first_fit").capabilities
        rendered = caps.flags()
        assert rendered == "powers,deterministic,sparse,certifiable"
        assert "certifiable" in rendered
        assert "randomized" in get_algorithm("sqrt_coloring").capabilities.flags()


class TestCapabilityEnforcement:
    def test_needs_powers_missing(self, instance):
        with pytest.raises(TypeError, match="powers"):
            run_algorithm("first_fit", instance)

    def test_self_powered_rejects_powers(self, instance, powers):
        with pytest.raises(TypeError, match="chooses its own powers"):
            run_algorithm("trivial", instance, powers=powers)

    def test_deterministic_rejects_rng(self, instance, powers):
        with pytest.raises(TypeError, match="deterministic"):
            run_algorithm("first_fit", instance, powers=powers, rng=0)

    def test_unknown_param_propagates_as_type_error(self, instance, powers):
        with pytest.raises(TypeError):
            run_algorithm("first_fit", instance, powers=powers, bogus=1)

    def test_exact_free_power_opt_out(self, instance):
        outcome = run_algorithm("exact", instance, free_power=True)
        assert outcome.extras["optimal_colors"] == outcome.schedule.num_colors

    def test_local_search_requires_schedule(self, instance):
        with pytest.raises(TypeError, match="schedule="):
            run_algorithm("local_search", instance)

    def test_capabilities_declarative(self):
        assert get_algorithm("protocol_model").capabilities.supports_sparse is False
        assert get_algorithm("sqrt_coloring").capabilities.deterministic is False
        assert get_algorithm("exact").capabilities.needs_powers is True

    def test_sparse_default_warns_for_unsupported_algorithm(
        self, instance, powers
    ):
        from repro.core.gains import config_scope

        with config_scope(backend="sparse"):
            with pytest.warns(RuntimeWarning, match="sparse-backend"):
                run_algorithm("protocol_model", instance, powers=powers)

    def test_sparse_capable_algorithm_does_not_warn(self, instance, powers):
        import warnings as _warnings

        from repro.core.gains import config_scope

        with config_scope(backend="sparse"):
            with _warnings.catch_warnings():
                _warnings.simplefilter("error", RuntimeWarning)
                run_algorithm("first_fit", instance, powers=powers)


class TestAdapterBitIdentity:
    """Registry outcomes must equal the direct implementation calls."""

    def test_trivial(self, instance):
        out = run_algorithm("trivial", instance)
        np.testing.assert_array_equal(
            out.schedule.colors, trivial_schedule(instance).colors
        )

    def test_first_fit(self, instance, powers):
        out = run_algorithm("first_fit", instance, powers=powers)
        ref = first_fit_schedule(instance, powers)
        np.testing.assert_array_equal(out.schedule.colors, ref.colors)
        np.testing.assert_array_equal(out.schedule.powers, ref.powers)

    def test_first_fit_free_power(self, instance):
        out = run_algorithm("first_fit_free_power", instance)
        ref = first_fit_free_power_schedule(instance)
        np.testing.assert_array_equal(out.schedule.colors, ref.colors)

    def test_peeling(self, instance, powers):
        out = run_algorithm("peeling", instance, powers=powers)
        np.testing.assert_array_equal(
            out.schedule.colors, peeling_schedule(instance, powers).colors
        )

    def test_gain_scaling_with_densest_extra(self, instance, powers):
        target = 2.0 * instance.beta
        out = run_algorithm(
            "gain_scaling", instance, powers=powers, gamma_target=target
        )
        ref = rescale_gain_coloring(instance, powers, target)
        np.testing.assert_array_equal(out.schedule.colors, ref.colors)
        subset, _ = densest_subset_at_gain(instance, powers, target)
        np.testing.assert_array_equal(out.extras["densest_subset"], subset)

    def test_sqrt_coloring_with_stats(self, instance):
        out = run_algorithm("sqrt_coloring", instance, rng=11)
        ref, stats = sqrt_coloring(instance, rng=11)
        np.testing.assert_array_equal(out.schedule.colors, ref.colors)
        assert out.stats.rounds == stats.rounds
        assert out.stats.lp_solves == stats.lp_solves

    def test_local_search(self, instance, powers):
        base = first_fit_schedule(instance, powers)
        out = run_algorithm("local_search", instance, schedule=base)
        ref = improve_schedule(instance, base)
        np.testing.assert_array_equal(out.schedule.colors, ref.colors)

    def test_distributed_with_stats(self, instance):
        out = run_algorithm("distributed", instance, rng=5)
        ref, stats = distributed_coloring(instance, rng=5)
        np.testing.assert_array_equal(out.schedule.colors, ref.colors)
        assert out.stats.slots == stats.slots

    def test_exact(self, instance, powers):
        out = run_algorithm("exact", instance, powers=powers)
        opt, ref = exact_minimum_colors(instance, powers)
        assert out.extras["optimal_colors"] == opt
        np.testing.assert_array_equal(out.schedule.colors, ref.colors)

    def test_protocol_model(self, instance, powers):
        out = run_algorithm("protocol_model", instance, powers=powers)
        ref, raw = protocol_schedule(instance, powers)
        np.testing.assert_array_equal(out.schedule.colors, ref.colors)
        assert out.extras["raw_protocol_colors"] == raw


class TestOutcomeDefaults:
    def test_default_extras_is_immutable_and_unshared(self):
        from repro.scheduling.registry import AlgorithmOutcome

        a = AlgorithmOutcome(schedule=None)
        with pytest.raises(TypeError):
            a.extras["polluted"] = 1
        assert dict(AlgorithmOutcome(schedule=None).extras) == {}


class TestExtensibility:
    def test_register_new_substrate(self, instance):
        def adapter(inst, powers, rng, params):
            from repro.scheduling.registry import AlgorithmOutcome
            from repro.scheduling.trivial import trivial_schedule

            return AlgorithmOutcome(trivial_schedule(inst), None, {})

        name = "test_only_substrate"
        spec = AlgorithmSpec(
            name=name,
            summary="test",
            capabilities=AlgorithmCapabilities(
                needs_powers=False, deterministic=True
            ),
            adapter=adapter,
        )
        register(spec)
        try:
            out = run_algorithm(name, instance)
            assert out.schedule.num_colors == instance.n
        finally:
            from repro.scheduling import registry as _registry

            _registry._REGISTRY.pop(name)
