"""Public API surface tests: everything advertised in __all__ exists
and the README quickstart works."""

import numpy as np

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 100, size=(20, 2))
        pairs = [(2 * i, 2 * i + 1) for i in range(10)]
        instance = repro.Instance.bidirectional(
            repro.EuclideanMetric(points), pairs
        )
        session = repro.Problem(instance).session()
        result = session.schedule("sqrt_coloring", rng=rng)
        assert result.validate().num_colors >= 1
        assert result.provenance.algorithm == "sqrt_coloring"

    def test_free_function_shims_are_gone(self):
        """Schedulers run through the registry; their implementations
        are imported from the submodules, not re-exported."""
        import repro.scheduling

        for name in ("first_fit_schedule", "peeling_schedule", "trivial_schedule"):
            assert not hasattr(repro, name)
            assert name not in repro.scheduling.__all__
        assert not hasattr(repro, "ReproDeprecationWarning")
        assert not hasattr(repro, "RequestHandles")

    def test_test_only_references_are_gone(self):
        """The per-round peel, the one-class accumulator and the peel
        fallback records were references for the tests only; the tests
        keep their own copies (``tests/reference.py``)."""
        import repro.api
        import repro.core
        import repro.core.kernels

        assert not hasattr(repro, "ClassAccumulator")
        assert not hasattr(repro.core, "ClassAccumulator")
        assert not hasattr(repro.InterferenceContext, "accumulator")
        assert not hasattr(
            repro.InterferenceContext, "greedy_max_feasible_subset"
        )
        for name in ("PeelFallbackInfo", "peel_fallback_records"):
            assert not hasattr(repro.core.kernels, name)
        assert "peel_fallbacks" not in repro.api.Provenance.__dataclass_fields__

    def test_registry_surface(self):
        names = repro.run_algorithm.__module__  # exported callables exist
        assert names == "repro.scheduling.registry"
        assert "first_fit" in [s.name for s in repro.list_algorithms()]

    def test_error_hierarchy(self):
        assert issubclass(repro.InvalidInstanceError, repro.ReproError)
        assert issubclass(repro.InvalidScheduleError, repro.ReproError)
        assert issubclass(repro.InfeasibleError, repro.ReproError)

    def test_power_assignments_are_assignments(self):
        for cls in (
            repro.UniformPower,
            repro.LinearPower,
            repro.SquareRootPower,
        ):
            assert issubclass(cls, repro.ObliviousPowerAssignment)
            assert issubclass(cls, repro.PowerAssignment)
