"""Tests for power assignments."""

import numpy as np
import pytest

from repro.core.errors import InvalidScheduleError
import repro.power
from repro.core.instance import Instance
from repro.geometry.line import LineMetric
from repro.power.base import ObliviousPowerAssignment
from repro.power.explicit import ExplicitPower, geometric_power
from repro.power.oblivious import (
    FunctionPower,
    LinearPower,
    MeanPower,
    SquareRootPower,
    UniformPower,
)


@pytest.fixture
def instance():
    # Links of length 1, 2, 4 (losses 1, 8, 64 at alpha=3).
    metric = LineMetric([0.0, 1.0, 10.0, 12.0, 30.0, 34.0])
    return Instance.bidirectional(metric, [(0, 1), (2, 3), (4, 5)], alpha=3.0)


class TestObliviousFamilies:
    def test_uniform(self, instance):
        assert np.allclose(UniformPower(2.0)(instance), [2.0, 2.0, 2.0])

    def test_linear(self, instance):
        assert np.allclose(LinearPower()(instance), [1.0, 8.0, 64.0])

    def test_sqrt(self, instance):
        assert np.allclose(SquareRootPower()(instance), [1.0, np.sqrt(8), 8.0])

    def test_mean_family_interpolates(self, instance):
        assert np.allclose(MeanPower(0.0)(instance), UniformPower()(instance))
        assert np.allclose(MeanPower(1.0)(instance), LinearPower()(instance))
        assert np.allclose(MeanPower(0.5)(instance), SquareRootPower()(instance))

    def test_mean_superlinear(self, instance):
        powers = MeanPower(2.0)(instance)
        assert np.allclose(powers, [1.0, 64.0, 4096.0])

    def test_scale_parameter(self, instance):
        assert np.allclose(
            SquareRootPower(scale=3.0)(instance), 3.0 * SquareRootPower()(instance)
        )

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            MeanPower(-0.5)

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError):
            UniformPower(0.0)

    def test_names(self):
        assert UniformPower().name == "uniform"
        assert LinearPower().name == "linear"
        assert SquareRootPower().name == "sqrt"
        assert MeanPower(0.75).name == "loss^0.75"

    def test_obliviousness_is_declared(self):
        assert SquareRootPower().is_oblivious()


class TestFunctionPower:
    def test_custom_function(self, instance):
        custom = FunctionPower(lambda loss: loss + 1.0, name="l+1")
        assert np.allclose(custom(instance), [2.0, 9.0, 65.0])
        assert custom.name == "l+1"

    def test_function_returning_zero_rejected(self, instance):
        bad = FunctionPower(lambda loss: loss * 0.0)
        with pytest.raises(InvalidScheduleError):
            bad(instance)

    def test_function_returning_nan_rejected(self, instance):
        bad = FunctionPower(lambda loss: loss * np.nan)
        with pytest.raises(InvalidScheduleError):
            bad(instance)


class TestExplicitPower:
    def test_round_trip(self, instance):
        explicit = ExplicitPower([1.0, 2.0, 3.0])
        assert np.allclose(explicit(instance), [1.0, 2.0, 3.0])

    def test_size_mismatch_rejected(self, instance):
        with pytest.raises(ValueError, match="cover"):
            ExplicitPower([1.0, 2.0])(instance)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            ExplicitPower([1.0, -2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ExplicitPower([])


class TestGeometricPower:
    def test_ratios_follow_base(self, instance):
        assignment = geometric_power(instance, base=2.0)
        powers = assignment(instance)
        assert powers[1] / powers[0] == pytest.approx(2.0)
        assert powers[2] / powers[1] == pytest.approx(2.0)

    def test_default_base_uses_alpha(self, instance):
        assignment = geometric_power(instance)
        powers = assignment(instance)
        expected = 2.0 ** (instance.alpha / 2.0)
        assert powers[1] / powers[0] == pytest.approx(expected)

    def test_bad_base_rejected(self, instance):
        with pytest.raises(ValueError):
            geometric_power(instance, base=0.0)


#: One of each oblivious family in repro.power (several shapes of the
#: parametrized ones), for the one-power resolve below.
ONE_POWER_CASES = [
    UniformPower(2.0),
    LinearPower(0.5),
    SquareRootPower(),
    SquareRootPower(3.0),
    MeanPower(0.0),
    MeanPower(0.25),
    MeanPower(0.5),
    MeanPower(1.0),
    MeanPower(1.7, scale=2.0),
    FunctionPower(lambda loss: 1.0 / (1.0 + loss), name="decaying"),
]


class TestOnePowerResolve:
    """A live session resolves only an arrival's own power, so
    ``f(losses[s])`` must equal ``f(losses)[s]`` bit for bit — including
    across SIMD tails (lengths around multiples of 8) and misaligned
    starts."""

    def test_every_oblivious_family_is_covered(self):
        families = {
            obj
            for obj in map(lambda name: getattr(repro.power, name), repro.power.__all__)
            if isinstance(obj, type)
            and issubclass(obj, ObliviousPowerAssignment)
            and obj is not ObliviousPowerAssignment
        }
        assert families == {type(case) for case in ONE_POWER_CASES}

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 1023, 1026])
    @pytest.mark.parametrize("assignment", ONE_POWER_CASES, ids=lambda a: a.name)
    def test_subset_resolve_is_bitwise_the_full_one(self, assignment, length):
        rng = np.random.default_rng(length)
        # Losses of links from 1e-3 to 1e3 long at alpha = 3, behind one
        # spare entry so the slices below also start misaligned.
        spare = rng.uniform(1e-3, 1e3, size=length + 1) ** 3.0
        for losses in (spare[:length], spare[1:]):
            full = assignment.power_of_loss(losses)
            slot_sets = [[s] for s in range(min(length, 9))]
            slot_sets.append([length - 1])
            for size in (2, 3, 8, 9, 17):
                if size <= length:
                    slot_sets.append(sorted(rng.choice(length, size, replace=False)))
            for slots in slot_sets:
                one = assignment.power_of_loss(losses[slots])
                assert one.view(np.uint64).tolist() == (
                    full[slots].view(np.uint64).tolist()
                ), slots
                checked = assignment.of_losses(losses[slots])
                assert checked.view(np.uint64).tolist() == (
                    full[slots].view(np.uint64).tolist()
                )

    def test_of_losses_rejects_bad_powers(self):
        with pytest.raises(InvalidScheduleError):
            FunctionPower(lambda loss: loss * 0.0).of_losses(np.array([2.0]))
