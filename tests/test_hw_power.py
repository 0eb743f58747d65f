"""Board power model."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.hw.power import PowerModel
from repro.hw.specs import AMD_MI100, NVIDIA_V100


@pytest.fixture
def pm() -> PowerModel:
    return PowerModel(NVIDIA_V100)


def test_idle_power_positive(pm):
    p = pm.idle_power(NVIDIA_V100.default_core_mhz, 877)
    assert p > NVIDIA_V100.idle_power_w


def test_peak_power_near_tdp(pm):
    # V100 TDP is 300 W; the model's peak should land in the same class.
    assert 250.0 < pm.peak_power() < 360.0


@pytest.mark.parametrize("floors", [{}, {"core_floor": 0.3, "mem_floor": 0.0}])
def test_peak_power_is_bitwise_the_max_clock_full_load_power(floors):
    """Computed once per model, and equal to the direct evaluation."""
    for spec in (NVIDIA_V100, AMD_MI100):
        model = PowerModel(spec, **floors)
        direct = float(
            model.power(spec.max_core_mhz, spec.mem_freqs_mhz[-1], 1.0, 1.0)
        )
        assert model.peak_power().hex() == direct.hex()
        assert model.power_bounds() == (spec.idle_power_w, direct)


def test_power_increases_with_core_utilization(pm):
    f = NVIDIA_V100.default_core_mhz
    low = pm.power(f, 877, 0.1, 0.5)
    high = pm.power(f, 877, 0.9, 0.5)
    assert high > low


def test_power_increases_with_mem_utilization(pm):
    f = NVIDIA_V100.default_core_mhz
    assert pm.power(f, 877, 0.5, 0.9) > pm.power(f, 877, 0.5, 0.1)


def test_power_increases_with_core_frequency(pm):
    assert pm.power(1530, 877, 0.8, 0.5) > pm.power(700, 877, 0.8, 0.5)


def test_utilization_clipped(pm):
    f = NVIDIA_V100.default_core_mhz
    assert pm.power(f, 877, 1.5, 0.5) == pytest.approx(pm.power(f, 877, 1.0, 0.5))
    assert pm.power(f, 877, -0.5, 0.5) == pytest.approx(pm.power(f, 877, 0.0, 0.5))


def test_vectorized_power(pm):
    freqs = np.array([500.0, 1000.0, 1530.0])
    p = pm.power(freqs, 877.0, 0.8, 0.5)
    assert p.shape == freqs.shape
    assert np.all(np.diff(p) > 0)


def test_dynamic_power_superlinear_in_frequency(pm):
    """Halving frequency should more than halve core dynamic power (V²f)."""
    full = pm.power(1530, 877, 1.0, 0.0) - pm.idle_power(1530, 877)
    half = pm.power(765, 877, 1.0, 0.0) - pm.idle_power(765, 877)
    assert half < full / 2


def test_floor_power_burns_at_zero_utilization(pm):
    """Clock-tree floors: idle at high clocks > idle at low clocks."""
    assert pm.idle_power(1530, 877) > pm.idle_power(135, 877)


def test_invalid_floors_rejected():
    with pytest.raises(ValidationError):
        PowerModel(NVIDIA_V100, core_floor=1.0)
    with pytest.raises(ValidationError):
        PowerModel(AMD_MI100, mem_floor=-0.1)


def test_mi100_model_builds():
    pm = PowerModel(AMD_MI100)
    assert pm.peak_power() > 200.0
