"""Unit conversions."""

import pytest

from repro.common.units import joules, mhz_to_hz


def test_mhz_to_hz():
    assert mhz_to_hz(1530) == pytest.approx(1.53e9)


def test_joules_is_power_times_time():
    assert joules(250.0, 2.0) == pytest.approx(500.0)


def test_joules_zero_duration():
    assert joules(300.0, 0.0) == 0.0
