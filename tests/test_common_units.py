"""Unit conversions."""

import pytest

from repro.common.units import mhz_to_hz


def test_mhz_to_hz():
    assert mhz_to_hz(1530) == pytest.approx(1.53e9)
