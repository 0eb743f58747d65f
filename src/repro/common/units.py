"""Unit conventions and conversions.

The whole stack uses SI base conventions internally:

- time: seconds (``float``)
- frequency: MHz for clock tables (matching the NVML/ROCm-SMI interfaces,
  which traffic in MHz) and Hz only inside the timing model
- power: watts
- energy: joules
"""

from __future__ import annotations

#: One MHz expressed in Hz.
MHZ: float = 1.0e6


def mhz_to_hz(mhz: float) -> float:
    """Convert a frequency in MHz to Hz."""
    return float(mhz) * MHZ


def joules(power_watts: float, duration_s: float) -> float:
    """Energy (J) of a constant draw ``power_watts`` over ``duration_s``."""
    return float(power_watts) * float(duration_s)
