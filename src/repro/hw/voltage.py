"""Voltage/frequency curve.

DVFS saves energy because dynamic power scales as ``C · V(f)² · f`` and the
achievable voltage shrinks with the clock. We model ``V(f)`` as an affine ramp
between ``(f_min, v_min)`` and ``(f_max, v_max)`` with a mild superlinear
exponent: near the top of the table each extra MHz costs disproportionally
more voltage, which is what makes the last few frequency bins so expensive on
real boards (and what creates interior energy minima, §2.2 / Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class VoltageCurve:
    """Voltage as a function of core frequency.

    Attributes
    ----------
    f_min_mhz, f_max_mhz:
        Frequency range covered by the curve (the device table endpoints).
    v_min, v_max:
        Voltages at the endpoints (volts).
    gamma:
        Shape exponent; ``1.0`` is affine, ``> 1`` makes high frequencies
        voltage-hungry.
    """

    f_min_mhz: float
    f_max_mhz: float
    v_min: float = 0.60
    v_max: float = 1.08
    gamma: float = 3.5

    def __post_init__(self) -> None:
        if self.f_max_mhz <= self.f_min_mhz:
            raise ConfigurationError(
                f"voltage curve needs f_max > f_min "
                f"({self.f_max_mhz!r} <= {self.f_min_mhz!r})"
            )
        if self.v_max <= self.v_min:
            raise ConfigurationError(
                f"voltage curve needs v_max > v_min "
                f"({self.v_max!r} <= {self.v_min!r})"
            )
        if self.gamma <= 0:
            raise ConfigurationError(f"gamma must be positive ({self.gamma!r})")

    def _clip(self, f_mhz):
        # ``np.clip``'s values without its wrapper's per-call cost: each
        # ``normalized_v2f`` clips twice, once itself and once in ``voltage``.
        return np.minimum(np.maximum(f_mhz, self.f_min_mhz), self.f_max_mhz)

    def voltage(self, f_mhz: float | np.ndarray) -> float | np.ndarray:
        """Voltage (V) at core frequency ``f_mhz``.

        Frequencies are clipped to the curve's range: the devices never run
        outside their tables, but model-search code may probe continuous
        frequencies in between.
        """
        f = self._clip(f_mhz)
        x = (f - self.f_min_mhz) / (self.f_max_mhz - self.f_min_mhz)
        return self.v_min + (self.v_max - self.v_min) * np.power(x, self.gamma)

    def normalized_v2f(self, f_mhz: float | np.ndarray) -> float | np.ndarray:
        """Dynamic-power scale factor ``(V(f)/V_max)² · (f/f_max)``.

        Equals 1 at the top of the table; this is the factor the core-domain
        dynamic power is multiplied by.
        """
        f = self._clip(f_mhz)
        scale = (self.voltage(f) / self.v_max) ** 2 * (f / self.f_max_mhz)
        if np.isscalar(f_mhz):
            return float(scale)
        return scale
