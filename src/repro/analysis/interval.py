"""Closed-interval arithmetic for the certification pass.

Every certificate bound is an :class:`Interval` ``[lo, hi]``. The
operations used by the static executor walk (addition, scaling by a
non-negative factor, max) are all monotone, so evaluating the
execution recurrence once at every interval's lower endpoint and once at
the upper endpoint yields sound bounds — the classic endpoint argument
for monotone dataflow. ``contains`` applies the certification plane's
relative slack (1e-12 by default) so measured floating-point sums that
re-associate against the static walk still land inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ValidationError

#: Relative slack applied when checking that a measurement lies inside a
#: certified interval: covers float re-association between the static
#: walk and the engine's accumulation order, nothing more.
CONTAINS_RTOL = 1e-12


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` with ``lo <= hi``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValidationError("interval endpoints cannot be NaN")
        if self.lo > self.hi:
            raise ValidationError(f"interval lo {self.lo} > hi {self.hi}")

    @staticmethod
    def point(x: float) -> "Interval":
        """The degenerate interval ``[x, x]`` (an exact static value)."""
        return Interval(float(x), float(x))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def add(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, k: float) -> "Interval":
        """Multiply by a non-negative scalar."""
        if k < 0:
            raise ValidationError(f"scale factor must be >= 0 ({k})")
        return Interval(self.lo * k, self.hi * k)

    def max(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def contains(self, x: float) -> bool:
        """Whether ``x`` lies inside, up to :data:`CONTAINS_RTOL` slack."""
        slack = CONTAINS_RTOL * max(abs(self.lo), abs(self.hi), abs(x))
        return self.lo - slack <= x <= self.hi + slack

    def as_dict(self) -> dict[str, float]:
        return {"lo": self.lo, "hi": self.hi}

    def __str__(self) -> str:
        if self.lo == self.hi:
            return f"[{self.lo:.6g}]"
        return f"[{self.lo:.6g}, {self.hi:.6g}]"
