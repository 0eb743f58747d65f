"""Energy-target vocabulary and resolution (paper §4.3, §5).

An :class:`EnergyTarget` is what a SYnergy user attaches to a kernel
submission: ``q.submit(MIN_EDP, cgf)``. Targets resolve to a concrete
frequency index against measured (or predicted) sweep data via
:meth:`EnergyTarget.resolve_index`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.common.errors import ValidationError
from repro.metrics.energy import ed2p, edp
from repro.metrics.tradeoff import energy_saving_index, performance_loss_index


def _first_minimum(values: np.ndarray) -> int:
    """Lowest index within rel 1e-12 (a few ulps) of the minimum: a plain
    ``argmin`` breaks an exact tie by whichever product rounds lower,
    which can flip when the sweep is rescaled."""
    best = int(np.argmin(values))
    near = np.flatnonzero(values <= values[best] + abs(values[best]) * 1e-12)
    return int(near[0]) if near.size else best


class TargetKind(enum.Enum):
    """The target families of §4.3/§5, plus the deadline/SLA extensions."""

    MAX_PERF = "MAX_PERF"
    MIN_ENERGY = "MIN_ENERGY"
    MIN_EDP = "MIN_EDP"
    MIN_ED2P = "MIN_ED2P"
    ES = "ES"
    PL = "PL"
    #: Max energy saving s.t. predicted completion ≤ ``value`` seconds
    #: (the deadline-aware contract of arXiv:2004.08177). When no table
    #: clock can meet the deadline, the fastest clock is selected — a
    #: deadline is never sacrificed for energy.
    DEADLINE = "DEADLINE"
    #: Deadline expressed relative to the fastest achievable time:
    #: ``deadline = value × min(time)``. Scale-invariant, so it resolves
    #: identically on measured sweeps and normalized shape predictions.
    SLA_SLACK = "SLA_SLACK"


#: Relative tolerance for deadline feasibility: a clock whose predicted
#: time exceeds the deadline by less than this is still feasible (guards
#: against float round-off at exact slack boundaries).
DEADLINE_RTOL = 1e-9


def deadline_index(times, energies, deadline_s: float) -> int:
    """Lowest-energy frequency index whose time meets ``deadline_s``.

    The SLA-guarded selection rule: among the feasible clocks (time ≤
    deadline) pick the minimum-energy one; when the feasible set is empty
    fall back to the fastest clock, so the selection is never slower than
    the MAX_PERF plan.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    if t.size == 0:
        raise ValidationError("deadline resolution needs a non-empty sweep")
    feasible = np.flatnonzero(t <= deadline_s * (1.0 + DEADLINE_RTOL))
    if feasible.size == 0:
        return int(np.argmin(t))
    return int(feasible[np.argmin(e[feasible])])


@dataclass(frozen=True)
class EnergyTarget:
    """A per-kernel energy goal, e.g. ``MIN_EDP``, ``ES_25`` or ``DEADLINE_0.05``.

    ``percent`` is only meaningful for the ES/PL families; ``value``
    carries the deadline in seconds (DEADLINE) or the slack multiplier
    (SLA_SLACK).
    """

    kind: TargetKind
    percent: float | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind in (TargetKind.ES, TargetKind.PL):
            if self.percent is None:
                raise ValidationError(f"{self.kind.value} target needs a percentage")
            if not 0.0 <= self.percent <= 100.0:
                raise ValidationError(
                    f"{self.kind.value} percentage must be in [0, 100] "
                    f"({self.percent!r})"
                )
        elif self.percent is not None:
            raise ValidationError(
                f"{self.kind.value} target does not take a percentage"
            )
        if self.kind is TargetKind.DEADLINE:
            if self.value is None or not self.value > 0.0:
                raise ValidationError(
                    f"DEADLINE target needs a positive deadline in seconds "
                    f"({self.value!r})"
                )
        elif self.kind is TargetKind.SLA_SLACK:
            if self.value is None or not self.value >= 1.0:
                raise ValidationError(
                    f"SLA_SLACK target needs a slack factor >= 1 ({self.value!r})"
                )
        elif self.value is not None:
            raise ValidationError(f"{self.kind.value} target does not take a value")

    @cached_property
    def name(self) -> str:
        """Canonical spelling, e.g. ``"ES_25"`` or ``"MIN_EDP"``.

        Cached: plans key on it, and the batched engine reads it for
        every target it resolves."""
        if self.percent is not None:
            return f"{self.kind.value}_{self.percent:g}"
        if self.value is not None:
            return f"{self.kind.value}_{self.value:g}"
        return self.kind.value

    @classmethod
    def parse(cls, text: str) -> "EnergyTarget":
        """Parse a canonical spelling (``"MIN_EDP"``, ``"ES_25"``, ...)."""
        t = text.strip().upper()
        simple = {
            "MAX_PERF": TargetKind.MAX_PERF,
            "MIN_ENERGY": TargetKind.MIN_ENERGY,
            "MIN_EDP": TargetKind.MIN_EDP,
            "MIN_ED2P": TargetKind.MIN_ED2P,
        }
        if t in simple:
            return cls(simple[t])
        m = re.fullmatch(r"(ES|PL)_(\d+(?:\.\d+)?)", t)
        if m:
            return cls(TargetKind[m.group(1)], float(m.group(2)))
        m = re.fullmatch(
            r"(DEADLINE|SLA_SLACK)_(\d+(?:\.\d+)?(?:E[+-]?\d+)?)", t
        )
        if m:
            return cls(TargetKind[m.group(1)], value=float(m.group(2)))
        raise ValidationError(f"cannot parse energy target {text!r}")

    def resolve_index(
        self, freqs, times, energies, default_index: int
    ) -> int:
        """Pick the frequency index that realizes this target on sweep data.

        This is the "search algorithm" of §6.2 step ⑥: given per-frequency
        (predicted or measured) time and energy, select the configuration.
        """
        t = np.asarray(times, dtype=float)
        e = np.asarray(energies, dtype=float)
        if self.kind is TargetKind.MAX_PERF:
            return _first_minimum(t)
        if self.kind is TargetKind.MIN_ENERGY:
            return _first_minimum(e)
        if self.kind is TargetKind.MIN_EDP:
            return _first_minimum(edp(e, t))
        if self.kind is TargetKind.MIN_ED2P:
            return _first_minimum(ed2p(e, t))
        if self.kind is TargetKind.DEADLINE:
            assert self.value is not None
            return deadline_index(t, e, self.value)
        if self.kind is TargetKind.SLA_SLACK:
            assert self.value is not None
            return deadline_index(t, e, self.value * float(np.min(t)))
        if self.kind is TargetKind.ES:
            assert self.percent is not None
            return energy_saving_index(freqs, t, e, default_index, self.percent)
        assert self.kind is TargetKind.PL and self.percent is not None
        return performance_loss_index(freqs, t, e, default_index, self.percent)

    def __str__(self) -> str:
        return self.name


# Canonical instances used throughout the paper's evaluation.
MAX_PERF = EnergyTarget(TargetKind.MAX_PERF)
MIN_ENERGY = EnergyTarget(TargetKind.MIN_ENERGY)
MIN_EDP = EnergyTarget(TargetKind.MIN_EDP)
MIN_ED2P = EnergyTarget(TargetKind.MIN_ED2P)
ES_25 = EnergyTarget(TargetKind.ES, 25.0)
ES_50 = EnergyTarget(TargetKind.ES, 50.0)
ES_75 = EnergyTarget(TargetKind.ES, 75.0)
ES_100 = EnergyTarget(TargetKind.ES, 100.0)
PL_25 = EnergyTarget(TargetKind.PL, 25.0)
PL_50 = EnergyTarget(TargetKind.PL, 50.0)
PL_75 = EnergyTarget(TargetKind.PL, 75.0)


def DEADLINE(seconds: float) -> EnergyTarget:  # noqa: N802 - target constructor
    """Max energy saving s.t. predicted completion ≤ ``seconds``."""
    return EnergyTarget(TargetKind.DEADLINE, value=float(seconds))


def SLA_SLACK(factor: float) -> EnergyTarget:  # noqa: N802 - target constructor
    """Max energy saving s.t. time ≤ ``factor`` × the fastest achievable."""
    return EnergyTarget(TargetKind.SLA_SLACK, value=float(factor))

#: The ten objectives evaluated in Table 2, in the paper's row order.
TABLE2_OBJECTIVES: tuple[EnergyTarget, ...] = (
    MAX_PERF,
    MIN_ENERGY,
    MIN_EDP,
    MIN_ED2P,
    ES_25,
    ES_50,
    ES_75,
    PL_25,
    PL_50,
    PL_75,
)
