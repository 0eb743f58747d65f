"""Online frequency search — the dynamic-DVFS baseline.

Related work tunes DVFS *online*: measure a kernel at the current clock,
move the clock, measure again, converge (e.g. Sourouri et al.'s exhaustive
dynamic tuning). SYnergy's pitch is that compile-time models skip that
exploration cost entirely. :class:`OnlineFrequencyTuner` implements a
competent online baseline so the two approaches can be compared on equal
footing (the ``online_vs_static`` artifact of
:mod:`repro.experiments.artifacts`):

- per kernel name, golden-section-style ternary search over the core
  frequency table, driven by *measured* per-launch objective values,
- measurement noise aware: each probe uses the fine-grained (sensor)
  energy reading, exactly what a runtime tuner would see,
- exploration cost is explicit: every probe runs the kernel at a
  potentially bad clock and pays the clock-switch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ValidationError
from repro.metrics.energy import ed2p, edp
from repro.metrics.targets import EnergyTarget, TargetKind


@dataclass
class _SearchState:
    """Ternary-search bracket over table indices for one kernel."""

    lo: int
    hi: int
    #: (index, objective) measurements collected so far.
    history: list[tuple[int, float]] = field(default_factory=list)
    converged: bool = False

    def best_index(self) -> int:
        """Index with the best (lowest) measured objective so far."""
        if not self.history:
            raise ValidationError("no measurements recorded yet")
        return min(self.history, key=lambda pair: pair[1])[0]


class OnlineFrequencyTuner:
    """Measure-and-move tuning over repeated launches of the same kernels.

    Drive it manually: call :meth:`next_frequency` before a launch, run the
    kernel at that clock, then report the measurement with :meth:`observe`.
    """

    def __init__(
        self,
        core_freqs_mhz: tuple[int, ...],
        target: EnergyTarget,
        tolerance_steps: int = 2,
    ) -> None:
        if len(core_freqs_mhz) < 2:
            raise ValidationError("online tuning needs at least two clocks")
        if target.kind in (
            TargetKind.ES,
            TargetKind.PL,
            TargetKind.DEADLINE,
            TargetKind.SLA_SLACK,
        ):
            raise ValidationError(
                f"{target.name} needs the full curve; online search supports "
                "the scalar objectives (MAX_PERF/MIN_ENERGY/MIN_EDP/MIN_ED2P)"
            )
        if int(tolerance_steps) < 1:
            # 0 or negative would make the bracket endgame unreachable:
            # the search could never declare convergence.
            raise ValidationError(
                f"tolerance_steps must be >= 1 ({tolerance_steps!r})"
            )
        self.freqs = tuple(core_freqs_mhz)
        self.target = target
        self.tolerance_steps = int(tolerance_steps)
        self._states: dict[str, _SearchState] = {}

    def _objective(self, time_s: float, energy_j: float) -> float:
        kind = self.target.kind
        if kind is TargetKind.MAX_PERF:
            return time_s
        if kind is TargetKind.MIN_ENERGY:
            return energy_j
        if kind is TargetKind.MIN_EDP:
            return float(edp(energy_j, time_s))
        return float(ed2p(energy_j, time_s))

    def _state(self, kernel_name: str) -> _SearchState:
        if kernel_name not in self._states:
            self._states[kernel_name] = _SearchState(lo=0, hi=len(self.freqs) - 1)
        return self._states[kernel_name]

    def next_frequency(self, kernel_name: str) -> int:
        """The clock (MHz) to try on the next launch of this kernel."""
        state = self._state(kernel_name)
        # Bounded loop: each iteration either returns an unprobed clock or
        # strictly shrinks the bracket, so len(freqs) iterations suffice.
        for _ in range(len(self.freqs) + 2):
            if state.converged:
                return self.freqs[state.best_index()]
            probed = {index for index, _ in state.history}
            if state.hi - state.lo <= self.tolerance_steps:
                # Small bracket: exhaust it, then settle on the best.
                for i in range(state.lo, state.hi + 1):
                    if i not in probed:
                        return self.freqs[i]
                state.converged = True
                continue
            # Ternary probes at 1/3 and 2/3 of the current bracket.
            for candidate in self._probe_indices(state):
                if candidate not in probed:
                    return self.freqs[candidate]
            if not self._shrink(state):
                # No progress possible (e.g. tied probes at the bracket
                # edge): probe anything left in the bracket, else stop.
                for i in range(state.lo, state.hi + 1):
                    if i not in probed:
                        return self.freqs[i]
                state.converged = True
        state.converged = True  # pragma: no cover - defensive
        return self.freqs[state.best_index()]  # pragma: no cover

    def observe(
        self, kernel_name: str, core_mhz: int, time_s: float, energy_j: float
    ) -> None:
        """Record the measured outcome of a launch at ``core_mhz``."""
        if core_mhz not in self.freqs:
            raise ValidationError(f"unknown clock {core_mhz} MHz")
        state = self._state(kernel_name)
        index = self.freqs.index(core_mhz)
        state.history.append((index, self._objective(time_s, energy_j)))

    def converged(self, kernel_name: str) -> bool:
        """Whether this kernel's search has settled."""
        return self._state(kernel_name).converged

    def probes_used(self, kernel_name: str) -> int:
        """Number of measured launches consumed by the search so far."""
        return len(self._state(kernel_name).history)

    # ------------------------------------------------------------- internals

    def _probe_indices(self, state: _SearchState) -> tuple[int, int]:
        third = max((state.hi - state.lo) // 3, 1)
        a = min(state.lo + third, state.hi)
        b = max(state.hi - third, state.lo)
        if a == b and a < state.hi:
            b = a + 1
        return a, b

    def _shrink(self, state: _SearchState) -> bool:
        """Shrink the bracket using the two probe measurements.

        Returns True when the bracket strictly shrank. Uses the *latest*
        measurement per index (a re-probed noisy clock updates its value).
        """
        a, b = self._probe_indices(state)
        obj: dict[int, float] = {}
        for index, value in state.history:
            obj[index] = value
        if a == b:
            state.converged = True
            return False
        old = (state.lo, state.hi)
        if obj[a] <= obj[b]:
            state.hi = b
        else:
            state.lo = a
        return (state.lo, state.hi) != old


def tune_kernel_online(
    queue,
    kernel,
    tuner: OnlineFrequencyTuner,
    max_launches: int = 64,
) -> dict[str, float]:
    """Run repeated launches under the tuner until convergence.

    Returns exploration statistics: launches used, the chosen clock, and
    the total energy spent while exploring (the online approach's sunk
    cost that the compile-time approach avoids).
    """
    spent = 0.0
    launches = 0
    mem = queue.gpu.spec.default_mem_mhz
    while not tuner.converged(kernel.name) and launches < max_launches:
        core = tuner.next_frequency(kernel.name)
        event = queue.submit(
            mem, core, lambda h: h.parallel_for(kernel.work_items, kernel)
        )
        event.wait()
        measured = queue.kernel_energy_consumption(event)
        tuner.observe(kernel.name, core, event.duration_s, measured)
        spent += event.record.energy_j
        launches += 1
    return {
        "launches": float(launches),
        "chosen_core_mhz": float(tuner.next_frequency(kernel.name)),
        "exploration_energy_j": spent,
    }
