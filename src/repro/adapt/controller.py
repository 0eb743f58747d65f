"""The deadline-budgeted adaptive controller.

:class:`AdaptiveController` drives a :class:`~repro.core.queue.SynergyQueue`
through a stream of kernels under a per-stream deadline, choosing each
launch's clock by the current :class:`~repro.adapt.ladder.LadderLevel`:

- **MODEL / REFRESHED** — split the remaining deadline budget over the
  remaining launches (proportionally to each kernel's predicted nominal
  time), then pick the minimum-energy clock whose *calibrated* predicted
  time fits the launch's share (:func:`~repro.metrics.targets
  .deadline_index`); if no clock fits, catch up at the top clock,
- **STATIC** — replay the frozen compile-time plan entry,
- **MAX_PERF** — pin the top clock.

Every measured launch feeds the :class:`~repro.adapt.drift.DriftDetector`;
a drift event at MODEL escalates to REFRESHED and incrementally refreshes
the model bundle from the recent measurement window (falling back to
STATIC if the window cannot support a refresh). At REFRESHED, drift on a
*new* ``(kernel, metric)`` stream folds the evidence into another refresh
— each refresh is a retry with a richer window — while an "up" drift on a
stream that already forced a refresh proves refreshing is not working and
falls back to STATIC. From STATIC, a measured launch overrunning its
budget share beyond :data:`MISS_GRACE` pins MAX_PERF. The ladder is monotone:
a controller never un-escalates within its lifetime (one degraded board).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.adapt.drift import DriftDetector, DriftEvent
from repro.adapt.ladder import DegradationLadder, LadderLevel
from repro.common.errors import ConfigurationError, ReproError, ValidationError
from repro.core.compiler import FrequencyPlan
from repro.core.models import DESIGN_COLUMNS, EnergyModelBundle, TrainingSet
from repro.core.predictor import FrequencyPredictor
from repro.core.queue import SynergyQueue
from repro.kernelir.features import extract_features
from repro.kernelir.kernel import KernelIR
from repro.metrics.energy import ed2p, edp
from repro.metrics.targets import DEADLINE_RTOL, EnergyTarget, deadline_index
from repro.obs.session import TraceSession, resolve_trace

#: Floor applied to predicted shapes before scaling (mirrors the predictor).
_SHAPE_FLOOR = 1e-12

#: Rows the rolling measurement window feeding model refreshes holds.
WINDOW = 32

#: Smallest window a refresh accepts (fewer rows fall through to the
#: STATIC rung). In the ``thermal-drift`` chaos scenario the first drift
#: fires on stream 1's opening launch (streams count from 0), when the
#: window holds stream 0's six rows plus the drifting launch itself.
MIN_REFRESH_ROWS = 6

#: Multiplicative tolerance on a launch's budget share before a measured
#: overrun at STATIC pins MAX_PERF.
MISS_GRACE = 1.25


@dataclass(frozen=True)
class LaunchOutcome:
    """One adaptive launch: the decision, the budget and the measurement."""

    kernel: str
    level: LadderLevel
    core_mhz: int  # requested clock (the board may cap it under throttle)
    allocated_s: float  # this launch's share of the remaining deadline budget
    measured_s: float
    energy_j: float  # true per-launch energy (accounting, not the sensor)
    predicted_s: float | None  # None for calibration / STATIC / MAX_PERF
    met: bool  # measured time fit the allocated share
    calibration: bool  # first-sighting top-clock calibration launch

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "level": self.level.name,
            "core_mhz": self.core_mhz,
            "allocated_s": self.allocated_s,
            "measured_s": self.measured_s,
            "energy_j": self.energy_j,
            "predicted_s": self.predicted_s,
            "met": self.met,
            "calibration": self.calibration,
        }


@dataclass(frozen=True)
class StreamReport:
    """One deadline-scoped stream of launches."""

    deadline_s: float
    elapsed_s: float
    energy_j: float
    met: bool
    final_level: LadderLevel
    launches: tuple[LaunchOutcome, ...]

    def as_dict(self) -> dict:
        return {
            "deadline_s": self.deadline_s,
            "elapsed_s": self.elapsed_s,
            "energy_j": self.energy_j,
            "met": self.met,
            "final_level": self.final_level.name,
            "launches": [launch.as_dict() for launch in self.launches],
        }


class AdaptiveController:
    """Supervises a queue's clock choices under deadlines and drift.

    The measurement window, refresh floor and miss tolerance are the
    module constants :data:`WINDOW`, :data:`MIN_REFRESH_ROWS` and
    :data:`MISS_GRACE`; refreshes use
    :meth:`~repro.core.models.EnergyModelBundle.refresh`'s default
    ``fraction``.
    """

    def __init__(
        self,
        queue: SynergyQueue,
        bundle: EnergyModelBundle,
        static_plan: FrequencyPlan,
        static_target: EnergyTarget,
        *,
        trace: TraceSession | None = None,
    ) -> None:
        self.queue = queue
        self.gpu = queue.device.gpu
        self.spec = self.gpu.spec
        self.bundle = bundle
        self.static_plan = static_plan
        self.static_target = static_target
        self.trace = resolve_trace(trace)
        self.detector = DriftDetector(trace=trace)
        self.ladder = DegradationLadder(trace)
        self.predictor = FrequencyPredictor(bundle, self.spec, trace=trace)
        self._freqs = np.asarray(self.spec.core_freqs_mhz, dtype=float)
        self._max_idx = int(np.argmax(self._freqs))
        self.refresh_count = 0
        # Per-kernel (time, energy) calibration scales from live launches.
        self._scales: dict[str, tuple[float, float]] = {}
        # Per-kernel (freq index, measured s) anchor of the latest
        # calibration, for the physical lower bound on predicted times.
        self._anchors: dict[str, tuple[int, float]] = {}
        # (kernel, metric) streams whose "up" drift already forced a
        # refresh: a second firing proves refreshing is not the fix.
        self._drifted_up: set[tuple[str, str]] = set()
        # Rolling (kernel, requested core, measured s, measured J) rows.
        self._window: deque[tuple[KernelIR, int, float, float]] = deque(
            maxlen=WINDOW
        )

    # -------------------------------------------------------------- streams

    def run_stream(
        self,
        kernels: Sequence[KernelIR],
        *,
        deadline_s: float,
        rounds: int = 1,
    ) -> StreamReport:
        """Run ``rounds`` passes over ``kernels`` against one deadline."""
        if not kernels:
            raise ValidationError("run_stream needs at least one kernel")
        if not deadline_s > 0.0:
            raise ValidationError(f"deadline_s must be positive ({deadline_s!r})")
        if int(rounds) < 1:
            raise ValidationError(f"rounds must be >= 1 ({rounds!r})")
        sequence = [kernel for _ in range(int(rounds)) for kernel in kernels]
        start_t = self.gpu.clock.now
        start_events = len(self.queue.events)
        outcomes = [
            self._launch(sequence, pos, start_t, float(deadline_s))
            for pos in range(len(sequence))
        ]
        self.queue.wait()
        elapsed = self.gpu.clock.now - start_t
        energy = sum(
            event.record.energy_j
            for event in self.queue.events[start_events:]
            if event.record is not None
        )
        met = elapsed <= deadline_s * (1.0 + DEADLINE_RTOL)
        self.trace.count("adapt.streams")
        if not met:
            self.trace.count("adapt.stream_misses")
        self.trace.instant(
            self.gpu.clock.now,
            "adapt",
            "adapt.stream",
            "met" if met else "missed",
            deadline_s=float(deadline_s),
            elapsed_s=float(elapsed),
            level=self.ladder.level.name,
        )
        return StreamReport(
            deadline_s=float(deadline_s),
            elapsed_s=float(elapsed),
            energy_j=float(energy),
            met=met,
            final_level=self.ladder.level,
            launches=tuple(outcomes),
        )

    # ------------------------------------------------------------- launches

    def _launch(
        self,
        sequence: Sequence[KernelIR],
        pos: int,
        start_t: float,
        deadline_s: float,
    ) -> LaunchOutcome:
        kernel = sequence[pos]
        budget = start_t + deadline_s - self.gpu.clock.now
        allocated = self._allocate(sequence, pos, budget)
        level = self.ladder.level
        calibration = False
        predicted_s: float | None = None
        predicted_j: float | None = None
        if level <= LadderLevel.REFRESHED:
            scales = self._scales.get(kernel.name)
            if scales is None:
                # First sighting: measure once at the top clock to anchor
                # the predicted shapes to absolute seconds/joules.
                calibration = True
                idx = self._max_idx
            else:
                abs_t, abs_e = self._calibrated_curves(kernel, scales)
                idx = deadline_index(abs_t, abs_e, max(allocated, 0.0))
                if abs_t[idx] > allocated:
                    # No clock is predicted to fit the share: catch up at
                    # the top clock rather than trusting a stale argmin.
                    idx = self._max_idx
                predicted_s = float(abs_t[idx])
                predicted_j = float(abs_e[idx])
            core = int(self.spec.core_freqs_mhz[idx])
        elif level is LadderLevel.STATIC:
            core = self._static_core(kernel)
        else:
            core = int(self.spec.core_freqs_mhz[self._max_idx])

        event = self.queue.submit(
            self.spec.default_mem_mhz,
            core,
            lambda h, k=kernel: h.parallel_for(k.work_items, k),
        )
        event.wait()
        measured_s = event.duration_s
        measured_j = self.queue.kernel_energy_consumption(event)
        assert event.record is not None
        t_end = event.end_s
        self._window.append((kernel, core, measured_s, measured_j))
        if calibration:
            self._calibrate(kernel, core, measured_s, measured_j)
        elif predicted_s is not None and predicted_j is not None:
            self._absorb_residuals(
                t_end, kernel, measured_s, predicted_s, measured_j, predicted_j
            )
            # Track: re-anchor the scales to this measurement, so the
            # detector sees *innovations* (changes), not the model's
            # constant per-kernel shape bias accumulated forever.
            self._calibrate(kernel, core, measured_s, measured_j)
        met = allocated > 0.0 and measured_s <= allocated * (1.0 + DEADLINE_RTOL)
        if (
            not calibration
            and self.ladder.level >= LadderLevel.STATIC
            and measured_s > max(allocated, 0.0) * MISS_GRACE
        ):
            # From STATIC up there is no residual stream left to catch
            # degradation — a measured budget overrun is the signal. The
            # current (post-residual) rung decides: a launch whose drift
            # just forced the static fallback *and* blew its share shows
            # the frozen plan cannot protect the deadline either.
            self._escalate_miss(t_end, kernel, measured_s, allocated)
        return LaunchOutcome(
            kernel=kernel.name,
            level=level,
            core_mhz=core,
            allocated_s=float(allocated),
            measured_s=float(measured_s),
            energy_j=float(event.record.energy_j),
            predicted_s=predicted_s,
            met=met,
            calibration=calibration,
        )

    # ---------------------------------------------------------- predictions

    def _calibrated_curves(
        self, kernel: KernelIR, scales: tuple[float, float]
    ) -> tuple[np.ndarray, np.ndarray]:
        curves = self.predictor.metric_curves(kernel)
        abs_t = np.maximum(curves["time"], _SHAPE_FLOOR) * scales[0]
        abs_e = np.maximum(curves["energy"], _SHAPE_FLOOR) * scales[1]
        anchor = self._anchors.get(kernel.name)
        if anchor is not None:
            # Deadline-safety guard against a refresh gone optimistic:
            # floor every predicted time at perfect frequency scaling
            # from the latest measurement. Above the anchor clock this is
            # a physical bound (runtime cannot improve super-linearly in
            # clock); below it, it prices every kernel as compute-bound —
            # pessimistic for memory-bound kernels, which costs saving,
            # never the deadline.
            idx, measured_s = anchor
            bound = measured_s * (self._freqs[idx] / self._freqs)
            abs_t = np.maximum(abs_t, bound)
        return abs_t, abs_e

    def _calibrate(
        self, kernel: KernelIR, core_mhz: int, measured_s: float, measured_j: float
    ) -> None:
        """Anchor a kernel's predicted shapes to one live measurement."""
        curves = self.predictor.metric_curves(kernel)
        idx = int(np.argmin(np.abs(self._freqs - core_mhz)))
        scale_t = measured_s / float(max(curves["time"][idx], _SHAPE_FLOOR))
        scale_e = measured_j / float(max(curves["energy"][idx], _SHAPE_FLOOR))
        self._scales[kernel.name] = (scale_t, scale_e)
        self._anchors[kernel.name] = (idx, float(measured_s))
        self.predictor.calibrate(kernel, scale_t, scale_e)

    def _nominal_s(self, kernel: KernelIR) -> float | None:
        """Calibrated predicted time at the top clock (budget weighting)."""
        scales = self._scales.get(kernel.name)
        if scales is None:
            return None
        curves = self.predictor.metric_curves(kernel)
        return scales[0] * float(max(curves["time"][self._max_idx], _SHAPE_FLOOR))

    def _allocate(
        self, sequence: Sequence[KernelIR], pos: int, budget_s: float
    ) -> float:
        """This launch's share of the remaining budget (nominal-weighted)."""
        if budget_s <= 0.0:
            return 0.0
        nominals = [self._nominal_s(kernel) for kernel in sequence[pos:]]
        known = [value for value in nominals if value is not None]
        fallback = sum(known) / len(known) if known else 1.0
        weights = [value if value is not None else fallback for value in nominals]
        return budget_s * weights[0] / sum(weights)

    def _static_core(self, kernel: KernelIR) -> int:
        """The frozen plan's clock; a missing entry pins MAX_PERF."""
        try:
            _mem, core = self.static_plan.lookup(kernel.name, self.static_target)
            return int(core)
        except ConfigurationError as exc:
            self.ladder.escalate_to(
                self.gpu.clock.now,
                LadderLevel.MAX_PERF,
                "static-plan-missing",
                detail=str(exc),
            )
            return int(self.spec.core_freqs_mhz[self._max_idx])

    # --------------------------------------------------------------- ladder

    def _absorb_residuals(
        self,
        t: float,
        kernel: KernelIR,
        measured_s: float,
        predicted_s: float,
        measured_j: float,
        predicted_j: float,
    ) -> None:
        events: list[DriftEvent] = []
        for metric, measured, predicted in (
            ("time", measured_s, predicted_s),
            ("energy", measured_j, predicted_j),
        ):
            fired = self.detector.observe(
                t, kernel.name, metric, measured, predicted
            )
            if fired is not None:
                events.append(fired)
        if not events:
            return
        detail = ";".join(f"{e.kernel}/{e.metric}/{e.direction}" for e in events)
        up = [event for event in events if event.direction == "up"]
        level = self.ladder.level
        if level is LadderLevel.MODEL:
            self.ladder.escalate_to(t, LadderLevel.REFRESHED, "drift", detail)
            self._drifted_up.update((e.kernel, e.metric) for e in up)
            self._try_refresh(t)
        elif level is LadderLevel.REFRESHED:
            repeats = [
                e for e in up if (e.kernel, e.metric) in self._drifted_up
            ]
            if repeats:
                # This stream already drifted up and forced a refresh;
                # firing again means refreshing is not the fix — stop
                # trusting online prediction, replay the frozen plan.
                self.ladder.escalate_to(t, LadderLevel.STATIC, "drift", detail)
                self.detector.reset()
            else:
                # A stream drifting for the first time (or pure "down"
                # pessimism after a throttle window ends): fold the new
                # evidence into another refresh rather than retreating.
                self._drifted_up.update((e.kernel, e.metric) for e in up)
                self._try_refresh(t)

    def _escalate_miss(
        self, t: float, kernel: KernelIR, measured_s: float, allocated_s: float
    ) -> None:
        detail = f"{kernel.name}: {measured_s:.6f}s > {allocated_s:.6f}s share"
        self.ladder.escalate(t, "deadline-miss", detail)

    def _try_refresh(self, t: float) -> None:
        """Refresh the bundle from the live window; fall back on failure."""
        try:
            window = self._window_training_set()
            self.bundle.refresh(window)
        except ReproError as exc:
            self.ladder.escalate_to(
                t, LadderLevel.STATIC, "refresh-failed", detail=str(exc)
            )
            self.detector.reset()
            return
        self.predictor.invalidate()
        self._recalibrate()
        self.detector.reset()
        self.refresh_count += 1
        self.trace.count("adapt.refreshes")
        self.trace.instant(
            t, "adapt", "adapt.refresh", "bundle", rows=window.n_samples
        )

    # --------------------------------------------------------------- window

    def _window_training_set(self) -> TrainingSet:
        """Assemble the rolling window into a refresh training set."""
        rows = list(self._window)
        if len(rows) < MIN_REFRESH_ROWS:
            raise ValidationError(
                f"refresh window has {len(rows)} rows; "
                f"needs >= {MIN_REFRESH_ROWS}"
            )
        if len({core for _, core, _, _ in rows}) < 2:
            raise ValidationError(
                "refresh window covers a single clock; needs >= 2 for a fit"
            )
        ids: dict[str, int] = {}
        X = np.empty((len(rows), len(DESIGN_COLUMNS)))
        time_s = np.empty(len(rows))
        energy_j = np.empty(len(rows))
        kernel_ids = np.empty(len(rows), dtype=int)
        for i, (kernel, core, measured_s, measured_j) in enumerate(rows):
            X[i, :-1] = extract_features(kernel)
            X[i, -1] = core
            time_s[i] = measured_s
            energy_j[i] = measured_j
            kernel_ids[i] = ids.setdefault(kernel.name, len(ids))
        return TrainingSet(
            X=X,
            time_s=time_s,
            energy_j=energy_j,
            edp_js=np.asarray(edp(energy_j, time_s)),
            ed2p_js2=np.asarray(ed2p(energy_j, time_s)),
            device_name=self.spec.name,
            kernel_ids=kernel_ids,
        )

    def _recalibrate(self) -> None:
        """Re-anchor scales from each kernel's most recent window row."""
        latest: dict[str, tuple[KernelIR, int, float, float]] = {}
        for kernel, core, measured_s, measured_j in self._window:
            latest[kernel.name] = (kernel, core, measured_s, measured_j)
        for kernel, core, measured_s, measured_j in latest.values():
            self._calibrate(kernel, core, measured_s, measured_j)
