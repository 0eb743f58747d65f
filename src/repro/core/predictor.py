"""Per-target frequency search (paper §6.2 step ⑥).

Given the four predicted metric curves for a kernel, resolve each energy
target to a concrete clock from the device's frequency table:

- MAX_PERF / MIN_ENERGY / MIN_EDP / MIN_ED2P minimize the corresponding
  predicted curve directly,
- ES_x / PL_x run their §5 selection rule on the predicted energy and time
  curves with the device default as the baseline.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError, ValidationError
from repro.core.models import EnergyModelBundle
from repro.core.sweepcache import CURVE_STATS, kernel_fingerprint
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget, TargetKind
from repro.obs.session import TraceSession, resolve_trace


class FrequencyPredictor:
    """Maps ``(kernel, target)`` to a predicted-optimal clock pair.

    Predicted metric curves are memoized per kernel fingerprint: one
    experiment run asks for the same kernel's curves once per energy
    target, and the curves depend only on the kernel's model inputs (the
    frequency table is fixed per predictor). Hits and misses are counted
    in :data:`repro.core.sweepcache.CURVE_STATS`.
    """

    def __init__(
        self,
        bundle: EnergyModelBundle,
        spec: GPUSpec,
        trace: TraceSession | None = None,
    ) -> None:
        self.bundle = bundle
        self.spec = spec
        self.trace = resolve_trace(trace)
        self._freqs = np.asarray(spec.core_freqs_mhz, dtype=float)
        self._default_index = int(
            np.argmin(np.abs(self._freqs - spec.default_core_mhz))
        )
        self._curve_memo: dict[str, dict[str, np.ndarray]] = {}
        # Per-kernel absolute scales (time s, energy J at the predicted
        # shape's reference point), installed by `calibrate`. Only needed
        # for DEADLINE targets; every §5 target is scale-invariant.
        self._scales: dict[str, tuple[float, float]] = {}

    def invalidate(self) -> None:
        """Drop memoized curves (call after the model bundle is refreshed).

        Calibration scales survive: they tie predicted shapes to measured
        magnitudes and stay meaningful across a model refresh.
        """
        self._curve_memo.clear()

    def calibrate(
        self, kernel: KernelIR, time_scale_s: float, energy_scale_j: float
    ) -> None:
        """Attach measured absolute scales to a kernel's predicted shapes.

        ``time_scale_s``/``energy_scale_j`` multiply the normalized curves
        into seconds/joules, enabling DEADLINE resolution. The adaptive
        controller derives them from live measurements.
        """
        if not (time_scale_s > 0.0 and energy_scale_j > 0.0):
            raise ValidationError(
                f"calibration scales must be positive "
                f"({time_scale_s!r}, {energy_scale_j!r})"
            )
        self._scales[kernel_fingerprint(kernel)] = (
            float(time_scale_s),
            float(energy_scale_j),
        )

    def _curves(self, kernel: KernelIR) -> dict[str, np.ndarray]:
        key = kernel_fingerprint(kernel)
        cached = self._curve_memo.get(key)
        if cached is not None:
            CURVE_STATS.hits += 1
            self.trace.count("predict.curve_hits")
            return cached
        CURVE_STATS.misses += 1
        self.trace.count("predict.curve_misses")
        curves = self.bundle.predict_curves(kernel, self._freqs)
        for arr in curves.values():
            arr.setflags(write=False)
        self._curve_memo[key] = curves
        return curves

    def metric_curves(self, kernel: KernelIR) -> dict[str, np.ndarray]:
        """Memoized predicted metric curves for ``kernel`` (read-only arrays).

        Keys ``{"time", "energy", "edp", "ed2p"}``, aligned with the
        device core-frequency table. The adaptive controller combines
        these shapes with its live calibration scales.
        """
        return self._curves(kernel)

    def predict_index(self, kernel: KernelIR, target: EnergyTarget) -> int:
        """Index into the device core-clock table realizing ``target``."""
        curves = self._curves(kernel)
        time = np.maximum(curves["time"], 1e-12)
        energy = np.maximum(curves["energy"], 1e-12)
        if target.kind is TargetKind.MIN_EDP:
            return int(np.argmin(curves["edp"]))
        if target.kind is TargetKind.MIN_ED2P:
            return int(np.argmin(curves["ed2p"]))
        if target.kind is TargetKind.DEADLINE:
            # Deadlines are absolute; predicted shapes need measured scales.
            scales = self._scales.get(kernel_fingerprint(kernel))
            if scales is None:
                raise ConfigurationError(
                    f"kernel {kernel.name!r}: DEADLINE targets need absolute "
                    "predicted time — calibrate() the predictor from a "
                    "measurement, or use the scale-free SLA_SLACK form"
                )
            time = time * scales[0]
            energy = energy * scales[1]
        # MAX_PERF, MIN_ENERGY, ES_x, PL_x and SLA_SLACK are invariant
        # under per-kernel scaling and resolve on the shapes directly.
        return target.resolve_index(self._freqs, time, energy, self._default_index)

    def predict_frequency(
        self, kernel: KernelIR, target: EnergyTarget
    ) -> tuple[int, int]:
        """Predicted-optimal ``(mem_mhz, core_mhz)`` for a kernel and target."""
        self.trace.count("predict.calls")
        idx = self.predict_index(kernel, target)
        return self.spec.default_mem_mhz, int(self.spec.core_freqs_mhz[idx])
