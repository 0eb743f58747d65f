"""Energy profiling (paper §4.2).

Two granularities, both built on the sampled power sensor:

- *coarse-grained*: device energy over the queue's lifetime window (from
  queue construction to the query), capturing everything including idle
  gaps — the paper's fallback for applications with many tiny kernels,
- *fine-grained*: per-kernel energy over the kernel's event window, the
  profiling mode the per-kernel tuning relies on. Accuracy degrades for
  kernels shorter than a few sensor sampling periods (§4.4), which the
  simulation reproduces.

Resilience: a real power sensor drops samples. When a measurement window
contains no usable samples the profiler falls back to the analytic model
estimate (the same physics the predictor is trained on) and flags the
result as *degraded* — measurements keep flowing, but reports can tell
sensor-backed numbers from model-backed ones.
"""

from __future__ import annotations

from repro.common.errors import TransientError, ValidationError
from repro.hw.device import SimulatedGPU
from repro.hw.sensor import PowerSensor
from repro.obs.session import TraceSession, resolve_trace
from repro.sycl.event import Event


class EnergyProfiler:
    """Sensor-based energy accounting for one device."""

    def __init__(
        self,
        device: SimulatedGPU,
        sensor: PowerSensor | None = None,
        trace: TraceSession | None = None,
    ) -> None:
        self.device = device
        self.trace = resolve_trace(trace)
        self.sensor = sensor if sensor is not None else PowerSensor(device, trace=trace)
        #: Start of the coarse-grained window (queue construction time).
        self.window_start_s = device.clock.now
        #: Measurements served from the analytic fallback (sensor dropout).
        self.fallback_count: int = 0
        #: Whether any measurement so far was degraded.
        self.degraded: bool = False
        #: Coarse-grained queries over a zero-width window (no virtual time
        #: elapsed since the window opened): answered as 0 J by definition,
        #: without consulting the sensor.
        self.zero_width_windows: int = 0

    def kernel_energy(self, event: Event, *, true_value: bool = False) -> float:
        """Energy (J) attributed to one kernel event.

        ``true_value=True`` bypasses the sensor and integrates the analytic
        power timeline — the simulation-only ground truth used by the
        benchmark harness; the default is the realistic sampled estimate.
        """
        if event.device is not self.device:
            raise ValidationError("event belongs to a different device")
        event.wait()
        self.trace.count("profiler.kernel_measurements")
        if true_value:
            return self.device.energy_between(event.start_s, event.end_s)
        return self._measure(event.start_s, event.end_s)

    def device_energy(self, *, true_value: bool = False) -> float:
        """Energy (J) of the whole device since the profiling window opened.

        A query before any virtual time has passed (``now`` equals the
        window start) is a *zero-width window*: the answer is 0 J by
        definition, the sensor is never consulted (a width-0 read would
        degenerate to a single noisy sample), and the occurrence is
        counted in :attr:`zero_width_windows` / the
        ``profiler.zero_width_windows`` metric so reports can tell "no
        energy drawn" from "no time elapsed".
        """
        now = self.device.clock.now
        if now <= self.window_start_s:
            self.zero_width_windows += 1
            self.trace.count("profiler.zero_width_windows")
            return 0.0
        self.trace.count("profiler.device_measurements")
        if true_value:
            return self.device.energy_between(self.window_start_s, now)
        return self._measure(self.window_start_s, now)

    def window_energies(self, events, *, true_value: bool = False):
        """Energies (J) of many kernel events in one accounting pass.

        The batched counterpart of looping :meth:`kernel_energy`: waits
        once (to the latest event end), counts every measurement, and
        answers each window on its own — ``true_value`` queries with the
        window-sliced integral (:meth:`SimulatedGPU.energy_between`),
        sampled ones with the sensor, which derives its noise seed from
        each window.
        """
        import numpy as np

        events = list(events)
        for event in events:
            if event.device is not self.device:
                raise ValidationError("event belongs to a different device")
        if not events:
            return np.zeros(0)
        latest = max(event.end_s for event in events)
        if self.device.clock.now < latest:
            self.device.clock.advance_to(latest)
        self.trace.count("profiler.kernel_measurements", len(events))
        measure = self.device.energy_between if true_value else self._measure
        return np.asarray([measure(e.start_s, e.end_s) for e in events], dtype=float)

    def _measure(self, t0: float, t1: float) -> float:
        """Sensor estimate with analytic fallback on sample dropout."""
        try:
            return self.sensor.measure_energy(t0, t1)
        except TransientError as exc:
            self.fallback_count += 1
            self.degraded = True
            if self.trace.enabled:
                self.trace.count("profiler.fallbacks")
                self.trace.instant(
                    t1,
                    f"sensor{self.device.index}",
                    "profiler.fallback",
                    "analytic fallback",
                    t0=t0,
                    t1=t1,
                )
            injector = self.device.fault_injector
            if injector is not None:
                injector.log.record_recovery(
                    t1,
                    "hw.sensor_dropout",
                    self.device.index,
                    f"sensor window [{t0:.6f}, {t1:.6f}]s unusable ({exc}); "
                    "served analytic estimate (degraded)",
                )
            return self.device.energy_between(t0, t1)

    def reset_window(self) -> None:
        """Restart the coarse-grained window at the current virtual time."""
        self.window_start_s = self.device.clock.now

