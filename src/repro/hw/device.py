"""Stateful simulated GPU.

A :class:`SimulatedGPU` owns the mutable board state the vendor libraries
and the SYCL runtime interact with:

- current application clocks (core/memory) and the privilege model guarding
  them (``api_restricted`` mirrors NVML's ``SetAPIRestriction`` semantics:
  when restricted, only privileged callers may change clocks — the exact
  hazard the paper's SLURM plugin manages, §7),
- a busy/idle power timeline in virtual time, from which both the true
  (analytic) energy and the sampled sensor energy are derived,
- per-kernel execution records (a :class:`~repro.hw.records.RecordLog`).

Kernels execute serially per device (one hardware queue), matching how the
paper profiles per-kernel energy.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError, ReproError, SimulationError
from repro.hw.cache import models_for, operating_points_for
from repro.hw.records import KernelExecutionRecord, RecordLog
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR


class ClockPermissionError(ReproError):
    """Raised when an unprivileged caller changes clocks on a restricted GPU."""


_device_ids = itertools.count()


class SimulatedGPU:
    """One GPU board: clocks, privilege state, power timeline, executions."""

    def __init__(
        self,
        spec: GPUSpec,
        clock: VirtualClock | None = None,
        index: int | None = None,
    ) -> None:
        self.spec = spec
        self.clock = clock if clock is not None else VirtualClock()
        self.index = next(_device_ids) if index is None else index
        self.timing_model, self.power_model = models_for(spec)
        self._operating_points = operating_points_for(spec)

        self._core_mhz = spec.default_core_mhz
        self._mem_mhz = spec.default_mem_mhz
        #: Board power limit (W); kernels that would exceed it run at the
        #: highest clock whose power fits (hardware throttling). Defaults
        #: to the model's peak draw, i.e. unconstrained.
        self.default_power_limit_w: float = self.power_model.peak_power()
        self.power_limit_w: float = self.default_power_limit_w
        #: ``(time_s, limit_w)`` per limit change, ascending in time; the
        #: default limit holds before the first entry.
        self.power_limit_history: list[tuple[float, float]] = []
        #: NVML-style API restriction: True means clock changes need
        #: privilege. Standalone boards default to unrestricted (a developer
        #: workstation); production clusters restrict every board at node
        #: provisioning and rely on the SLURM plugin to lower it per job.
        self.api_restricted: bool = False
        self._busy_until: float = self.clock.now
        # Busy power segments: parallel arrays (start, end, power_w).
        self._seg_start: list[float] = []
        self._seg_end: list[float] = []
        self._seg_power: list[float] = []
        # Clock history: (time, core_mhz, mem_mhz), ascending in time.
        self._clock_times: list[float] = [self.clock.now]
        self._clock_values: list[tuple[int, int]] = [(self._core_mhz, self._mem_mhz)]
        # Made on first use (:attr:`records`): boards are built by the
        # thousand, and one more container per board costs collector time.
        self._records: RecordLog | None = None
        #: Count of clock-change API calls (for the §4.4 overhead analysis).
        self.clock_set_calls: int = 0
        #: Fault-injection plane, attached by ``Cluster.build`` (or tests).
        #: ``None`` means the happy path: no faults, no injection checks.
        self.fault_injector = None

    # ------------------------------------------------------------------ state

    @property
    def records(self) -> RecordLog:
        """Every kernel and transfer this board ran, in execution order."""
        log = self._records
        if log is None:
            log = self._records = RecordLog()
        return log

    @property
    def core_mhz(self) -> int:
        """Current application core clock (MHz)."""
        return self._core_mhz

    @property
    def mem_mhz(self) -> int:
        """Current application memory clock (MHz)."""
        return self._mem_mhz

    @property
    def busy_until(self) -> float:
        """Virtual time at which the device's hardware queue drains."""
        return self._busy_until

    def set_application_clocks(
        self, mem_mhz: int, core_mhz: int, *, privileged: bool = False
    ) -> None:
        """Set application clocks, enforcing the NVML privilege model.

        Raises :class:`ClockPermissionError` if the device is API-restricted
        and the caller is unprivileged, and
        :class:`~repro.common.errors.ConfigurationError` for clocks outside
        the device table.
        """
        if self.api_restricted and not privileged:
            raise ClockPermissionError(
                f"{self.spec.name}[{self.index}]: application clocks are "
                "root-restricted (no SetAPIRestriction lowering in effect)"
            )
        self.spec.validate_clocks(mem_mhz, core_mhz)
        self._core_mhz = int(core_mhz)
        self._mem_mhz = int(mem_mhz)
        self._record_clock_change()
        self.clock_set_calls += 1

    def reset_application_clocks(self, *, privileged: bool = False) -> None:
        """Restore the driver default clocks (epilogue cleanup path)."""
        if self.api_restricted and not privileged:
            raise ClockPermissionError(
                f"{self.spec.name}[{self.index}]: resetting clocks is "
                "root-restricted"
            )
        self._core_mhz = self.spec.default_core_mhz
        self._mem_mhz = self.spec.default_mem_mhz
        self._record_clock_change()
        self.clock_set_calls += 1

    def set_power_limit(self, watts: float, *, privileged: bool = False) -> None:
        """Set the board power limit (root-only, like real NVML).

        Limits below a safety floor (half the idle draw above zero would
        brick a real board; we require at least the idle power) or above
        the default limit are rejected.
        """
        if not privileged:
            raise ClockPermissionError(
                f"{self.spec.name}[{self.index}]: power limit changes require root"
            )
        if not self.spec.idle_power_w <= watts <= self.default_power_limit_w:
            raise ConfigurationError(
                f"power limit {watts!r} W outside "
                f"[{self.spec.idle_power_w}, {self.default_power_limit_w:.0f}] W"
            )
        self.power_limit_w = float(watts)
        self.power_limit_history.append((self.clock.now, self.power_limit_w))

    def reset_power_limit(self, *, privileged: bool = False) -> None:
        """Restore the default board power limit (root-only)."""
        if not privileged:
            raise ClockPermissionError(
                f"{self.spec.name}[{self.index}]: power limit changes require root"
            )
        self.power_limit_w = self.default_power_limit_w
        self.power_limit_history.append((self.clock.now, self.power_limit_w))

    def set_api_restriction(self, restricted: bool) -> None:
        """Toggle whether unprivileged clock changes are allowed.

        This is the simulated ``nvmlDeviceSetAPIRestriction`` — only the
        SLURM plugin (acting as root) calls it.
        """
        self.api_restricted = bool(restricted)

    def _record_clock_change(self) -> None:
        now = self.clock.now
        if self._clock_times and self._clock_times[-1] == now:
            self._clock_values[-1] = (self._core_mhz, self._mem_mhz)
        else:
            self._clock_times.append(now)
            self._clock_values.append((self._core_mhz, self._mem_mhz))

    def clocks_at(self, t: float) -> tuple[int, int]:
        """Application clocks (core, mem) in effect at virtual time ``t``."""
        i = bisect.bisect_right(self._clock_times, t) - 1
        return self._clock_values[max(i, 0)]

    def apply_clock_plan(self, times_s, pairs) -> None:
        """Commit a whole sequence of clock changes in one call.

        The batched engine's analogue of repeated
        :meth:`set_application_clocks` calls: ``pairs[i] = (core_mhz,
        mem_mhz)`` lands on the history at ``times_s[i]`` (ascending).
        An API-restricted board refuses the whole plan; every pair is
        validated before anything is committed, so a bad plan leaves the
        board untouched.
        ``times_s`` (floats) and ``pairs`` (tuples of ints) are stored as
        given; the time checks are array comparisons over the plan.
        """
        if len(times_s) != len(pairs):
            raise SimulationError(
                f"clock plan length mismatch ({len(times_s)} vs {len(pairs)})"
            )
        if not pairs:
            return
        if self.api_restricted:
            raise ClockPermissionError(
                f"{self.spec.name}[{self.index}]: application clocks are "
                "root-restricted (no SetAPIRestriction lowering in effect)"
            )
        for core, mem in set(pairs):
            self.spec.validate_clocks(mem, core)
        steps = np.diff(np.asarray(times_s, dtype=float))
        if (steps < 0).any():
            raise SimulationError("clock plan times must be ascending")
        last = self._clock_times[-1]
        if times_s[0] < last:
            raise SimulationError(
                f"clock plan starts at {times_s[0]!r}s, before the last "
                f"recorded change at {last!r}s"
            )
        if last != times_s[0] and (steps > 0).all():
            # No merge-at-equal-time anywhere in this plan: bulk append.
            self._clock_times.extend(times_s)
            self._clock_values.extend(pairs)
        else:
            for t, value in zip(times_s, pairs):
                if self._clock_times[-1] == t:
                    self._clock_values[-1] = value
                else:
                    self._clock_times.append(t)
                    self._clock_values.append(value)
        self._core_mhz, self._mem_mhz = pairs[-1]
        self.clock_set_calls += len(pairs)

    # -------------------------------------------------------------- execution

    def execute(self, kernel: KernelIR, submit_time: float | None = None) -> KernelExecutionRecord:
        """Run one kernel at the current clocks, advancing virtual time.

        The kernel starts when the hardware queue is free (serial execution
        per device) and its busy power segment is appended to the timeline.
        """
        submit = self.clock.now if submit_time is None else float(submit_time)
        if submit < 0:
            raise SimulationError(f"negative submit time {submit!r}")
        start = max(submit, self._busy_until)
        core_mhz, timing, power = self._throttled_operating_point(kernel, start)
        end = start + timing.time_s
        self._seg_start.append(start)
        self._seg_end.append(end)
        self._seg_power.append(power)
        self._busy_until = end
        if end > self.clock.now:
            self.clock.advance_to(end)
        record = KernelExecutionRecord(
            kernel_name=kernel.name,
            device_name=self.spec.name,
            core_mhz=core_mhz,
            mem_mhz=self._mem_mhz,
            start_s=start,
            end_s=end,
            energy_j=power * timing.time_s,
            avg_power_w=power,
            u_core=timing.u_core,
            u_mem=timing.u_mem,
        )
        self.records.append(record)
        return record

    def transfer(self, nbytes: float, submit_time: float | None = None) -> KernelExecutionRecord:
        """Host-device data transfer over the PCIe-class link.

        Occupies the device timeline (copies serialize with kernels on the
        same hardware queue) at a low, memory-only power draw.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes!r}")
        submit = self.clock.now if submit_time is None else float(submit_time)
        start = max(submit, self._busy_until)
        duration = (
            nbytes / (self.spec.pcie_bandwidth_gbs * 1e9)
            + self.spec.launch_overhead_s
        )
        power = float(self.power_model.power(self._core_mhz, self._mem_mhz, 0.0, 0.3))
        end = start + duration
        self._seg_start.append(start)
        self._seg_end.append(end)
        self._seg_power.append(power)
        self._busy_until = end
        if end > self.clock.now:
            self.clock.advance_to(end)
        record = KernelExecutionRecord(
            kernel_name="<memcpy>",
            device_name=self.spec.name,
            core_mhz=self._core_mhz,
            mem_mhz=self._mem_mhz,
            start_s=start,
            end_s=end,
            energy_j=power * duration,
            avg_power_w=power,
            u_core=0.0,
            u_mem=0.3,
        )
        self.records.append(record)
        return record

    def _throttled_operating_point(self, kernel: KernelIR, start_s: float | None = None):
        """Clocks/timing/power for a kernel under the board power limit.

        At the application clocks the kernel may exceed the power limit; the
        board then throttles: it runs at the highest supported core clock
        (≤ the application clock) whose power fits. The lowest table clock
        is used if nothing fits. An active injected thermal-throttle window
        additionally caps the core clock at the window's MHz parameter.
        The point itself comes from the spec's exact memo
        (:class:`~repro.hw.cache.OperatingPoints`).
        """
        ceiling = self._core_mhz
        if self.fault_injector is not None:
            # Checked on every launch: the first check inside a window
            # logs its activation.
            at = self.clock.now if start_s is None else start_s
            throttle = self.fault_injector.active(
                "hw.thermal_throttle", at, target=self.index
            )
            if throttle is not None and throttle.param is not None:
                ceiling = min(ceiling, int(throttle.param))
        return self._operating_points.lookup(
            kernel, ceiling, self._mem_mhz, self.power_limit_w
        )

    def extend_power_timeline(self, starts, ends, powers) -> None:
        """Append a run of busy segments in one call (engine fast path).

        Segments must be non-overlapping and ascending, starting no
        earlier than the current queue drain time — the same invariant
        serial :meth:`execute` calls maintain one segment at a time. The
        device's busy horizon moves to the last segment's end; the caller
        is responsible for advancing the virtual clock. The floats are
        stored as given; the order check is one array comparison.
        """
        if not (len(starts) == len(ends) == len(powers)):
            raise SimulationError("segment arrays must have equal length")
        if not starts:
            return
        bounds = np.empty(2 * len(starts) + 1)
        bounds[0] = self._busy_until
        bounds[1::2] = starts
        bounds[2::2] = ends
        if (bounds[1:] < bounds[:-1]).any():
            raise SimulationError(
                "batched segments must be ascending and non-overlapping, "
                "starting at or after the device busy horizon"
            )
        self._seg_start.extend(starts)
        self._seg_end.extend(ends)
        self._seg_power.extend(powers)
        self._busy_until = ends[-1]

    # ------------------------------------------------------------------ power

    def instantaneous_power(self, t: float) -> float:
        """Board power draw (W) at virtual time ``t``: busy segment or idle."""
        i = bisect.bisect_right(self._seg_start, t) - 1
        if i >= 0 and self._seg_start[i] <= t < self._seg_end[i]:
            return self._seg_power[i]
        core, mem = self.clocks_at(t)
        return self.power_model.idle_power(core, mem)

    def energy_between(self, t0: float, t1: float) -> float:
        """True (analytic) board energy in joules over ``[t0, t1]``.

        Integrates busy segments exactly and fills gaps with idle power at
        the clocks then in effect. Only the segments and clock records
        overlapping the window are read (``bisect`` on the ascending
        timeline), so the cost grows with the window, not with the
        board's history. The window splits at every breakpoint inside it,
        and the interval products are summed with :func:`math.fsum`: the
        sum is correctly rounded, so the result is bitwise independent of
        everything outside the window. Non-finite or reversed bounds raise
        :class:`SimulationError`.
        """
        t0, t1 = float(t0), float(t1)
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise SimulationError(f"energy window not finite: [{t0!r}, {t1!r}]")
        if t1 < t0:
            raise SimulationError(f"energy window reversed: [{t0!r}, {t1!r}]")
        # Segments ending after t0 and starting before t1; the clock record
        # in effect at t0 through the last one before t1.
        i0 = bisect.bisect_right(self._seg_end, t0)
        i1 = bisect.bisect_left(self._seg_start, t1, i0)
        c0 = max(bisect.bisect_right(self._clock_times, t0) - 1, 0)
        c1 = max(bisect.bisect_left(self._clock_times, t1), c0 + 1)
        seg_s = np.asarray(self._seg_start[i0:i1], dtype=float)
        seg_e = np.asarray(self._seg_end[i0:i1], dtype=float)
        clk_t = np.asarray(self._clock_times[c0:c1], dtype=float)
        clk_v = np.asarray(self._clock_values[c0:c1], dtype=float)
        edges = np.unique(
            np.clip(np.concatenate(([t0, t1], seg_s, seg_e, clk_t)), t0, t1)
        )
        lo, hi = edges[:-1], edges[1:]
        # Power over each interval [lo, hi): idle at the clocks then in
        # effect, unless a busy segment covers it.
        j = np.maximum(np.searchsorted(clk_t, lo, side="right") - 1, 0)
        p = self.power_model.power(clk_v[j, 0], clk_v[j, 1], 0.0, 0.0)
        if seg_s.size:
            k = np.searchsorted(seg_s, lo, side="right") - 1
            busy = (k >= 0) & (lo < seg_e[np.maximum(k, 0)])
            p = np.where(busy, np.asarray(self._seg_power[i0:i1])[k], p)
        return math.fsum((p * (hi - lo)).tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedGPU({self.spec.name!r}, index={self.index}, "
            f"clocks={self._core_mhz}/{self._mem_mhz} MHz, "
            f"restricted={self.api_restricted})"
        )
