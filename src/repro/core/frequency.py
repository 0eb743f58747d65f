"""Frequency-scaling path with overhead accounting (paper §4.3–4.4).

Changing application clocks through NVML is not free: the paper observes the
switch overhead "becomes significant as the number of submitted kernels
grows". :class:`FrequencyScaler` charges a configurable virtual-time cost per
*effective* clock change and skips redundant changes (the clocks already
match), which is also what the real SYnergy runtime does before each kernel.

Resilience: on production clusters clock-set calls fail transiently (driver
hiccups surface as ``NVML_ERROR_UNKNOWN`` / ``NVML_ERROR_TIMEOUT``). The
scaler retries those with capped exponential backoff in *virtual* time and,
once the retry budget is exhausted, degrades gracefully: it restores
driver-default clocks (best-effort) and reports the failure so per-kernel
energy targets can be flagged as best-effort rather than silently wrong.
"""

from __future__ import annotations

import functools
import itertools
import operator

from repro.common.errors import TransientError, ValidationError
from repro.hw.device import SimulatedGPU
from repro.obs.session import TraceSession, resolve_trace
from repro.obs.tracer import NULL_SPAN, Span
from repro.vendor.portable import create_backend

#: Virtual-time cost of one NVML/SMI application-clock change (seconds).
#: Chosen at the low end of measured nvmlDeviceSetApplicationsClocks
#: latencies on data-center boards; the ablation bench sweeps it to show
#: the §4.4 regime where switching dominates small kernels.
DEFAULT_SWITCH_OVERHEAD_S: float = 1.0e-3

#: Retry policy for transient clock-set failures: attempts beyond the first,
#: initial backoff, and the backoff ceiling (all virtual-time seconds).
DEFAULT_MAX_RETRIES: int = 4
DEFAULT_BACKOFF_BASE_S: float = 1.0e-3
DEFAULT_BACKOFF_CAP_S: float = 16.0e-3


class FrequencyScaler:
    """Per-device clock control used by the SYnergy queue."""

    def __init__(
        self,
        device: SimulatedGPU,
        switch_overhead_s: float = DEFAULT_SWITCH_OVERHEAD_S,
        trace: TraceSession | None = None,
    ) -> None:
        if switch_overhead_s < 0:
            raise ValidationError(
                f"switch overhead cannot be negative ({switch_overhead_s!r})"
            )
        self.device = device
        self.trace = resolve_trace(trace)
        self._track = f"gpu{device.index}"
        self.backend = create_backend(device)
        self.switch_overhead_s = float(switch_overhead_s)
        #: Number of clock changes actually applied (not skipped).
        self.switch_count: int = 0
        #: Total virtual time spent switching clocks.
        self.total_overhead_s: float = 0.0
        #: Transient clock-set failures that were retried.
        self.retry_count: int = 0
        #: Virtual time spent backing off between retries.
        self.retry_backoff_s: float = 0.0
        #: Clock-set requests abandoned after retry exhaustion.
        self.failed_switches: int = 0
        #: Whether any request ever degraded to driver defaults.
        self.degraded: bool = False
        #: Whether the *most recent* set_frequency call degraded.
        self.last_degraded: bool = False

    def set_frequency(self, mem_mhz: int, core_mhz: int) -> bool:
        """Apply a clock pair; returns True if a change was actually made.

        Redundant requests (clocks already in effect) are skipped without
        overhead. An effective change advances the device clock by the
        switch overhead ``OH`` and lands in the board's clock history at
        that later time. The overhead *overlaps* the kernel being
        launched: a queue captures the launch's submit time before it
        calls this method, so the kernel starts at that time and runs at
        the new clocks. Host-side launch completion therefore follows
        ``n_i = n_(i-1) + max(d_i, OH)`` for a kernel of duration ``d_i``;
        the overhead delays later kernels only when it is longer than the
        kernel it serves (the §4.4 cost model).

        The clocks a kernel ran at are those on its own record
        (``KernelExecutionRecord.core_mhz``/``mem_mhz``).
        ``SimulatedGPU.clocks_at(record.start_s)`` reads the clock history
        instead, and for a switching launch it returns the clocks from
        before the switch, because the change lands ``OH`` after the start.

        Transient vendor failures are retried up to
        :data:`DEFAULT_MAX_RETRIES` times with exponential backoff from
        :data:`DEFAULT_BACKOFF_BASE_S`, capped at
        :data:`DEFAULT_BACKOFF_CAP_S`, in virtual time. On exhaustion the
        request is abandoned: the scaler attempts a best-effort reset to
        driver-default clocks, flags itself degraded, and returns False.
        Non-transient errors (permission, invalid clocks, lost GPU)
        propagate unchanged.
        """
        tr = self.trace
        if not tr.enabled:
            return self._set_frequency(mem_mhz, core_mhz, NULL_SPAN)
        with tr.span(
            self.device.clock,
            self._track,
            "freq.set",
            f"set {mem_mhz}/{core_mhz}",
            mem_mhz=mem_mhz,
            core_mhz=core_mhz,
        ) as sp:
            return self._set_frequency(mem_mhz, core_mhz, sp)

    def _set_frequency(self, mem_mhz: int, core_mhz: int, sp: Span) -> bool:
        tr = self.trace
        self.last_degraded = False
        current_core, current_mem = self.backend.current_clocks()
        if (current_core, current_mem) == (core_mhz, mem_mhz):
            sp.set(applied=False, skipped=True)
            return False
        backoff = DEFAULT_BACKOFF_BASE_S
        for attempt in range(DEFAULT_MAX_RETRIES + 1):
            if self.switch_overhead_s > 0.0:
                # The NVML call costs its latency whether or not it succeeds.
                self.device.clock.advance(self.switch_overhead_s)
                self.total_overhead_s += self.switch_overhead_s
            try:
                self.backend.set_clocks(mem_mhz, core_mhz)
            except TransientError as exc:
                self.retry_count += 1
                if tr.enabled:
                    tr.instant(
                        self.device.clock.now,
                        self._track,
                        "freq.retry",
                        f"set {mem_mhz}/{core_mhz}",
                        attempt=attempt + 1,
                        error=str(exc),
                    )
                    tr.count("freq.retries")
                if attempt == DEFAULT_MAX_RETRIES:
                    self._degrade(mem_mhz, core_mhz, exc)
                    sp.set(applied=False, degraded=True, attempts=attempt + 1)
                    if tr.enabled:
                        tr.count("freq.degraded")
                    return False
                if backoff > 0.0:
                    self.device.clock.advance(backoff)
                    self.retry_backoff_s += backoff
                backoff = min(2.0 * backoff, DEFAULT_BACKOFF_CAP_S)
                continue
            self.switch_count += 1
            sp.set(applied=True, attempts=attempt + 1)
            if tr.enabled:
                tr.count("freq.switches")
            if attempt:
                self._log_recovery(
                    f"clock-set {mem_mhz}/{core_mhz} MHz succeeded after "
                    f"{attempt} retr{'y' if attempt == 1 else 'ies'}"
                )
            return True
        raise AssertionError("unreachable")  # pragma: no cover

    def _degrade(self, mem_mhz: int, core_mhz: int, exc: TransientError) -> None:
        """Retry budget exhausted: fall back to driver-default clocks."""
        self.failed_switches += 1
        self.degraded = True
        self.last_degraded = True
        try:
            self.backend.reset_clocks()
        except TransientError:
            # Even the reset failed; the board keeps its current clocks.
            # The epilogue remains the backstop for restoring defaults.
            pass
        self._log_recovery(
            f"clock-set {mem_mhz}/{core_mhz} MHz abandoned after "
            f"{DEFAULT_MAX_RETRIES} retries ({exc}); degraded to driver defaults"
        )

    def _log_recovery(self, detail: str) -> None:
        injector = self.device.fault_injector
        if injector is not None:
            injector.log.record_recovery(
                self.device.clock.now, "nvml.set_clocks", self.device.index, detail
            )

    def charge_batched(self, n_switches: int) -> None:
        """Account effective clock changes applied by the batched engine.

        The engine advances the device clock and commits the clock plan
        itself (one vectorized pass); this charges the scaler's counters
        for ``n_switches`` effective changes. Overhead accumulates one
        add per switch so the totals stay bitwise-identical to the
        per-event path's repeated ``+=``.
        """
        if n_switches < 0:
            raise ValidationError(
                f"switch count cannot be negative ({n_switches!r})"
            )
        # reduce folds left to right: the same adds, in C.
        self.total_overhead_s = functools.reduce(
            operator.add,
            itertools.repeat(self.switch_overhead_s, int(n_switches)),
            self.total_overhead_s,
        )
        self.switch_count += int(n_switches)

    def reset(self) -> None:
        """Restore driver-default clocks (counts as one switch if effective)."""
        spec = self.device.spec
        if self.trace.enabled:
            self.trace.instant(
                self.device.clock.now, self._track, "freq.reset", "reset"
            )
        self.set_frequency(spec.default_mem_mhz, spec.default_core_mhz)
