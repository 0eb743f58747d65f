"""``synergy::queue`` (paper §4, Listings 1–4).

:class:`SynergyQueue` extends the SYCL queue with:

- energy profiling: :meth:`kernel_energy_consumption` (fine-grained, per
  event) and :meth:`device_energy_consumption` (coarse-grained, queue
  lifetime window),
- frequency scaling: construction-time clocks
  (``SynergyQueue(1215, 210, gpu_selector_v)``), per-submission clocks
  (``q.submit(877, 1530, cgf)``), and per-kernel energy targets
  (``q.submit(MIN_EDP, cgf)``) resolved through the compiled frequency
  plan or a live predictor,
- all clock changes land *just before the kernel starts* and are skipped
  when redundant, with the §4.4 switch overhead charged otherwise.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import sub
from typing import Callable

from repro.common.errors import ConfigurationError, ValidationError
from repro.core.compiler import FrequencyPlan
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S, FrequencyScaler
from repro.core.predictor import FrequencyPredictor
from repro.core.profiling import EnergyProfiler
from repro.hw.records import record_columns
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget
from repro.obs.session import TraceSession, resolve_trace
from repro.sycl.event import Event, EventBlock
from repro.sycl.handler import Handler
from repro.sycl.queue import CommandGroupFn, Queue


class SynergyQueue(Queue):
    """A SYCL queue with energy capabilities.

    Construction forms::

        SynergyQueue(gpu_selector_v)                 # plain (Listing 1)
        SynergyQueue(1215, 210, gpu_selector_v)      # fixed clocks (Listing 2)

    Keyword-only extras: ``plan`` (compiled frequency plan), ``predictor``
    (live model inference for targets), ``switch_overhead_s``. A plan or
    predictor built for another device raises :class:`ConfigurationError`.
    ``validate`` only accepts ``None``; run records are checked after the
    fact by :func:`repro.validate.invariants.check_kernel_records`.
    """

    def __init__(
        self,
        *args,
        plan: FrequencyPlan | None = None,
        predictor: FrequencyPredictor | None = None,
        switch_overhead_s: float = DEFAULT_SWITCH_OVERHEAD_S,
        trace: TraceSession | None = None,
        validate: None = None,
        owner: str | None = None,
    ) -> None:
        # Kept only because ``bench/workloads.py`` still passes
        # ``validate=context.validator``; delete with that argument.
        if validate is not None:
            raise ConfigurationError(
                f"validate={validate!r}: only None is accepted; check the "
                "records after the run with "
                "repro.validate.invariants.check_kernel_records"
            )
        queue_clocks: tuple[int, int] | None = None
        if len(args) >= 2 and isinstance(args[0], int) and isinstance(args[1], int):
            mem_mhz, core_mhz = args[0], args[1]
            queue_clocks = (mem_mhz, core_mhz)
            selector_args = args[2:]
        else:
            selector_args = args
        if len(selector_args) > 1:
            raise ValidationError(
                "SynergyQueue accepts (selector), (mem, core) or "
                "(mem, core, selector)"
            )
        super().__init__(selector_args[0] if selector_args else None)
        board = self.device.gpu.spec.name
        for what, device_name in (
            ("frequency plan", None if plan is None else plan.device_name),
            ("predictor", None if predictor is None else predictor.spec.name),
        ):
            if device_name is not None and device_name != board:
                raise ConfigurationError(
                    f"{what} is for {device_name}, but the queue's board "
                    f"is a {board}"
                )

        self.plan = plan
        self.predictor = predictor
        #: Optional tenancy tag: when set (the service plane sets it to the
        #: tenant name), every ``queue.kernel`` span carries an ``owner``
        #: attribute so per-tenant energy can be attributed from traces.
        self.owner = owner
        self.trace = resolve_trace(trace)
        self._track = f"gpu{self.device.gpu.index}"
        self.scaler = FrequencyScaler(
            self.device.gpu, switch_overhead_s=switch_overhead_s, trace=trace
        )
        self.profiler = EnergyProfiler(self.device.gpu, trace=trace)
        self._queue_clocks = queue_clocks
        if queue_clocks is not None:
            self.device.gpu.spec.validate_clocks(*queue_clocks)
        # Pending clock request consumed by _pre_kernel for one submission.
        self._pending: tuple[int, int] | EnergyTarget | None = None
        # Events whose requested clocks could not be applied (retry
        # exhaustion): their energy targets were best-effort only.
        self._degraded_events: set[Event] = set()
        self._pending_degraded = False

    # ------------------------------------------------------------ submission

    def submit(self, *args) -> Event:
        """Submit a command group, optionally with a target or clock pair.

        Forms: ``submit(cgf)``, ``submit(target, cgf)``,
        ``submit(mem_mhz, core_mhz, cgf)``.
        """
        if len(args) == 1:
            cgf = args[0]
            self._pending = None
        elif len(args) == 2 and isinstance(args[0], EnergyTarget):
            target, cgf = args
            self._pending = target
        elif (
            len(args) == 3
            and isinstance(args[0], int)
            and isinstance(args[1], int)
        ):
            mem_mhz, core_mhz, cgf = args
            # Validate at submit time, like the constructor does — an
            # invalid pair must not surface later inside _pre_kernel.
            self.device.gpu.spec.validate_clocks(mem_mhz, core_mhz)
            self._pending = (mem_mhz, core_mhz)
        else:
            raise ValidationError(
                "submit accepts (cgf), (EnergyTarget, cgf) or (mem, core, cgf)"
            )
        if not callable(cgf):
            raise ValidationError("command group must be callable")
        tr = self.trace
        try:
            if not tr.enabled:
                return super().submit(cgf)
            with tr.span(
                self.device.gpu.clock, self._track, "queue.submit", "submit"
            ) as sp:
                event = super().submit(cgf)
                if event.record is not None:
                    sp.set(kernel=event.record.kernel_name)
                return event
        finally:
            self._pending = None

    def submit_batch(self, requests) -> "BatchResult":
        """Submit a whole batch of kernels through the vectorized engine.

        ``requests`` is an iterable of submit-style items — a bare
        :class:`KernelIR`, ``(EnergyTarget, kernel)`` or
        ``(mem_mhz, core_mhz, kernel)`` — or an already-assembled
        :class:`~repro.engine.batch.KernelBatch`. Semantically equivalent
        to looping :meth:`submit` over the items (and validated to be, by
        ``repro-synergy validate --only engine``), but resolves clock
        plans, switch charges and per-event energy integration in
        broadcasted passes. ``submit_batch([])`` is a well-formed no-op.
        """
        from repro.engine.batch import KernelBatch
        from repro.engine.executor import execute_batch

        batch = (
            requests
            if isinstance(requests, KernelBatch)
            else KernelBatch.from_requests(requests)
        )
        return execute_batch(self, batch)

    def _pre_kernel(self, kernel: KernelIR) -> None:
        """Apply the frequency configuration just before the kernel starts."""
        tr = self.trace
        if not tr.enabled:
            self._apply_clocks(kernel)
            return
        with tr.span(
            self.device.gpu.clock, self._track, "queue.pre_kernel", kernel.name
        ) as sp:
            clocks = self._apply_clocks(kernel)
            sp.set(
                clocks=None if clocks is None else list(clocks),
                degraded=self._pending_degraded,
            )

    def _apply_clocks(self, kernel: KernelIR) -> tuple[int, int] | None:
        """Resolve and apply the pending clock request; None when there is none."""
        self._pending_degraded = False
        request = self._pending
        if isinstance(request, EnergyTarget):
            mem, core = self._resolve_target(kernel, request)
        elif isinstance(request, tuple):
            mem, core = request
        elif self._queue_clocks is not None:
            mem, core = self._queue_clocks
        else:
            return None
        self.scaler.set_frequency(mem, core)
        self._pending_degraded = self.scaler.last_degraded
        return mem, core

    def _post_kernel(self, kernel: KernelIR, event: Event) -> None:
        """Tag degraded events and record the kernel's execution window."""
        degraded = self._pending_degraded
        if degraded:
            self._degraded_events.add(event)
            self._pending_degraded = False
        tr = self.trace
        if not tr.enabled or event.record is None:
            return
        record = event.record
        # ``owner`` rides along only when set, keeping ownerless traces
        # (and their golden snapshots) byte-identical.
        extra = {} if self.owner is None else {"owner": self.owner}
        tr.add_span(
            self._track,
            "queue.kernel",
            kernel.name,
            event.start_s,
            event.end_s,
            core_mhz=record.core_mhz,
            mem_mhz=record.mem_mhz,
            energy_j=record.energy_j,
            degraded=degraded,
            **extra,
        )
        tr.count("queue.kernels_executed")
        tr.observe("kernel.time_s", record.time_s)
        tr.observe("kernel.energy_j", record.energy_j)

    def _resolve_target(
        self, kernel: KernelIR, target: EnergyTarget
    ) -> tuple[int, int]:
        if self.plan is not None and self.plan.has(kernel.name, target):
            self.trace.count("predict.plan_lookups")
            return self.plan.lookup(kernel.name, target)
        if self.predictor is not None:
            tr = self.trace
            if not tr.enabled:
                return self.predictor.predict_frequency(kernel, target)
            with tr.span(
                self.device.gpu.clock,
                self._track,
                "predict",
                kernel.name,
                target=target.name,
            ) as sp:
                mem, core = self.predictor.predict_frequency(kernel, target)
                sp.set(mem_mhz=mem, core_mhz=core)
                return mem, core
        raise ConfigurationError(
            f"kernel {kernel.name!r} submitted with target {target.name} but "
            "the queue has neither a compiled frequency plan nor a predictor"
        )

    # ------------------------------------------------------------- profiling

    def kernel_energy_consumption(
        self, event: Event, *, true_value: bool = False
    ) -> float:
        """Fine-grained energy (J) of one kernel event (§4.2)."""
        return self.profiler.kernel_energy(event, true_value=true_value)

    def device_energy_consumption(self, *, true_value: bool = False) -> float:
        """Coarse-grained device energy (J) since queue construction (§4.2)."""
        self.wait()
        return self.profiler.device_energy(true_value=true_value)

    # --------------------------------------------------------------- control

    def _stat_parts(self):
        """The event log as runs of statistic columns, in submission order.

        Yields ``(columns, degraded)`` per part of the log: ``columns``
        are the :data:`~repro.hw.records.STAT_FIELDS` columns, read from
        a bulk commit's record block without building a row, or off the
        records of a run of per-event submissions (every event a queue
        makes carries its record). ``degraded`` flags each row; only
        per-event submissions can be degraded.
        """
        degraded = self._degraded_events
        for part in self._events.parts():
            if isinstance(part, EventBlock):
                yield part.records.stat_columns(), repeat(False, len(part))
            else:
                yield (
                    record_columns([e.record for e in part]),
                    [e in degraded for e in part],
                )

    def kernel_stats(self) -> list[dict[str, float | str]]:
        """Per-kernel execution statistics, in submission order.

        One row per event: kernel name, applied clocks, wall time and true
        energy — the raw material of a per-kernel tuning report. The
        ``degraded`` flag marks kernels whose requested clocks could not be
        applied (clock-set retry exhaustion): their energy target was
        best-effort only. Bulk-committed kernels are read from their
        record columns, so no record or event is built for them.
        """
        rows: list[dict[str, float | str]] = []
        for columns, degraded in self._stat_parts():
            rows.extend(
                {
                    "kernel": name,
                    "core_mhz": core,
                    "mem_mhz": mem,
                    "time_s": t1 - t0,
                    "energy_j": energy,
                    "avg_power_w": power,
                    "degraded": flag,
                }
                for name, core, mem, t0, t1, energy, power, flag
                in zip(*columns, degraded)
            )
        return rows

    def summary(self) -> dict[str, float]:
        """Aggregate queue statistics: totals plus switch-overhead cost.

        Reduces the record columns directly; the totals are bitwise those
        of summing :meth:`kernel_stats` in submission order.
        """
        parts = list(self._stat_parts())
        columns = [c for c, _ in parts]
        return {
            "kernels": float(sum(len(c[0]) for c in columns)),
            "kernel_time_s": float(
                sum(chain.from_iterable(map(sub, c[4], c[3]) for c in columns))
            ),
            "kernel_energy_j": float(sum(chain.from_iterable(c[5] for c in columns))),
            "clock_switches": float(self.scaler.switch_count),
            "switch_overhead_s": self.scaler.total_overhead_s,
            "clock_retries": float(self.scaler.retry_count),
            "degraded_kernels": float(sum(sum(flags) for _, flags in parts)),
        }

    def set_frequency(self, mem_mhz: int, core_mhz: int) -> None:
        """Manually pin clocks for subsequent submissions."""
        self._queue_clocks = (mem_mhz, core_mhz)
        self.scaler.set_frequency(mem_mhz, core_mhz)

    def reset_frequency(self) -> None:
        """Drop any pinned clocks and restore driver defaults."""
        self._queue_clocks = None
        self.scaler.reset()
