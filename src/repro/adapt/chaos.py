"""Seeded thermal-drift chaos scenario: adaptive ladder vs stale static plan.

Four runs on fresh V100 boards, all over the same kernel stream and the
same per-stream deadlines (derived from a clean top-clock reference run).
Streams are released periodically: stream ``k`` starts when stream
``k - 1``'s deadline expires, with the board idle in between, so every
release time — and with it every throttle window — is fixed by the
deadlines alone, not by the clocks any run chose before it:

- ``max-perf``      — every launch at the top clock (clean board); its
  per-stream times, scaled by :data:`DEADLINE_SLACK`, define the deadlines
  and its energy is the savings baseline,
- ``static-clean``  — the compile-time SLA plan on a clean board: the
  pre-drift energy saving,
- ``static-fault``  — the *same frozen plan* under two injected
  ``hw.thermal_throttle`` windows, each opening at a stream release: the
  plan is stale during the windows and (by construction of the scenario)
  misses at least one deadline,
- ``adaptive-fault``— the :class:`~repro.adapt.controller
  .AdaptiveController` under the identical fault plan: drift detection,
  an incremental model refresh, static fallback and finally a MAX_PERF
  pin — a full ladder traversal — while missing no deadline.

Everything is a pure function of ``seed`` and virtual time, so the drift
event and ladder transition logs replay byte-for-byte (checked by the
``adapt`` validation section and the ``thermal-drift`` golden trace).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from repro.adapt.controller import AdaptiveController, StreamReport
from repro.apps.syclbench.definitions import get_benchmark
from repro.core.compiler import FrequencyPlan, SynergyCompiler
from repro.core.models import EnergyModelBundle
from repro.core.queue import SynergyQueue
from repro.experiments.training import microbench_training_set
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw.device import SimulatedGPU
from repro.hw.specs import NVIDIA_V100
from repro.kernelir.kernel import KernelIR
from repro.kernelir.microbench import generate_microbenchmarks
from repro.metrics.targets import DEADLINE_RTOL, SLA_SLACK, EnergyTarget
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression
from repro.obs.session import TraceSession

#: Kernels in each stream (§8 suite members, scaled like the ablation
#: bench so every launch spans several power-sensor sampling periods).
KERNEL_NAMES: tuple[str, ...] = ("sobel7", "nbody", "syrk")
WORK_ITEMS = 1 << 26
MIX_SCALE = 32.0

#: Stream shape: per-stream passes over the kernel bank, and stream count.
ROUNDS = 2
STREAMS = 6

#: Deadline slack over the top-clock stream time, and the (tighter) SLA
#: slack the static plan is compiled for — its margin under the deadline
#: is what the throttle windows eat.
DEADLINE_SLACK = 1.4
COMPILE_SLACK = 1.35

#: The two throttle windows: each opens at the release of stream
#: ``stream`` and lasts ``duration`` top-clock stream times ``T``. Both
#: are shorter than the opening ``sobel7`` launch takes under their cap,
#: so each throttles exactly that launch whatever clock was requested. The
#: stream-1 cap is one the model rungs ride out via a drift-driven
#: refresh; the last stream's cap repeats the drift, proving refreshing is
#: no longer enough and forcing the static fallback and the MAX_PERF pin.
WINDOW1 = {"stream": 1, "duration": 0.3, "cap_mhz": 480}
WINDOW2 = {"stream": STREAMS - 1, "duration": 0.25, "cap_mhz": 550}


@dataclass(frozen=True)
class RunSummary:
    """Deadline and energy outcome of one run (all streams)."""

    label: str
    streams_met: int
    streams_missed: int
    elapsed_s: float
    energy_j: float
    stream_elapsed_s: tuple[float, ...]
    stream_met: tuple[bool, ...]

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "streams_met": self.streams_met,
            "streams_missed": self.streams_missed,
            "elapsed_s": self.elapsed_s,
            "energy_j": self.energy_j,
            "stream_elapsed_s": list(self.stream_elapsed_s),
            "stream_met": list(self.stream_met),
        }


@dataclass(frozen=True)
class ThermalDriftComparison:
    """The four-run comparison plus the adaptive run's event logs."""

    seed: int
    deadlines_s: tuple[float, ...]
    max_perf: RunSummary
    static_clean: RunSummary
    static_fault: RunSummary
    adaptive_fault: RunSummary
    drift_events: tuple[dict, ...]
    transitions: tuple[dict, ...]
    refreshes: int
    stream_reports: tuple[StreamReport, ...]

    @property
    def static_saving(self) -> float:
        """Pre-drift energy saving of the static plan vs the top clock."""
        return 1.0 - self.static_clean.energy_j / self.max_perf.energy_j

    @property
    def adaptive_saving(self) -> float:
        """Adaptive energy saving under the fault plan vs the top clock."""
        return 1.0 - self.adaptive_fault.energy_j / self.max_perf.energy_j

    @property
    def recovery_fraction(self) -> float:
        """Fraction of the pre-drift saving the ladder recovers."""
        if self.static_saving <= 0.0:
            return 0.0
        return self.adaptive_saving / self.static_saving

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "deadlines_s": list(self.deadlines_s),
            "runs": [
                run.as_dict()
                for run in (
                    self.max_perf,
                    self.static_clean,
                    self.static_fault,
                    self.adaptive_fault,
                )
            ],
            "drift_events": list(self.drift_events),
            "transitions": list(self.transitions),
            "refreshes": self.refreshes,
            "static_saving": self.static_saving,
            "adaptive_saving": self.adaptive_saving,
            "recovery_fraction": self.recovery_fraction,
        }


def scenario_kernels() -> list[KernelIR]:
    """The scaled kernel bank every run streams over."""
    kernels = []
    for name in KERNEL_NAMES:
        kernel = get_benchmark(name).kernel
        kernels.append(
            dataclasses.replace(
                kernel.with_work_items(WORK_ITEMS),
                mix=kernel.mix.scaled(MIX_SCALE),
            )
        )
    return kernels


def train_adaptive_bundle(seed: int) -> EnergyModelBundle:
    """Linear time + small random-forest energy bundle (refresh-capable).

    Trained on the micro-benchmark suite scaled to the scenario's launch
    magnitude so the scenario kernels sit inside (not 10^6× outside) the
    training feature range — extrapolating the basis-expanded models far
    off-distribution produces meaningless shapes.
    """
    suite = [
        dataclasses.replace(
            kernel.with_work_items(WORK_ITEMS), mix=kernel.mix.scaled(MIX_SCALE)
        )
        for kernel in generate_microbenchmarks(random_count=8)
    ]
    training = microbench_training_set(NVIDIA_V100, freq_stride=12, kernels=suite)
    return EnergyModelBundle(
        time_factory=LinearRegression,
        energy_factory=lambda: RandomForestRegressor(
            n_estimators=16, max_depth=12, min_samples_leaf=2, seed=seed
        ),
        edp_factory=LinearRegression,
        ed2p_factory=LinearRegression,
        seed=seed,
    ).fit(training)


def release_times(deadlines: Sequence[float]) -> tuple[float, ...]:
    """Stream ``k`` is released when stream ``k - 1``'s deadline expires."""
    releases = [0.0]
    for deadline in deadlines[:-1]:
        releases.append(releases[-1] + float(deadline))
    return tuple(releases)


def _await_release(gpu: SimulatedGPU, release_s: float) -> None:
    """Idle the board until ``release_s`` (no-op if a stream overran it)."""
    if gpu.clock.now < release_s:
        gpu.clock.advance_to(release_s)


def _summarize(
    label: str,
    gpu: SimulatedGPU,
    queue: SynergyQueue,
    kernels: Sequence[KernelIR],
    deadlines: Sequence[float],
    submit_one,
) -> RunSummary:
    """Run periodically released deadline streams through ``submit_one``."""
    stream_elapsed: list[float] = []
    stream_met: list[bool] = []
    total_energy = 0.0
    for deadline, release in zip(deadlines, release_times(deadlines)):
        _await_release(gpu, release)
        t0 = gpu.clock.now
        n0 = len(queue.events)
        for _ in range(ROUNDS):
            for kernel in kernels:
                submit_one(kernel).wait()
        queue.wait()
        elapsed = gpu.clock.now - t0
        stream_elapsed.append(float(elapsed))
        stream_met.append(elapsed <= deadline * (1.0 + DEADLINE_RTOL))
        total_energy += sum(
            event.record.energy_j
            for event in queue.events[n0:]
            if event.record is not None
        )
    met = sum(stream_met)
    return RunSummary(
        label=label,
        streams_met=met,
        streams_missed=len(stream_met) - met,
        elapsed_s=float(sum(stream_elapsed)),
        energy_j=float(total_energy),
        stream_elapsed_s=tuple(stream_elapsed),
        stream_met=tuple(stream_met),
    )


def _run_max_perf(
    kernels: Sequence[KernelIR], deadlines: Sequence[float]
) -> RunSummary:
    gpu = SimulatedGPU(NVIDIA_V100, index=0)
    queue = SynergyQueue(gpu)
    top = int(max(NVIDIA_V100.core_freqs_mhz))
    return _summarize(
        "max-perf",
        gpu,
        queue,
        kernels,
        deadlines,
        lambda kernel: queue.submit(
            NVIDIA_V100.default_mem_mhz,
            top,
            lambda h, k=kernel: h.parallel_for(k.work_items, k),
        ),
    )


def _run_static(
    label: str,
    plan: FrequencyPlan,
    target: EnergyTarget,
    kernels: Sequence[KernelIR],
    deadlines: Sequence[float],
    fault_plan: FaultPlan | None,
) -> RunSummary:
    gpu = SimulatedGPU(NVIDIA_V100, index=0)
    if fault_plan is not None:
        gpu.fault_injector = fault_plan.injector(None)
    queue = SynergyQueue(gpu, plan=plan)
    return _summarize(
        label,
        gpu,
        queue,
        kernels,
        deadlines,
        lambda kernel: queue.submit(
            target, lambda h, k=kernel: h.parallel_for(k.work_items, k)
        ),
    )


def _fault_plan(
    seed: int, stream_s: float, releases: Sequence[float]
) -> FaultPlan:
    """The two throttle windows, opening at their streams' releases."""
    specs = tuple(
        FaultSpec(
            site="hw.thermal_throttle",
            at_s=releases[window["stream"]],
            duration_s=window["duration"] * stream_s,
            param=window["cap_mhz"],
            target=0,
        )
        for window in (WINDOW1, WINDOW2)
    )
    return FaultPlan(seed=seed, specs=specs)


def run_thermal_drift_comparison(
    seed: int = 7, trace: TraceSession | None = None
) -> ThermalDriftComparison:
    """Run the four-way comparison; only the adaptive run is traced."""
    kernels = scenario_kernels()
    bundle = train_adaptive_bundle(seed)
    target = SLA_SLACK(COMPILE_SLACK)
    compiled = SynergyCompiler(bundle, NVIDIA_V100).compile(kernels, [target])

    # Top-clock reference: defines deadlines, window lengths and the
    # savings baseline. Probe one stream first to size the deadlines.
    probe = _run_max_perf(kernels, (float("inf"),))
    stream_s = probe.stream_elapsed_s[0]
    deadlines = tuple(DEADLINE_SLACK * stream_s for _ in range(STREAMS))
    releases = release_times(deadlines)
    max_perf = _run_max_perf(kernels, deadlines)
    fault_plan = _fault_plan(seed, stream_s, releases)

    static_clean = _run_static(
        "static-clean", compiled.plan, target, kernels, deadlines, None
    )
    static_fault = _run_static(
        "static-fault", compiled.plan, target, kernels, deadlines, fault_plan
    )

    # Adaptive run: a fresh board under the identical fault plan, with the
    # trace threaded through the queue, detector, ladder and injector.
    gpu = SimulatedGPU(NVIDIA_V100, index=0)
    injector = fault_plan.injector(trace)
    gpu.fault_injector = injector
    queue = SynergyQueue(gpu, trace=trace)
    controller = AdaptiveController(
        queue, bundle, compiled.plan, target, trace=trace
    )
    reports = []
    for deadline, release in zip(deadlines, releases):
        _await_release(gpu, release)
        reports.append(
            controller.run_stream(kernels, deadline_s=deadline, rounds=ROUNDS)
        )
    adaptive = RunSummary(
        label="adaptive-fault",
        streams_met=sum(report.met for report in reports),
        streams_missed=sum(not report.met for report in reports),
        elapsed_s=float(sum(report.elapsed_s for report in reports)),
        energy_j=float(sum(report.energy_j for report in reports)),
        stream_elapsed_s=tuple(report.elapsed_s for report in reports),
        stream_met=tuple(report.met for report in reports),
    )

    comparison = ThermalDriftComparison(
        seed=seed,
        deadlines_s=deadlines,
        max_perf=max_perf,
        static_clean=static_clean,
        static_fault=static_fault,
        adaptive_fault=adaptive,
        drift_events=tuple(e.as_dict() for e in controller.detector.events),
        transitions=tuple(t.as_dict() for t in controller.ladder.transitions),
        refreshes=controller.refresh_count,
        stream_reports=tuple(reports),
    )
    if trace is not None and trace.enabled:
        trace.gauge("adapt.final_level", float(controller.ladder.level))
        trace.gauge("adapt.static_saving", comparison.static_saving)
        trace.gauge("adapt.adaptive_saving", comparison.adaptive_saving)
        trace.gauge("adapt.recovery_fraction", comparison.recovery_fraction)
    return comparison
