"""Static plan certificates: makespan/energy bounds without execution.

Both executors evaluate a monotone ``(max, +)`` recurrence over kernel
durations, switch overheads and communication costs. Every ingredient of
that recurrence is known at compile time — the frequency plan fixes each
kernel's operating point, the graph fixes the dependency structure, the
scaler fixes the §4.4 overhead — so the recurrence can be evaluated over
:class:`~repro.analysis.interval.Interval` s instead of floats. Because
every operation used (interval ``add``, ``max``, non-negative ``scale``)
is monotone in both endpoints, walking the recurrence once at the lower
and once at the upper endpoints yields sound bounds: the virtual-time run
*must* land inside. ``validate --only analysis`` checks exactly that.

Two certificate shapes:

- :func:`certify_graph` — per-rank makespan/energy intervals for a
  :class:`~repro.core.compiler.GlobalFrequencyPlan` over a
  :class:`~repro.distributed.graph.CommandGraph`, mirroring the
  engine recurrence (``start = max(rank_clock, ready)``,
  ``rank_clock' = start + max(duration, OH·switch)``) with kernel physics
  from the same memoized operating tables the engines read. With known
  boot clocks every interval is degenerate (the walk *is* the executed
  schedule); ``boot="unknown"`` hulls over the first-switch uncertainty.
- :func:`certify_frequency_plan` — a single-device serial pass under a
  :class:`~repro.core.compiler.FrequencyPlan`: exact per-kernel static
  times/energies at the planned clocks, per-target makespan/energy
  intervals, and a feasibility verdict for DEADLINE / SLA_SLACK targets
  that *names a witness kernel* when it refutes the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.interval import Interval
from repro.common.errors import ValidationError
from repro.core.compiler import FrequencyPlan, GlobalFrequencyPlan
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S
from repro.distributed.graph import KERNEL, CommandGraph
from repro.hw.cache import models_for
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import DEADLINE_RTOL, EnergyTarget, TargetKind


def static_operating_point(
    spec: GPUSpec, kernel: KernelIR, core_mhz: int, mem_mhz: int
) -> tuple[float, float]:
    """Exact ``(time_s, power_w)`` at one clock pair, straight off the models.

    This is the scalar physics the reference executor commits per event
    (no power cap, so the board never throttles off the requested clock).
    """
    timing_model, power_model = models_for(spec)
    timing = timing_model.execute(kernel, core_mhz, mem_mhz)
    power = float(
        power_model.power(
            core_mhz, mem_mhz, timing.core_power_utilization, timing.u_mem
        )
    )
    return float(timing.time_s), power


# ----------------------------------------------------------- graph walk


@dataclass(frozen=True)
class GraphCertificate:
    """Static makespan/energy bounds for one plan over one graph."""

    device_name: str
    n_nodes: int
    n_kernels: int
    boot: str
    switch_overhead_s: float
    completion_s: Interval
    rank_time_s: tuple[Interval, ...]
    rank_energy_j: tuple[Interval, ...]
    total_energy_j: Interval
    sla_factor: float
    #: ``completion.hi <= sla × baseline completion``, when a MAX_PERF
    #: baseline certificate was supplied; ``None`` otherwise.
    global_bound_ok: bool | None = None
    baseline_completion_s: float | None = None

    def as_dict(self) -> dict[str, object]:
        return {
            "device_name": self.device_name,
            "n_nodes": self.n_nodes,
            "n_kernels": self.n_kernels,
            "boot": self.boot,
            "switch_overhead_s": self.switch_overhead_s,
            "completion_s": self.completion_s.as_dict(),
            "rank_energy_j": [iv.as_dict() for iv in self.rank_energy_j],
            "total_energy_j": self.total_energy_j.as_dict(),
            "sla_factor": self.sla_factor,
            "global_bound_ok": self.global_bound_ok,
            "baseline_completion_s": self.baseline_completion_s,
        }


def certify_graph(
    graph: CommandGraph,
    plan: GlobalFrequencyPlan,
    spec: GPUSpec,
    *,
    boot: str = "default",
    baseline: "GraphCertificate | None" = None,
) -> GraphCertificate:
    """Walk the engine recurrence over intervals; never touches a board.

    ``boot="default"`` assumes every rank starts at the driver-default
    clocks (what :func:`~repro.distributed.runner.build_comm` guarantees),
    making every bound degenerate — the certificate *is* the schedule.
    ``boot="unknown"`` leaves the pre-run clocks open: the lower walk
    skips each rank's first switch, the upper walk forces it; the
    endpoint argument keeps both sound because the recurrence is monotone
    in each advance. Energy is switch-independent, so it stays exact
    either way.

    Pass a MAX_PERF-plan certificate as ``baseline`` to statically prove
    the global SLA bound ``completion ≤ sla_factor × baseline``.
    """
    from repro.engine.executor import operating_table

    if boot not in ("default", "unknown"):
        raise ValidationError(f"unknown boot mode {boot!r}")
    oh = DEFAULT_SWITCH_OVERHEAD_S
    tables: dict[tuple[int, int], tuple] = {}
    core_index = {int(f): i for i, f in enumerate(spec.core_freqs_mhz)}

    n_ranks = graph.n_ranks
    zero = Interval.point(0.0)
    finish: list[Interval] = [zero] * len(graph.nodes)
    clock_now: list[Interval] = [zero] * n_ranks
    energy: list[Interval] = [zero] * n_ranks
    current: list[tuple[int, int] | None] = [
        (spec.default_core_mhz, spec.default_mem_mhz) if boot == "default"
        else None
        for _ in range(n_ranks)
    ]
    n_kernels = 0
    for node in graph.nodes:
        ready = zero
        for dep in node.deps:
            ready = ready.max(finish[dep])
        if node.kind != KERNEL:
            finish[node.nid] = ready.add(Interval.point(node.cost_s))
            continue
        n_kernels += 1
        kernel = node.kernel
        assert kernel is not None
        mem, core = plan.clocks_for(node.rank, kernel.name)
        key = (id(kernel), mem)
        tab = tables.get(key)
        if tab is None:
            tab = operating_table(spec, kernel, float(mem))
            tables[key] = tab
        try:
            ci = core_index[int(core)]
        except KeyError:
            raise ValidationError(
                f"core clock {core} MHz not in {spec.name}'s table"
            ) from None
        time_s = float(tab[0][ci])
        power_w = float(tab[3][ci])
        r = node.rank
        start = clock_now[r].max(ready)
        if current[r] is None:
            # Unknown boot clocks: the first launch may or may not switch.
            clock_now[r] = Interval(
                start.lo + time_s, start.hi + max(time_s, oh)
            )
        else:
            switched = (core, mem) != current[r]
            advance = max(time_s, oh) if switched else time_s
            clock_now[r] = start.add(Interval.point(advance))
        current[r] = (core, mem)
        finish[node.nid] = start.add(Interval.point(time_s))
        energy[r] = energy[r].add(Interval.point(power_w * time_s))

    completion = zero
    for iv in finish:
        completion = completion.max(iv)
    for iv in clock_now:
        completion = completion.max(iv)
    total = zero
    for iv in energy:
        total = total.add(iv)

    bound_ok: bool | None = None
    baseline_completion: float | None = None
    if baseline is not None:
        baseline_completion = baseline.completion_s.lo
        bound = plan.sla_factor * baseline_completion
        bound_ok = completion.hi <= bound * (1.0 + DEADLINE_RTOL)
    return GraphCertificate(
        device_name=spec.name,
        n_nodes=len(graph.nodes),
        n_kernels=n_kernels,
        boot=boot,
        switch_overhead_s=oh,
        completion_s=completion,
        rank_time_s=tuple(clock_now),
        rank_energy_j=tuple(energy),
        total_energy_j=total,
        sla_factor=float(plan.sla_factor),
        global_bound_ok=bound_ok,
        baseline_completion_s=baseline_completion,
    )


# ---------------------------------------------------- single-device plans


@dataclass(frozen=True)
class PlanCertificate:
    """Feasibility verdict + bounds for one compiled frequency plan.

    ``kernel_time_s``/``kernel_energy_j`` are *exact* static values at the
    planned clocks, keyed by ``(kernel_name, target_name)``. The per-
    target ``makespan_s`` interval covers one serial pass over the
    kernels: the lower endpoint is pure compute, the upper endpoint
    admits one clock switch per launch plus a boot and a reset switch.
    ``witness`` names the first kernel refuting a DEADLINE / SLA_SLACK
    target, with the full story in ``violations``.
    """

    device_name: str
    targets: tuple[str, ...]
    kernel_time_s: Mapping[tuple[str, str], float]
    kernel_energy_j: Mapping[tuple[str, str], float]
    makespan_s: Mapping[str, Interval]
    energy_j: Mapping[str, Interval]
    violations: tuple[str, ...] = ()
    witness: str | None = None
    switch_overhead_s: float = DEFAULT_SWITCH_OVERHEAD_S
    notes: tuple[str, ...] = field(default=())

    @property
    def feasible(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, object]:
        return {
            "device_name": self.device_name,
            "targets": list(self.targets),
            "feasible": self.feasible,
            "witness": self.witness,
            "violations": list(self.violations),
            "makespan_s": {t: iv.as_dict() for t, iv in self.makespan_s.items()},
            "energy_j": {t: iv.as_dict() for t, iv in self.energy_j.items()},
            "kernel_time_s": {
                f"{k}::{t}": v for (k, t), v in self.kernel_time_s.items()
            },
            "kernel_energy_j": {
                f"{k}::{t}": v for (k, t), v in self.kernel_energy_j.items()
            },
            "notes": list(self.notes),
        }


def certify_frequency_plan(
    plan: FrequencyPlan,
    kernels: Sequence[KernelIR],
    targets: Sequence[EnergyTarget],
    spec: GPUSpec,
) -> PlanCertificate:
    """Statically prove — or refute, with a witness — a compiled plan.

    For every ``(kernel, target)`` pair the planned clocks are priced
    through the timing/power models. DEADLINE targets are refuted when
    the kernel's static time exceeds the deadline beyond the resolver's
    own tolerance (``DEADLINE_RTOL``); SLA_SLACK targets compare against
    ``slack × (fastest table time at the planned memory clock)``. Average
    power is additionally checked against the board's physical
    ``power_bounds`` envelope.
    """
    timing_model, power_model = models_for(spec)
    p_lo, p_hi = power_model.power_bounds()
    oh = DEFAULT_SWITCH_OVERHEAD_S
    times: dict[tuple[str, str], float] = {}
    energies: dict[tuple[str, str], float] = {}
    makespan: dict[str, Interval] = {}
    energy_iv: dict[str, Interval] = {}
    violations: list[str] = []
    witness: str | None = None

    def refute(kernel_name: str, message: str) -> None:
        nonlocal witness
        violations.append(message)
        if witness is None:
            witness = kernel_name

    for target in targets:
        total_t = 0.0
        total_e = 0.0
        for kernel in kernels:
            mem, core = plan.lookup(kernel.name, target)
            t, p = static_operating_point(spec, kernel, core, mem)
            e = p * t
            times[(kernel.name, target.name)] = t
            energies[(kernel.name, target.name)] = e
            total_t += t
            total_e += e
            if not p_lo * (1.0 - DEADLINE_RTOL) <= p <= p_hi * (1.0 + DEADLINE_RTOL):
                refute(
                    kernel.name,
                    f"{kernel.name}/{target.name}: average power {p:.3f} W "
                    f"outside the board envelope [{p_lo:.3f}, {p_hi:.3f}]",
                )
            if target.kind is TargetKind.DEADLINE:
                deadline = float(target.value)  # validated positive
                if t > deadline * (1.0 + DEADLINE_RTOL):
                    refute(
                        kernel.name,
                        f"{kernel.name}/{target.name}: static time {t:.6e} s "
                        f"exceeds the {deadline:.6e} s deadline — the plan "
                        "is infeasible (witness kernel "
                        f"{kernel.name!r})",
                    )
            elif target.kind is TargetKind.SLA_SLACK:
                timing = timing_model.sweep(
                    kernel,
                    np.asarray(spec.core_freqs_mhz, dtype=float),
                    float(mem),
                )
                t_min = float(timing.time_s.min())
                bound = float(target.value) * t_min
                if t > bound * (1.0 + DEADLINE_RTOL):
                    refute(
                        kernel.name,
                        f"{kernel.name}/{target.name}: static time {t:.6e} s "
                        f"exceeds {target.value:g}× the fastest table time "
                        f"{t_min:.6e} s (witness kernel {kernel.name!r})",
                    )
        n = len(kernels)
        # Serial pass: compute is exact; every launch may pay at most one
        # switch (advance = max(t, oh) <= t + oh), plus one boot switch
        # into the plan and one reset back to driver defaults.
        makespan[target.name] = Interval(total_t, total_t + (n + 2) * oh)
        energy_iv[target.name] = Interval.point(total_e)

    return PlanCertificate(
        device_name=spec.name,
        targets=tuple(t.name for t in targets),
        kernel_time_s=times,
        kernel_energy_j=energies,
        makespan_s=makespan,
        energy_j=energy_iv,
        violations=tuple(violations),
        witness=witness,
        switch_overhead_s=oh,
    )
