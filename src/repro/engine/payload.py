"""Scheduler-facing pieces of the batched engine.

:class:`KernelBatchPayload` is the job payload (batch-script body) that
drives every allocated GPU through one :class:`KernelBatch` via
:meth:`SynergyQueue.submit_batch`; the scheduler twins of the engine
differential contract replay it per event through
:mod:`repro.validate.reference`. :func:`plan_from_sweeps` compiles a
:class:`FrequencyPlan` directly from measured sweeps (the §6.2 search on
ground truth instead of model predictions), which lets scenarios use
DEADLINE/SLA targets without training a predictor. Per-job energy
accounting is not here: the scheduler integrates each board's window
with :meth:`SimulatedGPU.energy_between`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.compiler import FrequencyPlan
from repro.core.queue import SynergyQueue
from repro.engine.batch import KernelBatch
from repro.experiments.sweep import sweep_kernel
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget
from repro.slurm.job import JobContext


def plan_from_sweeps(
    spec: GPUSpec, kernels: Sequence[KernelIR], targets: Iterable[EnergyTarget]
) -> FrequencyPlan:
    """Build a frequency plan from measured sweeps (no predictor).

    For every ``(kernel, target)`` pair the target's §6.2 search runs on
    the kernel's measured frequency sweep; the winning core clock lands
    in the plan at the device's default memory clock (the sweep's memory
    operating point). Deterministic and exact, so batched/scalar parity
    scenarios can use DEADLINE and SLA targets without a trained model.
    """
    target_list = list(targets)
    entries: dict[tuple[str, str], tuple[int, int]] = {}
    for kernel in kernels:
        sweep = sweep_kernel(spec, kernel)
        for target in target_list:
            idx = target.resolve_index(
                sweep.freqs_mhz, sweep.time_s, sweep.energy_j, sweep.default_index
            )
            entries[(kernel.name, target.name)] = (
                spec.default_mem_mhz,
                int(sweep.freqs_mhz[idx]),
            )
    return FrequencyPlan(device_name=spec.name, entries=entries)


@dataclass(frozen=True)
class KernelBatchPayload:
    """Job payload submitting one kernel batch per allocated GPU.

    ``requests`` is a :class:`KernelBatch` or holds submit-style items
    (bare :class:`KernelIR`, ``(EnergyTarget, kernel)`` or ``(mem_mhz,
    core_mhz, kernel)``); each GPU runs them through
    :meth:`SynergyQueue.submit_batch`. ``owner``
    tags the queues (the service plane sets it to the tenant name, so
    every ``queue.kernel`` span carries it). Returns the per-submission
    start times, the modeled kernel energy summed over every GPU — the
    order-invariant basis of per-tenant attribution — and the per-GPU
    queue summaries.
    """

    requests: tuple | KernelBatch
    plan: FrequencyPlan | None = None
    owner: str | None = None

    def __call__(self, context: JobContext) -> dict[str, object]:
        # Assemble the batch once; every allocated GPU replays the same
        # immutable columnar submission stream.
        batch = self.requests
        if not isinstance(batch, KernelBatch):
            batch = KernelBatch.from_requests(batch)
        start_s: list[float] = []
        kernel_energy_j = 0.0
        summaries = []
        for gpu in context.gpus:
            queue = SynergyQueue(
                gpu, plan=self.plan, trace=context.trace, owner=self.owner
            )
            result = queue.submit_batch(batch)
            queue.wait()
            start_s.extend(result.start_s.tolist())
            kernel_energy_j += float(np.sum(result.energy_j))
            summaries.append(queue.summary())
        return {
            "start_s": start_s,
            "kernel_energy_j": kernel_energy_j,
            "gpus": summaries,
        }
