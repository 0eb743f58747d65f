"""Shared machinery for the MPI+SYCL mini-apps (CloverLeaf, MiniWeather).

A mini-app is a fixed per-timestep kernel sequence executed by every rank on
its own GPU (weak scaling: the per-rank grid is constant), followed by a
halo exchange and a global timestep reduction. Execution time includes
computation *and* communication; the energy report covers only the GPU
devices — exactly the Fig. 10 accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.core.compiler import FrequencyPlan
from repro.core.queue import SynergyQueue
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget
from repro.mpi.comm import SimulatedComm


@dataclass(frozen=True)
class AppReport:
    """Outcome of one mini-app run."""

    app_name: str
    n_ranks: int
    steps: int
    target_name: str
    elapsed_s: float
    gpu_energy_j: float
    comm_time_max_s: float
    kernel_launches: int
    #: Clock-set retries across all ranks (transient NVML failures absorbed).
    clock_retries: int = 0
    #: Kernels whose requested clocks degraded to driver defaults.
    degraded_kernels: int = 0
    #: Energy measurements served from the analytic fallback (sensor loss).
    energy_fallbacks: int = 0


class MpiMiniApp:
    """Base class: subclasses define the timestep kernels and halo size."""

    #: Application name for reports.
    name: str = "miniapp"

    def __init__(self, steps: int = 20) -> None:
        if steps < 1:
            raise ValidationError(f"steps must be >= 1 ({steps!r})")
        self.steps = steps

    def timestep_kernels(self) -> tuple[KernelIR, ...]:
        """The kernel sequence of one timestep (override)."""
        raise NotImplementedError

    def halo_bytes(self) -> float:
        """Bytes exchanged with each neighbour per timestep (override)."""
        raise NotImplementedError

    def run(
        self,
        comm: SimulatedComm,
        target: EnergyTarget | None = None,
        plan: FrequencyPlan | None = None,
        trace=None,
    ) -> AppReport:
        """Execute the app over all ranks of ``comm``.

        ``target=None`` is the paper's baseline: default clocks for every
        kernel. With a target, each kernel submission carries it and the
        per-kernel clocks come from ``plan`` (a compiled application).
        """
        if target is not None and plan is None:
            raise ValidationError(
                "running with an energy target requires a compiled frequency plan"
            )
        if trace is None:
            # Inherit the communicator's session so a traced cluster run
            # traces per-rank queues without extra plumbing.
            trace = comm.trace
        kernels = self.timestep_kernels()
        start = comm.barrier()
        comm_before = float(comm.comm_time_s.max())
        queues = [
            SynergyQueue(gpu, plan=plan, trace=trace)
            for gpu in comm.gpus
        ]
        launches = 0
        for _step in range(self.steps):
            for queue in queues:
                for kernel in kernels:
                    if target is None:
                        queue.submit(
                            lambda h, k=kernel: h.parallel_for(k.work_items, k)
                        )
                    else:
                        queue.submit(
                            target,
                            lambda h, k=kernel: h.parallel_for(k.work_items, k),
                        )
                    launches += 1
            comm.halo_exchange(self.halo_bytes())
            comm.allreduce(8.0)  # global dt reduction (one double)
        end = comm.barrier()
        # Restore default clocks so the boards end in a consistent state
        # (the mini-app equivalent of the plugin epilogue).
        for queue in queues:
            queue.reset_frequency()
        return AppReport(
            app_name=self.name,
            n_ranks=comm.size,
            steps=self.steps,
            target_name=target.name if target is not None else "default",
            elapsed_s=end - start,
            gpu_energy_j=comm.total_gpu_energy(start, [end] * comm.size),
            comm_time_max_s=float(comm.comm_time_s.max()) - comm_before,
            kernel_launches=launches,
            clock_retries=sum(q.scaler.retry_count for q in queues),
            # The same count summary() reduces its per-event flags to.
            degraded_kernels=sum(len(q._degraded_events) for q in queues),
            energy_fallbacks=sum(q.profiler.fallback_count for q in queues),
        )
