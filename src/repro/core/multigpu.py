"""Multi-GPU single-node execution (Celerity-inspired, paper §4).

The SYnergy API is "inspired by the SYCL extension Celerity", which splits
work transparently across accelerators. :class:`MultiGpuSynergyQueue`
provides the single-node version of that idea: one logical queue over all
the node's boards, splitting each ``parallel_for`` range evenly, applying
the same per-kernel energy target on every board, and aggregating energy
across them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.core.compiler import FrequencyPlan
from repro.core.predictor import FrequencyPredictor
from repro.core.queue import SynergyQueue
from repro.hw.device import SimulatedGPU
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget
from repro.sycl.event import Event


@dataclass(frozen=True)
class DistributedEvent:
    """Completion handle covering one kernel's per-device sub-launches."""

    kernel_name: str
    events: tuple[Event, ...]

    def wait(self) -> None:
        """Wait for every sub-launch."""
        for event in self.events:
            event.wait()

    @property
    def end_s(self) -> float:
        """Completion time of the slowest sub-launch."""
        return max(e.end_s for e in self.events)

    @property
    def time_s(self) -> float:
        """Distributed wall time: earliest start to latest end."""
        return self.end_s - min(e.start_s for e in self.events)

    @property
    def energy_j(self) -> float:
        """True energy summed over the sub-launches."""
        return sum(e.record.energy_j for e in self.events if e.record)


class MultiGpuSynergyQueue:
    """A logical SYnergy queue spanning several boards of one node."""

    def __init__(
        self,
        gpus: list[SimulatedGPU],
        plan: FrequencyPlan | None = None,
        predictor: FrequencyPredictor | None = None,
    ) -> None:
        if not gpus:
            raise ValidationError("multi-GPU queue needs at least one device")
        self.queues = [
            SynergyQueue(gpu, plan=plan, predictor=predictor) for gpu in gpus
        ]

    @property
    def n_devices(self) -> int:
        """Number of boards behind the logical queue."""
        return len(self.queues)

    def parallel_for(
        self, size: int, kernel: KernelIR, target: EnergyTarget | None = None
    ) -> DistributedEvent:
        """Launch a kernel split evenly across all devices.

        The last device absorbs the remainder of a non-divisible range.
        Each sub-launch carries the energy target (when given), so every
        board independently applies the kernel's compiled clocks.
        """
        if size < self.n_devices:
            raise ValidationError(
                f"range {size} smaller than device count {self.n_devices}"
            )
        share = size // self.n_devices
        events = []
        for i, queue in enumerate(self.queues):
            local = share if i < self.n_devices - 1 else size - share * i
            if target is None:
                event = queue.submit(lambda h, n=local: h.parallel_for(n, kernel))
            else:
                event = queue.submit(
                    target, lambda h, n=local: h.parallel_for(n, kernel)
                )
            events.append(event)
        return DistributedEvent(kernel_name=kernel.name, events=tuple(events))

    def wait(self) -> None:
        """Drain every device and synchronize their clocks to the slowest."""
        for queue in self.queues:
            queue.wait()
        horizon = max(q.gpu.clock.now for q in self.queues)
        for queue in self.queues:
            if queue.gpu.clock.now < horizon:
                queue.gpu.clock.advance_to(horizon)

    def device_energy_consumption(self, *, true_value: bool = True) -> float:
        """Aggregate device energy since the queue was built."""
        self.wait()
        return sum(
            q.profiler.device_energy(true_value=true_value) for q in self.queues
        )

    def reset_frequency(self) -> None:
        """Restore default clocks on all boards."""
        for queue in self.queues:
            queue.reset_frequency()
