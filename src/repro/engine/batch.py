"""Struct-of-arrays batch representations.

:class:`KernelBatch` holds one queue's worth of kernel submissions as
parallel tuples; the executor decodes them against a queue
(:func:`repro.engine.executor.execute_batch`) into the per-submission
clock arrays it broadcasts over.

Request forms mirror :meth:`repro.core.queue.SynergyQueue.submit`:

- a bare :class:`~repro.kernelir.kernel.KernelIR` (queue clocks or
  driver defaults apply),
- ``(EnergyTarget, kernel)`` — resolved through the plan/predictor,
- ``(mem_mhz, core_mhz, kernel)`` — explicit clocks, validated at
  assembly time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.common.errors import ValidationError
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget


@dataclass(frozen=True)
class KernelBatch:
    """A batch of kernel submissions in struct-of-arrays form."""

    kernels: tuple[KernelIR, ...]
    requests: tuple[object, ...]

    def __post_init__(self) -> None:
        if len(self.kernels) != len(self.requests):
            raise ValidationError(
                f"kernels/requests length mismatch "
                f"({len(self.kernels)} vs {len(self.requests)})"
            )

    def __len__(self) -> int:
        return len(self.kernels)

    @classmethod
    def from_requests(cls, requests: Iterable[object]) -> "KernelBatch":
        """Assemble a batch from submit-style request items.

        Each item is a bare :class:`KernelIR`, ``(EnergyTarget, kernel)``
        or ``(mem_mhz, core_mhz, kernel)`` — the same three forms
        :meth:`SynergyQueue.submit` accepts, minus the command-group
        indirection (batched submissions are dependency-free
        ``parallel_for`` launches).
        """
        kernels: list[KernelIR] = []
        reqs: list[object] = []
        # One tuple per distinct explicit clock pair in the batch.
        pairs: dict[tuple[int, int], tuple[int, int]] = {}
        for item in requests:
            if isinstance(item, KernelIR):
                kernels.append(item)
                reqs.append(None)
            elif (
                isinstance(item, tuple)
                and len(item) == 2
                and isinstance(item[0], EnergyTarget)
                and isinstance(item[1], KernelIR)
            ):
                kernels.append(item[1])
                reqs.append(item[0])
            elif (
                isinstance(item, tuple)
                and len(item) == 3
                and isinstance(item[0], int)
                and isinstance(item[1], int)
                and isinstance(item[2], KernelIR)
            ):
                kernels.append(item[2])
                pair = (item[0], item[1])
                reqs.append(pairs.setdefault(pair, pair))
            else:
                raise ValidationError(
                    "batch items must be KernelIR, (EnergyTarget, KernelIR) "
                    f"or (mem_mhz, core_mhz, KernelIR); got {item!r}"
                )
        return cls(kernels=tuple(kernels), requests=tuple(reqs))

    def validate_explicit_clocks(self, spec: GPUSpec) -> None:
        """Submit-time validation of every explicit clock pair.

        Mirrors the scalar path, where an invalid pair raises in
        ``submit`` rather than later inside ``_pre_kernel`` — for a batch
        the whole assembly is validated before anything executes.
        """
        unique = {r for r in self.requests if isinstance(r, tuple)}
        for mem_mhz, core_mhz in unique:
            spec.validate_clocks(mem_mhz, core_mhz)

