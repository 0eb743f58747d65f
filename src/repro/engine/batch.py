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


#: What a batch item may be; both constructors name it in their errors.
_ITEM_FORMS = (
    "batch items must be KernelIR, (EnergyTarget, KernelIR) "
    "or (mem_mhz, core_mhz, KernelIR)"
)


@dataclass(frozen=True)
class KernelBatch:
    """A batch of kernel submissions in struct-of-arrays form.

    ``requests[i]`` is ``None``, an :class:`EnergyTarget` or an
    ``(int, int)`` clock pair; construction checks every entry, so a batch
    built directly fails on the same items :meth:`from_requests` rejects.
    """

    kernels: tuple[KernelIR, ...]
    requests: tuple[object, ...]

    def __post_init__(self) -> None:
        if len(self.kernels) != len(self.requests):
            raise ValidationError(
                f"kernels/requests length mismatch "
                f"({len(self.kernels)} vs {len(self.requests)})"
            )
        for kernel, request in zip(self.kernels, self.requests):
            if not (
                isinstance(kernel, KernelIR)
                and (
                    request is None
                    or isinstance(request, EnergyTarget)
                    or (
                        isinstance(request, tuple)
                        and len(request) == 2
                        and isinstance(request[0], int)
                        and isinstance(request[1], int)
                    )
                )
            ):
                raise ValidationError(
                    f"{_ITEM_FORMS}; got kernel {kernel!r} with request {request!r}"
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
        ``parallel_for`` launches). Items are split by form here; the
        constructor checks every kernel and clock pair.
        """
        kernels: list[object] = []
        reqs: list[object] = []
        for item in requests:
            if not isinstance(item, tuple):
                kernels.append(item)
                reqs.append(None)
            elif len(item) == 2 and isinstance(item[0], EnergyTarget):
                kernels.append(item[1])
                reqs.append(item[0])
            elif len(item) == 3:
                kernels.append(item[2])
                reqs.append((item[0], item[1]))
            else:
                raise ValidationError(f"{_ITEM_FORMS}; got {item!r}")
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

