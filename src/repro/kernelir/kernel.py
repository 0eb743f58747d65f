"""Kernel IR: what the SYnergy compiler pass sees for one ``parallel_for``.

A :class:`KernelIR` couples a static :class:`~repro.kernelir.instructions.
InstructionMix` with the launch geometry (number of work-items) and memory
word size. Optionally it carries a host-side ``compute`` callable so example
programs can perform the real computation on NumPy arrays while the simulated
GPU models its time/energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from repro.common.errors import ValidationError
from repro.kernelir.instructions import InstructionMix

#: Signature of an optional host-side implementation of the kernel. It gets
#: the accessor views requested in the command group, keyed by buffer name.
HostFunction = Callable[[Mapping[str, object]], None]


@dataclass(frozen=True)
class KernelIR:
    """Static description of a device kernel.

    Attributes
    ----------
    name:
        Unique kernel name (used for profiling, model lookup and reports).
    mix:
        Static per-work-item instruction counts.
    work_items:
        Global launch size (total work-items).
    word_bytes:
        Bytes moved per global/local memory access (4 for ``float``).
    locality:
        Fraction of global accesses served by cache/coalescing in ``[0, 1)``;
        higher locality means less DRAM traffic per static access. Stencils
        and matmul-style kernels have high locality, streaming kernels low.
    host_fn:
        Optional host-side implementation executed when the kernel runs.
    """

    name: str
    mix: InstructionMix
    work_items: int
    word_bytes: int = 4
    locality: float = 0.0
    host_fn: HostFunction | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("kernel name cannot be empty")
        if self.work_items <= 0:
            raise ValidationError(
                f"kernel {self.name!r}: work_items must be positive "
                f"({self.work_items!r})"
            )
        if self.word_bytes <= 0:
            raise ValidationError(
                f"kernel {self.name!r}: word_bytes must be positive "
                f"({self.word_bytes!r})"
            )
        if not 0.0 <= self.locality < 1.0:
            raise ValidationError(
                f"kernel {self.name!r}: locality must be in [0, 1) "
                f"({self.locality!r})"
            )

    @property
    def global_bytes(self) -> float:
        """Total DRAM traffic in bytes after locality filtering."""
        return (
            self.mix.gl_access
            * self.work_items
            * self.word_bytes
            * (1.0 - self.locality)
        )

    def with_work_items(self, work_items: int) -> "KernelIR":
        """Return a copy launched over a different global size."""
        return replace(self, work_items=work_items)

    def with_name(self, name: str) -> "KernelIR":
        """Return a copy under a different name (e.g. per-iteration tags)."""
        return replace(self, name=name)
