"""Static instruction mix of a device kernel.

The ten instruction classes mirror Table 1 of the paper exactly; they are the
quantities the SYnergy compiler pass extracts from SYCL kernels and feeds to
the energy models. Counts are *static per-work-item* counts — the number of
instructions of each class in the kernel body for one work-item.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.common.errors import ValidationError


@dataclass(frozen=True, slots=True)
class InstructionMix:
    """Per-work-item static instruction counts (Table 1 of the paper).

    Attributes
    ----------
    int_add:
        Integer additions and subtractions.
    int_mul:
        Integer multiplications.
    int_div:
        Integer divisions.
    int_bw:
        Integer bitwise operations.
    float_add:
        Floating point additions and subtractions.
    float_mul:
        Floating point multiplications.
    float_div:
        Floating point divisions.
    sf:
        Special functions (``exp``, ``log``, ``sqrt``, trigonometry, ...).
    gl_access:
        Global memory accesses (loads + stores).
    loc_access:
        Local (shared) memory accesses.
    """

    int_add: float = 0.0
    int_mul: float = 0.0
    int_div: float = 0.0
    int_bw: float = 0.0
    float_add: float = 0.0
    float_mul: float = 0.0
    float_div: float = 0.0
    sf: float = 0.0
    gl_access: float = 0.0
    loc_access: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)):
                raise ValidationError(f"instruction count {f.name} must be numeric")
            if value < 0:
                raise ValidationError(
                    f"instruction count {f.name} cannot be negative ({value!r})"
                )

    def as_dict(self) -> dict[str, float]:
        """Return the mix as an ordered ``{class: count}`` mapping."""
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}

    @property
    def compute_ops(self) -> float:
        """Total arithmetic operations (everything except memory accesses)."""
        return (
            self.int_add
            + self.int_mul
            + self.int_div
            + self.int_bw
            + self.float_add
            + self.float_mul
            + self.float_div
            + self.sf
        )

    @property
    def memory_ops(self) -> float:
        """Total memory operations (global + local)."""
        return self.gl_access + self.loc_access

    @property
    def total_ops(self) -> float:
        """Total static instruction count."""
        return self.compute_ops + self.memory_ops

    def scaled(self, factor: float) -> "InstructionMix":
        """Return a copy with every count multiplied by ``factor``.

        Used by the micro-benchmark generator to sweep work per item while
        preserving the instruction *ratio* of a template kernel.
        """
        if factor < 0:
            raise ValidationError(f"scale factor cannot be negative ({factor!r})")
        return InstructionMix(**{k: v * factor for k, v in self.as_dict().items()})
