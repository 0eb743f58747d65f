"""The typed kernel CFG the front end lowers device-Python into.

The shape mirrors what the paper's LLVM pass sees after loop analysis: a
structured region of straight-line :class:`Block` s and statically-bounded
:class:`CountedLoop` s. Every operation has already been classified into
one of the ten Table-1 instruction classes during lowering, so the static
count walk (:func:`count_region`) is a pure trip-count-weighted fold, and
the stride/reuse analysis reads the recorded :class:`Access` patterns
without touching the AST again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.kernelir.instructions import InstructionMix

# ------------------------------------------------------------------- types


class Scalar(enum.Enum):
    """Inferred scalar type of an expression."""

    INT = "i32"
    FLOAT = "f32"


class Space(enum.Enum):
    """Memory space of an array parameter (Table-1 access classes)."""

    GLOBAL = "global"
    LOCAL = "local"


@dataclass(frozen=True)
class ArrayType:
    """An array parameter: memory space plus element type.

    ``size`` is the statically-declared element count when known — local
    arrays carry the ``local(f32, SIZE)`` literal so the out-of-bounds
    pass (FE013) can check provable overruns; parameter arrays have no
    declared extent and stay ``None``.
    """

    space: Space
    elem: Scalar
    size: int | None = None

    def __str__(self) -> str:
        return f"{self.space.value}_{self.elem.value}"


# ------------------------------------------------------------- instructions


@dataclass(frozen=True)
class AffineIndex:
    """One subscript dimension in affine form: ``sum(coeffs[v]*v) + const``.

    ``coeffs`` maps work-item/loop variable names to integer coefficients
    (sorted by name for stable equality). Multi-dimensional subscripts
    (``a[gid, k]``) record one :class:`AffineIndex` per dimension. A
    non-affine dimension makes the whole access opaque (``index=None``) —
    opaque accesses are never classified as reuse hits.
    """

    coeffs: tuple[tuple[str, int], ...]
    const: int

    def same_shape(self, other: "AffineIndex") -> bool:
        """Same variable part — candidates for spatial/temporal reuse."""
        return self.coeffs == other.coeffs


@dataclass(frozen=True)
class Op:
    """One classified arithmetic/special-function operation."""

    cls: str  # one of the eight compute classes
    line: int
    col: int


@dataclass(frozen=True)
class Access:
    """One static memory access (load or store).

    ``phase`` counts the ``barrier()`` calls lowered before this access:
    two local-memory accesses in different phases are ordered by the
    work-group barrier between them and can never race (the suppression
    rule of the FE011/FE012 race pass).
    """

    array: str
    space: Space
    is_store: bool
    index: tuple[AffineIndex, ...] | None  # None = opaque subscript
    line: int
    col: int
    phase: int = 0

    @property
    def cls(self) -> str:
        return "gl_access" if self.space is Space.GLOBAL else "loc_access"


# ------------------------------------------------------------------ regions


@dataclass
class Block:
    """Straight-line run of classified ops and accesses, in program order."""

    ops: list[Op] = field(default_factory=list)
    accesses: list[Access] = field(default_factory=list)


@dataclass
class CountedLoop:
    """A statically-bounded counted loop (``for v in range(...)``).

    ``start``/``step`` record the folded ``range`` parameters so the
    footprint analysis can enumerate the loop variable's concrete value
    set (``start, start+step, ...`` for ``trip_count`` values); the
    Table-1 count walk only ever uses ``trip_count``.
    """

    var: str
    trip_count: int
    body: "Region"
    line: int = 0
    start: int = 0
    step: int = 1

    def values(self) -> range:
        """The loop variable's concrete value sequence."""
        return range(self.start, self.start + self.step * self.trip_count,
                     self.step) if self.step else range(0)


@dataclass
class Region:
    """Ordered sequence of blocks and nested counted loops."""

    items: list[Block | CountedLoop] = field(default_factory=list)

    def tail_block(self) -> Block:
        """The open block at the end of the region (created on demand)."""
        if not self.items or not isinstance(self.items[-1], Block):
            self.items.append(Block())
        return self.items[-1]  # type: ignore[return-value]


@dataclass
class KernelCFG:
    """The lowered kernel: parameters plus its structured body region."""

    name: str
    params: dict[str, ArrayType | Scalar]
    body: Region


# ----------------------------------------------------------------- counting


def count_region(region: Region) -> InstructionMix:
    """Fold a region into per-work-item static counts (Table 1).

    Counts inside a :class:`CountedLoop` are multiplied by its trip count;
    nesting multiplies multiplicities, exactly the loop-trip resolution the
    paper's pass performs before emitting the feature vector.
    """
    counts = dict.fromkeys(InstructionMix().as_dict(), 0)
    _accumulate(region, 1, counts)
    return InstructionMix(**counts)


def _accumulate(region: Region, weight: int, counts: dict[str, float]) -> None:
    for item in region.items:
        if isinstance(item, Block):
            for op in item.ops:
                counts[op.cls] += weight
            for acc in item.accesses:
                counts[acc.cls] += weight
        else:
            _accumulate(item.body, weight * item.trip_count, counts)


def iter_accesses(region: Region, weight: int = 1):
    """Yield ``(access, dynamic_weight, loop_vars)`` over a region.

    ``dynamic_weight`` is the product of enclosing trip counts;
    ``loop_vars`` the tuple of enclosing loop variables with their trip
    counts, innermost last — the locality analysis needs both to reason
    about loop-invariant reuse.
    """
    yield from _iter_accesses(region, weight, ())


def _iter_accesses(region: Region, weight: int, loops: tuple):
    for item in region.items:
        if isinstance(item, Block):
            for acc in item.accesses:
                yield acc, weight, loops
        else:
            yield from _iter_accesses(
                item.body, weight * item.trip_count,
                loops + ((item.var, item.trip_count),),
            )
