"""Stride/reuse analysis over subscript patterns → ``locality`` estimate.

:class:`~repro.kernelir.kernel.KernelIR.locality` is the fraction of a
kernel's global accesses served by on-chip storage instead of DRAM; the
paper's toolchain obtains it from the compiler's caching analysis. This
module reconstructs that analysis over the affine access patterns the
lowering recorded:

- **temporal reuse** — a static access whose affine index repeats an
  earlier access's index exactly re-touches a resident line; every dynamic
  instance after the first group member is a hit. An index that is
  *invariant* in an enclosing counted loop is the loop-carried special
  case: of its ``T`` dynamic instances, ``T - 1`` hit.
- **spatial (stencil) reuse** — an access whose index differs from an
  earlier same-shape access only by a constant offset within the cache
  window (``REUSE_WINDOW_WORDS``, last subscript dimension) lands on a
  line a neighbouring access already pulled in; all its instances hit.
  Work-item coalescing (a bare ``gid`` stride) is *not* reuse: adjacent
  work-items consume adjacent words once, so DRAM traffic is unchanged.
- everything else — streaming/opaque: misses.

``estimate = hits / total dynamic accesses`` (local-memory accesses are
excluded on both sides: local arrays are on-chip by definition). The first
member of every reuse group misses, so the estimate is always < 1, which
matches the ``locality ∈ [0, 1)`` contract of :class:`KernelIR`.

The estimator is deliberately *architectural*, not microarchitectural: it
knows nothing about associativity or replacement. Kernels whose measured
locality the paper calibrated (tiled GEMM, the Sobel family, ...) pin the
value through ``@device_kernel(locality=...)``; the estimate is still
computed and reported by ``repro-synergy analyze`` so the two can be
compared.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.cfg import Access, AffineIndex, Region, Space, iter_accesses

#: Words per cache line assumed by the spatial-reuse rule (32 B / fp32).
REUSE_WINDOW_WORDS: int = 8


@dataclass(frozen=True)
class LocalityEstimate:
    """Outcome of the reuse analysis for one kernel."""

    hits: float
    total: float
    #: Per-array hit/total breakdown, for ``analyze`` reporting.
    by_array: tuple[tuple[str, float, float], ...] = ()

    @property
    def value(self) -> float:
        """The locality fraction in ``[0, 1)``; 0.0 for access-free kernels."""
        if self.total <= 0:
            return 0.0
        return self.hits / self.total


def _loop_invariant_trips(
    index: tuple[AffineIndex, ...], loops: tuple[tuple[str, int], ...]
) -> int:
    """Product of trip counts of enclosing loops the index does not use."""
    used = {name for dim in index for name, _ in dim.coeffs}
    trips = 1
    for var, trip in loops:
        if var not in used and trip > 1:
            trips *= trip
    return trips


def _spatial_neighbor(
    index: tuple[AffineIndex, ...],
    seen: list[tuple[AffineIndex, ...]],
) -> bool:
    for other in seen:
        if len(other) != len(index):
            continue
        if any(not a.same_shape(b) for a, b in zip(index, other)):
            continue
        if any(a.const != b.const for a, b in zip(index[:-1], other[:-1])):
            continue
        if abs(index[-1].const - other[-1].const) <= REUSE_WINDOW_WORDS:
            return True
    return False


def estimate_locality(region: Region) -> LocalityEstimate:
    """Run the reuse analysis over a lowered kernel body."""
    per_array: dict[str, list[float]] = {}
    seen_indices: dict[str, list[tuple[AffineIndex, ...]]] = {}
    for access, weight, loops in iter_accesses(region):
        if access.space is not Space.GLOBAL:
            continue
        stats = per_array.setdefault(access.array, [0.0, 0.0])
        stats[1] += weight
        hits = _classify(access, weight, loops, seen_indices)
        stats[0] += hits
    total = sum(s[1] for s in per_array.values())
    hit_count = sum(s[0] for s in per_array.values())
    return LocalityEstimate(
        hits=hit_count,
        total=total,
        by_array=tuple(
            (name, s[0], s[1]) for name, s in sorted(per_array.items())
        ),
    )


def _classify(
    access: Access,
    weight: float,
    loops: tuple[tuple[str, int], ...],
    seen_indices: dict[str, list[tuple[AffineIndex, ...]]],
) -> float:
    """Dynamic hit count contributed by one static access."""
    if access.index is None:
        return 0.0  # opaque subscript: assume it streams
    seen = seen_indices.setdefault(access.array, [])
    hits = 0.0
    if access.index in seen:
        # Exact temporal repeat of an earlier static access: every dynamic
        # instance lands on a resident line.
        hits = weight
    elif _spatial_neighbor(access.index, seen):
        # Stencil neighbour within the cache window: the line is resident.
        hits = weight
    else:
        # First touch of this pattern. If the index ignores enclosing
        # loops, iterations after the first re-touch the same address.
        invariant_trips = _loop_invariant_trips(access.index, loops)
        if invariant_trips > 1:
            hits = weight * (invariant_trips - 1) / invariant_trips
    seen.append(access.index)
    return hits
