"""Per-work-item access footprints and the intra-kernel race pass.

The front end lowers every subscript to an affine form over the work-item
id and the enclosing counted-loop variables. This pass finishes the job:
for every access it substitutes each concrete loop-value assignment
(loops are statically bounded, so their value sets enumerate) and reduces
each subscript dimension to ``coeff * id + const`` — the per-work-item
footprint. Two footprints on the same array conflict when the linear
Diophantine system ``a·g1 + c = b·g2 + d`` (one equation per dimension)
has a solution with distinct non-negative work-item ids ``g1 != g2``:

- store/store  → FE011 (write/write race),
- store/load   → FE012 (read/write race), *unless* the accesses are
  local-memory accesses in different barrier phases — the work-group
  barrier between them is exactly the ordering that makes tiled kernels
  (``median``, ``scalar_prod``) sound,
- a provably negative index, or a constant local-array index at or past
  the declared ``local(f32, SIZE)`` extent → FE013.

Only *provable* findings are reported: any dimension mentioning a symbol
the analysis cannot bind (the other id class, an unresolved scalar) makes
the pair undecidable and it is skipped. Witness ids assume at least two
work items — every kernel in the registry launches millions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from repro.frontend import diagnostics as D
from repro.frontend.cfg import (
    Access,
    AffineIndex,
    ArrayType,
    Block,
    CountedLoop,
    KernelCFG,
    Region,
    Space,
)

#: The id variable that distinguishes work items, per memory space: local
#: arrays are indexed by the local id, global arrays by the global id.
ID_VARS: dict[Space, str] = {Space.GLOBAL: "gid", Space.LOCAL: "lid"}

#: Cap on the joint loop-value enumeration per access (provable-only: an
#: access nested under more combinations than this is skipped).
COMBO_CAP = 512


@dataclass(frozen=True)
class ReducedAccess:
    """One access under one concrete loop assignment.

    ``dims`` holds ``(coeff, const)`` per subscript dimension: the
    element touched by work item ``g`` is ``coeff * g + const`` in that
    dimension. ``env`` is the loop assignment that produced it.
    """

    access: Access
    env: tuple[tuple[str, int], ...]
    dims: tuple[tuple[int, int], ...]


def _iter_access_loops(region: Region, loops: tuple[CountedLoop, ...]):
    for item in region.items:
        if isinstance(item, Block):
            for acc in item.accesses:
                yield acc, loops
        else:
            yield from _iter_access_loops(item.body, loops + (item,))


def iter_access_loops(cfg: KernelCFG):
    """Yield ``(access, enclosing_loops)`` over the kernel body."""
    yield from _iter_access_loops(cfg.body, ())


def _loop_combos(loops: tuple[CountedLoop, ...], cap: int):
    """Concrete loop assignments, or ``None`` when enumeration exceeds cap."""
    total = 1
    for loop in loops:
        total *= max(loop.trip_count, 0)
        if total > cap:
            return None
    if total == 0 and loops:
        return []  # a zero-trip loop body never executes
    names = [lp.var for lp in loops]
    return [
        tuple(zip(names, values))
        for values in itertools.product(*(lp.values() for lp in loops))
    ]


def _reduce_dim(
    affine: AffineIndex, id_var: str, env: dict[str, int]
) -> tuple[int, int] | None:
    """Reduce one dimension to ``(id_coeff, const)``; None if unresolved."""
    coeff = 0
    const = affine.const
    for name, k in affine.coeffs:
        if name == id_var:
            coeff += k
        elif name in env:
            const += k * env[name]
        else:
            return None
    return coeff, const


def iter_reduced_accesses(cfg: KernelCFG, *, combo_cap: int = COMBO_CAP):
    """Yield every provably-reducible :class:`ReducedAccess` of a kernel.

    Accesses with opaque subscripts, unresolved symbols, or loop nests
    beyond the enumeration cap are silently skipped (the pass only ever
    reasons about what it can prove).
    """
    for access, loops in iter_access_loops(cfg):
        if access.index is None:
            continue
        combos = _loop_combos(loops, combo_cap)
        if combos is None:
            continue
        id_var = ID_VARS[access.space]
        for combo in combos:
            env = dict(combo)
            dims = []
            ok = True
            for affine in access.index:
                reduced = _reduce_dim(affine, id_var, env)
                if reduced is None:
                    ok = False
                    break
                dims.append(reduced)
            if ok:
                yield ReducedAccess(access=access, env=combo, dims=tuple(dims))


# ------------------------------------------------------------ conflict solve


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, x, y)`` with ``a·x + b·y == g`` and ``g == gcd(a, b) >= 0``.

    Plain Euclid leaves the Bézout pair with the sign of its inputs;
    normalizing ``g`` positive keeps the lattice parametrization below
    correct for negative subscript coefficients (``out[c - gid]``).
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _floor_div(a: int, b: int) -> int:
    return a // b


def _solve_pair(
    dims_a: tuple[tuple[int, int], ...],
    dims_b: tuple[tuple[int, int], ...],
    work_items: int | None,
) -> tuple[int, int] | None:
    """A witness ``(g1, g2)`` with ``a·g1 + c == b·g2 + d`` per dimension,
    ``g1 != g2``, both non-negative (and below ``work_items`` if given);
    ``None`` when no such pair is provable.

    The solution set of each equation ``a·g1 - b·g2 = d - c`` is a lattice
    line in (g1, g2); intersecting dimensions leaves a plane, a line, a
    point, or nothing. Candidate witnesses are then checked exactly, so
    every returned pair genuinely collides.
    """
    if len(dims_a) != len(dims_b):
        return None

    # State: ("plane",) | ("line", p, q, r, s) with g1 = p+q·t, g2 = r+s·t
    # | ("fixed", g1, g2) | None.
    state: tuple | None = ("plane",)
    for (a, c), (b, d) in zip(dims_a, dims_b):
        rhs = d - c
        if state is None:
            return None
        if state[0] == "plane":
            if a == 0 and b == 0:
                state = ("plane",) if rhs == 0 else None
            elif a == 0:
                if rhs % b:
                    state = None
                else:
                    state = ("line", 0, 1, -rhs // b, 0)
            elif b == 0:
                if rhs % a:
                    state = None
                else:
                    state = ("line", rhs // a, 0, 0, 1)
            else:
                # Extended gcd: x·a + y·b = g  →  a·(x·rhs/g) - b·(-y·rhs/g) = rhs
                g, x0, y0 = _egcd(a, b)
                if rhs % g:
                    state = None
                else:
                    scale = rhs // g
                    state = ("line", x0 * scale, b // g, -y0 * scale, a // g)
        elif state[0] == "line":
            _, p, q, r, s = state
            k = a * q - b * s
            rhs2 = rhs - a * p + b * r
            if k == 0:
                state = state if rhs2 == 0 else None
            elif rhs2 % k:
                state = None
            else:
                t = rhs2 // k
                state = ("fixed", p + q * t, r + s * t)
        else:  # fixed
            _, g1, g2 = state
            if a * g1 - b * g2 != rhs:
                state = None

    if state is None:
        return None

    def _ok(g1: int, g2: int) -> bool:
        if g1 < 0 or g2 < 0 or g1 == g2:
            return False
        if work_items is not None and (g1 >= work_items or g2 >= work_items):
            return False
        # Exact re-check of every dimension: witnesses are never trusted
        # from the algebra alone.
        return all(
            a * g1 + c == b * g2 + d
            for (a, c), (b, d) in zip(dims_a, dims_b)
        )

    if state[0] == "plane":
        return (0, 1) if _ok(0, 1) else None
    if state[0] == "fixed":
        _, g1, g2 = state
        return (g1, g2) if _ok(g1, g2) else None

    _, p, q, r, s = state
    if q == s and p == r:
        return None  # the line is g1 == g2: one thread, never a race
    if q == 0 and s == 0:
        return (p, r) if _ok(p, r) else None
    # Feasible t interval from the non-negativity (and range) constraints.
    t_lo, t_hi = None, None

    def _bound(base: int, slope: int, upper: bool):
        nonlocal t_lo, t_hi
        # upper=False: base + slope·t >= 0; upper=True: base + slope·t <= N-1.
        if slope == 0:
            return
        if not upper:
            if slope > 0:
                lo = _ceil_div(-base, slope)
                t_lo = lo if t_lo is None else max(t_lo, lo)
            else:
                hi = _floor_div(base, -slope)
                t_hi = hi if t_hi is None else min(t_hi, hi)
        else:
            assert work_items is not None
            if slope > 0:
                hi = _floor_div(work_items - 1 - base, slope)
                t_hi = hi if t_hi is None else min(t_hi, hi)
            else:
                lo = _ceil_div(base - (work_items - 1), -slope)
                t_lo = lo if t_lo is None else max(t_lo, lo)

    _bound(p, q, upper=False)
    _bound(r, s, upper=False)
    if work_items is not None:
        _bound(p, q, upper=True)
        _bound(r, s, upper=True)
    if t_lo is not None and t_hi is not None and t_lo > t_hi:
        return None
    anchor = t_lo if t_lo is not None else (t_hi if t_hi is not None else 0)
    step = 1 if t_lo is not None or t_hi is None else -1
    # g1(t) == g2(t) at no more than one t (the line is not the diagonal),
    # so two consecutive feasible t values surely include a witness — scan
    # a couple extra for the exact re-check's sake.
    for i in range(4):
        t = anchor + step * i
        g1, g2 = p + q * t, r + s * t
        if _ok(g1, g2):
            return (g1, g2)
    return None


# -------------------------------------------------------------- diagnostics


def _site(access: Access) -> tuple[int, int]:
    return (access.line, access.col)


def analyze_races(
    cfg: KernelCFG,
    *,
    work_items: int | None = None,
    combo_cap: int = COMBO_CAP,
) -> tuple[D.Diagnostic, ...]:
    """FE011/FE012: provable cross-work-item conflicts in one kernel."""
    reduced = list(iter_reduced_accesses(cfg, combo_cap=combo_cap))
    found: dict[tuple, D.Diagnostic] = {}
    for i, ra in enumerate(reduced):
        for rb in reduced[i:]:
            a, b = ra.access, rb.access
            if a.array != b.array:
                continue
            if not (a.is_store or b.is_store):
                continue
            if a.space is Space.LOCAL and a.phase != b.phase:
                continue  # ordered by the work-group barrier between them
            witness = _solve_pair(ra.dims, rb.dims, work_items)
            if witness is None:
                continue
            store, other = (a, b) if a.is_store else (b, a)
            if a.is_store and b.is_store:
                code = D.WRITE_WRITE_RACE
                kind = "write/write"
            else:
                code = D.READ_WRITE_RACE
                kind = "read/write"
            key = (code, a.array, min(_site(a), _site(b)), max(_site(a), _site(b)))
            if key in found:
                continue
            g1, g2 = witness
            counterpart = (
                "itself"
                if _site(other) == _site(store)
                else f"the access at line {other.line}, col {other.col}"
            )
            found[key] = D.Diagnostic(
                code=code,
                message=(
                    f"cross-work-item {kind} race on {a.array!r}: work items "
                    f"{g1} and {g2} touch the same element (conflicts with "
                    f"{counterpart})"
                ),
                line=store.line,
                col=store.col,
                kernel=cfg.name,
            )
    return tuple(sorted(found.values(), key=lambda d: (d.line, d.col, d.code)))


def analyze_bounds(
    cfg: KernelCFG, *, combo_cap: int = COMBO_CAP
) -> tuple[D.Diagnostic, ...]:
    """FE013: statically-provable out-of-bounds accesses."""
    found: dict[tuple, D.Diagnostic] = {}
    for red in iter_reduced_accesses(cfg, combo_cap=combo_cap):
        access = red.access
        arr = cfg.params.get(access.array)
        size = arr.size if isinstance(arr, ArrayType) else None
        for dim, (coeff, const) in enumerate(red.dims):
            # Negative index, provable only where the id's value set is
            # known: every work-group contains local ids 0 and 1, but a
            # *global* stencil may be launched over an offset interior
            # range, so global-id-dependent subscripts are not judged.
            witness_id = None
            if coeff == 0:
                if const < 0:
                    witness_id = 0
            elif access.space is Space.LOCAL:
                for g in (0, 1):
                    if coeff * g + const < 0:
                        witness_id = g
                        break
            over = (
                size is not None
                and len(red.dims) == 1
                and coeff == 0
                and const >= size
            )
            if witness_id is None and not over:
                continue
            key = (access.array, access.line, access.col, dim)
            if key in found:
                continue
            if witness_id is not None:
                msg = (
                    f"index of {access.array!r} is provably negative "
                    f"({coeff * witness_id + const} at work item {witness_id})"
                )
            else:
                msg = (
                    f"index {const} of local array {access.array!r} is past "
                    f"its declared size {size}"
                )
            found[key] = D.Diagnostic(
                code=D.OUT_OF_BOUNDS,
                message=msg,
                line=access.line,
                col=access.col,
                kernel=cfg.name,
            )
    return tuple(sorted(found.values(), key=lambda d: (d.line, d.col)))


def analyze_kernel_cfg(
    cfg: KernelCFG,
    *,
    work_items: int | None = None,
    combo_cap: int = COMBO_CAP,
) -> tuple[D.Diagnostic, ...]:
    """The full race + bounds pass, sorted by source location."""
    out = analyze_races(cfg, work_items=work_items, combo_cap=combo_cap)
    out += analyze_bounds(cfg, combo_cap=combo_cap)
    return tuple(sorted(out, key=lambda d: (d.line, d.col, d.code)))
