"""Intra-kernel footprint / race / bounds pass (repro.analysis.footprints).

Unit cases pin each diagnostic family (FE011/FE012/FE013, barrier-phase
suppression, provable-only skipping); the property suites compare the
symbolic machinery against concrete-enumeration oracles:

- the reduced accesses evaluated per work item (``_footprint``) vs a
  recording interpreter that actually executes the
  kernel body per work item,
- ``analyze_races`` vs brute-force collision search over a bounded range,
- ``_solve_pair`` vs exhaustive witness search on generated affine dims.

The multi-line-subscript regression at the bottom guards the snippet
line/column translation for decorated kernels and the CLI paths.
"""

from __future__ import annotations

import inspect
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.footprints import (
    _solve_pair,
    analyze_kernel_cfg,
    iter_reduced_accesses,
)
from repro.frontend.decorator import analyze_source, device_kernel


def _races(src: str, **kwargs):
    return analyze_source(textwrap.dedent(src), **kwargs).races


def _codes(src: str, **kwargs) -> list[str]:
    return [d.code for d in _races(src, **kwargs)]


# ------------------------------------------------------------- unit: races


def test_same_element_store_is_write_write_race():
    diags = _races(
        """
        def racy(gid, out):
            out[0] = gid
        """
    )
    assert [d.code for d in diags] == ["FE011"]
    assert "conflicts with itself" in diags[0].message


def test_neighbour_shift_is_read_write_race():
    diags = _races(
        """
        def shift(gid, a):
            a[gid] = a[gid + 1]
        """
    )
    assert [d.code for d in diags] == ["FE012"]
    assert "read/write" in diags[0].message


def test_strided_stores_collide_with_offset_witness():
    # 2*g1 == g2 + 6 has solutions (e.g. g1=3, g2=0): a provable FE011.
    diags = _races(
        """
        def collide(gid, out):
            out[2 * gid] = 1.0
            out[gid + 6] = 2.0
        """
    )
    assert "FE011" in [d.code for d in diags]


def test_parity_split_stores_stay_clean():
    # Even and odd lanes never alias: 2*g1 == 2*g2 + 1 is unsolvable and
    # each store alone is injective in the work-item id.
    assert _codes(
        """
        def parity(gid, out):
            out[2 * gid] = 1.0
            out[2 * gid + 1] = 2.0
        """
    ) == []


def test_distinct_arrays_do_not_conflict():
    assert _codes(
        """
        def two(gid, a, b):
            a[0] = 1.0
            b[0] = 2.0
        """
    ) == ["FE011", "FE011"]  # each array races with itself, not the other
    assert _codes(
        """
        def clean(gid, a, b):
            a[gid] = 1.0
            b[gid] = 2.0
        """
    ) == []


def test_barrier_phase_orders_local_tile_accesses():
    # scalar_prod shape: write tile[lid], barrier, read tile[lid + 1].
    clean = _codes(
        """
        def tiled(gid, lid, a, out):
            tile = local(f32, 64)
            tile[lid] = a[gid]
            barrier()
            out[gid] = tile[lid + 1]
        """
    )
    assert clean == []
    # Same kernel without the barrier: the shifted read races the write.
    racy = _races(
        """
        def untiled(gid, lid, a, out):
            tile = local(f32, 64)
            tile[lid] = a[gid]
            out[gid] = tile[lid + 1]
        """
    )
    assert "FE012" in [d.code for d in racy]
    assert any("'tile'" in d.message for d in racy)


# ------------------------------------------------------------ unit: bounds


def test_negative_local_index_is_out_of_bounds():
    diags = _races(
        """
        def neg(gid, lid, a, out):
            tile = local(f32, 64)
            tile[lid - 1] = a[gid]
        """
    )
    assert "FE013" in [d.code for d in diags]
    assert any("provably negative" in d.message for d in diags)


def test_constant_overrun_of_declared_local_size():
    diags = _races(
        """
        def over(gid, lid, a, out):
            tile = local(f32, 16)
            tile[lid] = a[gid]
            out[gid] = tile[16]
        """
    )
    assert any(
        d.code == "FE013" and "past its declared size 16" in d.message
        for d in diags
    )


def test_global_offset_stencil_is_not_judged_negative():
    # a[gid - 1] is fine when the launch covers an interior range: the
    # pass must not flag global-id-dependent subscripts as negative.
    assert _codes(
        """
        def stencil(gid, a, out):
            out[2 * gid] = a[gid - 1]
        """
    ) == []


# --------------------------------------------------- unit: provable-only


def test_non_affine_subscript_is_skipped():
    res = analyze_source(
        textwrap.dedent(
            """
            def opaque(gid, a, out):
                out[gid * gid] = a[gid]
            """
        )
    )
    cfg = res.cfg
    reduced = list(iter_reduced_accesses(cfg))
    # The store's subscript is opaque; only the affine read reduces.
    assert all(not r.access.is_store for r in reduced)
    assert analyze_kernel_cfg(cfg) == ()


def test_loop_nest_beyond_combo_cap_is_skipped():
    res = analyze_source(
        textwrap.dedent(
            """
            def deep(gid, out):
                for i in range(8):
                    for j in range(8):
                        out[0] = 1.0
            """
        )
    )
    # 64 combos > cap of 4: the access is dropped, so no race is proved.
    assert list(iter_reduced_accesses(res.cfg, combo_cap=4)) == []
    assert analyze_kernel_cfg(res.cfg, combo_cap=4) == ()
    # At full cap the same kernel is provably racy.
    assert any(d.code == "FE011" for d in analyze_kernel_cfg(res.cfg))


# ----------------------------------------- property: footprint vs oracle


class _Recorder:
    """Array stand-in that logs every concrete element it is asked for."""

    def __init__(self, name: str, tape: list) -> None:
        self.name = name
        self.tape = tape

    def __getitem__(self, idx):
        self.tape.append((self.name, False, (int(idx),)))
        return 0.0

    def __setitem__(self, idx, value) -> None:
        self.tape.append((self.name, True, (int(idx),)))


def _idx_expr(coeff: int, const: int) -> str:
    if coeff == 0:
        return str(const)
    base = "gid" if coeff == 1 else f"{coeff} * gid"
    return base if const == 0 else f"{base} + {const}"


def _build_kernel_src(stmts: list[tuple[int, int, int, int]]) -> str:
    lines = ["def k(gid, a, out):"]
    for n, (w1, w0, r1, r0) in enumerate(stmts):
        lines.append(
            f"    out[{_idx_expr(w1, w0)}] = a[{_idx_expr(r1, r0)}] + {n}.0"
        )
    return "\n".join(lines) + "\n"


def _footprint(cfg, gid: int) -> set:
    """The concrete elements work item ``gid`` provably touches:
    ``{(array, is_store, index_tuple)}`` from every reducible access."""
    return {
        (
            red.access.array,
            red.access.is_store,
            tuple(coeff * gid + const for coeff, const in red.dims),
        )
        for red in iter_reduced_accesses(cfg)
    }


def _oracle_footprint(src: str, gid: int) -> set:
    ns: dict = {}
    exec(compile(src, "<oracle>", "exec"), ns)
    tape: list = []
    ns["k"](gid, _Recorder("a", tape), _Recorder("out", tape))
    return set(tape)


_STMT = st.tuples(
    st.integers(0, 3), st.integers(0, 6), st.integers(0, 3), st.integers(0, 6)
)


@settings(max_examples=60, deadline=None)
@given(stmts=st.lists(_STMT, min_size=1, max_size=3))
def test_footprint_matches_concrete_enumeration_oracle(stmts):
    src = _build_kernel_src(stmts)
    cfg = analyze_source(src).cfg
    for gid in (0, 1, 5):
        assert _footprint(cfg, gid) == _oracle_footprint(src, gid)


@settings(max_examples=60, deadline=None)
@given(
    w1a=st.integers(0, 3), w0a=st.integers(0, 6),
    w1b=st.integers(0, 3), w0b=st.integers(0, 6),
)
def test_race_verdict_matches_brute_force(w1a, w0a, w1b, w0b):
    n = 16
    src = (
        "def k(gid, out):\n"
        f"    out[{_idx_expr(w1a, w0a)}] = 1.0\n"
        f"    out[{_idx_expr(w1b, w0b)}] = 2.0\n"
    )
    cfg = analyze_source(src).cfg
    writes = {g: {w1a * g + w0a, w1b * g + w0b} for g in range(n)}
    concrete = any(
        writes[g1] & writes[g2]
        for g1 in range(n)
        for g2 in range(g1 + 1, n)
    )
    from repro.analysis.footprints import analyze_races

    diags = analyze_races(cfg, work_items=n)
    assert bool(diags) == concrete
    assert all(d.code == "FE011" for d in diags)


_DIM = st.tuples(st.integers(-3, 3), st.integers(-6, 6))


@settings(max_examples=120, deadline=None)
@given(
    dims=st.lists(st.tuples(_DIM, _DIM), min_size=1, max_size=2),
    bounded=st.booleans(),
)
def test_solve_pair_matches_exhaustive_witness_search(dims, bounded):
    dims_a = tuple(d[0] for d in dims)
    dims_b = tuple(d[1] for d in dims)
    n = 12
    search = range(n) if bounded else range(40)
    brute = [
        (g1, g2)
        for g1 in search
        for g2 in search
        if g1 != g2
        and all(
            a * g1 + c == b * g2 + d
            for (a, c), (b, d) in zip(dims_a, dims_b)
        )
    ]
    witness = _solve_pair(dims_a, dims_b, n if bounded else None)
    if witness is None:
        if bounded:
            # Bounded solve is complete: no witness means no collision.
            assert brute == []
    else:
        g1, g2 = witness
        assert g1 != g2 and g1 >= 0 and g2 >= 0
        if bounded:
            assert g1 < n and g2 < n
        assert all(
            a * g1 + c == b * g2 + d
            for (a, c), (b, d) in zip(dims_a, dims_b)
        )
    if brute and not bounded:
        # Witnesses inside any bounded range certainly exist unbounded.
        assert witness is not None


# -------------------------------- regression: multi-line subscript offsets


@device_kernel
def _offset_probe(gid, out):
    out[  # RACE-ANCHOR
        0
    ] = gid


def test_decorated_kernel_reports_absolute_file_coordinates():
    diags = _offset_probe.analysis.races
    assert [d.code for d in diags] == ["FE011"]
    src_lines = Path(__file__).read_text().splitlines()
    expected_line = 1 + src_lines.index("    out[  # RACE-ANCHOR")
    assert diags[0].line == expected_line
    assert diags[0].col == 4  # module-level def: no dedent shift


def test_cli_analyze_module_path_reports_shifted_lines(tmp_path, capsys):
    from repro.cli import main

    mod = tmp_path / "racy_probe_mod.py"
    mod.write_text(
        "# filler line so the function does not start the file\n"
        "# second filler line\n"
        "def racy(gid, out):\n"
        "    out[\n"
        "        0\n"
        "    ] = gid\n"
    )
    sys.path.insert(0, str(tmp_path))
    try:
        rc = main(["analyze", "racy_probe_mod:racy"])
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("racy_probe_mod", None)
    assert rc == 1
    err = capsys.readouterr().err
    # The subscript starts on line 4 of the module file.
    assert ":4:" in err and "FE011" in err


def test_cli_analyze_file_path_reports_race(tmp_path, capsys):
    from repro.cli import main

    mod = tmp_path / "racy_file.py"
    mod.write_text("def racy(gid, out):\n    out[0] = gid\n")
    rc = main(["analyze", f"{mod}:racy"])
    assert rc == 1
    assert "FE011" in capsys.readouterr().err
