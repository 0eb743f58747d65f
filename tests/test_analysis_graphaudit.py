"""Command-graph race/deadlock audit (repro.analysis.graphaudit).

Three layers:

- ``find_cycle`` on synthetic dependency maps,
- ``audit_graph`` certifying the stencil builder's graphs clean, flagging
  tampered graphs, and — the property — only ever reporting pairs that
  genuinely have no ordering path in either direction,
- the timed-access harness that re-detects the ``Queue.memcpy`` source
  hazard when its fix is reverted (a queue that neither waits on the
  source's pending writer nor registers the copy as a reader).
"""

from __future__ import annotations

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.graphaudit import (
    TimedAccess,
    audit_graph,
    audit_timed_accesses,
    find_cycle,
)
from repro.distributed.graph import HALO_CODE, KERNEL_CODE
from repro.distributed.runner import build_comm
from repro.distributed.stencil import build_stencil_graph
from repro.hw.device import SimulatedGPU
from repro.hw.specs import NVIDIA_V100
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.sycl import Accessor, Buffer, Queue, write_only

# ----------------------------------------------------------------- cycles


def test_find_cycle_on_acyclic_map_is_none():
    assert find_cycle({0: [], 1: [0], 2: [0, 1]}) is None


def test_find_cycle_recovers_a_cycle():
    cycle = find_cycle({0: [1], 1: [2], 2: [0], 3: []})
    assert cycle is not None
    assert set(cycle) == {0, 1, 2}


def test_find_cycle_self_loop():
    assert find_cycle({0: [0]}) == (0,)


def test_find_cycle_ignores_deps_outside_the_graph():
    assert find_cycle({0: [99], 1: [0]}) is None


# ------------------------------------------------------------ graph audits


def test_stencil_graph_audit_is_clean():
    comm = build_comm(NVIDIA_V100, 6)
    graph = build_stencil_graph(comm, steps=2, elems_per_rank=1 << 14)
    audit = audit_graph(graph)
    assert audit.ok
    assert audit.races == () and audit.cycle is None
    assert audit.n_nodes == len(graph.nodes)
    assert audit.pairs_checked > 0
    assert audit.as_dict()["ok"] is True


def _drop_halo_deps(graph) -> int:
    """Detach every kernel node from its halo dependencies in the CSR
    columns; returns the number of kernel nodes that lost an edge."""
    indptr, deps = graph.dep_indptr, graph.dep_indices
    owner = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    drop = (graph.kind[owner] == KERNEL_CODE) & (graph.kind[deps] == HALO_CODE)
    lengths = np.bincount(owner[~drop], minlength=len(indptr) - 1)
    graph.replace_deps(np.concatenate(([0], np.cumsum(lengths))), deps[~drop])
    return len(np.unique(owner[drop]))


def test_tampered_graph_surfaces_unordered_conflicts():
    comm = build_comm(NVIDIA_V100, 4)
    graph = build_stencil_graph(comm, steps=2, elems_per_rank=1 << 14)
    assert _drop_halo_deps(graph) > 0
    audit = audit_graph(graph)
    assert not audit.ok
    assert audit.races  # the ghost-region RAW edges are now unordered


_RACE_NODES = re.compile(r"node (\d+) \(")


def _reachable(graph, src: int, dst: int) -> bool:
    """Whether ``dst`` is an ancestor of ``src`` along dependency edges."""
    stack, seen = [src], set()
    while stack:
        n = stack.pop()
        if n == dst:
            return True
        if n in seen:
            continue
        seen.add(n)
        stack.extend(graph.nodes[n].deps)
    return False


@settings(max_examples=12, deadline=None)
@given(
    n_ranks=st.integers(1, 5),
    steps=st.integers(1, 3),
    gather_every=st.integers(1, 3),
    tamper=st.booleans(),
)
def test_no_reported_race_is_orderable_by_any_path(
    n_ranks, steps, gather_every, tamper
):
    comm = build_comm(NVIDIA_V100, n_ranks)
    graph = build_stencil_graph(
        comm, steps=steps, elems_per_rank=1 << 12, gather_every=gather_every
    )
    if tamper:
        _drop_halo_deps(graph)
    audit = audit_graph(graph)
    if not tamper:
        assert audit.ok
    for race in audit.races:
        a, b = (int(m) for m in _RACE_NODES.findall(race))
        # A reported race must be genuinely unordered: no dependency path
        # in either direction.
        assert not _reachable(graph, a, b)
        assert not _reachable(graph, b, a)


# ------------------------------------------- timed audits: memcpy hazard


class _PreFixQueue(Queue):
    """``Queue`` as it behaved before the memcpy source-hazard fix.

    The copy neither waits on the source buffer's pending writer (RAW)
    nor registers itself as a reader (WAR) — exactly the bug the timed
    audit exists to re-detect.
    """

    def _transfer(self, buf, apply, src=None):
        return super()._transfer(buf, apply, src=None)


def _slow_writer_kernel() -> KernelIR:
    return KernelIR(
        "slow_writer",
        InstructionMix(float_add=32, float_mul=32, gl_access=8),
        work_items=1 << 22,
        locality=0.2,
    )


def _run_copy_overlapping_write(queue_cls):
    """One queue writes S while another memcpys S into D; returns the
    timed-access audit plus the two events."""
    writer_q = Queue(SimulatedGPU(NVIDIA_V100))
    copy_q = queue_cls(SimulatedGPU(NVIDIA_V100))
    src = Buffer(shape=1 << 16, dtype=np.float32, name="S")
    dst = Buffer(shape=1 << 16, dtype=np.float32, name="D")

    def write_src(h):
        Accessor(src, h, write_only)
        h.parallel_for(1 << 16, _slow_writer_kernel())

    ev_write = writer_q.submit(write_src)
    ev_copy = copy_q.memcpy(dst, src)
    accesses = [
        TimedAccess("S", True, ev_write.start_s, ev_write.end_s, "writer"),
        TimedAccess("S", False, ev_copy.start_s, ev_copy.end_s, "memcpy"),
        TimedAccess("D", True, ev_copy.start_s, ev_copy.end_s, "memcpy"),
    ]
    return audit_timed_accesses(accesses), ev_write, ev_copy


def test_fixed_memcpy_serializes_behind_the_source_writer():
    conflicts, ev_write, ev_copy = _run_copy_overlapping_write(Queue)
    assert ev_copy.start_s >= ev_write.end_s
    assert conflicts == ()


def test_reverted_memcpy_fix_is_detected_as_a_race():
    conflicts, ev_write, ev_copy = _run_copy_overlapping_write(_PreFixQueue)
    # The copy launched while the writer still owned S.
    assert ev_copy.start_s < ev_write.end_s
    assert len(conflicts) == 1
    a, b = conflicts[0]
    assert {a.buffer, b.buffer} == {"S"}
    assert {a.label, b.label} == {"writer", "memcpy"}
    assert a.writes or b.writes


def test_timed_audit_ignores_read_read_and_disjoint_intervals():
    reads = [
        TimedAccess("S", False, 0.0, 1.0, "r1"),
        TimedAccess("S", False, 0.5, 1.5, "r2"),
    ]
    assert audit_timed_accesses(reads) == ()
    disjoint = [
        TimedAccess("S", True, 0.0, 1.0, "w"),
        TimedAccess("S", False, 1.0, 2.0, "r"),  # half-open: touching is ok
    ]
    assert audit_timed_accesses(disjoint) == ()
