"""Property suite: SYCL buffer dependency ordering under random programs.

Two layers of the same contract — commands over shared buffers must
start no earlier than the hazards their access modes imply:

- **runtime path** — random interleavings of kernels, buffer-sourced
  memcpys, host-sourced memcpys and fills over shared :class:`Buffer`
  objects across two independently-clocked queues, checked against a
  shadow hazard model that replays the RAW/WAR/WAW marking rules by
  hand and demands ``start >= dep.end`` for every implied edge,
- **distributed graph, scalar and batched** — random sequences of
  distributed command groups (random access modes, halos, idle ranks,
  gathers): the derived graph must order every hazard, both executors
  must respect every derived edge in their timelines, and the two
  timelines must agree within the differential contract (rel 1e-12).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import plan_global_frequencies
from repro.core.sweepcache import scoped_cache
from repro.distributed import (
    KERNEL,
    CommandGraph,
    build_comm,
    run_graph,
    run_graph_scalar,
)
from repro.hw.device import SimulatedGPU
from repro.hw.specs import get_spec
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.sycl import Accessor, Buffer, Queue
from repro.sycl.accessor import AccessMode
from repro.sycl.distributed import DistributedBuffer, DistributedRange

pytestmark = pytest.mark.distributed

RTOL = 1e-12

SPEC = get_spec("v100")

_KERNELS = [
    KernelIR(
        f"prop_k{i}",
        InstructionMix(float_add=4 * (i + 1), float_mul=2, gl_access=2),
        work_items=1 << (16 + i),
    )
    for i in range(3)
]

_N_BUFFERS = 3
_N_QUEUES = 2


# ---------------------------------------------------------- runtime path

# One op: (kind, queue index, primary buffer, secondary buffer, mode).
# The secondary buffer is the memcpy source; the mode applies to kernel
# accesses of the primary buffer.
_runtime_ops = st.lists(
    st.tuples(
        st.sampled_from(["kernel", "memcpy_buf", "memcpy_host", "fill"]),
        st.integers(min_value=0, max_value=_N_QUEUES - 1),
        st.integers(min_value=0, max_value=_N_BUFFERS - 1),
        st.integers(min_value=0, max_value=_N_BUFFERS - 1),
        st.sampled_from(
            [AccessMode.READ, AccessMode.WRITE, AccessMode.READ_WRITE]
        ),
        st.integers(min_value=0, max_value=len(_KERNELS) - 1),
    ),
    min_size=1,
    max_size=24,
)


class _Shadow:
    """Independent replay of the hazard bookkeeping rules."""

    def __init__(self, n_buffers: int) -> None:
        self.writer = [None] * n_buffers
        self.readers: list[list] = [[] for _ in range(n_buffers)]

    def deps(self, bi: int, *, writes: bool) -> list:
        out = [] if self.writer[bi] is None else [self.writer[bi]]
        if writes:
            out.extend(self.readers[bi])
        return out

    def commit(self, bi: int, event, *, reads: bool, writes: bool) -> None:
        if writes:
            self.writer[bi] = event
            self.readers[bi] = []
        if reads:
            self.readers[bi].append(event)


@settings(max_examples=40, deadline=None)
@given(ops=_runtime_ops)
def test_runtime_interleavings_respect_hazards(ops):
    queues = [
        Queue(SimulatedGPU(SPEC, index=i)) for i in range(_N_QUEUES)
    ]
    buffers = [
        Buffer(shape=256, dtype=np.float32, name=f"pb{i}")
        for i in range(_N_BUFFERS)
    ]
    shadow = _Shadow(_N_BUFFERS)
    host_src = np.zeros(256, dtype=np.float32)

    for kind, qi, bi, si, mode, ki in ops:
        queue = queues[qi]
        buf = buffers[bi]
        if kind == "kernel":
            expected = shadow.deps(bi, writes=mode.writes)
            kernel = _KERNELS[ki]
            event = queue.submit(
                lambda h, b=buf, m=mode, k=kernel: (
                    Accessor(b, h, m),
                    h.parallel_for(k.work_items, k),
                )[-1]
            )
            commit = [(bi, mode.reads, mode.writes)]
        elif kind == "memcpy_buf":
            src = buffers[si]
            expected = shadow.deps(bi, writes=True)
            if si != bi:
                expected = expected + shadow.deps(si, writes=False)
            event = queue.memcpy(buf, src)
            commit = [(bi, False, True), (si, True, False)]
        elif kind == "memcpy_host":
            expected = shadow.deps(bi, writes=True)
            event = queue.memcpy(buf, host_src)
            commit = [(bi, False, True)]
        else:  # fill
            expected = shadow.deps(bi, writes=True)
            event = queue.fill(buf, 1.0)
            commit = [(bi, False, True)]

        for dep in expected:
            assert event.start_s >= dep.end_s, (
                f"{kind} on {buf.name} started at {event.start_s} before "
                f"its hazard dependency finished at {dep.end_s}"
            )
        for cbi, reads, writes in commit:
            shadow.commit(cbi, event, reads=reads, writes=writes)

    # Per-device serialization: each queue's events never overlap.
    for queue in queues:
        events = sorted(queue.events, key=lambda e: e.start_s)
        for a, b in zip(events, events[1:]):
            assert b.start_s >= a.end_s


# ------------------------------------------- distributed graph, both paths

# One wave: (kind, buffer, mode+halo selector, idle mask bits, kernel).
_graph_ops = st.lists(
    st.tuples(
        st.sampled_from(["pf", "pf", "pf", "gather"]),
        st.integers(min_value=0, max_value=1),
        st.sampled_from(["read", "read_halo", "write", "read_write"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=len(_KERNELS) - 1),
    ),
    min_size=1,
    max_size=10,
)


@pytest.fixture(scope="module", autouse=True)
def _warm_sweeps():
    """One sweep cache for the whole module: plans memoize per kernel."""
    with scoped_cache():
        plan_global_frequencies(
            get_spec("a100"), [list(_KERNELS)], cache=True
        )
        yield


def _build_random_graph(n_ranks, ops):
    graph = CommandGraph(n_ranks, [r // 2 for r in range(n_ranks)])
    rng = DistributedRange(4096 * n_ranks, n_ranks)
    bufs = [
        DistributedBuffer(rng, name=f"gb{i}") for i in range(2)
    ]
    wrote = [False, False]
    for kind, bi, access, mask, ki in ops:
        buf = bufs[bi]
        if kind == "gather":
            if wrote[bi]:
                graph.gather(buf)
            continue
        if access == "read" and not wrote[bi]:
            access = "write"  # nothing to read yet; keep the wave legal
        if access == "read":
            acc = buf.read()
        elif access == "read_halo":
            acc = buf.read_write(halo=64) if wrote[bi] else buf.write()
        elif access == "write":
            acc = buf.write()
        else:
            acc = buf.read_write()
        per_rank = [
            _KERNELS[ki] if (r == 0 or (mask >> (r % 3)) & 1) else None
            for r in range(n_ranks)
        ]
        graph.parallel_for(per_rank, [acc])
        if acc.mode.writes:
            wrote[bi] = True
    return graph


@settings(max_examples=25, deadline=None)
@given(
    n_ranks=st.integers(min_value=1, max_value=4),
    ops=_graph_ops,
)
def test_graph_paths_order_hazards_and_agree(n_ranks, ops):
    spec = get_spec("a100")
    graph = _build_random_graph(n_ranks, ops)
    kernel_nodes = [n for n in graph.nodes if n.kind == KERNEL]
    if not kernel_nodes:
        return  # degenerate draw: no kernels submitted
    assert graph.check_edges()

    rank_kernels = graph.rank_kernels()
    if any(not ks for ks in rank_kernels):
        return  # some rank never ran a kernel; no plan possible
    plan = plan_global_frequencies(spec, rank_kernels, cache=True)

    comm = build_comm(spec, n_ranks)
    batched = run_graph(graph, comm, plan)
    scalar = run_graph_scalar(graph, comm, plan)

    # Every derived edge is respected by both executors' timelines.
    for result in (batched, scalar):
        for node in graph.nodes:
            for dep in node.deps:
                assert result.start_s[node.nid] >= result.finish_s[dep] * (
                    1.0 - 1e-12
                )

    # Same-rank kernels are serialized by the device timeline.
    for result in (batched, scalar):
        for rank in range(n_ranks):
            iv = sorted(
                (result.start_s[n.nid], result.finish_s[n.nid])
                for n in kernel_nodes
                if n.rank == rank
            )
            for (s0, e0), (s1, e1) in zip(iv, iv[1:]):
                assert s1 >= e0 * (1.0 - 1e-12)

    # Differential contract between the two paths.
    np.testing.assert_allclose(batched.start_s, scalar.start_s, rtol=RTOL)
    np.testing.assert_allclose(batched.finish_s, scalar.finish_s, rtol=RTOL)
    np.testing.assert_allclose(
        batched.rank_energy_j, scalar.rank_energy_j, rtol=RTOL
    )
    assert batched.rank_switches.tolist() == scalar.rank_switches.tolist()
