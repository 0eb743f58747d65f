"""Wave-vectorized execution of distributed command graphs.

The scalar reference (:func:`repro.distributed.runner.run_graph_scalar`)
walks a :class:`~repro.distributed.graph.CommandGraph` node by node
through per-rank SYnergy queues. This module evaluates the identical
recurrence in NumPy, one *wave* (builder call) at a time:

- per-rank clock walk, in the scalar path's exact float order —
  ``start = max(rank_clock, ready)``, ``rank_clock' = start +
  max(duration, OH·switch)`` (``a + max(b, c)`` equals
  ``max(a + b, a + c)`` bitwise by monotonicity of ``+``),
- the dependency frontier as one finish array indexed by node id,
  gathered through per-wave padded dependency matrices cut from the
  graph's CSR columns,
- kernel durations/powers from the batched engine's memoized operating
  tables (:func:`repro.engine.executor.operating_table`), one per
  (kernel, memory clock), indexed by each rank's core clock — the same
  columns the single-queue fast path uses, so sweep-cache entries are
  shared,
- switch decisions replayed statically: the per-rank clock-request
  sequence is known before the run, so redundancy skipping is a shifted
  comparison within each rank's run of kernel nodes.

Communication costs were computed once at graph build and are shared
with the scalar path, so comm timelines agree bitwise; kernel physics
agree within rel 1e-12 (the vectorized sweep vs scalar ``execute``, the
same contract as the single-queue engine). The whole computation is
*pure* — boards, queues and clocks are left untouched — which is what
lets the weak-scaling benchmark sweep thousands of ranks in milliseconds
and the differential harness replay both paths on one communicator.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.common.errors import ValidationError
from repro.core.compiler import GlobalFrequencyPlan
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S
from repro.distributed.graph import GATHER_CODE, HALO_CODE, KERNEL_CODE, CommandGraph
from repro.engine.executor import operating_table


def _dep_matrix(graph: CommandGraph, lo: int, hi: int, sentinel: int) -> np.ndarray:
    """Dependency ids of nodes ``[lo, hi)`` from their CSR rows, one column
    per node (``[width, hi - lo]``, so the ready time is a reduction over
    axis 0); ``sentinel`` pads read 0.0."""
    indptr = graph.dep_indptr
    lengths = np.diff(indptr[lo : hi + 1])
    width = max(int(lengths.max(initial=0)), 1)
    mat = np.full((width, hi - lo), sentinel, dtype=np.int64)
    flat = graph.dep_indices[indptr[lo] : indptr[hi]]
    nodes = np.repeat(np.arange(hi - lo), lengths)
    slots = np.arange(flat.size) - np.repeat(indptr[lo:hi] - indptr[lo], lengths)
    mat[slots, nodes] = flat
    return mat


def execute_graph_batched(
    graph: CommandGraph,
    comm,
    plan: GlobalFrequencyPlan,
):
    """Evaluate a command graph in bulk; returns an ``ExecutionResult``.

    Preconditions (the :func:`repro.distributed.runner.run_graph` facade
    enforces them and falls back to the scalar reference otherwise): no
    fault injector, no power caps, homogeneous board specs, and a plan
    for this device and rank count. Every kernel of rank ``r`` runs at
    ``plan.rank_clocks[r]``, the rank-uniform clocks
    :func:`~repro.core.compiler.plan_global_frequencies` plans.
    """
    from repro.distributed.runner import ExecutionResult

    gpus = comm.gpus
    if comm.size != graph.n_ranks:
        raise ValidationError(
            f"graph spans {graph.n_ranks} ranks; communicator has {comm.size}"
        )
    spec = gpus[0].spec
    oh = DEFAULT_SWITCH_OVERHEAD_S
    kind = graph.kind
    rank = graph.rank
    n = len(kind)

    # --- static precompute: per-kernel-node physics and switch flags ----
    clocks = np.fromiter(
        chain.from_iterable(plan.rank_clocks), np.int64, 2 * len(plan.rank_clocks)
    ).reshape(-1, 2)
    mem_r, core_r = clocks[:, 0], clocks[:, 1]
    core_index = {int(f): i for i, f in enumerate(spec.core_freqs_mhz)}
    ci_r = np.empty(len(core_r), dtype=np.int64)
    for core in np.unique(core_r).tolist():
        if core not in core_index:
            raise ValidationError(
                f"core clock {core} MHz not in {spec.name}'s table"
            )
        ci_r[core_r == core] = core_index[core]
    knids = np.flatnonzero(kind == KERNEL_CODE)
    kranks = rank[knids]
    kcodes = graph.kernel_code[knids]
    kmem = mem_r[kranks]
    time_of = np.zeros(n)
    power_of = np.zeros(n)
    table = graph.kernel_table
    for mem in np.unique(mem_r).tolist():
        at_mem = kmem == mem
        for code in np.unique(kcodes[at_mem]).tolist():
            members = at_mem & (kcodes == code)
            tab = operating_table(
                gpus[int(kranks[np.argmax(members)])], table[code], float(mem)
            )
            ci = ci_r[kranks[members]]
            time_of[knids[members]] = tab[0][ci]
            power_of[knids[members]] = tab[3][ci]
    # Redundancy-skipped switch walk, replayed statically: the scaler
    # changes clocks only when the request differs from the previous one
    # on the rank (the board's clocks before its first kernel).
    order = np.argsort(kranks, kind="stable")
    by_rank = kranks[order]
    first = np.ones(by_rank.size, dtype=bool)
    first[1:] = by_rank[1:] != by_rank[:-1]
    board_mem = np.asarray([g.mem_mhz for g in gpus], dtype=np.int64)
    board_core = np.asarray([g.core_mhz for g in gpus], dtype=np.int64)
    req_mem, req_core = mem_r[by_rank], core_r[by_rank]
    prev_mem = np.where(first, board_mem[by_rank], np.roll(req_mem, 1))
    prev_core = np.where(first, board_core[by_rank], np.roll(req_core, 1))
    switch_of = np.zeros(n, dtype=bool)
    switch_of[knids[order]] = (req_mem != prev_mem) | (req_core != prev_core)

    # --- the wave walk ---------------------------------------------------
    finish = np.zeros(n + 1)  # slot n: padding sentinel, reads 0.0
    start_s = np.zeros(n)
    clock_now = np.asarray([g.clock.now for g in gpus])
    rank_energy = np.zeros(comm.size)
    cost = graph.cost_s
    wave = graph.wave
    starts = np.flatnonzero(np.diff(wave, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [n]):
        if kind[lo] == GATHER_CODE:  # gather waves are singleton
            deps = graph.dep_indices[graph.dep_indptr[lo] : graph.dep_indptr[hi]]
            ready = float(finish[deps].max()) if deps.size else 0.0
            start_s[lo] = ready
            finish[lo] = ready + cost[lo]
            continue
        # Halo transfers first (they precede kernels within a wave by
        # construction): finish = dependency-ready + network cost, no GPU
        # occupancy — the overlap with compute falls out of the frontier.
        mid = lo + int(np.count_nonzero(kind[lo:hi] == HALO_CODE))
        if mid > lo:
            ready = finish[_dep_matrix(graph, lo, mid, n)].max(axis=0)
            start_s[lo:mid] = ready
            finish[lo:mid] = ready + cost[lo:mid]
        if hi > mid:
            ranks = rank[mid:hi]
            ready = finish[_dep_matrix(graph, mid, hi, n)].max(axis=0)
            time_s = time_of[mid:hi]
            sw = switch_of[mid:hi]
            start = np.maximum(clock_now[ranks], ready)
            clock_now[ranks] = start + np.where(
                sw, np.maximum(time_s, oh), time_s
            )
            start_s[mid:hi] = start
            finish[mid:hi] = start + time_s
            np.add.at(rank_energy, ranks, power_of[mid:hi] * time_s)

    finish_s = finish[:n].copy()
    per_kind = np.bincount(kind, minlength=3)
    completion = float(
        max(finish_s.max(initial=0.0), clock_now.max(initial=0.0))
    )
    return ExecutionResult(
        mode="batched",
        fallback=None,
        start_s=start_s,
        finish_s=finish_s,
        rank_time_s=clock_now,
        rank_energy_j=rank_energy,
        rank_switches=np.bincount(
            rank[switch_of], minlength=comm.size
        ).astype(np.int64),
        completion_s=completion,
        n_kernels=int(per_kind[KERNEL_CODE]),
        n_transfers=int(per_kind[HALO_CODE] + per_kind[GATHER_CODE]),
    )
