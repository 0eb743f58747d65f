"""Graph executors: the scalar reference path and the engine facade.

Two execution paths share the semantics of a :class:`CommandGraph`:

- :func:`run_graph_scalar` — the reference. One
  :class:`~repro.core.queue.SynergyQueue` per rank; every kernel node is
  a real per-event submission (explicit clocks from the global plan,
  redundancy-skipped switches with the §4.4 overhead, per-event energy
  records). Transfer nodes advance only the dependency frontier — halo
  traffic rides the network while the GPUs compute, which is exactly the
  communication/compute overlap the graph scheduler exists to expose.
- :func:`repro.engine.multirank.execute_graph_batched` — the vectorized
  path: the same recurrence evaluated wave-by-wave in NumPy, reusing the
  batched engine's memoized operating tables. Validated against the
  scalar path by ``repro-synergy validate --only distributed``.

:func:`run_graph` picks the batched path when its exactness
preconditions hold (no armed fault plane, no power caps, homogeneous
boards) and otherwise falls back to the scalar reference, mirroring
:func:`repro.engine.executor.execute_batch`. The power-cap fallback
remains (it is reported as ``fallback="powercap"``), but its per-event
throttled operating point is an exact memo lookup
(:class:`repro.hw.cache.OperatingPoints`), not a scan down the core
table per launch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.clock import VirtualClock
from repro.common.errors import ValidationError
from repro.core.compiler import GlobalFrequencyPlan
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S
from repro.distributed.graph import GATHER, HALO, KERNEL, CommandGraph
from repro.hw.device import SimulatedGPU
from repro.hw.specs import GPUSpec
from repro.mpi.comm import SimulatedComm


def build_comm(
    spec: GPUSpec,
    n_ranks: int,
    *,
    ranks_per_node: int = 4,
    injector=None,
) -> SimulatedComm:
    """A bare communicator for graph runs: one board per rank.

    Each rank gets its own virtual clock (ranks progress independently
    between collectives); ranks pack onto nodes ``ranks_per_node`` at a
    time, which the network model prices (intra-node vs inter-node vs
    inter-group links).
    """
    if n_ranks <= 0:
        raise ValidationError(f"need at least one rank ({n_ranks})")
    if ranks_per_node <= 0:
        raise ValidationError(f"ranks_per_node must be positive ({ranks_per_node})")
    gpus = [
        SimulatedGPU(spec, clock=VirtualClock(), index=r) for r in range(n_ranks)
    ]
    node_of_rank = [r // ranks_per_node for r in range(n_ranks)]
    return SimulatedComm(gpus, node_of_rank, injector=injector)


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one graph execution, per node and per rank.

    ``start_s``/``finish_s`` are indexed by node id (for transfer nodes,
    ``start_s`` is the dependency-ready time — transfers never occupy the
    GPU). ``mode`` is the path that ran; ``fallback`` names the batched
    precondition that failed when the facade dropped to scalar.
    """

    mode: str
    fallback: str | None
    start_s: np.ndarray
    finish_s: np.ndarray
    rank_time_s: np.ndarray
    rank_energy_j: np.ndarray
    rank_switches: np.ndarray
    completion_s: float
    n_kernels: int
    n_transfers: int

    def __post_init__(self) -> None:
        for arr in (
            self.start_s, self.finish_s, self.rank_time_s,
            self.rank_energy_j, self.rank_switches,
        ):
            arr.setflags(write=False)

    @property
    def total_energy_j(self) -> float:
        """Whole-job compute energy across all ranks."""
        return float(self.rank_energy_j.sum())

    def summary(self) -> dict[str, float]:
        """Aggregate totals, keyed like the queue summaries."""
        return {
            "ranks": float(len(self.rank_time_s)),
            "kernels": float(self.n_kernels),
            "transfers": float(self.n_transfers),
            "completion_s": self.completion_s,
            "kernel_energy_j": self.total_energy_j,
            "clock_switches": float(self.rank_switches.sum()),
        }


def run_graph_scalar(
    graph: CommandGraph,
    comm: SimulatedComm,
    plan: GlobalFrequencyPlan,
    *,
    switch_overhead_s: float = DEFAULT_SWITCH_OVERHEAD_S,
) -> ExecutionResult:
    """Execute a graph through per-event SYnergy queues (the reference).

    Nodes run in id order (a topological order by construction). A kernel
    node waits for its dependency frontier, then submits with the global
    plan's clocks for its rank; the device timeline serializes rank-local
    work and charges switch overheads exactly as single-device runs do.
    Gather nodes poll the communicator's fault plane at their ready time,
    so rank/node failures surface out of collectives here too.
    """
    from repro.core.queue import SynergyQueue

    if comm.size != graph.n_ranks:
        raise ValidationError(
            f"graph spans {graph.n_ranks} ranks; communicator has {comm.size}"
        )
    queues = [
        SynergyQueue(gpu, switch_overhead_s=switch_overhead_s)
        for gpu in comm.gpus
    ]
    n = len(graph.nodes)
    start_s = np.zeros(n)
    finish_s = np.zeros(n)
    for node in graph.nodes:
        ready = 0.0
        for dep in node.deps:
            if finish_s[dep] > ready:
                ready = float(finish_s[dep])
        if node.kind == KERNEL:
            kernel = node.kernel
            assert kernel is not None
            gpu = comm.gpus[node.rank]
            if ready > gpu.clock.now:
                gpu.clock.advance_to(ready)
            mem, core = plan.clocks_for(node.rank, kernel.name)
            event = queues[node.rank].submit(
                mem, core, lambda h, k=kernel: h.parallel_for(k.work_items, k)
            )
            start_s[node.nid] = event.start_s
            finish_s[node.nid] = event.end_s
        else:
            if node.kind == GATHER and comm.injector is not None:
                comm._check_faults(ready)
            start_s[node.nid] = ready
            finish_s[node.nid] = ready + node.cost_s
    rank_time = np.asarray([g.clock.now for g in comm.gpus])
    rank_energy = np.asarray(
        [q.summary()["kernel_energy_j"] for q in queues]
    )
    rank_switches = np.asarray(
        [q.scaler.switch_count for q in queues], dtype=int
    )
    completion = float(max(finish_s.max(initial=0.0), rank_time.max()))
    counts = graph.counts()
    return ExecutionResult(
        mode="scalar",
        fallback=None,
        start_s=start_s,
        finish_s=finish_s,
        rank_time_s=rank_time,
        rank_energy_j=rank_energy,
        rank_switches=rank_switches,
        completion_s=completion,
        n_kernels=counts.get(KERNEL, 0),
        n_transfers=counts.get(HALO, 0) + counts.get(GATHER, 0),
    )


def run_graph(
    graph: CommandGraph,
    comm: SimulatedComm,
    plan: GlobalFrequencyPlan,
    *,
    engine: str = "batched",
    switch_overhead_s: float = DEFAULT_SWITCH_OVERHEAD_S,
) -> ExecutionResult:
    """Execute a graph, vectorized when exact bulk replay is possible.

    ``engine="batched"`` uses the wave-vectorized multi-rank engine
    unless a precondition forces the scalar reference: an attached fault
    injector (per-event RNG draws must happen in per-event order), a
    power-capped board, or heterogeneous board specs.
    ``engine="scalar"`` always runs the reference. On a capped board each
    per-event launch finds its throttled clock by one exact memo lookup
    per (kernel, ceiling, memory clock, cap); the fallback itself still
    happens and is still reported.

    The batched path is a pure computation — it leaves the communicator's
    devices untouched — while the scalar path commits events, records and
    clock advances to them, exactly like the single-queue engine's
    fallback. Differential parity between the two is part of the
    validation plane.
    """
    from repro.engine.multirank import execute_graph_batched

    if engine not in ("batched", "scalar"):
        raise ValidationError(f"unknown engine {engine!r}")
    fallback = None
    if engine == "batched":
        if comm.injector is not None:
            fallback = "faults"
        elif any(
            g.power_limit_w < g.default_power_limit_w for g in comm.gpus
        ):
            fallback = "powercap"
        elif len({g.spec.name for g in comm.gpus}) > 1:
            fallback = "heterogeneous"
        else:
            return execute_graph_batched(
                graph, comm, plan, switch_overhead_s=switch_overhead_s
            )
    result = run_graph_scalar(
        graph, comm, plan, switch_overhead_s=switch_overhead_s
    )
    if fallback is not None:
        result = ExecutionResult(
            mode="scalar",
            fallback=fallback,
            start_s=result.start_s.copy(),
            finish_s=result.finish_s.copy(),
            rank_time_s=result.rank_time_s.copy(),
            rank_energy_j=result.rank_energy_j.copy(),
            rank_switches=result.rank_switches.copy(),
            completion_s=result.completion_s,
            n_kernels=result.n_kernels,
            n_transfers=result.n_transfers,
        )
    return result
