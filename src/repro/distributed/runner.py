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

:func:`run_graph` is the facade: it checks that the graph, the
communicator and the plan agree, then picks the batched path when its
exactness preconditions hold (no armed fault plane, no power caps) and
otherwise falls back to the scalar reference, mirroring
:func:`repro.engine.executor.execute_batch`. The power-cap fallback
remains (it is reported as ``fallback="powercap"``), but its per-event
throttled operating point is an exact memo lookup
(:class:`repro.hw.cache.OperatingPoints`), not a scan down the core
table per launch.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from repro.common.errors import ConfigurationError, ValidationError
from repro.core.compiler import GlobalFrequencyPlan
from repro.distributed.graph import GATHER_CODE, HALO_CODE, KERNEL_CODE, CommandGraph
from repro.hw.specs import GPUSpec
from repro.mpi.comm import BoardState, Boards, SimulatedComm


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
    inter-group links). The boards are a :class:`~repro.mpi.comm.Boards`
    sequence: rank ``r``'s ``SimulatedGPU`` is built the first time
    something reads ``comm.gpus[r]``, and a batched graph run reads none
    (it reads :meth:`~repro.mpi.comm.SimulatedComm.board_state`).
    """
    for name, value in (("n_ranks", n_ranks), ("ranks_per_node", ranks_per_node)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer ({value!r})")
    if n_ranks <= 0:
        raise ValidationError(f"need at least one rank ({n_ranks})")
    if ranks_per_node <= 0:
        raise ValidationError(f"ranks_per_node must be positive ({ranks_per_node})")
    node_of_rank = [r // ranks_per_node for r in range(n_ranks)]
    return SimulatedComm(Boards(spec, n_ranks), node_of_rank, injector=injector)


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


def _check_plan(
    graph: CommandGraph, comm: SimulatedComm, plan: GlobalFrequencyPlan
) -> BoardState:
    """Reject a run whose inputs disagree, before any node runs.

    A communicator of another size is a :class:`ValidationError` (the
    graph and the boards disagree); a plan made for another device or
    another rank count is a :class:`ConfigurationError`, as for
    :meth:`repro.slurm.scheduler.Scheduler.submit`. Returns the boards'
    state, read as arrays without building a board.
    """
    if comm.size != graph.n_ranks:
        raise ValidationError(
            f"graph spans {graph.n_ranks} ranks; communicator has {comm.size}"
        )
    if len(plan.rank_clocks) != graph.n_ranks:
        raise ConfigurationError(
            f"plan covers {len(plan.rank_clocks)} ranks; graph spans "
            f"{graph.n_ranks}"
        )
    state = comm.board_state()
    wrong = np.asarray([s.name != plan.device_name for s in state.specs])
    foreign = wrong[state.spec_index]
    if foreign.any():
        r = int(np.argmax(foreign))
        raise ConfigurationError(
            f"plan is for {plan.device_name}; rank {r} runs on "
            f"{state.specs[state.spec_index[r]].name}"
        )
    return state


def run_graph_scalar(
    graph: CommandGraph,
    comm: SimulatedComm,
    plan: GlobalFrequencyPlan,
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

    _check_plan(graph, comm, plan)
    queues = [SynergyQueue(gpu) for gpu in comm.gpus]
    kinds = graph.kind.tolist()
    ranks = graph.rank.tolist()
    codes = graph.kernel_code.tolist()
    costs = graph.cost_s.tolist()
    indptr = graph.dep_indptr.tolist()
    indices = graph.dep_indices.tolist()
    table = graph.kernel_table
    n = len(kinds)
    start_s = [0.0] * n
    finish_s = [0.0] * n
    for nid in range(n):
        ready = 0.0
        for dep in indices[indptr[nid] : indptr[nid + 1]]:
            if finish_s[dep] > ready:
                ready = finish_s[dep]
        if kinds[nid] == KERNEL_CODE:
            kernel = table[codes[nid]]
            rank = ranks[nid]
            gpu = comm.gpus[rank]
            if ready > gpu.clock.now:
                gpu.clock.advance_to(ready)
            mem, core = plan.clocks_for(rank, kernel.name)
            event = queues[rank].submit(
                mem, core, lambda h, k=kernel: h.parallel_for(k.work_items, k)
            )
            start_s[nid] = event.start_s
            finish_s[nid] = event.end_s
        else:
            if kinds[nid] == GATHER_CODE and comm.injector is not None:
                comm._check_faults(ready)
            start_s[nid] = ready
            finish_s[nid] = ready + costs[nid]
    finish = np.asarray(finish_s, dtype=float)
    rank_time = np.asarray([g.clock.now for g in comm.gpus])
    # Every submission here is per-event, so each event carries its
    # record; summing in submission order is bitwise the queue summary's
    # ``kernel_energy_j``.
    rank_energy = np.asarray(
        [float(sum(e.record.energy_j for e in q.events)) for q in queues]
    )
    rank_switches = np.asarray(
        [q.scaler.switch_count for q in queues], dtype=int
    )
    completion = float(max(finish.max(initial=0.0), rank_time.max()))
    per_kind = np.bincount(graph.kind, minlength=3)
    return ExecutionResult(
        mode="scalar",
        fallback=None,
        start_s=np.asarray(start_s, dtype=float),
        finish_s=finish,
        rank_time_s=rank_time,
        rank_energy_j=rank_energy,
        rank_switches=rank_switches,
        completion_s=completion,
        n_kernels=int(per_kind[KERNEL_CODE]),
        n_transfers=int(per_kind[HALO_CODE] + per_kind[GATHER_CODE]),
    )


def run_graph(
    graph: CommandGraph,
    comm: SimulatedComm,
    plan: GlobalFrequencyPlan,
) -> ExecutionResult:
    """Execute a graph, vectorized when exact bulk replay is possible.

    Inputs are checked first, before any node runs: a communicator of
    another size raises :class:`ValidationError`, a plan for another
    device or rank count :class:`ConfigurationError` — on every path.
    Then the wave-vectorized multi-rank engine runs unless a precondition
    forces the scalar reference (:func:`run_graph_scalar`): an attached
    fault injector (per-event RNG draws must happen in per-event order)
    or a power-capped board. The result then names that reason in
    ``fallback``. On a capped board each per-event launch finds its
    throttled clock by one exact memo lookup per (kernel, ceiling, memory
    clock, cap).

    The plan check and the power-cap test read the boards' state as
    arrays (:meth:`~repro.mpi.comm.SimulatedComm.board_state`), so they
    build no board. The batched path is a pure computation over those
    arrays — it builds and changes no board — while the scalar path
    reads every board, and commits events, records and clock advances to
    them, exactly like the single-queue engine's fallback. Differential
    parity between the two is part of the validation plane.
    """
    from repro.engine.multirank import execute_graph_batched

    state = _check_plan(graph, comm, plan)
    if comm.injector is not None:
        fallback = "faults"
    elif (state.power_limit_w < state.default_power_limit_w).any():
        fallback = "powercap"
    else:
        return execute_graph_batched(graph, comm, plan)
    result = run_graph_scalar(graph, comm, plan)
    return replace(result, fallback=fallback)
