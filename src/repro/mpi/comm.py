"""Simulated MPI communicator.

One rank per GPU; each rank's progress is its GPU's virtual clock.
Collective operations synchronize the participating clocks (a collective
completes for everyone when the slowest participant plus the transfer cost
is done), matching how weak-scaling applications experience communication.

Only the time/energy accounting is simulated — payload values are passed
through Python directly (ranks live in one process), mirroring the mpi4py
"communicate a Python object" style for convenience in the mini-apps.

Resilience: MPI is where distributed failures *surface*. Every collective
first polls the fault plane — a dead rank raises :class:`RankFailure`, a
dead node raises :class:`NodeFailure` (both out of the payload, into the
scheduler's requeue path, exactly like an MPI error aborting the job
step). A degraded link (``mpi.link_degraded``) stretches transfer costs
by ``1/param`` for the fault window without aborting anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.clock import VirtualClock
from repro.common.errors import ValidationError
from repro.common.lazyseq import LazyRows
from repro.faults import FaultInjector, NodeFailure, RankFailure
from repro.hw.cache import models_for
from repro.hw.device import SimulatedGPU
from repro.hw.specs import GPUSpec
from repro.mpi.network import NetworkModel
from repro.obs.session import TraceSession, resolve_trace


class Boards(LazyRows):
    """One board per rank; rank ``r``'s board is built on first read.

    ``Boards(spec, n)`` makes ``SimulatedGPU(spec, VirtualClock(),
    index=r)`` the first time someone reads rank ``r``. Each rank gets
    its own fresh clock and its own index, so a board built late is the
    board an eager build would have made. ``Boards.of(gpus)`` holds
    boards that are already built (a job's allocation). Slicing returns
    a list, and a rank's board can be replaced by item assignment.
    """

    __slots__ = ("spec",)

    def __init__(self, spec: GPUSpec, n: int) -> None:
        super().__init__(n)
        self.spec = spec

    @classmethod
    def of(cls, gpus) -> Boards:
        """Built boards, one per rank in order."""
        gpus = list(gpus)
        boards = cls(gpus[0].spec if gpus else None, len(gpus))
        boards._rows, boards._unbuilt = gpus, 0
        return boards

    def _build(self, i: int) -> SimulatedGPU:
        return SimulatedGPU(self.spec, VirtualClock(), index=i)

    def _build_all(self) -> list:
        return [self._build(i) for i in range(len(self))]

    def _release(self) -> None:
        pass  # boards are built from the spec alone: nothing to drop

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return super().__getitem__(i)

    def __setitem__(self, i: int, gpu: SimulatedGPU) -> None:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("board index out of range")
        if self._rows is None:
            self._rows = [None] * n
        if self._rows[i] is None:
            self._unbuilt -= 1
        self._rows[i] = gpu

    def built_boards(self) -> list[tuple[int, SimulatedGPU]]:
        """``(rank, board)`` for each board built so far, in rank order."""
        if not self.built:
            return []
        return [(r, g) for r, g in enumerate(self._rows) if g is not None]


@dataclass(frozen=True)
class BoardState:
    """Per-rank board state as arrays (:meth:`SimulatedComm.board_state`).

    Rank ``r`` runs on ``specs[spec_index[r]]``.
    """

    mem_mhz: np.ndarray
    core_mhz: np.ndarray
    now_s: np.ndarray
    power_limit_w: np.ndarray
    default_power_limit_w: np.ndarray
    specs: tuple[GPUSpec, ...]
    spec_index: np.ndarray


class SimulatedComm:
    """An MPI_COMM_WORLD over a sequence of GPUs (one rank per board).

    ``gpus`` is a :class:`Boards` sequence, or the built boards
    themselves. The communicator keeps them as :class:`Boards`, so a
    rank's board is built only when something reads it.
    """

    def __init__(
        self,
        gpus: Boards | list[SimulatedGPU],
        node_of_rank: list[int],
        node_names: list[str] | None = None,
        injector: FaultInjector | None = None,
        trace: TraceSession | None = None,
    ) -> None:
        if not gpus:
            raise ValidationError("communicator needs at least one rank")
        if len(node_of_rank) != len(gpus):
            raise ValidationError(
                f"node_of_rank length {len(node_of_rank)} != ranks {len(gpus)}"
            )
        self.gpus = gpus if isinstance(gpus, Boards) else Boards.of(gpus)
        self.node_of_rank = list(node_of_rank)
        self.network = NetworkModel()
        #: Node name per node index, for node-failure attribution. Defaults
        #: to synthetic names when the communicator is built bare.
        n_nodes = max(node_of_rank) + 1
        if node_names is None:
            node_names = [f"node{i:03d}" for i in range(n_nodes)]
        if len(node_names) < n_nodes:
            raise ValidationError(
                f"node_names covers {len(node_names)} nodes; ranks span {n_nodes}"
            )
        self.node_names = list(node_names)
        # Distinct node indices, precomputed once: ``_check_faults`` runs on
        # every collective, and rebuilding the sorted set per call is pure
        # overhead at cluster-scale rank counts.
        self._node_indices = sorted(set(self.node_of_rank))
        #: Shared fault-injection plane (None on the happy path).
        self.injector = injector
        #: Observability session; collectives record spans on the "mpi" track.
        self.trace = resolve_trace(trace)
        #: Communication seconds accumulated per rank (time spent blocked
        #: in MPI beyond local compute), for the time-includes-comm report.
        self.comm_time_s = np.zeros(len(gpus))

    def _record_collective(self, name: str, t0: float, t1: float, **attrs) -> None:
        """Retroactive span for one finished collective on the mpi track."""
        tr = self.trace
        if not tr.enabled:
            return
        tr.add_span("mpi", "mpi.collective", name, t0, t1, **attrs)
        tr.count(f"mpi.{name}s")
        tr.observe("mpi.collective_time_s", t1 - t0)

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.gpus)

    def board_state(self) -> BoardState:
        """Each rank's clocks, ``clock.now``, power limits and spec, as arrays.

        A rank whose board is not built reads what a fresh board would
        hold (the spec's default clocks, time 0 and an uncapped limit);
        a built board is read as it stands. Reading the state builds no
        board.
        """
        boards = self.gpus
        n = len(boards)
        spec = boards.spec
        peak = models_for(spec)[1].peak_power()
        mem = np.full(n, spec.default_mem_mhz, dtype=np.int64)
        core = np.full(n, spec.default_core_mhz, dtype=np.int64)
        now = np.zeros(n)
        limit = np.full(n, peak)
        default_limit = np.full(n, peak)
        specs = [spec]
        spec_index = np.zeros(n, dtype=np.int64)
        built = boards.built_boards()
        if built:
            ranks = [r for r, _ in built]
            gpus = [g for _, g in built]
            mem[ranks] = [g.mem_mhz for g in gpus]
            core[ranks] = [g.core_mhz for g in gpus]
            now[ranks] = [g.clock.now for g in gpus]
            limit[ranks] = [g.power_limit_w for g in gpus]
            default_limit[ranks] = [g.default_power_limit_w for g in gpus]
            for r, g in built:
                if g.spec is not spec:
                    if g.spec not in specs:
                        specs.append(g.spec)
                    spec_index[r] = specs.index(g.spec)
        return BoardState(
            mem, core, now, limit, default_limit, tuple(specs), spec_index
        )

    # ---------------------------------------------------------------- faults

    def _check_faults(self, t: float) -> None:
        """Poll the fault plane at a collective's entry.

        Node failures are checked first (a dead node takes all its ranks
        with it), then per-rank failures. Raising out of the collective
        models MPI's default error handler aborting the job step.
        """
        inj = self.injector
        if inj is None:
            return
        # Per-site gating: ``fires`` on an unarmed site is a guaranteed
        # no-op (no match, no RNG draw), so the O(nodes)/O(ranks) polling
        # loops — one injector call per target per collective — collapse to
        # two O(1) checks on the common no-fault-plan-for-MPI path.
        if inj.armed("slurm.node_fail"):
            for node_index in self._node_indices:
                name = self.node_names[node_index]
                if inj.fires(
                    "slurm.node_fail",
                    t,
                    target=name,
                    detail=f"node {name} failed during a collective",
                ):
                    raise NodeFailure((name,), t)
        if inj.armed("mpi.rank_fail"):
            for rank in range(self.size):
                if inj.fires(
                    "mpi.rank_fail",
                    t,
                    target=rank,
                    detail=f"rank {rank} died during a collective",
                ):
                    raise RankFailure(rank, t)

    def _link_factor(self, t: float) -> float:
        """Transfer-cost multiplier (>= 1) while a link-degradation window
        is active: bandwidth scaled by ``param`` stretches time by 1/param."""
        inj = self.injector
        if inj is None:
            return 1.0
        spec = inj.active("mpi.link_degraded", t)
        if spec is None:
            return 1.0
        return 1.0 / float(spec.param)

    # ------------------------------------------------------------ primitives

    def barrier(self) -> float:
        """Synchronize all ranks; returns the post-barrier time."""
        t0 = min(g.clock.now for g in self.gpus)
        t = max(g.clock.now for g in self.gpus)
        self._check_faults(t)
        for rank, gpu in enumerate(self.gpus):
            self.comm_time_s[rank] += t - gpu.clock.now
            gpu.clock.advance_to(t)
        self._record_collective("barrier", t0, t)
        return t

    def allreduce(self, nbytes: float) -> float:
        """Ring allreduce over all ranks; returns the completion time."""
        t = max(g.clock.now for g in self.gpus)
        self._check_faults(t)
        cost = self.network.allreduce_time(nbytes, self.node_of_rank)
        done = t + cost * self._link_factor(t)
        for rank, gpu in enumerate(self.gpus):
            self.comm_time_s[rank] += done - gpu.clock.now
            gpu.clock.advance_to(done)
        self._record_collective("allreduce", t, done, nbytes=nbytes)
        return done

    def halo_exchange(self, nbytes_per_neighbor: float) -> float:
        """Nearest-neighbour exchange (both directions); returns finish time.

        Each rank swaps halos with its ±1 neighbours on a periodic ring.
        All exchanges proceed concurrently; every rank completes at
        ``max(own, neighbours) + 2·worst-link transfer``.
        """
        if self.size == 1:
            # A lone rank has no neighbours to swap with, but the fault
            # plane must still be polled: an active rank/node failure
            # surfaces out of every collective, matching barrier/allreduce.
            now = self.gpus[0].clock.now
            self._check_faults(now)
            return now
        times = np.array([g.clock.now for g in self.gpus])
        t_entry = float(times.max())
        self._check_faults(t_entry)
        factor = self._link_factor(t_entry)
        new_times = times.copy()
        for rank in range(self.size):
            neighbours = [(rank - 1) % self.size, (rank + 1) % self.size]
            ready = max([times[rank]] + [times[n] for n in neighbours])
            worst = max(
                self.network.transfer_time(
                    nbytes_per_neighbor,
                    self.node_of_rank[rank],
                    self.node_of_rank[n],
                )
                for n in neighbours
            )
            new_times[rank] = ready + 2.0 * worst * factor  # send + receive
        for rank, gpu in enumerate(self.gpus):
            self.comm_time_s[rank] += new_times[rank] - times[rank]
            gpu.clock.advance_to(float(new_times[rank]))
        done = float(new_times.max())
        self._record_collective(
            "halo", t_entry, done, nbytes_per_neighbor=nbytes_per_neighbor
        )
        return done

    # ------------------------------------------------------------- reporting

    def total_gpu_energy(self, t0: float, t1_per_rank: list[float] | None = None) -> float:
        """True GPU energy across all ranks from ``t0`` (to each rank's now)."""
        total = 0.0
        for rank, gpu in enumerate(self.gpus):
            t1 = gpu.clock.now if t1_per_rank is None else t1_per_rank[rank]
            total += gpu.energy_between(t0, t1)
        return total
