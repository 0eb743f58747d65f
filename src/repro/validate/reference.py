"""Per-node reference implementations the fast paths are verified against.

:func:`grow_tree_reference` grows one regression tree breadth-first, one
node and one candidate feature at a time, on the growth protocol of
:mod:`repro.ml.tree` (sample-order node sums, per-depth feature draws).
The level-synchronous grower must match it bitwise.
:func:`forest_reference` replays a forest's bootstrap and seed derivation
on top of it, and :func:`predict_reference` walks one row at a time.
:func:`throttled_operating_point_reference` is the uncached per-launch
power-cap scan that :class:`repro.hw.cache.OperatingPoints` memoizes.
:func:`energy_between_reference` walks a board's whole power timeline
segment by segment; the window-sliced integral
:meth:`repro.hw.device.SimulatedGPU.energy_between` must match it to
rel 1e-12 (it splits busy segments at clock changes and sums with
``math.fsum``, the walk accumulates in timeline order).
:func:`measure_sweep_reference` and :func:`sweep_kernel_2d_reference`
evaluate the timing and power models one clock pair at a time; the
broadcasted sweeps must match them to rel 1e-12 (NumPy ``pow`` and
scalar libm ``pow`` differ by ~1 ulp).
:func:`replay_per_event` submits a request stream one
``SynergyQueue.submit`` call at a time, and :class:`PerEventPayload`
does so on every GPU of a job: the per-event twins of
``SynergyQueue.submit_batch`` and
:class:`repro.engine.payload.KernelBatchPayload` in the engine
differential contract.
:func:`kernel_stats_reference` and :func:`summary_reference` walk a
queue's events one record at a time; ``SynergyQueue.kernel_stats`` and
``summary`` reduce the record columns and must match them bitwise.
:class:`CommandGraphReference` derives a distributed command graph one
rank, one neighbour and one access at a time; the columnar
:class:`repro.distributed.graph.CommandGraph` must give the same nodes
(ids, kinds, ranks, waves, labels, dependencies, bytes and costs,
bitwise) and the same :class:`~repro.distributed.graph.WaveRecord` log.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.common.errors import SimulationError, ValidationError
from repro.common.rng import derive_seed, make_rng
from repro.core.compiler import FrequencyPlan
from repro.core.queue import SynergyQueue
from repro.distributed.graph import GATHER, HALO, KERNEL, CommandNode, WaveRecord
from repro.experiments.sweep import FrequencySweep2D
from repro.hw.power import PowerModel
from repro.hw.timing import TimingModel
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import FlatTree, n_candidate_features
from repro.mpi.network import NetworkModel
from repro.slurm.job import JobContext
from repro.sycl.distributed import DistributedAccess, DistributedBuffer


def _best_split(xb, yb, features, min_leaf, total_sum, total_sq):
    """``(feature, threshold)`` of one node's best split, or ``None``."""
    m = yb.shape[0]
    lo, hi = min_leaf - 1, m - min_leaf
    parent_sse = total_sq - total_sum**2 / m
    best = (-np.inf, -1, 0.0)
    for j in features:
        order = np.argsort(xb[:, j], kind="stable")
        xs, ys = xb[order, j], yb[order]
        csum, csq = np.cumsum(ys), np.cumsum(ys**2)
        counts = np.arange(lo + 1, hi + 1)
        left_sum, left_sq = csum[lo:hi], csq[lo:hi]
        right_sum, right_sq = total_sum - left_sum, total_sq - left_sq
        sse = (
            left_sq - left_sum**2 / counts + right_sq - right_sum**2 / (m - counts)
        )
        sse = np.where(xs[lo + 1 : hi + 1] != xs[lo:hi], sse, np.inf)
        i = int(np.argmin(sse))
        gain = (parent_sse - sse[i])[0] if np.isfinite(sse[i]) else -np.inf
        if gain > best[0] or best[1] < 0:
            x_lo, x_hi = xs[i + lo], xs[i + lo + 1]
            mid = (x_lo + x_hi) / 2.0
            best = (gain, int(j), mid if mid < x_hi else x_lo)
    return best[1:] if best[0] > 1e-12 else None


def grow_tree_reference(
    X, y, sample, seed, *, max_features, max_depth, min_samples_split=2,
    min_samples_leaf=1,
) -> FlatTree:
    """One tree on ``X[sample]``, node by node in breadth-first order."""
    rng = make_rng(seed)
    xb, yb = X[sample], y[sample]
    p = X.shape[1]
    k = n_candidate_features(max_features, p)
    feature, threshold, left, right, value = [], [], [], [], []
    level, depth = [(np.arange(len(sample)), -1, left)], 0
    while level:
        nxt, todo = [], []
        for rows, parent, side in level:
            node = len(value)
            if parent >= 0:
                side[parent] = node
            ys = yb[rows]
            sums = (np.cumsum(ys)[-1:], np.cumsum(ys**2)[-1:])
            value.append(float((sums[0] / rows.size)[0]))
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            if (
                rows.size >= max(min_samples_split, 2 * min_samples_leaf)
                and (max_depth is None or depth < max_depth)
                and not np.all(ys == ys[0])
            ):
                todo.append((node, rows, sums))
        draws = rng.random((len(todo), p)) if k < p and todo else None
        for i, (node, rows, sums) in enumerate(todo):
            features = (
                np.arange(p) if draws is None
                else np.argsort(draws[i], kind="stable")[:k]
            )
            split = _best_split(
                xb[rows], yb[rows], features, min_samples_leaf, *sums
            )
            if split is None:
                continue
            feature[node], threshold[node] = split
            go_left = xb[rows, split[0]] <= split[1]
            nxt += [(rows[go_left], node, left), (rows[~go_left], node, right)]
        level, depth = nxt, depth + 1
    return FlatTree.from_lists(feature, threshold, left, right, value)


def forest_reference(
    forest: RandomForestRegressor, X, y, *, generation: int = 0,
    fraction: float = 1.0,
) -> list[FlatTree]:
    """The trees ``forest.fit`` grows on ``(X, y)`` — or, for ``generation``
    > 0, the trees that refresh number ``generation`` with ``fraction``
    grows — one reference tree at a time."""
    n = X.shape[0]
    if generation:
        rng = make_rng(derive_seed(forest.seed, "refresh", generation))
        n_trees = int(np.ceil(fraction * forest.n_estimators))
        seeds = [
            derive_seed(forest.seed, "refresh", generation, i)
            for i in range(n_trees)
        ]
    else:
        rng = make_rng(forest.seed)
        seeds = [
            derive_seed(forest.seed, "tree", i) for i in range(forest.n_estimators)
        ]
    return [
        grow_tree_reference(
            X, y, rng.integers(0, n, size=n) if forest.bootstrap else np.arange(n),
            seed, max_features=forest.max_features, max_depth=forest.max_depth,
            min_samples_leaf=forest.min_samples_leaf,
        )
        for seed in seeds
    ]


def trees_equal(a: FlatTree, b: FlatTree) -> bool:
    """Bitwise equality of structure, features, thresholds and values."""
    return all(
        x.dtype == z.dtype and x.tobytes() == z.tobytes()
        for x, z in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(FlatTree))
    )


def predict_reference(flats: list[FlatTree], X) -> np.ndarray:
    """Mean over trees of a row-by-row walk from each root."""
    out = np.zeros((len(flats), X.shape[0]))
    for t, flat in enumerate(flats):
        for i, row in enumerate(X):
            node = 0
            while flat.feature[node] >= 0:
                go_left = row[flat.feature[node]] <= flat.threshold[node]
                node = flat.left[node] if go_left else flat.right[node]
            out[t, i] = flat.value[node]
    return out.mean(axis=0)


def _measure_point(timing_model, power_model, kernel, core_mhz, mem_mhz):
    """``(time_s, energy_j)`` of one launch at one clock pair."""
    timing = timing_model.execute(kernel, core_mhz, mem_mhz)
    power = float(
        power_model.power(
            core_mhz, mem_mhz, timing.core_power_utilization, timing.u_mem
        )
    )
    return timing.time_s, power * timing.time_s


def measure_sweep_reference(spec, kernel, core_freqs_mhz=None):
    """``(freqs, time, energy)`` like ``measure_sweep``, one clock at a time."""
    freqs = np.asarray(
        core_freqs_mhz if core_freqs_mhz is not None else spec.core_freqs_mhz,
        dtype=float,
    )
    timing_model, power_model = TimingModel(spec), PowerModel(spec)
    mem = float(spec.default_mem_mhz)
    points = [
        _measure_point(timing_model, power_model, kernel, float(f), mem)
        for f in freqs
    ]
    times, energies = np.asarray(points, dtype=float).reshape(-1, 2).T
    return freqs, times, energies


def sweep_kernel_2d_reference(spec, kernel) -> FrequencySweep2D:
    """``sweep_kernel_2d`` over every (memory, core) pair, one at a time."""
    timing_model, power_model = TimingModel(spec), PowerModel(spec)
    core = np.asarray(spec.core_freqs_mhz, dtype=float)
    mem = np.asarray(spec.mem_freqs_mhz, dtype=float)
    points = np.asarray(
        [
            [
                _measure_point(timing_model, power_model, kernel, float(fc), float(fm))
                for fc in core
            ]
            for fm in mem
        ],
        dtype=float,
    )
    return FrequencySweep2D(
        kernel_name=kernel.name,
        device_name=spec.name,
        core_mhz=core,
        mem_mhz=mem,
        time_s=points[..., 0],
        energy_j=points[..., 1],
    )


def throttled_operating_point_reference(
    spec, kernel, ceiling_mhz, mem_mhz, power_limit_w
):
    """``(core_mhz, timing, power_w)`` of one launch, scanned from scratch.

    Walks down the core table from the highest clock at or below
    ``ceiling_mhz`` and stops at the first clock whose modeled power fits
    ``power_limit_w``; the lowest table clock is used if nothing fits or
    the ceiling is below the table. Fresh models on every call: nothing
    is shared with the memoized launch path.
    """
    timing_model, power_model = TimingModel(spec), PowerModel(spec)
    candidates = [f for f in spec.core_freqs_mhz if f <= ceiling_mhz]
    if not candidates:
        candidates = [spec.min_core_mhz]
    for core_mhz in reversed(candidates):
        timing = timing_model.execute(kernel, core_mhz, mem_mhz)
        power = float(
            power_model.power(
                core_mhz, mem_mhz, timing.core_power_utilization, timing.u_mem
            )
        )
        if power <= power_limit_w or core_mhz == candidates[0]:
            return core_mhz, timing, power


def energy_between_reference(gpu, t0: float, t1: float) -> float:
    """Board energy (J) over ``[t0, t1]``, one timeline segment at a time.

    Walks the board's busy segments from the start of its history,
    integrates each exactly and fills the gaps with scalar idle power,
    split at every clock change; contributions accumulate in timeline
    order.
    """
    if t1 < t0:
        raise SimulationError(f"energy window reversed: [{t0!r}, {t1!r}]")
    energy = 0.0
    cursor = t0
    for s, e, p in zip(gpu._seg_start, gpu._seg_end, gpu._seg_power):
        if e <= t0:
            continue
        if s >= t1:
            break
        if s > cursor:
            energy += _gap_energy_reference(gpu, cursor, min(s, t1))
            cursor = min(s, t1)
        lo, hi = max(s, cursor), min(e, t1)
        if hi > lo:
            energy += p * (hi - lo)
            cursor = hi
    if cursor < t1:
        energy += _gap_energy_reference(gpu, cursor, t1)
    return energy


def _gap_energy_reference(gpu, t0: float, t1: float) -> float:
    """Idle energy over a gap, split at clock-change boundaries."""
    energy = 0.0
    cursor = t0
    i = bisect.bisect_right(gpu._clock_times, t0)
    boundaries = [t for t in gpu._clock_times[i:] if t < t1] + [t1]
    for boundary in boundaries:
        core, mem = gpu.clocks_at(cursor)
        energy += gpu.power_model.idle_power(core, mem) * (boundary - cursor)
        cursor = boundary
    return energy


def _launch(kernel: KernelIR):
    """The command group of one dependency-free kernel launch."""
    return lambda h: h.parallel_for(kernel.work_items, kernel)


def replay_per_event(queue: SynergyQueue, requests) -> None:
    """Submit ``requests`` one ``queue.submit`` call at a time, then wait.

    Each submit-style item — a bare :class:`KernelIR`,
    ``(EnergyTarget, kernel)`` or ``(mem_mhz, core_mhz, kernel)`` — is
    submitted in its own form, so clock resolution, switch charges and
    energy integration all take the per-event path.
    """
    for item in requests:
        if isinstance(item, KernelIR):
            queue.submit(_launch(item))
        elif isinstance(item[0], EnergyTarget):
            queue.submit(item[0], _launch(item[1]))
        else:
            queue.submit(item[0], item[1], _launch(item[2]))
    queue.wait()


def kernel_stats_reference(queue: SynergyQueue) -> list[dict[str, float | str]]:
    """:meth:`SynergyQueue.kernel_stats` as a walk over every event's record.

    Builds every event and record of the queue. The queue's own method
    reduces the record columns instead and must match this bitwise.
    """
    rows: list[dict[str, float | str]] = []
    for event in queue.events:
        record = event.record
        if record is None:
            continue
        rows.append(
            {
                "kernel": record.kernel_name,
                "core_mhz": record.core_mhz,
                "mem_mhz": record.mem_mhz,
                "time_s": record.time_s,
                "energy_j": record.energy_j,
                "avg_power_w": record.avg_power_w,
                "degraded": event in queue._degraded_events,
            }
        )
    return rows


def summary_reference(queue: SynergyQueue) -> dict[str, float]:
    """:meth:`SynergyQueue.summary` as sums over :func:`kernel_stats_reference`."""
    stats = kernel_stats_reference(queue)
    return {
        "kernels": float(len(stats)),
        "kernel_time_s": float(sum(r["time_s"] for r in stats)),
        "kernel_energy_j": float(sum(r["energy_j"] for r in stats)),
        "clock_switches": float(queue.scaler.switch_count),
        "switch_overhead_s": queue.scaler.total_overhead_s,
        "clock_retries": float(queue.scaler.retry_count),
        "degraded_kernels": float(sum(bool(r["degraded"]) for r in stats)),
    }


@dataclass(frozen=True)
class PerEventPayload:
    """Job payload replaying ``requests`` per event on every allocated GPU.

    Returns the per-GPU queue summaries under ``"gpus"``, like
    :class:`repro.engine.payload.KernelBatchPayload`.
    """

    requests: tuple
    plan: FrequencyPlan | None = None

    def __call__(self, context: JobContext) -> dict[str, object]:
        summaries = []
        for gpu in context.gpus:
            queue = SynergyQueue(gpu, plan=self.plan, trace=context.trace)
            replay_per_event(queue, self.requests)
            summaries.append(queue.summary())
        return {"gpus": summaries}


class CommandGraphReference:
    """The per-node command-graph builder: the oracle of
    :class:`repro.distributed.graph.CommandGraph`.

    Same builder API (``parallel_for``, ``gather``) and the same outputs —
    a ``nodes`` list of :class:`CommandNode` and the ``submissions`` log —
    derived one rank, one neighbour and one access at a time, with
    per-(buffer, rank) hazard state in Python lists and one
    ``NetworkModel.transfer_time`` call per (rank, neighbour).
    """

    def __init__(
        self,
        n_ranks: int,
        node_of_rank: Sequence[int],
        network: NetworkModel | None = None,
    ) -> None:
        if n_ranks <= 0:
            raise ValidationError(f"graph needs at least one rank ({n_ranks})")
        if len(node_of_rank) != n_ranks:
            raise ValidationError(
                f"node_of_rank length {len(node_of_rank)} != ranks {n_ranks}"
            )
        self.n_ranks = int(n_ranks)
        self.node_of_rank = list(node_of_rank)
        self.network = network if network is not None else NetworkModel()
        self.nodes: list[CommandNode] = []
        self.submissions: list[WaveRecord] = []
        self._wave = -1
        # Per (buffer, rank) hazard state: the node id of the last write,
        # and ids of reads since then. Owned by the graph (not the buffer)
        # so independently-built graphs never interfere.
        self._last_writer: dict[DistributedBuffer, list[int | None]] = {}
        self._readers: dict[DistributedBuffer, list[list[int]]] = {}

    # -------------------------------------------------------------- plumbing

    def _state(
        self, buf: DistributedBuffer
    ) -> tuple[list[int | None], list[list[int]]]:
        if buf.n_ranks != self.n_ranks:
            raise ValidationError(
                f"buffer {buf.name!r} is distributed over {buf.n_ranks} "
                f"ranks; graph has {self.n_ranks}"
            )
        if buf not in self._last_writer:
            self._last_writer[buf] = [None] * self.n_ranks
            self._readers[buf] = [[] for _ in range(self.n_ranks)]
        return self._last_writer[buf], self._readers[buf]

    def _neighbours(self, rank: int) -> list[int]:
        """Non-periodic ±1 neighbours (stencil codes pin the boundary)."""
        out = []
        if rank > 0:
            out.append(rank - 1)
        if rank < self.n_ranks - 1:
            out.append(rank + 1)
        return out

    def _add(self, **kwargs) -> CommandNode:
        node = CommandNode(nid=len(self.nodes), wave=self._wave, **kwargs)
        self.nodes.append(node)
        return node

    @staticmethod
    def _dedup(deps: list[int]) -> tuple[int, ...]:
        return tuple(sorted(set(deps)))

    # ------------------------------------------------------------ submission

    def parallel_for(
        self,
        kernel: KernelIR | Sequence[KernelIR | None],
        accesses: Sequence[DistributedAccess],
    ) -> list[CommandNode]:
        """Submit one SPMD command group; returns the created kernel nodes.

        ``kernel`` is either one :class:`KernelIR` every rank runs, or a
        per-rank sequence where ``None`` marks an idle rank (heterogeneous
        waves — e.g. boundary-condition kernels on edge ranks only).
        Dependency edges are derived from ``accesses`` as described in
        :mod:`repro.distributed.graph`.
        """
        if isinstance(kernel, KernelIR):
            per_rank: list[KernelIR | None] = [kernel] * self.n_ranks
        else:
            per_rank = list(kernel)
            if len(per_rank) != self.n_ranks:
                raise ValidationError(
                    f"per-rank kernel list covers {len(per_rank)} ranks; "
                    f"graph has {self.n_ranks}"
                )
        if not any(k is not None for k in per_rank):
            raise ValidationError("command group has no active rank")
        self._wave += 1

        # Pass 1 — halo transfers, derived from the *pre-wave* state. Each
        # active rank with a halo access gets one transfer node pulling
        # both neighbour boundaries; the node registers immediately as a
        # reader of the neighbour blocks so same-wave writes order behind
        # it (the WAR edge that keeps boundary pulls sound).
        halo_of: dict[tuple[int, int], int] = {}  # (rank, access idx) -> nid
        for ai, access in enumerate(accesses):
            if not access.halo:
                continue
            writers, readers = self._state(access.buffer)
            for rank in range(self.n_ranks):
                if per_rank[rank] is None:
                    continue
                neighbours = self._neighbours(rank)
                if not neighbours:
                    continue
                deps = [
                    writers[n] for n in neighbours if writers[n] is not None
                ]
                # Both directions proceed concurrently; the slower link
                # bounds the exchange (send + receive, as in
                # SimulatedComm.halo_exchange).
                cost = 2.0 * max(
                    self.network.transfer_time(
                        access.halo_nbytes,
                        self.node_of_rank[rank],
                        self.node_of_rank[n],
                    )
                    for n in neighbours
                )
                node = self._add(
                    kind=HALO,
                    rank=rank,
                    label=f"halo:{access.buffer.name}[r{rank}]",
                    deps=self._dedup(deps),
                    nbytes=float(access.halo_nbytes),
                    cost_s=cost,
                )
                halo_of[(rank, ai)] = node.nid
                for n in neighbours:
                    readers[n].append(node.nid)

        # Pass 2 — kernel nodes, deps from the pre-wave state plus this
        # wave's halo nodes. Effects are *not* committed yet: same-wave
        # kernels on different ranks are concurrent, never ordered against
        # each other through their own wave's reads.
        created: list[CommandNode] = []
        for rank in range(self.n_ranks):
            k = per_rank[rank]
            if k is None:
                continue
            deps: list[int] = []
            for ai, access in enumerate(accesses):
                writers, readers = self._state(access.buffer)
                if access.mode.reads:
                    if writers[rank] is not None:
                        deps.append(writers[rank])
                    hid = halo_of.get((rank, ai))
                    if hid is not None:
                        deps.append(hid)
                if access.mode.writes:
                    if writers[rank] is not None:
                        deps.append(writers[rank])
                    deps.extend(readers[rank])
            node = self._add(
                kind=KERNEL,
                rank=rank,
                label=f"{k.name}[r{rank}]",
                deps=self._dedup(deps),
                kernel=k,
            )
            created.append(node)

        # Pass 3 — commit this wave's effects. Writes supersede the block's
        # reader set (later writers transitively order behind them through
        # the new last-writer edge); pure reads join it.
        for node in created:
            for access in accesses:
                writers, readers = self._state(access.buffer)
                if access.mode.writes:
                    writers[node.rank] = node.nid
                    readers[node.rank] = []
                else:
                    readers[node.rank].append(node.nid)
        self.submissions.append(
            WaveRecord(
                wave=self._wave,
                kind="parallel_for",
                accesses=tuple(accesses),
                buffer=None,
                kernel_nids=tuple((n.rank, n.nid) for n in created),
                halo_nids=tuple(halo_of.items()),
                gather_nid=None,
            )
        )
        return created

    def gather(
        self, buf: DistributedBuffer, *, nbytes: float | None = None
    ) -> CommandNode:
        """Submit a global gather/reduction over every block of ``buf``.

        Depends on every rank's last writer and registers as a reader of
        every block, so subsequent writes order behind the collective.
        Costed with the ring-allreduce model over the per-rank
        contribution (the largest block, unless ``nbytes`` overrides).
        """
        self._wave += 1
        writers, readers = self._state(buf)
        deps = [w for w in writers if w is not None]
        if nbytes is None:
            nbytes = float(int(buf.range.counts.max()) * buf.itemsize)
        # Ring allreduce, one link at a time: 2·(p−1) steps over the
        # slowest link (NetworkModel.allreduce_time prices it per class).
        p, ids = self.n_ranks, self.node_of_rank
        cost = (
            2.0 * (p - 1) * max(
                self.network.transfer_time(nbytes / p, ids[i], ids[(i + 1) % p])
                for i in range(p)
            )
            if p > 1
            else 0.0
        )
        node = self._add(
            kind=GATHER,
            rank=-1,
            label=f"gather:{buf.name}",
            deps=self._dedup(deps),
            nbytes=float(nbytes),
            cost_s=cost,
        )
        for rank in range(self.n_ranks):
            readers[rank].append(node.nid)
        self.submissions.append(
            WaveRecord(
                wave=self._wave,
                kind="gather",
                accesses=(),
                buffer=buf,
                kernel_nids=(),
                halo_nids=(),
                gather_nid=node.nid,
            )
        )
        return node
