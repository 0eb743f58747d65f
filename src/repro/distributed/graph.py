"""The distributed command graph.

Submitting a command group against distributed buffers does not execute
anything: it *derives structure*. For every rank the builder creates a
kernel node, and from the declared access modes it derives

- **RAW edges** — a reading access depends on the last command that
  wrote the rank's block (and, with a halo, on the halo transfer that
  materializes the neighbour boundary),
- **WAR edges** — a writing access depends on every command that read
  the block since its last write, *including neighbour halo transfers of
  the same wave* (a rank must not overwrite its boundary while a
  neighbour is still pulling the previous version),
- **WAW edges** — via the last-writer dependency,
- **halo-transfer nodes** — one per (rank, halo access), costed from the
  :class:`~repro.mpi.network.NetworkModel` between the owning nodes,
- **gather nodes** — a global collective depending on every rank's last
  writer, costed with the ring-allreduce model.

Node ids are assigned in creation order and every dependency points to a
smaller id, so the id order is a valid topological order. Each builder
call is one *wave*; within a wave, halo nodes precede kernel nodes. The
executors (:mod:`repro.distributed.runner`, scalar reference;
:mod:`repro.engine.multirank`, vectorized) exploit this static wave
structure. Communication costs are computed once here and shared by both
execution paths, so their comm timelines agree bitwise.

The graph is stored as columns: one array per node attribute (kind code,
rank, wave, cost, bytes, kernel code into a per-graph table of distinct
kernels) and the dependencies in CSR form (``dep_indptr``/
``dep_indices``, each row sorted and duplicate-free). A wave is derived
with array operations over its active ranks; :attr:`CommandGraph.nodes`
builds :class:`CommandNode` views on demand and keeps none of them. The
per-node builder it replaced is the oracle
:class:`repro.validate.reference.CommandGraphReference`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from repro.common.errors import ValidationError
from repro.kernelir.kernel import KernelIR
from repro.mpi.network import NetworkModel
from repro.sycl.distributed import DistributedAccess, DistributedBuffer

#: Node kinds.
KERNEL = "kernel"
HALO = "halo"
GATHER = "gather"

#: Kind names by kind code: ``graph.kind == i`` selects ``KINDS[i]`` nodes.
KINDS = (KERNEL, HALO, GATHER)
KERNEL_CODE, HALO_CODE, GATHER_CODE = range(3)


@dataclass(frozen=True)
class WaveRecord:
    """What one builder call *declared*, before any edge was derived.

    The static auditor (:mod:`repro.analysis.graphaudit`) re-derives every
    block access from these records alone — never from the builder's edge
    state — so it cross-checks the 3-pass hazard derivation with an
    independent algorithm. ``kernel_nids`` maps active ranks to their
    kernel node, ``halo_nids`` maps ``(rank, access index)`` to the halo
    transfer that serves that access.
    """

    wave: int
    kind: str  # "parallel_for" or "gather"
    accesses: tuple[DistributedAccess, ...]
    buffer: "DistributedBuffer | None"
    kernel_nids: tuple[tuple[int, int], ...]
    halo_nids: tuple[tuple[tuple[int, int], int], ...]
    gather_nid: int | None


@dataclass(frozen=True)
class CommandNode:
    """One scheduled command: a rank-local kernel or a transfer.

    ``deps`` are node ids that must finish before this node may start;
    all of them are smaller than ``nid``. ``cost_s`` is the precomputed
    communication cost for transfer nodes (0 for kernels — their duration
    depends on the frequency plan and is resolved at execution time).
    """

    nid: int
    kind: str
    rank: int  # -1 for global collectives
    wave: int
    label: str
    deps: tuple[int, ...]
    kernel: KernelIR | None = None
    nbytes: float = 0.0
    cost_s: float = 0.0


_NO_RANKS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class _Wave:
    """One builder call, compactly: its kernel and halo node ids are
    contiguous runs over the active ranks (``first`` is the gather's id
    for a gather wave)."""

    kind: str
    accesses: tuple[DistributedAccess, ...]
    buffer: "DistributedBuffer | None"
    active: np.ndarray
    first: int
    halo_first: tuple[tuple[int, int], ...]  # (access idx, first halo id)

    def record(self, wave: int) -> WaveRecord:
        ranks = self.active.tolist()
        m = len(ranks)
        return WaveRecord(
            wave=wave,
            kind=self.kind,
            accesses=self.accesses,
            buffer=self.buffer,
            kernel_nids=tuple(zip(ranks, range(self.first, self.first + m))),
            halo_nids=tuple(
                chain.from_iterable(
                    zip(zip(ranks, repeat(ai)), range(h0, h0 + m))
                    for ai, h0 in self.halo_first
                )
            ),
            gather_nid=self.first if self.kind == "gather" else None,
        )


class _Column:
    """An append-only 1-D array, kept as chunks until it is read.

    ``extend`` appends one chunk (a copy of an array, or one scalar
    repeated); ``view()`` joins the chunks once and returns the column
    read-only.
    """

    __slots__ = ("chunks", "dtype", "size")

    def __init__(self, dtype, initial=()) -> None:
        self.dtype = dtype
        self.chunks = [np.array(initial, dtype=dtype)]
        self.size = self.chunks[0].size

    def extend(self, values, count: int) -> None:
        """Append ``count`` entries: an array of them, or one scalar."""
        if np.ndim(values):
            self.chunks.append(np.array(values, dtype=self.dtype))
        else:
            self.chunks.append(np.full(count, values, dtype=self.dtype))
        self.size += count

    def view(self) -> np.ndarray:
        if len(self.chunks) > 1:
            self.chunks = [np.concatenate(self.chunks)]
        out = self.chunks[0]
        out.flags.writeable = False
        return out


class _Hazards:
    """One buffer's hazard state across the graph's ranks.

    ``writer[r]`` is the node id of rank ``r``'s last write (−1: none);
    ``readers[r, :count[r]]`` are the ids of reads since then, and every
    slot past a rank's count holds −1. A write resets the readers of the
    ranks it touches.
    """

    __slots__ = ("writer", "readers", "count")

    def __init__(self, n_ranks: int) -> None:
        self.writer = np.full(n_ranks, -1, dtype=np.int64)
        self.readers = np.full((n_ranks, 4), -1, dtype=np.int64)
        self.count = np.zeros(n_ranks, dtype=np.int64)

    def neighbour_writers(self, ranks: np.ndarray) -> np.ndarray:
        """``[len(ranks), 2]`` last writers of each rank's ±1 neighbours,
        −1 where there is no neighbour or no write yet."""
        padded = np.concatenate(([-1], self.writer, [-1]))
        return np.stack((padded[ranks], padded[ranks + 2]), axis=1)

    def add_readers(self, ranks: np.ndarray, nids: np.ndarray) -> None:
        """Append ``nids[i]`` to rank ``ranks[i]``'s readers (ranks unique)."""
        if ranks.size == 0:
            return
        pos = self.count[ranks]
        need = int(pos.max()) + 1
        width = self.readers.shape[1]
        if need > width:
            grown = np.full(
                (self.readers.shape[0], max(need, 2 * width)), -1, dtype=np.int64
            )
            grown[:, :width] = self.readers
            self.readers = grown
        self.readers[ranks, pos] = nids
        self.count[ranks] = pos + 1

    def readers_of(self, ranks: np.ndarray) -> np.ndarray:
        """``[len(ranks), w]`` reader ids, −1-padded past each count."""
        return self.readers[ranks, : int(self.count[ranks].max(initial=0))]

    def write(self, ranks: np.ndarray, nids: np.ndarray) -> None:
        """``nids[i]`` wrote rank ``ranks[i]``'s block: it becomes the last
        writer and the block's readers are cleared."""
        self.writer[ranks] = nids
        self.readers[ranks, : int(self.count[ranks].max(initial=0))] = -1
        self.count[ranks] = 0


def _dedup_rows(cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, duplicate-free, −1-free rows of ``cand`` as CSR pieces.

    Returns ``(lengths, flat)``: each row's dependency count and the rows'
    ids concatenated in row order. Rows are sorted with one row-wise
    ``np.sort``; the masks then run over the flattened matrix, where a
    row's first entry is compared only against −1.
    """
    m, w = cand.shape
    if w == 0:
        return np.zeros(m, dtype=np.int64), cand.ravel()
    flat = np.sort(cand, axis=1).ravel()
    keep = flat >= 0
    keep[1:] &= flat[1:] != flat[:-1]
    keep[::w] = flat[::w] >= 0
    kept = np.flatnonzero(keep)
    return np.bincount(kept // w, minlength=m), flat[kept]


class NodeViews(Sequence):
    """Read-only ``CommandNode`` views over a contiguous node-id range.

    Each access builds fresh views from the graph's columns; nothing is
    cached. ``len()`` is O(1). A view without a fixed end follows the
    graph as it grows.
    """

    def __init__(self, graph: "CommandGraph", start: int = 0, stop: int | None = None):
        self._graph = graph
        self._start = start
        self._stop = stop

    def _bounds(self) -> tuple[int, int]:
        stop = self._graph._kind.size if self._stop is None else self._stop
        return self._start, stop

    def __len__(self) -> int:
        start, stop = self._bounds()
        return stop - start

    def __getitem__(self, index: int) -> CommandNode:
        start, stop = self._bounds()
        i = int(index)
        if i < 0:
            i += stop - start
        if not 0 <= i < stop - start:
            raise IndexError(f"node index {index} out of range")
        return self._graph._views(start + i, start + i + 1)[0]

    def __iter__(self):
        start, stop = self._bounds()
        return iter(self._graph._views(start, stop))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        start, stop = self._bounds()
        return f"NodeViews([{start}, {stop}))"


class CommandGraph:
    """Builder and columnar container for a distributed command DAG."""

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
        self._node_ids = np.asarray(self.node_of_rank, dtype=np.int64)
        self.network = network if network is not None else NetworkModel()
        self._waves: list[_Wave] = []  # one per builder call, in order
        self._kind = _Column(np.int8)
        self._rank = _Column(np.int64)
        self._wave_col = _Column(np.int64)
        self._cost = _Column(np.float64)
        self._nbytes = _Column(np.float64)
        self._code = _Column(np.int64)  # kernel code; -1 for transfers
        self._tag = _Column(np.int64)  # transfer label code; -1 for kernels
        self._indptr = _Column(np.int64, [0])
        self._indices = _Column(np.int64)
        self._kernels: list[KernelIR] = []
        self._kernel_code: dict[int, int] = {}  # id(kernel) -> code
        self._tags: list[str] = []
        self._tag_code: dict[str, int] = {}
        # Hazard state per buffer, owned by the graph (not the buffer) so
        # independently-built graphs never interfere.
        self._hazards: dict[DistributedBuffer, _Hazards] = {}
        self._halo_costs: dict[int, np.ndarray] = {}

    # --------------------------------------------------------------- columns

    @property
    def kind(self) -> np.ndarray:
        """Kind code per node (an index into :data:`KINDS`)."""
        return self._kind.view()

    @property
    def rank(self) -> np.ndarray:
        """Rank per node; −1 for global collectives."""
        return self._rank.view()

    @property
    def wave(self) -> np.ndarray:
        """Wave (builder call) per node."""
        return self._wave_col.view()

    @property
    def cost_s(self) -> np.ndarray:
        """Communication cost per node (0 for kernels)."""
        return self._cost.view()

    @property
    def nbytes(self) -> np.ndarray:
        """Transfer volume per node (0 for kernels)."""
        return self._nbytes.view()

    @property
    def kernel_code(self) -> np.ndarray:
        """Index into :attr:`kernel_table` per node; −1 for transfers."""
        return self._code.view()

    @property
    def kernel_table(self) -> tuple[KernelIR, ...]:
        """The graph's distinct kernel objects, in first-submission order."""
        return tuple(self._kernels)

    @property
    def dep_indptr(self) -> np.ndarray:
        """CSR row pointers: node ``i``'s deps are ``dep_indices[p[i]:p[i+1]]``."""
        return self._indptr.view()

    @property
    def dep_indices(self) -> np.ndarray:
        """CSR dependency ids; each row sorted and duplicate-free."""
        return self._indices.view()

    @property
    def submissions(self) -> list[WaveRecord]:
        """What each builder call declared, as fresh :class:`WaveRecord` s."""
        return [w.record(i) for i, w in enumerate(self._waves)]

    @property
    def nodes(self) -> NodeViews:
        """Every node as an on-demand :class:`CommandNode` view, by id."""
        return NodeViews(self)

    def replace_deps(self, indptr, indices) -> None:
        """Swap in a different dependency structure.

        The builder never calls this; it exists to tamper with a finished
        graph, e.g. to show that :func:`repro.analysis.graphaudit.audit_graph`
        flags dropped edges. Only the CSR shape is checked.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.shape != (len(self.kind) + 1,) or indptr[0] != 0 or (
            indptr[-1] != indices.size or np.any(np.diff(indptr) < 0)
        ):
            raise ValidationError("malformed CSR dependency structure")
        self._indptr = _Column(np.int64, indptr)
        self._indices = _Column(np.int64, indices)

    # -------------------------------------------------------------- plumbing

    def _state(self, buf: DistributedBuffer) -> _Hazards:
        if buf.n_ranks != self.n_ranks:
            raise ValidationError(
                f"buffer {buf.name!r} is distributed over {buf.n_ranks} "
                f"ranks; graph has {self.n_ranks}"
            )
        state = self._hazards.get(buf)
        if state is None:
            state = self._hazards[buf] = _Hazards(self.n_ranks)
        return state

    def _halo_cost(self, nbytes: int) -> np.ndarray:
        """Per-rank cost of one halo exchange of ``nbytes`` per side.

        Both directions proceed concurrently; the slower link bounds the
        exchange (send + receive, as in ``SimulatedComm.halo_exchange``):
        ``2 * max`` over the rank's neighbours. Memoized per size — the
        ranks' nodes and the network are fixed for the graph's lifetime.
        """
        cost = self._halo_costs.get(nbytes)
        if cost is None:
            nodes = self._node_ids
            link = self.network.transfer_times(nbytes, nodes[1:], nodes[:-1])
            left = np.concatenate(([-np.inf], link))  # rank r pulls from r-1
            right = np.concatenate((link, [-np.inf]))  # ... and from r+1
            cost = self._halo_costs[nbytes] = 2.0 * np.maximum(left, right)
        return cost

    def _kernel_index(self, kernel: KernelIR) -> int:
        code = self._kernel_code.get(id(kernel))
        if code is None:
            code = self._kernel_code[id(kernel)] = len(self._kernels)
            self._kernels.append(kernel)
        return code

    def _tag_index(self, tag: str) -> int:
        code = self._tag_code.get(tag)
        if code is None:
            code = self._tag_code[tag] = len(self._tags)
            self._tags.append(tag)
        return code

    def _append(
        self, kind: int, ranks, tag, lengths, flat, *, code=-1, nbytes=0.0, cost=0.0
    ) -> np.ndarray:
        """Append one block of nodes; returns their ids."""
        m = len(lengths)
        first = self._kind.size
        for column, values in (
            (self._kind, kind), (self._rank, ranks), (self._wave_col, len(self._waves)),
            (self._cost, cost), (self._nbytes, nbytes), (self._code, code),
            (self._tag, tag),
        ):
            column.extend(values, m)
        self._indptr.extend(self._indices.size + np.cumsum(lengths), m)
        self._indices.extend(flat, flat.size)
        return np.arange(first, first + m, dtype=np.int64)

    def _views(self, start: int, stop: int) -> list[CommandNode]:
        """Fresh :class:`CommandNode` views of nodes ``[start, stop)``."""
        kinds = self.kind[start:stop].tolist()
        ranks = self.rank[start:stop].tolist()
        waves = self.wave[start:stop].tolist()
        codes = self.kernel_code[start:stop].tolist()
        tags = self._tag.view()[start:stop].tolist()
        nbytes = self.nbytes[start:stop].tolist()
        costs = self.cost_s[start:stop].tolist()
        ptr = self.dep_indptr[start : stop + 1].tolist()
        deps = self.dep_indices[ptr[0] : ptr[-1]].tolist()
        base = ptr[0]
        out = []
        for i in range(stop - start):
            rank, code = ranks[i], codes[i]
            kernel = self._kernels[code] if code >= 0 else None
            tag = kernel.name if kernel is not None else self._tags[tags[i]]
            out.append(
                CommandNode(
                    nid=start + i,
                    kind=KINDS[kinds[i]],
                    rank=rank,
                    wave=waves[i],
                    label=tag if rank < 0 else f"{tag}[r{rank}]",
                    deps=tuple(deps[ptr[i] - base : ptr[i + 1] - base]),
                    kernel=kernel,
                    nbytes=nbytes[i],
                    cost_s=costs[i],
                )
            )
        return out

    # ------------------------------------------------------------ submission

    def parallel_for(
        self,
        kernel: KernelIR | Sequence[KernelIR | None],
        accesses: Sequence[DistributedAccess],
    ) -> NodeViews:
        """Submit one SPMD command group; returns the created kernel nodes.

        ``kernel`` is either one :class:`KernelIR` every rank runs, or a
        per-rank sequence where ``None`` marks an idle rank (heterogeneous
        waves — e.g. boundary-condition kernels on edge ranks only).
        Dependency edges are derived from ``accesses`` as described in the
        module docstring.
        """
        n = self.n_ranks
        if isinstance(kernel, KernelIR):
            active = np.arange(n, dtype=np.int64)
            codes = np.int64(self._kernel_index(kernel))
        else:
            per_rank = list(kernel)
            if len(per_rank) != n:
                raise ValidationError(
                    f"per-rank kernel list covers {len(per_rank)} ranks; "
                    f"graph has {n}"
                )
            ranks = [r for r, k in enumerate(per_rank) if k is not None]
            if not ranks:
                raise ValidationError("command group has no active rank")
            active = np.asarray(ranks, dtype=np.int64)
            codes = np.asarray(
                [self._kernel_index(per_rank[r]) for r in ranks], dtype=np.int64
            )
        states = [self._state(access.buffer) for access in accesses]
        m = active.size

        # Pass 1 — halo transfers, derived from the *pre-wave* state. Each
        # active rank with a halo access gets one transfer node pulling
        # both neighbour boundaries; the node registers immediately as a
        # reader of the neighbour blocks so same-wave writes order behind
        # it (the WAR edge that keeps boundary pulls sound).
        halo_nids: dict[int, np.ndarray] = {}  # access idx -> nid per active rank
        if n > 1:
            left = active > 0
            right = active < n - 1
            for ai, access in enumerate(accesses):
                if not access.halo:
                    continue
                state = states[ai]
                lengths, flat = _dedup_rows(state.neighbour_writers(active))
                nb = access.halo_nbytes
                nids = self._append(
                    HALO_CODE, active,
                    self._tag_index(f"halo:{access.buffer.name}"),
                    lengths, flat, nbytes=float(nb), cost=self._halo_cost(nb)[active],
                )
                halo_nids[ai] = nids
                state.add_readers(active[left] - 1, nids[left])
                state.add_readers(active[right] + 1, nids[right])

        # Pass 2 — kernel nodes, deps from the pre-wave state plus this
        # wave's halo nodes. Effects are *not* committed yet: same-wave
        # kernels on different ranks are concurrent, never ordered against
        # each other through their own wave's reads.
        columns = []
        for ai, access in enumerate(accesses):
            state = states[ai]
            columns.append(state.writer[active][:, None])
            if access.mode.reads and ai in halo_nids:
                columns.append(halo_nids[ai][:, None])
            if access.mode.writes:
                columns.append(state.readers_of(active))
        cand = np.concatenate(columns, axis=1) if columns else np.empty((m, 0), np.int64)
        lengths, flat = _dedup_rows(cand)
        created = self._append(KERNEL_CODE, active, -1, lengths, flat, code=codes)

        # Pass 3 — commit this wave's effects. Writes supersede the block's
        # reader set (later writers transitively order behind them through
        # the new last-writer edge); pure reads join it.
        for ai, access in enumerate(accesses):
            state = states[ai]
            if access.mode.writes:
                state.write(active, created)
            else:
                state.add_readers(active, created)

        first = int(created[0])
        self._waves.append(
            _Wave(
                "parallel_for", tuple(accesses), None, active, first,
                tuple((ai, int(nids[0])) for ai, nids in halo_nids.items()),
            )
        )
        return NodeViews(self, first, first + m)

    def gather(
        self, buf: DistributedBuffer, *, nbytes: float | None = None
    ) -> CommandNode:
        """Submit a global gather/reduction over every block of ``buf``.

        Depends on every rank's last writer and registers as a reader of
        every block, so subsequent writes order behind the collective.
        Costed with the ring-allreduce model over the per-rank
        contribution (the largest block, unless ``nbytes`` overrides).
        """
        state = self._state(buf)
        if nbytes is None:
            nbytes = float(int(buf.range.counts.max()) * buf.itemsize)
        cost = (
            self.network.allreduce_time(nbytes, self._node_ids)
            if self.n_ranks > 1
            else 0.0
        )
        lengths, flat = _dedup_rows(state.writer[None, :])
        tag = self._tag_index(f"gather:{buf.name}")
        (nid,) = self._append(
            GATHER_CODE, [-1], tag, lengths, flat, nbytes=float(nbytes), cost=cost
        )
        state.add_readers(
            np.arange(self.n_ranks, dtype=np.int64),
            np.full(self.n_ranks, nid, dtype=np.int64),
        )
        self._waves.append(_Wave("gather", (), buf, _NO_RANKS, int(nid), ()))
        return CommandNode(
            nid=int(nid), kind=GATHER, rank=-1, wave=len(self._waves) - 1,
            label=self._tags[tag], deps=tuple(flat.tolist()),
            nbytes=float(nbytes), cost_s=cost,
        )

    # ------------------------------------------------------------ inspection

    @property
    def n_waves(self) -> int:
        """Number of submitted waves."""
        return len(self._waves)

    def counts(self) -> dict[str, int]:
        """Node count per kind, in order of each kind's first node."""
        kind = self.kind
        per_kind = np.bincount(kind, minlength=len(KINDS))
        present = [c for c in range(len(KINDS)) if per_kind[c]]
        present.sort(key=lambda c: int(np.argmax(kind == c)))
        return {KINDS[c]: int(per_kind[c]) for c in present}

    def rank_kernels(self) -> list[tuple[KernelIR, ...]]:
        """Per-rank kernel sequence, in execution (id) order.

        Ranks with equal sequences share one tuple.

        This is exactly the shape
        :func:`repro.core.compiler.plan_global_frequencies` consumes to
        choose per-rank clocks from a global energy target.
        """
        is_kernel = self.kind == KERNEL_CODE
        ranks = self.rank[is_kernel]
        codes = self.kernel_code[is_kernel][np.argsort(ranks, kind="stable")]
        lengths = np.bincount(ranks, minlength=self.n_ranks)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        # Ranks with equal sequences share one tuple: group the ranks of
        # each sequence length by their code rows, one byte string a row.
        # Sequence 0 is the empty one, of ranks that ran no kernel.
        seq_of_rank = np.zeros(self.n_ranks, dtype=np.int64)
        seqs: list[tuple[KernelIR, ...]] = [()]
        for length in np.unique(lengths[lengths > 0]).tolist():
            members = np.flatnonzero(lengths == length)
            rows = codes[starts[members][:, None] + np.arange(length)]
            keys = np.ascontiguousarray(rows).view(
                np.dtype((np.void, rows.itemsize * length))
            ).ravel()
            _, first, which = np.unique(keys, return_index=True, return_inverse=True)
            seq_of_rank[members] = len(seqs) + which.reshape(-1)
            seqs.extend(
                tuple(self._kernels[c] for c in row) for row in rows[first].tolist()
            )
        return [seqs[i] for i in seq_of_rank.tolist()]

    def check_edges(self) -> bool:
        """Structural soundness: acyclic-by-construction edge contract.

        Returns ``True`` when every dependency id precedes its node id
        (so id order is a topological order); raises otherwise.
        """
        indptr, deps = self.dep_indptr, self.dep_indices
        owner = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        bad = np.flatnonzero((deps < 0) | (deps >= owner))
        if bad.size:
            node = self.nodes[int(owner[bad[0]])]
            raise ValidationError(
                f"node {node.nid} ({node.label}) depends on "
                f"{int(deps[bad[0]])}, violating the topological id order"
            )
        return True
