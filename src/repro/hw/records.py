"""Kernel execution records and the per-board log that holds them.

A :class:`SimulatedGPU` keeps one :class:`KernelExecutionRecord` per
kernel it ran. The per-event launch path builds each record as it runs;
the batched engine commits whole runs of kernels at once, and most of
its callers only ever count them. :class:`RecordLog` therefore stores a
bulk-committed run as one :class:`RecordBlock` of columns and builds a
row's record the first time someone reads it. Every reader sees the
same frozen record objects a list would hold, in the same order.
"""

from __future__ import annotations

import bisect
from collections.abc import MutableSequence, Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class KernelExecutionRecord:
    """Outcome of one kernel execution on a simulated GPU."""

    kernel_name: str
    device_name: str
    core_mhz: int
    mem_mhz: int
    start_s: float
    end_s: float
    energy_j: float
    avg_power_w: float
    u_core: float
    u_mem: float

    @property
    def time_s(self) -> float:
        """Kernel wall time in seconds."""
        return self.end_s - self.start_s


class RecordBlock(Sequence):
    """A run of kernel executions as columns; rows are built on first read.

    ``kernels`` supplies the kernel names (read only when a row is
    built); every other column holds the Python ints and floats the
    records carry, so a built row is the record the per-event path would
    have made from the same values. Row ``i`` is built once and cached:
    ``block[i] is block[i]``. Once every row is built the block drops its
    columns, so a fully read block holds no more than a list of records.
    """

    __slots__ = ("_kernels", "_device_name", "_columns", "_rows", "_n", "_unbuilt")

    def __init__(
        self,
        kernels: Sequence,
        device_name: str,
        core_mhz: Sequence[int],
        mem_mhz: Sequence[int],
        start_s: Sequence[float],
        end_s: Sequence[float],
        energy_j: Sequence[float],
        avg_power_w: Sequence[float],
        u_core: Sequence[float],
        u_mem: Sequence[float],
    ) -> None:
        self._kernels = kernels
        self._device_name = device_name
        self._columns = (
            core_mhz, mem_mhz, start_s, end_s, energy_j, avg_power_w, u_core, u_mem
        )
        self._rows: list[KernelExecutionRecord | None] | None = None
        self._n = self._unbuilt = len(kernels)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> KernelExecutionRecord:
        rows = self._rows
        if rows is None:
            rows = self._rows = [None] * self._n
        row = rows[i]
        if row is None:
            core, mem, t0, t1, energy, power, u_core, u_mem = self._columns
            row = rows[i] = KernelExecutionRecord(
                self._kernels[i].name, self._device_name, core[i], mem[i],
                t0[i], t1[i], energy[i], power[i], u_core[i], u_mem[i],
            )
            self._unbuilt -= 1
            if not self._unbuilt:
                self._kernels = self._columns = None
        return row

    def __iter__(self):
        return iter(self.rows())

    @property
    def built(self) -> int:
        """How many rows have been built so far."""
        return self._n - self._unbuilt

    def rows(self) -> list[KernelExecutionRecord]:
        """Every row, building those not yet built."""
        if self._rows is None:
            device = self._device_name
            self._rows = [
                KernelExecutionRecord(
                    kernel.name, device, core, mem, t0, t1, energy, power,
                    u_core, u_mem,
                )
                for kernel, core, mem, t0, t1, energy, power, u_core, u_mem
                in zip(self._kernels, *self._columns)
            ]
            self._unbuilt = 0
            self._kernels = self._columns = None
        elif self._unbuilt:
            for i, row in enumerate(self._rows):
                if row is None:
                    self[i]
        return self._rows


class RecordLog(MutableSequence):
    """A board's kernel execution records, in execution order.

    Behaves as a list of :class:`KernelExecutionRecord`. The log is a
    run of closed parts, each a plain list or a :class:`RecordBlock` (one
    bulk commit), then an open list that :meth:`append` extends in O(1).
    ``len()`` reads no part; indexing, iteration, ``==`` and ``repr``
    build each row once and cache it, and appending leaves earlier
    blocks unbuilt. Mutation (``log[i] = r``, ``insert``, ``del``) first
    builds every row and folds the log into the open list, so a block is
    never edited in place and the events that point into it keep their
    records.
    """

    __slots__ = ("_parts", "_ends", "_tail")

    def __init__(self, records=()) -> None:
        self._parts: list[list | RecordBlock] = []
        #: Cumulative length after each closed part.
        self._ends: list[int] = []
        self._tail: list[KernelExecutionRecord] = list(records)

    def _closed(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __len__(self) -> int:
        return self._closed() + len(self._tail)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        closed = self._closed()
        if i < 0:
            i += closed + len(self._tail)
        if i >= closed:
            return self._tail[i - closed]
        if i < 0:
            raise IndexError("record index out of range")
        k = bisect.bisect_right(self._ends, i)
        return self._parts[k][i - (self._ends[k - 1] if k else 0)]

    def __iter__(self):
        for part in self._parts:
            yield from part
        yield from self._tail

    def append(self, record: KernelExecutionRecord) -> None:
        """Add one record at the end, in O(1)."""
        self._tail.append(record)

    def append_block(self, block: RecordBlock) -> None:
        """Add a bulk-committed run without building any of its rows."""
        if not len(block):
            return
        for part in (self._tail, block):
            if part:
                self._parts.append(part)
                self._ends.append(self._closed() + len(part))
        self._tail = []

    def _flatten(self) -> list[KernelExecutionRecord]:
        """Build every row and hold them as the open list (before a mutation)."""
        if self._parts:
            self._tail = list(self)
            self._parts, self._ends = [], []
        return self._tail

    def __setitem__(self, i, value) -> None:
        self._flatten()[i] = value

    def __delitem__(self, i) -> None:
        del self._flatten()[i]

    def insert(self, i: int, value: KernelExecutionRecord) -> None:
        self._flatten().insert(i, value)

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordLog):
            other = list(other)
        elif not isinstance(other, list):
            return NotImplemented
        return len(self) == len(other) and list(self) == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RecordLog({list(self)!r})"
