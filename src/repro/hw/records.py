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

from collections.abc import MutableSequence, Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.common.lazyseq import LazyRows, PartLog


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


class RecordBlock(LazyRows):
    """A run of kernel executions as columns; rows are built on first read.

    ``kernels`` supplies the kernel names (read only when a row is
    built); every other column is a sequence or a NumPy array of the
    records' ints and floats (the batched engine hands over its arrays),
    read as Python ``int``/``float`` values, so a built row is the record
    the per-event path would have made from the same values. Row ``i`` is
    built once and cached: ``block[i] is block[i]``. Once every row is
    built the block drops its columns, so a fully read block holds no
    more than a list of records.
    """

    __slots__ = ("_kernels", "_device_name", "_columns")

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
        super().__init__(len(kernels))
        self._kernels = kernels
        self._device_name = device_name
        self._columns = (
            core_mhz, mem_mhz, start_s, end_s, energy_j, avg_power_w, u_core, u_mem
        )

    def _build(self, i: int) -> KernelExecutionRecord:
        core, mem, *floats = (column[i] for column in self._columns)
        return KernelExecutionRecord(
            self._kernels[i].name, self._device_name, int(core), int(mem),
            *map(float, floats),
        )

    def _build_all(self) -> list[KernelExecutionRecord]:
        device = self._device_name
        return [
            KernelExecutionRecord(
                kernel.name, device, core, mem, t0, t1, energy, power,
                u_core, u_mem,
            )
            for kernel, core, mem, t0, t1, energy, power, u_core, u_mem
            in zip(self._kernels, *map(_as_list, self._columns))
        ]

    def _release(self) -> None:
        self._kernels = self._columns = None

    def stat_columns(self) -> tuple[Sequence, ...]:
        """The :data:`STAT_FIELDS` columns, building no row.

        While the block holds its columns they are read directly, as
        Python values; once every row is built they are read off the
        rows. Either way they hold the values the records carry.
        """
        if self._columns is None:
            return record_columns(self._rows)
        return (
            [k.name for k in self._kernels],
            *map(_as_list, self._columns[:6]),
        )


def _as_list(column: Sequence) -> list:
    """A column as a list of Python ints and floats."""
    return column.tolist() if isinstance(column, np.ndarray) else column


#: The record fields per-kernel statistics read, in
#: :meth:`RecordBlock.stat_columns` order.
STAT_FIELDS = (
    "kernel_name", "core_mhz", "mem_mhz", "start_s", "end_s", "energy_j",
    "avg_power_w",
)


_stat_row = attrgetter(*STAT_FIELDS)


def record_columns(records) -> tuple[tuple, ...]:
    """The :data:`STAT_FIELDS` columns of built records."""
    return tuple(zip(*map(_stat_row, records))) or ((),) * len(STAT_FIELDS)


class RecordLog(PartLog, MutableSequence):
    """A board's kernel execution records, in execution order.

    Behaves as a list of :class:`KernelExecutionRecord` (and, like a
    list, is unequal to a tuple): a
    :class:`~repro.common.lazyseq.PartLog` whose closed parts are plain
    lists or one :class:`RecordBlock` per bulk commit, and whose open
    list the per-event path appends to in O(1). Mutation
    (``log[i] = r``, ``insert``, ``del``) first builds every row and
    folds the log into the open list, so a block is never edited in
    place and the events that point into it keep their records.
    """

    __slots__ = ()
    _compares_with = (list,)

    def _flatten(self) -> list[KernelExecutionRecord]:
        """Build every row and hold them as the open list (before a mutation)."""
        if self._parts:
            self._tail = list(self)
            self._parts, self._ends = (), ()
        return self._tail

    def __setitem__(self, i, value) -> None:
        self._flatten()[i] = value

    def __delitem__(self, i) -> None:
        del self._flatten()[i]

    def insert(self, i: int, value: KernelExecutionRecord) -> None:
        self._flatten().insert(i, value)
