"""SYCL events with profiling information.

The SYnergy fine-grained profiler is built on SYCL event status/profiling
queries (§4.2); events here expose submit/start/end timestamps in virtual
time and the kernel execution record when one exists. The batched
engine commits a run of kernels as one :class:`EventBlock`, whose events
are built on first read; a queue keeps its events in an :class:`EventLog`.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING

import numpy as np

from repro.common.errors import SimulationError
from repro.common.lazyseq import LazyRows, PartLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.device import KernelExecutionRecord, SimulatedGPU
    from repro.hw.records import RecordBlock

_event_ids = itertools.count()


class EventStatus(enum.Enum):
    """SYCL ``info::event_command_status`` values."""

    SUBMITTED = "submitted"
    RUNNING = "running"
    COMPLETE = "complete"


class Event:
    """Completion handle for one submitted command group."""

    def __init__(
        self,
        device: "SimulatedGPU",
        submit_s: float,
        start_s: float,
        end_s: float,
        record: "KernelExecutionRecord | None" = None,
    ) -> None:
        if not submit_s <= start_s <= end_s:
            raise SimulationError(
                f"event timestamps out of order: submit={submit_s}, "
                f"start={start_s}, end={end_s}"
            )
        self.event_id = next(_event_ids)
        self.device = device
        self.submit_s = submit_s
        self.start_s = start_s
        self.end_s = end_s
        self.record = record

    @property
    def status(self) -> EventStatus:
        """Command status relative to the current virtual time."""
        now = self.device.clock.now
        if now < self.start_s:
            return EventStatus.SUBMITTED
        if now < self.end_s:
            return EventStatus.RUNNING
        return EventStatus.COMPLETE

    def wait(self) -> None:
        """Block (in virtual time) until the command completes."""
        if self.device.clock.now < self.end_s:
            self.device.clock.advance_to(self.end_s)

    def wait_and_throw(self) -> None:
        """SYCL spelling of :meth:`wait` (no async errors in the sim)."""
        self.wait()

    def profiling_submit(self) -> float:
        """``info::event_profiling::command_submit`` (seconds)."""
        return self.submit_s

    def profiling_start(self) -> float:
        """``info::event_profiling::command_start`` (seconds)."""
        return self.start_s

    def profiling_end(self) -> float:
        """``info::event_profiling::command_end`` (seconds)."""
        return self.end_s

    @property
    def duration_s(self) -> float:
        """Kernel execution time (seconds)."""
        return self.end_s - self.start_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.record.kernel_name if self.record else "<no kernel>"
        return f"Event(#{self.event_id}, {name}, [{self.start_s:.6f}, {self.end_s:.6f}])"


class BlockEvent(Event):
    """Completion handle of one kernel in a bulk-committed run.

    Row ``row`` of an :class:`EventBlock`. Its record is the same row of
    the run's :class:`~repro.hw.records.RecordBlock`, built on first
    read: ``event.record`` is the object the board's record log holds
    for that kernel, however the log is edited later. Submission and
    start coincide (a batched launch has no dependencies).
    """

    def __init__(
        self,
        device: "SimulatedGPU",
        start_s: float,
        end_s: float,
        block: "RecordBlock",
        row: int,
        event_id: int,
    ) -> None:
        self.event_id = event_id
        self.device = device
        self.submit_s = start_s
        self.start_s = start_s
        self.end_s = end_s
        self._block = block
        self._row = row

    @property
    def record(self) -> "KernelExecutionRecord":
        return self._block[self._row]


class EventBlock(LazyRows):
    """The events of one bulk-committed run, built on first read.

    One row per row of ``records`` (the run's record block); row ``i``
    becomes a :class:`BlockEvent` the first time someone reads it and is
    cached, so ``block[i] is block[i]``. The block takes its run of
    event ids when it is made, so ids keep submission order however late
    its rows are built. The timestamp-order check :class:`Event` makes
    runs here, once, as one array comparison: it raises the same
    :class:`SimulationError` for the first kernel out of order.
    """

    __slots__ = ("device", "records", "first_id", "_start", "_end")

    def __init__(
        self,
        device: "SimulatedGPU",
        records: "RecordBlock",
        start_s: list[float],
        end_s: list[float],
    ) -> None:
        bad = np.flatnonzero(~(np.asarray(start_s) <= np.asarray(end_s)))
        if bad.size:
            t0, t1 = start_s[bad[0]], end_s[bad[0]]
            raise SimulationError(
                f"event timestamps out of order: submit={t0}, "
                f"start={t0}, end={t1}"
            )
        n = len(start_s)
        super().__init__(n)
        self.device = device
        self.records = records
        self._start = start_s
        self._end = end_s
        self.first_id = next(_event_ids)
        if n > 1:
            # Take the rest of the run's ids from the shared counter.
            next(itertools.islice(_event_ids, n - 2, None))

    def _build(self, i: int) -> BlockEvent:
        return BlockEvent(
            self.device, self._start[i], self._end[i], self.records, i,
            self.first_id + i,
        )

    def _build_all(self) -> list[BlockEvent]:
        n, first = self._n, self.first_id
        return list(
            map(
                BlockEvent,
                itertools.repeat(self.device, n),
                self._start,
                self._end,
                itertools.repeat(self.records, n),
                range(n),
                range(first, first + n),
            )
        )

    def _release(self) -> None:
        self._start = self._end = None


class EventLog(PartLog):
    """A queue's events, in submission order.

    Reads as a tuple of :class:`Event`: a
    :class:`~repro.common.lazyseq.PartLog` whose closed parts are plain
    lists or one :class:`EventBlock` per bulk commit, and whose open
    list the per-event path appends to in O(1). ``len()`` builds
    no event, and a slice builds only the events inside it.
    """

    __slots__ = ()
