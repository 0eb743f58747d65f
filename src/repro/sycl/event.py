"""SYCL events with profiling information.

The SYnergy fine-grained profiler is built on SYCL event status/profiling
queries (§4.2); events here expose submit/start/end timestamps in virtual
time and the kernel execution record when one exists.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING

import numpy as np

from repro.common.errors import SimulationError

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

    Its record is a row of the run's :class:`~repro.hw.records.RecordBlock`,
    built on first read: ``event.record`` is the object the board's record
    log holds for that kernel, however the log is edited later. Submission
    and start coincide (a batched launch has no dependencies).
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

    @classmethod
    def run(
        cls,
        device: "SimulatedGPU",
        block: "RecordBlock",
        start_s: list[float],
        end_s: list[float],
    ) -> list["BlockEvent"]:
        """One event per row of ``block``, timestamps checked in one pass.

        Raises the :class:`SimulationError` :class:`Event` raises for the
        first kernel whose timestamps are out of order.
        """
        bad = np.flatnonzero(~(np.asarray(start_s) <= np.asarray(end_s)))
        if bad.size:
            t0, t1 = start_s[bad[0]], end_s[bad[0]]
            raise SimulationError(
                f"event timestamps out of order: submit={t0}, "
                f"start={t0}, end={t1}"
            )
        n = len(start_s)
        return list(
            map(
                cls,
                itertools.repeat(device, n),
                start_s,
                end_s,
                itertools.repeat(block, n),
                range(n),
                itertools.islice(_event_ids, n),
            )
        )
