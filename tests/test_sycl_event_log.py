"""The queue's event log: a tuple of events, built on first read.

:class:`EventLog` must read as the plain list of events a queue used to
copy out, under every mix of per-event appends and bulk blocks — the
model-based property below drives both side by side — while ``len()``
builds nothing, a block's row is one object however it is reached, and
event ids keep submission order however late a row is built.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.common.errors import SimulationError
from repro.hw.records import KernelExecutionRecord, RecordBlock
from repro.sycl.event import BlockEvent, Event, EventBlock, EventLog


class _Kernel:
    def __init__(self, name: str) -> None:
        self.name = name


DEVICE = object()


def _record(i: int) -> KernelExecutionRecord:
    return KernelExecutionRecord(
        f"k{i}", "dev", 100 + i, 877, float(i), i + 0.5, 2.0 * i, 4.0, 0.5, 0.25
    )


def _event_block(first: int, n: int) -> EventBlock:
    """Rows ``first .. first + n - 1``: the records :func:`_record` makes."""
    rows = range(first, first + n)
    starts, ends = [float(i) for i in rows], [i + 0.5 for i in rows]
    records = RecordBlock(
        [_Kernel(f"k{i}") for i in rows], "dev", [100 + i for i in rows],
        [877] * n, starts, ends, [2.0 * i for i in rows], [4.0] * n,
        [0.5] * n, [0.25] * n,
    )
    return EventBlock(DEVICE, records, starts, ends)


class EventLogMachine(RuleBasedStateMachine):
    """``EventLog`` against a plain list, one operation at a time.

    A model entry is ``(event, block, row, event_id, start_s, end_s)``:
    ``event`` for a per-event append, ``block`` and ``row`` for a block's
    row, whose event is compared by identity only once someone reads it.
    """

    def __init__(self) -> None:
        super().__init__()
        self.log = EventLog()
        self.model: list[tuple] = []
        self.blocks: list[EventBlock] = []
        self.next_id = 0

    @staticmethod
    def _resolve(entry):
        event, block, row = entry[:3]
        return event if block is None else block[row]

    def _check(self, got, entry) -> None:
        event, block, row, event_id, start_s, end_s = entry
        assert (got.event_id, got.start_s, got.end_s) == (event_id, start_s, end_s)
        if block is None:
            assert got is event
        else:
            assert got is block[row] and got.record is block.records[row]

    @rule()
    def append(self):
        self.next_id += 1
        record = _record(self.next_id)
        event = Event(DEVICE, record.start_s, record.start_s, record.end_s, record)
        self.log.append(event)
        self.model.append(
            (event, None, None, event.event_id, record.start_s, record.end_s)
        )

    @rule(n=st.integers(0, 5))
    def append_block(self, n):
        built = [b.built for b in self.blocks]
        block = _event_block(self.next_id + 1, n)
        self.next_id += n
        self.log.append_block(block)
        self.model.extend(
            (None, block, i, block.first_id + i, float(k), k + 0.5)
            for i, k in enumerate(range(self.next_id - n + 1, self.next_id + 1))
        )
        # Appending builds neither the new block nor any earlier one.
        assert block.built == 0 and block.records.built == 0
        assert [b.built for b in self.blocks] == built
        self.blocks.append(block)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def read(self, data):
        i = data.draw(st.integers(-len(self.model), len(self.model) - 1))
        got = self.log[i]
        self._check(got, self.model[i])
        assert self.log[i] is got

    @rule(start=st.integers(-8, 8), stop=st.integers(-8, 8), step=st.sampled_from([1, 2, -1]))
    def read_slice(self, start, stop, step):
        window = self.model[start:stop:step]
        got = self.log[start:stop:step]
        assert len(got) == len(window)
        for event, entry in zip(got, window):
            self._check(event, entry)

    @rule(i=st.integers(-10, 10))
    def read_out_of_range(self, i):
        if -len(self.model) <= i < len(self.model):
            return
        with pytest.raises(IndexError):
            self.log[i]

    @rule()
    def compare(self):
        events = [self._resolve(e) for e in self.model]
        assert self.log == tuple(events)
        assert self.log == events
        assert not (self.log != tuple(events))
        assert self.log != tuple(events[:-1]) or not events
        assert self.log == EventLog(events)
        assert repr(self.log) == f"EventLog({events!r})"

    @rule()
    def ids_keep_submission_order(self):
        ids = [e.event_id for e in self.log]
        assert ids == sorted(set(ids))

    @invariant()
    def same_length(self):
        built = [(b.built, b.records.built) for b in self.blocks]
        assert len(self.log) == len(self.model)
        assert bool(self.log) == bool(self.model)
        # len() builds nothing.
        assert [(b.built, b.records.built) for b in self.blocks] == built


TestEventLogModel = EventLogMachine.TestCase
TestEventLogModel.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)


def test_a_block_row_is_built_once_and_shares_its_record():
    block = _event_block(0, 4)
    assert len(block) == 4 and block.built == 0
    event = block[-2]
    assert type(event) is BlockEvent and block[2] is event
    assert event.event_id == block.first_id + 2 and block.built == 1
    assert event.record is block.records[2] and block.records.built == 1
    assert (event.submit_s, event.start_s, event.end_s) == (2.0, 2.0, 2.5)
    assert list(block)[2] is event and block.built == 4
    with pytest.raises(IndexError):
        block[4]
    with pytest.raises(IndexError):
        block[-5]


def test_a_block_reserves_its_ids_when_made():
    first = _event_block(0, 3)
    single = Event(DEVICE, 0.0, 0.0, 1.0)
    second = _event_block(3, 2)
    assert first.first_id + 3 <= single.event_id < second.first_id
    assert [e.event_id for e in second] == [second.first_id, second.first_id + 1]


def test_a_block_rejects_out_of_order_timestamps_like_an_event():
    records = RecordBlock(
        [_Kernel("a"), _Kernel("b")], "dev", [1, 1], [1, 1], [0.0, 2.0],
        [1.0, 1.5], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
    )
    with pytest.raises(SimulationError) as block_error:
        EventBlock(DEVICE, records, [0.0, 2.0], [1.0, 1.5])
    with pytest.raises(SimulationError) as event_error:
        Event(DEVICE, 2.0, 2.0, 1.5)
    assert str(block_error.value) == str(event_error.value)


def test_an_empty_log_equals_the_empty_tuple():
    log = EventLog()
    log.append_block(_event_block(0, 0))
    assert log == () and log == [] and len(log) == 0
    assert list(log.parts()) == []
    with pytest.raises(TypeError):
        hash(log)
