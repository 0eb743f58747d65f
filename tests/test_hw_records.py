"""The per-board record log: a list of records, built on first read.

:class:`RecordLog` must behave as a plain ``list`` of
:class:`KernelExecutionRecord` under every mix of appends, bulk blocks,
reads and mutation — the model-based property below drives both side
by side — while ``len()`` builds nothing and every row, once built, is
one object however it is reached.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.hw.records import KernelExecutionRecord, RecordBlock, RecordLog


class _Kernel:
    def __init__(self, name: str) -> None:
        self.name = name


def _record(i: int) -> KernelExecutionRecord:
    return KernelExecutionRecord(
        f"k{i}", "dev", 100 + i, 877, float(i), i + 0.5, 2.0 * i, 4.0, 0.5, 0.25
    )


def _block(first: int, n: int) -> RecordBlock:
    """Rows ``first .. first + n - 1``: the records :func:`_record` makes."""
    rows = range(first, first + n)
    return RecordBlock(
        [_Kernel(f"k{i}") for i in rows],
        "dev",
        [100 + i for i in rows],
        [877] * n,
        [float(i) for i in rows],
        [i + 0.5 for i in rows],
        [2.0 * i for i in rows],
        [4.0] * n,
        [0.5] * n,
        [0.25] * n,
    )


class RecordLogMachine(RuleBasedStateMachine):
    """``RecordLog`` against a plain list, one operation at a time."""

    def __init__(self) -> None:
        super().__init__()
        self.log = RecordLog()
        self.model: list[KernelExecutionRecord] = []
        self.blocks: list[RecordBlock] = []
        self.next_id = 0

    def _fresh(self) -> KernelExecutionRecord:
        self.next_id += 1
        return _record(self.next_id)

    @rule()
    def append(self):
        record = self._fresh()
        self.log.append(record)
        self.model.append(record)

    @rule(n=st.integers(0, 5))
    def append_block(self, n):
        block = _block(self.next_id + 1, n)
        self.next_id += n
        built = [b.built for b in self.blocks]
        self.log.append_block(block)
        self.model.extend(_record(self.next_id - n + 1 + i) for i in range(n))
        # Appending builds neither the new block nor any earlier one.
        assert block.built == 0
        assert [b.built for b in self.blocks] == built
        self.blocks.append(block)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def read(self, data):
        i = data.draw(st.integers(-len(self.model), len(self.model) - 1))
        assert self.log[i] == self.model[i]
        assert self.log[i] is self.log[i]

    @rule(start=st.integers(-8, 8), stop=st.integers(-8, 8), step=st.sampled_from([1, 2, -1]))
    def read_slice(self, start, stop, step):
        assert self.log[start:stop:step] == self.model[start:stop:step]

    @rule(i=st.integers(-10, 10))
    def read_out_of_range(self, i):
        if -len(self.model) <= i < len(self.model):
            return
        with pytest.raises(IndexError):
            self.log[i]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def set_item(self, data):
        i = data.draw(st.integers(-len(self.model), len(self.model) - 1))
        record = self._fresh()
        self.log[i] = record
        self.model[i] = record

    @rule(i=st.integers(-6, 6))
    def insert(self, i):
        record = self._fresh()
        self.log.insert(i, record)
        self.model.insert(i, record)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        i = data.draw(st.integers(-len(self.model), len(self.model) - 1))
        del self.log[i]
        del self.model[i]

    @rule()
    def compare(self):
        assert self.log == self.model
        assert self.log == RecordLog(self.model)
        assert not (self.log != self.model)
        assert repr(self.log) == f"RecordLog({self.model!r})"

    @invariant()
    def same_length_and_rows(self):
        built = [b.built for b in self.blocks]
        assert len(self.log) == len(self.model)
        assert bool(self.log) == bool(self.model)
        # len() builds nothing.
        assert [b.built for b in self.blocks] == built
        assert list(self.log) == self.model
        # Every built row is the one the log hands out again.
        assert all(a is b for a, b in zip(self.log, self.log))


TestRecordLogModel = RecordLogMachine.TestCase
TestRecordLogModel.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)


def test_a_block_row_is_built_once_and_shared():
    block = _block(0, 4)
    assert len(block) == 4 and block.built == 0
    row = block[2]
    assert row == _record(2)
    assert block[2] is row and block.built == 1
    assert list(block) == [_record(i) for i in range(4)]
    assert list(block)[2] is row and block.built == 4


def test_mutation_folds_the_log_and_keeps_built_rows():
    block = _block(0, 3)
    log = RecordLog()
    log.append_block(block)
    first = log[0]
    log.insert(0, _record(9))
    # The block itself is never edited: its rows stay what they were.
    assert log[1] is first is block[0]
    assert [r.kernel_name for r in log] == ["k9", "k0", "k1", "k2"]
    del log[1]
    assert len(block) == 3 and block[0] is first


def test_a_log_is_not_equal_to_a_tuple():
    log = RecordLog([_record(1)])
    assert log != (_record(1),)
    assert log == [_record(1)]
    with pytest.raises(TypeError):
        hash(log)
