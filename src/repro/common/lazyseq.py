"""Sequences whose rows are built on first read.

The batched engine commits whole runs of kernels at once, and most of
its callers only count them. :class:`LazyRows` is one such run: it keeps
the run's columns and builds row ``i`` the first time someone reads it.
:class:`PartLog` chains runs (and plain lists) into one sequence that
grows at its end in O(1). The board's record log
(:class:`repro.hw.records.RecordLog`) and the queue's event log
(:class:`repro.sycl.event.EventLog`) are both built on them.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence


class LazyRows(Sequence):
    """``n`` rows, each built from the subclass's columns on first read.

    Row ``i`` is built once and cached, so ``rows[i] is rows[i]``. Once
    every row is built the columns are released (:meth:`_release`), so a
    fully read run holds no more than a list of its rows. Subclasses
    supply :meth:`_build` (one row), :meth:`_build_all` (every row, in
    one pass) and :meth:`_release`.
    """

    __slots__ = ("_rows", "_n", "_unbuilt")

    def __init__(self, n: int) -> None:
        self._rows: list | None = None
        self._n = self._unbuilt = n

    def _build(self, i: int):
        raise NotImplementedError

    def _build_all(self) -> list:
        raise NotImplementedError

    def _release(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int):
        n = self._n
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("row index out of range")
        rows = self._rows
        if rows is None:
            rows = self._rows = [None] * n
        row = rows[i]
        if row is None:
            row = rows[i] = self._build(i)
            self._unbuilt -= 1
            if not self._unbuilt:
                self._release()
        return row

    def __iter__(self):
        return iter(self.rows())

    @property
    def built(self) -> int:
        """How many rows have been built so far."""
        return self._n - self._unbuilt

    def rows(self) -> list:
        """Every row, building those not yet built."""
        if self._rows is None:
            self._rows = self._build_all()
            self._unbuilt = 0
            self._release()
        elif self._unbuilt:
            for i, row in enumerate(self._rows):
                if row is None:
                    self[i]
        return self._rows


class PartLog(Sequence):
    """A run of closed parts, then an open list that grows in O(1).

    Each closed part is a plain list or a :class:`LazyRows` (one bulk
    commit). ``len()`` reads no part; indexing, slicing, iteration and
    ``==`` build each row they reach once, and appending leaves earlier
    parts unbuilt. Compares equal to another log, or to a list or tuple
    (the types in ``_compares_with``), of the same rows.
    """

    __slots__ = ("_parts", "_ends", "_tail")
    _compares_with: tuple[type, ...] = (list, tuple)

    def __init__(self, rows=()) -> None:
        # Empty tuples until the first block: a queue or board that only
        # ever runs per event carries one list, as a plain list log did.
        self._parts: list[list | LazyRows] | tuple = ()
        #: Cumulative length after each closed part.
        self._ends: list[int] | tuple = ()
        self._tail: list = list(rows)

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
            raise IndexError(f"{type(self).__name__} index out of range")
        k = bisect.bisect_right(self._ends, i)
        return self._parts[k][i - (self._ends[k - 1] if k else 0)]

    def __iter__(self):
        for part in self._parts:
            yield from part
        yield from self._tail

    def parts(self):
        """The closed parts, then the open list when it is not empty."""
        yield from self._parts
        if self._tail:
            yield self._tail

    def append(self, row) -> None:
        """Add one row at the end, in O(1)."""
        self._tail.append(row)

    def append_block(self, block: LazyRows) -> None:
        """Add a bulk-committed run without building any of its rows."""
        if not len(block):
            return
        if not self._parts:
            self._parts, self._ends = [], []
        for part in (self._tail, block):
            if part:
                self._parts.append(part)
                self._ends.append(self._closed() + len(part))
        self._tail = []

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PartLog, *self._compares_with)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"
