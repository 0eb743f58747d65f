"""Wall-clock spans recorded by the harness around its calls into each layer.

A span is ``[name, start, end, parent, unit]``: ``parent`` is the index of
the enclosing span (``None`` for a unit's root) and ``unit`` the id of the
timed unit it belongs to. Spans stay in memory and are turned into a
per-span inclusive/self table and a Chrome trace when the run ends. A
span's self time is its duration minus the durations of its direct
children. Spans are only recorded while ``enabled`` is set; unit walls
are measured either way, since they are the end-to-end samples.
"""

from __future__ import annotations

import contextlib
import statistics
import time

#: Root span of every timed unit; its self time is harness time between
#: layer calls.
UNIT_SPAN = "bench.unit"


class _Span:
    __slots__ = ("_tracer", "_name", "_record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        tr = self._tracer
        stack = tr._stack
        parent = stack[-1] if stack else None
        self._record = [self._name, time.perf_counter(), None, parent, tr.unit_id]
        stack.append(len(tr.spans))
        tr.spans.append(self._record)

    def __exit__(self, *exc) -> None:
        self._record[2] = time.perf_counter()
        self._tracer._stack.pop()


_NOTHING = contextlib.nullcontext()


class _Unit:
    __slots__ = ("_tracer", "_root", "_t0", "kernels")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self.kernels = 0

    def __enter__(self) -> "_Unit":
        tr = self._tracer
        tr.unit_id += 1
        self._root = tr.span(UNIT_SPAN)
        self._root.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._t0
        self._root.__exit__(*exc)
        if exc[0] is None:
            self._tracer.units.append((wall, self.kernels, self._tracer.enabled))


class Tracer:
    """Span recorder plus the per-unit wall samples of one run."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        #: ``(wall_s, simulated kernels, traced)`` per timed unit.
        self.units: list[tuple[float, int, bool]] = []
        #: Per-call durations (s) of calls too frequent to record as spans.
        self.samples: dict[str, list[float]] = {}
        self.unit_id = 0
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager recording one call into a layer."""
        return _Span(self, name) if self.enabled else _NOTHING

    def unit(self) -> _Unit:
        """Context manager timing one end-to-end unit; set ``.kernels`` inside."""
        return _Unit(self)

    def sample(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    # ------------------------------------------------------------ reports

    def self_times(self) -> list[float]:
        """Self time (s) of every recorded span, by span index."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self time, share of unit wall."""
        traced_wall = sum(w for w, _, traced in self.units if traced)
        rows: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = rows.setdefault(span[0], {"calls": 0, "incl": [], "self_s": 0.0})
            row["calls"] += 1
            row["incl"].append(span[2] - span[1])
            row["self_s"] += own
        table = {}
        for name, row in sorted(rows.items()):
            incl = sorted(row.pop("incl"))
            table[name] = {
                "calls": row["calls"],
                "incl_s": sum(incl),
                "self_s": row["self_s"],
                "self_frac": row["self_s"] / traced_wall if traced_wall else 0.0,
                "p50_ms": 1e3 * statistics.median(incl),
                "max_ms": 1e3 * incl[-1],
            }
        return table

    def chrome_trace(self) -> dict:
        """The spans as Chrome ``traceEvents`` (complete events, microseconds)."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": parent, "unit": unit},
            }
            for i, (name, start, end, parent, unit) in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
