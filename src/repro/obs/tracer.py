"""Span-based tracing keyed to virtual simulation time.

A :class:`Tracer` records three event kinds, all timestamped from
:class:`~repro.common.clock.VirtualClock` instances (never the wall
clock, so a seeded run always produces a byte-identical trace):

- *spans* — named intervals with a category, a *track* (the timeline they
  render on: a GPU, the SLURM controller, the MPI fabric) and free-form
  attributes. Spans opened through :meth:`Tracer.span` nest: the tracer
  keeps one open-span stack per track and records parent links, so a
  trace can answer "this clock change happened inside that kernel
  submission". Spans whose interval is only known after the fact (a
  kernel's execution window, a sensor sampling window) are recorded
  retroactively with :meth:`Tracer.add_span`.
- *instants* — zero-duration marks (a retry, an injected fault, a drain).

Tracing is **off by default** everywhere in the stack: instrumented
components hold the shared :data:`NULL_TRACER`, whose recording methods
are no-ops and whose ``span`` returns one reusable null context manager,
so the disabled cost per site is an attribute load and a truthiness
check. Enable tracing by passing a real recorder
(``SynergyQueue(trace=...)``, ``Cluster.build(trace=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ValidationError


@dataclass
class Span:
    """One recorded interval on a track."""

    span_id: int
    parent_id: int | None
    track: str
    category: str
    name: str
    t0: float
    t1: float | None = None
    attrs: dict = field(default_factory=dict)

    def set(self, **attrs) -> None:
        """Attach attributes to the span (any JSON-serializable values)."""
        self.attrs.update(attrs)

    @property
    def duration_s(self) -> float:
        """Span length in virtual seconds (0.0 while still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def as_dict(self) -> dict:
        """Plain-dict form (stable key order) for JSON export."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "track": self.track,
            "category": self.category,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": dict(self.attrs),
        }


@dataclass(frozen=True)
class Instant:
    """One zero-duration mark on a track."""

    t: float
    track: str
    category: str
    name: str
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "track": self.track,
            "category": self.category,
            "name": self.name,
            "attrs": dict(self.attrs),
        }


class _SpanContext:
    """Context manager closing a live span at the clock's exit time."""

    __slots__ = ("_tracer", "_clock", "span")

    def __init__(self, tracer: "Tracer", clock, span: Span) -> None:
        self._tracer = tracer
        self._clock = clock
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self.span, self._clock.now)


class _NullSpan(Span):
    """Shared inert span handed out by the null tracer."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(span_id=0, parent_id=None, track="", category="",
                         name="", t0=0.0, t1=0.0)

    def set(self, **attrs) -> None:  # no-op: never recorded
        pass


class _NullSpanContext:
    """Reusable no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class Tracer:
    """Ordered recorder of spans and instants in virtual time."""

    enabled: bool = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self._stacks: dict[str, list[Span]] = {}
        self._next_id: int = 1

    # ------------------------------------------------------------- recording

    def span(self, clock, track: str, category: str, name: str, **attrs):
        """Open a nested span; closes at ``clock.now`` when the ``with``
        block exits. Returns a context manager yielding the live
        :class:`Span` so callers can attach attributes mid-flight."""
        now = clock.now
        stack = self._stacks.setdefault(track, [])
        parent = stack[-1].span_id if stack else None
        sp = Span(
            span_id=self._next_id,
            parent_id=parent,
            track=track,
            category=category,
            name=name,
            t0=now,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(sp)
        stack.append(sp)
        return _SpanContext(self, clock, sp)

    def _close(self, span: Span, now: float) -> None:
        if now < span.t0:
            raise ValidationError(
                f"span {span.name!r} would close before it opened "
                f"(t0={span.t0!r}, now={now!r})"
            )
        span.t1 = now
        stack = self._stacks.get(span.track)
        if stack and stack[-1] is span:
            stack.pop()

    def add_span(
        self,
        track: str,
        category: str,
        name: str,
        t0: float,
        t1: float,
        **attrs,
    ) -> Span:
        """Record an already-finished interval (e.g. a kernel's execution
        window known only after the simulated launch). The span parents
        under the innermost open span of its track, if any."""
        if t1 < t0:
            raise ValidationError(
                f"span {name!r} interval reversed: [{t0!r}, {t1!r}]"
            )
        stack = self._stacks.get(track)
        parent = stack[-1].span_id if stack else None
        sp = Span(
            span_id=self._next_id,
            parent_id=parent,
            track=track,
            category=category,
            name=name,
            t0=t0,
            t1=t1,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(sp)
        return sp

    def instant(
        self, t: float, track: str, category: str, name: str, **attrs
    ) -> None:
        """Record a zero-duration mark."""
        self.instants.append(Instant(float(t), track, category, name, dict(attrs)))

    # ------------------------------------------------------------- reporting

    def span_counts(self) -> dict[str, int]:
        """Completed+open span count per category (sorted by category)."""
        out: dict[str, int] = {}
        for sp in self.spans:
            out[sp.category] = out.get(sp.category, 0) + 1
        return dict(sorted(out.items()))

    def instant_counts(self) -> dict[str, int]:
        """Instant count per category (sorted by category)."""
        out: dict[str, int] = {}
        for ev in self.instants:
            out[ev.category] = out.get(ev.category, 0) + 1
        return dict(sorted(out.items()))


class NullTracer(Tracer):
    """Recording-free tracer: every method is (amortized) allocation-free."""

    enabled = False

    def span(self, clock, track, category, name, **attrs):
        return NULL_SPAN_CONTEXT

    def add_span(self, track, category, name, t0, t1, **attrs) -> Span:
        return NULL_SPAN

    def instant(self, t, track, category, name, **attrs) -> None:
        pass


#: Shared inert singletons: the default "tracing off" recorder state.
NULL_SPAN = _NullSpan()
NULL_SPAN_CONTEXT = _NullSpanContext()
NULL_TRACER = NullTracer()
