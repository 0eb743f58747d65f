"""Metrics registry: counters, gauges and histograms.

One :class:`MetricsRegistry` per trace session absorbs the counters that
were previously scattered across the stack (profiler fallbacks, sweep-cache
hits/misses, clock-set retries, scheduler requeues, fault-injector totals)
into a single named namespace, exported as one flat JSON document.

Everything is deterministic: no timestamps and no ordering dependence in
the export (names are sorted).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.common.errors import ValidationError

#: Default histogram bucket bounds: a decade grid wide enough for both
#: virtual durations (seconds) and energies (joules) in the simulation.
DEFAULT_BOUNDS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise ValidationError(f"counter increments cannot be negative ({n!r})")
        self.value += n


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bound bucketed distribution.

    ``bounds`` are the ascending upper edges; a value lands in the first
    bucket whose edge is >= the value, with one overflow bucket past the
    last edge (``len(bounds) + 1`` buckets total).
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValidationError(
                f"histogram bounds must be non-empty and strictly ascending "
                f"({bounds!r})"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def as_dict(self) -> dict:
        """Plain-dict form for JSON export."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Name-keyed counters, gauges and histograms, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -------------------------------------------------------------- creation

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # ----------------------------------------------------------- convenience

    def inc(self, name: str, n: int | float = 1) -> None:
        """Increment (creating if needed) a counter."""
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        """Set (creating if needed) a gauge."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Observe (creating if needed) into a default-bounds histogram."""
        self.histogram(name).observe(value)

    # --------------------------------------------------------------- export

    def as_dict(self) -> dict:
        """The whole registry as one sorted, JSON-serializable document."""
        return {
            "counters": {k: self._counters[k].value
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].as_dict()
                           for k in sorted(self._histograms)},
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int | float = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullMetrics(MetricsRegistry):
    """Recording-free registry handed out by the null trace session."""

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter()
        self._null_gauge = _NullGauge()
        self._null_histogram = _NullHistogram()

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name) -> Histogram:
        return self._null_histogram


NULL_METRICS = NullMetrics()
