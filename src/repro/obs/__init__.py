"""Observability plane: virtual-time tracing and metrics (``repro.obs``).

A :class:`~repro.obs.session.TraceSession` bundles a span tracer keyed to
the simulation's virtual clocks with a metrics registry (counters, gauges,
histograms). Components across the stack accept an optional ``trace``
argument; without one they share a no-op session, so the hot paths stay
unaffected when tracing is off.

Exporters produce Chrome ``trace_event`` JSON (Perfetto /
``chrome://tracing``) and a flat metrics document, both byte-deterministic
for seeded runs — the foundation of the golden-trace regression tests.
See ``docs/OBSERVABILITY.md`` for the span taxonomy.
"""

from repro.obs.export import (
    chrome_trace,
    dump_json,
    metrics_document,
    write_metrics_json,
    write_trace_json,
)
from repro.obs.dist import emit_graph_trace
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.session import (
    NULL_TRACE,
    TraceSession,
    absorb_cache_report,
    absorb_scheduler,
    resolve_trace,
)
from repro.obs.tracer import Instant, NullTracer, Span, Tracer

__all__ = [
    "NULL_TRACE",
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "TraceSession",
    "Tracer",
    "absorb_cache_report",
    "absorb_scheduler",
    "chrome_trace",
    "dump_json",
    "emit_graph_trace",
    "metrics_document",
    "resolve_trace",
    "write_metrics_json",
    "write_trace_json",
]
