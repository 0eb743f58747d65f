"""The trace session: one tracer plus one metrics registry.

Components across the stack accept an optional ``trace`` argument and
store ``resolve_trace(trace)`` — either a live :class:`TraceSession` or
the shared no-op :data:`NULL_TRACE`. Instrumented sites either call the
session's recording methods directly (no-ops when disabled) or guard a
block with ``if self.trace.enabled:`` when building attributes would
itself cost something.

Queue, scaler, profiler and fault-injector counters are recorded live,
as they happen. The three ``absorb_*`` helpers copy the end-of-run
reports that have no live twin (the sweep-cache report, service-plane
tenancy accounting, scheduler job states) into the session's metrics
registry, so one exported document accounts for a whole run.
"""

from __future__ import annotations

from repro.obs.metrics import (
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
)
from repro.obs.tracer import NULL_SPAN_CONTEXT, NullTracer, Tracer, NULL_TRACER


class TraceSession:
    """A live recording: spans, instants and metrics for one run."""

    enabled: bool = True

    def __init__(self) -> None:
        self.tracer: Tracer = Tracer()
        self.metrics: MetricsRegistry = MetricsRegistry()

    # ------------------------------------------------------------ delegation

    def span(self, clock, track: str, category: str, name: str, **attrs):
        """Open a nested span closing at ``clock.now`` on block exit."""
        return self.tracer.span(clock, track, category, name, **attrs)

    def add_span(self, track, category, name, t0, t1, **attrs):
        """Record an already-finished interval."""
        return self.tracer.add_span(track, category, name, t0, t1, **attrs)

    def instant(self, t, track, category, name, **attrs) -> None:
        """Record a zero-duration mark."""
        self.tracer.instant(t, track, category, name, **attrs)

    def count(self, name: str, n: int | float = 1) -> None:
        """Increment a named counter."""
        self.metrics.inc(name, n)

    def observe(self, name: str, value: float) -> None:
        """Observe into a named default-bounds histogram."""
        self.metrics.observe(name, value)

    def gauge(self, name: str, value: float) -> None:
        """Set a named gauge."""
        self.metrics.set_gauge(name, value)


class _NullSession(TraceSession):
    """The default: every recording method is a no-op."""

    enabled = False

    def __init__(self) -> None:
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS

    def span(self, clock, track, category, name, **attrs):
        return NULL_SPAN_CONTEXT

    def add_span(self, track, category, name, t0, t1, **attrs):
        return None

    def instant(self, t, track, category, name, **attrs) -> None:
        pass

    def count(self, name, n=1) -> None:
        pass

    def observe(self, name, value) -> None:
        pass

    def gauge(self, name, value) -> None:
        pass


#: Shared "tracing off" session installed everywhere by default.
NULL_TRACE = _NullSession()


def resolve_trace(trace: "TraceSession | None") -> TraceSession:
    """Map a component's ``trace`` argument to a session (None → no-op)."""
    return trace if trace is not None else NULL_TRACE


# ------------------------------------------------------------------ absorb

def absorb_cache_report(trace: TraceSession) -> None:
    """Snapshot the fast-path cache counters (sweep + predictor curves)."""
    if not trace.enabled:
        return
    from repro.core.sweepcache import cache_report

    m = trace.metrics
    for domain, stats in cache_report().items():
        m.counter(f"cache.{domain}.hits").value = int(stats["hits"])
        m.counter(f"cache.{domain}.misses").value = int(stats["misses"])
        if "entries" in stats:
            m.set_gauge(f"cache.{domain}.entries", stats["entries"])


def absorb_service(trace: TraceSession, service) -> None:
    """Pull the service plane's tenancy accounting into the metrics plane.

    Cluster-level counters (tenants, cycles, admissions, rejections,
    drains) plus one metric family per tenant
    (``service.tenant.<name>.*``) — the Wattlytics-style per-tenant
    energy/savings attribution, exported with everything else.
    """
    if not trace.enabled:
        return
    m = trace.metrics
    report = service.report()
    cluster = report["cluster"]
    m.counter("service.tenants").value = int(cluster["n_tenants"])
    m.counter("service.cycles").value = int(cluster["cycles"])
    m.counter("service.admitted").value = int(cluster["submissions"])
    m.counter("service.rejected").value = int(cluster["rejections"])
    m.counter("service.drained").value = int(cluster["drained"])
    m.set_gauge("service.kernel_energy_j", cluster["kernel_energy_j"])
    m.set_gauge("service.board_energy_j", cluster["board_energy_j"])
    m.set_gauge("service.saved_j", cluster["saved_j"])
    for row in report["tenants"]:
        prefix = f"service.tenant.{row['tenant']}"
        m.counter(f"{prefix}.admitted").value = int(row["admitted"])
        m.counter(f"{prefix}.rejected").value = int(row["rejected"])
        m.counter(f"{prefix}.drained").value = int(row["drained"])
        m.set_gauge(f"{prefix}.energy_j", row["energy_j"])
        m.set_gauge(f"{prefix}.saved_j", row["saved_j"])


def absorb_scheduler(trace: TraceSession, scheduler) -> None:
    """Pull scheduler job-state totals (incl. requeues) into metrics."""
    if not trace.enabled:
        return
    m = trace.metrics
    states: dict[str, int] = {}
    requeues = 0
    for job in scheduler.jobs.values():
        states[job.state.value] = states.get(job.state.value, 0) + 1
        if job.requeue_of is not None:
            requeues += 1
    for state, n in sorted(states.items()):
        m.counter(f"slurm.jobs.{state}").value = n
    m.counter("slurm.requeues").value = requeues
