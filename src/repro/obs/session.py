"""The trace session: one tracer plus one metrics registry.

Components across the stack accept an optional ``trace`` argument and
store ``resolve_trace(trace)`` — either a live :class:`TraceSession` or
the shared no-op :data:`NULL_TRACE`. Instrumented sites either call the
session's recording methods directly (no-ops when disabled) or guard a
block with ``if self.trace.enabled:`` when building attributes would
itself cost something.

The five ``absorb_*`` helpers pull the stack's pre-existing scattered
counters (queue/scaler/profiler statistics, the sweep-cache report,
fault-log totals, service-plane tenancy accounting, scheduler requeues)
into the session's metrics registry, so one exported document accounts
for a whole run.
"""

from __future__ import annotations

from repro.obs.metrics import (
    DEFAULT_BOUNDS,
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

def absorb_queue(trace: TraceSession, queue, prefix: str = "queue") -> None:
    """Pull a SynergyQueue's scattered statistics into the metrics plane.

    Covers the scaler (switches, retries, degraded requests) and profiler
    (fallbacks, zero-width windows) counters plus per-kernel totals.
    """
    if not trace.enabled:
        return
    summary = queue.summary()
    m = trace.metrics
    m.inc(f"{prefix}.kernels", int(summary["kernels"]))
    m.inc(f"{prefix}.clock_switches", int(summary["clock_switches"]))
    m.inc(f"{prefix}.clock_retries", int(summary["clock_retries"]))
    m.inc(f"{prefix}.degraded_kernels", int(summary["degraded_kernels"]))
    m.inc(f"{prefix}.failed_switches", queue.scaler.failed_switches)
    m.inc(f"{prefix}.energy_fallbacks", queue.profiler.fallback_count)
    m.inc(f"{prefix}.zero_width_windows", queue.profiler.zero_width_windows)
    h = m.histogram(f"{prefix}.kernel_time_s")
    for row in queue.kernel_stats():
        h.observe(row["time_s"])


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


def absorb_fault_log(trace: TraceSession, log) -> None:
    """Pull a FaultLog's totals into the metrics plane."""
    if not trace.enabled:
        return
    m = trace.metrics
    m.counter("faults.injected").value = len(log.faults)
    m.counter("faults.recoveries").value = len(log.recoveries)
    for site, n in sorted(log.counts().items()):
        m.counter(f"faults.site.{site}").value = n


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
