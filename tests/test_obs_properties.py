"""Property-based tests: tracer and metrics invariants under random use."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

pytestmark = pytest.mark.obs

# --------------------------------------------------------------------- tracer

# A random tracer workload: each op either opens a span, closes the
# innermost open one, records an instant, or advances the clock.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["open", "close", "instant", "advance"]),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.sampled_from(["gpu0", "slurm", "mpi"]),
    ),
    max_size=60,
)


def _run_workload(ops):
    clock = VirtualClock()
    tracer = Tracer()
    open_stack: list = []  # (context, track) in open order
    for kind, delta, track in ops:
        if kind == "open":
            ctx = tracer.span(clock, track, "cat", f"s{len(tracer.spans)}")
            ctx.__enter__()
            open_stack.append(ctx)
        elif kind == "close" and open_stack:
            open_stack.pop().__exit__(None, None, None)
        elif kind == "instant":
            tracer.instant(clock.now, track, "mark", "m")
        elif kind == "advance":
            clock.advance(delta)
    while open_stack:
        open_stack.pop().__exit__(None, None, None)
    return tracer


class TestTracerProperties:
    @given(_ops)
    @settings(max_examples=80)
    def test_spans_close_and_have_nonnegative_duration(self, ops):
        tracer = _run_workload(ops)
        for sp in tracer.spans:
            assert sp.t1 is not None
            assert sp.t1 >= sp.t0 >= 0.0

    @given(_ops)
    @settings(max_examples=80)
    def test_spans_are_well_nested_within_parents(self, ops):
        tracer = _run_workload(ops)
        by_id = {sp.span_id: sp for sp in tracer.spans}
        for sp in tracer.spans:
            if sp.parent_id is None:
                continue
            parent = by_id[sp.parent_id]
            assert parent.track == sp.track
            assert parent.t0 <= sp.t0
            assert sp.t1 <= parent.t1

    @given(_ops)
    @settings(max_examples=40)
    def test_span_counts_total_matches_recorded_spans(self, ops):
        tracer = _run_workload(ops)
        assert sum(tracer.span_counts().values()) == len(tracer.spans)
        assert sum(tracer.instant_counts().values()) == len(tracer.instants)


# -------------------------------------------------------------------- metrics

class TestMetricsProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["site.a", "site.b", "site.c"]),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=60,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80)
    def test_counter_totals_equal_per_site_sums_any_interleaving(
        self, increments, rng
    ):
        """Counter totals are order-independent across interleaved sites."""
        shuffled = list(increments)
        rng.shuffle(shuffled)
        registry = MetricsRegistry()
        for name, n in shuffled:
            registry.inc(name, n)
        expected: dict[str, int] = {}
        for name, n in increments:
            expected[name] = expected.get(name, 0) + n
        for name, total in expected.items():
            assert registry.counter(name).value == total
