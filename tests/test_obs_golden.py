"""Golden-trace regression tests for the observability plane.

Each seeded scenario must export byte-identical Chrome trace and metrics
documents on every run, and those bytes must match the snapshots under
``tests/golden/``. To refresh the snapshots after an intentional change::

    PYTHONPATH=src python -m pytest tests/test_obs_golden.py --update-golden

then review and commit the diff (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.core.sweepcache import scoped_cache
from repro.obs.export import chrome_trace, dump_json, metrics_document
from repro.obs.scenarios import (
    SCENARIOS,
    certify_scenarios,
    golden_scenarios,
    run_scenario,
)
from repro.obs.session import TraceSession
from repro.validate.runner import run_validation

pytestmark = pytest.mark.obs

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Span categories every instrumented site must contribute across the
#: scenario suite (the acceptance bar of the tracing plane).
EXPECTED_SPAN_CATEGORIES = {
    "queue.submit",
    "queue.pre_kernel",
    "queue.kernel",
    "freq.set",
    "sensor.window",
    "predict",
    "slurm.job",
    "slurm.prologue",
    "slurm.epilogue",
    "mpi.collective",
}

EXPECTED_INSTANT_CATEGORIES = {
    "freq.reset",
    "freq.retry",
    "plugin.decision",
    "fault",
    "recovery",
}


def _render(name: str) -> tuple[object, str, str]:
    session = run_scenario(name)
    meta = {"scenario": name, "seed": 7}
    return (
        session,
        dump_json(chrome_trace(session, meta)),
        dump_json(metrics_document(session, meta)),
    )


@pytest.mark.parametrize("name", sorted(golden_scenarios()))
def test_two_same_seed_runs_are_byte_identical(name):
    _, trace1, metrics1 = _render(name)
    _, trace2, metrics2 = _render(name)
    assert trace1 == trace2
    assert metrics1 == metrics2


@pytest.mark.parametrize("name", sorted(golden_scenarios()))
def test_export_matches_golden_snapshot(name, request):
    session, trace_doc, metrics_doc = _render(name)
    assert all(sp.t1 is not None for sp in session.tracer.spans)
    trace_path = GOLDEN_DIR / f"{name}.trace.json"
    metrics_path = GOLDEN_DIR / f"{name}.metrics.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        trace_path.write_text(trace_doc)
        metrics_path.write_text(metrics_doc)
        pytest.skip(f"golden snapshots for {name!r} rewritten")
    assert trace_doc == trace_path.read_text(), (
        f"trace export for {name!r} drifted from {trace_path}; if the "
        "change is intentional, re-run with --update-golden"
    )
    assert metrics_doc == metrics_path.read_text(), (
        f"metrics export for {name!r} drifted from {metrics_path}; if the "
        "change is intentional, re-run with --update-golden"
    )


def test_every_instrumented_category_appears():
    """A traced end-to-end run records >0 events per site category."""
    span_cats: set[str] = set()
    instant_cats: set[str] = set()
    for name in golden_scenarios():
        session = run_scenario(name)
        counts = session.tracer.span_counts()
        assert counts, f"scenario {name!r} recorded no spans"
        span_cats |= set(counts)
        instant_cats |= set(session.tracer.instant_counts())
    missing = EXPECTED_SPAN_CATEGORIES - span_cats
    assert not missing, f"span categories never recorded: {sorted(missing)}"
    missing = EXPECTED_INSTANT_CATEGORIES - instant_cats
    assert not missing, f"instant categories never recorded: {sorted(missing)}"


def test_tracing_disabled_by_default_records_nothing(v100):
    """Without an explicit trace, hot paths see the shared no-op session."""
    from repro.core.queue import SynergyQueue
    from repro.obs.session import NULL_TRACE

    queue = SynergyQueue(v100)
    assert queue.trace is NULL_TRACE
    assert not queue.trace.enabled
    with queue.trace.span(v100.clock, "gpu0", "cat", "noop") as sp:
        sp.set(ignored=True)
    queue.trace.count("ignored")
    queue.trace.instant(0.0, "gpu0", "cat", "noop")
    assert NULL_TRACE.tracer.spans == []
    assert NULL_TRACE.tracer.instants == []
    assert NULL_TRACE.metrics.as_dict() == {
        "counters": {}, "gauges": {}, "histograms": {}
    }


def test_trace_document_shape():
    """Chrome trace_event essentials: metadata threads, sorted timestamps."""
    _, trace_doc, _ = _render("single-gpu")
    import json

    doc = json.loads(trace_doc)
    events = doc["traceEvents"]
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert {"gpu0", "sensor0"} <= names
    stamps = [e["ts"] for e in events if e["ph"] in ("X", "i")]
    assert stamps == sorted(stamps)
    assert all(e["dur"] >= 0.0 for e in events if e["ph"] == "X")


# ---------------------------------------------------------------- registry


def test_golden_dir_holds_exactly_the_golden_scenarios():
    """One trace and one metrics snapshot per golden scenario, plus the
    paper artifacts' numbers (tests/test_paper.py), no orphans."""
    expected = {
        f"{name}.{kind}.json"
        for name in golden_scenarios()
        for kind in ("trace", "metrics")
    } | {"paper.json"}
    assert {p.name for p in GOLDEN_DIR.iterdir()} == expected


def test_weak_scaling_is_certified_but_has_no_golden():
    assert golden_scenarios() == tuple(n for n in SCENARIOS if n != "weak-scaling")
    session = run_scenario("weak-scaling")
    # One span per graph node: kernels and halos on their rank's track,
    # gathers on ``mpi``.
    tracks = {span.track for span in session.tracer.spans}
    assert tracks == {f"rank{r}" for r in range(12)} | {"mpi"}
    assert "cache.sweep.misses" in session.metrics.as_dict()["counters"]


UNKNOWN_NAME_ENTRY_POINTS = {
    "run_scenario": lambda: run_scenario("warp-drive"),
    "certify_scenarios": lambda: certify_scenarios(
        scenarios=["single-gpu", "warp-drive"]
    ),
    # The section runs no scenario, so only the up-front check can raise.
    "run_validation": lambda: run_validation(["warp-drive"], only=["powercap"]),
}


@pytest.mark.parametrize("entry", sorted(UNKNOWN_NAME_ENTRY_POINTS))
def test_unknown_scenario_raises_one_error_before_any_work(entry):
    with pytest.raises(ConfigurationError) as exc:
        UNKNOWN_NAME_ENTRY_POINTS[entry]()
    assert str(exc.value) == (
        f"unknown scenario 'warp-drive'; known: {sorted(SCENARIOS)}"
    )


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_tracing_never_moves_a_measured_value(name):
    """A certificate brackets the untraced run; the golden pins the traced
    one. They must be the same run, bit for bit."""
    scenario = SCENARIOS[name]
    plain_outcome = scenario.run(7)
    traced_outcome = scenario.run(7, trace=TraceSession())
    with scoped_cache():
        plain = scenario.certify(plain_outcome)
        traced = scenario.certify(traced_outcome)
    assert [(c.quantity, c.measured) for c in traced.checks] == [
        (c.quantity, c.measured) for c in plain.checks
    ]
    assert traced.assertions == plain.assertions
