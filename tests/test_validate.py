"""The invariant & differential validation plane (``repro.validate``).

Drives every checker in the catalog over real sweeps, scenarios and
power-cap states, exercises the differential harness, the opt-in inline
``validate=`` hooks on the queue and the cluster, and the report/metrics
export path. Deterministic regression tests for the two §2.3 power-cap
bugs live here too (the Hypothesis properties are in
``test_powercap_properties.py``).
"""

import math
import types

import pytest

from repro.apps import get_benchmark
from repro.common.errors import ConfigurationError, ValidationError
from repro.core.sweepcache import scoped_cache
from repro.experiments.sweep import sweep_kernel
from repro.hw.specs import AMD_MI100, NVIDIA_V100
from repro.slurm.powercap import PowerCapPlugin, redistribute_caps
from repro.validate import (
    CheckResult,
    InlineValidator,
    NULL_VALIDATOR,
    Severity,
    ValidationReport,
    resolve_validator,
    run_validation,
)
from repro.validate.differential import run_differential_checks
from repro.validate.invariants import (
    check_interior_energy_minimum,
    check_metrics_sanity,
    check_powercap_audit_roundtrip,
    check_powercap_conservation,
    check_sweep,
    check_trace_monotonicity,
)

pytestmark = pytest.mark.validate


# ------------------------------------------------------- results and report

class TestReport:
    def test_status_strings(self):
        assert CheckResult("a", True).status == "ok"
        assert CheckResult("a", False).status == "FAIL"
        assert CheckResult("a", False, severity=Severity.WARNING).status == "warn"

    def test_verdict_logic(self):
        report = ValidationReport()
        report.add(CheckResult("good", True))
        report.add(CheckResult("meh", False, "edge", Severity.WARNING))
        assert report.passed and report.ok(strict=False)
        assert not report.ok(strict=True)
        assert len(report.warnings) == 1 and not report.failures
        report.add(CheckResult("bad", False, "broken"))
        assert not report.passed and len(report.failures) == 1

    def test_as_dict_roundtrip(self):
        report = ValidationReport()
        report.add(CheckResult("x", False, "why", Severity.WARNING))
        doc = report.as_dict()
        assert doc["kind"] == "validation_report"
        assert doc["checks"] == 1 and doc["warnings"] == 1
        assert doc["results"][0] == {
            "name": "x", "passed": False, "severity": "warning", "detail": "why",
        }


# --------------------------------------------------------- sweep invariants

class TestSweepInvariants:
    @pytest.mark.parametrize("spec", [NVIDIA_V100, AMD_MI100], ids=lambda s: s.name)
    def test_catalog_holds_on_real_sweep(self, spec):
        with scoped_cache():
            sweep = sweep_kernel(spec, get_benchmark("gemm").kernel)
        results = check_sweep(sweep, spec)
        assert results and all(r.passed for r in results)

    def test_non_unimodal_energy_flagged(self):
        fake = types.SimpleNamespace(
            kernel_name="w", device_name="d",
            energy_j=[5.0, 2.0, 4.0, 1.0, 3.0],  # two valleys
        )
        by_name = {r.name: r for r in check_interior_energy_minimum(fake)}
        assert not by_name["sweep.energy_unimodal"].passed
        assert by_name["sweep.energy_unimodal"].severity is Severity.ERROR

    def test_edge_minimum_is_warning_only(self):
        fake = types.SimpleNamespace(
            kernel_name="w", device_name="d",
            energy_j=[1.0, 2.0, 3.0, 4.0],  # monotone: minimum on the edge
        )
        by_name = {r.name: r for r in check_interior_energy_minimum(fake)}
        assert by_name["sweep.energy_unimodal"].passed
        edge = by_name["sweep.energy_minimum_interior"]
        assert not edge.passed and edge.severity is Severity.WARNING


def test_front_violations_helper():
    from repro.metrics.pareto import front_violations, pareto_front_mask

    s = [1.0, 1.2, 0.9, 1.1]
    e = [1.0, 0.9, 1.1, 0.8]
    mask = pareto_front_mask(s, e)
    assert front_violations(s, e, mask) == (0, 0)
    # Claim a dominated point is on the front and drop a true front point.
    bad = [True, False, True, True]
    dominated_front, uncovered_off = front_violations(s, e, bad)
    assert dominated_front > 0 and uncovered_off > 0


def test_power_bounds_helper():
    from repro.hw.cache import models_for

    _, power_model = models_for(NVIDIA_V100)
    idle, peak = power_model.power_bounds()
    assert idle == NVIDIA_V100.idle_power_w
    assert peak == power_model.peak_power() and peak > idle


# --------------------------------------------------------- trace invariants

class TestTraceInvariants:
    def test_golden_scenario_traces_are_clean(self):
        from repro.obs.scenarios import run_scenario

        session = run_scenario("single-gpu", seed=7)
        results = check_trace_monotonicity(session) + check_metrics_sanity(session)
        assert results and all(r.passed for r in results)

    def test_inverted_span_flagged(self):
        tracer = types.SimpleNamespace(
            spans=[types.SimpleNamespace(t0=5.0, t1=1.0)],
            instants=[types.SimpleNamespace(t=-2.0)],
        )
        session = types.SimpleNamespace(tracer=tracer)
        by_name = {r.name: r for r in check_trace_monotonicity(session)}
        assert not by_name["trace.monotone_spans"].passed
        assert not by_name["trace.nonnegative_instants"].passed

    def test_open_span_counts_as_zero_width(self):
        tracer = types.SimpleNamespace(
            spans=[types.SimpleNamespace(t0=3.0, t1=None)], instants=[]
        )
        session = types.SimpleNamespace(tracer=tracer)
        assert all(r.passed for r in check_trace_monotonicity(session))


# ----------------------------------------------- power-cap bug regressions

class TestPowercapBugRegressions:
    """Deterministic witnesses for the two §2.3 conservation bugs."""

    def test_no_receiver_means_identity(self):
        # Everyone under threshold: the old code pooled the donations and
        # dropped them (no hungry node to receive), shrinking the budget.
        caps = [250.0, 250.0, 250.0]
        new = redistribute_caps(caps, [60.0, 70.0, 80.0], 80.0, 300.0)
        assert new == caps

    def test_ceiling_clip_remainder_returned_to_donors(self):
        # Two big donors, one hungry node already near the 210 W ceiling:
        # the old code clipped the grant at the ceiling and discarded the
        # remainder.
        caps = [200.0, 200.0, 200.0]
        new = redistribute_caps(caps, [10.0, 20.0, 199.0], 50.0, 210.0)
        assert sum(new) == pytest.approx(sum(caps), rel=1e-12)
        assert all(50.0 - 1e-9 <= c <= 210.0 + 1e-9 for c in new)
        assert new[2] == pytest.approx(210.0)

    def test_conservation_checker_passes_on_fixed_rule(self):
        for caps, usage, floor, ceiling in [
            ([250.0] * 3, [60.0, 70.0, 80.0], 80.0, 300.0),
            ([200.0] * 3, [10.0, 20.0, 199.0], 50.0, 210.0),
        ]:
            results = check_powercap_conservation(caps, usage, floor, ceiling)
            assert all(r.passed for r in results), [
                (r.name, r.detail) for r in results if not r.passed
            ]

    def test_plugin_records_clamped_limit(self):
        from repro.slurm.cluster import Cluster
        from repro.slurm.job import JobSpec
        from repro.slurm.scheduler import Scheduler

        cluster = Cluster.build(NVIDIA_V100, n_nodes=1, gpus_per_node=2)
        node = cluster.nodes[0]
        plugin = PowerCapPlugin(node_budget_w=10_000.0)  # 5 kW per board
        scheduler = Scheduler(cluster, plugins=[plugin])
        job = scheduler.submit(JobSpec(name="clamp", n_nodes=1, payload=lambda c: None))
        recorded = plugin.applied[(job.job_id, node.name)]
        # The boards clamp 5 kW to their factory limit; the audit trail
        # must record what was actually enforced, not the raw split.
        assert recorded == pytest.approx(node.gpus[0].default_power_limit_w)

    def test_plugin_rejects_gpuless_node(self):
        from repro.slurm.cluster import Cluster
        from repro.slurm.job import Job, JobSpec

        cluster = Cluster.build(NVIDIA_V100, n_nodes=1, gpus_per_node=1)
        node = cluster.nodes[0]
        node.gpus.clear()
        plugin = PowerCapPlugin(node_budget_w=300.0)
        job = Job(job_id=1, spec=JobSpec(name="empty", n_nodes=1, payload=lambda c: None))
        with pytest.raises(ValidationError, match="no GPUs"):
            plugin.prologue(job, node)

    def test_audit_roundtrip_checker(self):
        for budget in (10_000.0, 320.0):
            results = check_powercap_audit_roundtrip(NVIDIA_V100, node_budget_w=budget)
            assert all(r.passed for r in results), [
                (r.name, r.detail) for r in results if not r.passed
            ]


# ------------------------------------------------------------- differential

def test_differential_harness_all_green():
    with scoped_cache():
        results = run_differential_checks(NVIDIA_V100)
    assert results and all(r.passed for r in results), [
        (r.name, r.detail) for r in results if not r.passed
    ]


def test_reference_oracles_are_imported_only_by_the_validation_plane():
    """No module outside ``repro.validate`` imports the reference oracles,
    so an oracle never shares code with the production path it checks."""
    import ast
    from pathlib import Path

    import repro

    oracle = "repro.validate.reference"
    src = Path(repro.__file__).parent.parent
    importers = []
    for path in sorted(src.glob("repro/**/*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        if module.startswith("repro.validate"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
                names += [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if oracle in names:
                importers.append(f"{module}:{node.lineno}")
    assert importers == []


# --------------------------------------------------------- inline validator

def _fake_event(**overrides):
    spec = NVIDIA_V100
    record = types.SimpleNamespace(
        kernel_name="k", time_s=1.0, energy_j=50.0, avg_power_w=50.0,
        core_mhz=spec.default_core_mhz, mem_mhz=spec.default_mem_mhz,
    )
    for key, value in overrides.items():
        setattr(record, key, value)
    return types.SimpleNamespace(record=record, start_s=0.0, end_s=1.0)


def _fake_gpu():
    return types.SimpleNamespace(spec=NVIDIA_V100, power_limit_w=300.0, index=0)


class TestInlineValidator:
    def test_resolve_semantics(self):
        assert resolve_validator(None) is NULL_VALIDATOR
        assert resolve_validator(False) is NULL_VALIDATOR
        assert not NULL_VALIDATOR.enabled
        live = resolve_validator(True)
        assert isinstance(live, InlineValidator) and live.enabled and live.strict
        mine = InlineValidator(strict=False)
        assert resolve_validator(mine) is mine

    def test_consistent_event_passes(self):
        v = InlineValidator()
        v.check_kernel_event(_fake_gpu(), _fake_event())
        assert v.checks_run > 0 and not v.failures

    def test_strict_raises_on_energy_mismatch(self):
        v = InlineValidator()
        bad = _fake_event(energy_j=100.0)  # 50 W over 1 s cannot give 100 J
        with pytest.raises(ValidationError, match="inline.energy_power_time"):
            v.check_kernel_event(_fake_gpu(), bad)

    def test_non_strict_records_instead(self):
        v = InlineValidator(strict=False)
        v.check_kernel_event(_fake_gpu(), _fake_event(energy_j=100.0))
        assert [f.name for f in v.failures] == ["inline.energy_power_time"]

    def test_monotone_event_clock_per_device(self):
        v = InlineValidator(strict=False)
        first = _fake_event()
        first.start_s, first.end_s = 0.0, 5.0
        second = _fake_event()
        second.start_s, second.end_s = 1.0, 2.0  # ends before the first did
        gpu = _fake_gpu()
        v.check_kernel_event(gpu, first)
        v.check_kernel_event(gpu, second)
        assert "inline.monotone_event_clock" in {f.name for f in v.failures}


# ------------------------------------------------------------ opt-in hooks

class TestOptInHooks:
    def test_queue_hook_off_by_default(self):
        from repro.core.queue import SynergyQueue
        from repro.hw.device import SimulatedGPU

        queue = SynergyQueue(SimulatedGPU(NVIDIA_V100, index=0))
        assert queue.validator is NULL_VALIDATOR

    def test_queue_hook_validates_every_kernel(self):
        from repro.core.queue import SynergyQueue
        from repro.hw.device import SimulatedGPU

        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        queue = SynergyQueue(gpu, validate=True)
        kernel = get_benchmark("gemm").kernel
        for _ in range(2):
            queue.submit(lambda h, k=kernel: h.parallel_for(k.work_items, k))
        queue.wait()
        assert queue.validator.checks_run > 0
        assert not queue.validator.failures

    def test_cluster_hook_checks_provisioning(self):
        from repro.slurm.cluster import Cluster

        plain = Cluster.build(NVIDIA_V100, n_nodes=1, gpus_per_node=2)
        assert not plain.validator.enabled
        validator = InlineValidator(strict=False)
        cluster = Cluster.build(
            NVIDIA_V100, n_nodes=2, gpus_per_node=2, validate=validator
        )
        assert cluster.validator is validator
        assert validator.checks_run > 0 and not validator.failures

    def test_mpi_rank_binding_checked_on_validated_cluster(self):
        from repro.mpi.launcher import launch_ranks
        from repro.slurm.cluster import Cluster
        from repro.slurm.job import JobSpec, JobState
        from repro.slurm.scheduler import Scheduler

        validator = InlineValidator(strict=False)
        cluster = Cluster.build(
            NVIDIA_V100, n_nodes=2, gpus_per_node=2, validate=validator
        )
        before = validator.checks_run
        scheduler = Scheduler(cluster)
        job = scheduler.submit(
            JobSpec(name="mpi", n_nodes=2, payload=lambda c: launch_ranks(c).size)
        )
        assert job.state is JobState.COMPLETED and job.result == 4
        assert validator.checks_run > before
        assert not validator.failures

    def test_rank_binding_violations_flagged(self):
        comm = types.SimpleNamespace(
            gpus=["a", "a"], node_of_rank=[1, 0], size=2
        )
        context = types.SimpleNamespace(
            nodes=[types.SimpleNamespace(gpus=[])] * 2
        )
        v = InlineValidator(strict=False)
        v.check_rank_binding(comm, context)
        names = {f.name for f in v.failures}
        assert "inline.node_major_binding" in names
        assert "inline.boards_bound_once" in names
        assert "inline.rank_on_allocated_node" in names


# ----------------------------------------------------- runner and obs export

class TestRunner:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown validation sections"):
            run_validation(only=("nope",))

    def test_full_run_is_strict_clean(self):
        report = run_validation()
        assert len(report.results) > 100
        assert report.ok(strict=True), [
            (r.name, r.detail) for r in report.results if not r.passed
        ]

    def test_section_subset(self):
        report = run_validation(only=("powercap",))
        names = {r.name for r in report.results}
        assert any(n.startswith("powercap.") for n in names)
        assert not any(n.startswith("sweep.") for n in names)

    def test_service_section_registered(self):
        from repro.obs.scenarios import golden_scenarios
        from repro.validate.runner import SECTIONS

        assert "service" in SECTIONS
        assert "multi-tenant" in golden_scenarios()

    def test_service_section_is_strict_clean(self):
        report = run_validation(only=("service",))
        names = {r.name for r in report.results}
        assert "service.replay_byte_identity" in names
        assert "service.quota_conservation" in names
        assert "service.rejections_exercised" in names
        assert report.ok(strict=True), [
            (r.name, r.detail) for r in report.results if not r.passed
        ]
