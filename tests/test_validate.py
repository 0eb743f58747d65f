"""The invariant & differential validation plane (``repro.validate``).

Drives every checker in the catalog over real sweeps, scenarios and
power-cap states, exercises the differential harness, the post-hoc
record, posture and binding checks (one corruption per check), and the
report/metrics export path. Deterministic regression tests for the two §2.3 power-cap
bugs live here too (the Hypothesis properties are in
``test_powercap_properties.py``).
"""

import dataclasses
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
    Severity,
    ValidationReport,
    run_validation,
)
from repro.validate.differential import run_differential_checks
from repro.validate.invariants import (
    check_cluster_posture,
    check_interior_energy_minimum,
    check_kernel_records,
    check_metrics_sanity,
    check_powercap_audit_roundtrip,
    check_powercap_conservation,
    check_rank_binding,
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


def _importers(module_filter, imported) -> list[str]:
    """``module:line`` of every import in ``src/repro`` whose module passes
    ``module_filter`` and whose imported name passes ``imported``."""
    import ast
    from pathlib import Path

    import repro

    src = Path(repro.__file__).parent.parent
    found = []
    for path in sorted(src.glob("repro/**/*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        if not module_filter(module):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
                names += [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(imported(name) for name in names):
                found.append(f"{module}:{node.lineno}")
    return found


def test_reference_oracles_are_imported_only_by_the_validation_plane():
    """No module outside ``repro.validate`` imports the reference oracles,
    so an oracle never shares code with the production path it checks."""
    assert _importers(
        lambda module: not module.startswith("repro.validate"),
        lambda name: name == "repro.validate.reference",
    ) == []


#: Packages a run goes through: none may import the validation plane,
#: which checks what they leave behind after the fact.
PRODUCTION_PACKAGES = (
    "core", "engine", "hw", "slurm", "mpi", "sycl", "service",
    "distributed", "vendor", "adapt", "obs",
)


def test_production_packages_never_import_the_validation_plane():
    assert _importers(
        lambda module: module.split(".")[1] in PRODUCTION_PACKAGES,
        lambda name: name == "repro.validate" or name.startswith("repro.validate."),
    ) == []


# ------------------------------------------------------ post-hoc run checks

def _run_board():
    """A V100 that ran a short per-event kernel mix; returns the board."""
    from repro.core.queue import SynergyQueue
    from repro.hw.device import SimulatedGPU

    gpu = SimulatedGPU(NVIDIA_V100, index=0)
    queue = SynergyQueue(gpu)
    table = NVIDIA_V100.core_freqs_mhz
    for i, name in enumerate(("gemm", "sobel3", "median")):
        kernel = get_benchmark(name).kernel
        queue.submit(
            NVIDIA_V100.default_mem_mhz, table[-1 - 9 * i],
            lambda h, k=kernel: h.parallel_for(k.work_items, k),
        )
    queue.wait()
    return gpu


def _failing(results) -> list[str]:
    return [r.name for r in results if not r.passed]


#: One corruption per record check; each breaks exactly that check.
RECORD_CORRUPTIONS = {
    "records.event_window": lambda r: {
        "start_s": -1.0, "energy_j": r.avg_power_w * (r.end_s + 1.0),
    },
    # Zero time with energy under the E = P·t floor (1e-6 of 1e-12 J).
    "records.time_positive": lambda r: {"end_s": r.start_s, "energy_j": 1e-19},
    "records.energy_positive": lambda r: {"energy_j": 0.0, "avg_power_w": 0.0},
    "records.energy_power_time": lambda r: {"energy_j": 2.0 * r.energy_j},
    "records.core_clock_in_table": lambda r: {"core_mhz": 1},
    "records.mem_clock_in_table": lambda r: {"mem_mhz": 1},
    "records.power_under_limit": lambda r: {
        "avg_power_w": 1e4, "energy_j": 1e4 * r.time_s,
    },
    # Moved to t = 0, duration unchanged: it now ends before record 0.
    "records.monotone_end_times": lambda r: {"start_s": 0.0, "end_s": r.time_s},
}


class TestInlineValidator:
    """The inline validator's kernel checks, restated by
    :func:`check_kernel_records` over ``gpu.records`` after the run."""

    def test_resolve_semantics(self):
        """``validate=`` survives on the queue as a ``None``-only argument."""
        from repro.core.queue import SynergyQueue
        from repro.hw.device import SimulatedGPU

        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        SynergyQueue(gpu, validate=None)
        for value in (True, False, object()):
            with pytest.raises(ConfigurationError, match="check_kernel_records"):
                SynergyQueue(gpu, validate=value)

    def test_consistent_event_passes(self):
        results = check_kernel_records(_run_board())
        assert [r.name for r in results] == [*RECORD_CORRUPTIONS]
        assert _failing(results) == []

    @pytest.mark.parametrize("name", sorted(RECORD_CORRUPTIONS))
    def test_one_corrupt_record_fails_exactly_its_check(self, name):
        gpu = _run_board()
        record = gpu.records[1]
        gpu.records[1] = dataclasses.replace(record, **RECORD_CORRUPTIONS[name](record))
        assert _failing(check_kernel_records(gpu)) == [name]

    def test_power_limit_is_the_one_in_effect_at_kernel_start(self):
        gpu = _run_board()
        limit = gpu.records[-1].avg_power_w * 0.9
        start = gpu.clock.now
        gpu.set_power_limit(limit, privileged=True)
        # Earlier records ran at the default limit: still legal.
        assert _failing(check_kernel_records(gpu)) == []
        # A record starting under the cap may not draw above it, even
        # once the board's limit is back at the default.
        gpu.records.append(
            dataclasses.replace(
                gpu.records[-1],
                start_s=start,
                end_s=start + 1.0,
                avg_power_w=limit * 1.01,
                energy_j=limit * 1.01,
            )
        )
        gpu.clock.advance_to(start + 1.0)
        gpu.reset_power_limit(privileged=True)
        assert _failing(check_kernel_records(gpu)) == ["records.power_under_limit"]

    def test_monotone_event_clock_per_device(self):
        first, second = _run_board(), _run_board()
        late = first.records[-1]
        # Each board's records stand alone: two boards may overlap.
        second.records.insert(0, dataclasses.replace(late))
        assert _failing(check_kernel_records(first)) == []
        assert _failing(check_kernel_records(second)) == [
            "records.monotone_end_times"
        ]


def _fresh_cluster():
    from repro.slurm.cluster import Cluster

    return Cluster.build(NVIDIA_V100, n_nodes=2, gpus_per_node=2)


def _bound_comm():
    """A whole-cluster job's communicator and its allocation."""
    from repro.mpi.launcher import launch_ranks
    from repro.slurm.job import JobSpec, JobState
    from repro.slurm.scheduler import Scheduler

    job = Scheduler(_fresh_cluster()).submit(
        JobSpec(name="mpi", n_nodes=2, payload=lambda c: (launch_ranks(c), c.nodes))
    )
    assert job.state is JobState.COMPLETED
    return job.result


def _swap_ranks(comm, i, j):
    comm.gpus[i], comm.gpus[j] = comm.gpus[j], comm.gpus[i]
    comm.node_of_rank[i], comm.node_of_rank[j] = (
        comm.node_of_rank[j], comm.node_of_rank[i],
    )


def _rebind(comm, rank, gpu):
    comm.gpus[rank] = gpu


#: One corruption per posture check; each breaks exactly that check.
POSTURE_CORRUPTIONS = {
    "posture.unique_board_indices": lambda c: setattr(
        c.nodes[1].gpus[0], "index", c.nodes[0].gpus[0].index
    ),
    "posture.api_restricted": lambda c: c.nodes[0].gpus[1].set_api_restriction(
        False
    ),
    "posture.default_clocks": lambda c: c.nodes[1].gpus[1].set_application_clocks(
        NVIDIA_V100.default_mem_mhz, NVIDIA_V100.core_freqs_mhz[0], privileged=True
    ),
    "posture.board_clock_aligned": lambda c: c.nodes[0].gpus[0].clock.advance(1.0),
}

#: One corruption per binding check; each breaks exactly that check.
BINDING_CORRUPTIONS = {
    "binding.rank_per_board": lambda comm: comm.node_of_rank.append(1),
    "binding.node_major": lambda comm: _swap_ranks(comm, 1, 2),
    "binding.boards_bound_once": lambda comm: _rebind(comm, 1, comm.gpus[0]),
    "binding.rank_on_allocated_node": lambda comm: _rebind(
        comm, 3, _fresh_cluster().nodes[0].gpus[0]
    ),
}


class TestOptInHooks:
    """Where the retired opt-in hooks ran (queue, cluster build, MPI
    launch), the post-hoc checks read what each left behind."""

    def test_queue_hook_off_by_default(self):
        from repro.core.queue import SynergyQueue
        from repro.hw.device import SimulatedGPU
        from repro.slurm.job import JobContext

        assert JobContext(job_id=1, nodes=[], clock=None).validator is None
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        result = SynergyQueue(gpu, validate=None).submit_batch(
            [get_benchmark("gemm").kernel] * 2
        )
        assert result.fallback is None

    def test_queue_hook_validates_every_kernel(self):
        gpu = _run_board()
        results = check_kernel_records(gpu, context="board")
        assert _failing(results) == []
        assert {r.detail for r in results} == {"board: 0 of 3 records fail"}

    def test_cluster_hook_checks_provisioning(self):
        results = check_cluster_posture(_fresh_cluster())
        assert [r.name for r in results] == [*POSTURE_CORRUPTIONS]
        assert _failing(results) == []

    @pytest.mark.parametrize("name", sorted(POSTURE_CORRUPTIONS))
    def test_one_corrupt_board_fails_exactly_its_posture_check(self, name):
        cluster = _fresh_cluster()
        POSTURE_CORRUPTIONS[name](cluster)
        assert _failing(check_cluster_posture(cluster)) == [name]

    def test_mpi_rank_binding_checked_on_validated_cluster(self):
        comm, nodes = _bound_comm()
        results = check_rank_binding(comm, nodes)
        assert [r.name for r in results] == [*BINDING_CORRUPTIONS]
        assert comm.size == 4 and _failing(results) == []

    @pytest.mark.parametrize("name", sorted(BINDING_CORRUPTIONS))
    def test_one_corrupt_binding_fails_exactly_its_check(self, name):
        comm, nodes = _bound_comm()
        BINDING_CORRUPTIONS[name](comm)
        assert _failing(check_rank_binding(comm, nodes)) == [name]

    def test_rank_binding_violations_flagged(self):
        comm = types.SimpleNamespace(
            gpus=["a", "a"], node_of_rank=[1, 0], size=2
        )
        nodes = [types.SimpleNamespace(gpus=[])] * 2
        assert _failing(check_rank_binding(comm, nodes)) == [
            "binding.node_major",
            "binding.boards_bound_once",
            "binding.rank_on_allocated_node",
        ]


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

    def test_run_checks_read_fast_path_output(self):
        """The record checks run on batches that took the vectorized path:
        the engine section's plain, capped and fault-split batches and the
        multi-tenant scenario's boards."""
        report = run_validation(
            ["single-gpu", "multi-tenant"], only=("cluster", "scenarios", "engine")
        )
        assert report.ok(strict=True), [
            (r.name, r.detail) for r in report.results if not r.passed
        ]
        rows = [r for r in report.results if r.name == "records.power_under_limit"]
        contexts = [r.detail.split(":")[0] for r in rows]
        assert contexts[0] == "single-gpu/gpu0"
        assert sum(c.startswith("multi-tenant/") for c in contexts) > 1
        engine = [c for c in contexts if c.startswith("batched ")]
        assert [c.split(",")[0].split("@")[0] for c in engine] == [
            "batched 15 mixed submissions",
            "batched power limit 195 W",
            "batched transient faults",
            "batched degrade faults",
            "batched throttle faults",
        ]
        # Each passed (the report is clean).
        assert {
            "engine.throttle_engaged",
            "engine.faulted_transient_fast_path",
            "engine.faulted_degrade_fast_path",
            "engine.faulted_throttle_fast_path",
            "posture.api_restricted",
            "binding.node_major",
        } <= {r.name for r in report.results}

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
