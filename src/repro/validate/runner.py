"""The validation driver behind ``repro-synergy validate``.

Runs the invariant catalog and the differential harness over the golden
scenarios and a fixed seeded case mix, producing one
:class:`~repro.validate.result.ValidationReport`. Sections can be selected
individually (``only=``) so CI smoke runs stay cheap; the default runs
everything, which is what the ``--strict`` gate in ``scripts/check.sh``
executes.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.hw.specs import AMD_MI100, NVIDIA_V100, GPUSpec
from repro.validate.invariants import (
    check_metrics_sanity,
    check_powercap_audit_roundtrip,
    check_powercap_conservation,
    check_sweep,
    check_trace_monotonicity,
)
from repro.validate.result import ValidationReport

#: Kernel/device grid the sweep invariants run over: the golden-scenario
#: kernels plus the Fig. 4 and Fig. 2 protagonists.
SWEEP_KERNEL_NAMES: tuple[str, ...] = (
    "gemm", "sobel3", "median", "black_scholes", "lin_reg_coeff",
)
SWEEP_SPECS: tuple[GPUSpec, ...] = (NVIDIA_V100, AMD_MI100)

#: Selectable report sections.
SECTIONS: tuple[str, ...] = (
    "sweeps", "powercap", "scenarios", "differential", "frontend", "adapt",
    "engine", "service", "distributed", "analysis",
)


def _sweep_section(report: ValidationReport) -> None:
    from repro.apps import get_benchmark
    from repro.core.sweepcache import scoped_cache
    from repro.experiments.sweep import sweep_kernel

    with scoped_cache():
        for spec in SWEEP_SPECS:
            for name in SWEEP_KERNEL_NAMES:
                sweep = sweep_kernel(spec, get_benchmark(name).kernel)
                report.extend(check_sweep(sweep, spec))


def _powercap_section(report: ValidationReport, seed: int) -> None:
    # Hand-picked regimes first: the all-under case (the silently dropped
    # donation) and the hard-clipping case (the discarded remainder) are
    # exactly the two §2.3 bugs this plane was built to catch.
    report.extend(
        check_powercap_conservation(
            [250.0, 250.0, 250.0], [60.0, 70.0, 80.0], 80.0, 300.0,
            context="powercap[all-under]",
        )
    )
    report.extend(
        check_powercap_conservation(
            [200.0, 200.0, 200.0], [10.0, 20.0, 199.0], 50.0, 210.0,
            context="powercap[ceiling-clip]",
        )
    )
    rng = make_rng(seed)
    for case in range(6):
        n = int(rng.integers(2, 9))
        floor = float(rng.uniform(40.0, 120.0))
        ceiling = floor + float(rng.uniform(50.0, 400.0))
        caps = [float(rng.uniform(floor, ceiling)) for _ in range(n)]
        usage = [float(rng.uniform(0.0, c * 1.1)) for c in caps]
        report.extend(
            check_powercap_conservation(
                caps, usage, floor, ceiling, context=f"powercap[seeded#{case}]"
            )
        )
    # Budget high enough that the per-GPU split exceeds the board's factory
    # limit: the clamp engages, which is what the audit check is about.
    report.extend(
        check_powercap_audit_roundtrip(NVIDIA_V100, node_budget_w=10_000.0)
    )
    report.extend(
        check_powercap_audit_roundtrip(NVIDIA_V100, node_budget_w=320.0)
    )


def _scenario_section(
    report: ValidationReport, scenarios: tuple[str, ...], seed: int
) -> None:
    from repro.obs.scenarios import run_scenario

    for name in scenarios:
        session = run_scenario(name, seed=seed)
        report.extend(check_trace_monotonicity(session, context=name))
        report.extend(check_metrics_sanity(session, context=name))


def _differential_section(report: ValidationReport) -> None:
    from repro.core.sweepcache import scoped_cache
    from repro.validate.differential import run_differential_checks

    with scoped_cache():
        report.extend(run_differential_checks(NVIDIA_V100))


def _frontend_section(report: ValidationReport) -> None:
    from repro.core.sweepcache import scoped_cache
    from repro.validate.frontend import run_frontend_checks

    with scoped_cache():
        report.extend(run_frontend_checks(NVIDIA_V100))


def _engine_section(report: ValidationReport) -> None:
    from repro.core.sweepcache import scoped_cache
    from repro.validate.engine import run_engine_checks

    with scoped_cache():
        report.extend(run_engine_checks(NVIDIA_V100))


def _service_section(report: ValidationReport, seed: int) -> None:
    from repro.core.sweepcache import scoped_cache
    from repro.validate.service import run_service_checks

    with scoped_cache():
        report.extend(run_service_checks(seed))


def _distributed_section(report: ValidationReport) -> None:
    from repro.core.sweepcache import scoped_cache
    from repro.validate.distributed import run_distributed_checks

    with scoped_cache():
        report.extend(run_distributed_checks())


def _analysis_section(report: ValidationReport, seed: int) -> None:
    from repro.validate.analysis import run_analysis_checks

    # No scoped_cache here: each scenario run and each certificate
    # scopes its own cache.
    report.extend(run_analysis_checks(seed))


def _adapt_section(report: ValidationReport, seed: int) -> None:
    from repro.core.sweepcache import scoped_cache
    from repro.validate.adapt import run_adapt_checks

    with scoped_cache():
        report.extend(run_adapt_checks(seed))


def run_validation(
    scenarios: tuple[str, ...] | list[str] | None = None,
    *,
    seed: int = 7,
    only: tuple[str, ...] | list[str] | None = None,
) -> ValidationReport:
    """Run the validation plane and return its report.

    ``scenarios`` selects which registry scenarios the trace checks
    replay (default: those with golden snapshots); ``only`` restricts the
    run to a subset of :data:`SECTIONS`. Unknown names raise before any
    section runs. The strict/non-strict verdict is the caller's call via
    :meth:`ValidationReport.ok`.
    """
    from repro.obs.scenarios import get_scenario, golden_scenarios

    sections = tuple(only) if only else SECTIONS
    unknown = set(sections) - set(SECTIONS)
    if unknown:
        raise ConfigurationError(
            f"unknown validation sections {sorted(unknown)}; known: "
            f"{list(SECTIONS)}"
        )
    scenarios = golden_scenarios() if scenarios is None else tuple(scenarios)
    for name in scenarios:
        get_scenario(name)
    report = ValidationReport()
    if "sweeps" in sections:
        _sweep_section(report)
    if "powercap" in sections:
        _powercap_section(report, seed)
    if "scenarios" in sections:
        _scenario_section(report, scenarios, seed)
    if "differential" in sections:
        _differential_section(report)
    if "frontend" in sections:
        _frontend_section(report)
    if "adapt" in sections:
        _adapt_section(report, seed)
    if "engine" in sections:
        _engine_section(report)
    if "service" in sections:
        _service_section(report, seed)
    if "distributed" in sections:
        _distributed_section(report)
    if "analysis" in sections:
        _analysis_section(report, seed)
    return report
