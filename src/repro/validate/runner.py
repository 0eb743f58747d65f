"""The validation driver behind ``repro-synergy validate``.

Runs the invariant catalog, the differential harness and the paper's
figure and table verdicts over the golden scenarios and a fixed seeded
case mix, producing one :class:`~repro.validate.result.ValidationReport`.
Sections can be selected individually (``only=``) so CI smoke runs stay
cheap; the default runs everything, which is what the ``--strict`` gate in
``scripts/check.sh`` executes.
"""

from __future__ import annotations

from typing import Callable

from repro.apps import get_benchmark
from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.core.sweepcache import scoped_cache
from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.sweep import sweep_kernel
from repro.hw.specs import AMD_MI100, NVIDIA_V100, GPUSpec
from repro.obs.scenarios import get_scenario, golden_scenarios, run_scenario
from repro.validate.adapt import run_adapt_checks
from repro.validate.analysis import run_analysis_checks
from repro.validate.differential import run_differential_checks
from repro.validate.distributed import run_distributed_checks
from repro.validate.engine import run_engine_checks
from repro.validate.frontend import run_frontend_checks
from repro.validate.invariants import (
    check_metrics_sanity,
    check_powercap_audit_roundtrip,
    check_powercap_conservation,
    check_sweep,
    check_trace_monotonicity,
)
from repro.validate.result import CheckResult, ValidationReport
from repro.validate.service import run_service_checks

#: Kernel/device grid the sweep invariants run over: the golden-scenario
#: kernels plus the Fig. 4 and Fig. 2 protagonists.
SWEEP_KERNEL_NAMES: tuple[str, ...] = (
    "gemm", "sobel3", "median", "black_scholes", "lin_reg_coeff",
)
SWEEP_SPECS: tuple[GPUSpec, ...] = (NVIDIA_V100, AMD_MI100)


def _sweep_section(scenarios: tuple[str, ...], seed: int) -> list[CheckResult]:
    results: list[CheckResult] = []
    for spec in SWEEP_SPECS:
        for name in SWEEP_KERNEL_NAMES:
            sweep = sweep_kernel(spec, get_benchmark(name).kernel)
            results += check_sweep(sweep, spec)
    return results


def _powercap_section(scenarios: tuple[str, ...], seed: int) -> list[CheckResult]:
    # Hand-picked regimes first: the all-under case (the silently dropped
    # donation) and the hard-clipping case (the discarded remainder) are
    # exactly the two §2.3 bugs this plane was built to catch.
    results = check_powercap_conservation(
        [250.0, 250.0, 250.0], [60.0, 70.0, 80.0], 80.0, 300.0,
        context="powercap[all-under]",
    )
    results += check_powercap_conservation(
        [200.0, 200.0, 200.0], [10.0, 20.0, 199.0], 50.0, 210.0,
        context="powercap[ceiling-clip]",
    )
    rng = make_rng(seed)
    for case in range(6):
        n = int(rng.integers(2, 9))
        floor = float(rng.uniform(40.0, 120.0))
        ceiling = floor + float(rng.uniform(50.0, 400.0))
        caps = [float(rng.uniform(floor, ceiling)) for _ in range(n)]
        usage = [float(rng.uniform(0.0, c * 1.1)) for c in caps]
        results += check_powercap_conservation(
            caps, usage, floor, ceiling, context=f"powercap[seeded#{case}]"
        )
    # Budget high enough that the per-GPU split exceeds the board's factory
    # limit: the clamp engages, which is what the audit check is about.
    results += check_powercap_audit_roundtrip(NVIDIA_V100, node_budget_w=10_000.0)
    results += check_powercap_audit_roundtrip(NVIDIA_V100, node_budget_w=320.0)
    return results


def _scenario_section(scenarios: tuple[str, ...], seed: int) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name in scenarios:
        session = run_scenario(name, seed=seed)
        results += check_trace_monotonicity(session, context=name)
        results += check_metrics_sanity(session, context=name)
    return results


def _paper_section(scenarios: tuple[str, ...], seed: int) -> list[CheckResult]:
    # The paper's artifacts take no seed: each runs its fixed configuration.
    results: list[CheckResult] = []
    for artifact in ARTIFACTS.values():
        results += artifact.checks(artifact.run())
    return results


#: The report sections, in run order: name → ``section(scenarios, seed)``.
#: ``--only`` choices and the unknown-section check both read this table.
#: Each section runs against a fresh sweep cache.
SECTIONS: dict[str, Callable[[tuple[str, ...], int], list[CheckResult]]] = {
    "sweeps": _sweep_section,
    "powercap": _powercap_section,
    "scenarios": _scenario_section,
    "differential": lambda scenarios, seed: run_differential_checks(NVIDIA_V100),
    "frontend": lambda scenarios, seed: run_frontend_checks(NVIDIA_V100),
    "adapt": lambda scenarios, seed: run_adapt_checks(seed),
    "engine": lambda scenarios, seed: run_engine_checks(NVIDIA_V100),
    "service": lambda scenarios, seed: run_service_checks(seed),
    "distributed": lambda scenarios, seed: run_distributed_checks(),
    "analysis": lambda scenarios, seed: run_analysis_checks(seed),
    "paper": _paper_section,
}


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
    selected = tuple(only) if only else tuple(SECTIONS)
    unknown = set(selected) - set(SECTIONS)
    if unknown:
        raise ConfigurationError(
            f"unknown validation sections {sorted(unknown)}; known: "
            f"{list(SECTIONS)}"
        )
    scenarios = golden_scenarios() if scenarios is None else tuple(scenarios)
    for name in scenarios:
        get_scenario(name)
    report = ValidationReport()
    for name, section in SECTIONS.items():
        if name in selected:
            with scoped_cache():
                report.extend(section(scenarios, seed))
    return report
