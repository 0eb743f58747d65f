"""Validation of the static-analysis plane (``repro.analysis``).

Three families of checks:

- **kernel cleanliness** — every ``@device_kernel`` in the front-end bank
  lowers without diagnostics *and* passes the FE011–FE013 race/bounds
  pass; the footprint solver must also still flag a seeded racy kernel
  (the pass is not vacuously quiet).
- **scenario certificates** — each registry scenario's static
  makespan/energy intervals bracket its run
  (:func:`repro.obs.scenarios.certify_scenarios`), the weak-scaling
  graph certificate brackets the vectorized engine, the command-graph
  audit is clean and the global SLA bound is proved.
- **DEADLINE demo** — the plan certifier proves a generous deadline and
  refutes an impossible one, naming a witness kernel.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.certify import PlanCertificate
from repro.analysis.scenarios import ScenarioCertificate, deadline_demo
from repro.obs.scenarios import certify_scenarios
from repro.validate.result import CheckResult, check

#: A deliberately racy kernel: every work item writes element 0.
_RACY_SRC = """
def racy(gid, out):
    out[0] = gid
"""


def check_kernel_bank_clean() -> list[CheckResult]:
    """The §6.1 kernel bank must be race/bounds-clean; the pass must not be."""
    from repro.frontend import kernels as bank
    from repro.frontend.decorator import DeviceKernel, analyze_source

    device_kernels = [
        obj for obj in vars(bank).values() if isinstance(obj, DeviceKernel)
    ]
    dirty = sorted(
        k.name for k in device_kernels if not k.analysis.clean
    )
    results = [
        check(
            "analysis.kernel_bank_clean",
            len(device_kernels) > 0 and not dirty,
            f"{len(device_kernels)} device kernels; findings in {dirty}"
            if dirty
            else f"{len(device_kernels)} device kernels, all clean",
        )
    ]
    racy = analyze_source(_RACY_SRC)
    results.append(
        check(
            "analysis.race_pass_not_vacuous",
            any(d.code == "FE011" for d in racy.races),
            "the seeded write/write race must produce FE011; got "
            f"{[d.code for d in racy.races]}",
        )
    )
    return results


def check_scenario_certificates(
    certificates: Mapping[str, ScenarioCertificate],
) -> list[CheckResult]:
    """Every scenario certificate must bracket its measured run."""
    results: list[CheckResult] = []
    for name, cert in certificates.items():
        for bracket in cert.checks:
            results.append(
                check(
                    f"analysis.{name}.{bracket.quantity}",
                    bracket.ok,
                    bracket.format(),
                )
            )
        for label, ok in cert.assertions:
            results.append(check(f"analysis.{name}.assert", ok, label))
    return results


def check_deadline_demo(
    cert_ok: PlanCertificate, cert_bad: PlanCertificate
) -> list[CheckResult]:
    """The feasible DEADLINE plan is proved, the impossible one refuted."""
    return [
        check(
            "analysis.deadline_feasible",
            cert_ok.feasible and cert_ok.witness is None,
            f"violations={list(cert_ok.violations)}",
        ),
        check(
            "analysis.deadline_refuted",
            not cert_bad.feasible and cert_bad.witness is not None,
            f"witness={cert_bad.witness!r}: "
            + (cert_bad.violations[0] if cert_bad.violations else "none"),
        ),
        check(
            "analysis.deadline_witness_named",
            bool(cert_bad.witness)
            and any(
                f"witness kernel {cert_bad.witness!r}" in v
                for v in cert_bad.violations
            ),
            "the refutation message must name the witness kernel",
        ),
    ]


def run_analysis_checks(seed: int = 7) -> list[CheckResult]:
    """The full static-analysis harness."""
    return (
        check_kernel_bank_clean()
        + check_scenario_certificates(certify_scenarios(seed=seed))
        + check_deadline_demo(*deadline_demo())
    )
