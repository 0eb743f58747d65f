"""Cross-stack invariant & differential validation plane.

The reproduction's headline claims (Fig. 4 EDP/ED2P minima, §5.2–5.3
ES_x/PL_x semantics, §2.3 power capping, the §6 model pipeline) all rest
on physical and algebraic invariants — energy = ∫P dt, a single interior
energy minimum per kernel, Pareto dominance, power-budget conservation —
and on the equivalence of paired implementations (vectorized vs scalar,
cached vs uncached, traced vs untraced). This package
encodes both as executable checks:

- :mod:`repro.validate.invariants` — pure invariant checkers over sweep,
  trace and power-cap results, and over what a run leaves behind (kernel
  records, cluster posture, rank binding),
- :mod:`repro.validate.differential` — the differential harness replaying
  seeded workloads through paired implementations,
- :mod:`repro.validate.runner` — the ``repro-synergy validate`` driver
  covering the registry's golden scenarios and the paper's artifacts.

Every check runs after the fact: no production module imports this
package. Only the result types are imported eagerly; the runner pulls in
the whole experiment stack.
"""

from __future__ import annotations

from repro.validate.result import CheckResult, Severity, ValidationReport

__all__ = [
    "CheckResult",
    "Severity",
    "ValidationReport",
    "run_validation",
]


def run_validation(*args, **kwargs):
    """Run the full validation plane (lazy import of the runner)."""
    from repro.validate.runner import run_validation as _run

    return _run(*args, **kwargs)
