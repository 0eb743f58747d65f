"""The paper's figure and table verdicts (:mod:`repro.experiments.artifacts`).

``tests/golden/paper.json`` pins every artifact's numbers as exact floats,
one artifact per line. Refresh it after an intentional change with::

    PYTHONPATH=src python -m pytest tests/test_paper.py --update-golden

and fix the EXPERIMENTS.md quotes the quote tests then flag.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.training import ALGORITHM_NAMES
from repro.metrics.targets import TABLE2_OBJECTIVES

GOLDEN = Path(__file__).parent / "golden" / "paper.json"
EXPERIMENTS = Path(__file__).parents[1] / "EXPERIMENTS.md"

#: Phrases EXPERIMENTS.md quotes (compared with whitespace collapsed), each
#: number written as ``{artifact/key:format}`` over the golden.
QUOTES = (
    "max saving {fig2/lin_reg_coeff.max_saving:.1%} (at "
    "{fig2/lin_reg_coeff.loss_at_max_saving:.0%} loss); lowest-clock energy "
    "{fig2/lin_reg_coeff.lowest_clock_energy:.1f}× default",
    "{fig2/median.max_saving:.1%} max saving at "
    "{fig2/median.loss_at_max_saving:.1%} loss",
    "| MIN_ENERGY | below EDP optimum | {fig4/MIN_ENERGY_mhz:.0f} MHz |",
    "| {fig4/MIN_EDP_mhz:.0f} MHz ✓ |",
    "| {fig4/MIN_ED2P_mhz:.0f} MHz — above default "
    "({fig1/v100.default_core_mhz})",
    "| top clock | {fig4/MAX_PERF_mhz:.0f} MHz ✓ |",
    "ES_25 → {fig5/ES_25.energy_saving:.1%} saving @ {fig5/ES_25.speedup:.2f}×",
    *(
        f"{t} → {{fig5/{t}.energy_saving:.1%}} @ {{fig5/{t}.speedup:.2f}}×"
        for t in ("ES_50", "ES_75", "ES_100", "PL_25", "PL_50", "PL_75")
    ),
    "{fig7/gemm.pareto_speedup_min:.2f}–{fig7/gemm.pareto_speedup_max:.2f}; "
    "**{fig7/gemm.max_saving:.1%} at {fig7/gemm.loss_at_max_saving:.1%} loss**",
    "**{fig7/sobel3.pareto_speedup_min:.2f}–{fig7/sobel3.pareto_speedup_max:.2f}"
    "**; {fig7/sobel3.max_saving:.1%} saving at "
    "{fig7/sobel3.loss_at_max_saving:.0%} loss",
    "max speedup {fig7/sobel3.pareto_speedup_max:.2f}",
    "({fig8/black_scholes.max_saving:.0%}–{fig8/sobel3.max_saving:.0%})",
    "forest worst case {fig9/ES_75.RandomForest.max_ape:.1%} on one ES_75",
    "linear worst case {fig9/MIN_ED2P.Linear.max_ape:.0%} on one MIN_ED2P",
    "**{fig10/cloverleaf.64.MIN_EDP_saving:.1%}** best (MIN_EDP); PL_50 "
    "{fig10/cloverleaf.64.PL_50_saving:.1%}, ES_50 "
    "{fig10/cloverleaf.64.ES_50_saving:.1%}",
    "**{fig10/miniweather.64.MIN_EDP_saving:.1%}** best (MIN_EDP); PL_50 "
    "{fig10/miniweather.64.PL_50_saving:.1%}, ES_75 "
    "{fig10/miniweather.64.ES_75_saving:.1%}, ES_50 "
    "{fig10/miniweather.64.ES_50_saving:.1%}",
    "({fig10/miniweather.64.MIN_EDP_saving:.1%} vs "
    "{fig10/cloverleaf.64.MIN_EDP_saving:.1%} at 64 GPUs)",
    "grows from {freq_overhead/1_kernels.overhead_fraction:.0%} to "
    "~{freq_overhead/256_kernels.overhead_fraction:.0%} of elapsed time",
    "(up to ~{fine_vs_coarse/three_regimes.MIN_ENERGY:.1%} app-level energy",
    "falls from ~{profiling_accuracy/65536.mean_rel_error:.0%} for "
    "sub-millisecond kernels to ~{profiling_accuracy/268435456.mean_rel_error:.0%}",
    "saves {powercap_vs_synergy/powercap.saving:.1%} (throttling blindly), while "
    "per-kernel MIN_ENERGY tuning saves {powercap_vs_synergy/synergy.saving:.1%}"
    " at {powercap_vs_synergy/synergy.slowdown:.1%} slowdown",
    "burns {online_vs_static/sobel3.online_launches:.0f}–"
    "{online_vs_static/gemm.online_launches:.0f} exploration launches",
)

#: One perturbation of the golden numbers per check: ``check name →
#: (artifact, overrides)``. Exactly that check must fail.
PERTURBATIONS = {
    "paper.fig1.available_frequencies": ("fig1", {"v100.core_configs": 195}),
    "paper.fig2.energy_characterization": (
        "fig2", {"lin_reg_coeff.max_saving": 0.2}
    ),
    "paper.fig4.blackscholes_edp_ed2p": ("fig4", {"MIN_ED2P_mhz": 1200.0}),
    "paper.fig5.es_pl_levels": ("fig5", {"ES_25.energy_saving": 0.5}),
    "paper.fig7.v100_characterization": ("fig7", {"gemm.max_saving": 0.1}),
    "paper.fig8.mi100_characterization": (
        "fig8", {"gemm.pareto_speedup_max": 1.1}
    ),
    "paper.fig9.prediction_ape": ("fig9", {"records_per_cell_min": 22}),
    "paper.table2.error_analysis": ("table2", {"MAX_PERF.SVR_mape": 0.01}),
    "paper.fig10.cloverleaf_scaling": ("fig10", {"cloverleaf.64.energy_j": 1.0}),
    "paper.fig10.miniweather_scaling": ("fig10", {"miniweather.4.comm_s": 0.0}),
    "paper.fig10.miniweather_saves_more": (
        "fig10", {"cloverleaf.64.MIN_EDP_saving": 0.25}
    ),
    "paper.freq_overhead.switch_overhead": (
        "freq_overhead", {"1_kernels.overhead_fraction": 0.05}
    ),
    "paper.fine_vs_coarse.fine_advantage": (
        "fine_vs_coarse", {"homogeneous.MIN_ENERGY": 0.01}
    ),
    "paper.profiling_accuracy.error_vs_duration": (
        "profiling_accuracy", {"268435456.mean_rel_error": 0.1}
    ),
    "paper.powercap_vs_synergy.savings": (
        "powercap_vs_synergy", {"synergy.saving": 0.01}
    ),
    "paper.online_vs_static.exploration_bill": (
        "online_vs_static", {"gemm.online_launches": 4}
    ),
    "paper.online_vs_static.adaptive_under_throttle": (
        "online_vs_static", {"throttle.adaptive_missed": 1}
    ),
    "paper.fault_resilience.resilience_vs_rate": (
        "fault_resilience", {"rate_0.clock_retries": 3}
    ),
}


def _render(numbers: dict[str, dict]) -> str:
    """Valid JSON, one artifact per line, keys sorted, floats exact."""
    lines = [
        f"{json.dumps(name)}: {json.dumps(values, sort_keys=True)}"
        for name, values in numbers.items()
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def test_numbers_match_golden(request):
    text = _render({name: a.run() for name, a in ARTIFACTS.items()})
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(text)
    assert text == GOLDEN.read_text()


def test_checks_pass_on_golden_and_names_are_unique(golden):
    results = [r for name, a in ARTIFACTS.items() for r in a.checks(golden[name])]
    names = [r.name for r in results]
    assert len(names) == len(set(names)) == 18
    assert set(names) == set(PERTURBATIONS)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


@pytest.mark.parametrize("check_name", sorted(PERTURBATIONS))
def test_perturbed_golden_fails_its_check(golden, check_name):
    artifact, overrides = PERTURBATIONS[check_name]
    results = ARTIFACTS[artifact].checks({**golden[artifact], **overrides})
    assert {r.name for r in results if not r.passed} == {check_name}


@pytest.mark.parametrize("quote", QUOTES)
def test_experiments_quote_matches_golden(golden, quote):
    def fill(match: re.Match) -> str:
        artifact, key, spec = match.groups()
        return format(golden[artifact][key], spec)

    phrase = re.sub(r"\{(\w+)/([^:}]+):?([^}]*)\}", fill, quote)
    assert phrase in " ".join(EXPERIMENTS.read_text().split())


@pytest.mark.parametrize("objective", [t.name for t in TABLE2_OBJECTIVES])
def test_experiments_table2_mape_row_matches_golden(golden, objective):
    section = EXPERIMENTS.read_text().split("## Table 2", 1)[1]
    row = next(
        line for line in section.splitlines()
        if line.startswith(f"| {objective} |")
    )
    cells = [c.strip().strip("*") for c in row.split("|")[2:6]]
    mapes = [golden["table2"][f"{objective}.{a}_mape"] for a in ALGORITHM_NAMES]
    assert cells == ["–" if m is None else f"{m:.3f}" for m in mapes]
