"""Tracked perf benchmark: vectorized fast paths vs scalar baselines.

Runs :func:`repro.experiments.perf.run_perf_pipeline` at full scale,
asserts the committed speed targets (≥5× on full-table sweeps, ≥3× on
forest train/predict against the per-node oracle), the equivalence
guarantees, and writes ``BENCH_perf.json`` at the repo root so the
numbers are tracked across commits.

Excluded from tier-1 (the ``perf`` marker): wall-clock assertions are
machine-sensitive and the full-scale run takes ~30 s. Run explicitly with
``pytest benchmarks/bench_perf_pipeline.py -m perf``.
"""

from pathlib import Path

import pytest

from repro.experiments.perf import SPEEDUP_TARGETS, run_perf_pipeline

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def report():
    return run_perf_pipeline(quick=False, json_path=REPO_ROOT / "BENCH_perf.json")


def test_perf_report_written(report):
    assert (REPO_ROOT / "BENCH_perf.json").exists()
    assert not report["quick"]


def test_speedup_targets(report):
    by_name = {s["name"]: s for s in report["sections"]}
    assert set(by_name) == set(SPEEDUP_TARGETS)
    for name, target in SPEEDUP_TARGETS.items():
        section = by_name[name]
        assert section["speedup"] >= target, (
            f"{name}: {section['speedup']:.2f}x < target {target}x"
        )
        assert section["meets_target"]


def test_equivalence(report):
    # run_perf_pipeline already asserts equivalence internally; re-check
    # the recorded errors so the JSON can be trusted standalone.
    for section in report["sections"]:
        assert section["max_rel_err"] < 1e-12, section


def test_sweep_cache_effective(report):
    cache = report["sweep_cache"]
    assert cache["misses"] == cache["hits"]  # one cold + one warm pass
    assert cache["hit_rate"] == 0.5
    assert cache["warm_speedup"] > 2.0
