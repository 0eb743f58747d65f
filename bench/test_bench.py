"""Smoke test of the benchmark harness: every workload, untraced and traced.

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_reports_every_declared_metric(workload, tmp_path, capsys):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = tmp_path / f"{workload}-{trace}.json"
        code = run.main([
            "--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--smoke", "--out", str(out),
        ])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in DECLARED[section]
        }

    report = json.loads(out.read_text())
    self_share = sum(row["self_frac"] for row in report["spans"].values())
    assert self_share == pytest.approx(1.0, abs=0.05)
    events = json.loads(out.with_suffix(".trace.json").read_text())["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert {e["name"] for e in events} <= set(run.SPANS)
