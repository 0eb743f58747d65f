"""Command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main

#: Every subcommand the CLI exposes; the completeness test below fails when a
#: new subparser is registered without being added here (and thus without a
#: smoke test).
ALL_SUBCOMMANDS = [
    "devices",
    "characterize",
    "sweep",
    "train",
    "compile",
    "accuracy",
    "scaling",
    "faults",
    "fine-vs-coarse",
    "trace",
    "validate",
    "analyze",
    "certify",
    "lint",
    "adapt",
    "serve",
    "distributed",
]


def _registered_subcommands() -> list[str]:
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return list(action.choices)
    raise AssertionError("CLI parser has no subparsers")


def test_devices(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "NVIDIA V100" in out and "AMD MI100" in out
    assert "196" in out and "16" in out


def test_characterize_subset(capsys):
    assert main(["characterize", "--device", "mi100",
                 "--benchmarks", "gemm", "median"]) == 0
    out = capsys.readouterr().out
    assert "AMD MI100" in out
    assert "gemm" in out and "median" in out


def test_sweep(capsys):
    assert main(["sweep", "--benchmark", "black_scholes",
                 "--targets", "MIN_EDP", "ES_25"]) == 0
    out = capsys.readouterr().out
    assert "MIN_EDP" in out and "ES_25" in out


def test_sweep_bad_target():
    from repro.common.errors import ValidationError

    with pytest.raises(ValidationError):
        main(["sweep", "--benchmark", "gemm", "--targets", "FASTEST"])


def test_train_compile_roundtrip(tmp_path, capsys):
    bundle_path = tmp_path / "bundle.json"
    assert main(["train", "--out", str(bundle_path), "--stride", "24",
                 "--random-count", "2", "--algorithm", "Linear"]) == 0
    assert bundle_path.exists()
    capsys.readouterr()
    assert main(["compile", "--bundle", str(bundle_path),
                 "--benchmarks", "gemm", "sobel3",
                 "--targets", "MIN_EDP", "ES_50"]) == 0
    out = capsys.readouterr().out
    assert "gemm" in out and "sobel3" in out
    assert "ES_50" in out


def test_fine_vs_coarse(capsys):
    assert main(["fine-vs-coarse", "--benchmarks", "sobel3", "median",
                 "--target", "MIN_ENERGY"]) == 0
    out = capsys.readouterr().out
    assert "fine-grained advantage" in out


def test_scaling_with_pretrained_bundle(tmp_path, capsys):
    bundle_path = tmp_path / "bundle.json"
    main(["train", "--out", str(bundle_path), "--stride", "16",
          "--random-count", "4", "--algorithm", "best"])
    capsys.readouterr()
    assert main(["scaling", "--app", "cloverleaf", "--gpus", "4",
                 "--targets", "PL_50", "--steps", "2",
                 "--bundle", str(bundle_path)]) == 0
    out = capsys.readouterr().out
    assert "weak scaling" in out and "PL_50" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_accuracy_small(capsys):
    assert main(["accuracy", "--algorithms", "Linear",
                 "--stride", "24", "--random-count", "2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "MAX_PERF" in out


def test_serve_happy_path(tmp_path, capsys):
    store_path = tmp_path / "store.json"
    assert main(["serve", "--tenants", "4", "--submissions", "64",
                 "--partitions", "2", "--cycles", "2",
                 "--store", str(store_path)]) == 0
    out = capsys.readouterr().out
    assert "Per-tenant accounting" in out
    assert "t000" in out and "t003" in out
    assert "cluster:" in out and "saved" in out
    assert store_path.exists()


def test_serve_bad_args_exit_code():
    assert main(["serve", "--tenants", "0"]) == 2
    assert main(["serve", "--submissions", "0"]) == 2
    assert main(["serve", "--partitions", "0"]) == 2


def test_loadgen_quick_merges_bench_section(tmp_path, capsys):
    """The seeded load-generator session (``service.loadgen``), run through
    ``serve`` at the old quick sizes; its ``--json`` report carries the
    per-tenant rows and the cluster roll-up."""
    report_path = tmp_path / "report.json"
    assert main(["serve", "--tenants", "4", "--submissions", "200",
                 "--partitions", "2", "--cycles", "2",
                 "--json", str(report_path)]) == 0
    assert "Per-tenant accounting" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    cluster, tenants = report["cluster"], report["tenants"]
    assert len(tenants) == 4
    assert all("saved_j" in row for row in tenants)
    # Accounting closes: every attempt is admitted or rejected, every
    # admitted job drains, and the per-tenant rows roll up to the cluster.
    assert cluster["submissions"] + cluster["rejections"] == 200
    assert cluster["drained"] == cluster["submissions"] > 0
    assert sum(row["drained"] for row in tenants) == cluster["drained"]
    assert 0.0 <= cluster["p50_latency_s"] <= cluster["p99_latency_s"]
    assert 0.0 < cluster["saved_j"]
    assert cluster["kernel_energy_j"] < cluster["baseline_kernel_energy_j"]
    assert sum(row["saved_j"] for row in tenants) == pytest.approx(
        cluster["saved_j"], rel=1e-6
    )


def test_loadgen_bad_args_exit_code():
    """Bad sizes for the seeded session exit with a usage error (2)."""
    assert main(["serve", "--tenants", "0", "--json", ""]) == 2
    assert main(["serve", "--cycles", "0", "--json", ""]) == 2


# ------------------------------------------------------- smoke: completeness

def test_every_subcommand_is_known():
    assert sorted(_registered_subcommands()) == sorted(ALL_SUBCOMMANDS)


@pytest.mark.parametrize("name", ALL_SUBCOMMANDS)
def test_subcommand_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_no_command_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


# ---------------------------------------------------------- smoke: faults

def test_faults_zero_rate_writes_chaos_json(tmp_path, capsys):
    out = tmp_path / "chaos.json"
    assert main(["faults", "--rates", "0.0", "--steps", "1",
                 "--target", "default", "--json", str(out)]) == 0
    assert "chaos sweep" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["kind"] == "chaos_sweep"
    assert doc["points"][0]["fault_rate"] == 0.0
    assert doc["points"][0]["state"] == "COMPLETED"


# -------------------------------------------------------------- smoke: trace

def test_trace_writes_trace_and_metrics_json(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert main(["trace", "single-gpu", "--out", str(trace_path),
                 "--metrics", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "Recorded events" in out and "queue.kernel" in out

    trace = json.loads(trace_path.read_text())
    assert trace["displayTimeUnit"] == "ms"
    assert trace["otherData"] == {"scenario": "single-gpu", "seed": 7}
    assert any(e["ph"] == "X" for e in trace["traceEvents"])

    metrics = json.loads(metrics_path.read_text())
    assert metrics["kind"] == "metrics"
    assert metrics["counters"]["queue.kernels"] > 0
    assert metrics["span_counts"]["queue.kernel"] > 0


def test_trace_without_metrics_flag_writes_only_trace(tmp_path):
    trace_path = tmp_path / "trace.json"
    assert main(["trace", "single-gpu", "--seed", "3",
                 "--out", str(trace_path)]) == 0
    doc = json.loads(trace_path.read_text())
    assert doc["otherData"]["seed"] == 3
    assert not (tmp_path / "metrics.json").exists()


# ----------------------------------------------------------- smoke: validate

def test_validate_powercap_section_writes_report_json(tmp_path, capsys):
    out = tmp_path / "validation.json"
    assert main(["validate", "--only", "powercap", "--json", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "Validation plane" in stdout
    assert "validation passed" in stdout
    doc = json.loads(out.read_text())
    assert doc["kind"] == "validation_report"
    assert doc["passed"] is True
    assert doc["failures"] == 0
    assert doc["checks"] == len(doc["results"])
    names = {r["name"] for r in doc["results"]}
    assert "powercap.budget_conserved" in names
    assert "powercap.audit_matches_nvml" in names


def test_validate_strict_scenario_subset(capsys):
    assert main(["validate", "--strict", "--scenario", "single-gpu",
                 "--only", "scenarios"]) == 0
    assert "strict" in capsys.readouterr().out


def test_adapt_writes_comparison_json(tmp_path, capsys):
    out = tmp_path / "thermal_drift.json"
    assert main(["adapt", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "adaptive" in text
    assert "MAX_PERF" in text  # the ladder table reaches the last rung
    doc = json.loads(out.read_text())
    assert doc["refreshes"] >= 1
    assert doc["recovery_fraction"] >= 0.5
    assert [run["label"] for run in doc["runs"]] == [
        "max-perf", "static-clean", "static-fault", "adaptive-fault",
    ]


# -------------------------------------------------------- smoke: distributed

def test_distributed_run_writes_summary_json(tmp_path, capsys):
    out = tmp_path / "distributed.json"
    assert main(["distributed", "--ranks", "4", "--steps", "2",
                 "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "Per-rank plan & execution" in text
    assert "Command graph" in text
    assert "executed via batched" in text
    doc = json.loads(out.read_text())
    assert doc["ranks"] == 4
    assert doc["graph"]["nodes"] > 0
    assert doc["plan"]["critical_rank"] in range(4)
    assert len(doc["plan"]["rank_targets"]) == 4
    assert doc["result"]["completion_s"] > 0.0
    assert doc["saved_j"] >= 0.0


def test_distributed_bad_ranks_exit_code():
    assert main(["distributed", "--ranks", "0"]) == 2


# ------------------------------------------------- smoke: analyze / lint

def test_analyze_registry_kernel(capsys):
    assert main(["analyze", "gemm"]) == 0
    out = capsys.readouterr().out
    assert "float_mul" in out and "gl_access" in out
    assert "locality" in out
    assert "diagnostics: none" in out


def test_analyze_json_output(tmp_path, capsys):
    out_path = tmp_path / "analysis.json"
    assert main(["analyze", "vec_add", "--json", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "frontend_analysis"
    assert doc["kernel"] == "vec_add"
    assert doc["features"]["float_add"] == 1.0
    assert doc["features"]["gl_access"] == 3.0
    assert doc["locality_pinned"] is None
    assert doc["diagnostics"] == []


def test_analyze_file_with_diagnostics_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad_kernel.py"
    bad.write_text(
        "def spin(gid, a):\n"
        "    while a[gid] > 0.0:\n"
        "        a[gid] = a[gid] - 1.0\n"
    )
    assert main(["analyze", f"{bad}:spin"]) == 1
    err = capsys.readouterr().err
    assert "FE001" in err and "spin:2:" in err


def test_analyze_unknown_kernel_exits_2(capsys):
    assert main(["analyze", "not_a_kernel"]) == 2
    assert "not_a_kernel" in capsys.readouterr().err


def test_lint_clean_tree_exits_0(capsys):
    assert main(["lint"]) == 0
    assert "lint: clean" in capsys.readouterr().out


def test_lint_violation_exits_1(tmp_path, capsys):
    bad = tmp_path / "clocky.py"
    bad.write_text("import time\n\nstamp = time.time()\n")
    assert main(["lint", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "ND001" in captured.out
    assert "violation" in captured.err


# ------------------------------------------------------------- bad arguments

def test_trace_unknown_scenario_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "warp-drive"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_characterize_unknown_device_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["characterize", "--device", "h100"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_compile_missing_required_bundle_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--benchmarks", "gemm"])
    assert exc.value.code == 2
    assert "--bundle" in capsys.readouterr().err


def test_sweep_unknown_benchmark_raises():
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="unknown SYCL benchmark"):
        main(["sweep", "--benchmark", "nope", "--targets", "MIN_EDP"])


def test_validate_unknown_scenario_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--scenario", "warp-drive"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_validate_unknown_section_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--only", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_certify_weak_scaling_writes_report_json(tmp_path, capsys):
    out = tmp_path / "certify.json"
    assert main(
        ["certify", "--scenario", "weak-scaling", "--json", str(out)]
    ) == 0
    stdout = capsys.readouterr().out
    assert "certification certified" in stdout
    assert "weak-scaling" in stdout
    import json

    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    cert = doc["scenarios"]["weak-scaling"]
    assert cert["ok"] is True
    assert any(c["quantity"] == "completion_s" for c in cert["checks"])
    assert doc["deadline_demo"]["infeasible"]["witness"]


def test_certify_unknown_scenario_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--scenario", "warp-drive"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
