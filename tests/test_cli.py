"""Command-line interface."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PAPER = ROOT / "tests" / "golden" / "paper.json"

#: Every subcommand the CLI exposes; the completeness test below fails when a
#: new subparser is registered without being added here (and thus without a
#: smoke test).
ALL_SUBCOMMANDS = [
    "devices",
    "train",
    "compile",
    "paper",
    "trace",
    "validate",
    "analyze",
    "certify",
    "lint",
    "adapt",
    "serve",
    "distributed",
]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("CLI parser has no subparsers")


def test_devices(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "NVIDIA V100" in out and "AMD MI100" in out
    assert "196" in out and "16" in out


#: ``train`` arguments for a bundle that fits in well under a second.
SMALL_TRAIN = ["--stride", "24", "--random-count", "2", "--algorithm", "Linear"]


@pytest.fixture(scope="module")
def small_bundle_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("bundle") / "bundle.json"
    assert main(["train", "--out", str(path), *SMALL_TRAIN]) == 0
    return path


def test_train_compile_roundtrip(tmp_path, capsys):
    bundle_path = tmp_path / "bundle.json"
    assert main(["train", "--out", str(bundle_path), *SMALL_TRAIN]) == 0
    assert bundle_path.exists()
    capsys.readouterr()
    assert main(["compile", "--bundle", str(bundle_path),
                 "--benchmarks", "gemm", "sobel3",
                 "--targets", "MIN_EDP", "ES_50"]) == 0
    out = capsys.readouterr().out
    assert "gemm" in out and "sobel3" in out
    assert "ES_50" in out


# -------------------------------------------------------------- smoke: paper

def test_paper_json_numbers_are_the_golden(tmp_path, capsys):
    out = tmp_path / "paper.json"
    assert main(["paper", "fig1", "fig4", "--json", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "fig4: numbers" in stdout and "MIN_EDP_mhz" in stdout
    assert "paper.fig4.blackscholes_edp_ed2p" in stdout
    doc = json.loads(out.read_text())
    golden = json.loads(GOLDEN_PAPER.read_text())
    assert list(doc) == ["fig1", "fig4"]
    for name, entry in doc.items():
        assert entry["numbers"] == golden[name]
        assert entry["checks"] and all(c["passed"] for c in entry["checks"])


def test_paper_failed_check_exits_1(monkeypatch, capsys):
    from repro.experiments.artifacts import ARTIFACTS, Artifact, run_fig1

    fig1 = ARTIFACTS["fig1"]
    monkeypatch.setitem(ARTIFACTS, "fig1", Artifact(
        lambda: {**run_fig1(), "v100.core_configs": 195}, fig1.checks
    ))
    assert main(["paper", "fig1"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"paper\.fig1\.available_frequencies \| FAIL", out)
    assert "v100 (configs, min, max, mem)" in out


def test_paper_unknown_artifact_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paper", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


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


# ------------------------------------------------------- smoke: completeness

def test_every_subcommand_is_known():
    assert sorted(_subparsers()) == sorted(ALL_SUBCOMMANDS)


def _flags_after(command_re: str, text: str):
    """``(command, --flag)`` for each flag that follows a CLI command on
    its line, up to the end of its code span, a comment or the next
    command."""
    for line in text.splitlines():
        for match in re.finditer(command_re, line):
            rest = re.split(r"[`#]|repro-synergy |repro\.cli ", line[match.end():])[0]
            for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", rest):
                yield match.group(1), flag


def _unknown_flags(command_re: str, text: str) -> list[tuple[str, str]]:
    parsers = _subparsers()
    return sorted(
        (command, flag)
        for command, flag in _flags_after(command_re, text)
        if command in parsers and flag not in parsers[command]._option_string_actions
    )


def test_check_sh_runs_only_known_commands():
    """Every CLI step of the CI gate, and every command the docs show,
    names a command that still exists, with flags that command takes."""
    script = ROOT / "scripts" / "check.sh"
    cli_re = r"python -m repro\.cli ([\w-]+)"
    used = re.findall(cli_re, script.read_text())
    assert used
    assert set(used) <= set(COMMANDS), sorted(set(used) - set(COMMANDS))
    assert not _unknown_flags(cli_re, script.read_text())
    docs = [ROOT / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]
    docs += sorted((ROOT / "docs").glob("*.md"))
    doc_re = r"repro-synergy ([a-z][\w-]*)"
    for doc in docs:
        named = re.findall(doc_re, doc.read_text())
        unknown = sorted(set(named) - set(COMMANDS))
        assert not unknown, (doc.name, unknown)
        unknown_flags = _unknown_flags(doc_re, doc.read_text())
        assert not unknown_flags, (doc.name, unknown_flags)


def test_flag_scan_flags_an_unknown_flag():
    text = (
        "repro-synergy validate --strict --bogus  # a --comment-flag\n"
        "`repro-synergy paper fig1 --json` then `validate --only paper`\n"
    )
    assert _unknown_flags(r"repro-synergy ([a-z][\w-]*)", text) == [
        ("validate", "--bogus")
    ]


def test_choice_defaults_are_valid_choices():
    for name, sub in _subparsers().items():
        for action in sub._actions:
            if action.choices is None or action.default is None:
                continue
            default = action.default
            values = default if isinstance(default, list) else [default]
            assert all(v in action.choices for v in values), (
                name, action.dest, default,
            )


@pytest.mark.parametrize("command", ["trace", "validate", "certify"])
def test_scenario_choices_are_the_registry(command):
    from repro.obs.scenarios import SCENARIOS

    (action,) = [
        a for a in _subparsers()[command]._actions if a.dest == "scenario"
    ]
    assert list(action.choices) == sorted(SCENARIOS)


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
    assert metrics["counters"]["queue.kernels_executed"] > 0
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

#: One bad input per command that takes user input. ``{tmp}`` is a fresh
#: directory, so paths under it do not exist; ``{bundle}`` is a real bundle
#: that ``train`` wrote elsewhere.
BAD_INPUTS = {
    "compile-benchmarks": ["compile", "--bundle", "{bundle}",
                           "--benchmarks", "nope"],
    "compile-targets": ["compile", "--bundle", "{bundle}",
                        "--benchmarks", "gemm", "--targets", "FASTEST"],
    "compile-bundle": ["compile", "--bundle", "{tmp}/missing.json",
                       "--benchmarks", "gemm"],
    "train-stride": ["train", "--out", "{tmp}/bundle.json", "--stride", "0"],
    "train-random-count": ["train", "--out", "{tmp}/bundle.json",
                           "--random-count", "-1"],
    "distributed-ranks": ["distributed", "--ranks", "0"],
    "distributed-sla-nan": ["distributed", "--sla", "nan"],
    "serve-tenants": ["serve", "--tenants", "0"],
    "serve-submissions": ["serve", "--submissions", "0"],
    "serve-partitions": ["serve", "--partitions", "0"],
    "serve-cycles": ["serve", "--cycles", "0", "--json", ""],
    "analyze-kernel": ["analyze", "not_a_kernel"],
    "analyze-module": ["analyze", "no_such_module_xyz:fn"],
    "lint-path": ["lint", "{tmp}/missing.py"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2(argv, tmp_path, request, capsys):
    """Every bad input ends at main's one error boundary: exit 2 and a
    ``<command>: <message>`` line, never a traceback."""
    bundle = (request.getfixturevalue("small_bundle_path")
              if "{bundle}" in argv else None)
    argv = [a.format(tmp=tmp_path, bundle=bundle) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert any(line.startswith(f"{argv[0]}: ") for line in err.splitlines())
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_trace_unknown_scenario_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "warp-drive"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_compile_unknown_device_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--device", "h100"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_compile_missing_required_bundle_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--benchmarks", "gemm"])
    assert exc.value.code == 2
    assert "--bundle" in capsys.readouterr().err


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
