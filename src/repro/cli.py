"""Command-line interface.

``python -m repro.cli <command>`` (or the ``repro-synergy`` entry point)
runs the deployment and analysis workflows. Every command is declared
once, in :data:`COMMANDS`; ``repro-synergy --help`` lists them, and
:func:`main` documents the exit codes. Performance is measured by the
end-to-end harness in ``bench/`` (see ``bench/README.md``), not by a
subcommand.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.adapt.chaos import run_thermal_drift_comparison
from repro.analysis.scenarios import deadline_demo
from repro.apps import get_benchmark
from repro.common.errors import ConfigurationError, ValidationError
from repro.core.compiler import SynergyCompiler, plan_global_frequencies
from repro.core.models import EnergyModelBundle
from repro.core.persistence import load_bundle, save_bundle
from repro.core.sweepcache import scoped_cache
from repro.distributed import build_comm, build_stencil_graph, run_graph
from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.report import format_table
from repro.experiments.training import (
    ALGORITHM_NAMES,
    make_bundle,
    microbench_training_set,
)
from repro.frontend import DeviceKernel, analyze_source
from repro.frontend.kernels import KERNELS
from repro.frontend.lint import default_lint_root, lint_paths
from repro.hw.specs import get_spec, known_devices
from repro.kernelir.features import FEATURE_NAMES
from repro.metrics.targets import EnergyTarget
from repro.obs.export import write_metrics_json, write_trace_json
from repro.obs.scenarios import (
    SCENARIOS,
    certify_scenarios,
    golden_scenarios,
    run_scenario,
)
from repro.service.loadgen import run_service_session
from repro.validate.analysis import (
    check_deadline_demo,
    check_scenario_certificates,
)
from repro.validate.runner import SECTIONS, run_validation

#: What a command's run function returns: its exit code and the document
#: ``main`` writes to ``--json`` (``None`` for commands without one).
Outcome = tuple[int, dict[str, Any] | None]


def _parse_targets(names: Sequence[str]) -> list[EnergyTarget]:
    return [EnergyTarget.parse(n) for n in names]


def _print_table(headers: list[str], rows: list, title: str) -> None:
    print(format_table(headers, rows, title=title))


# ------------------------------------------------------------------ commands

def _cmd_devices(args: argparse.Namespace) -> Outcome:
    rows = []
    for name in known_devices():
        spec = get_spec(name)
        rows.append(
            [
                name,
                spec.name,
                len(spec.core_freqs_mhz),
                f"{spec.min_core_mhz}-{spec.max_core_mhz}",
                spec.mem_freqs_mhz[0],
                spec.default_core_mhz,
            ]
        )
    _print_table(
        ["id", "device", "#core configs", "core range (MHz)", "mem (MHz)",
         "default (MHz)"],
        rows,
        title="Known devices (Figure 1)",
    )
    return 0, None


def _cmd_train(args: argparse.Namespace) -> Outcome:
    spec = get_spec(args.device)
    print(
        f"training on micro-benchmarks: device={spec.name} "
        f"stride={args.stride} random={args.random_count} "
        f"algorithm={args.algorithm}",
        file=sys.stderr,
    )
    training = microbench_training_set(
        spec, freq_stride=args.stride, random_count=args.random_count
    )
    if args.algorithm == "best":
        bundle = EnergyModelBundle().fit(training)
    else:
        bundle = make_bundle(args.algorithm).fit(training)
    path = save_bundle(bundle, args.out)
    print(f"saved bundle ({training.n_samples} training rows) to {path}")
    return 0, None


def _cmd_compile(args: argparse.Namespace) -> Outcome:
    spec = get_spec(args.device)
    bundle = load_bundle(args.bundle)
    kernels = [get_benchmark(n).kernel for n in args.benchmarks]
    targets = _parse_targets(args.targets)
    app = SynergyCompiler(bundle, spec).compile(kernels, targets)
    rows = [
        [kernel, target, f"{mem}", f"{core}"]
        for (kernel, target), (mem, core) in sorted(app.plan.entries.items())
    ]
    _print_table(
        ["kernel", "target", "mem MHz", "core MHz"],
        rows,
        title=f"Frequency plan for {spec.name}",
    )
    return 0, None


def _cmd_paper(args: argparse.Namespace) -> Outcome:
    doc: dict[str, Any] = {}
    failures = 0
    for name in args.artifacts:
        artifact = ARTIFACTS[name]
        with scoped_cache():
            numbers = artifact.run()
        results = artifact.checks(numbers)
        failures += sum(not r.passed for r in results)
        _print_table(["key", "value"], [[k, v] for k, v in numbers.items()],
                     title=f"{name}: numbers")
        _print_table(["check", "verdict", "detail"],
                     [[r.name, r.status, r.detail] for r in results],
                     title=f"{name}: checks")
        doc[name] = {"numbers": numbers,
                     "checks": [r.as_dict() for r in results]}
    verdict = "passed" if failures == 0 else f"{failures} FAILURES"
    print(f"paper {verdict} ({len(doc)} artifacts)")
    return (1 if failures else 0), doc


def _cmd_adapt(args: argparse.Namespace) -> Outcome:
    print(
        f"running thermal-drift chaos comparison (seed {args.seed}) ...",
        file=sys.stderr,
    )
    with scoped_cache():
        comparison = run_thermal_drift_comparison(seed=args.seed)
    rows = [
        [
            run.label,
            f"{run.streams_met}/{run.streams_met + run.streams_missed}",
            f"{run.elapsed_s:.4f}",
            f"{run.energy_j:.1f}",
            f"{1.0 - run.energy_j / comparison.max_perf.energy_j:+.2%}",
        ]
        for run in (
            comparison.max_perf,
            comparison.static_clean,
            comparison.static_fault,
            comparison.adaptive_fault,
        )
    ]
    _print_table(
        ["run", "deadlines met", "time (s)", "GPU energy (J)", "saving"],
        rows,
        title=f"Thermal-drift chaos (deadline "
        f"{comparison.deadlines_s[0]:.4f}s/stream, seed "
        f"{comparison.seed})",
    )
    _print_table(
        ["t (s)", "transition", "reason", "evidence"],
        [
            [f"{t['t']:.3f}", f"{t['from']} -> {t['to']}", t["reason"],
             t["detail"]]
            for t in comparison.transitions
        ],
        title=f"Degradation ladder ({len(comparison.drift_events)} drift "
        f"events, {comparison.refreshes} model refreshes)",
    )
    print(
        f"recovered {comparison.recovery_fraction:.1%} of the pre-drift "
        f"saving ({comparison.adaptive_saving:.1%} of "
        f"{comparison.static_saving:.1%})"
    )
    missed = comparison.adaptive_fault.streams_missed
    if missed:
        print(f"adaptive run missed {missed} stream deadlines", file=sys.stderr)
    return (1 if missed else 0), comparison.as_dict()


def _cmd_trace(args: argparse.Namespace) -> Outcome:
    print(
        f"running scenario {args.scenario!r} (seed {args.seed}) ...",
        file=sys.stderr,
    )
    session = run_scenario(args.scenario, seed=args.seed)
    meta = {"scenario": args.scenario, "seed": args.seed}
    trace_path = write_trace_json(session, args.out, metadata=meta)
    print(f"wrote {trace_path} (open in Perfetto / chrome://tracing)")
    if args.metrics:
        metrics_path = write_metrics_json(session, args.metrics, metadata=meta)
        print(f"wrote {metrics_path}")
    spans = session.tracer.span_counts()
    rows = [[cat, n] for cat, n in spans.items()]
    rows += [[f"{cat} (instant)", n]
             for cat, n in session.tracer.instant_counts().items()]
    _print_table(
        ["category", "events"],
        rows,
        title=f"Recorded events ({sum(spans.values())} spans)",
    )
    return 0, None


def _cmd_validate(args: argparse.Namespace) -> Outcome:
    scenarios = tuple(args.scenario) if args.scenario else golden_scenarios()
    only = tuple(args.only) if args.only else None
    print(
        f"running validation (scenarios={list(scenarios)}, "
        f"sections={list(only) if only else 'all'}, seed={args.seed}) ...",
        file=sys.stderr,
    )
    report = run_validation(scenarios, seed=args.seed, only=only)
    # One row per check name: the catalog view; individual failures follow.
    by_name: dict[str, list] = {}
    for r in report.results:
        by_name.setdefault(r.name, []).append(r)
    rows = []
    for name in sorted(by_name):
        group = by_name[name]
        bad = [r for r in group if not r.passed]
        rows.append([name, len(group), len(group) - len(bad),
                     "ok" if not bad else bad[0].status.upper()])
    _print_table(
        ["check", "runs", "passed", "verdict"],
        rows,
        title=f"Validation plane ({len(report.results)} checks)",
    )
    for r in report.results:
        if not r.passed:
            print(f"{r.status:>4}  {r.name}: {r.detail}")
    ok = report.ok(strict=args.strict)
    print(f"validation {'passed' if ok else 'FAILED'} "
          f"({len(report.failures)} failures, {len(report.warnings)} warnings"
          f"{', strict' if args.strict else ''})")
    return (0 if ok else 1), report.as_dict()


def _resolve_analysis_target(target: str):
    """Resolve the ``analyze`` argument to (AnalysisResult, DeviceKernel|None).

    Accepts ``pkg.module:fn``, ``path/to/file.py:fn`` or the name of a
    source-backed kernel from :mod:`repro.frontend.kernels`. A target that
    cannot be found or imported raises :class:`ConfigurationError`.
    """
    if ":" in target:
        mod, _, fn = target.rpartition(":")
        if mod.endswith(".py"):
            path = Path(mod)
            if not path.is_file():
                raise ConfigurationError(f"no such kernel file: {mod}")
            return analyze_source(path.read_text(), fn_name=fn), None
        try:
            module = importlib.import_module(mod)
        except ImportError as exc:
            raise ConfigurationError(f"cannot import {mod!r}: {exc}") from exc
        obj = getattr(module, fn, None)
        if obj is None:
            raise ConfigurationError(f"module {mod!r} has no attribute {fn!r}")
        if isinstance(obj, DeviceKernel):
            return obj.analysis, obj
        if not callable(obj):
            raise ConfigurationError(f"{target!r} is not a function")
        lines, start_line = inspect.getsourcelines(obj)
        raw = "".join(lines)
        src = textwrap.dedent(raw)
        # Report locations in the defining file's coordinates: shift lines
        # by the function's position and columns by the stripped indent
        # (anchors inside multi-line statements shift identically).
        indent = 0
        for before, after in zip(raw.splitlines(), src.splitlines()):
            if after.strip():
                indent = len(before) - len(after)
                break
        return (
            analyze_source(
                src,
                fn_name=obj.__name__,
                line_offset=start_line - 1,
                col_offset=indent,
            ),
            None,
        )
    if target in KERNELS:
        dk = KERNELS[target]
        return dk.analysis, dk
    raise ConfigurationError(
        f"unknown analyze target {target!r}: use module:fn, file.py:fn or "
        f"one of the backed kernels {sorted(KERNELS)}"
    )


def _cmd_analyze(args: argparse.Namespace) -> Outcome:
    analysis, dk = _resolve_analysis_target(args.kernel)
    counts = analysis.mix.as_dict()
    rows = [[name, f"{counts[name]:g}"] for name in FEATURE_NAMES]
    _print_table(
        ["feature", "static count / work-item"],
        rows,
        title=f"Table-1 features for kernel {analysis.name!r}",
    )
    est = analysis.locality_estimate
    pin = dk.pinned_locality if dk is not None else None
    line = f"locality: estimated {est.value:.4f} ({est.hits:g}/{est.total:g} reused)"
    if pin is not None:
        line += f"; pinned to {pin:g} (calibrated)"
    print(line)
    doc = {
        "kind": "frontend_analysis",
        "kernel": analysis.name,
        "features": counts,
        "locality_estimate": est.value,
        "locality_pinned": pin,
        "diagnostics": [d.as_dict() for d in analysis.diagnostics],
        "races": [d.as_dict() for d in analysis.races],
    }
    findings = analysis.diagnostics + analysis.races
    if findings:
        print(f"{len(findings)} diagnostics:", file=sys.stderr)
        for d in findings:
            print(f"  {d.format()}", file=sys.stderr)
        return 1, doc
    print(
        "diagnostics: none (kernel is inside the device-Python subset and "
        "race/bounds-clean)"
    )
    return 0, doc


def _cmd_serve(args: argparse.Namespace) -> Outcome:
    print(
        f"running service session (seed={args.seed}, tenants={args.tenants}, "
        f"submissions={args.submissions}, partitions={args.partitions}, "
        f"cycles={args.cycles}) ...",
        file=sys.stderr,
    )
    with scoped_cache():
        service = run_service_session(
            seed=args.seed,
            n_tenants=args.tenants,
            n_submissions=args.submissions,
            n_partitions=args.partitions,
            n_cycles=args.cycles,
        )
    report = service.report()
    # Wattlytics-style per-tenant accounting.
    rows = [
        [row["tenant"], row["priority"], row["target"], row["shard"],
         row["admitted"], row["rejected"], row["drained"],
         f"{row['energy_j']:.3f}", f"{row['saved_j']:.3f}",
         "-" if row["p99_latency_s"] is None
         else f"{row['p99_latency_s']:.3f}"]
        for row in report["tenants"]
    ]
    _print_table(
        ["tenant", "prio", "target", "shard", "admitted", "rejected",
         "drained", "energy (J)", "saved (J)", "p99 lat (s)"],
        rows,
        title="Per-tenant accounting",
    )
    cluster = report["cluster"]
    p50, p99 = cluster["p50_latency_s"], cluster["p99_latency_s"]
    print(
        f"cluster: {cluster['drained']} drained / "
        f"{cluster['submissions']} admitted / "
        f"{cluster['rejections']} rejected over {cluster['cycles']} cycles; "
        f"{cluster['saved_j']:.3f} J saved vs MAX_PERF "
        f"(p50 {'-' if p50 is None else f'{p50:.3f}'} s, "
        f"p99 {'-' if p99 is None else f'{p99:.3f}'} s)"
    )
    if args.store:
        path = service.store.save(args.store)
        print(f"wrote {path} ({len(service.store)} events)", file=sys.stderr)
    return 0, report


def _cmd_distributed(args: argparse.Namespace) -> Outcome:
    print(
        f"distributed stencil graph (device={args.device}, "
        f"ranks={args.ranks}, steps={args.steps}, sla={args.sla}) ...",
        file=sys.stderr,
    )
    spec = get_spec(args.device)
    with scoped_cache():
        comm = build_comm(spec, args.ranks)
        graph = build_stencil_graph(comm, steps=args.steps)
        plan = plan_global_frequencies(
            spec, graph.rank_kernels(), sla_factor=args.sla, cache=True
        )
        baseline = plan_global_frequencies(
            spec, graph.rank_kernels(), sla_factor=args.sla,
            objective="MAX_PERF", cache=True,
        )
        result = run_graph(graph, comm, plan)
        ref = run_graph(graph, build_comm(spec, args.ranks), baseline)
    counts = graph.counts()
    slack = sum(t != "MAX_PERF" for t in plan.rank_targets)
    if args.ranks <= 16:
        _print_table(
            ["rank", "target", "core (MHz)", "time (s)", "energy (J)",
             "switches"],
            [[
                r, plan.rank_targets[r], plan.rank_clocks[r][1],
                f"{result.rank_time_s[r]:.6f}",
                f"{result.rank_energy_j[r]:.3f}",
                int(result.rank_switches[r]),
            ] for r in range(args.ranks)],
            title="Per-rank plan & execution",
        )
    _print_table(
        ["nodes", "kernels", "halos", "gathers", "waves", "critical rank",
         "slack ranks"],
        [[
            len(graph.nodes), counts.get("kernel", 0),
            counts.get("halo", 0), counts.get("gather", 0),
            graph.n_waves, plan.critical_rank, slack,
        ]],
        title="Command graph",
    )
    saved = ref.total_energy_j - result.total_energy_j
    frac = saved / ref.total_energy_j if ref.total_energy_j else 0.0
    mode = result.mode + (f" (fallback: {result.fallback})"
                          if result.fallback else "")
    print(
        f"executed via {mode}: completion {result.completion_s:.6f} s "
        f"(MAX_PERF {ref.completion_s:.6f} s, budget "
        f"{args.sla:.2f}x), energy {result.total_energy_j:.2f} J vs "
        f"{ref.total_energy_j:.2f} J at MAX_PERF — saved {saved:.2f} J "
        f"({100 * frac:.1f}%)"
    )
    return 0, {
        "device": spec.name,
        "ranks": args.ranks,
        "steps": args.steps,
        "sla_factor": args.sla,
        "graph": {
            "nodes": len(graph.nodes), "waves": graph.n_waves, **counts,
        },
        "plan": {
            "critical_rank": plan.critical_rank,
            "slack_ranks": slack,
            "rank_targets": list(plan.rank_targets),
        },
        "result": result.summary(),
        "maxperf": ref.summary(),
        "saved_j": saved,
    }


def _cmd_lint(args: argparse.Namespace) -> Outcome:
    paths = args.paths if args.paths else [str(default_lint_root())]
    violations = lint_paths(paths)
    for v in violations:
        print(v.format())
    n_files = len({v.path for v in violations})
    if violations:
        print(
            f"lint: {len(violations)} determinism violations in "
            f"{n_files} files",
            file=sys.stderr,
        )
        return 1, None
    print(f"lint: clean ({', '.join(paths)})")
    return 0, None


def _cmd_certify(args: argparse.Namespace) -> Outcome:
    scenarios = tuple(args.scenario) if args.scenario else None
    certificates = certify_scenarios(seed=args.seed, scenarios=scenarios)
    cert_ok, cert_bad = deadline_demo()
    # One verdict: the same checks ``validate --only analysis`` applies.
    results = check_scenario_certificates(certificates) + check_deadline_demo(
        cert_ok, cert_bad
    )
    failures = sum(not r.passed for r in results)
    _print_table(
        ["check", "verdict", "detail"],
        [[r.name, r.status, r.detail] for r in results],
        title=f"Plan certificates (seed={args.seed})",
    )
    for name, cert in certificates.items():
        for note in cert.notes:
            print(f"  {name}: {note}", file=sys.stderr)
    verdict = "certified" if failures == 0 else f"{failures} FAILURES"
    print(f"certification {verdict} "
          f"({len(certificates)} scenarios + DEADLINE demo)")
    return (0 if failures == 0 else 1), {
        "seed": args.seed,
        "ok": failures == 0,
        "scenarios": {
            name: cert.as_dict() for name, cert in certificates.items()
        },
        "deadline_demo": {
            "feasible": cert_ok.as_dict(),
            "infeasible": cert_bad.as_dict(),
        },
    }


# --------------------------------------------------------------- the table

#: One ``add_argument`` call: its flags and its keyword options.
Arg = tuple[tuple[str, ...], dict[str, Any]]


def _arg(*flags: str, **options: Any) -> Arg:
    return flags, options


#: Arguments several commands take, each declared once. A command's own
#: options (a default or help line that differs) override these.
SHARED_ARGS: dict[str, dict[str, Any]] = {
    "--device": dict(default="v100", choices=known_devices()),
    "--json": dict(default=None, help="export results to a JSON file"),
    "--seed": dict(type=int, default=7, help="scenario seed"),
    "--scenario": dict(nargs="+", choices=sorted(SCENARIOS), default=None),
}


@dataclass(frozen=True)
class Command:
    """One subcommand: its ``--help`` line, its run function and its
    arguments, in ``--help`` order."""

    help: str
    run: Callable[[argparse.Namespace], Outcome]
    args: tuple[Arg, ...] = ()


#: Every subcommand, in ``--help`` order.
COMMANDS: dict[str, Command] = {
    "devices": Command("list known GPU models", _cmd_devices),
    "train": Command("train energy models, save the bundle", _cmd_train, (
        _arg("--device"),
        _arg("--out", required=True, help="output bundle JSON path"),
        _arg("--stride", type=int, default=4,
             help="frequency-table stride for the training sweep"),
        _arg("--random-count", type=int, default=24),
        _arg("--algorithm", default="best", choices=("best", *ALGORITHM_NAMES)),
    )),
    "compile": Command("emit a per-kernel frequency plan", _cmd_compile, (
        _arg("--device"),
        _arg("--bundle", required=True, help="trained bundle JSON path"),
        _arg("--benchmarks", nargs="+", required=True),
        _arg("--targets", nargs="+", default=["MIN_EDP"]),
    )),
    "paper": Command("run paper artifacts (figures, tables, ablations), "
                     "print their numbers and check verdicts", _cmd_paper, (
        _arg("artifacts", nargs="+", choices=tuple(ARTIFACTS),
             metavar="ARTIFACT",
             help=f"artifacts to run: {', '.join(ARTIFACTS)}"),
        _arg("--json", help="export numbers and checks to a JSON file"),
    )),
    "adapt": Command("deadline-aware adaptive DVFS vs a stale static plan "
                     "under thermal throttle", _cmd_adapt, (
        _arg("--seed"),
        _arg("--json"),
    )),
    "trace": Command("run an observability scenario, export Chrome trace + "
                     "metrics JSON", _cmd_trace, (
        _arg("scenario", choices=sorted(SCENARIOS),
             help="seeded end-to-end scenario to run"),
        _arg("--seed"),
        _arg("--out", default="trace.json",
             help="Chrome trace_event output path"),
        _arg("--metrics", default=None,
             help="also write the flat metrics document here"),
    )),
    "validate": Command("run the invariant & differential validation plane",
                        _cmd_validate, (
        _arg("--scenario",
             help="scenarios to replay (default: those with goldens)"),
        _arg("--only", nargs="+", choices=SECTIONS, default=None,
             help="restrict to these report sections"),
        _arg("--strict", action="store_true",
             help="fail on warnings too (the CI contract)"),
        _arg("--seed", help="seeded-case seed"),
        _arg("--json", help="export the full report to a JSON file"),
    )),
    "analyze": Command("run the §6.1 front end over a kernel, print features "
                       "+ diagnostics", _cmd_analyze, (
        _arg("kernel", help="module:fn, path/to/file.py:fn, or a backed "
             "kernel name (e.g. vec_add)"),
        _arg("--json", help="export features and diagnostics to a JSON file"),
    )),
    "certify": Command("statically certify frequency plans: bracket the "
                       "golden scenarios, audit the weak-scaling graph, "
                       "prove/refute DEADLINE feasibility", _cmd_certify, (
        _arg("--scenario", help="scenarios to certify (default: all)"),
        _arg("--seed"),
        _arg("--json", help="export all certificates to a JSON file"),
    )),
    "lint": Command("repo-wide determinism linter", _cmd_lint, (
        _arg("paths", nargs="*",
             help="files/directories to lint (default: src/repro)"),
    )),
    "serve": Command("run a seeded multi-tenant service session, print "
                     "per-tenant accounting", _cmd_serve, (
        _arg("--seed", help="session seed"),
        _arg("--tenants", type=int, default=8, help="tenant count"),
        _arg("--submissions", type=int, default=2000,
             help="seeded submission attempts"),
        _arg("--partitions", type=int, default=4, help="scheduler shards"),
        _arg("--cycles", type=int, default=8, help="drain cycles"),
        _arg("--store", default=None,
             help="save the replayable job store to this JSON path"),
        _arg("--json", help="export the full report to a JSON file"),
    )),
    "distributed": Command("run the distributed command-graph scheduler over "
                           "a halo-exchange stencil", _cmd_distributed, (
        _arg("--device", default="a100"),
        _arg("--ranks", type=int, default=8),
        _arg("--steps", type=int, default=4),
        _arg("--sla", type=float, default=1.25,
             help="global completion budget vs MAX_PERF (default 1.25)"),
        _arg("--json", default="", help="write the run summary to this path"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser, built from :data:`COMMANDS` (exposed for
    testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-synergy",
        description="SYnergy (SC'23) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flags, options in command.args:
            p.add_argument(*flags, **{**SHARED_ARGS.get(flags[0], {}),
                                      **options})
        p.set_defaults(fn=command.run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    0 is success; 1 means a check or verdict failed (``paper``,
    ``validate``, ``lint``, ``certify``, ``analyze``, ``adapt``); 2 means
    bad usage or input. This is the one error boundary: a
    :class:`ConfigurationError` or :class:`ValidationError` from any
    command prints ``<command>: <message>`` on stderr and exits 2, as
    argparse does for a malformed command line. It also writes every
    ``--json`` document.
    """
    args = build_parser().parse_args(argv)
    try:
        code, doc = args.fn(args)
    except (ConfigurationError, ValidationError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    if doc is not None and args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2))
        print(f"wrote {args.json}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
