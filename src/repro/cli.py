"""Command-line interface.

``python -m repro.cli <command>`` (or the ``repro-synergy`` entry point)
exposes the deployment and analysis workflows:

- ``devices`` — the Figure 1 frequency inventory,
- ``characterize`` — per-kernel Pareto summary on a device (Figs. 2/7/8),
- ``sweep`` — per-target frequency selections for one benchmark,
- ``train`` — fit the §6.1 models on micro-benchmarks and save the bundle,
- ``compile`` — per-kernel frequency plan for a set of benchmarks,
- ``accuracy`` — the Table 2 error analysis,
- ``scaling`` — the Fig. 10 weak-scaling experiment,
- ``fine-vs-coarse`` — the §2.2 tuning-granularity comparison,
- ``faults`` — the chaos sweep: energy-target quality vs injected faults,
- ``adapt`` — the deadline-aware adaptive-DVFS chaos comparison: drift
  detection and the degradation ladder vs a stale static plan under
  injected thermal-throttle windows (see ``docs/RESILIENCE.md``),
- ``trace`` — run a seeded observability scenario and export its Chrome
  trace and metrics documents (see ``docs/OBSERVABILITY.md``),
- ``validate`` — run the invariant catalog and differential harness over
  the golden scenarios, including the batched-engine/scalar parity
  section (``--only engine``; see ``docs/VALIDATION.md``); ``--strict``
  also fails on warnings and is the CI gate in ``scripts/check.sh``,
- ``analyze`` — run the §6.1 static-analysis front end over one kernel
  (``module:fn``, ``file.py:fn`` or a backed kernel name) and print its
  Table-1 features, locality and diagnostics (see ``docs/FRONTEND.md``),
- ``lint`` — the repo-wide determinism linter (banned wall-clock reads,
  global RNG state, exact float equality),
- ``distributed`` — run the distributed command-graph scheduler over a
  halo-exchange stencil under a global energy-target plan (see
  ``docs/DISTRIBUTED.md``).

Performance is measured by the end-to-end harness in ``bench/`` (see
``bench/README.md``), not by a subcommand.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.apps import BENCHMARK_NAMES, CloverLeaf, MiniWeather, get_benchmark
from repro.core.compiler import SynergyCompiler
from repro.core.models import EnergyModelBundle
from repro.core.persistence import load_bundle, save_bundle
from repro.experiments.accuracy import run_accuracy_analysis
from repro.experiments.characterization import characterize, fine_vs_coarse
from repro.experiments.export import (
    accuracy_to_dict,
    characterization_to_dict,
    chaos_to_dict,
    scaling_to_dict,
    write_json,
)
from repro.experiments.faults import DEFAULT_RATES, run_fault_sweep
from repro.experiments.report import format_table
from repro.experiments.scaling import run_scaling_experiment
from repro.experiments.sweep import sweep_kernel
from repro.experiments.training import (
    ALGORITHM_NAMES,
    make_bundle,
    microbench_training_set,
    train_bundles,
)
from repro.hw.specs import get_spec, known_devices
from repro.metrics.targets import EnergyTarget


def _parse_targets(names: Sequence[str]) -> list[EnergyTarget]:
    return [EnergyTarget.parse(n) for n in names]


# ------------------------------------------------------------------ commands

def _cmd_devices(args: argparse.Namespace) -> int:
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
    print(
        format_table(
            ["id", "device", "#core configs", "core range (MHz)", "mem (MHz)",
             "default (MHz)"],
            rows,
            title="Known devices (Figure 1)",
        )
    )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    spec = get_spec(args.device)
    names = args.benchmarks if args.benchmarks else list(BENCHMARK_NAMES)
    rows = []
    exported = {}
    for name in names:
        c = characterize(spec, get_benchmark(name).kernel)
        exported[name] = characterization_to_dict(c)
        rows.append(
            [
                name,
                f"[{c.pareto_speedup_min:.3f}, {c.pareto_speedup_max:.3f}]",
                f"{c.max_energy_saving:.1%}",
                f"{c.loss_at_max_saving:.1%}",
                c.default_is_pareto,
            ]
        )
    print(
        format_table(
            ["benchmark", "pareto speedup", "max saving", "loss @ max",
             "default on front"],
            rows,
            title=f"Characterization on {spec.name}",
        )
    )
    if args.json:
        write_json({"kind": "characterization_set", "device": spec.name,
                    "benchmarks": exported}, args.json)
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = get_spec(args.device)
    sweep = sweep_kernel(spec, get_benchmark(args.benchmark).kernel)
    rows = []
    for target in _parse_targets(args.targets):
        idx = sweep.resolve(target)
        rows.append(
            [
                target.name,
                f"{sweep.freqs_mhz[idx]:.0f}",
                f"{1 - sweep.normalized_energy[idx]:+.2%}",
                f"{sweep.speedup[idx]:.3f}x",
            ]
        )
    print(
        format_table(
            ["target", "core MHz", "energy saving", "speedup"],
            rows,
            title=f"{args.benchmark} on {spec.name} (measured sweep)",
        )
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
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
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    spec = get_spec(args.device)
    bundle = load_bundle(args.bundle)
    kernels = [get_benchmark(n).kernel for n in args.benchmarks]
    targets = _parse_targets(args.targets)
    app = SynergyCompiler(bundle, spec).compile(kernels, targets)
    rows = [
        [kernel, target, f"{mem}", f"{core}"]
        for (kernel, target), (mem, core) in sorted(app.plan.entries.items())
    ]
    print(
        format_table(
            ["kernel", "target", "mem MHz", "core MHz"],
            rows,
            title=f"Frequency plan for {spec.name}",
        )
    )
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    spec = get_spec(args.device)
    print(
        f"training {len(args.algorithms)} model families on {spec.name} "
        "micro-benchmarks ...",
        file=sys.stderr,
    )
    training = microbench_training_set(
        spec, freq_stride=args.stride, random_count=args.random_count
    )
    bundles = train_bundles(spec, training=training, algorithms=args.algorithms)
    analysis = run_accuracy_analysis(spec, bundles=bundles)
    if args.json:
        write_json(accuracy_to_dict(analysis), args.json)
        print(f"wrote {args.json}", file=sys.stderr)
    headers = ["objective"]
    for algorithm in args.algorithms:
        headers += [f"{algorithm} RMSE", f"{algorithm} MAPE"]
    headers.append("best")
    rows = []
    for row in analysis.table2():
        cells = [row["objective"]]
        for algorithm in args.algorithms:
            rmse = row[f"{algorithm}_rmse"]
            mape = row[f"{algorithm}_mape"]
            cells += [
                "-" if rmse != rmse else f"{rmse:.4g}",
                "-" if mape != mape else f"{mape:.4g}",
            ]
        cells.append(row["best"])
        rows.append(cells)
    print(format_table(headers, rows, title="Table 2 - error analysis"))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    factory = {
        "cloverleaf": lambda: CloverLeaf(steps=args.steps),
        "miniweather": lambda: MiniWeather(steps=args.steps),
    }[args.app]
    bundle = load_bundle(args.bundle) if args.bundle else None
    if bundle is None:
        print("no --bundle given; training default models ...", file=sys.stderr)
    result = run_scaling_experiment(
        factory,
        gpu_counts=tuple(args.gpus),
        targets=_parse_targets(args.targets),
        bundle=bundle,
    )
    if args.json:
        write_json(scaling_to_dict(result), args.json)
        print(f"wrote {args.json}", file=sys.stderr)
    rows = [
        [
            p.n_gpus,
            p.target_name,
            f"{p.elapsed_s:.4f}",
            f"{p.gpu_energy_j:.1f}",
            f"{p.energy_saving_vs(result.baseline(p.n_gpus)):+.2%}",
        ]
        for p in result.points
    ]
    print(
        format_table(
            ["GPUs", "target", "time (s)", "GPU energy (J)", "saving"],
            rows,
            title=f"{args.app} weak scaling (Figure 10)",
        )
    )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import FaultSpec

    factory = {
        "cloverleaf": lambda: CloverLeaf(steps=args.steps),
        "miniweather": lambda: MiniWeather(steps=args.steps),
    }[args.app]
    extra: tuple[FaultSpec, ...] = ()
    spare = 0
    if args.node_fail_at is not None:
        extra = (FaultSpec(site="slurm.node_fail", at_s=args.node_fail_at),)
        spare = 1  # keep a healthy node for the requeue
    bundle = load_bundle(args.bundle) if args.bundle else None
    if bundle is None:
        print("no --bundle given; training default models ...", file=sys.stderr)
    target = None if args.target == "default" else EnergyTarget.parse(args.target)
    result = run_fault_sweep(
        factory,
        rates=tuple(args.rates),
        seed=args.seed,
        n_nodes=args.nodes,
        spare_nodes=spare,
        target=target,
        bundle=bundle,
        extra_specs=extra,
    )
    if args.json:
        write_json(chaos_to_dict(result), args.json)
        print(f"wrote {args.json}", file=sys.stderr)
    rows = [
        [
            f"{p.fault_rate:g}",
            p.state,
            p.requeues,
            f"{p.elapsed_s:.4f}",
            f"{p.gpu_energy_j:.1f}",
            p.clock_retries,
            f"{p.degraded_fraction:.1%}",
            p.faults_injected,
            p.recoveries,
        ]
        for p in result.points
    ]
    print(
        format_table(
            ["rate", "state", "requeues", "time (s)", "GPU energy (J)",
             "retries", "degraded", "faults", "recoveries"],
            rows,
            title=f"{args.app} chaos sweep (target {result.target_name}, "
            f"seed {result.seed})",
        )
    )
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    from repro.adapt.chaos import run_thermal_drift_comparison
    from repro.core.sweepcache import scoped_cache

    print(
        f"running thermal-drift chaos comparison (seed {args.seed}) ...",
        file=sys.stderr,
    )
    with scoped_cache():
        comparison = run_thermal_drift_comparison(seed=args.seed)
    if args.json:
        write_json(comparison.as_dict(), args.json)
        print(f"wrote {args.json}", file=sys.stderr)
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
    print(
        format_table(
            ["run", "deadlines met", "time (s)", "GPU energy (J)", "saving"],
            rows,
            title=f"Thermal-drift chaos (deadline "
            f"{comparison.deadlines_s[0]:.4f}s/stream, seed "
            f"{comparison.seed})",
        )
    )
    print(
        format_table(
            ["t (s)", "transition", "reason", "evidence"],
            [
                [f"{t['t']:.3f}", f"{t['from']} -> {t['to']}", t["reason"],
                 t["detail"]]
                for t in comparison.transitions
            ],
            title=f"Degradation ladder ({len(comparison.drift_events)} drift "
            f"events, {comparison.refreshes} model refreshes)",
        )
    )
    print(
        f"recovered {comparison.recovery_fraction:.1%} of the pre-drift "
        f"saving ({comparison.adaptive_saving:.1%} of "
        f"{comparison.static_saving:.1%})"
    )
    missed = comparison.adaptive_fault.streams_missed
    if missed:
        print(f"adaptive run missed {missed} stream deadlines", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import write_metrics_json, write_trace_json
    from repro.obs.scenarios import run_scenario

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
    print(
        format_table(
            ["category", "events"],
            rows,
            title=f"Recorded events ({sum(spans.values())} spans)",
        )
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate.runner import GOLDEN_SCENARIOS, run_validation

    scenarios = tuple(args.scenario) if args.scenario else GOLDEN_SCENARIOS
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
    print(
        format_table(
            ["check", "runs", "passed", "verdict"],
            rows,
            title=f"Validation plane ({len(report.results)} checks)",
        )
    )
    for r in report.results:
        if not r.passed:
            print(f"{r.status:>4}  {r.name}: {r.detail}")
    if args.json:
        write_json(report.as_dict(), args.json)
        print(f"wrote {args.json}", file=sys.stderr)
    ok = report.ok(strict=args.strict)
    print(f"validation {'passed' if ok else 'FAILED'} "
          f"({len(report.failures)} failures, {len(report.warnings)} warnings"
          f"{', strict' if args.strict else ''})")
    return 0 if ok else 1


def _cmd_fine_vs_coarse(args: argparse.Namespace) -> int:
    spec = get_spec(args.device)
    kernels = [
        get_benchmark(n).kernel.with_name(f"{n}#{i}")
        for i, n in enumerate(args.benchmarks)
    ]
    target = EnergyTarget.parse(args.target)
    result = fine_vs_coarse(spec, kernels, target)
    print(
        format_table(
            ["granularity", "energy (J)", "time (s)"],
            [
                ["coarse (best single f)", result.coarse_energy_j,
                 result.coarse_time_s],
                ["fine (per-kernel)", result.fine_energy_j, result.fine_time_s],
            ],
            title=f"{target.name} on {spec.name}: "
            f"fine-grained advantage {result.fine_advantage:+.2%}",
        )
    )
    return 0


def _resolve_analysis_target(target: str):
    """Resolve the ``analyze`` argument to (AnalysisResult, DeviceKernel|None).

    Accepts ``pkg.module:fn``, ``path/to/file.py:fn`` or the name of a
    source-backed kernel from :mod:`repro.frontend.kernels`.
    """
    import importlib
    import inspect
    import textwrap
    from pathlib import Path

    from repro.common.errors import ConfigurationError
    from repro.frontend import DeviceKernel, analyze_source
    from repro.frontend.kernels import KERNELS

    if ":" in target:
        mod, _, fn = target.rpartition(":")
        if mod.endswith(".py"):
            path = Path(mod)
            if not path.is_file():
                raise ConfigurationError(f"no such kernel file: {mod}")
            return analyze_source(path.read_text(), fn_name=fn), None
        obj = getattr(importlib.import_module(mod), fn, None)
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


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.common.errors import ConfigurationError, ValidationError
    from repro.kernelir.features import FEATURE_NAMES

    try:
        analysis, dk = _resolve_analysis_target(args.kernel)
    except (ConfigurationError, ValidationError, ImportError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    counts = analysis.mix.as_dict()
    rows = [[name, f"{counts[name]:g}"] for name in FEATURE_NAMES]
    print(
        format_table(
            ["feature", "static count / work-item"],
            rows,
            title=f"Table-1 features for kernel {analysis.name!r}",
        )
    )
    est = analysis.locality_estimate
    pin = dk.pinned_locality if dk is not None else None
    line = f"locality: estimated {est.value:.4f} ({est.hits:g}/{est.total:g} reused)"
    if pin is not None:
        line += f"; pinned to {pin:g} (calibrated)"
    print(line)
    if args.json:
        write_json(
            {
                "kind": "frontend_analysis",
                "kernel": analysis.name,
                "features": counts,
                "locality_estimate": est.value,
                "locality_pinned": pin,
                "diagnostics": [d.as_dict() for d in analysis.diagnostics],
                "races": [d.as_dict() for d in analysis.races],
            },
            args.json,
        )
        print(f"wrote {args.json}", file=sys.stderr)
    findings = analysis.diagnostics + analysis.races
    if findings:
        print(f"{len(findings)} diagnostics:", file=sys.stderr)
        for d in findings:
            print(f"  {d.format()}", file=sys.stderr)
        return 1
    print(
        "diagnostics: none (kernel is inside the device-Python subset and "
        "race/bounds-clean)"
    )
    return 0


def _tenant_rows(tenants: list[dict]) -> list[list[object]]:
    """Wattlytics-style per-tenant accounting rows."""
    return [
        [
            row["tenant"],
            row["priority"],
            row["target"],
            row["shard"],
            row["admitted"],
            row["rejected"],
            row["drained"],
            f"{row['energy_j']:.3f}",
            f"{row['saved_j']:.3f}",
            "-" if row["p99_latency_s"] is None
            else f"{row['p99_latency_s']:.3f}",
        ]
        for row in tenants
    ]


_TENANT_HEADERS = [
    "tenant", "prio", "target", "shard", "admitted", "rejected",
    "drained", "energy (J)", "saved (J)", "p99 lat (s)",
]


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.common.errors import ConfigurationError, ValidationError
    from repro.core.sweepcache import scoped_cache
    from repro.service.loadgen import run_service_session

    print(
        f"running service session (seed={args.seed}, tenants={args.tenants}, "
        f"submissions={args.submissions}, partitions={args.partitions}, "
        f"cycles={args.cycles}) ...",
        file=sys.stderr,
    )
    try:
        with scoped_cache():
            service = run_service_session(
                seed=args.seed,
                n_tenants=args.tenants,
                n_submissions=args.submissions,
                n_partitions=args.partitions,
                n_cycles=args.cycles,
            )
    except (ConfigurationError, ValidationError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    report = service.report()
    print(
        format_table(
            _TENANT_HEADERS,
            _tenant_rows(report["tenants"]),
            title="Per-tenant accounting",
        )
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
    if args.json:
        write_json(report, args.json)
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _cmd_distributed(args: argparse.Namespace) -> int:
    from repro.common.errors import ConfigurationError, ValidationError
    from repro.core.compiler import plan_global_frequencies
    from repro.core.sweepcache import scoped_cache
    from repro.distributed import build_comm, build_stencil_graph, run_graph

    print(
        f"distributed stencil graph (device={args.device}, "
        f"ranks={args.ranks}, steps={args.steps}, sla={args.sla}) ...",
        file=sys.stderr,
    )
    try:
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
    except (ConfigurationError, ValidationError) as exc:
        print(f"distributed: {exc}", file=sys.stderr)
        return 2
    counts = graph.counts()
    slack = sum(t != "MAX_PERF" for t in plan.rank_targets)
    if args.ranks <= 16:
        print(
            format_table(
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
        )
    print(
        format_table(
            ["nodes", "kernels", "halos", "gathers", "waves", "critical rank",
             "slack ranks"],
            [[
                len(graph.nodes), counts.get("kernel", 0),
                counts.get("halo", 0), counts.get("gather", 0),
                graph.n_waves, plan.critical_rank, slack,
            ]],
            title="Command graph",
        )
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
    if args.json:
        doc = {
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
        write_json(doc, args.json)
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.frontend.lint import default_lint_root, lint_paths

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
        return 1
    print(f"lint: clean ({', '.join(paths)})")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.analysis.scenarios import certify_scenarios, deadline_demo

    scenarios = tuple(args.scenario) if args.scenario else None
    certificates = certify_scenarios(seed=args.seed, scenarios=scenarios)
    rows = []
    failures = 0
    for name, cert in certificates.items():
        for bracket in cert.checks:
            ok = bracket.ok
            failures += not ok
            rows.append([
                name,
                bracket.quantity,
                f"{bracket.interval}",
                f"{bracket.measured:.6e}",
                "ok" if ok else "OUTSIDE",
            ])
        for label, ok in cert.assertions:
            failures += not ok
            rows.append([name, "assert", label, "", "ok" if ok else "FAILED"])
    print(
        format_table(
            ["scenario", "quantity", "static interval", "measured", "verdict"],
            rows,
            title=f"Plan certificates (seed={args.seed})",
        )
    )
    for name, cert in certificates.items():
        for note in cert.notes:
            print(f"  {name}: {note}", file=sys.stderr)

    cert_ok, cert_bad = deadline_demo(seed=args.seed)
    demo_ok = (
        cert_ok.feasible
        and not cert_bad.feasible
        and cert_bad.witness is not None
    )
    failures += not demo_ok
    print(
        f"DEADLINE demo: feasible plan "
        f"{'proved' if cert_ok.feasible else 'REFUTED (bug)'}; "
        f"infeasible plan "
        + (
            f"refuted with witness {cert_bad.witness!r}"
            if not cert_bad.feasible
            else "NOT refuted (bug)"
        )
    )
    if cert_bad.violations:
        print(f"  {cert_bad.violations[0]}")

    if args.json:
        write_json(
            {
                "seed": args.seed,
                "ok": failures == 0,
                "scenarios": {
                    name: cert.as_dict()
                    for name, cert in certificates.items()
                },
                "deadline_demo": {
                    "feasible": cert_ok.as_dict(),
                    "infeasible": cert_bad.as_dict(),
                },
            },
            args.json,
        )
        print(f"wrote {args.json}", file=sys.stderr)

    verdict = "certified" if failures == 0 else f"{failures} FAILURES"
    print(f"certification {verdict} "
          f"({len(certificates)} scenarios + DEADLINE demo"
          f"{', strict' if args.strict else ''})")
    return 0 if failures == 0 else 1


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-synergy",
        description="SYnergy (SC'23) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list known GPU models").set_defaults(
        fn=_cmd_devices
    )

    p = sub.add_parser("characterize", help="per-kernel Pareto summary")
    p.add_argument("--device", default="v100", choices=known_devices())
    p.add_argument("--benchmarks", nargs="*", default=None,
                   help="benchmark names (default: all 23)")
    p.add_argument("--json", default=None, help="export results to a JSON file")
    p.set_defaults(fn=_cmd_characterize)

    p = sub.add_parser("sweep", help="per-target selections for one benchmark")
    p.add_argument("--device", default="v100", choices=known_devices())
    p.add_argument("--benchmark", required=True)
    p.add_argument("--targets", nargs="+",
                   default=["MIN_ENERGY", "MIN_EDP", "MIN_ED2P", "ES_50", "PL_50"])
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("train", help="train energy models, save the bundle")
    p.add_argument("--device", default="v100", choices=known_devices())
    p.add_argument("--out", required=True, help="output bundle JSON path")
    p.add_argument("--stride", type=int, default=4,
                   help="frequency-table stride for the training sweep")
    p.add_argument("--random-count", type=int, default=24)
    p.add_argument("--algorithm", default="best",
                   choices=("best", *ALGORITHM_NAMES))
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("compile", help="emit a per-kernel frequency plan")
    p.add_argument("--device", default="v100", choices=known_devices())
    p.add_argument("--bundle", required=True, help="trained bundle JSON path")
    p.add_argument("--benchmarks", nargs="+", required=True)
    p.add_argument("--targets", nargs="+", default=["MIN_EDP"])
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("accuracy", help="the Table 2 error analysis")
    p.add_argument("--device", default="v100", choices=known_devices())
    p.add_argument("--algorithms", nargs="+", default=list(ALGORITHM_NAMES),
                   choices=ALGORITHM_NAMES)
    p.add_argument("--stride", type=int, default=8)
    p.add_argument("--random-count", type=int, default=24)
    p.add_argument("--json", default=None, help="export results to a JSON file")
    p.set_defaults(fn=_cmd_accuracy)

    p = sub.add_parser("scaling", help="the Fig. 10 weak-scaling experiment")
    p.add_argument("--app", default="cloverleaf",
                   choices=("cloverleaf", "miniweather"))
    p.add_argument("--gpus", nargs="+", type=int, default=[4, 8, 16])
    p.add_argument("--targets", nargs="+", default=["MIN_EDP", "ES_50", "PL_50"])
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--bundle", default=None, help="trained bundle JSON path")
    p.add_argument("--json", default=None, help="export results to a JSON file")
    p.set_defaults(fn=_cmd_scaling)

    p = sub.add_parser("faults", help="chaos sweep: resilience vs fault rate")
    p.add_argument("--app", default="cloverleaf",
                   choices=("cloverleaf", "miniweather"))
    p.add_argument("--rates", nargs="+", type=float, default=list(DEFAULT_RATES),
                   help="transient NVML clock-set failure rates to sweep")
    p.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    p.add_argument("--nodes", type=int, default=2, help="nodes per job")
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--target", default="MIN_EDP",
                   help="energy target ('default' disables per-kernel tuning)")
    p.add_argument("--node-fail-at", type=float, default=None,
                   help="also schedule a node failure at this virtual time "
                   "(a spare node is provisioned for the requeue)")
    p.add_argument("--bundle", default=None, help="trained bundle JSON path")
    p.add_argument("--json", default=None, help="export results to a JSON file")
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser("adapt", help="deadline-aware adaptive DVFS vs a "
                       "stale static plan under thermal throttle")
    p.add_argument("--seed", type=int, default=7, help="scenario seed")
    p.add_argument("--json", default=None, help="export results to a JSON file")
    p.set_defaults(fn=_cmd_adapt)

    p = sub.add_parser("fine-vs-coarse", help="tuning-granularity comparison")
    p.add_argument("--device", default="v100", choices=known_devices())
    p.add_argument("--benchmarks", nargs="+", required=True)
    p.add_argument("--target", default="MIN_ENERGY")
    p.set_defaults(fn=_cmd_fine_vs_coarse)

    p = sub.add_parser("trace", help="run an observability scenario, export "
                       "Chrome trace + metrics JSON")
    from repro.obs.scenarios import SCENARIOS

    p.add_argument("scenario", choices=sorted(SCENARIOS),
                   help="seeded end-to-end scenario to run")
    p.add_argument("--seed", type=int, default=7, help="scenario seed")
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace_event output path")
    p.add_argument("--metrics", default=None,
                   help="also write the flat metrics document here")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("validate", help="run the invariant & differential "
                       "validation plane")
    from repro.validate.runner import SECTIONS

    p.add_argument("--scenario", nargs="+", choices=sorted(SCENARIOS),
                   default=None,
                   help="golden scenarios to replay (default: all)")
    p.add_argument("--only", nargs="+", choices=SECTIONS, default=None,
                   help="restrict to these report sections")
    p.add_argument("--strict", action="store_true",
                   help="fail on warnings too (the CI contract)")
    p.add_argument("--seed", type=int, default=7, help="seeded-case seed")
    p.add_argument("--json", default=None,
                   help="export the full report to a JSON file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("analyze", help="run the §6.1 front end over a kernel, "
                       "print features + diagnostics")
    p.add_argument("kernel",
                   help="module:fn, path/to/file.py:fn, or a backed kernel "
                   "name (e.g. vec_add)")
    p.add_argument("--json", default=None,
                   help="export features and diagnostics to a JSON file")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("certify", help="statically certify frequency plans: "
                       "bracket the golden scenarios, audit the weak-scaling "
                       "graph, prove/refute DEADLINE feasibility")
    from repro.analysis.scenarios import CERTIFIERS

    p.add_argument("--scenario", nargs="+", choices=sorted(CERTIFIERS),
                   default=None,
                   help="scenarios to certify (default: all)")
    p.add_argument("--seed", type=int, default=7, help="scenario seed")
    p.add_argument("--strict", action="store_true",
                   help="accepted for symmetry with validate; certificates "
                   "always gate hard")
    p.add_argument("--json", default=None,
                   help="export all certificates to a JSON file")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("lint", help="repo-wide determinism linter")
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: src/repro)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("serve", help="run a seeded multi-tenant service "
                       "session, print per-tenant accounting")
    p.add_argument("--seed", type=int, default=7, help="session seed")
    p.add_argument("--tenants", type=int, default=8, help="tenant count")
    p.add_argument("--submissions", type=int, default=2000,
                   help="seeded submission attempts")
    p.add_argument("--partitions", type=int, default=4,
                   help="scheduler shards")
    p.add_argument("--cycles", type=int, default=8, help="drain cycles")
    p.add_argument("--store", default=None,
                   help="save the replayable job store to this JSON path")
    p.add_argument("--json", default=None,
                   help="export the full report to a JSON file")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "distributed",
        help="run the distributed command-graph scheduler over a "
        "halo-exchange stencil",
    )
    p.add_argument("--device", default="A100", choices=known_devices())
    p.add_argument("--ranks", type=int, default=8)
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--sla", type=float, default=1.25,
                   help="global completion budget vs MAX_PERF (default 1.25)")
    p.add_argument("--json", default="",
                   help="write the run summary to this path")
    p.set_defaults(fn=_cmd_distributed)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return int(args.fn(args))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
