"""Benchmark harness: one workload in one process, every metric by name.

    python3 bench/run.py --workload <name> --seed <n> [--seconds S]
                         [--trace 0|1] [--smoke] [--out FILE]

A run measures three phases:

1. set-up: five fresh interpreters each import the program and prepare
   the workload's inputs from ``--seed``; ``setup_s`` is their median;
2. one untimed warm-up round, which fills the program's caches and gives
   the reference outputs;
3. timed rounds until ``--seconds`` have passed. Every round repeats the
   same inputs, so every round must reproduce the reference outputs.

Host times are reported at nominal host speed: each is scaled by a fixed
reference computation timed next to it (``hostspeed.py``).

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` every other round is traced and the
line carries the per-layer metrics instead. Outputs are checked against
``bench/expected.json`` where the seed is pinned and against invariants
otherwise; any failure makes ``correct`` false and the exit code 1.
``--out FILE`` also writes the full report (and, traced, a Chrome trace
next to it); ``--update-expected`` pins this seed's outputs.
"""

from __future__ import annotations

import os
import sys
import time

#: Set-up is timed from here, before the program is imported.
_START = time.perf_counter()

# One process with one thread and the library's default settings, pinned
# before numpy is imported.
for _var in ("REPRO_JOBS", "REPRO_EXECUTOR", "REPRO_SWEEP_CACHE"):
    os.environ.pop(_var, None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import repro  # noqa: E402

if Path(repro.__file__).resolve().parents[1] != SRC:
    sys.exit(f"bench: repro imported from {repro.__file__}, not from {SRC}")

from hostspeed import NOMINAL_S, reference_s  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5

#: How often the timed loop re-measures host speed between rounds.
REFERENCE_PERIOD_S = 0.5

#: End-to-end metrics (``--trace 0``), as declared in BENCHMARK.json.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "unit_ms_p50": "ms",
    "kernels_per_s": "kernels/s",
    "saved_frac": "fraction",
}

#: Spans the workloads record; each gives a ``<span>.self_frac`` metric.
SPANS = (
    "bench.unit",
    "sweep.training_set",
    "ml.fit",
    "compile.plan",
    "compile.global_plan",
    "mpi.launch",
    "apps.run",
    "slurm.build",
    "slurm.submit",
    "engine.batch",
    "service.admit",
    "service.drain",
    "distributed.comm",
    "distributed.graph",
    "distributed.run",
)

#: Per-round counts the workloads report (0 where a layer is not used).
COUNTS = (
    "train.rows",
    "train.forest_nodes",
    "compile.entries",
    "apps.launches",
    "slurm.jobs",
    "engine.batches",
    "engine.fallbacks",
    "engine.kernels",
    "faults.fired",
    "core.clock_retries",
    "service.admitted",
    "service.rejected",
    "service.store_events",
    "distributed.graphs",
    "distributed.nodes",
    "distributed.kernels",
    "distributed.fallbacks",
)


#: Per-layer metrics (``--trace 1``), as declared in BENCHMARK.json.
LAYER_UNITS = {
    **{f"{span}.self_frac": "fraction" for span in SPANS},
    **{name: "count" for name in COUNTS},
    "engine.fastpath_frac": "fraction",
    "distributed.batched_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "host.slowdown": "ratio",
    "gc.pause_frac": "fraction",
    "gc.collections_per_unit": "count",
    "units": "count",
    "unit_growth": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="shrink every workload")
    p.add_argument("--out", type=Path, help="write the full report here")
    p.add_argument("--update-expected", action="store_true",
                   help="pin this seed's outputs in bench/expected.json")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    if args.update_expected and args.smoke:
        p.error("outputs are pinned at default scale only")
    return args


# ------------------------------------------------------------- helpers


def measure_setup(args) -> list[dict]:
    """Set-up time of fresh interpreters (imports plus input generation),
    each with the reference time measured right after it."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def rounded(value):
    """Outputs as JSON values, floats to 12 significant digits."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {str(k): rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded(v) for v in value]
    raise TypeError(f"cannot pin {type(value).__name__}")


def git_head() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def tail(samples: list[float]) -> dict | None:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for q in (75, 90, 95, 99):
        if len(samples) * (100 - q) / 100 >= 10:
            best = {"percentile": q, "value": float(np.percentile(samples, q))}
    return best


def growth(walls: list[float]) -> float:
    """Mean of the last eighth of a round's units over the first eighth."""
    k = max(1, len(walls) // 8)
    return statistics.fmean(walls[-k:]) / statistics.fmean(walls[:k])


# ----------------------------------------------------------------- run


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    setup = measure_setup(args)
    state = workload.prepare(args.seed, args.smoke)

    tr = Tracer()
    first = workload.round(state, tr)
    units_per_round = len(tr.units)
    tr.units.clear()
    ops, failed, checks = first.ops, first.failed, {}

    pauses: list[float] = []
    gc_start = [0.0]

    def on_gc(phase, _info):
        if phase == "start":
            gc_start[0] = time.perf_counter()
        else:
            pauses.append(time.perf_counter() - gc_start[0])

    mismatched = rounds = 0
    references: list[float] = []
    gc.callbacks.append(on_gc)
    t0 = next_reference = time.perf_counter()
    try:
        while rounds < (2 if args.trace else 1) or time.perf_counter() - t0 < args.seconds:
            if time.perf_counter() >= next_reference:
                references.append(reference_s())
                next_reference = time.perf_counter() + REFERENCE_PERIOD_S
            tr.enabled = bool(args.trace) and rounds % 2 == 0
            result = workload.round(state, tr)
            tr.enabled = False
            rounds += 1
            ops += result.ops
            failed += result.failed
            mismatched += result.outputs != first.outputs
    finally:
        gc.callbacks.remove(on_gc)
    timed_wall = time.perf_counter() - t0
    checks[f"{rounds} timed rounds reproduce the warm-up outputs"] = mismatched == 0

    saved, finish_checks, reference = workload.finish(state, first)
    checks.update(finish_checks)
    outputs = rounded({"round": first.outputs, **reference})
    pinned = None
    if workload.pinned and not args.smoke:
        pins = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        if args.update_expected:
            pins.setdefault(args.workload, {})[str(args.seed)] = outputs
            EXPECTED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        pinned = pins.get(args.workload, {}).get(str(args.seed))
        if pinned is not None:
            checks[f"outputs match the seed {args.seed} pin"] = pinned == outputs
    ops += len(checks)
    failed += sum(not ok for ok in checks.values())

    untraced = [(w, k) for w, k, traced in tr.units if not traced]
    traced_walls = [w for w, _, traced in tr.units if traced]
    walls = [w for w, _ in untraced]
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "unit_ms_p50": 1e3 * statistics.median(walls),
        "kernels_per_s": statistics.median(k / w for w, k in untraced),
    }
    # Host times at the nominal host speed (see hostspeed.py).
    slowdown = statistics.median(references) / NOMINAL_S
    e2e = {
        "setup_s": statistics.median(s["setup_s"] * NOMINAL_S / s["ref_s"] for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit_ms_p50": raw["unit_ms_p50"] / slowdown,
        "kernels_per_s": raw["kernels_per_s"] * slowdown,
        "saved_frac": saved,
    }

    table = tr.table()
    counts = {name: first.counts.get(name, 0) for name in COUNTS}
    all_walls = [w for w, _, _ in tr.units]
    layers = {f"{span}.self_frac": table.get(span, {}).get("self_frac", 0.0) for span in SPANS}
    layers.update(counts)
    layers.update(
        {
            "engine.fastpath_frac": 1.0 - counts["engine.fallbacks"] / counts["engine.batches"]
            if counts["engine.batches"] else 0.0,
            "distributed.batched_frac": 1.0
            - counts["distributed.fallbacks"] / counts["distributed.graphs"]
            if counts["distributed.graphs"] else 0.0,
            "trace.overhead_frac": statistics.median(traced_walls) / statistics.median(walls)
            - 1.0 if traced_walls else 0.0,
            "host.slowdown": slowdown,
            "gc.pause_frac": sum(pauses) / timed_wall,
            "gc.collections_per_unit": len(pauses) / len(all_walls),
            "units": len(all_walls),
            "unit_growth": statistics.median(
                growth(all_walls[i : i + units_per_round])
                for i in range(0, len(all_walls), units_per_round)
            ),
        }
    )

    declared = LAYER_UNITS if args.trace else E2E_UNITS
    values = layers if args.trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "seconds": args.seconds,
        "result": result,
        "end_to_end": e2e,
        "unscaled_end_to_end": raw,
        "per_layer": layers,
        "setup_samples": setup,
        "reference_samples_s": references,
        "unit_ms_tail": tail([1e3 * w for w in walls]),
        "unit_ms": [1e3 * w for w in walls],
        "timed_rounds": rounds,
        "checks": checks,
        "spans": table,
        "per_call": {
            name: {
                "calls": len(v),
                "p50_us": 1e6 * float(np.percentile(v, 50)),
                "p99_us": 1e6 * float(np.percentile(v, 99)),
            }
            for name, v in tr.samples.items()
        },
        "outputs": outputs,
        "pinned": pinned is not None,
        "provenance": {
            "nproc": os.cpu_count(),
            "threads": threading.active_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_head": git_head(),
        },
        "chrome_trace": tr.chrome_trace() if args.trace else None,
    }


def print_report(report: dict) -> None:
    print(f"# {report['workload']} seed={report['seed']} "
          f"units={len(report['unit_ms'])} rounds={report['timed_rounds']}")
    print(f"host slowdown {report['per_layer']['host.slowdown']:.3f} "
          "(host times below are divided by it; unscaled in the report)")
    for name, value in report["end_to_end"].items():
        print(f"{name:<28} {value:>14.6g} {E2E_UNITS[name]}")
    if report["unit_ms_tail"]:
        t = report["unit_ms_tail"]
        print(f"{'unit_ms_p' + str(t['percentile']):<28} {t['value']:>14.6g} ms "
              f"(unscaled, {len(report['unit_ms'])} units)")
    if report["trace"]:
        print(f"{'span':<22}{'calls':>8}{'incl ms':>12}{'self ms':>12}{'self %':>8}{'p50 ms':>10}")
        for name, row in report["spans"].items():
            print(f"{name:<22}{row['calls']:>8}{1e3 * row['incl_s']:>12.2f}"
                  f"{1e3 * row['self_s']:>12.2f}{100 * row['self_frac']:>8.2f}"
                  f"{row['p50_ms']:>10.3f}")
        for name, row in report["per_call"].items():
            print(f"{name} per call: p50 {row['p50_us']:.2f} us, p99 {row['p99_us']:.2f} us "
                  f"[{row['calls']}]")
    for name, ok in report["checks"].items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        WORKLOADS[args.workload].prepare(args.seed, args.smoke)
        setup_s = time.perf_counter() - _START
        reference_s()  # the first calls in a fresh interpreter run cold
        print(json.dumps({"setup_s": setup_s, "ref_s": reference_s()}))
        return 0
    report = run(args)
    if args.out is not None:
        trace = report.pop("chrome_trace")
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        if trace is not None:
            args.out.with_suffix(".trace.json").write_text(json.dumps(trace))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
