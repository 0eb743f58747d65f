"""Tracked performance benchmark of the vectorized fast paths.

Times every fast path against its preserved scalar baseline at realistic
experiment scales, asserts the two produce equivalent results, and writes
a machine-readable report (``BENCH_perf.json``) so regressions in either
speed or equivalence are visible across commits:

- ``sweep_1d`` — :func:`~repro.core.models.measure_sweep` over the full
  V100 core-frequency table vs the per-clock scalar loop (target ≥ 5×),
- ``sweep_2d`` — :func:`~repro.experiments.sweep.sweep_kernel_2d` over the
  Titan X (memory × core) grid vs the nested scalar loop (target ≥ 5×),
- ``forest_fit`` / ``forest_predict`` — level-synchronous random forest
  training and stacked prediction vs the per-node oracle / row-by-row
  walk of :mod:`repro.validate.reference` (target ≥ 3×, and
  bitwise-identical results),
- ``sweep_cache`` — cold vs warm pass over the training sweeps through
  the keyed sweep cache, with hit/miss counters,
- ``scenario_batched`` — a full cluster scenario (one exclusive 64-node
  job, hundreds of mixed-target kernels per board) through the batched
  virtual-time engine (``Scheduler.submit_many`` + ``submit_batch`` +
  batched accounting) vs the per-event scalar reference (target ≥ 10×,
  with per-record clock plans compared exactly and energies/times at
  1e-12 relative).

Equivalence tolerances: sweeps are compared at 1e-12 relative error
(vectorized NumPy pow may differ from scalar libm pow by ~1 ulp); all ML
results must match exactly.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.models import (
    build_training_set,
    expand_design,
    measure_sweep,
    measure_sweep_scalar,
)
from repro.core.profiling import fastpath_cache_report
from repro.core.sweepcache import SweepCache
from repro.experiments.sweep import sweep_kernel_2d, sweep_kernel_2d_scalar
from repro.hw.specs import NVIDIA_TITAN_X, NVIDIA_V100
from repro.kernelir.microbench import generate_microbenchmarks
from repro.ml.forest import RandomForestRegressor
from repro.validate.reference import (
    forest_reference,
    predict_reference,
    trees_equal,
)

#: Speed targets the tentpole commits to (checked by the perf benchmark).
SPEEDUP_TARGETS: dict[str, float] = {
    "sweep_1d": 5.0,
    "sweep_2d": 5.0,
    "forest_fit": 3.0,
    "forest_predict": 3.0,
    "scenario_batched": 10.0,
}

#: Relative tolerance for vectorized-vs-scalar sweep equivalence.
SWEEP_RTOL = 1e-12


def _timed(fn, repeats: int = 1):
    """Best-of-``repeats`` wall time and the last result."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.abs(b), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)) / denom))


def _record(
    name: str, baseline_s: float, fast_s: float, max_rel_err: float
) -> dict:
    target = SPEEDUP_TARGETS.get(name)
    speedup = baseline_s / max(fast_s, 1e-12)
    return {
        "name": name,
        "baseline_s": baseline_s,
        "fast_s": fast_s,
        "speedup": speedup,
        "target": target,
        "meets_target": bool(target is None or speedup >= target),
        "max_rel_err": max_rel_err,
    }


def _batched_scenario(
    n_nodes: int, kernels_per_board: int, repeats: int
) -> tuple[float, float, float]:
    """Time one exclusive whole-cluster job: batched engine vs scalar.

    Twin clusters run the identical mixed-target submission stream per
    board — once through ``Scheduler.submit`` + the per-event scalar
    queue loop with scalar energy accounting, once through
    ``Scheduler.submit_many`` + ``SynergyQueue.submit_batch`` with
    batched accounting. Returns ``(baseline_s, fast_s, max_rel_err)``
    after asserting per-record clock-plan identity and 1e-12 agreement
    of energies, timestamps and the accounted job energy.
    """
    from repro.apps import get_benchmark
    from repro.engine.payload import KernelBatchPayload, plan_from_sweeps
    from repro.metrics.targets import (
        DEADLINE,
        MAX_PERF,
        MIN_EDP,
        MIN_ENERGY,
        SLA_SLACK,
    )
    from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
    from repro.slurm.job import JobSpec
    from repro.slurm.plugin import NvGpuFreqPlugin
    from repro.slurm.scheduler import Scheduler

    spec = NVIDIA_V100
    kernels = [get_benchmark(n).kernel for n in ("gemm", "sobel3", "median")]
    targets = [MIN_EDP, MAX_PERF, MIN_ENERGY, DEADLINE(0.05), SLA_SLACK(1.3)]
    plan = plan_from_sweeps(spec, kernels, targets)
    table = spec.core_freqs_mhz
    requests = tuple(
        (spec.default_mem_mhz, table[(11 * i) % len(table)], kernels[i % 3])
        if i % 4 == 3
        else (targets[i % 5], kernels[i % 3])
        for i in range(kernels_per_board)
    )

    def run(batched: bool):
        cluster = Cluster.build(
            spec, n_nodes=n_nodes, gpus_per_node=1, gres={NVGPUFREQ_GRES}
        )
        scheduler = Scheduler(cluster, plugins=[NvGpuFreqPlugin()])
        job_spec = JobSpec(
            name="scenario-batched",
            n_nodes=n_nodes,
            exclusive=True,
            gres=frozenset({NVGPUFREQ_GRES}),
            payload=KernelBatchPayload(
                requests=requests, plan=plan, batched=batched
            ),
        )
        if batched:
            job = scheduler.submit_many([job_spec], accounting="batched")[0]
        else:
            job = scheduler.submit(job_spec)
        return cluster, job

    run(True)  # move lazy imports and sweep warmup off the timed path
    base_s, (scalar_cluster, scalar_job) = _timed(lambda: run(False), repeats)
    fast_s, (fast_cluster, fast_job) = _timed(lambda: run(True), repeats)

    scalar_gpus = [g for node in scalar_cluster.nodes for g in node.gpus]
    fast_gpus = [g for node in fast_cluster.nodes for g in node.gpus]
    err = _max_rel_err([fast_job.gpu_energy_j], [scalar_job.gpu_energy_j])
    for scalar_gpu, fast_gpu in zip(scalar_gpus, fast_gpus):
        a, b = scalar_gpu.records, fast_gpu.records
        assert len(a) == len(b) == kernels_per_board, (
            "scenario_batched record counts diverged"
        )
        assert [(r.core_mhz, r.mem_mhz) for r in a] == [
            (r.core_mhz, r.mem_mhz) for r in b
        ], "scenario_batched clock plans diverged"
        err = max(
            err,
            _max_rel_err([r.energy_j for r in b], [r.energy_j for r in a]),
            _max_rel_err([r.end_s for r in b], [r.end_s for r in a]),
        )
    assert err < SWEEP_RTOL, f"scenario_batched equivalence broke: {err:.3e}"
    return base_s, fast_s, err


def run_perf_pipeline(
    quick: bool = False,
    json_path: str | Path | None = None,
    repeats: int = 1,
) -> dict:
    """Run the full sweep/train/predict perf benchmark.

    ``quick`` shrinks every scale for smoke runs (CI / the verify skill);
    speed targets are only meaningful — and only enforced by the perf
    benchmark suite — at full scale. Raises ``AssertionError`` if any
    fast path fails its equivalence check.
    """
    n_kernels = 8 if quick else 24
    n_kernels_2d = 2 if quick else 4
    n_trees = 8 if quick else 30
    predict_tile = 2 if quick else 8
    kernels = generate_microbenchmarks(random_count=n_kernels)
    sections: list[dict] = []

    # --- 1-D sweeps over the full V100 frequency table -------------------
    fast_s, fast = _timed(
        lambda: [measure_sweep(NVIDIA_V100, k, cache=False) for k in kernels],
        repeats,
    )
    base_s, base = _timed(
        lambda: [measure_sweep_scalar(NVIDIA_V100, k) for k in kernels]
    )
    err = max(
        max(_max_rel_err(f[1], b[1]), _max_rel_err(f[2], b[2]))
        for f, b in zip(fast, base)
    )
    assert err < SWEEP_RTOL, f"sweep_1d equivalence broke: {err:.3e}"
    sections.append(_record("sweep_1d", base_s, fast_s, err))

    # --- 2-D (memory x core) sweeps on the Titan X -----------------------
    grid = kernels[:n_kernels_2d]
    fast_s, fast = _timed(
        lambda: [sweep_kernel_2d(NVIDIA_TITAN_X, k, cache=False) for k in grid],
        repeats,
    )
    base_s, base = _timed(
        lambda: [sweep_kernel_2d_scalar(NVIDIA_TITAN_X, k) for k in grid]
    )
    err = max(
        max(
            _max_rel_err(f.time_s, b.time_s),
            _max_rel_err(f.energy_j, b.energy_j),
        )
        for f, b in zip(fast, base)
    )
    assert err < SWEEP_RTOL, f"sweep_2d equivalence broke: {err:.3e}"
    sections.append(_record("sweep_2d", base_s, fast_s, err))

    # --- forest training and prediction ----------------------------------
    training = build_training_set(
        NVIDIA_V100, kernels, NVIDIA_V100.core_freqs_mhz[:: 8 if quick else 4]
    )
    X = expand_design(training.X)
    y = np.log(np.maximum(training.time_s, 1e-300))
    params = dict(
        n_estimators=n_trees, max_depth=14, min_samples_leaf=2, seed=11
    )
    forest = RandomForestRegressor(**params)
    fast_s, _ = _timed(lambda: forest.fit(X, y))
    base_s, reference = _timed(lambda: forest_reference(forest, X, y))
    assert all(
        trees_equal(tree.flat_tree(), ref)
        for tree, ref in zip(forest.trees_, reference)
    ), "level-synchronous forest fit diverged from the oracle"
    sections.append(_record("forest_fit", base_s, fast_s, 0.0))

    Xq = np.tile(X, (predict_tile, 1))
    fast_s, pred_fast = _timed(lambda: forest.predict(Xq), repeats)
    base_s, pred_base = _timed(lambda: predict_reference(reference, Xq))
    assert np.array_equal(pred_fast, pred_base), (
        "flat forest prediction diverged from the row-by-row walk"
    )
    sections.append(_record("forest_predict", base_s, fast_s, 0.0))

    # --- batched cluster scenario vs the scalar reference ----------------
    n_nodes = 8 if quick else 64
    kernels_per_board = 48 if quick else 384
    base_s, fast_s, err = _batched_scenario(n_nodes, kernels_per_board, repeats)
    sections.append(_record("scenario_batched", base_s, fast_s, err))

    # --- keyed sweep cache: cold vs warm ---------------------------------
    cache = SweepCache()
    cold_s, _ = _timed(
        lambda: [measure_sweep(NVIDIA_V100, k, cache=cache) for k in kernels]
    )
    warm_s, _ = _timed(
        lambda: [measure_sweep(NVIDIA_V100, k, cache=cache) for k in kernels]
    )
    cache_section = {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / max(warm_s, 1e-12),
        **cache.stats.as_dict(),
        "entries": len(cache),
    }

    report = {
        "quick": quick,
        "scales": {
            "n_kernels": n_kernels,
            "n_kernels_2d": n_kernels_2d,
            "n_trees": n_trees,
            "training_rows": int(X.shape[0]),
            "predict_rows": int(Xq.shape[0]),
            "scenario_nodes": n_nodes,
            "scenario_kernels_per_board": kernels_per_board,
        },
        "sections": sections,
        "sweep_cache": cache_section,
        "global_caches": fastpath_cache_report(),
    }
    if json_path is not None:
        Path(json_path).write_text(json.dumps(report, indent=2) + "\n")
    return report
