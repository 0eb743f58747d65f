"""Differential validation: paired implementations must agree.

The perf plane (PR 2) kept every scalar baseline callable next to its
vectorized replacement, and the observability plane (PR 3) promised that
tracing never perturbs the physics. This module replays seeded workloads
through both sides of each pair and asserts equivalence:

- vectorized vs ``*_scalar`` sweep and 2-D sweep paths (to the perf
  plane's documented rel-1e-12 contract: NumPy ``pow`` and scalar libm
  ``pow`` differ by ~1 ulp),
- cached vs uncached :class:`~repro.core.sweepcache.SweepCache` runs
  (bitwise, plus the hit/miss accounting),
- traced (``trace=``) vs untraced execution of a tuned queue workload
  (identical per-kernel records and profiled energies).
"""

from __future__ import annotations

import numpy as np

from repro.hw.specs import NVIDIA_V100, GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.validate.result import CheckResult, check

#: Default kernel set for the sweep differentials: a compute-bound, a
#: memory-bound and a balanced member of the §8 suite.
DIFF_KERNEL_NAMES: tuple[str, ...] = ("gemm", "sobel3", "median")

#: The vectorized/scalar agreement contract of the perf plane (NumPy pow
#: vs scalar libm pow differ by ~1 ulp, so bitwise is too strict there).
SCALAR_PATH_RTOL = 1e-12


def _kernels(names: tuple[str, ...]) -> list[KernelIR]:
    from repro.apps import get_benchmark

    return [get_benchmark(name).kernel for name in names]


def _arrays_equal(name: str, context: str, *pairs, rtol: float = 0.0) -> CheckResult:
    """Equality of paired arrays; bitwise unless a relative tolerance is set."""
    for a, b in pairs:
        av, bv = np.asarray(a), np.asarray(b)
        if rtol > 0.0:
            equal = bool(np.allclose(av, bv, rtol=rtol, atol=0.0))
        else:
            equal = bool(np.array_equal(av, bv))
        if not equal:
            diff = float(
                np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
            )
            return check(
                name, False, f"{context}: paired results differ (max |Δ| = {diff:g})"
            )
    return check(name, True, context)


def check_sweep_vectorized_vs_scalar(
    spec: GPUSpec = NVIDIA_V100, names: tuple[str, ...] = DIFF_KERNEL_NAMES
) -> list[CheckResult]:
    """``measure_sweep`` against ``measure_sweep_scalar`` (rel 1e-12)."""
    from repro.core.models import measure_sweep, measure_sweep_scalar

    results = []
    for kernel in _kernels(names):
        fast = measure_sweep(spec, kernel, cache=False)
        slow = measure_sweep_scalar(spec, kernel)
        results.append(
            _arrays_equal(
                "diff.sweep_vectorized_vs_scalar",
                f"{kernel.name}@{spec.name}",
                *zip(fast, slow),
                rtol=SCALAR_PATH_RTOL,
            )
        )
    return results


def check_sweep2d_vectorized_vs_scalar(
    spec: GPUSpec = NVIDIA_V100, names: tuple[str, ...] = DIFF_KERNEL_NAMES
) -> list[CheckResult]:
    """``sweep_kernel_2d`` against ``sweep_kernel_2d_scalar`` (rel 1e-12)."""
    from repro.experiments.sweep import sweep_kernel_2d, sweep_kernel_2d_scalar

    results = []
    for kernel in _kernels(names):
        fast = sweep_kernel_2d(spec, kernel, cache=False)
        slow = sweep_kernel_2d_scalar(spec, kernel)
        results.append(
            _arrays_equal(
                "diff.sweep2d_vectorized_vs_scalar",
                f"{kernel.name}@{spec.name}",
                (fast.time_s, slow.time_s),
                (fast.energy_j, slow.energy_j),
                rtol=SCALAR_PATH_RTOL,
            )
        )
    return results


def check_cached_vs_uncached(
    spec: GPUSpec = NVIDIA_V100, names: tuple[str, ...] = DIFF_KERNEL_NAMES
) -> list[CheckResult]:
    """A warm :class:`SweepCache` serves bitwise-identical sweeps.

    Runs every kernel uncached, then twice through one fresh cache; the
    second pass must be all hits and every pass must agree bitwise.
    """
    from repro.core.models import measure_sweep
    from repro.core.sweepcache import SweepCache

    cache = SweepCache()
    results = []
    for kernel in _kernels(names):
        bare = measure_sweep(spec, kernel, cache=False)
        cold = measure_sweep(spec, kernel, cache=cache)
        warm = measure_sweep(spec, kernel, cache=cache)
        results.append(
            _arrays_equal(
                "diff.cached_vs_uncached",
                f"{kernel.name}@{spec.name}",
                *zip(bare, cold),
                *zip(bare, warm),
            )
        )
    results.append(
        check(
            "diff.cache_accounting",
            cache.stats.hits == len(names) and cache.stats.misses == len(names),
            f"expected {len(names)} hits / {len(names)} misses, saw "
            f"{cache.stats.hits} / {cache.stats.misses}",
        )
    )
    return results


def _tuned_workload(trace) -> tuple[list[dict], float, float]:
    """A seeded single-GPU MIN_EDP workload returning its physics.

    Mirrors the ``single-gpu`` golden scenario in miniature: a Linear
    bundle drives a live predictor, three kernels run twice under MIN_EDP,
    and both profiling granularities are queried. Returns the per-kernel
    stats rows plus the sampled and true device energies.
    """
    from repro.core.predictor import FrequencyPredictor
    from repro.core.queue import SynergyQueue
    from repro.core.sweepcache import scoped_cache
    from repro.experiments.training import make_bundle, microbench_training_set
    from repro.hw.device import SimulatedGPU
    from repro.metrics.targets import MIN_EDP

    with scoped_cache():
        training = microbench_training_set(
            NVIDIA_V100, freq_stride=24, random_count=2
        )
        bundle = make_bundle("Linear", seed=7).fit(training)
        predictor = FrequencyPredictor(bundle, NVIDIA_V100, trace=trace)
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        queue = SynergyQueue(gpu, predictor=predictor, trace=trace)
        for _round in range(2):
            for kernel in _kernels(DIFF_KERNEL_NAMES):
                queue.submit(
                    MIN_EDP,
                    lambda h, k=kernel: h.parallel_for(k.work_items, k),
                )
        sampled = queue.device_energy_consumption()
        true = queue.device_energy_consumption(true_value=True)
        return queue.kernel_stats(), sampled, true


def check_traced_vs_untraced() -> list[CheckResult]:
    """Tracing must observe the physics, never perturb it.

    The same seeded workload runs once under a live
    :class:`~repro.obs.session.TraceSession` and once under the default
    ``NULL_TRACE``; kernel records and profiled energies must be
    identical.
    """
    from repro.obs.session import TraceSession

    traced_stats, traced_sampled, traced_true = _tuned_workload(TraceSession())
    bare_stats, bare_sampled, bare_true = _tuned_workload(None)
    return [
        check(
            "diff.traced_vs_untraced_kernels",
            traced_stats == bare_stats,
            f"per-kernel records diverge under tracing "
            f"({len(traced_stats)} vs {len(bare_stats)} rows)",
        ),
        check(
            "diff.traced_vs_untraced_energy",
            traced_sampled == bare_sampled and traced_true == bare_true,
            f"profiled energies diverge under tracing: sampled "
            f"{traced_sampled!r} vs {bare_sampled!r} J, true "
            f"{traced_true!r} vs {bare_true!r} J",
        ),
    ]


def run_differential_checks(spec: GPUSpec = NVIDIA_V100) -> list[CheckResult]:
    """The full differential harness on one device."""
    return (
        check_sweep_vectorized_vs_scalar(spec)
        + check_sweep2d_vectorized_vs_scalar(spec)
        + check_cached_vs_uncached(spec)
        + check_traced_vs_untraced()
    )
