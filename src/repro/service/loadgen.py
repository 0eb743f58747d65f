"""Seeded load generator for the service plane.

:func:`run_service_session` is the deterministic harness: it provisions
a :class:`~repro.service.plane.SchedulingService`, registers a seeded
tenant fleet (:func:`seeded_tenants`), drives a seeded arrival stream
(exponential inter-arrivals, uniform tenant/kernel choice) through
admission, and drains in fixed cycles. Everything downstream of the
``seed`` argument is deterministic, so two same-seed sessions produce
byte-identical job stores — the replay contract ``validate --only
service`` asserts.

``repro-synergy serve`` runs one session and prints its per-tenant
accounting; the ``loadgen`` workload of ``bench/`` times it. Each job's
energy is integrated over its own window only, so a long session's late
drain cycles cost about what its first ones do.
"""

from __future__ import annotations

import numpy as np

from repro.apps.syclbench.definitions import get_benchmark
from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed, make_rng
from repro.engine.payload import plan_from_sweeps
from repro.experiments.sweep import sweep_kernel
from repro.hw.specs import NVIDIA_V100, GPUSpec
from repro.metrics.targets import ES_50, MAX_PERF, MIN_EDP, MIN_ENERGY, PL_50
from repro.obs.session import TraceSession
from repro.service.plane import SchedulingService
from repro.service.store import JobStore
from repro.service.tenant import Tenant

#: Kernel pool the generator draws from (§8 benchmark suite members
#: spanning compute-bound, memory-bound and balanced behaviour).
DEFAULT_KERNELS: tuple[str, ...] = (
    "vec_add",
    "dram",
    "scalar_prod",
    "median",
    "gemm",
    "matmulchain",
    "sobel3",
    "sobel5",
)

#: Tenant energy targets, cycled across the fleet.
_TENANT_TARGETS = (MIN_EDP, MIN_ENERGY, ES_50, PL_50)

def seeded_tenants(n_tenants: int, seed: int = 7) -> list[Tenant]:
    """A deterministic, attribute-diverse tenant fleet.

    Priorities cycle over three bands; every eighth tenant gets a tight
    quota (exercising QUOTA_EXCEEDED) and a different eighth a finite
    energy budget (exercising ENERGY_BUDGET_EXHAUSTED); targets cycle
    over the four tuning objectives. ``seed`` feeds only the quota
    jitter so fleets differ across seeds without losing determinism.
    """
    if n_tenants < 1:
        raise ConfigurationError(f"need >= 1 tenant ({n_tenants!r})")
    rng = make_rng(derive_seed("service.tenants", seed))
    jitter = rng.integers(0, 64, size=n_tenants)
    tenants = []
    for i in range(n_tenants):
        if i % 8 == 3:
            quota = 32
        else:
            quota = 256 + int(jitter[i])
        # ~0.05 J per kernel on the default pool: a 5 J budget exhausts
        # after ~100 executions, early enough to fire in quick mode.
        budget = 5.0 if i % 8 == 5 else None
        tenants.append(
            Tenant(
                name=f"t{i:03d}",
                priority=i % 3,
                quota=quota,
                energy_budget_j=budget,
                target=_TENANT_TARGETS[i % len(_TENANT_TARGETS)],
            )
        )
    return tenants


def baseline_energies(
    spec: GPUSpec, kernels, *, cache: object | None = None
) -> dict[str, float]:
    """Per-kernel MAX_PERF energy (J per execution) from measured sweeps."""
    baseline: dict[str, float] = {}
    for kernel in kernels:
        sweep = sweep_kernel(spec, kernel, cache=cache)
        idx = MAX_PERF.resolve_index(
            sweep.freqs_mhz, sweep.time_s, sweep.energy_j, sweep.default_index
        )
        baseline[kernel.name] = float(sweep.energy_j[idx])
    return baseline


def run_service_session(
    *,
    seed: int = 7,
    n_tenants: int = 64,
    n_submissions: int = 160_000,
    n_partitions: int = 8,
    n_cycles: int = 16,
    mean_interarrival_s: float = 0.05,
    kernels: tuple[str, ...] = DEFAULT_KERNELS,
    spec: GPUSpec = NVIDIA_V100,
    trace: TraceSession | None = None,
    store: JobStore | None = None,
) -> SchedulingService:
    """Drive one complete seeded service session; returns the plane.

    The caller manages the sweep cache (wrap in ``scoped_cache()`` for
    speed); the session itself is a pure function of its arguments.
    """
    if n_submissions < 1 or n_cycles < 1:
        raise ConfigurationError(
            f"need >= 1 submission and cycle "
            f"({n_submissions!r}, {n_cycles!r})"
        )
    tenants = seeded_tenants(n_tenants, seed)
    kernel_objs = [get_benchmark(name).kernel for name in kernels]
    # Plan over every tenant target (plus MAX_PERF for the baseline), in
    # sorted name order for deterministic sweep-cache population.
    target_by_name = {t.target.name: t.target for t in tenants}
    target_by_name[MAX_PERF.name] = MAX_PERF
    plan = plan_from_sweeps(
        spec,
        kernel_objs,
        [target_by_name[n] for n in sorted(target_by_name)],
    )
    service = SchedulingService(
        spec,
        n_partitions=n_partitions,
        plan=plan,
        baseline_j=baseline_energies(spec, kernel_objs),
        store=store,
        trace=trace,
    )
    for tenant in tenants:
        service.register(tenant)

    rng = make_rng(derive_seed("service.loadgen", seed))
    arrival_s = np.cumsum(
        rng.exponential(mean_interarrival_s, size=n_submissions)
    )
    tenant_idx = rng.integers(0, n_tenants, size=n_submissions)
    kernel_idx = rng.integers(0, len(kernel_objs), size=n_submissions)

    chunk_edges = np.linspace(0, n_submissions, n_cycles + 1).astype(int)
    for c in range(n_cycles):
        lo, hi = int(chunk_edges[c]), int(chunk_edges[c + 1])
        for i in range(lo, hi):
            service.submit(
                tenants[int(tenant_idx[i])].name,
                kernel_objs[int(kernel_idx[i])],
                float(arrival_s[i]),
            )
        if hi > lo:
            service.drain(float(arrival_s[hi - 1]))
    return service

