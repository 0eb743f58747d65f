"""The seeded scenario registry: each scenario's run, golden and certificate.

:data:`SCENARIOS` is the one table of the repo's end-to-end replays of
the paper. Each :class:`Scenario` entry declares

- its seeded ``run(seed, trace=None)``, which returns the outcome its
  certificate reads and, under a live ``trace``, records the spans and
  metrics the golden snapshots pin;
- its static ``certify(outcome)`` from :mod:`repro.analysis.scenarios`,
  which brackets that very run;
- whether ``tests/golden/`` holds its trace and metrics snapshots.

The scenarios:

- ``single-gpu`` — per-kernel MIN_EDP tuning on one V100 through a live
  predictor, with fine- and coarse-grained energy profiling (including a
  deliberate zero-width window query),
- ``slurm-faults`` — a 4-node exclusive SLURM job running CloverLeaf
  under a compiled MIN_EDP plan with one scheduled NVML clock-set fault,
  through the nvgpufreq plugin and the MPI layer,
- ``thermal-drift`` — the adaptive-plane chaos scenario: an
  :class:`~repro.adapt.controller.AdaptiveController` driven through a
  full degradation-ladder traversal by two injected
  ``hw.thermal_throttle`` windows (see :mod:`repro.adapt.chaos`),
- ``multi-tenant`` — a seeded 8-tenant / 4-partition service-plane
  session,
- ``weak-scaling`` — the Fig. 10 distributed stencil graph under a
  global SLA-1.25 plan on 12 A100 ranks, one span per graph node
  (certified, no golden).

Everything is a pure function of the ``seed`` argument and virtual time:
the exported trace and metrics documents are byte-identical across runs
(asserted by ``tests/test_obs_golden.py``), and tracing never moves a
measured value. Each run executes inside
:func:`~repro.core.sweepcache.scoped_cache` so process-global cache
warm-up cannot leak between invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.analysis.scenarios import (
    SINGLE_GPU_KERNELS,
    ScenarioCertificate,
    certify_multi_tenant,
    certify_single_gpu,
    certify_slurm_faults,
    certify_thermal_drift,
    certify_weak_scaling,
)
from repro.apps.cloverleaf import CloverLeaf
from repro.apps.syclbench.definitions import get_benchmark
from repro.common.errors import ConfigurationError
from repro.core.compiler import SynergyCompiler
from repro.core.predictor import FrequencyPredictor
from repro.core.queue import SynergyQueue
from repro.core.sweepcache import scoped_cache
from repro.experiments.training import make_bundle, microbench_training_set
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw.device import SimulatedGPU
from repro.hw.specs import NVIDIA_A100, NVIDIA_V100
from repro.metrics.targets import MIN_EDP
from repro.mpi.launcher import launch_ranks
from repro.obs.dist import emit_graph_trace
from repro.obs.session import (
    TraceSession,
    absorb_cache_report,
    absorb_scheduler,
    absorb_service,
    resolve_trace,
)
from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
from repro.slurm.job import JobSpec
from repro.slurm.plugin import NvGpuFreqPlugin
from repro.slurm.scheduler import Scheduler


def _train_linear(seed: int):
    """Small deterministic Linear bundle (closed-form fit, no RNG races)."""
    training = microbench_training_set(
        NVIDIA_V100, freq_stride=24, random_count=2
    )
    return make_bundle("Linear", seed=seed).fit(training)


def run_single_gpu(seed: int, trace: TraceSession | None = None) -> SynergyQueue:
    """Single-GPU MIN_EDP tuning with live prediction and profiling.

    Returns the queue (its board carries the makespan).
    """
    trace = resolve_trace(trace)
    with scoped_cache():
        bundle = _train_linear(seed)
        predictor = FrequencyPredictor(bundle, NVIDIA_V100, trace=trace)
        # Pin the board index: it names the trace tracks and seeds the
        # sensor noise stream, and the process-global auto-index would
        # otherwise differ between runs in one process.
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        queue = SynergyQueue(gpu, predictor=predictor, trace=trace)
        kernels = [get_benchmark(name).kernel for name in SINGLE_GPU_KERNELS]
        events = []
        for _round in range(2):
            for kernel in kernels:
                events.append(
                    queue.submit(
                        MIN_EDP,
                        lambda h, k=kernel: h.parallel_for(k.work_items, k),
                    )
                )
        # One explicit clock pair, like Listing 2.
        fixed = kernels[0]
        events.append(
            queue.submit(
                NVIDIA_V100.default_mem_mhz,
                int(NVIDIA_V100.core_freqs_mhz[len(NVIDIA_V100.core_freqs_mhz) // 2]),
                lambda h: h.parallel_for(fixed.work_items, fixed),
            )
        )
        # Fine-grained profiling of the first and last kernels, then the
        # coarse-grained lifetime window.
        queue.kernel_energy_consumption(events[0])
        queue.kernel_energy_consumption(events[-1])
        queue.device_energy_consumption()
        # Re-open the window and query immediately: the zero-width path.
        queue.profiler.reset_window()
        queue.device_energy_consumption()
        queue.reset_frequency()
        absorb_cache_report(trace)
    return queue


def run_slurm_faults(seed: int, trace: TraceSession | None = None):
    """4-node SLURM CloverLeaf run with one injected NVML clock-set fault.

    Returns ``(app, compiled, job)``.
    """
    trace = resolve_trace(trace)
    with scoped_cache():
        bundle = _train_linear(seed)
        compiler = SynergyCompiler(bundle, NVIDIA_V100)
        app = CloverLeaf(steps=2)
        compiled = compiler.compile(app.timestep_kernels(), [MIN_EDP])
        fault_plan = FaultPlan(
            seed=seed,
            specs=(FaultSpec(site="nvml.set_clocks", at_s=0.0, count=1),),
        )
        cluster = Cluster.build(
            NVIDIA_V100,
            n_nodes=4,
            gpus_per_node=1,
            gres={NVGPUFREQ_GRES},
            fault_plan=fault_plan,
            trace=trace,
        )
        plugin = NvGpuFreqPlugin(trace=trace)
        scheduler = Scheduler(cluster, plugins=[plugin])

        def payload(context):
            comm = launch_ranks(context)
            return app.run(comm, target=MIN_EDP, plan=compiled.plan)

        job = scheduler.submit(
            JobSpec(
                name="cloverleaf-min_edp",
                n_nodes=4,
                exclusive=True,
                gres=frozenset({NVGPUFREQ_GRES}),
                payload=payload,
            )
        )
        trace.gauge("slurm.last_job_energy_j", job.gpu_energy_j or 0.0)
        absorb_scheduler(trace, scheduler)
        absorb_cache_report(trace)
    return app, compiled, job


def run_thermal_drift(seed: int, trace: TraceSession | None = None):
    """The adaptive-plane chaos run; returns its ``ThermalDriftComparison``."""
    from repro.adapt.chaos import run_thermal_drift_comparison

    trace = resolve_trace(trace)
    with scoped_cache():
        comparison = run_thermal_drift_comparison(seed=seed, trace=trace)
        absorb_cache_report(trace)
    return comparison


def run_multi_tenant(seed: int, trace: TraceSession | None = None):
    """A seeded 8-tenant / 4-partition service-plane session.

    A small but complete run of the multi-tenant scheduling plane:
    seeded tenants with mixed priorities/quotas/budgets, a seeded
    arrival stream, four drain cycles through the sharded batched
    schedulers, per-tenant metrics absorbed at the end. Small enough
    for a golden snapshot, rich enough to cover every shard and the
    full admit/drain/account loop (rejection paths are exercised by the
    larger ``validate --only service`` session). Returns the service.
    """
    from repro.service.loadgen import run_service_session

    trace = resolve_trace(trace)
    with scoped_cache():
        service = run_service_session(
            seed=seed,
            n_tenants=8,
            n_submissions=128,
            n_partitions=4,
            n_cycles=4,
            trace=trace,
        )
        absorb_service(trace, service)
        absorb_cache_report(trace)
    return service


def run_weak_scaling(seed: int, trace: TraceSession | None = None):
    """The Fig. 10 stencil graph under a global SLA-1.25 plan.

    Deterministic in ``seed`` (the graph and plan draw nothing). Returns
    ``(comm, graph, plan, result)``.
    """
    from repro.core.compiler import plan_global_frequencies
    from repro.distributed.runner import build_comm, run_graph
    from repro.distributed.stencil import build_stencil_graph

    trace = resolve_trace(trace)
    with scoped_cache():
        comm = build_comm(NVIDIA_A100, 12)
        graph = build_stencil_graph(comm, steps=3, elems_per_rank=1 << 18)
        plan = plan_global_frequencies(
            NVIDIA_A100, graph.rank_kernels(), sla_factor=1.25, cache=True
        )
        result = run_graph(graph, comm, plan)
        emit_graph_trace(trace, graph, result)
        absorb_cache_report(trace)
    return comm, graph, plan, result


@dataclass(frozen=True)
class Scenario:
    """One seeded scenario: its run, its certificate, its golden."""

    #: ``run(seed, trace=None) -> outcome``.
    run: Callable[..., Any]
    #: ``certify(outcome) -> ScenarioCertificate``, static bounds only.
    certify: Callable[[Any], ScenarioCertificate]
    #: Whether ``tests/golden/`` pins this scenario's exports.
    golden: bool = True


#: The scenario registry: name → declaration. The ``trace``, ``validate``
#: and ``certify`` CLIs, the golden tests and the validation plane all
#: read this table and nothing else.
SCENARIOS: dict[str, Scenario] = {
    "single-gpu": Scenario(run_single_gpu, certify_single_gpu),
    "slurm-faults": Scenario(run_slurm_faults, certify_slurm_faults),
    "thermal-drift": Scenario(run_thermal_drift, certify_thermal_drift),
    "multi-tenant": Scenario(run_multi_tenant, certify_multi_tenant),
    "weak-scaling": Scenario(
        run_weak_scaling, certify_weak_scaling, golden=False
    ),
}


def get_scenario(name: str) -> Scenario:
    """The registry entry for ``name``; the one unknown-name check."""
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name]


def golden_scenarios() -> tuple[str, ...]:
    """Names of the scenarios with golden snapshots, in registry order."""
    return tuple(name for name, s in SCENARIOS.items() if s.golden)


def run_scenario(name: str, seed: int = 7) -> TraceSession:
    """Run one named scenario under a live trace; returns the session."""
    scenario = get_scenario(name)
    trace = TraceSession()
    scenario.run(seed, trace=trace)
    return trace


def certify_scenarios(
    seed: int = 7, scenarios: Sequence[str] | None = None
) -> dict[str, ScenarioCertificate]:
    """Run and certify the named scenarios (all of them by default)."""
    names = list(SCENARIOS) if scenarios is None else list(scenarios)
    chosen = {name: get_scenario(name) for name in names}
    certificates = {}
    for name, scenario in chosen.items():
        outcome = scenario.run(seed)
        with scoped_cache():
            certificates[name] = scenario.certify(outcome)
    return certificates
