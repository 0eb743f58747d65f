"""Differential validation of the batched virtual-time engine.

The per-event path is the reference semantics: its twins are
:func:`~repro.validate.reference.replay_per_event` on a queue and
:class:`~repro.validate.reference.PerEventPayload` in a job. The batched
engine (:mod:`repro.engine`) must reproduce it exactly. Every check here
runs the same seeded workload through both paths on twin devices/clusters
and asserts the engine differential contract:

- **identical plans**: resolved clock pairs, effective-switch decisions
  and throttled operating points are equal as integers, and the boards'
  clock-change histories carry the same values,
- **equal physics**: start/end times, energies and powers agree bitwise
  or within rel 1e-12 (:data:`SCALAR_PATH_RTOL` — the vectorized sweep
  and scalar ``execute`` differ by ~1 ulp in ``pow``),
- **identical aggregates**: scaler counters, queue summaries, job states
  and traced metric counters match.

Zero-kernel and zero-job batches are checked to be well-formed no-ops,
and batches under clock-set faults or a thermal-throttle window to split
at the submissions those hit. The plain, power-capped and fault-split
batches also pass the record checks of
:func:`~repro.validate.invariants.check_kernel_records`.
"""

from __future__ import annotations

from repro.hw.specs import NVIDIA_V100, GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.validate.differential import SCALAR_PATH_RTOL, _arrays_equal
from repro.validate.invariants import check_kernel_records
from repro.validate.reference import PerEventPayload, replay_per_event
from repro.validate.result import CheckResult, check

#: Kernel mix for the engine differentials: compute-bound, memory-bound
#: and balanced members of the §8 suite (same trio the perf-plane
#: differentials use).
ENGINE_KERNEL_NAMES: tuple[str, ...] = ("gemm", "sobel3", "median")


def _kernels(names: tuple[str, ...] = ENGINE_KERNEL_NAMES) -> list[KernelIR]:
    from repro.apps import get_benchmark

    return [get_benchmark(name).kernel for name in names]


def _targets():
    from repro.metrics.targets import (
        DEADLINE,
        MAX_PERF,
        MIN_EDP,
        MIN_ENERGY,
        SLA_SLACK,
    )

    return [MIN_EDP, MAX_PERF, MIN_ENERGY, DEADLINE(0.05), SLA_SLACK(1.3)]


def _workload(spec: GPUSpec, kernels: list[KernelIR], rounds: int = 3) -> list:
    """A deterministic mixed request stream covering every submit form."""
    targets = _targets()
    requests: list = []
    for r in range(rounds):
        for i, kernel in enumerate(kernels):
            requests.append((targets[(r + i) % len(targets)], kernel))
            if (r + i) % 3 == 0:
                requests.append(kernel)  # request-free: inherit clocks
            if (r + i) % 3 == 1:
                requests.append(
                    (
                        spec.default_mem_mhz,
                        spec.core_freqs_mhz[(7 * (r + i + 1)) % len(spec.core_freqs_mhz)],
                        kernel,
                    )
                )
    return requests


def _twin_queues(spec: GPUSpec, plan, trace_pair=(None, None), power_limit_w=None):
    from repro.core.queue import SynergyQueue
    from repro.hw.device import SimulatedGPU

    queues = []
    for trace in trace_pair:
        gpu = SimulatedGPU(spec, index=0)
        if power_limit_w is not None:
            gpu.set_power_limit(power_limit_w, privileged=True)
        queues.append(SynergyQueue(gpu, plan=plan, trace=trace))
    return queues


def _record_checks(name: str, context: str, scalar_gpu, batched_gpu) -> list[CheckResult]:
    """Record-level parity: plans exact, physics within the rel contract."""
    r1, r2 = scalar_gpu.records, batched_gpu.records
    results = [
        check(
            f"{name}_record_count",
            len(r1) == len(r2),
            f"{context}: {len(r1)} vs {len(r2)} records",
        )
    ]
    if len(r1) != len(r2):
        return results
    results.append(
        _arrays_equal(
            f"{name}_clock_plans",
            context,
            ([r.core_mhz for r in r1], [r.core_mhz for r in r2]),
            ([r.mem_mhz for r in r1], [r.mem_mhz for r in r2]),
            ([h for h in scalar_gpu._clock_values],
             [h for h in batched_gpu._clock_values]),
        )
    )
    results.append(
        _arrays_equal(
            f"{name}_physics",
            context,
            ([r.start_s for r in r1], [r.start_s for r in r2]),
            ([r.end_s for r in r1], [r.end_s for r in r2]),
            ([r.energy_j for r in r1], [r.energy_j for r in r2]),
            ([r.avg_power_w for r in r1], [r.avg_power_w for r in r2]),
            (scalar_gpu._clock_times, batched_gpu._clock_times),
            rtol=SCALAR_PATH_RTOL,
        )
    )
    s1, s2 = scalar_gpu, batched_gpu
    results.append(
        check(
            f"{name}_board_state",
            (s1.core_mhz, s1.mem_mhz) == (s2.core_mhz, s2.mem_mhz)
            and s1.clock_set_calls == s2.clock_set_calls,
            f"{context}: clocks {s1.core_mhz}/{s1.mem_mhz} vs "
            f"{s2.core_mhz}/{s2.mem_mhz}, set calls "
            f"{s1.clock_set_calls} vs {s2.clock_set_calls}",
        )
    )
    return results


def check_queue_batched_vs_scalar(spec: GPUSpec = NVIDIA_V100) -> list[CheckResult]:
    """Mixed-form batch vs the per-event loop on twin boards."""
    from repro.engine.payload import plan_from_sweeps

    kernels = _kernels()
    plan = plan_from_sweeps(spec, kernels, _targets())
    requests = _workload(spec, kernels)
    scalar_q, batched_q = _twin_queues(spec, plan)
    replay_per_event(scalar_q, requests)
    batched_q.submit_batch(requests)
    batched_q.wait()

    context = f"{len(requests)} mixed submissions@{spec.name}"
    results = _record_checks("engine.queue", context, scalar_q.gpu, batched_q.gpu)
    results += check_kernel_records(batched_q.gpu, context=f"batched {context}")
    sc1, sc2 = scalar_q.scaler, batched_q.scaler
    results.append(
        check(
            "engine.scaler_counters",
            sc1.switch_count == sc2.switch_count
            and sc1.total_overhead_s == sc2.total_overhead_s,
            f"{context}: switches {sc1.switch_count} vs {sc2.switch_count}, "
            f"overhead {sc1.total_overhead_s!r} vs {sc2.total_overhead_s!r} s",
        )
    )
    s1, s2 = scalar_q.summary(), batched_q.summary()
    results.append(
        _arrays_equal(
            "engine.queue_summary",
            context,
            ([s1[k] for k in sorted(s1)], [s2[k] for k in sorted(s2)]),
            rtol=SCALAR_PATH_RTOL,
        )
    )
    e1 = scalar_q.gpu.energy_between(0.0, scalar_q.gpu.clock.now)
    e2 = batched_q.gpu.energy_between(0.0, batched_q.gpu.clock.now)
    results.append(
        _arrays_equal(
            "engine.device_energy", context, ([e1], [e2]), rtol=SCALAR_PATH_RTOL
        )
    )
    return results


def check_throttled_batch(spec: GPUSpec = NVIDIA_V100) -> list[CheckResult]:
    """Power-capped boards must throttle identically on both paths."""
    from repro.hw.device import SimulatedGPU

    kernels = _kernels()
    peak = SimulatedGPU(spec, index=0).default_power_limit_w
    # A limit comfortably between idle and peak (and far from any modeled
    # operating point) so the throttle scan engages without 1-ulp
    # boundary ambiguity between the scalar and vectorized power columns.
    limit = spec.idle_power_w + 0.55 * (peak - spec.idle_power_w)
    requests: list = []
    for i, kernel in enumerate(kernels * 3):
        requests.append(
            (
                spec.default_mem_mhz,
                spec.core_freqs_mhz[-(1 + (i % 5))],
                kernel,
            )
        )
    scalar_q, batched_q = _twin_queues(spec, None, power_limit_w=limit)
    replay_per_event(scalar_q, requests)
    batched_q.submit_batch(requests)
    batched_q.wait()
    context = f"power limit {limit:.0f} W@{spec.name}"
    results = _record_checks("engine.throttle", context, scalar_q.gpu, batched_q.gpu)
    results += check_kernel_records(batched_q.gpu, context=f"batched {context}")
    throttled = sum(
        r.core_mhz != spec.core_freqs_mhz[-(1 + (i % 5))]
        for i, r in enumerate(scalar_q.gpu.records)
    )
    results.append(
        check(
            "engine.throttle_engaged",
            throttled > 0,
            f"{context}: {throttled} throttled kernels (want > 0)",
        )
    )
    return results


def check_empty_batches(spec: GPUSpec = NVIDIA_V100) -> list[CheckResult]:
    """Zero-kernel and zero-job batches are well-formed no-ops."""
    from repro.core.queue import SynergyQueue
    from repro.hw.device import SimulatedGPU
    from repro.obs.session import TraceSession
    from repro.slurm.cluster import Cluster
    from repro.slurm.scheduler import Scheduler

    trace = TraceSession()
    gpu = SimulatedGPU(spec, index=0)
    queue = SynergyQueue(gpu, trace=trace)
    before = (gpu.clock.now, gpu.clock_set_calls, len(queue.events))
    result = queue.submit_batch([])
    after = (gpu.clock.now, gpu.clock_set_calls, len(queue.events))
    summary = result.summary()
    spans = trace.tracer.span_counts()
    results = [
        check(
            "engine.empty_batch_noop",
            len(result) == 0
            and before == after
            and all(v == 0.0 for v in summary.values()),
            f"empty submit_batch changed state: {before} -> {after}, "
            f"summary {summary}",
        ),
        check(
            "engine.empty_batch_span",
            spans.get("engine.batch", 0) == 1
            and trace.metrics.counter("engine.batches").value == 1,
            f"expected one empty engine.batch span, saw {spans}",
        ),
    ]

    sched_trace = TraceSession()
    cluster = Cluster.build(spec, n_nodes=1, gpus_per_node=1, trace=sched_trace)
    scheduler = Scheduler(cluster)
    jobs = scheduler.submit_many([])
    sched_spans = sched_trace.tracer.span_counts()
    results.append(
        check(
            "engine.empty_submit_many",
            jobs == [] and sched_spans.get("slurm.submit_many", 0) == 1,
            f"submit_many([]) -> {jobs!r}, spans {sched_spans}",
        )
    )
    return results


def check_traced_counter_parity(spec: GPUSpec = NVIDIA_V100) -> list[CheckResult]:
    """Batched runs count the same work the scalar path counts."""
    from repro.engine.payload import plan_from_sweeps
    from repro.obs.session import TraceSession

    kernels = _kernels()
    plan = plan_from_sweeps(spec, kernels, _targets())
    requests = _workload(spec, kernels, rounds=2)
    tr1, tr2 = TraceSession(), TraceSession()
    scalar_q, batched_q = _twin_queues(spec, plan, trace_pair=(tr1, tr2))
    replay_per_event(scalar_q, requests)
    batched_q.submit_batch(requests)
    batched_q.wait()
    names = ("queue.kernels_executed", "freq.switches", "predict.plan_lookups")
    values = {
        name: (
            tr1.metrics.counter(name).value,
            tr2.metrics.counter(name).value,
        )
        for name in names
    }
    return [
        check(
            "engine.traced_counters",
            all(a == b for a, b in values.values()),
            f"counter mismatch: {values}",
        )
    ]


def check_faulted_batch(spec: GPUSpec = NVIDIA_V100) -> list[CheckResult]:
    """Faults split a batch at the submissions they hit, with exact parity.

    Twin traced queues run the same workload under a seeded transient
    clock-set plan, under a plan that fails every attempt of the first
    switch (retry exhaustion, then a successful reset to driver
    defaults), and under a 900 MHz thermal-throttle window that opens
    mid-batch. Each row must engage (retries, a degrade, a throttled
    kernel), the batch must stay one ``engine.batch`` span, and it must
    match the scalar twin's records, scaler counters, fault log and
    traced retry, fault, kernel, switch and plan-lookup counters.
    """
    from repro.core.frequency import DEFAULT_MAX_RETRIES
    from repro.engine.payload import plan_from_sweeps
    from repro.faults.plan import FaultPlan, FaultSpec, transient_nvml_plan
    from repro.obs.session import TraceSession

    kernels = _kernels()
    plan = plan_from_sweeps(spec, kernels, _targets())
    requests = _workload(spec, kernels, rounds=4)
    clean_q = _twin_queues(spec, plan)[0]
    clean_q.submit_batch(requests)
    run_s = clean_q.gpu.clock.now
    fault_plans = {
        "transient": transient_nvml_plan(0.3, seed=7),
        "degrade": FaultPlan(
            seed=7,
            specs=(
                FaultSpec(
                    site="nvml.set_clocks",
                    probability=1.0,
                    count=DEFAULT_MAX_RETRIES + 1,
                ),
            ),
        ),
        "throttle": FaultPlan(seed=7, specs=(FaultSpec(
            site="hw.thermal_throttle", at_s=0.25 * run_s,
            duration_s=0.25 * run_s, param=900,
        ),)),
    }
    results: list[CheckResult] = []
    for label, fault_plan in fault_plans.items():
        name = f"engine.faulted_{label}"
        context = f"{label} faults, {len(requests)} submissions@{spec.name}"
        tr1, tr2 = TraceSession(), TraceSession()
        scalar_q, batched_q = _twin_queues(spec, plan, trace_pair=(tr1, tr2))
        scalar_q.gpu.fault_injector = fault_plan.injector(tr1)
        batched_q.gpu.fault_injector = fault_plan.injector(tr2)
        replay_per_event(scalar_q, requests)
        result = batched_q.submit_batch(requests)
        batched_q.wait()

        results += _record_checks(name, context, scalar_q.gpu, batched_q.gpu)
        results += check_kernel_records(batched_q.gpu, context=f"batched {context}")
        batch_spans = [
            sp for sp in tr2.tracer.spans if sp.category == "engine.batch"
        ]
        results.append(
            check(
                f"{name}_fast_path",
                len(batch_spans) == 1,
                f"{context}: {len(batch_spans)} engine.batch spans",
            )
        )
        sc1, sc2 = scalar_q.scaler, batched_q.scaler
        scalar_counts = (sc1.switch_count, sc1.retry_count, sc1.failed_switches)
        batched_counts = (sc2.switch_count, sc2.retry_count, sc2.failed_switches)
        # No power cap here: only the window runs a kernel below its clock.
        throttled = int((result.core_mhz < result.app_core_mhz).sum())
        engaged = {
            "transient": sc1.retry_count > 0,
            "degrade": sc1.failed_switches > 0,
            "throttle": throttled > 0,
        }[label]
        results.append(
            check(
                f"{name}_scaler_counters",
                scalar_counts == batched_counts and engaged,
                f"{context}: switches/retries/failed {scalar_counts} vs "
                f"{batched_counts}, {throttled} throttled kernels",
            )
        )
        degraded = [
            [r["degraded"] for r in q.kernel_stats()] for q in (scalar_q, batched_q)
        ]
        log1 = scalar_q.gpu.fault_injector.log.to_dicts()
        log2 = batched_q.gpu.fault_injector.log.to_dicts()
        results.append(
            check(
                f"{name}_fault_log",
                degraded[0] == degraded[1]
                and [{**e, "t": None} for e in log1]
                == [{**e, "t": None} for e in log2],
                f"{context}: {len(log1)} vs {len(log2)} log entries, "
                f"{sum(degraded[0])} vs {sum(degraded[1])} degraded kernels",
            )
        )
        if len(log1) == len(log2):
            results.append(
                _arrays_equal(
                    f"{name}_fault_times",
                    context,
                    ([e["t"] for e in log1], [e["t"] for e in log2]),
                    rtol=SCALAR_PATH_RTOL,
                )
            )
        names = (
            "freq.retries",
            "faults.injected",
            "queue.kernels_executed",
            "freq.switches",
            "predict.plan_lookups",
        )
        values = {
            n: (tr1.metrics.counter(n).value, tr2.metrics.counter(n).value)
            for n in names
        }
        results.append(
            check(
                f"{name}_traced_counters",
                all(a == b for a, b in values.values()),
                f"{context}: counter mismatch: {values}",
            )
        )
    return results


def check_scheduler_batched_vs_scalar(spec: GPUSpec = NVIDIA_V100) -> list[CheckResult]:
    """Twin clusters: ``submit_many``+batched payloads vs per-event jobs."""
    import numpy as np

    from repro.engine.payload import KernelBatchPayload, plan_from_sweeps
    from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
    from repro.slurm.job import JobSpec
    from repro.slurm.plugin import NvGpuFreqPlugin
    from repro.slurm.scheduler import Scheduler

    kernels = _kernels()
    plan = plan_from_sweeps(spec, kernels, _targets())
    requests = tuple(_workload(spec, kernels, rounds=2))

    def run(batched: bool):
        cluster = Cluster.build(
            spec, n_nodes=3, gpus_per_node=2, gres={NVGPUFREQ_GRES}
        )
        scheduler = Scheduler(cluster, plugins=[NvGpuFreqPlugin()])
        specs = [
            JobSpec(
                name=f"engine-par-{i}",
                n_nodes=1,
                exclusive=True,
                gres=frozenset({NVGPUFREQ_GRES}),
                payload=(KernelBatchPayload if batched else PerEventPayload)(
                    requests=requests, plan=plan
                ),
            )
            for i in range(4)
        ]
        if batched:
            jobs = scheduler.submit_many(specs)
        else:
            jobs = [scheduler.submit(s) for s in specs]
        # NaN where a job never started, ended or was accounted.
        agg = {
            key: np.asarray([getattr(j, attr) for j in jobs], dtype=float)
            for key, attr in (
                ("start_s", "start_time_s"),
                ("end_s", "end_time_s"),
                ("gpu_energy_j", "gpu_energy_j"),
            )
        }
        agg["state"] = [j.state.value for j in jobs]
        return agg, jobs

    scalar_agg, scalar_jobs = run(batched=False)
    batched_agg, batched_jobs = run(batched=True)
    results = [
        check(
            "engine.scheduler_job_states",
            list(scalar_agg["state"]) == list(batched_agg["state"])
            and list(scalar_agg["state"]) == ["COMPLETED"] * len(scalar_jobs),
            f"states {list(scalar_agg['state'])} vs {list(batched_agg['state'])}",
        ),
        _arrays_equal(
            "engine.scheduler_aggregates",
            f"4 jobs on 3x2 {spec.name} cluster",
            (scalar_agg["start_s"], batched_agg["start_s"]),
            (scalar_agg["end_s"], batched_agg["end_s"]),
            (scalar_agg["gpu_energy_j"], batched_agg["gpu_energy_j"]),
            rtol=SCALAR_PATH_RTOL,
        ),
    ]
    per_gpu_scalar = [s for j in scalar_jobs for s in j.result["gpus"]]
    per_gpu_batched = [s for j in batched_jobs for s in j.result["gpus"]]
    results.append(
        _arrays_equal(
            "engine.scheduler_queue_summaries",
            f"{len(per_gpu_scalar)} per-board summaries",
            *[
                ([a[k] for k in sorted(a)], [b[k] for k in sorted(b)])
                for a, b in zip(per_gpu_scalar, per_gpu_batched)
            ],
            rtol=SCALAR_PATH_RTOL,
        )
    )
    return results


def run_engine_checks(spec: GPUSpec = NVIDIA_V100) -> list[CheckResult]:
    """The full engine differential harness on one device family."""
    return (
        check_queue_batched_vs_scalar(spec)
        + check_throttled_batch(spec)
        + check_empty_batches(spec)
        + check_traced_counter_parity(spec)
        + check_faulted_batch(spec)
        + check_scheduler_batched_vs_scalar(spec)
    )
