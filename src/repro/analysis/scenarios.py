"""Certificates for the seeded scenarios: static brackets vs. live runs.

Each certifier derives makespan/energy bounds for one scenario of the
:data:`repro.obs.scenarios.SCENARIOS` registry **without running it**,
then checks that the measured quantities of that scenario's run — the
outcome its registry ``run`` returned — land inside the intervals. The
static side only touches the timing/power models and the declared
scenario recipe (launch counts, plan clocks, network constants); the
measured side is the very run the golden-trace tests snapshot. A bracket
failure therefore means the two independent derivations of the paper's
§7 physics disagree — exactly the class of bug ``validate --only
analysis`` exists to catch.

Bound tightness varies by scenario, deliberately:

- ``single-gpu`` replays the §4 queue recurrence symbolically — the
  upper endpoints are *exact* (the certificate is the schedule) and the
  energy interval is a point.
- ``slurm-faults`` knows the plan clocks and the interconnect constants
  but not the switch/fault interleaving: compute+comm is exact, the
  upper endpoint admits one switch per launch plus the full §4.4 retry
  backoff ladder for the injected NVML fault.
- ``thermal-drift`` cannot know which clocks the throttle windows and
  the adaptive ladder will visit, but every operating point lands on the
  board's clock table, so per-launch hulls over the full (mem × core)
  grid bound all four comparison runs at once.
- ``multi-tenant`` is admission-controlled (a rejected submission runs
  nothing), so only the energy upper bound is informative.
- ``weak-scaling`` defers to :func:`~repro.analysis.certify.certify_graph`
  (degenerate intervals under known boot clocks) and additionally runs
  the command-graph race/deadlock audit and the global SLA bound proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.certify import (
    PlanCertificate,
    certify_frequency_plan,
    certify_graph,
    static_operating_point,
)
from repro.analysis.graphaudit import audit_graph
from repro.analysis.interval import Interval
from repro.apps.syclbench.definitions import get_benchmark
from repro.core.compiler import FrequencyPlan
from repro.core.frequency import (
    DEFAULT_BACKOFF_CAP_S,
    DEFAULT_MAX_RETRIES,
    DEFAULT_SWITCH_OVERHEAD_S,
)
from repro.hw.cache import models_for
from repro.hw.specs import NVIDIA_V100, GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import DEADLINE, MIN_EDP
from repro.mpi.network import NetworkModel

#: Kernels of the single-GPU scenario and the DEADLINE demo (a
#: compute-bound, a memory-bound and a balanced member of the §8 suite).
SINGLE_GPU_KERNELS: tuple[str, ...] = ("gemm", "sobel3", "median")


# --------------------------------------------------------------- records


@dataclass(frozen=True)
class BracketCheck:
    """One measured quantity against its static interval."""

    quantity: str
    interval: Interval
    measured: float

    @property
    def ok(self) -> bool:
        return self.interval.contains(self.measured)

    def as_dict(self) -> dict[str, object]:
        return {
            "quantity": self.quantity,
            "interval": self.interval.as_dict(),
            "measured": self.measured,
            "ok": self.ok,
        }

    def format(self) -> str:
        status = "ok" if self.ok else "OUTSIDE"
        return (
            f"{self.quantity}: {self.measured:.6e} in "
            f"{self.interval} [{status}]"
        )


@dataclass(frozen=True)
class ScenarioCertificate:
    """Static bounds, measured values and extra proof obligations."""

    scenario: str
    checks: tuple[BracketCheck, ...]
    #: Named boolean obligations beyond bracketing (audit clean, SLA
    #: bound proved, ...); all must hold for the certificate to stand.
    assertions: tuple[tuple[str, bool], ...] = ()
    notes: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks) and all(
            ok for _, ok in self.assertions
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "checks": [c.as_dict() for c in self.checks],
            "assertions": {name: ok for name, ok in self.assertions},
            "notes": list(self.notes),
        }


def _grid_hull(spec: GPUSpec, kernel: KernelIR) -> tuple[float, float, float, float]:
    """``(t_min, t_max, e_min, e_max)`` over the full (mem × core) table.

    Sound per-launch bounds whenever the effective operating point is a
    table entry — which the board guarantees: application clocks, plan
    clocks, power-limit throttling and injected thermal caps all resolve
    to supported table clocks.
    """
    timing_model, power_model = models_for(spec)
    cores = np.asarray(spec.core_freqs_mhz, dtype=float)
    t_lo = e_lo = float("inf")
    t_hi = e_hi = 0.0
    for mem in spec.mem_freqs_mhz:
        timing = timing_model.sweep(kernel, cores, float(mem))
        power = np.asarray(
            power_model.power(
                cores, float(mem), timing.core_power_utilization, timing.u_mem
            ),
            dtype=float,
        )
        energy = power * np.asarray(timing.time_s, dtype=float)
        t_lo = min(t_lo, float(np.min(timing.time_s)))
        t_hi = max(t_hi, float(np.max(timing.time_s)))
        e_lo = min(e_lo, float(np.min(energy)))
        e_hi = max(e_hi, float(np.max(energy)))
    return t_lo, t_hi, e_lo, e_hi


# ------------------------------------------------------------ single-gpu


def certify_single_gpu(queue) -> ScenarioCertificate:
    """Symbolic replay of the single-V100 MIN_EDP tuning scenario.

    The predicted clocks are a pure function of the trained bundle, so
    the §4 queue recurrence (``advance = max(t, OH)`` on a switch, ``t``
    otherwise, plus one reset switch at the end) can be walked without a
    board. The lower endpoint drops every switch; the upper endpoint *is*
    the schedule. ``queue`` is the scenario run's queue.
    """
    gpu = queue.device.gpu
    spec = gpu.spec
    oh = DEFAULT_SWITCH_OVERHEAD_S
    kernels = [get_benchmark(name).kernel for name in SINGLE_GPU_KERNELS]
    launches: list[tuple[KernelIR, int, int]] = []
    for _round in range(2):
        for kernel in kernels:
            mem, core = queue.predictor.predict_frequency(kernel, MIN_EDP)
            launches.append((kernel, int(mem), int(core)))
    mid_core = int(spec.core_freqs_mhz[len(spec.core_freqs_mhz) // 2])
    launches.append((kernels[0], int(spec.default_mem_mhz), mid_core))

    compute = 0.0
    energy = 0.0
    now = 0.0
    defaults = (spec.default_core_mhz, spec.default_mem_mhz)
    current = defaults
    for kernel, mem, core in launches:
        t, p = static_operating_point(spec, kernel, core, mem)
        switched = (core, mem) != current
        now += max(t, oh) if switched else t
        current = (core, mem)
        compute += t
        energy += p * t
    if current != defaults:
        now += oh  # queue.reset_frequency pays one switch back
    return ScenarioCertificate(
        scenario="single-gpu",
        checks=(
            BracketCheck("makespan_s", Interval(compute, now), float(gpu.clock.now)),
            BracketCheck(
                "kernel_energy_j",
                Interval.point(energy),
                float(queue.summary()["kernel_energy_j"]),
            ),
        ),
        notes=(
            f"{len(launches)} launches; upper makespan endpoint replays "
            "the switch walk exactly, energy is a point interval",
        ),
    )


# ----------------------------------------------------------- slurm-faults


def certify_slurm_faults(outcome) -> ScenarioCertificate:
    """Bracket the 4-node SLURM CloverLeaf run with one NVML fault.

    Compute and collective costs are exact (plan clocks × timing model,
    ring halo + allreduce over the default interconnect constants); the
    elapsed upper endpoint admits one clock switch per launch plus the
    full retry/backoff ladder for the single injected transient fault.
    Board energy includes idle draw, so its upper bound is the peak-power
    envelope over the elapsed upper bound. ``outcome`` is the scenario
    run's ``(app, compiled, job)``.
    """
    app, compiled, job = outcome
    spec = job.nodes[0].gpus[0].spec
    oh = DEFAULT_SWITCH_OVERHEAD_S
    n_ranks = job.spec.n_nodes
    step_time = 0.0
    step_energy = 0.0
    for kernel in compiled.kernels:
        mem, core = compiled.plan.lookup(kernel.name, MIN_EDP)
        t, p = static_operating_point(spec, kernel, core, mem)
        step_time += t
        step_energy += p * t

    node_of_rank = list(range(n_ranks))  # one GPU per node
    net = NetworkModel()
    halo = app.halo_bytes()
    hop = [
        max(
            net.transfer_time(halo, node_of_rank[r], node_of_rank[(r - 1) % n_ranks]),
            net.transfer_time(halo, node_of_rank[r], node_of_rank[(r + 1) % n_ranks]),
        )
        for r in range(n_ranks)
    ]
    reduce_s = net.allreduce_time(8.0, node_of_rank)
    comm_lo = app.steps * (2.0 * min(hop) + reduce_s)
    comm_hi = app.steps * (2.0 * max(hop) + reduce_s)

    launches = app.steps * len(compiled.kernels)  # per rank
    fault_extra = DEFAULT_MAX_RETRIES * oh + DEFAULT_BACKOFF_CAP_S
    compute = app.steps * step_time
    elapsed = Interval(
        compute + comm_lo,
        compute + comm_hi + (launches + 2) * oh + fault_extra,
    )
    p_peak = models_for(spec)[1].power_bounds()[1]
    energy_iv = Interval(
        n_ranks * app.steps * step_energy,
        n_ranks * elapsed.hi * p_peak,
    )
    report = job.result
    return ScenarioCertificate(
        scenario="slurm-faults",
        checks=(
            BracketCheck("elapsed_s", elapsed, float(report.elapsed_s)),
            BracketCheck("gpu_energy_j", energy_iv, float(report.gpu_energy_j)),
        ),
        assertions=(
            ("job absorbed the transient NVML fault", report.clock_retries >= 1),
            ("no kernel degraded to default clocks", report.degraded_kernels == 0),
        ),
        notes=(
            f"{launches} launches/rank over {n_ranks} ranks; retry ladder "
            f"budget {fault_extra:.3e} s in the upper endpoint",
        ),
    )


# ---------------------------------------------------------- thermal-drift


def certify_thermal_drift(comparison) -> ScenarioCertificate:
    """Bracket the four-way adaptive-chaos comparison with grid hulls.

    Throttle windows and ladder escalations move clocks unpredictably,
    but never off the board's table, so per-launch (mem × core) hulls
    bound all four measured runs of the scenario's
    :class:`~repro.adapt.chaos.ThermalDriftComparison` (the sizing probe
    is excluded from the comparison's summaries, matching the measured
    side).
    """
    from repro.adapt.chaos import ROUNDS, STREAMS, scenario_kernels

    spec = NVIDIA_V100
    oh = DEFAULT_SWITCH_OVERHEAD_S
    runs = (
        comparison.max_perf,
        comparison.static_clean,
        comparison.static_fault,
        comparison.adaptive_fault,
    )
    kernels = scenario_kernels()
    hulls = [_grid_hull(spec, kernel) for kernel in kernels]
    per_kernel = len(runs) * STREAMS * ROUNDS
    run_launches = STREAMS * ROUNDS * len(kernels)
    elapsed = Interval(
        per_kernel * sum(h[0] for h in hulls),
        per_kernel * sum(h[1] for h in hulls)
        + len(runs) * (run_launches + 4) * oh,
    )
    energy_iv = Interval(
        per_kernel * sum(h[2] for h in hulls),
        per_kernel * sum(h[3] for h in hulls),
    )
    return ScenarioCertificate(
        scenario="thermal-drift",
        checks=(
            BracketCheck("elapsed_s", elapsed, float(sum(r.elapsed_s for r in runs))),
            BracketCheck(
                "kernel_energy_j", energy_iv, float(sum(r.energy_j for r in runs))
            ),
        ),
        notes=(
            f"{per_kernel} launches per kernel across the four compared "
            "runs; bounds hull the full clock table (throttle-safe)",
        ),
    )


# ----------------------------------------------------------- multi-tenant


def certify_multi_tenant(service) -> ScenarioCertificate:
    """Energy cap for the seeded 8-tenant service-plane session.

    Admission control may reject or leave submissions pending, so the
    only sound static statement is the upper bound: every drained
    submission runs its kernel once at some table operating point.
    Makespan is ill-defined for the plane (shards idle-wait between
    seeded arrivals), so this certificate is energy-only. ``service`` is
    the scenario run's :class:`~repro.service.plane.SchedulingService`.
    """
    from repro.service.loadgen import DEFAULT_KERNELS

    cluster = service.report()["cluster"]
    # Every tenant is registered, so each submission was either admitted
    # or rejected: the two counts sum to the offered stream.
    n_submissions = int(cluster["submissions"]) + int(cluster["rejections"])
    cap = max(
        _grid_hull(service.spec, get_benchmark(name).kernel)[3]
        for name in DEFAULT_KERNELS
    )
    energy_iv = Interval(0.0, n_submissions * cap)
    drained = int(cluster["drained"])
    return ScenarioCertificate(
        scenario="multi-tenant",
        checks=(
            BracketCheck(
                "kernel_energy_j", energy_iv, float(cluster["kernel_energy_j"])
            ),
        ),
        assertions=(
            ("drained submissions within the admitted cap", drained <= n_submissions),
        ),
        notes=(
            f"energy-only certificate: {drained} drained of "
            f"{n_submissions} submissions, per-launch cap {cap:.6e} J",
        ),
    )


# ----------------------------------------------------------- weak-scaling


def certify_weak_scaling(outcome) -> ScenarioCertificate:
    """Certify the distributed weak-scaling stencil graph end to end.

    Exercises all three analysis passes at once: the interval walk of
    :func:`~repro.analysis.certify.certify_graph` (with the MAX_PERF
    baseline proving the global SLA bound), the command-graph race and
    deadlock audit, and the bracket against the vectorized engine.
    Boot clocks are known (``build_comm`` boards start at driver
    defaults), so every interval is degenerate and the bracket is an
    equality test at ``CONTAINS_RTOL``. ``outcome`` is the scenario
    run's ``(comm, graph, plan, result)``.
    """
    from repro.core.compiler import plan_global_frequencies

    comm, graph, plan, result = outcome
    spec = comm.gpus[0].spec
    baseline_plan = plan_global_frequencies(
        spec,
        graph.rank_kernels(),
        sla_factor=plan.sla_factor,
        objective="MAX_PERF",
        cache=True,
    )
    baseline_cert = certify_graph(graph, baseline_plan, spec)
    cert = certify_graph(graph, plan, spec, baseline=baseline_cert)
    audit = audit_graph(graph)
    checks = [
        BracketCheck("completion_s", cert.completion_s, float(result.completion_s)),
        BracketCheck(
            "total_energy_j",
            cert.total_energy_j,
            float(result.rank_energy_j.sum()),
        ),
    ]
    checks.extend(
        BracketCheck(
            f"rank{r}_energy_j",
            cert.rank_energy_j[r],
            float(result.rank_energy_j[r]),
        )
        for r in range(comm.size)
    )
    return ScenarioCertificate(
        scenario="weak-scaling",
        checks=tuple(checks),
        assertions=(
            ("command-graph audit clean", audit.ok),
            ("global SLA bound proved", bool(cert.global_bound_ok)),
        ),
        notes=(
            f"{cert.n_kernels} kernels / {cert.n_nodes} graph nodes over "
            f"{comm.size} ranks on {spec.name}; engine mode {result.mode}",
            f"completion {cert.completion_s} <= {cert.sla_factor:g} x "
            f"MAX_PERF baseline {cert.baseline_completion_s:.6e} s",
        ),
    )


# ---------------------------------------------------------- DEADLINE demo


def deadline_demo() -> tuple[PlanCertificate, PlanCertificate]:
    """A feasible and a deliberately infeasible DEADLINE certificate.

    Both plans pin the board's fastest clocks for the single-GPU kernel
    set. The feasible deadline doubles the slowest static time, so the
    proof goes through; the infeasible one halves the *fastest* static
    time, which no supported clock can meet — the refutation names the
    first witness kernel. Static physics only: the demo is deterministic.
    """
    spec = NVIDIA_V100
    kernels = [get_benchmark(name).kernel for name in SINGLE_GPU_KERNELS]
    mem = int(spec.default_mem_mhz)
    top = int(max(spec.core_freqs_mhz))
    times = {
        k.name: static_operating_point(spec, k, top, mem)[0]
        for k in kernels
    }
    feasible = DEADLINE(2.0 * max(times.values()))
    infeasible = DEADLINE(0.5 * min(times.values()))
    entries = {}
    for k in kernels:
        entries[(k.name, feasible.name)] = (mem, top)
        entries[(k.name, infeasible.name)] = (mem, top)
    plan = FrequencyPlan(device_name=spec.name, entries=entries)
    cert_ok = certify_frequency_plan(plan, kernels, [feasible], spec)
    cert_bad = certify_frequency_plan(plan, kernels, [infeasible], spec)
    return cert_ok, cert_bad
