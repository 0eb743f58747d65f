"""The six benchmark workloads.

Each workload turns ``--seed`` into its inputs (``prepare``, the set-up
the harness times), then runs *rounds*. A round is a fixed amount of work
made of one or more timed units and returns the simulated outputs it
produced; every round of a run gets the same inputs, so every round must
produce the same outputs. ``finish`` runs the untimed reference
computations and the invariant checks on the first round.

- ``pipeline``: the paper's own path (§6, Fig. 10) — train a per-device
  bundle, compile MiniWeather's kernels for every Fig. 10 target, run the
  app as exclusive ``nvgpufreq`` jobs. Training dominates; no engine or
  service change can move it.
- ``cluster`` / ``cluster-faults``: one exclusive 64-node job on a fresh
  cluster whose payload pushes one seed-drawn batch per board through
  ``SynergyQueue.submit_batch``. Clean, the vectorized engine does the
  work; with transient NVML faults armed every batch falls back to the
  per-event path, so the pair separates the engine's fast path from its
  fallback.
- ``loadgen``: a long-lived multi-tenant service taking many small
  submissions per drain cycle. Per-job accounting re-reads each board's
  whole history, so cycles slow down as the session ages.
- ``weak-scaling`` / ``weak-scaling-capped``: the distributed stencil
  graph at three rank counts, planned with a global energy target.
  Capping half of the ranks' power forces the per-event graph executor,
  so the pair separates the batched executor from its fallback.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from types import SimpleNamespace

import numpy as np

from repro.apps import MiniWeather, get_benchmark
from repro.common.rng import derive_seed, make_rng
from repro.core.compiler import SynergyCompiler, plan_global_frequencies
from repro.core.models import EnergyModelBundle
from repro.core.queue import SynergyQueue
from repro.distributed import build_comm, build_stencil_graph, run_graph
from repro.engine.payload import plan_from_sweeps
from repro.experiments.scaling import FIG10_TARGETS, GPUS_PER_NODE
from repro.experiments.training import microbench_training_set
from repro.faults.plan import transient_nvml_plan
from repro.hw.specs import NVIDIA_V100, get_spec
from repro.kernelir.microbench import generate_microbenchmarks
from repro.metrics.targets import DEADLINE, MAX_PERF, MIN_EDP, MIN_ENERGY, SLA_SLACK
from repro.ml.forest import RandomForestRegressor
from repro.mpi.launcher import launch_ranks
from repro.service.loadgen import DEFAULT_KERNELS, baseline_energies, seeded_tenants
from repro.service.plane import SchedulingService
from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
from repro.slurm.job import JobSpec, JobState
from repro.slurm.plugin import NvGpuFreqPlugin
from repro.slurm.scheduler import Scheduler

GRES = frozenset({NVGPUFREQ_GRES})


@dataclasses.dataclass
class Round:
    """What one round produced: outputs to check, per-round layer counts."""

    outputs: dict
    counts: dict
    ops: int
    failed: int


def _job_failed(job) -> bool:
    return job.state is not JobState.COMPLETED or job.error is not None


# --------------------------------------------------------------- pipeline


def _run_app(tr, app, target, plan, context):
    with tr.span("mpi.launch"):
        comm = launch_ranks(context)
    with tr.span("apps.run"):
        return app.run(comm, target=target, plan=plan)


class Pipeline:
    """Train → compile → run MiniWeather at two GPU counts (14 jobs)."""

    #: Checked against a band, not pinned: a deliberate model change may
    #: move the saving.
    pinned = False

    def prepare(self, seed: int, smoke: bool):
        rng = make_rng(derive_seed("bench.pipeline", seed))
        return SimpleNamespace(
            seed=seed,
            freq_stride=49 if smoke else 24,
            random_mixes=2 if smoke else 4,
            steps=2 if smoke else 4,
            gpu_counts=(4,) if smoke else (4, 16),
            nx=int(rng.choice((4096, 8192, 16384))),
            nz=int(rng.choice((2048, 4096, 8192))),
        )

    def round(self, s, tr) -> Round:
        spec = NVIDIA_V100
        jobs = []
        with tr.unit() as unit:
            with tr.span("sweep.training_set"):
                suite = generate_microbenchmarks(seed=s.seed, random_count=s.random_mixes)
                training = microbench_training_set(
                    spec, freq_stride=s.freq_stride, kernels=suite
                )
            with tr.span("ml.fit"):
                bundle = EnergyModelBundle().fit(training)
            app = MiniWeather(steps=s.steps, nx=s.nx, nz=s.nz)
            kernels = app.timestep_kernels()
            with tr.span("compile.plan"):
                plan = SynergyCompiler(bundle, spec).compile(kernels, FIG10_TARGETS).plan
            for count in s.gpu_counts:
                with tr.span("slurm.build"):
                    cluster = Cluster.build(
                        spec,
                        n_nodes=count // GPUS_PER_NODE,
                        gpus_per_node=GPUS_PER_NODE,
                        gres={NVGPUFREQ_GRES},
                    )
                    scheduler = Scheduler(cluster, plugins=[NvGpuFreqPlugin()])
                for target in (None, *FIG10_TARGETS):
                    job_spec = JobSpec(
                        name=f"miniweather-{count}gpu",
                        n_nodes=count // GPUS_PER_NODE,
                        exclusive=True,
                        gres=GRES,
                        payload=functools.partial(_run_app, tr, app, target, plan),
                    )
                    with tr.span("slurm.submit"):
                        jobs.append((count, target, scheduler.submit(job_spec)))
            launches = sum(job.result.kernel_launches for *_, job in jobs if job.result)
            unit.kernels = launches

        forests = [m for m in bundle.models_.values() if isinstance(m, RandomForestRegressor)]
        top = max(s.gpu_counts)
        energy = {
            (count, target.name if target else "default"): job.gpu_energy_j
            for count, target, job in jobs
        }
        saved = max(
            1.0 - energy[(top, t.name)] / energy[(top, "default")] for t in FIG10_TARGETS
        )
        failed = sum(_job_failed(job) for *_, job in jobs)
        return Round(
            outputs={
                "jobs": [
                    [count, target.name if target else "default", job.state.value,
                     job.elapsed_s, job.gpu_energy_j]
                    for count, target, job in jobs
                ],
                "plan_covers_targets": all(
                    plan.has(k.name, t) for k in kernels for t in FIG10_TARGETS
                ),
                "saved_frac": saved,
            },
            counts={
                "train.rows": training.n_samples,
                "train.forest_nodes": sum(
                    t.flat_tree().n_nodes for f in forests for t in f.trees_
                ),
                "compile.entries": len(plan.entries),
                "apps.launches": launches,
                "slurm.jobs": len(jobs),
            },
            ops=len(jobs),
            failed=failed,
        )

    def finish(self, s, first: Round):
        saved = first.outputs["saved_frac"]
        checks = {
            "saving above the Fig. 10 band (0.08)": saved > 0.08,
            "plan covers every kernel x target": first.outputs["plan_covers_targets"],
        }
        return saved, checks, {}


# ---------------------------------------------------------------- cluster

CLUSTER_KERNELS = ("gemm", "sobel3", "median", "vec_add", "dram")
CLUSTER_TARGETS = (MIN_EDP, MAX_PERF, MIN_ENERGY, DEADLINE(0.05), SLA_SLACK(1.3))


def _run_batches(tr, requests, plan, out, context):
    for gpu, board_requests in zip(context.gpus, requests):
        with tr.span("engine.batch"):
            queue = SynergyQueue(
                gpu, plan=plan, trace=context.trace, validate=context.validator
            )
            result = queue.submit_batch(board_requests)
        out.append((result, queue.scaler.retry_count))


class ClusterBatch:
    """One exclusive whole-cluster job, one seed-drawn batch per board."""

    pinned = True

    def __init__(self, fault_rate: float) -> None:
        self.fault_rate = fault_rate

    def prepare(self, seed: int, smoke: bool):
        spec = NVIDIA_V100
        n_nodes, per_board = (8, 48) if smoke else (64, 384)
        kernels = [get_benchmark(name).kernel for name in CLUSTER_KERNELS]
        table = spec.core_freqs_mhz
        rng = make_rng(derive_seed("bench.cluster", seed))
        shape = (n_nodes, per_board)
        kernel_idx = rng.integers(0, len(kernels), size=shape).tolist()
        target_idx = rng.integers(0, len(CLUSTER_TARGETS), size=shape).tolist()
        explicit = (rng.random(size=shape) < 0.25).tolist()
        clock_idx = rng.integers(0, len(table), size=shape).tolist()
        requests = [
            tuple(
                (spec.default_mem_mhz, int(table[c]), kernels[k])
                if e
                else (CLUSTER_TARGETS[t], kernels[k])
                for k, t, e, c in zip(*rows)
            )
            for rows in zip(kernel_idx, target_idx, explicit, clock_idx)
        ]
        baseline = baseline_energies(spec, kernels)
        return SimpleNamespace(
            spec=spec,
            n_nodes=n_nodes,
            per_board=per_board,
            requests=requests,
            plan=plan_from_sweeps(spec, kernels, CLUSTER_TARGETS),
            baseline_j=sum(baseline[r[-1].name] for reqs in requests for r in reqs),
            fault_plan=transient_nvml_plan(self.fault_rate, seed) if self.fault_rate else None,
        )

    def round(self, s, tr) -> Round:
        boards: list = []
        with tr.unit() as unit:
            with tr.span("slurm.build"):
                cluster = Cluster.build(
                    s.spec,
                    n_nodes=s.n_nodes,
                    gpus_per_node=1,
                    gres={NVGPUFREQ_GRES},
                    fault_plan=s.fault_plan,
                )
                scheduler = Scheduler(cluster, plugins=[NvGpuFreqPlugin()])
            job_spec = JobSpec(
                name="bench-cluster",
                n_nodes=s.n_nodes,
                exclusive=True,
                gres=GRES,
                payload=functools.partial(_run_batches, tr, s.requests, s.plan, boards),
            )
            with tr.span("slurm.submit"):
                job = scheduler.submit_many([job_spec])[0]
            unit.kernels = sum(len(result) for result, _ in boards)

        injector = cluster.fault_injector
        faults = len(injector.log.faults) if injector is not None else 0
        retries = sum(r for _, r in boards)
        kernel_energy = sum(float(np.sum(result.energy_j)) for result, _ in boards)
        fallbacks = sum(result.fallback is not None for result, _ in boards)
        return Round(
            outputs={
                "job": [job.state.value, job.error, job.gpu_energy_j],
                "kernel_energy_j": kernel_energy,
                "records": [len(g.records) for n in cluster.nodes for g in n.gpus],
                "switches": [result.n_switches for result, _ in boards],
                "faults_fired": faults,
                "clock_retries": retries,
            },
            counts={
                "slurm.jobs": 1,
                "engine.batches": len(boards),
                "engine.fallbacks": fallbacks,
                "engine.kernels": unit.kernels,
                "faults.fired": faults,
                "core.clock_retries": retries,
            },
            ops=1,
            failed=int(_job_failed(job)),
        )

    def finish(self, s, first: Round):
        saved = 1.0 - first.outputs["kernel_energy_j"] / s.baseline_j
        checks = {
            "one record per request on every board": first.outputs["records"]
            == [s.per_board] * s.n_nodes,
            "energy saved vs MAX_PERF": saved > 0.0,
        }
        return saved, checks, {}


# ---------------------------------------------------------------- loadgen

#: Pending-queue quota given to every tenant, so that the closed loop
#: never refuses a submission: the seeded fleet's tight quotas and joule
#: budgets are replaced, its priorities, targets and quota jitter kept.
LOADGEN_MIN_QUOTA = 256


class Loadgen:
    """Seeded closed-loop sessions of admission + drain cycles."""

    pinned = True

    def prepare(self, seed: int, smoke: bool):
        spec = NVIDIA_V100
        n_tenants, n_partitions, n_subs, n_cycles = (
            (8, 4, 2_000, 8) if smoke else (64, 8, 32_000, 32)
        )
        tenants = [
            dataclasses.replace(
                t, quota=max(t.quota, LOADGEN_MIN_QUOTA), energy_budget_j=None
            )
            for t in seeded_tenants(n_tenants, seed)
        ]
        kernels = [get_benchmark(name).kernel for name in DEFAULT_KERNELS]
        targets = {t.target.name: t.target for t in tenants}
        targets[MAX_PERF.name] = MAX_PERF
        rng = make_rng(derive_seed("service.loadgen", seed))
        arrival = np.cumsum(rng.exponential(0.05, size=n_subs)).tolist()
        tenant_idx = rng.integers(0, n_tenants, size=n_subs).tolist()
        kernel_idx = rng.integers(0, len(kernels), size=n_subs).tolist()
        subs = [
            (tenants[ti].name, kernels[ki], t)
            for ti, ki, t in zip(tenant_idx, kernel_idx, arrival)
        ]
        edges = np.linspace(0, n_subs, n_cycles + 1).astype(int).tolist()
        return SimpleNamespace(
            spec=spec,
            n_partitions=n_partitions,
            tenants=tenants,
            plan=plan_from_sweeps(spec, kernels, [targets[n] for n in sorted(targets)]),
            baseline=baseline_energies(spec, kernels),
            cycles=[subs[lo:hi] for lo, hi in zip(edges, edges[1:])],
            attempted=n_subs,
        )

    def round(self, s, tr) -> Round:
        service = SchedulingService(
            s.spec, n_partitions=s.n_partitions, plan=s.plan, baseline_j=s.baseline
        )
        for tenant in s.tenants:
            service.register(tenant)
        submit = service.submit
        clock = time.perf_counter
        for chunk in s.cycles:
            with tr.unit() as unit:
                with tr.span("service.admit"):
                    if tr.enabled:
                        for name, kernel, t in chunk:
                            t0 = clock()
                            submit(name, kernel, t)
                            tr.sample("service.admit", clock() - t0)
                    else:
                        for name, kernel, t in chunk:
                            submit(name, kernel, t)
                with tr.span("service.drain"):
                    unit.kernels = service.drain(chunk[-1][2])

        report = service.report()["cluster"]
        outputs = {
            key: report[key]
            for key in (
                "submissions", "rejections", "drained", "kernel_energy_j",
                "baseline_kernel_energy_j", "saved_j", "p50_latency_s", "p99_latency_s",
            )
        }
        outputs["store_events"] = len(service.store)
        return Round(
            outputs=outputs,
            counts={
                "service.admitted": report["submissions"],
                "service.rejected": report["rejections"],
                "service.store_events": len(service.store),
            },
            ops=s.attempted,
            # A refused submission counts as a failed operation.
            failed=report["rejections"],
        )

    def finish(self, s, first: Round):
        out = first.outputs
        saved = out["saved_j"] / out["baseline_kernel_energy_j"]
        checks = {
            "admitted + rejected == attempted": out["submissions"] + out["rejections"]
            == s.attempted,
            "drained == admitted": out["drained"] == out["submissions"],
            "energy saved vs MAX_PERF": saved > 0.0,
        }
        return saved, checks, {}


# ---------------------------------------------------------- weak scaling

STENCIL_STEPS = 4
SLA_FACTOR = 1.25


class WeakScaling:
    """Stencil graph + global plan + execution at three rank counts."""

    pinned = True

    def __init__(self, capped: bool) -> None:
        self.capped = capped

    def prepare(self, seed: int, smoke: bool):
        rng = make_rng(
            derive_seed("bench.weak-scaling", "capped" if self.capped else "clean", seed)
        )
        scales = []
        for ranks in (32, 64) if smoke else (512, 1024, 2048):
            scale = SimpleNamespace(
                ranks=ranks,
                elems=int(rng.choice((1 << 19, 1 << 20, 1 << 21))),
                halo=int(rng.choice((2048, 4096, 8192))),
                capped=(),
                cap_frac=1.0,
            )
            if self.capped:
                scale.capped = tuple(sorted(rng.choice(ranks, ranks // 2, replace=False).tolist()))
                scale.cap_frac = float(rng.uniform(0.55, 0.70))
            scales.append(scale)
        return SimpleNamespace(spec=get_spec("A100"), scales=scales)

    @staticmethod
    def _comm(spec, scale):
        comm = build_comm(spec, scale.ranks)
        for rank in scale.capped:
            gpu = comm.gpus[rank]
            gpu.set_power_limit(scale.cap_frac * gpu.default_power_limit_w, privileged=True)
        return comm

    @staticmethod
    def _graph(comm, scale):
        return build_stencil_graph(
            comm, steps=STENCIL_STEPS, elems_per_rank=scale.elems, halo_elems=scale.halo
        )

    def round(self, s, tr) -> Round:
        runs = []
        with tr.unit() as unit:
            for scale in s.scales:
                with tr.span("distributed.comm"):
                    comm = self._comm(s.spec, scale)
                with tr.span("distributed.graph"):
                    graph = self._graph(comm, scale)
                    rank_kernels = graph.rank_kernels()
                with tr.span("compile.global_plan"):
                    plan = plan_global_frequencies(
                        s.spec, rank_kernels, sla_factor=SLA_FACTOR, cache=True
                    )
                with tr.span("distributed.run"):
                    result = run_graph(graph, comm, plan)
                runs.append((len(graph.nodes), plan, result))
            unit.kernels = sum(result.n_kernels for *_, result in runs)

        return Round(
            outputs={
                "scales": [
                    {
                        "ranks": scale.ranks,
                        "nodes": nodes,
                        "kernels": result.n_kernels,
                        "transfers": result.n_transfers,
                        "mode": result.mode,
                        "fallback": result.fallback,
                        "completion_s": result.completion_s,
                        "energy_j": result.total_energy_j,
                        "switches": int(result.rank_switches.sum()),
                        "slack_ranks": sum(t != "MAX_PERF" for t in plan.rank_targets),
                    }
                    for scale, (nodes, plan, result) in zip(s.scales, runs)
                ]
            },
            counts={
                "compile.entries": sum(len(plan.entries) for _, plan, _ in runs),
                "distributed.graphs": len(runs),
                "distributed.nodes": sum(nodes for nodes, *_ in runs),
                "distributed.kernels": unit.kernels,
                "distributed.fallbacks": sum(r.fallback is not None for *_, r in runs),
            },
            ops=len(runs),
            failed=0,
        )

    def finish(self, s, first: Round):
        """Run the scales again under the all-MAX_PERF plan (untimed).

        Capped graphs run on the slow per-event executor, so only the
        largest scale, which ``saved_frac`` needs, is rerun for them.
        """
        reference = []
        for scale in s.scales[-1:] if self.capped else s.scales:
            comm = self._comm(s.spec, scale)
            graph = self._graph(comm, scale)
            plan = plan_global_frequencies(
                s.spec, graph.rank_kernels(), sla_factor=SLA_FACTOR,
                objective="MAX_PERF", cache=True,
            )
            result = run_graph(graph, comm, plan)
            reference.append(
                {"completion_s": result.completion_s, "energy_j": result.total_energy_j}
            )
        runs = first.outputs["scales"]
        saved = 1.0 - runs[-1]["energy_j"] / reference[-1]["energy_j"]
        checks = {"energy saved vs MAX_PERF at the largest scale": saved > 0.0}
        if not self.capped:
            checks["completion within the SLA at every scale"] = all(
                run["completion_s"] <= SLA_FACTOR * ref["completion_s"] * (1 + 1e-12)
                for run, ref in zip(runs, reference)
            )
        return saved, checks, {"maxperf": reference}


WORKLOADS = {
    "pipeline": Pipeline(),
    "cluster": ClusterBatch(fault_rate=0.0),
    "cluster-faults": ClusterBatch(fault_rate=0.02),
    "loadgen": Loadgen(),
    "weak-scaling": WeakScaling(capped=False),
    "weak-scaling-capped": WeakScaling(capped=True),
}
