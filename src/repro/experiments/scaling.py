"""Multi-node energy scaling (paper §8.4, Fig. 10).

Weak scaling of CloverLeaf / MiniWeather on a simulated Marconi-100: IBM
Power9 nodes with 4 NVIDIA V100s each, InfiniBand EDR, DragonFly+. For each
GPU count and each energy target the app is compiled (per-kernel frequency
plan) and submitted as an exclusive, ``nvgpufreq``-tagged SLURM job; the
plugin grants clock privileges, the app runs one MPI rank per GPU, and the
report captures end-to-end time (computation + communication) against
GPU-only energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.apps.miniapp import AppReport, MpiMiniApp
from repro.common.errors import ConfigurationError, ValidationError
from repro.core.compiler import SynergyCompiler
from repro.core.models import EnergyModelBundle
from repro.hw.specs import NVIDIA_V100
from repro.metrics.targets import (
    ES_25,
    ES_50,
    ES_75,
    EnergyTarget,
    MIN_EDP,
    PL_25,
    PL_50,
)
from repro.mpi.launcher import launch_ranks
from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
from repro.slurm.job import JobContext, JobSpec
from repro.slurm.plugin import NvGpuFreqPlugin
from repro.slurm.scheduler import Scheduler

#: The target set plotted in Fig. 10 (plus the default baseline).
FIG10_TARGETS: tuple[EnergyTarget, ...] = (MIN_EDP, ES_25, ES_50, ES_75, PL_25, PL_50)

#: Marconi-100 packs 4 V100 boards per node.
GPUS_PER_NODE: int = 4


@dataclass(frozen=True)
class ScalingPoint:
    """One point of Fig. 10: an (app, GPU count, target) configuration."""

    app_name: str
    n_gpus: int
    target_name: str
    elapsed_s: float
    gpu_energy_j: float
    comm_time_s: float

    def energy_saving_vs(self, baseline: "ScalingPoint") -> float:
        """Fractional GPU energy saving against a baseline point."""
        return 1.0 - self.gpu_energy_j / baseline.gpu_energy_j


@dataclass
class ScalingResult:
    """All measured points of the weak-scaling experiment."""

    app_name: str
    device_name: str
    points: list[ScalingPoint] = field(default_factory=list)

    def point(self, n_gpus: int, target_name: str) -> ScalingPoint:
        """Look one configuration up."""
        for p in self.points:
            if p.n_gpus == n_gpus and p.target_name == target_name:
                return p
        raise ConfigurationError(
            f"no point for {n_gpus} GPUs / target {target_name!r}"
        )

    def baseline(self, n_gpus: int) -> ScalingPoint:
        """The default-frequency point at one GPU count."""
        return self.point(n_gpus, "default")


def run_scaling_experiment(
    app_factory: Callable[[], MpiMiniApp],
    bundle: EnergyModelBundle,
    gpu_counts: Sequence[int] = (4, 8, 16, 32, 64),
    targets: Sequence[EnergyTarget] = FIG10_TARGETS,
) -> ScalingResult:
    """Run the Fig. 10 experiment for one application on V100 nodes, with
    the per-kernel clocks ``bundle`` predicts."""
    if not gpu_counts:
        raise ValidationError("scaling needs at least one GPU count")
    for count in gpu_counts:
        if count < 1 or count % GPUS_PER_NODE:
            raise ValidationError(
                f"GPU counts must be positive multiples of {GPUS_PER_NODE} "
                f"(got {count})"
            )
    template = app_factory()
    compiler = SynergyCompiler(bundle, NVIDIA_V100)
    compiled = compiler.compile(list(template.timestep_kernels()), targets)

    result = ScalingResult(app_name=template.name, device_name=NVIDIA_V100.name)
    for count in gpu_counts:
        cluster = Cluster.build(
            NVIDIA_V100,
            n_nodes=count // GPUS_PER_NODE,
            gpus_per_node=GPUS_PER_NODE,
            gres={NVGPUFREQ_GRES},
        )
        scheduler = Scheduler(cluster, plugins=[NvGpuFreqPlugin()])
        for target in (None, *targets):
            app = app_factory()

            def payload(
                context: JobContext,
                target: EnergyTarget | None = target,
                app: MpiMiniApp = app,
            ) -> AppReport:
                comm = launch_ranks(context)
                return app.run(comm, target=target, plan=compiled.plan)

            job = scheduler.submit(
                JobSpec(
                    name=f"{template.name}-{count}gpu-"
                    f"{target.name if target else 'default'}",
                    n_nodes=count // GPUS_PER_NODE,
                    exclusive=True,
                    gres=frozenset({NVGPUFREQ_GRES}),
                    payload=payload,
                )
            )
            if job.error is not None:
                raise ConfigurationError(
                    f"scaling job failed: {job.error} ({job.spec.name})"
                )
            report = job.result
            assert isinstance(report, AppReport)
            result.points.append(
                ScalingPoint(
                    app_name=report.app_name,
                    n_gpus=count,
                    target_name=report.target_name,
                    elapsed_s=report.elapsed_s,
                    gpu_energy_j=report.gpu_energy_j,
                    comm_time_s=report.comm_time_max_s,
                )
            )
    return result
