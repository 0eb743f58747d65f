"""The paper's evaluation artifacts, each declared once (§8: Figs. 1–10,
Table 2, and the ablations EXPERIMENTS.md reports).

An :class:`Artifact` pairs ``run()`` — the fixed-configuration measurement,
returning a flat JSON-able dict of the numbers EXPERIMENTS.md quotes — with
``checks(numbers)``, a pure function returning the artifact's named
verdicts. The ``paper`` section of ``repro-synergy validate`` runs every
artifact and its checks; ``tests/golden/paper.json`` pins the numbers.

The V100 training set and the model bundles are trained once per process
(``functools.cache``; every caller shares the cached objects and only reads
them); Fig. 9 and Table 2 share one accuracy analysis.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.adapt.chaos import run_thermal_drift_comparison
from repro.apps import CloverLeaf, MiniWeather, get_benchmark
from repro.apps.miniapp import AppReport
from repro.common.errors import SimulationError
from repro.core.compiler import SynergyCompiler
from repro.core.models import EnergyModelBundle, TrainingSet
from repro.core.online import OnlineFrequencyTuner, tune_kernel_online
from repro.core.predictor import FrequencyPredictor
from repro.core.queue import SynergyQueue
from repro.core.sweepcache import scoped_cache
from repro.experiments.accuracy import (
    OBJECTIVE_ALGORITHMS,
    AccuracyAnalysis,
    run_accuracy_analysis,
)
from repro.experiments.characterization import characterize, fine_vs_coarse
from repro.experiments.scaling import (
    FIG10_TARGETS,
    GPUS_PER_NODE,
    run_scaling_experiment,
)
from repro.experiments.sweep import sweep_kernel
from repro.experiments.training import (
    ALGORITHM_NAMES,
    microbench_training_set,
    train_bundles,
)
from repro.faults import FaultSpec, transient_nvml_plan
from repro.hw.device import SimulatedGPU
from repro.hw.specs import AMD_MI100, NVIDIA_A100, NVIDIA_V100, GPUSpec
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import (
    ES_25,
    ES_50,
    ES_75,
    ES_100,
    MAX_PERF,
    MIN_ED2P,
    MIN_EDP,
    MIN_ENERGY,
    PL_25,
    PL_50,
    PL_75,
    TABLE2_OBJECTIVES,
)
from repro.mpi.launcher import launch_ranks
from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
from repro.slurm.job import JobSpec
from repro.slurm.plugin import NvGpuFreqPlugin
from repro.slurm.powercap import PowerCapPlugin
from repro.slurm.scheduler import Scheduler
from repro.validate.result import CheckResult, check

#: ``run()``'s output: flat, JSON-able, one value per quoted number.
Numbers = dict[str, object]


@dataclass(frozen=True)
class Artifact:
    """One paper figure, table or ablation: its run and its verdicts."""

    #: ``run() -> Numbers``: the fixed configuration, no seed parameter.
    run: Callable[[], Numbers]
    #: ``checks(numbers) -> [CheckResult]``: pure, named ``paper.*``.
    checks: Callable[[Numbers], list[CheckResult]]


def _verdict(name: str, conditions: Iterable[tuple[str, bool]]) -> CheckResult:
    """One named check over labelled conditions; the detail names failures."""
    conditions = list(conditions)
    broken = [label for label, ok in conditions if not ok]
    detail = "; ".join(broken) if broken else f"all {len(conditions)} hold"
    return check(f"paper.{name}", not broken, detail)


# ---------------------------------------------------------------- training

#: Training density of the model-based artifacts: every 8th V100 clock,
#: 32 random micro-benchmark mixes.
FREQ_STRIDE = 8
RANDOM_COUNT = 32


@functools.cache
def v100_training_set() -> TrainingSet:
    """The shared micro-benchmark training set on the V100 (§6.1)."""
    return microbench_training_set(
        NVIDIA_V100, freq_stride=FREQ_STRIDE, random_count=RANDOM_COUNT
    )


@functools.cache
def v100_bundles() -> dict[str, EnergyModelBundle]:
    """One fitted single-family bundle per §8.3 algorithm."""
    return train_bundles(v100_training_set())


@functools.cache
def v100_best_bundle() -> EnergyModelBundle:
    """The per-objective best models (Table 2 winners)."""
    return EnergyModelBundle().fit(v100_training_set())


@functools.cache
def v100_accuracy() -> AccuracyAnalysis:
    """The §8.3 protocol behind both Fig. 9 and Table 2."""
    return run_accuracy_analysis(NVIDIA_V100, bundles=v100_bundles())


# ------------------------------------------------ Fig. 1: frequency tables

FIG1_DEVICES: dict[str, GPUSpec] = {
    "v100": NVIDIA_V100, "a100": NVIDIA_A100, "mi100": AMD_MI100,
}


def run_fig1() -> Numbers:
    numbers: Numbers = {}
    for key, spec in FIG1_DEVICES.items():
        numbers[f"{key}.core_configs"] = len(spec.core_freqs_mhz)
        numbers[f"{key}.core_min_mhz"] = spec.min_core_mhz
        numbers[f"{key}.core_max_mhz"] = spec.max_core_mhz
        numbers[f"{key}.mem_mhz"] = spec.mem_freqs_mhz[0]
        numbers[f"{key}.default_core_mhz"] = spec.default_core_mhz
    return numbers


def checks_fig1(n: Numbers) -> list[CheckResult]:
    expected = {
        "v100": [196, 135, 1530, 877],
        "a100": [81, 210, 1410, 1215],
        "mi100": [16, 300, 1502, 1200],
    }
    fields = ("core_configs", "core_min_mhz", "core_max_mhz", "mem_mhz")
    return [_verdict("fig1.available_frequencies", (
        (f"{key} (configs, min, max, mem) == {want}",
         [n[f"{key}.{f}"] for f in fields] == want)
        for key, want in expected.items()
    ))]


# --------------------------------- Figs. 2, 7, 8: Pareto characterization

FIG7_BENCHMARKS = ("gemm", "sobel3", "median", "black_scholes")


def _characterization(spec: GPUSpec, names: Iterable[str]) -> Numbers:
    numbers: Numbers = {}
    for name in names:
        c = characterize(spec, get_benchmark(name).kernel)
        numbers[f"{name}.pareto_speedup_min"] = c.pareto_speedup_min
        numbers[f"{name}.pareto_speedup_max"] = c.pareto_speedup_max
        numbers[f"{name}.max_saving"] = c.max_energy_saving
        numbers[f"{name}.loss_at_max_saving"] = c.loss_at_max_saving
        numbers[f"{name}.default_on_front"] = c.default_is_pareto
        numbers[f"{name}.configs"] = len(c.sweep.freqs_mhz)
        lowest = int(np.argmin(c.sweep.freqs_mhz))
        numbers[f"{name}.lowest_clock_energy"] = float(
            c.sweep.normalized_energy[lowest]
        )
    return numbers


def run_fig2() -> Numbers:
    return _characterization(NVIDIA_V100, ("lin_reg_coeff", "median"))


def checks_fig2(n: Numbers) -> list[CheckResult]:
    return [_verdict("fig2.energy_characterization", [
        # Fig. 2a: little headroom, expensive low clocks.
        ("lin_reg_coeff max saving < 0.16", n["lin_reg_coeff.max_saving"] < 0.16),
        ("lin_reg_coeff lowest-clock energy > 1.5",
         n["lin_reg_coeff.lowest_clock_energy"] > 1.5),
        # Fig. 2b: > 20% saving, cheap low clocks.
        ("median max saving > 0.20", n["median.max_saving"] > 0.20),
        ("median loss at max saving < 0.10", n["median.loss_at_max_saving"] < 0.10),
    ])]


def run_fig7() -> Numbers:
    return _characterization(NVIDIA_V100, FIG7_BENCHMARKS)


def checks_fig7(n: Numbers) -> list[CheckResult]:
    return [_verdict("fig7.v100_characterization", [
        ("gemm pareto speedup min > 0.90", 0.90 < n["gemm.pareto_speedup_min"]),
        ("gemm pareto speedup max < 1.05", n["gemm.pareto_speedup_max"] < 1.05),
        ("gemm max saving > 0.18", n["gemm.max_saving"] > 0.18),
        ("gemm loss at max saving < 0.08", n["gemm.loss_at_max_saving"] < 0.08),
        ("sobel3 pareto speedup min < 0.80", n["sobel3.pareto_speedup_min"] < 0.80),
        ("sobel3 pareto speedup max > 1.10", n["sobel3.pareto_speedup_max"] > 1.10),
        ("sobel3 max saving > 0.20", n["sobel3.max_saving"] > 0.20),
        # On V100 the default is not the best-performing configuration.
        ("some pareto speedup max > 1.0",
         any(n[f"{b}.pareto_speedup_max"] > 1.0 for b in FIG7_BENCHMARKS)),
    ])]


def run_fig8() -> Numbers:
    return _characterization(AMD_MI100, FIG7_BENCHMARKS)


def checks_fig8(n: Numbers) -> list[CheckResult]:
    conditions = []
    for b in FIG7_BENCHMARKS:
        # Default == max clock: nothing is faster than the baseline, the
        # default itself is Pareto-optimal, and lower levels still save.
        conditions += [
            (f"{b} pareto speedup max <= 1",
             n[f"{b}.pareto_speedup_max"] <= 1.0 + 1e-9),
            (f"{b} default on the front", n[f"{b}.default_on_front"]),
            (f"{b} max saving > 0.10", n[f"{b}.max_saving"] > 0.10),
            # Only 16 discrete configurations exist on the MI100 (Fig. 1).
            (f"{b} has 16 configs", n[f"{b}.configs"] == 16),
        ]
    return [_verdict("fig8.mi100_characterization", conditions)]


# ------------------------------------------- Figs. 4, 5: Black-Scholes

def _black_scholes_sweep():
    return sweep_kernel(NVIDIA_V100, get_benchmark("black_scholes").kernel)


def run_fig4() -> Numbers:
    sweep = _black_scholes_sweep()
    numbers: Numbers = {
        f"{t.name}_mhz": float(sweep.freqs_mhz[sweep.resolve(t)])
        for t in (MIN_ENERGY, MIN_EDP, MIN_ED2P, MAX_PERF)
    }
    numbers["min_edp"] = float(sweep.edp[sweep.resolve(MIN_EDP)])
    numbers["edp_at_lowest_clock"] = float(sweep.edp[0])
    numbers["edp_at_top_clock"] = float(sweep.edp[-1])
    return numbers


def checks_fig4(n: Numbers) -> list[CheckResult]:
    return [_verdict("fig4.blackscholes_edp_ed2p", [
        # ED2P leans toward performance: at or above the default clock.
        ("MIN_ED2P >= default clock",
         n["MIN_ED2P_mhz"] >= NVIDIA_V100.default_core_mhz),
        ("MIN_ENERGY <= MIN_EDP <= MIN_ED2P",
         n["MIN_ENERGY_mhz"] <= n["MIN_EDP_mhz"] <= n["MIN_ED2P_mhz"]),
        # The EDP minimum improves on both table endpoints.
        ("min EDP < EDP at the lowest clock",
         n["min_edp"] < n["edp_at_lowest_clock"]),
        ("min EDP < EDP at the top clock (1e-9 slack)",
         n["min_edp"] < n["edp_at_top_clock"] * (1 + 1e-9)),
    ])]


FIG5_TARGETS = (ES_25, ES_50, ES_75, ES_100, PL_25, PL_50, PL_75)


def run_fig5() -> Numbers:
    sweep = _black_scholes_sweep()
    numbers: Numbers = {}
    for target in FIG5_TARGETS:
        idx = sweep.resolve(target)
        numbers[f"{target.name}.core_mhz"] = float(sweep.freqs_mhz[idx])
        numbers[f"{target.name}.energy_saving"] = 1.0 - float(
            sweep.normalized_energy[idx]
        )
        numbers[f"{target.name}.speedup"] = float(sweep.speedup[idx])
    numbers["global_max_saving"] = 1.0 - float(np.min(sweep.normalized_energy))
    return numbers


def checks_fig5(n: Numbers) -> list[CheckResult]:
    def s(t: str) -> float:
        return n[f"{t}.energy_saving"]

    def p(t: str) -> float:
        return n[f"{t}.speedup"]

    return [_verdict("fig5.es_pl_levels", [
        ("ES saving grows with x",
         s("ES_25") <= s("ES_50") <= s("ES_75") <= s("ES_100") + 1e-12),
        ("ES_100 is the global minimum energy",
         s("ES_100") == n["global_max_saving"]),
        ("PL speedup falls with x", p("PL_25") >= p("PL_50") >= p("PL_75")),
        ("PL saving grows with x", s("PL_25") <= s("PL_50") <= s("PL_75") + 1e-12),
        *((f"{t.name} saves energy", s(t.name) >= 0.0) for t in FIG5_TARGETS),
    ])]


# ------------------------------------------ Fig. 9, Table 2: §8.3 accuracy

def _cells() -> Iterable[tuple[str, str]]:
    for target in TABLE2_OBJECTIVES:
        for algorithm in OBJECTIVE_ALGORITHMS[target.name]:
            yield target.name, algorithm


def run_fig9() -> Numbers:
    analysis = v100_accuracy()
    numbers: Numbers = {}
    records = []
    for objective, algorithm in _cells():
        apes = [r.ape for r in analysis.for_cell(objective, algorithm)]
        records.append(len(apes))
        numbers[f"{objective}.{algorithm}.mean_ape"] = float(np.mean(apes))
        numbers[f"{objective}.{algorithm}.max_ape"] = max(apes)
    numbers["records_per_cell_min"] = min(records)
    numbers["records_per_cell_max"] = max(records)
    return numbers


def checks_fig9(n: Numbers) -> list[CheckResult]:
    return [_verdict("fig9.prediction_ape", [
        # Every tested cell produced one record per benchmark.
        ("every cell has 23 records",
         n["records_per_cell_min"] == n["records_per_cell_max"] == 23),
        # MAX_PERF with linear regression is essentially exact.
        ("MAX_PERF Linear mean APE < 0.02", n["MAX_PERF.Linear.mean_ape"] < 0.02),
        *((f"{o} {a} mean APE < 0.25", n[f"{o}.{a}.mean_ape"] < 0.25)
          for o, a in _cells()),
    ])]


def run_table2() -> Numbers:
    numbers: Numbers = {}
    for row in v100_accuracy().table2():
        objective = row["objective"]
        for algorithm in ALGORITHM_NAMES:
            mape = row[f"{algorithm}_mape"]
            # A dash (untested pairing) is JSON null, not NaN.
            numbers[f"{objective}.{algorithm}_mape"] = (
                None if np.isnan(mape) else mape
            )
        numbers[f"{objective}.best"] = row["best"]
    return numbers


def checks_table2(n: Numbers) -> list[CheckResult]:
    def mapes(objective: str) -> list[float]:
        return [
            m for a in ALGORITHM_NAMES
            if (m := n[f"{objective}.{a}_mape"]) is not None
        ]

    conditions = [
        # The dashes: untested (objective, family) pairs stay untested.
        (f"{cell} is a dash", n[f"{cell}_mape"] is None)
        for cell in ("MAX_PERF.SVR", "MIN_ENERGY.Linear", "ES_50.Lasso", "PL_25.SVR")
    ]
    conditions += [
        # MAX_PERF with linear regression is near-exact (paper 0.001).
        ("MAX_PERF Linear MAPE < 0.02", n["MAX_PERF.Linear_mape"] < 0.02),
        # Error magnitudes stay in the paper's range (0.1% - 13%).
        *((f"{t.name} MAPEs < 0.25", all(m < 0.25 for m in mapes(t.name)))
          for t in TABLE2_OBJECTIVES),
        # Winner structure, robust half (see EXPERIMENTS.md): linear models
        # exact on MAX_PERF, within 2x of the winner on every PL_x row, and
        # interior-optimum rows won by a nonlinear family.
        ("MAX_PERF won by a linear family",
         n["MAX_PERF.best"] in ("Linear", "Lasso")),
        *((f"{o} Linear within 2x of the best",
           n[f"{o}.Linear_mape"]
           <= max(2.0 * min(mapes(o)), min(mapes(o)) + 0.02))
          for o in ("PL_25", "PL_50", "PL_75")),
        *((f"{o} won by a nonlinear family",
           n[f"{o}.best"] in ("RandomForest", "SVR"))
          for o in ("MIN_ENERGY", "MIN_EDP", "ES_25", "ES_50", "ES_75")),
    ]
    return [_verdict("table2.error_analysis", conditions)]


# ------------------------------------------- Fig. 10: multi-node scaling

FIG10_GPU_COUNTS = (4, 8, 16, 32, 64)
FIG10_APPS = {"cloverleaf": CloverLeaf, "miniweather": MiniWeather}
FIG10_STEPS = 4


def run_fig10() -> Numbers:
    numbers: Numbers = {}
    for key, app in FIG10_APPS.items():
        result = run_scaling_experiment(
            lambda app=app: app(steps=FIG10_STEPS),
            gpu_counts=FIG10_GPU_COUNTS,
            targets=FIG10_TARGETS,
            bundle=v100_best_bundle(),
        )
        for gpus in FIG10_GPU_COUNTS:
            base = result.baseline(gpus)
            numbers[f"{key}.{gpus}.energy_j"] = base.gpu_energy_j
            numbers[f"{key}.{gpus}.elapsed_s"] = base.elapsed_s
            edp = result.point(gpus, "MIN_EDP")
            numbers[f"{key}.{gpus}.comm_s"] = edp.comm_time_s
            for t in FIG10_TARGETS:
                point = result.point(gpus, t.name)
                numbers[f"{key}.{gpus}.{t.name}_saving"] = point.energy_saving_vs(base)
    return numbers


def _best_saving(n: Numbers, app: str, gpus: int) -> float:
    return max(n[f"{app}.{gpus}.{t.name}_saving"] for t in FIG10_TARGETS)


def _check_scaling(n: Numbers, app: str) -> CheckResult:
    conditions = []
    for gpus in FIG10_GPU_COUNTS:
        conditions += [
            (f"{gpus} GPUs: positive baseline energy and time",
             n[f"{app}.{gpus}.energy_j"] > 0 and n[f"{app}.{gpus}.elapsed_s"] > 0),
            # Communication is part of the reported time.
            (f"{gpus} GPUs: MIN_EDP comm time > 0", n[f"{app}.{gpus}.comm_s"] > 0),
        ]
    # Weak scaling: ~16x work, comm overheads allowed.
    ratio = n[f"{app}.64.energy_j"] / n[f"{app}.4.energy_j"]
    conditions.append(("8 < E(64)/E(4) < 24", 8.0 < ratio < 24.0))
    # The best target saves a roughly constant fraction at every scale.
    savings = [_best_saving(n, app, gpus) for gpus in FIG10_GPU_COUNTS]
    conditions += [
        (f"{gpus} GPUs: best saving > 0.08", s > 0.08)
        for gpus, s in zip(FIG10_GPU_COUNTS, savings)
    ]
    conditions.append(
        ("best saving spread < 0.10", max(savings) - min(savings) < 0.10)
    )
    return _verdict(f"fig10.{app}_scaling", conditions)


def checks_fig10(n: Numbers) -> list[CheckResult]:
    return [
        _check_scaling(n, "cloverleaf"),
        _check_scaling(n, "miniweather"),
        # §8.4: ~20% saving on CloverLeaf, up to ~30% on MiniWeather.
        _verdict("fig10.miniweather_saves_more", [(
            "best 64-GPU saving: miniweather > cloverleaf",
            _best_saving(n, "miniweather", 64) > _best_saving(n, "cloverleaf", 64),
        )]),
    ]


# ------------------------------------------- ablation: fault resilience

FAULT_RATES = (0.0, 0.05, 0.1, 0.25)
NODE_FAIL_AT_S = 0.05


def run_fault_resilience() -> Numbers:
    """CloverLeaf at MIN_EDP on 2 nodes (plus a spare for the requeue), one
    fresh cluster per transient NVML clock-set failure rate, each armed with
    the seeded fault plan and a scheduled node failure. A point that does
    not complete is itself a result: the edge of the resilience envelope.
    """
    template = CloverLeaf(steps=4)
    plan = SynergyCompiler(v100_best_bundle(), NVIDIA_V100).compile(
        list(template.timestep_kernels()), (MIN_EDP,)
    ).plan
    node_fail = (FaultSpec(site="slurm.node_fail", at_s=NODE_FAIL_AT_S),)
    numbers: Numbers = {}
    energy = {}
    for rate in FAULT_RATES:
        cluster = Cluster.build(
            NVIDIA_V100, n_nodes=3, gpus_per_node=GPUS_PER_NODE,
            gres={NVGPUFREQ_GRES},
            fault_plan=transient_nvml_plan(rate, seed=2023, extra=node_fail),
        )
        scheduler = Scheduler(cluster, plugins=[NvGpuFreqPlugin()])
        app = CloverLeaf(steps=4)
        job = scheduler.submit(JobSpec(
            name=f"{template.name}-chaos-{rate:g}",
            n_nodes=2,
            exclusive=True,
            gres=frozenset({NVGPUFREQ_GRES}),
            payload=lambda context, app=app: app.run(
                launch_ranks(context), target=MIN_EDP, plan=plan
            ),
        ))
        requeues = 0
        probe = job
        while probe.requeue_of is not None:
            requeues += 1
            probe = scheduler.jobs[probe.requeue_of]
        report = job.result if isinstance(job.result, AppReport) else None
        log = cluster.fault_injector.log
        counts = log.counts()
        key = f"rate_{rate:g}"
        energy[rate] = report.gpu_energy_j if report else 0.0
        numbers[f"{key}.state"] = job.state.value
        numbers[f"{key}.requeues"] = requeues
        numbers[f"{key}.node_fails"] = counts.get("slurm.node_fail", 0)
        numbers[f"{key}.clock_retries"] = report.clock_retries if report else 0
        numbers[f"{key}.faults_injected"] = len(log.faults)
        numbers[f"{key}.faults_counted"] = sum(counts.values())
        numbers[f"{key}.energy_j"] = energy[rate]
    overhead = energy[FAULT_RATES[-1]] / energy[FAULT_RATES[0]] - 1.0
    return {"energy_overhead": overhead, **numbers}


def checks_fault_resilience(n: Numbers) -> list[CheckResult]:
    keys = [f"rate_{rate:g}" for rate in FAULT_RATES]
    retries = [n[f"{k}.clock_retries"] for k in keys]
    return [_verdict("fault_resilience.resilience_vs_rate", [
        # Retries + requeue absorb every fault: all points complete.
        *((f"{k} completed", n[f"{k}.state"] == "COMPLETED") for k in keys),
        # The scheduled node failure fires once and costs one requeue.
        *((f"{k} one requeue", n[f"{k}.requeues"] == 1) for k in keys),
        *((f"{k} one node failure", n[f"{k}.node_fails"] == 1) for k in keys),
        # Clock-set retries grow with the fault rate.
        ("no retries without faults", retries[0] == 0),
        ("retries grow with the rate",
         all(b >= a for a, b in zip(retries, retries[1:]))),
        # Chaos costs energy, but boundedly.
        ("energy overhead at 25% < 0.25", n["energy_overhead"] < 0.25),
        # Every injected fault is accounted for in the log.
        *((f"{k} faults injected == faults counted",
           n[f"{k}.faults_injected"] == n[f"{k}.faults_counted"]) for k in keys),
    ])]


# ----------------------------------------- ablation: fine vs coarse (§2.2)

FINE_VS_COARSE_WORKLOADS = {
    "homogeneous": ("sobel3", "sobel3", "sobel3"),
    "two_regimes": ("sobel3", "median"),
    "three_regimes": ("sobel3", "median", "lin_reg_coeff"),
    "mixed_suite": ("gemm", "sobel3", "median", "black_scholes", "nbody"),
}


def run_fine_vs_coarse() -> Numbers:
    workloads = {
        label: [
            get_benchmark(name).kernel.with_name(f"{name}#{i}")
            for i, name in enumerate(names)
        ]
        for label, names in FINE_VS_COARSE_WORKLOADS.items()
    }
    # CloverLeaf's real timestep as the application-shaped case.
    workloads["cloverleaf"] = list(CloverLeaf(steps=1).timestep_kernels())
    return {
        f"{label}.{target.name}": fine_vs_coarse(
            NVIDIA_V100, kernels, target
        ).fine_advantage
        for label, kernels in workloads.items()
        for target in (MIN_ENERGY, MIN_EDP)
    }


def checks_fine_vs_coarse(n: Numbers) -> list[CheckResult]:
    return [_verdict("fine_vs_coarse.fine_advantage", [
        # Fine-grained can never lose for MIN_ENERGY.
        *((f"{k} fine never loses", v >= -1e-9)
          for k, v in n.items() if k.endswith(".MIN_ENERGY")),
        # A homogeneous workload gains nothing: same kernel, same optimum.
        ("homogeneous gains nothing", n["homogeneous.MIN_ENERGY"] < 1e-6),
        # Regime diversity creates the fine-grained advantage.
        ("three regimes beat homogeneous",
         n["three_regimes.MIN_ENERGY"] > n["homogeneous.MIN_ENERGY"]),
        ("three regimes advantage > 0.005", n["three_regimes.MIN_ENERGY"] > 0.005),
    ])]


# ------------------------------------ ablation: clock-switch overhead (§4.4)

SWITCH_KERNEL_COUNTS = (1, 4, 16, 64, 256)


def run_freq_overhead() -> Numbers:
    """A fixed 2^28-item workload split into n kernels, alternating clocks."""
    clocks = (NVIDIA_V100.core_freqs_mhz[120], NVIDIA_V100.core_freqs_mhz[170])
    numbers: Numbers = {}
    for count in SWITCH_KERNEL_COUNTS:
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        queue = SynergyQueue(gpu, switch_overhead_s=1.0e-3)
        kernel = KernelIR(
            "ablate",
            InstructionMix(float_add=480, float_mul=480, gl_access=8),
            work_items=(1 << 28) // count,
        )
        t0 = gpu.clock.now
        for i in range(count):
            queue.submit(
                877, clocks[i % 2],
                lambda h: h.parallel_for(kernel.work_items, kernel),
            )
        queue.wait()
        elapsed = gpu.clock.now - t0
        numbers[f"{count}_kernels.elapsed_s"] = elapsed
        numbers[f"{count}_kernels.overhead_fraction"] = (
            queue.scaler.total_overhead_s / elapsed
        )
        numbers[f"{count}_kernels.energy_j"] = gpu.energy_between(t0, gpu.clock.now)
    return numbers


def checks_freq_overhead(n: Numbers) -> list[CheckResult]:
    fractions = [
        n[f"{count}_kernels.overhead_fraction"] for count in SWITCH_KERNEL_COUNTS
    ]
    return [_verdict("freq_overhead.switch_overhead", [
        ("overhead fraction grows with the kernel count",
         all(b >= a for a, b in zip(fractions, fractions[1:]))),
        ("negligible for one kernel (< 0.03)", fractions[0] < 0.03),
        ("dominant for 256 kernels (> 0.30)", fractions[-1] > 0.30),
    ])]


# ------------------------------------------- ablation: online vs static

ONLINE_BENCHMARKS = ("gemm", "sobel3", "median", "black_scholes", "kmeans")


def run_online_vs_static() -> Numbers:
    """Static model clocks vs measured online search (MIN_ENERGY), then
    static vs adaptive execution under the seed-7 thermal throttle.

    Kernels are scaled to 2^26 items with a 32x mix so each launch spans
    several sampling periods — a fair setting for the online tuner.
    """
    predictor = FrequencyPredictor(v100_best_bundle(), NVIDIA_V100)
    numbers: Numbers = {}
    for name in ONLINE_BENCHMARKS:
        base = get_benchmark(name).kernel
        kernel = dataclasses.replace(
            base.with_work_items(1 << 26), mix=base.mix.scaled(32.0)
        )
        sweep = sweep_kernel(NVIDIA_V100, kernel)
        oracle = float(sweep.energy_j.min())
        static_idx = predictor.predict_index(kernel, MIN_ENERGY)
        tuner = OnlineFrequencyTuner(NVIDIA_V100.core_freqs_mhz, MIN_ENERGY)
        # A pinned board index: it seeds the sensor noise the tuner reads.
        queue = SynergyQueue(SimulatedGPU(NVIDIA_V100, index=0))
        stats = tune_kernel_online(queue, kernel, tuner, max_launches=48)
        online_idx = int(
            np.argmin(np.abs(sweep.freqs_mhz - stats["chosen_core_mhz"]))
        )
        numbers[f"{name}.oracle_j"] = oracle
        numbers[f"{name}.static_excess"] = sweep.energy_j[static_idx] / oracle - 1
        numbers[f"{name}.online_excess"] = sweep.energy_j[online_idx] / oracle - 1
        numbers[f"{name}.online_launches"] = stats["launches"]
        numbers[f"{name}.exploration_j"] = stats["exploration_energy_j"]
    with scoped_cache():
        drift = run_thermal_drift_comparison(seed=7)
    numbers["throttle.static_missed"] = drift.static_fault.streams_missed
    numbers["throttle.adaptive_missed"] = drift.adaptive_fault.streams_missed
    numbers["throttle.max_perf_energy_j"] = drift.max_perf.energy_j
    numbers["throttle.adaptive_energy_j"] = drift.adaptive_fault.energy_j
    numbers["throttle.recovery_fraction"] = drift.recovery_fraction
    return numbers


def checks_online_vs_static(n: Numbers) -> list[CheckResult]:
    conditions = []
    for b in ONLINE_BENCHMARKS:
        conditions += [
            # Both approaches land near the oracle...
            (f"{b} static excess < 0.15", n[f"{b}.static_excess"] < 0.15),
            (f"{b} online excess < 0.15", n[f"{b}.online_excess"] < 0.15),
            # ...but online pays a real exploration bill; static pays none.
            (f"{b} online launches >= 8", n[f"{b}.online_launches"] >= 8),
            (f"{b} exploration > 5x oracle",
             n[f"{b}.exploration_j"] > 5 * n[f"{b}.oracle_j"]),
        ]
    return [
        _verdict("online_vs_static.exploration_bill", conditions),
        _verdict("online_vs_static.adaptive_under_throttle", [
            # The throttled static plan goes stale and misses; adaptive not.
            ("static plan misses a deadline", n["throttle.static_missed"] >= 1),
            ("adaptive misses none", n["throttle.adaptive_missed"] == 0),
            # Adaptive still banks at least half the pre-drift saving.
            ("adaptive saves vs max-perf",
             n["throttle.adaptive_energy_j"] < n["throttle.max_perf_energy_j"]),
            ("recovery fraction >= 0.5", n["throttle.recovery_fraction"] >= 0.5),
        ]),
    ]


# -------------------------------------- ablation: power cap vs SYnergy

#: Per-node GPU budget of the coarse run (100 W per board): tight enough
#: that the hardware throttle engages on the hot kernels.
NODE_BUDGET_W = 400.0


def run_powercap_vs_synergy() -> Numbers:
    """One 4-GPU CloverLeaf node: default clocks, a node power cap, and
    SYnergy per-kernel MIN_ENERGY clocks."""
    plan = SynergyCompiler(v100_best_bundle(), NVIDIA_V100).compile(
        list(CloverLeaf(steps=1).timestep_kernels()), [MIN_ENERGY]
    ).plan
    runs = {}
    for mode in ("baseline", "powercap", "synergy"):
        cluster = Cluster.build(
            NVIDIA_V100, n_nodes=1, gpus_per_node=GPUS_PER_NODE,
            gres={NVGPUFREQ_GRES},
        )
        plugins = [NvGpuFreqPlugin()]
        if mode == "powercap":
            plugins.append(PowerCapPlugin(node_budget_w=NODE_BUDGET_W))
        target = MIN_ENERGY if mode == "synergy" else None
        job = Scheduler(cluster, plugins=plugins).submit(JobSpec(
            name=f"clover-{mode}",
            n_nodes=1,
            exclusive=True,
            gres=frozenset({NVGPUFREQ_GRES}),
            payload=lambda context, target=target: CloverLeaf(steps=3).run(
                launch_ranks(context), target=target, plan=plan
            ),
        ))
        if job.error is not None:
            raise SimulationError(f"{job.spec.name} failed: {job.error}")
        runs[mode] = job.result
    base = runs["baseline"]
    numbers: Numbers = {}
    for mode, report in runs.items():
        numbers[f"{mode}.time_s"] = report.elapsed_s
        numbers[f"{mode}.energy_j"] = report.gpu_energy_j
        numbers[f"{mode}.saving"] = 1.0 - report.gpu_energy_j / base.gpu_energy_j
        numbers[f"{mode}.slowdown"] = report.elapsed_s / base.elapsed_s - 1.0
    return numbers


def checks_powercap_vs_synergy(n: Numbers) -> list[CheckResult]:
    return [_verdict("powercap_vs_synergy.savings", [
        ("power cap saves > 0.02", n["powercap.saving"] > 0.02),
        ("SYnergy saves > 0.05", n["synergy.saving"] > 0.05),
        # Fine-grained tuning reaches at least the coarse cap's saving.
        ("SYnergy >= power cap - 0.02",
         n["synergy.saving"] >= n["powercap.saving"] - 0.02),
    ])]


# ----------------------------------- ablation: profiling accuracy (§4.4)

#: Work-item counts spanning ~0.1 ms to ~1 s kernels on the V100 model.
PROFILING_SIZES = (1 << 16, 1 << 19, 1 << 22, 1 << 25, 1 << 28)


def run_profiling_accuracy() -> Numbers:
    """Sensor energy error vs the analytic truth at 15 ms sampling, over 8
    launches per size landing at different sampling phases."""
    mix = InstructionMix(float_add=2048, float_mul=2048, gl_access=8)
    numbers: Numbers = {}
    for size in PROFILING_SIZES:
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        queue = SynergyQueue(gpu)
        kernel = KernelIR(f"probe_{size}", mix, work_items=size)
        errors = []
        for _ in range(8):
            gpu.clock.advance(0.0073)  # desynchronize from the sample grid
            event = queue.submit(lambda h: h.parallel_for(size, kernel))
            event.wait()
            true = queue.kernel_energy_consumption(event, true_value=True)
            sensed = queue.kernel_energy_consumption(event)
            errors.append(abs(sensed - true) / true)
        numbers[f"{size}.duration_ms"] = event.duration_s * 1e3
        numbers[f"{size}.sampling_periods"] = event.duration_s / 15e-3
        numbers[f"{size}.mean_rel_error"] = float(np.mean(errors))
        numbers[f"{size}.max_rel_error"] = max(errors)
    return numbers


def checks_profiling_accuracy(n: Numbers) -> list[CheckResult]:
    short, long = PROFILING_SIZES[0], PROFILING_SIZES[-1]
    return [_verdict("profiling_accuracy.error_vs_duration", [
        # Sub-sampling-period kernels mis-measure badly...
        ("shortest kernel < 0.1 periods", n[f"{short}.sampling_periods"] < 0.1),
        ("shortest kernel max error > 0.10", n[f"{short}.max_rel_error"] > 0.10),
        # ...while long kernels converge to a few percent.
        ("longest kernel > 10 periods", n[f"{long}.sampling_periods"] > 10),
        ("longest kernel mean error < 0.05", n[f"{long}.mean_rel_error"] < 0.05),
        ("error falls with duration",
         n[f"{long}.mean_rel_error"] < n[f"{short}.mean_rel_error"]),
    ])]


#: The artifact registry: name → declaration, in the paper's order. The
#: ``paper`` validation section and ``tests/test_paper.py`` read this
#: table and nothing else.
ARTIFACTS: dict[str, Artifact] = {
    "fig1": Artifact(run_fig1, checks_fig1),
    "fig2": Artifact(run_fig2, checks_fig2),
    "fig4": Artifact(run_fig4, checks_fig4),
    "fig5": Artifact(run_fig5, checks_fig5),
    "fig7": Artifact(run_fig7, checks_fig7),
    "fig8": Artifact(run_fig8, checks_fig8),
    "fig9": Artifact(run_fig9, checks_fig9),
    "table2": Artifact(run_table2, checks_table2),
    "fig10": Artifact(run_fig10, checks_fig10),
    "freq_overhead": Artifact(run_freq_overhead, checks_freq_overhead),
    "fine_vs_coarse": Artifact(run_fine_vs_coarse, checks_fine_vs_coarse),
    "profiling_accuracy": Artifact(
        run_profiling_accuracy, checks_profiling_accuracy
    ),
    "powercap_vs_synergy": Artifact(
        run_powercap_vs_synergy, checks_powercap_vs_synergy
    ),
    "online_vs_static": Artifact(run_online_vs_static, checks_online_vs_static),
    "fault_resilience": Artifact(run_fault_resilience, checks_fault_resilience),
}
