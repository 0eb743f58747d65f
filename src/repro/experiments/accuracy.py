"""Prediction-accuracy analysis (paper §8.3: Fig. 9 and Table 2).

Protocol, exactly as the paper describes it:

- models are trained only on micro-benchmarks; the 23 SYCL benchmarks are
  unseen workloads,
- for each benchmark × objective × algorithm, the predictor picks a
  frequency from the model curves; the *actual* optimal frequency comes
  from the measured sweep,
- the error is **not** raw regression error: it compares the measured
  objective value at the predicted frequency against the measured
  objective value at the actual optimal frequency (APE per benchmark;
  RMSE/MAPE across benchmarks in Table 2),
- Table 2's dashes are respected: each objective is only evaluated with
  the algorithm families the paper tested it with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.apps.syclbench import SyclBenchmark, iter_benchmarks
from repro.common.errors import ValidationError
from repro.core.models import EnergyModelBundle
from repro.core.predictor import FrequencyPredictor
from repro.experiments.sweep import FrequencySweep, sweep_kernel
from repro.experiments.training import ALGORITHM_NAMES
from repro.hw.specs import GPUSpec
from repro.metrics.errors import rmse
from repro.metrics.targets import TABLE2_OBJECTIVES

#: Which algorithm families each objective is evaluated with (Table 2's
#: non-dash cells).
OBJECTIVE_ALGORITHMS: Mapping[str, tuple[str, ...]] = {
    "MAX_PERF": ("Linear", "Lasso", "RandomForest"),
    "MIN_ENERGY": ("RandomForest", "SVR"),
    "MIN_EDP": ("RandomForest", "SVR"),
    "MIN_ED2P": ("Linear", "RandomForest", "SVR"),
    "ES_25": ("RandomForest", "SVR"),
    "ES_50": ("RandomForest", "SVR"),
    "ES_75": ("RandomForest", "SVR"),
    "PL_25": ("Linear", "Lasso", "RandomForest"),
    "PL_50": ("Linear", "Lasso", "RandomForest"),
    "PL_75": ("Linear", "Lasso", "RandomForest"),
}


@dataclass(frozen=True)
class PredictionRecord:
    """One (benchmark, objective, algorithm) prediction outcome."""

    benchmark: str
    objective: str
    algorithm: str
    predicted_freq_mhz: float
    actual_freq_mhz: float
    predicted_value: float
    actual_value: float

    @property
    def ape(self) -> float:
        """Absolute percentage error on the objective value (Fig. 9 y-axis)."""
        return abs(self.actual_value - self.predicted_value) / abs(self.actual_value)


@dataclass
class AccuracyAnalysis:
    """All prediction records plus Table-2-style aggregates."""

    device_name: str
    records: list[PredictionRecord] = field(default_factory=list)

    def for_cell(self, objective: str, algorithm: str) -> list[PredictionRecord]:
        """Records of one Table 2 cell (across benchmarks)."""
        return [
            r
            for r in self.records
            if r.objective == objective and r.algorithm == algorithm
        ]

    def cell_errors(self, objective: str, algorithm: str) -> tuple[float, float]:
        """``(RMSE, MAPE)`` of one Table 2 cell; NaNs when untested."""
        cell = self.for_cell(objective, algorithm)
        if not cell:
            return (float("nan"), float("nan"))
        actual = np.array([r.actual_value for r in cell])
        predicted = np.array([r.predicted_value for r in cell])
        mape = float(np.mean(np.abs(actual - predicted) / np.abs(actual)))
        return (rmse(actual, predicted), mape)

    def best_algorithm(self, objective: str) -> str:
        """The family with the lowest MAPE for an objective (Table 2 'Best')."""
        candidates = OBJECTIVE_ALGORITHMS[objective]
        return min(candidates, key=lambda a: self.cell_errors(objective, a)[1])

    def table2(self) -> list[dict[str, object]]:
        """Table 2 rows: per objective, per family RMSE/MAPE plus winner."""
        rows = []
        for target in TABLE2_OBJECTIVES:
            row: dict[str, object] = {"objective": target.name}
            for algorithm in ALGORITHM_NAMES:
                r, m = self.cell_errors(target.name, algorithm)
                row[f"{algorithm}_rmse"] = r
                row[f"{algorithm}_mape"] = m
            row["best"] = self.best_algorithm(target.name)
            rows.append(row)
        return rows


def run_accuracy_analysis(
    spec: GPUSpec,
    bundles: Mapping[str, EnergyModelBundle],
    benchmarks: Sequence[SyclBenchmark] | None = None,
) -> AccuracyAnalysis:
    """Run the full §8.3 protocol on one device, one bundle per family."""
    suite = list(benchmarks) if benchmarks is not None else list(iter_benchmarks())
    if not bundles:
        raise ValidationError("accuracy analysis needs at least one bundle")
    if not suite:
        raise ValidationError("accuracy analysis needs at least one benchmark")
    predictors = {
        name: FrequencyPredictor(bundle, spec) for name, bundle in bundles.items()
    }
    analysis = AccuracyAnalysis(device_name=spec.name)
    sweeps: dict[str, FrequencySweep] = {
        b.name: sweep_kernel(spec, b.kernel) for b in suite
    }
    for bench in suite:
        sweep = sweeps[bench.name]
        for target in TABLE2_OBJECTIVES:
            actual_idx = sweep.resolve(target)
            for algorithm in OBJECTIVE_ALGORITHMS[target.name]:
                if algorithm not in predictors:
                    continue
                predicted_idx = predictors[algorithm].predict_index(
                    bench.kernel, target
                )
                analysis.records.append(
                    PredictionRecord(
                        benchmark=bench.name,
                        objective=target.name,
                        algorithm=algorithm,
                        predicted_freq_mhz=float(sweep.freqs_mhz[predicted_idx]),
                        actual_freq_mhz=float(sweep.freqs_mhz[actual_idx]),
                        predicted_value=sweep.objective_value(target, predicted_idx),
                        actual_value=sweep.objective_value(target, actual_idx),
                    )
                )
    return analysis
