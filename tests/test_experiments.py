"""Experiment harnesses: sweeps, fine-vs-coarse, training, accuracy, reports."""

import math

import numpy as np
import pytest

from repro.apps import CloverLeaf, get_benchmark
from repro.common.errors import ConfigurationError, ValidationError
from repro.experiments.accuracy import (
    OBJECTIVE_ALGORITHMS,
    run_accuracy_analysis,
)
from repro.experiments import accuracy, characterization, scaling
from repro.experiments.characterization import fine_vs_coarse
from repro.experiments.report import format_table
from repro.experiments.scaling import run_scaling_experiment
from repro.experiments.sweep import sweep_kernel
from repro.experiments.training import (
    ALGORITHM_NAMES,
    make_bundle,
    microbench_training_set,
    train_bundles,
)
from repro.hw.specs import NVIDIA_V100
from repro.metrics.targets import ES_50, MIN_EDP, MIN_ENERGY, TABLE2_OBJECTIVES


class TestSweep:
    def test_sweep_covers_full_table(self, compute_kernel):
        sweep = sweep_kernel(NVIDIA_V100, compute_kernel)
        assert len(sweep.freqs_mhz) == 196

    def test_speedup_is_one_at_default(self, compute_kernel):
        sweep = sweep_kernel(NVIDIA_V100, compute_kernel)
        assert sweep.speedup[sweep.default_index] == pytest.approx(1.0)
        assert sweep.normalized_energy[sweep.default_index] == pytest.approx(1.0)

    def test_pareto_mask_nonempty(self, compute_kernel):
        sweep = sweep_kernel(NVIDIA_V100, compute_kernel)
        assert sweep.pareto_mask.any()

    def test_resolve_and_objective_value(self, compute_kernel):
        sweep = sweep_kernel(NVIDIA_V100, compute_kernel)
        idx = sweep.resolve(MIN_ENERGY)
        assert sweep.objective_value(MIN_ENERGY, idx) == pytest.approx(
            float(sweep.energy_j.min())
        )

    def test_edp_curves(self, compute_kernel):
        sweep = sweep_kernel(NVIDIA_V100, compute_kernel)
        assert np.allclose(sweep.edp, sweep.energy_j * sweep.time_s)
        assert np.allclose(sweep.ed2p, sweep.energy_j * sweep.time_s**2)


class TestFineVsCoarse:
    def test_fine_never_worse_for_min_energy(self):
        kernels = CloverLeaf(steps=1, nx=512, ny=512).timestep_kernels()
        result = fine_vs_coarse(NVIDIA_V100, kernels, MIN_ENERGY)
        assert result.fine_energy_j <= result.coarse_energy_j + 1e-9
        assert result.fine_advantage >= -1e-12

    def test_heterogeneous_kernels_show_advantage(self):
        """§2.2: mixing regimes makes per-kernel tuning strictly better."""
        kernels = [
            get_benchmark("sobel3").kernel,
            get_benchmark("median").kernel,
            get_benchmark("lin_reg_coeff").kernel,
        ]
        result = fine_vs_coarse(NVIDIA_V100, kernels, MIN_ENERGY)
        assert result.fine_advantage > 0.005

    def test_single_kernel_no_advantage(self, compute_kernel):
        result = fine_vs_coarse(NVIDIA_V100, [compute_kernel], MIN_ENERGY)
        assert result.fine_advantage == pytest.approx(0.0, abs=1e-12)


class TestTraining:
    def test_training_set_size(self):
        ts = microbench_training_set(NVIDIA_V100, freq_stride=16, random_count=4)
        n_freqs = len(NVIDIA_V100.core_freqs_mhz[::16])
        # 26 archetypes + 9 roofline + 4 random mixes.
        assert ts.n_samples == (26 + 9 + 4) * n_freqs

    def test_make_bundle_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            make_bundle("XGBoost")

    def test_invalid_stride(self):
        with pytest.raises(ConfigurationError):
            microbench_training_set(NVIDIA_V100, freq_stride=0)

    def test_train_bundles_all_families(self):
        ts = microbench_training_set(NVIDIA_V100, freq_stride=24, random_count=2)
        bundles = train_bundles(ts, algorithms=("Linear", "Lasso"))
        assert set(bundles) == {"Linear", "Lasso"}
        for bundle in bundles.values():
            assert bundle.models_ is not None


class TestAccuracyAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self):
        ts = microbench_training_set(NVIDIA_V100, freq_stride=12, random_count=6)
        bundles = train_bundles(ts, algorithms=("Linear", "RandomForest"))
        benchmarks = [
            get_benchmark(n)
            for n in ("gemm", "sobel3", "median", "black_scholes", "lin_reg_coeff")
        ]
        return run_accuracy_analysis(
            NVIDIA_V100, bundles=bundles, benchmarks=benchmarks
        )

    def test_records_cover_tested_cells(self, analysis):
        for target in TABLE2_OBJECTIVES:
            for algorithm in OBJECTIVE_ALGORITHMS[target.name]:
                if algorithm not in ("Linear", "RandomForest"):
                    continue
                assert len(analysis.for_cell(target.name, algorithm)) == 5

    def test_untested_cells_are_nan(self, analysis):
        r, m = analysis.cell_errors("MIN_ENERGY", "Lasso")
        assert math.isnan(r) and math.isnan(m)

    def test_ape_nonnegative(self, analysis):
        assert all(r.ape >= 0 for r in analysis.records)

    def test_linear_wins_max_perf(self, analysis):
        """Table 2: linear regression is the best family for MAX_PERF."""
        _, mape_lin = analysis.cell_errors("MAX_PERF", "Linear")
        assert mape_lin < 0.05

    def test_table2_rows_complete(self, analysis):
        rows = analysis.table2()
        assert len(rows) == 10
        assert all("best" in row for row in rows)

    def test_dashes_respected(self):
        """SVR never evaluates MAX_PERF, mirroring the paper's dashes."""
        assert "SVR" not in OBJECTIVE_ALGORITHMS["MAX_PERF"]
        assert "Lasso" not in OBJECTIVE_ALGORITHMS["MIN_ENERGY"]
        assert set(ALGORITHM_NAMES) == {"Linear", "Lasso", "RandomForest", "SVR"}


class TestReport:
    def test_format_table_basic(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3.25]])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "2.5" in text and "3.25" in text

    def test_format_table_title(self):
        text = format_table(["h"], [[1]], title="Table 2")
        assert text.startswith("Table 2")

    def test_format_table_validation(self):
        with pytest.raises(ValidationError):
            format_table([], [])
        with pytest.raises(ValidationError):
            format_table(["a"], [[1, 2]])


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before the inputs were checked")


EMPTY_INPUTS = {
    "fine-vs-coarse-no-kernels": lambda: fine_vs_coarse(NVIDIA_V100, [], MIN_ENERGY),
    "accuracy-no-bundles": lambda: run_accuracy_analysis(NVIDIA_V100, bundles={}),
    "accuracy-no-benchmarks": lambda: run_accuracy_analysis(
        NVIDIA_V100, bundles={"Linear": None}, benchmarks=[]
    ),
    "scaling-no-gpu-counts": lambda: run_scaling_experiment(
        CloverLeaf, bundle=None, gpu_counts=()
    ),
}


@pytest.mark.parametrize("call", EMPTY_INPUTS.values(), ids=EMPTY_INPUTS.keys())
def test_empty_inputs_rejected_before_any_work(call, monkeypatch):
    """An empty input raises ValidationError before any sweep, fit or job."""
    monkeypatch.setattr(characterization, "sweep_kernel", _no_work)
    monkeypatch.setattr(accuracy, "sweep_kernel", _no_work)
    monkeypatch.setattr(accuracy, "FrequencyPredictor", _no_work)
    monkeypatch.setattr(scaling, "SynergyCompiler", _no_work)
    with pytest.raises(ValidationError):
        call()
