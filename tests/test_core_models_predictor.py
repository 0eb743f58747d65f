"""Energy models, training sets, the frequency predictor and the compiler."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, ValidationError
from repro.core.compiler import SynergyCompiler
from repro.core.models import (
    DESIGN_COLUMNS,
    EnergyModelBundle,
    build_training_set,
    expand_design,
    measure_sweep,
)
from repro.core.predictor import FrequencyPredictor
from repro.experiments.sweep import sweep_kernel
from repro.hw.specs import NVIDIA_V100
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.kernelir.microbench import generate_microbenchmarks
from repro.metrics.targets import ES_50, MAX_PERF, MIN_ED2P, MIN_EDP, MIN_ENERGY, PL_25


@pytest.fixture
def kernels():
    return generate_microbenchmarks(random_count=4)


class TestMeasureSweep:
    def test_full_table_by_default(self, compute_kernel):
        freqs, times, energies = measure_sweep(NVIDIA_V100, compute_kernel)
        assert len(freqs) == 196
        assert np.all(times > 0) and np.all(energies > 0)

    def test_compute_kernel_time_decreases_with_frequency(self, compute_kernel):
        freqs, times, _ = measure_sweep(NVIDIA_V100, compute_kernel)
        assert times[0] > times[-1]

    def test_energy_has_interior_minimum(self, compute_kernel):
        freqs, _, energies = measure_sweep(NVIDIA_V100, compute_kernel)
        best = int(np.argmin(energies))
        assert 0 < best < len(freqs) - 1


class TestTrainingSet:
    def test_matrix_shape(self, kernels):
        ts = build_training_set(
            NVIDIA_V100, kernels, core_freqs_mhz=NVIDIA_V100.core_freqs_mhz[::16]
        )
        n_freqs = len(NVIDIA_V100.core_freqs_mhz[::16])
        assert ts.X.shape == (len(kernels) * n_freqs, len(DESIGN_COLUMNS))
        assert ts.n_samples == ts.X.shape[0]

    def test_derived_metrics_consistent(self, kernels):
        ts = build_training_set(
            NVIDIA_V100, kernels, core_freqs_mhz=NVIDIA_V100.core_freqs_mhz[::32]
        )
        assert np.allclose(ts.edp_js, ts.energy_j * ts.time_s)
        assert np.allclose(ts.ed2p_js2, ts.energy_j * ts.time_s**2)

    def test_empty_kernels_rejected(self):
        with pytest.raises(ValidationError):
            build_training_set(NVIDIA_V100, [])


class TestExpandDesign:
    def test_column_count(self):
        # 10 raw features + f + 1/f + log f + cycles + intensity +
        # intensity/f + 10 k/f interactions + 10 k*f interactions.
        X = np.ones((3, len(DESIGN_COLUMNS)))
        assert expand_design(X).shape == (3, 36)

    def test_wrong_columns_rejected(self):
        with pytest.raises(ValidationError):
            expand_design(np.ones((3, 4)))

    def test_inverse_frequency_column(self):
        X = np.zeros((1, len(DESIGN_COLUMNS)))
        X[0, -1] = 2000.0  # 2 GHz
        expanded = expand_design(X)
        assert expanded[0, 10] == pytest.approx(2.0)   # f in GHz
        assert expanded[0, 11] == pytest.approx(0.5)   # 1/f


class TestEnergyModelBundle:
    def test_fit_predict_curves(self, trained_bundle, compute_kernel):
        freqs = NVIDIA_V100.core_freqs_mhz
        curves = trained_bundle.predict_curves(compute_kernel, freqs)
        assert set(curves) == {"time", "energy", "edp", "ed2p"}
        for arr in curves.values():
            assert arr.shape == (len(freqs),)

    def test_time_model_quality(self, trained_bundle, compute_kernel):
        """Predicted time shape should track the true curve (Table 2 row 1).

        Predictions are normalized shapes (relative to the top clock), so
        both curves are compared after normalizing at the maximum frequency.
        """
        sweep = sweep_kernel(NVIDIA_V100, compute_kernel)
        pred = trained_bundle.predict_curves(compute_kernel, sweep.freqs_mhz)["time"]
        pred_shape = pred / pred[-1]
        true_shape = sweep.time_s / sweep.time_s[-1]
        err = np.abs(pred_shape - true_shape) / true_shape
        assert np.median(err) < 0.25

    def test_unfitted_bundle_rejects_predict(self, compute_kernel):
        with pytest.raises(ValidationError):
            EnergyModelBundle().predict_curves(compute_kernel, [1000.0])


class TestFrequencyPredictor:
    def test_max_perf_predicts_near_top(self, trained_bundle, compute_kernel):
        predictor = FrequencyPredictor(trained_bundle, NVIDIA_V100)
        _, core = predictor.predict_frequency(compute_kernel, MAX_PERF)
        assert core >= NVIDIA_V100.default_core_mhz

    def test_min_energy_predicts_interior(self, trained_bundle, compute_kernel):
        predictor = FrequencyPredictor(trained_bundle, NVIDIA_V100)
        _, core = predictor.predict_frequency(compute_kernel, MIN_ENERGY)
        assert NVIDIA_V100.min_core_mhz < core < NVIDIA_V100.max_core_mhz

    def test_predicted_objective_close_to_actual_optimum(
        self, trained_bundle, compute_kernel
    ):
        """The Table 2 protocol: objective APE at the predicted frequency."""
        predictor = FrequencyPredictor(trained_bundle, NVIDIA_V100)
        sweep = sweep_kernel(NVIDIA_V100, compute_kernel)
        for target in (MAX_PERF, MIN_ENERGY, MIN_EDP, MIN_ED2P, ES_50, PL_25):
            pred_idx = predictor.predict_index(compute_kernel, target)
            actual_idx = sweep.resolve(target)
            pred_val = sweep.objective_value(target, pred_idx)
            actual_val = sweep.objective_value(target, actual_idx)
            ape = abs(pred_val - actual_val) / actual_val
            assert ape < 0.35, f"{target.name}: APE {ape:.3f}"

    def test_mem_clock_fixed(self, trained_bundle, compute_kernel):
        predictor = FrequencyPredictor(trained_bundle, NVIDIA_V100)
        mem, _ = predictor.predict_frequency(compute_kernel, MIN_EDP)
        assert mem == NVIDIA_V100.default_mem_mhz


class TestSynergyCompiler:
    def test_compile_produces_full_plan(self, trained_bundle, kernels):
        compiler = SynergyCompiler(trained_bundle, NVIDIA_V100)
        targets = [MIN_EDP, ES_50]
        app = compiler.compile(kernels, targets)
        assert len(app.plan.entries) == len(kernels) * len(targets)
        for kernel in kernels:
            for target in targets:
                mem, core = app.plan.lookup(kernel.name, target)
                assert core in NVIDIA_V100.core_freqs_mhz
                assert mem == NVIDIA_V100.default_mem_mhz

    def test_feature_vectors_recorded(self, trained_bundle, kernels):
        compiler = SynergyCompiler(trained_bundle, NVIDIA_V100)
        app = compiler.compile(kernels[:2], [MIN_EDP])
        assert set(app.feature_vectors) == {k.name for k in kernels[:2]}

    def test_duplicate_kernel_names_rejected(self, trained_bundle):
        k = KernelIR("dup", InstructionMix(float_add=1, gl_access=1), work_items=8)
        compiler = SynergyCompiler(trained_bundle, NVIDIA_V100)
        with pytest.raises(ConfigurationError):
            compiler.compile([k, k], [MIN_EDP])

    def test_empty_targets_rejected(self, trained_bundle, kernels):
        compiler = SynergyCompiler(trained_bundle, NVIDIA_V100)
        with pytest.raises(ConfigurationError):
            compiler.compile(kernels, [])

    def test_unfitted_bundle_rejected(self):
        with pytest.raises(ConfigurationError):
            SynergyCompiler(EnergyModelBundle(), NVIDIA_V100)

    def test_plan_lookup_missing_raises(self, trained_bundle, kernels):
        compiler = SynergyCompiler(trained_bundle, NVIDIA_V100)
        app = compiler.compile(kernels[:1], [MIN_EDP])
        with pytest.raises(ConfigurationError):
            app.plan.lookup("nonexistent", MIN_EDP)
        assert not app.plan.has("nonexistent", MIN_EDP)
