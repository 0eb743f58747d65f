"""Online frequency search (the dynamic-DVFS baseline)."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.core.online import OnlineFrequencyTuner, tune_kernel_online
from repro.core.queue import SynergyQueue
from repro.experiments.sweep import sweep_kernel
from repro.hw.specs import NVIDIA_V100
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import ES_50, MAX_PERF, MIN_EDP, MIN_ENERGY


@pytest.fixture
def kernel() -> KernelIR:
    # Long-running (~80 ms, several sampling periods) so the sensor
    # measurements driving the tuner are meaningful (§4.4).
    return KernelIR(
        "tunee",
        InstructionMix(float_add=2048, float_mul=2048, gl_access=16),
        work_items=1 << 27,
        locality=0.2,
    )


class TestTunerMechanics:
    def test_es_targets_rejected(self):
        with pytest.raises(ValidationError):
            OnlineFrequencyTuner(NVIDIA_V100.core_freqs_mhz, ES_50)

    def test_needs_two_clocks(self):
        with pytest.raises(ValidationError):
            OnlineFrequencyTuner((1000,), MIN_ENERGY)

    @pytest.mark.parametrize("tolerance_steps", [0, -1, -7])
    def test_non_positive_tolerance_rejected(self, tolerance_steps):
        # Regression: tolerance_steps < 1 makes the bracket endgame
        # unreachable, so the search would never declare convergence.
        with pytest.raises(ValidationError, match="tolerance_steps"):
            OnlineFrequencyTuner(
                NVIDIA_V100.core_freqs_mhz,
                MIN_ENERGY,
                tolerance_steps=tolerance_steps,
            )

    def test_first_probe_is_interior(self):
        tuner = OnlineFrequencyTuner(NVIDIA_V100.core_freqs_mhz, MIN_ENERGY)
        first = tuner.next_frequency("k")
        assert NVIDIA_V100.min_core_mhz < first < NVIDIA_V100.max_core_mhz

    def test_observe_unknown_clock_rejected(self):
        tuner = OnlineFrequencyTuner(NVIDIA_V100.core_freqs_mhz, MIN_ENERGY)
        with pytest.raises(ValidationError):
            tuner.observe("k", 1234, 1.0, 1.0)

    def test_kernels_tracked_independently(self):
        tuner = OnlineFrequencyTuner(NVIDIA_V100.core_freqs_mhz, MIN_ENERGY)
        f = tuner.next_frequency("a")
        tuner.observe("a", f, 1.0, 1.0)
        # "a" moves on to its next probe; "b" still starts where "a" did.
        assert tuner.next_frequency("a") != f
        assert tuner.next_frequency("b") == f


class TestConvergenceOnTrueCurves:
    """Drive the tuner with exact objective values: it must find the optimum."""

    def _run(self, kernel, target, tolerance=2):
        sweep = sweep_kernel(NVIDIA_V100, kernel)
        tuner = OnlineFrequencyTuner(
            NVIDIA_V100.core_freqs_mhz, target, tolerance_steps=tolerance
        )
        probes = 0
        for _ in range(200):
            if tuner.converged(kernel.name):
                break
            probes += 1
            core = tuner.next_frequency(kernel.name)
            idx = int(np.argmin(np.abs(sweep.freqs_mhz - core)))
            tuner.observe(
                kernel.name, core, float(sweep.time_s[idx]),
                float(sweep.energy_j[idx]),
            )
        assert tuner.converged(kernel.name)
        chosen = tuner.next_frequency(kernel.name)
        idx = int(np.argmin(np.abs(sweep.freqs_mhz - chosen)))
        return sweep, idx, probes

    def test_min_energy_converges_near_optimum(self, kernel):
        sweep, idx, probes = self._run(kernel, MIN_ENERGY)
        best = float(sweep.energy_j.min())
        assert float(sweep.energy_j[idx]) <= best * 1.05
        # And it took a bounded number of probes.
        assert probes < 40

    def test_max_perf_converges_to_top(self, kernel):
        sweep, idx, _ = self._run(kernel, MAX_PERF)
        assert sweep.time_s[idx] <= float(sweep.time_s.min()) * 1.02

    def test_min_edp_near_optimum(self, kernel):
        sweep, idx, _ = self._run(kernel, MIN_EDP)
        assert float(sweep.edp[idx]) <= float(sweep.edp.min()) * 1.10


class TestOnlineVsMeasurementNoise:
    def test_end_to_end_with_sensor_noise(self, v100, kernel):
        queue = SynergyQueue(v100)
        tuner = OnlineFrequencyTuner(NVIDIA_V100.core_freqs_mhz, MIN_ENERGY)
        stats = tune_kernel_online(queue, kernel, tuner, max_launches=48)
        assert stats["launches"] > 3
        assert stats["exploration_energy_j"] > 0
        chosen = int(stats["chosen_core_mhz"])
        sweep = sweep_kernel(NVIDIA_V100, kernel)
        idx = int(np.argmin(np.abs(sweep.freqs_mhz - chosen)))
        # Within 15% of the true optimum despite noisy probes.
        assert float(sweep.energy_j[idx]) <= float(sweep.energy_j.min()) * 1.15
