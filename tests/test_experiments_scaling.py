"""The Fig. 10 multi-node scaling harness (reduced size for tests)."""

import pytest

from repro.apps import CloverLeaf, MiniWeather
from repro.common.errors import ConfigurationError, ValidationError
from repro.core.models import EnergyModelBundle
from repro.experiments.scaling import ScalingPoint, run_scaling_experiment
from repro.experiments.training import microbench_training_set
from repro.hw.specs import NVIDIA_V100
from repro.metrics.targets import ES_50, MIN_EDP, PL_50


@pytest.fixture(scope="module")
def small_bundle() -> EnergyModelBundle:
    ts = microbench_training_set(NVIDIA_V100, freq_stride=10, random_count=8)
    return EnergyModelBundle().fit(ts)


@pytest.fixture(scope="module")
def clover_result(small_bundle):
    return run_scaling_experiment(
        lambda: CloverLeaf(steps=2),
        gpu_counts=(4, 8),
        targets=(MIN_EDP, ES_50, PL_50),
        bundle=small_bundle,
    )


class TestScalingExperiment:
    def test_all_points_present(self, clover_result):
        assert len(clover_result.points) == 2 * 4  # 2 counts x (default + 3)
        for n in (4, 8):
            assert clover_result.baseline(n).target_name == "default"
            for t in ("MIN_EDP", "ES_50", "PL_50"):
                assert clover_result.point(n, t).n_gpus == n

    def test_missing_point_raises(self, clover_result):
        with pytest.raises(ConfigurationError):
            clover_result.point(64, "default")

    def test_weak_scaling_energy_grows_with_gpus(self, clover_result):
        """Weak scaling: more GPUs do more total work -> more energy."""
        e4 = clover_result.baseline(4).gpu_energy_j
        e8 = clover_result.baseline(8).gpu_energy_j
        assert e8 > 1.5 * e4

    def test_tuned_targets_save_energy(self, clover_result):
        for n in (4, 8):
            base = clover_result.baseline(n)
            assert clover_result.point(n, "ES_50").energy_saving_vs(base) > 0.02
            assert clover_result.point(n, "PL_50").energy_saving_vs(base) > 0.05

    def test_savings_scale_to_more_gpus(self, clover_result):
        """The headline claim: per-kernel savings persist at scale."""
        s4 = clover_result.point(4, "PL_50").energy_saving_vs(
            clover_result.baseline(4)
        )
        s8 = clover_result.point(8, "PL_50").energy_saving_vs(
            clover_result.baseline(8)
        )
        assert s4 > 0.05 and s8 > 0.05
        assert abs(s4 - s8) < 0.10  # roughly constant saving fraction

    def test_comm_time_reported(self, clover_result):
        assert clover_result.point(8, "MIN_EDP").comm_time_s > 0

    def test_invalid_gpu_count_rejected(self, small_bundle):
        with pytest.raises(ValidationError):
            run_scaling_experiment(
                lambda: CloverLeaf(steps=1),
                gpu_counts=(3,),
                bundle=small_bundle,
            )

    def test_miniweather_saves_more_than_cloverleaf_oracle(self):
        """§8.4: MiniWeather (~30%) out-saves CloverLeaf (~20%).

        Evaluated with oracle (measured-sweep) target resolution so the
        comparison reflects the applications, not a deliberately small
        test-model's noise; the full-model comparison runs in the Fig. 10
        benchmark harness.
        """
        from repro.experiments.sweep import sweep_kernel

        def app_pl50_saving(kernels):
            e_def = e_tuned = 0.0
            for k in kernels:
                sw = sweep_kernel(NVIDIA_V100, k)
                e_def += float(sw.energy_j[sw.default_index])
                e_tuned += float(sw.energy_j[sw.resolve(PL_50)])
            return 1.0 - e_tuned / e_def

        mw = app_pl50_saving(MiniWeather(steps=1).timestep_kernels())
        cl = app_pl50_saving(CloverLeaf(steps=1).timestep_kernels())
        assert mw > cl


def test_scaling_point_saving_math():
    base = ScalingPoint("app", 4, "default", 10.0, 100.0, 1.0)
    point = ScalingPoint("app", 4, "ES_50", 11.0, 80.0, 1.0)
    assert point.energy_saving_vs(base) == pytest.approx(0.2)
