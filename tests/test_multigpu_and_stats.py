"""Multi-GPU logical queue, queue statistics, and the 2-D frequency sweep."""

import numpy as np
import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ValidationError
from repro.core.multigpu import MultiGpuSynergyQueue
from repro.core.queue import SynergyQueue
from repro.experiments.sweep import sweep_kernel_2d
from repro.hw.device import SimulatedGPU
from repro.hw.specs import NVIDIA_TITAN_X, NVIDIA_V100
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR


def _gpus(n: int) -> list[SimulatedGPU]:
    return [SimulatedGPU(NVIDIA_V100, clock=VirtualClock()) for _ in range(n)]


@pytest.fixture
def kernel() -> KernelIR:
    return KernelIR(
        "dist",
        InstructionMix(float_add=16, float_mul=16, gl_access=4),
        work_items=1 << 24,
    )


class TestMultiGpuQueue:
    def test_splits_work_evenly(self, kernel):
        gpus = _gpus(4)
        queue = MultiGpuSynergyQueue(gpus)
        devent = queue.parallel_for(1 << 24, kernel)
        assert len(devent.events) == 4
        # Each device ran a quarter of the range: per-device time is about
        # a quarter of the single-device time.
        solo = SimulatedGPU(NVIDIA_V100, clock=VirtualClock())
        solo_event = SynergyQueue(solo).parallel_for(1 << 24, kernel)
        per_device = devent.events[0].duration_s
        assert per_device == pytest.approx(solo_event.duration_s / 4, rel=0.05)

    def test_remainder_goes_to_last_device(self, kernel):
        queue = MultiGpuSynergyQueue(_gpus(3))
        devent = queue.parallel_for(100, kernel)
        durations = [e.duration_s for e in devent.events]
        assert durations[-1] >= durations[0]

    def test_energy_aggregates(self, kernel):
        queue = MultiGpuSynergyQueue(_gpus(2))
        devent = queue.parallel_for(1 << 24, kernel)
        assert devent.energy_j == pytest.approx(
            sum(e.record.energy_j for e in devent.events)
        )
        assert queue.device_energy_consumption() >= devent.energy_j

    def test_wait_synchronizes_clocks(self, kernel):
        queue = MultiGpuSynergyQueue(_gpus(3))
        queue.parallel_for(999, kernel)  # uneven split
        queue.wait()
        times = [q.gpu.clock.now for q in queue.queues]
        assert max(times) == pytest.approx(min(times))

    def test_target_applies_on_all_devices(self, kernel, trained_bundle):
        from repro.core.predictor import FrequencyPredictor
        from repro.metrics.targets import MIN_ENERGY

        predictor = FrequencyPredictor(trained_bundle, NVIDIA_V100)
        queue = MultiGpuSynergyQueue(_gpus(2), predictor=predictor)
        devent = queue.parallel_for(1 << 24, kernel, target=MIN_ENERGY)
        clocks = {e.record.core_mhz for e in devent.events}
        assert len(clocks) == 1  # same predicted clock everywhere
        assert clocks.pop() < NVIDIA_V100.default_core_mhz

    def test_too_small_range_rejected(self, kernel):
        queue = MultiGpuSynergyQueue(_gpus(4))
        with pytest.raises(ValidationError):
            queue.parallel_for(3, kernel)

    def test_empty_device_list_rejected(self):
        with pytest.raises(ValidationError):
            MultiGpuSynergyQueue([])

    def test_reset_frequency_all(self, kernel):
        gpus = _gpus(2)
        queue = MultiGpuSynergyQueue(gpus)
        for q in queue.queues:
            q.set_frequency(877, NVIDIA_V100.core_freqs_mhz[5])
        queue.reset_frequency()
        assert all(g.core_mhz == NVIDIA_V100.default_core_mhz for g in gpus)


class TestQueueStats:
    def test_kernel_stats_rows(self, v100, kernel):
        queue = SynergyQueue(v100)
        queue.parallel_for(1 << 20, kernel)
        queue.parallel_for(1 << 20, kernel.with_name("dist2"))
        stats = queue.kernel_stats()
        assert [r["kernel"] for r in stats] == ["dist", "dist2"]
        assert all(r["energy_j"] > 0 for r in stats)

    def test_summary_totals(self, v100, kernel):
        queue = SynergyQueue(v100)
        queue.parallel_for(1 << 20, kernel)
        queue.set_frequency(877, NVIDIA_V100.core_freqs_mhz[10])
        queue.parallel_for(1 << 20, kernel)
        summary = queue.summary()
        assert summary["kernels"] == 2.0
        assert summary["clock_switches"] == 1.0
        assert summary["switch_overhead_s"] > 0
        assert summary["kernel_energy_j"] == pytest.approx(
            sum(r["energy_j"] for r in queue.kernel_stats())
        )


class TestSweep2D:
    def test_titanx_grid_shape(self, kernel):
        sweep = sweep_kernel_2d(NVIDIA_TITAN_X, kernel)
        assert sweep.time_s.shape == (4, 120)
        assert np.all(sweep.time_s > 0) and np.all(sweep.energy_j > 0)

    def test_hbm_device_collapses_to_one_row(self, kernel):
        sweep = sweep_kernel_2d(NVIDIA_V100, kernel)
        assert sweep.time_s.shape == (1, 196)

    def test_memory_clock_matters_for_streaming_kernel(self):
        stream = KernelIR(
            "stream", InstructionMix(float_add=1, gl_access=8), work_items=1 << 24
        )
        sweep = sweep_kernel_2d(NVIDIA_TITAN_X, stream)
        core_top = sweep.time_s[:, -1]
        # Streaming kernels slow down dramatically at low memory clocks.
        assert core_top[0] > 3 * core_top[-1]

    def test_max_perf_config_at_high_clocks(self):
        compute = KernelIR(
            "comp", InstructionMix(float_add=64, float_mul=64, gl_access=1),
            work_items=1 << 22,
        )
        sweep = sweep_kernel_2d(NVIDIA_TITAN_X, compute)
        _, j = np.unravel_index(int(np.argmin(sweep.time_s)), sweep.time_s.shape)
        assert sweep.core_mhz[j] == NVIDIA_TITAN_X.max_core_mhz
