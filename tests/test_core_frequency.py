"""Frequency scaler and the §4.4 switch-overhead accounting."""

import pytest

from repro.apps import get_benchmark
from repro.common.errors import ValidationError
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S, FrequencyScaler
from repro.core.queue import SynergyQueue
from repro.hw.device import SimulatedGPU
from repro.hw.specs import NVIDIA_V100


def test_effective_change_advances_clock(v100):
    scaler = FrequencyScaler(v100)
    t0 = v100.clock.now
    changed = scaler.set_frequency(877, NVIDIA_V100.core_freqs_mhz[10])
    assert changed
    assert v100.clock.now == pytest.approx(t0 + DEFAULT_SWITCH_OVERHEAD_S)


def _launch(kernel):
    return lambda h: h.parallel_for(kernel.work_items, kernel)


@pytest.mark.parametrize("overhead_s", [DEFAULT_SWITCH_OVERHEAD_S, 0.05])
def test_switch_overhead_overlaps_the_launch_it_serves(overhead_s):
    """A switching launch starts at its submit time and runs at the new
    clocks; the change lands in the clock history ``OH`` later, and the
    next launch waits ``max(d, OH)`` (``n_i = n_(i-1) + max(d_i, OH)``)."""
    gpu = SimulatedGPU(NVIDIA_V100, index=0)
    queue = SynergyQueue(gpu, switch_overhead_s=overhead_s)
    kernel = get_benchmark("sobel3").kernel
    queue.submit(877, 135, _launch(kernel))
    first = gpu.records[-1]
    assert first.start_s == 0.0
    assert (first.core_mhz, first.mem_mhz) == (135, 877)
    # The record is authoritative; the history still shows the old clocks
    # at the launch's start and the new ones from OH on.
    assert gpu.clocks_at(first.start_s) == (NVIDIA_V100.default_core_mhz, 877)
    assert gpu.clocks_at(overhead_s) == (135, 877)
    assert gpu.clock.now == max(first.end_s, overhead_s)

    queue.submit(877, 1530, _launch(kernel))
    second = gpu.records[-1]
    assert second.start_s == max(first.end_s, overhead_s)
    assert second.core_mhz == 1530
    assert gpu.clocks_at(second.start_s + overhead_s) == (1530, 877)
    assert gpu.clock.now == second.start_s + max(second.time_s, overhead_s)


def test_redundant_change_free(v100):
    scaler = FrequencyScaler(v100)
    scaler.set_frequency(877, NVIDIA_V100.core_freqs_mhz[10])
    t = v100.clock.now
    changed = scaler.set_frequency(877, NVIDIA_V100.core_freqs_mhz[10])
    assert not changed
    assert v100.clock.now == t
    assert scaler.switch_count == 1


def test_overhead_accumulates(v100):
    scaler = FrequencyScaler(v100, switch_overhead_s=0.002)
    for i in (5, 10, 15, 20):
        scaler.set_frequency(877, NVIDIA_V100.core_freqs_mhz[i])
    assert scaler.switch_count == 4
    assert scaler.total_overhead_s == pytest.approx(0.008)


def test_overhead_grows_with_kernel_count(v100, compute_kernel):
    """§4.4: per-kernel switching becomes significant with many kernels."""
    scaler = FrequencyScaler(v100, switch_overhead_s=0.01)
    freqs = [NVIDIA_V100.core_freqs_mhz[i] for i in (10, 190)]
    for i in range(20):
        scaler.set_frequency(877, freqs[i % 2])
        v100.execute(compute_kernel.with_work_items(1 << 18))
    kernel_time = sum(r.time_s for r in v100.records)
    assert scaler.total_overhead_s > kernel_time  # overhead dominates tiny kernels


def test_zero_overhead_mode(v100):
    scaler = FrequencyScaler(v100, switch_overhead_s=0.0)
    t0 = v100.clock.now
    scaler.set_frequency(877, NVIDIA_V100.core_freqs_mhz[3])
    assert v100.clock.now == t0


def test_reset_restores_defaults(v100):
    scaler = FrequencyScaler(v100)
    scaler.set_frequency(877, NVIDIA_V100.core_freqs_mhz[0])
    scaler.reset()
    assert v100.core_mhz == NVIDIA_V100.default_core_mhz


def test_reset_when_already_default_is_free(v100):
    scaler = FrequencyScaler(v100)
    scaler.reset()
    assert scaler.switch_count == 0


def test_supported_tables_from_backend(v100):
    scaler = FrequencyScaler(v100)
    assert scaler.backend.supported_core_freqs() == NVIDIA_V100.core_freqs_mhz
    assert scaler.backend.supported_mem_freqs() == NVIDIA_V100.mem_freqs_mhz


def test_negative_overhead_rejected(v100):
    with pytest.raises(ValidationError):
        FrequencyScaler(v100, switch_overhead_s=-0.1)
