"""Batched virtual-time engine tests.

Unit coverage for the struct-of-arrays batch layer (assembly, empty
edges, fallback gates, the bulk device APIs) plus a Hypothesis property
suite driving random kernel mixes, explicit clock pairs and energy
targets (including DEADLINE and SLA) through ``submit_batch`` and the
scalar reference loop side by side: element-wise parity of the resulting
records, and permutation invariance of the aggregate batch energy. Under
random clock-set fault plans the batch splits at failing switches; the
same suite holds it to the scalar twin's records, scaler counters,
degraded flags and fault log.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import (
    ConfigurationError,
    SimulationError,
    ValidationError,
)
from repro.core.queue import SynergyQueue
from repro.engine import (
    BatchResult,
    JobBatch,
    KernelBatch,
    KernelBatchPayload,
    plan_from_sweeps,
)
from repro.hw.device import SimulatedGPU
from repro.hw.specs import NVIDIA_V100
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import (
    DEADLINE,
    MAX_PERF,
    MIN_EDP,
    MIN_ENERGY,
    SLA_SLACK,
)
from repro.obs.session import TraceSession, absorb_engine

pytestmark = pytest.mark.engine

RTOL = 1e-12

#: The target mix every parity case draws from (incl. DEADLINE and SLA).
TARGETS = (
    MIN_EDP,
    MAX_PERF,
    MIN_ENERGY,
    DEADLINE(0.01),
    DEADLINE(0.05),
    SLA_SLACK(1.1),
    SLA_SLACK(1.5),
)


@pytest.fixture(scope="module")
def kernel_pool():
    from repro.apps import get_benchmark

    return [get_benchmark(n).kernel for n in ("gemm", "sobel3", "median")]


@pytest.fixture(scope="module")
def plan(kernel_pool):
    return plan_from_sweeps(NVIDIA_V100, kernel_pool, TARGETS)


def _scalar_replay(queue: SynergyQueue, requests) -> None:
    from repro.metrics.targets import EnergyTarget

    for item in requests:
        if isinstance(item, KernelIR):
            queue.submit(lambda h, k=item: h.parallel_for(k.work_items, k))
        elif isinstance(item[0], EnergyTarget):
            target, kernel = item
            queue.submit(
                target, lambda h, k=kernel: h.parallel_for(k.work_items, k)
            )
        else:
            mem, core, kernel = item
            queue.submit(
                mem, core, lambda h, k=kernel: h.parallel_for(k.work_items, k)
            )
    queue.wait()


def _assert_twin_parity(scalar_gpu: SimulatedGPU, batched_gpu: SimulatedGPU):
    a, b = scalar_gpu.records, batched_gpu.records
    assert len(a) == len(b)
    assert [(r.core_mhz, r.mem_mhz) for r in a] == [
        (r.core_mhz, r.mem_mhz) for r in b
    ]
    assert scalar_gpu._clock_values == batched_gpu._clock_values
    np.testing.assert_allclose(
        [r.start_s for r in a], [r.start_s for r in b], rtol=RTOL
    )
    np.testing.assert_allclose(
        [r.end_s for r in a], [r.end_s for r in b], rtol=RTOL
    )
    np.testing.assert_allclose(
        [r.energy_j for r in a], [r.energy_j for r in b], rtol=RTOL
    )
    np.testing.assert_allclose(
        scalar_gpu._clock_times, batched_gpu._clock_times, rtol=RTOL
    )


# ------------------------------------------------------------ batch assembly


class TestKernelBatch:
    def test_from_requests_accepts_all_submit_forms(self, kernel_pool):
        gemm = kernel_pool[0]
        batch = KernelBatch.from_requests(
            [gemm, (MIN_EDP, gemm), (877, 1200, gemm)]
        )
        assert len(batch) == 3
        assert batch.requests == (None, MIN_EDP, (877, 1200))

    def test_from_requests_rejects_unknown_items(self, kernel_pool):
        with pytest.raises(ValidationError, match="batch items"):
            KernelBatch.from_requests([("not", "a", "request")])

    def test_explicit_clock_validation_runs_at_assembly(self, kernel_pool):
        batch = KernelBatch.from_requests([(877, 123456, kernel_pool[0])])
        with pytest.raises(ConfigurationError, match="unsupported core"):
            batch.validate_explicit_clocks(NVIDIA_V100)

    def test_job_batch_rejects_non_specs(self):
        with pytest.raises(ValidationError, match="JobSpec"):
            JobBatch.from_specs(["nope"])


# ------------------------------------------------------------- empty edges


class TestEmptyBatches:
    def test_empty_submit_batch_is_a_wellformed_noop(self):
        trace = TraceSession()
        gpu = SimulatedGPU(NVIDIA_V100)
        queue = SynergyQueue(gpu, trace=trace)
        before = (gpu.clock.now, gpu.clock_set_calls)
        result = queue.submit_batch([])
        assert isinstance(result, BatchResult)
        assert len(result) == 0 and result.fallback is None
        assert result.summary() == {
            "kernels": 0.0,
            "kernel_time_s": 0.0,
            "kernel_energy_j": 0.0,
            "clock_switches": 0.0,
        }
        assert (gpu.clock.now, gpu.clock_set_calls) == before
        assert queue.events == ()
        assert trace.tracer.span_counts().get("engine.batch") == 1
        assert trace.metrics.counter("engine.batches").value == 1

    def test_empty_submit_many_is_a_wellformed_noop(self):
        from repro.slurm.cluster import Cluster
        from repro.slurm.scheduler import Scheduler

        trace = TraceSession()
        cluster = Cluster.build(
            NVIDIA_V100, n_nodes=1, gpus_per_node=1, trace=trace
        )
        scheduler = Scheduler(cluster)
        assert scheduler.submit_many([]) == []
        assert scheduler.jobs == {}
        assert trace.tracer.span_counts().get("slurm.submit_many") == 1



# ---------------------------------------------------------- fallback gates


class TestFallbacks:
    def test_restricted_board_without_switches_stays_fast(self, kernel_pool):
        gpu = SimulatedGPU(NVIDIA_V100)
        gpu.set_api_restriction(True)
        result = SynergyQueue(gpu).submit_batch([kernel_pool[0]] * 3)
        assert result.fallback is None
        assert len(gpu.records) == 3

    def test_restricted_board_with_switches_matches_scalar_error(
        self, kernel_pool, plan
    ):
        requests = [(MIN_EDP, kernel_pool[0])]
        scalar_gpu = SimulatedGPU(NVIDIA_V100)
        scalar_gpu.set_api_restriction(True)
        with pytest.raises(Exception) as scalar_exc:
            _scalar_replay(SynergyQueue(scalar_gpu, plan=plan), requests)
        batched_gpu = SimulatedGPU(NVIDIA_V100)
        batched_gpu.set_api_restriction(True)
        with pytest.raises(Exception) as batched_exc:
            SynergyQueue(batched_gpu, plan=plan).submit_batch(requests)
        assert type(batched_exc.value) is type(scalar_exc.value)
        assert scalar_gpu.records == batched_gpu.records == []

    def test_validator_enabled_falls_back(self, kernel_pool):
        gpu = SimulatedGPU(NVIDIA_V100)
        queue = SynergyQueue(gpu, validate=True)
        result = queue.submit_batch([kernel_pool[0]])
        assert result.fallback == "validator"
        assert len(gpu.records) == 1

    def test_validator_fallback_matches_scalar_twin(self, kernel_pool, plan):
        requests = [(t, k) for t in (MIN_EDP, MAX_PERF) for k in kernel_pool]
        scalar_gpu = SimulatedGPU(NVIDIA_V100)
        _scalar_replay(SynergyQueue(scalar_gpu, plan=plan, validate=True), requests)
        batched_gpu = SimulatedGPU(NVIDIA_V100)
        batched_queue = SynergyQueue(batched_gpu, plan=plan, validate=True)
        result = batched_queue.submit_batch(requests)
        batched_queue.wait()
        assert result.fallback == "validator"
        _assert_twin_parity(scalar_gpu, batched_gpu)


# ------------------------------------------------------- bulk device APIs


class TestBulkDeviceAPIs:
    def test_apply_clock_plan_requires_ascending_times(self, v100):
        with pytest.raises(SimulationError, match="ascending"):
            v100.apply_clock_plan([1.0, 0.5], [(1523, 877), (1530, 877)])

    def test_apply_clock_plan_rejects_past_times(self, v100):
        v100.set_application_clocks(877, 1523)
        with pytest.raises(SimulationError, match="before the last"):
            v100.apply_clock_plan([-1.0], [(1530, 877)])

    def test_apply_clock_plan_merges_equal_times(self, v100):
        v100.apply_clock_plan(
            [0.5, 0.5, 1.0], [(1523, 877), (1530, 877), (135, 877)]
        )
        assert v100.clocks_at(0.75) == (1530, 877)
        assert (v100.core_mhz, v100.mem_mhz) == (135, 877)

    def test_apply_clock_plan_validates_before_committing(self, v100):
        history = list(v100._clock_values)
        with pytest.raises(ConfigurationError):
            v100.apply_clock_plan([0.5, 1.0], [(1523, 877), (1523, 1)])
        assert v100._clock_values == history

    def test_window_energies_parity_and_device_check(self, v100, kernel_pool):
        queue = SynergyQueue(v100)
        result = queue.submit_batch([(877, 1380, k) for k in kernel_pool])
        per_event = [
            queue.kernel_energy_consumption(e, true_value=True)
            for e in result.events
        ]
        batched = queue.profiler.window_energies(result.events, true_value=True)
        np.testing.assert_allclose(batched, per_event, rtol=RTOL)
        assert queue.profiler.window_energies([]).shape == (0,)
        other = SynergyQueue(SimulatedGPU(NVIDIA_V100))
        with pytest.raises(ValidationError, match="different device"):
            other.profiler.window_energies(result.events)


# ------------------------------------------------------ scheduler batching


class TestSubmitMany:
    def test_batched_accounting_matches_scalar(self, kernel_pool, plan):
        from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
        from repro.slurm.job import JobSpec
        from repro.slurm.plugin import NvGpuFreqPlugin
        from repro.slurm.scheduler import Scheduler

        requests = tuple((t, k) for t in (MIN_EDP, MAX_PERF) for k in kernel_pool)

        def run(batched: bool):
            cluster = Cluster.build(
                NVIDIA_V100, n_nodes=2, gpus_per_node=1, gres={NVGPUFREQ_GRES}
            )
            scheduler = Scheduler(cluster, plugins=[NvGpuFreqPlugin()])
            specs = [
                JobSpec(
                    name=f"job-{i}",
                    n_nodes=1,
                    exclusive=True,
                    gres=frozenset({NVGPUFREQ_GRES}),
                    payload=KernelBatchPayload(
                        requests=requests, plan=plan, batched=batched
                    ),
                )
                for i in range(3)
            ]
            if batched:
                return scheduler.submit_many(specs)
            return [scheduler.submit(spec) for spec in specs]

        scalar_jobs = run(False)
        batched_jobs = run(True)
        scalar_agg = JobBatch.collect(scalar_jobs)
        batched_agg = JobBatch.collect(batched_jobs)
        assert list(scalar_agg["state"]) == ["COMPLETED"] * 3
        assert list(batched_agg["state"]) == ["COMPLETED"] * 3
        np.testing.assert_allclose(
            batched_agg["gpu_energy_j"], scalar_agg["gpu_energy_j"], rtol=RTOL
        )
        np.testing.assert_allclose(
            batched_agg["end_s"], scalar_agg["end_s"], rtol=RTOL
        )



# ----------------------------------------------------------- observability


class TestAbsorbEngine:
    def test_absorb_engine_rolls_up_batch_totals(self, v100, kernel_pool):
        trace = TraceSession()
        queue = SynergyQueue(v100)
        result = queue.submit_batch([(877, 1380, k) for k in kernel_pool])
        absorb_engine(trace, result)
        assert trace.metrics.counter("engine.kernels").value == 3
        assert (
            trace.metrics.counter("engine.switches").value
            == result.n_switches
        )

    def test_batch_result_arrays_are_frozen(self, v100, kernel_pool):
        result = SynergyQueue(v100).submit_batch([kernel_pool[0]])
        with pytest.raises(ValueError):
            result.energy_j[0] = 0.0


# -------------------------------------------------------- property suite

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def request_streams(draw, explicit_only: bool = False, max_size: int = 12):
    """A random submission stream over the fixed kernel pool.

    Items cover every submit form: bare kernels (skipped when
    ``explicit_only`` — their effective clocks depend on batch order),
    explicit clock pairs from the V100 table, and plan targets including
    DEADLINE and SLA.
    """
    from repro.apps import get_benchmark

    kernels = [get_benchmark(n).kernel for n in ("gemm", "sobel3", "median")]
    table = NVIDIA_V100.core_freqs_mhz
    n = draw(st.integers(1, max_size))
    items = []
    for _ in range(n):
        kernel = kernels[draw(st.integers(0, len(kernels) - 1))]
        form = draw(st.integers(1 if explicit_only else 0, 2))
        if form == 0:
            items.append(kernel)
        elif form == 1:
            core = table[draw(st.integers(0, len(table) - 1))]
            items.append((NVIDIA_V100.default_mem_mhz, core, kernel))
        else:
            items.append((TARGETS[draw(st.integers(0, len(TARGETS) - 1))], kernel))
    return items


class TestBatchScalarProperties:
    @given(request_streams())
    @settings(max_examples=25, deadline=None)
    def test_elementwise_parity_with_scalar_path(self, plan, requests):
        scalar_gpu = SimulatedGPU(NVIDIA_V100)
        _scalar_replay(SynergyQueue(scalar_gpu, plan=plan), requests)
        batched_gpu = SimulatedGPU(NVIDIA_V100)
        batched_queue = SynergyQueue(batched_gpu, plan=plan)
        result = batched_queue.submit_batch(requests)
        batched_queue.wait()
        assert result.fallback is None
        _assert_twin_parity(scalar_gpu, batched_gpu)

    @given(request_streams(explicit_only=True), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_aggregate_energy_is_permutation_invariant(
        self, plan, requests, rng
    ):
        """Reordering a batch of explicit-request submissions must not
        change the total kernel energy: each record's energy depends only
        on its (kernel, clocks) operating point, never on its neighbours.
        """
        shuffled = list(requests)
        rng.shuffle(shuffled)
        base = SynergyQueue(SimulatedGPU(NVIDIA_V100), plan=plan)
        perm = SynergyQueue(SimulatedGPU(NVIDIA_V100), plan=plan)
        e_base = float(np.sum(base.submit_batch(requests).energy_j))
        e_perm = float(np.sum(perm.submit_batch(shuffled).energy_j))
        assert e_perm == pytest.approx(e_base, rel=1e-9)


@st.composite
def clock_set_faults(draw):
    """``(rate, count, target, at_frac, seed)`` of a random clock-set plan.

    Rate 1.0 fails every attempt: retry exhaustion, then a degrade whose
    reset fails too (``count=0``) or succeeds (``count=5`` stops the
    failures after the retry budget). ``at_frac`` places a scheduled
    fault that far into the clean batch's run; ``target`` is the twin
    boards' index (0), another board's, or unrestricted.
    """
    return (
        draw(st.sampled_from((0.02, 0.3, 1.0))),
        draw(st.sampled_from((0, 5))),
        draw(st.sampled_from((None, 0, 1))),
        draw(st.none() | st.floats(0.05, 0.95)),
        draw(st.integers(0, 2**16)),
    )


def _faulted_twins(plan, requests, faults, validate=False):
    """Scalar replay and ``submit_batch`` on twin boards, one fault plan."""
    from repro.faults import FaultPlan, FaultSpec

    rate, count, target, at_frac, seed = faults
    specs = [
        FaultSpec(
            site="nvml.set_clocks", probability=rate, count=count, target=target
        )
    ]
    if at_frac is not None:
        clean = SimulatedGPU(NVIDIA_V100, index=0)
        SynergyQueue(clean, plan=plan).submit_batch(requests)
        specs.append(FaultSpec(site="nvml.set_clocks", at_s=at_frac * clean.clock.now))
    fault_plan = FaultPlan(seed=seed, specs=tuple(specs))
    queues = []
    for _ in range(2):
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        gpu.fault_injector = fault_plan.injector()
        queues.append(SynergyQueue(gpu, plan=plan, validate=validate))
    scalar_q, batched_q = queues
    _scalar_replay(scalar_q, requests)
    result = batched_q.submit_batch(requests)
    batched_q.wait()
    return scalar_q, batched_q, result


class TestFaultedBatchProperties:
    @given(request_streams(max_size=24), clock_set_faults())
    @settings(max_examples=40, deadline=None)
    def test_faulted_batch_matches_scalar_twin(self, plan, requests, faults):
        scalar_q, batched_q, result = _faulted_twins(plan, requests, faults)
        assert result.fallback is None
        _assert_twin_parity(scalar_q.gpu, batched_q.gpu)
        for counter in ("switch_count", "retry_count", "failed_switches"):
            assert getattr(batched_q.scaler, counter) == getattr(
                scalar_q.scaler, counter
            )
        assert result.n_switches == scalar_q.scaler.switch_count
        assert [r["degraded"] for r in batched_q.kernel_stats()] == [
            r["degraded"] for r in scalar_q.kernel_stats()
        ]
        log_s = scalar_q.gpu.fault_injector.log.to_dicts()
        log_b = batched_q.gpu.fault_injector.log.to_dicts()
        assert [{**e, "t": None} for e in log_b] == [{**e, "t": None} for e in log_s]
        np.testing.assert_allclose(
            [e["t"] for e in log_b], [e["t"] for e in log_s], rtol=RTOL
        )

    @given(request_streams(max_size=24), clock_set_faults())
    @settings(max_examples=15, deadline=None)
    def test_app_clocks_match_the_per_event_replay(self, plan, requests, faults):
        """Split and per-event batches report the same application clocks."""
        _, _, split = _faulted_twins(plan, requests, faults)
        _, _, replayed = _faulted_twins(plan, requests, faults, validate=True)
        assert replayed.fallback == "validator"
        assert split.app_core_mhz.tolist() == replayed.app_core_mhz.tolist()
        assert split.app_mem_mhz.tolist() == replayed.app_mem_mhz.tolist()
        assert split.core_mhz.tolist() == replayed.core_mhz.tolist()


class TestFaultFallbacks:
    @pytest.mark.parametrize(
        "spec",
        [
            {"site": "nvml.gpu_lost", "at_s": 1e3},
            {
                "site": "hw.thermal_throttle",
                "at_s": 1e3,
                "duration_s": 1.0,
                "param": 900,
            },
        ],
        ids=["gpu_lost", "thermal_throttle"],
    )
    def test_per_event_sites_fall_back_by_name(self, kernel_pool, spec):
        from repro.faults import FaultPlan, FaultSpec

        gpu = SimulatedGPU(NVIDIA_V100)
        gpu.fault_injector = FaultPlan(specs=(FaultSpec(**spec),)).injector()
        result = SynergyQueue(gpu).submit_batch([(877, 1380, kernel_pool[0])])
        assert result.fallback == spec["site"]

    def test_clock_set_faults_on_rocm_take_the_plain_fast_path(self, kernel_pool):
        from repro.faults import transient_nvml_plan
        from repro.hw.specs import AMD_MI100

        spec = AMD_MI100
        gpu = SimulatedGPU(spec)
        gpu.fault_injector = transient_nvml_plan(1.0).injector()
        core = spec.core_freqs_mhz
        queue = SynergyQueue(gpu)
        result = queue.submit_batch(
            [(spec.default_mem_mhz, c, kernel_pool[0]) for c in (core[0], core[-1])]
        )
        assert result.fallback is None
        assert queue.scaler.retry_count == 0
        assert gpu.fault_injector.total_faults == 0
