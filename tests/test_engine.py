"""Batched virtual-time engine tests.

Unit coverage for the struct-of-arrays batch layer (assembly, empty
edges, restricted boards, the ``submit_batch`` boundary, the bulk device
APIs) plus a Hypothesis property suite driving random kernel mixes,
explicit clock pairs and energy targets (including DEADLINE and SLA)
through ``submit_batch`` and the scalar reference loop side by side:
element-wise parity of the resulting records, and permutation invariance
of the aggregate batch energy. Under random restricted boards,
thermal-throttle windows, GPU loss and clock-set fault plans the batch
runs the affected submissions per event; the same suite holds it to the
scalar twin's exception, records, scaler counters, degraded flags and
fault log. Unconstrained, power-capped and fault-split batches all leave
records that pass ``check_kernel_records``.
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
    KernelBatch,
    KernelBatchPayload,
    plan_from_sweeps,
)
from repro.engine.batch import EXPLICIT, NO_REQUEST
from repro.hw.device import SimulatedGPU
from repro.hw.specs import NVIDIA_TITAN_X, NVIDIA_V100
from repro.metrics.targets import (
    DEADLINE,
    MAX_PERF,
    MIN_EDP,
    MIN_ENERGY,
    SLA_SLACK,
)
from repro.obs.session import TraceSession
from repro.validate.invariants import check_kernel_records
from repro.validate.reference import PerEventPayload, replay_per_event

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


def _assert_twin_parity(scalar_gpu: SimulatedGPU, batched_gpu: SimulatedGPU):
    a, b = scalar_gpu.records, batched_gpu.records
    assert len(a) == len(b)
    assert [(r.core_mhz, r.mem_mhz) for r in a] == [
        (r.core_mhz, r.mem_mhz) for r in b
    ]
    assert scalar_gpu._clock_cores == batched_gpu._clock_cores
    assert scalar_gpu._clock_mems == batched_gpu._clock_mems
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


def _failing_record_checks(gpu: SimulatedGPU) -> list[tuple[str, str]]:
    return [(r.name, r.detail) for r in check_kernel_records(gpu) if not r.passed]


# ------------------------------------------------------------ batch assembly


def _columns(kernel, **columns) -> dict:
    """Column-constructor arguments for one submission of ``kernel``:
    a bare kernel unless ``columns`` overrides a column."""
    return {
        "kernels": (kernel,),
        "kernel_code": [0],
        "targets": (),
        "target_code": [NO_REQUEST],
        "mem_mhz": [0],
        "core_mhz": [0],
        **columns,
    }


class TestKernelBatch:
    def test_from_requests_accepts_all_submit_forms(self, kernel_pool):
        gemm = kernel_pool[0]
        batch = KernelBatch.from_requests(
            [gemm, (MIN_EDP, gemm), (877, 1200, gemm)]
        )
        assert len(batch) == 3
        assert batch.kernels == (gemm,) and batch.targets == (MIN_EDP,)
        assert batch.kernel_code.tolist() == [0, 0, 0]
        assert batch.target_code.tolist() == [NO_REQUEST, 0, EXPLICIT]
        assert batch.mem_mhz.tolist() == [0, 0, 877]
        assert batch.core_mhz.tolist() == [0, 0, 1200]

    def test_from_requests_codes_by_first_use(self, kernel_pool):
        gemm, sobel = kernel_pool[:2]
        batch = KernelBatch.from_requests(
            [(MAX_PERF, sobel), gemm, (MIN_EDP, sobel), (MAX_PERF, gemm)]
        )
        assert batch.kernels == (sobel, gemm)
        assert batch.targets == (MAX_PERF, MIN_EDP)
        assert batch.kernel_code.tolist() == [0, 1, 0, 1]
        assert batch.target_code.tolist() == [0, NO_REQUEST, 1, 0]

    def test_of_gives_every_submission_one_request(self, kernel_pool):
        gemm, sobel = kernel_pool[:2]
        batch = KernelBatch.of([gemm, sobel, gemm], MIN_EDP)
        assert batch.kernels == (gemm, sobel) and batch.targets == (MIN_EDP,)
        assert batch.kernel_code.tolist() == [0, 1, 0]
        assert batch.target_code.tolist() == [0, 0, 0]
        bare = KernelBatch.of([gemm])
        assert bare.targets == () and bare.target_code.tolist() == [NO_REQUEST]

    def test_batch_columns_are_read_only_copies(self, kernel_pool):
        codes = np.zeros(2, dtype=np.int64)
        batch = KernelBatch(**_columns(
            kernel_pool[0], kernel_code=codes, target_code=[-1, -1],
            mem_mhz=[0, 0], core_mhz=[0, 0],
        ))
        codes[1] = 5
        assert codes.flags.writeable and batch.kernel_code.tolist() == [0, 0]
        with pytest.raises(ValueError):
            batch.kernel_code[0] = 1

    def test_from_requests_rejects_unknown_items(self, kernel_pool):
        with pytest.raises(ValidationError, match="batch items"):
            KernelBatch.from_requests([("not", "a", "request")])

    @pytest.mark.parametrize(
        ("columns", "item"),
        [
            (
                lambda k: _columns(
                    k, target_code=[EXPLICIT], mem_mhz=[877.0], core_mhz=[1516.0]
                ),
                lambda k: (877.0, 1516.0, k),
            ),
            (
                lambda k: _columns(k, targets=("877,1516",), target_code=[0]),
                lambda k: ("877,1516", k),
            ),
            (
                lambda k: _columns(k, targets=((877, 1516, 3),), target_code=[0]),
                lambda k: ((877, 1516, 3), k),
            ),
            (
                lambda k: _columns(k, targets=(None,), target_code=[0]),
                lambda k: (None, k),
            ),
            (
                lambda k: _columns("gemm"),
                lambda k: "gemm",
            ),
            (
                lambda k: _columns("gemm", targets=(MIN_EDP,), target_code=[0]),
                lambda k: (MIN_EDP, "gemm"),
            ),
            (
                lambda k: _columns(
                    None, target_code=[EXPLICIT], mem_mhz=[877], core_mhz=[1530]
                ),
                lambda k: (877, 1530, None),
            ),
        ],
        ids=[
            "float-pair", "string", "3-tuple", "none-target", "bare-non-kernel",
            "target-non-kernel", "pair-non-kernel",
        ],
    )
    def test_both_constructors_reject_the_same_requests(
        self, kernel_pool, columns, item
    ):
        kernel = kernel_pool[0]
        with pytest.raises(ValidationError, match="batch items"):
            KernelBatch(**columns(kernel))
        with pytest.raises(ValidationError, match="batch items"):
            KernelBatch.from_requests([kernel, item(kernel)])

    @pytest.mark.parametrize(
        ("override", "match"),
        [
            ({"kernel_code": [1]}, "out of range"),
            ({"kernel_code": [-1]}, "out of range"),
            ({"target_code": [0]}, "out of range"),
            ({"target_code": [EXPLICIT - 1]}, "out of range"),
            ({"target_code": [0.0]}, "batch items"),
            ({"mem_mhz": [0, 0]}, "length mismatch"),
            ({"core_mhz": [[0]]}, "batch items"),
        ],
        ids=[
            "kernel-high", "kernel-negative", "target-high", "target-low",
            "float-code", "length", "2-d",
        ],
    )
    def test_column_constructor_rejects_bad_columns(
        self, kernel_pool, override, match
    ):
        with pytest.raises(ValidationError, match=match):
            KernelBatch(**_columns(kernel_pool[0], **override))

    def test_from_requests_rejects_a_none_target_like_submit(self, kernel_pool):
        kernel = kernel_pool[0]
        with pytest.raises(ValidationError, match="batch items"):
            KernelBatch.from_requests([(None, kernel)])
        queue = SynergyQueue(SimulatedGPU(NVIDIA_V100))
        with pytest.raises(ValidationError, match="submit accepts"):
            queue.submit(None, lambda h: None)

    def test_explicit_clock_validation_runs_at_assembly(self, kernel_pool):
        batch = KernelBatch.from_requests([(877, 123456, kernel_pool[0])])
        with pytest.raises(ConfigurationError, match="unsupported core"):
            batch.validate_explicit_clocks(NVIDIA_V100)
        batch = KernelBatch.from_requests([(1, 1530, kernel_pool[0])])
        with pytest.raises(ConfigurationError, match="unsupported memory"):
            batch.validate_explicit_clocks(NVIDIA_V100)


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
        """The failing switch runs per event, and no request is resolved
        twice: one plan lookup per request, all made up front."""
        from repro.vendor.errors import NVMLError

        requests = [(MIN_EDP, kernel_pool[0]), (MIN_EDP, kernel_pool[1])]
        scalar_gpu = SimulatedGPU(NVIDIA_V100)
        scalar_gpu.set_api_restriction(True)
        with pytest.raises(NVMLError) as scalar_exc:
            replay_per_event(SynergyQueue(scalar_gpu, plan=plan), requests)
        trace = TraceSession()
        batched_gpu = SimulatedGPU(NVIDIA_V100)
        batched_gpu.set_api_restriction(True)
        with pytest.raises(NVMLError) as batched_exc:
            SynergyQueue(batched_gpu, plan=plan, trace=trace).submit_batch(requests)
        assert type(batched_exc.value) is type(scalar_exc.value)
        assert batched_exc.value.code == scalar_exc.value.code
        assert scalar_gpu.records == batched_gpu.records
        assert trace.metrics.counter("predict.plan_lookups").value == len(requests)

    def test_batch_that_raises_mid_walk_traces_what_it_committed(self, kernel_pool):
        """A restricted board runs the bulk prefix, then the failing switch
        raises: the committed kernels are traced and counted as the
        per-event replay traces them."""
        from repro.vendor.errors import NVMLError

        gemm = kernel_pool[0]
        default = NVIDIA_V100.default_core_mhz
        other = NVIDIA_V100.core_freqs_mhz[0]
        requests = [gemm, (877, default, gemm), gemm, (877, other, gemm), gemm]
        seen = []
        for run in (replay_per_event, lambda q, r: q.submit_batch(r)):
            trace = TraceSession()
            gpu = SimulatedGPU(NVIDIA_V100, index=0)
            gpu.set_api_restriction(True)
            with pytest.raises(NVMLError):
                run(SynergyQueue(gpu, trace=trace), requests)
            counters = trace.metrics.as_dict()["counters"]
            seen.append((
                len(gpu.records),
                counters.get("queue.kernels_executed"),
                trace.tracer.span_counts().get("queue.kernel"),
            ))
        assert seen[0] == seen[1] == (3, 3, 3)

    def test_plan_batch_matches_the_per_event_replay(self, kernel_pool, plan):
        requests = [(t, k) for t in (MIN_EDP, MAX_PERF) for k in kernel_pool]
        scalar_gpu = SimulatedGPU(NVIDIA_V100)
        replay_per_event(SynergyQueue(scalar_gpu, plan=plan), requests)
        batched_gpu = SimulatedGPU(NVIDIA_V100)
        batched_queue = SynergyQueue(batched_gpu, plan=plan)
        result = batched_queue.submit_batch(requests)
        batched_queue.wait()
        assert result.fallback is None
        _assert_twin_parity(scalar_gpu, batched_gpu)
        assert _failing_record_checks(batched_gpu) == []


# ------------------------------------------------------ submit_batch boundary


def _armed_board(kind: str) -> SimulatedGPU:
    """A V100 as ``kind`` leaves it: plain, restricted, or with a
    thermal-throttle window or a GPU loss armed from time zero."""
    from repro.faults import FaultPlan, FaultSpec

    gpu = SimulatedGPU(NVIDIA_V100, index=0)
    specs = {
        "throttle": FaultSpec(
            site="hw.thermal_throttle", at_s=0.0, duration_s=1.0, param=900
        ),
        "gpu_lost": FaultSpec(site="nvml.gpu_lost", at_s=0.0),
    }
    if kind == "restricted":
        gpu.set_api_restriction(True)
    elif kind in specs:
        gpu.fault_injector = FaultPlan(specs=(specs[kind],)).injector()
    return gpu


class TestSubmitBatchBoundary:
    @pytest.mark.parametrize("board", ["plain", "restricted", "throttle", "gpu_lost"])
    @pytest.mark.parametrize(
        "bad, error",
        [("malformed", ValidationError), ("off_table_clock", ConfigurationError)],
    )
    def test_bad_item_raises_before_anything_runs(
        self, kernel_pool, board, bad, error
    ):
        gemm = kernel_pool[0]
        item = ("not", "a", "request") if bad == "malformed" else (877, 123456, gemm)
        gpu = _armed_board(board)
        with pytest.raises(error):
            SynergyQueue(gpu).submit_batch([(877, 1380, gemm), item])
        assert gpu.records == []
        assert gpu.clock.now == 0.0 and gpu.clock_set_calls == 0
        if gpu.fault_injector is not None:
            assert gpu.fault_injector.log.entries == []


    @pytest.mark.parametrize("form", ["tuples", "columns", "resolved"])
    def test_off_table_clock_leaves_the_board_history_untouched(
        self, kernel_pool, plan, form
    ):
        """A batch whose explicit pair, or plan-resolved core clock, is off
        the device table raises before anything runs, on a board that
        already has history: its records, clock history and power
        timeline stay as they were."""
        from repro.core.compiler import FrequencyPlan

        gemm = kernel_pool[0]
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        SynergyQueue(gpu, plan=plan).submit_batch(
            [(MIN_EDP, gemm), (877, 1380, gemm), gemm]
        )
        before = _board_history(gpu)
        if form == "resolved":
            bad_plan = FrequencyPlan(
                device_name=NVIDIA_V100.name,
                entries={(gemm.name, MIN_EDP.name): (877, 123)},
            )
            with pytest.raises(ValidationError, match="not in the device table"):
                SynergyQueue(gpu, plan=bad_plan).submit_batch(
                    [(877, 1380, gemm), (MIN_EDP, gemm)]
                )
        else:
            batch = (
                KernelBatch.from_requests([(MAX_PERF, gemm), (877, 123456, gemm)])
                if form == "tuples"
                else KernelBatch(
                    kernels=(gemm,), kernel_code=[0, 0], targets=(MAX_PERF,),
                    target_code=[0, EXPLICIT], mem_mhz=[0, 877],
                    core_mhz=[0, 123456],
                )
            )
            with pytest.raises(ConfigurationError, match="unsupported core"):
                SynergyQueue(gpu, plan=plan).submit_batch(batch)
        assert _board_history(gpu) == before


def _board_history(gpu: SimulatedGPU) -> tuple:
    """Everything a batch commits to a board, as comparable values."""
    return (
        list(gpu.records),
        list(gpu._clock_cores),
        list(gpu._clock_mems),
        list(gpu._clock_times),
        list(gpu._seg_start),
        list(gpu._seg_end),
        list(gpu._seg_power),
        gpu.clock.now,
        gpu.clock_set_calls,
        (gpu.core_mhz, gpu.mem_mhz),
    )


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
        history = _board_history(v100)
        for pairs, error in (
            ([(1523, 877), (1523, 1)], ConfigurationError),
            # Not truncated to 1523, not parsed from a string.
            ([(1523, 877), (1523.7, 877)], ConfigurationError),
            ([(1523, 877), ("1530", 877)], ConfigurationError),
            # Not reshaped into misaligned pairs.
            ([(1523, 877, 1530), (877, 1523, 877)], SimulationError),
            ([(1523, 877, 1530, 877)], SimulationError),
        ):
            with pytest.raises(error):
                v100.apply_clock_plan([0.5, 1.0][: len(pairs)], pairs)
            assert _board_history(v100) == history


# ------------------------------------------------------ scheduler batching


def _nvgpufreq_scheduler(n_nodes: int = 2, trace=None):
    from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
    from repro.slurm.plugin import NvGpuFreqPlugin
    from repro.slurm.scheduler import Scheduler

    cluster = Cluster.build(
        NVIDIA_V100, n_nodes=n_nodes, gpus_per_node=1, gres={NVGPUFREQ_GRES},
        trace=trace,
    )
    return Scheduler(cluster, plugins=[NvGpuFreqPlugin(trace=trace)])


def _job_spec(name: str, payload):
    from repro.slurm.cluster import NVGPUFREQ_GRES
    from repro.slurm.job import JobSpec

    return JobSpec(
        name=name, n_nodes=1, exclusive=True,
        gres=frozenset({NVGPUFREQ_GRES}), payload=payload,
    )


class TestSubmitMany:
    def test_batched_accounting_matches_scalar(self, kernel_pool, plan):
        requests = tuple((t, k) for t in (MIN_EDP, MAX_PERF) for k in kernel_pool)

        def run(batched: bool):
            scheduler = _nvgpufreq_scheduler()
            payload = (KernelBatchPayload if batched else PerEventPayload)(
                requests=requests, plan=plan
            )
            specs = [_job_spec(f"job-{i}", payload) for i in range(3)]
            if batched:
                return scheduler.submit_many(specs)
            return [scheduler.submit(spec) for spec in specs]

        scalar_jobs = run(False)
        batched_jobs = run(True)
        for jobs in (scalar_jobs, batched_jobs):
            assert [j.state.value for j in jobs] == ["COMPLETED"] * 3
        np.testing.assert_allclose(
            [j.gpu_energy_j for j in batched_jobs],
            [j.gpu_energy_j for j in scalar_jobs],
            rtol=RTOL,
        )
        np.testing.assert_allclose(
            [j.end_time_s for j in batched_jobs],
            [j.end_time_s for j in scalar_jobs],
            rtol=RTOL,
        )

    def test_rejects_non_jobspec_before_any_job_runs(self, kernel_pool):
        ok = _job_spec("ok", KernelBatchPayload(requests=(kernel_pool[0],)))
        for submit, arg, shown in (
            ("submit", "nope", "'nope'"),
            ("submit_many", "nope", "'nope'"),
            ("submit_many", None, "None"),
            ("submit_many", [ok, "nope"], "'nope'"),
        ):
            scheduler = _nvgpufreq_scheduler()
            with pytest.raises(ValidationError, match=f"JobSpec, got {shown}$"):
                getattr(scheduler, submit)(arg)
            assert scheduler.jobs == {}
            assert not any(
                g.records for n in scheduler.cluster.nodes for g in n.gpus
            )

    def test_owner_tags_every_kernel_span(self, kernel_pool, plan):
        requests = ((MIN_EDP, kernel_pool[0]), kernel_pool[1])
        for owner in ("tenant-a", None):
            trace = TraceSession()
            scheduler = _nvgpufreq_scheduler(n_nodes=1, trace=trace)
            payload = KernelBatchPayload(requests=requests, plan=plan, owner=owner)
            job = scheduler.submit_many([_job_spec("tagged", payload)])[0]
            assert job.state.value == "COMPLETED"
            spans = [sp for sp in trace.tracer.spans if sp.category == "queue.kernel"]
            assert len(spans) == len(requests)
            if owner is None:
                assert all("owner" not in sp.attrs for sp in spans)
            else:
                assert all(sp.attrs["owner"] == owner for sp in spans)


# ------------------------------------------------------------ batch result


class TestBatchResult:
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
        replay_per_event(SynergyQueue(scalar_gpu, plan=plan), requests)
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


def _clean_run_s(plan, requests, spec=NVIDIA_V100) -> float:
    """Virtual duration of ``requests`` as a batch on a clean board."""
    clean = SimulatedGPU(spec, index=0)
    SynergyQueue(clean, plan=plan).submit_batch(requests)
    return clean.clock.now


def _clock_set_plan(plan, requests, faults, spec=NVIDIA_V100):
    """The fault plan ``faults`` draws, scheduled against a clean run."""
    from repro.faults import FaultPlan, FaultSpec

    rate, count, target, at_frac, seed = faults
    specs = [
        FaultSpec(
            site="nvml.set_clocks", probability=rate, count=count, target=target
        )
    ]
    if at_frac is not None:
        specs.append(
            FaultSpec(
                site="nvml.set_clocks",
                at_s=at_frac * _clean_run_s(plan, requests, spec),
            )
        )
    return FaultPlan(seed=seed, specs=tuple(specs))


def _faulted_twins(plan, requests, fault_plan, prepare=lambda queue: None):
    """Scalar replay and ``submit_batch`` on twin boards, one fault plan.

    ``prepare`` sets up each twin's queue before it runs. Returns both
    queues, the batch result (``None`` if the batch raised) and the
    ``(scalar, batched)`` errors (``None`` for a run that completed).
    """
    from repro.common.errors import ReproError

    queues = []
    for _ in range(2):
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        gpu.fault_injector = fault_plan.injector()
        queue = SynergyQueue(gpu, plan=plan)
        prepare(queue)
        queues.append(queue)
    scalar_q, batched_q = queues
    result, errors = None, [None, None]
    try:
        replay_per_event(scalar_q, requests)
    except ReproError as exc:
        errors[0] = exc
    try:
        result = batched_q.submit_batch(requests)
        batched_q.wait()
    except ReproError as exc:
        errors[1] = exc
    return scalar_q, batched_q, result, tuple(errors)


def _assert_split_parity(scalar_q, batched_q, result, errors):
    """A batch that ran submissions per event matches the scalar twin:
    the same error, records, scaler counters, degraded flags and fault log."""
    assert type(errors[1]) is type(errors[0]), errors
    assert str(errors[1]) == str(errors[0])
    _assert_twin_parity(scalar_q.gpu, batched_q.gpu)
    for counter in ("switch_count", "retry_count", "failed_switches"):
        assert getattr(batched_q.scaler, counter) == getattr(
            scalar_q.scaler, counter
        )
    if result is not None:
        assert result.fallback is None
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


@st.composite
def per_event_cases(draw):
    """Boards and fault plans that send submissions down the per-event step.

    ``restricted`` is ``None``, ``"user"`` (a switch raises) or
    ``"root"`` (a switch succeeds). Throttle windows are
    ``(at_frac, duration_frac, cap_mhz, target)``: the boards start a
    quarter of a clean run late, so a window opens before, inside or
    after the batch. A cap of ``None`` is a window that caps nothing but
    still logs its activation. ``gpu_lost`` is scheduled (a run
    fraction) or probabilistic (a per-call probability); clock-set faults
    come from :func:`clock_set_faults`.
    """
    return {
        "restricted": draw(st.sampled_from((None, "user", "root"))),
        "windows": draw(
            st.lists(
                st.tuples(
                    st.floats(0.0, 1.5),
                    st.floats(0.01, 1.0),
                    st.sampled_from((900, 1200, None)),
                    st.sampled_from((None, 0, 1)),
                ),
                max_size=2,
            )
        ),
        "gpu_lost": draw(
            st.none()
            | st.tuples(st.just("scheduled"), st.floats(0.0, 1.5))
            | st.tuples(st.just("probabilistic"), st.sampled_from((0.02, 0.2)))
        ),
        "clock_set": draw(st.none() | clock_set_faults()),
    }


def _per_event_plan(plan, requests, case):
    """The fault plan of ``case`` and the late start its times assume."""
    from repro.faults import FaultPlan, FaultSpec

    run_s = _clean_run_s(plan, requests)
    lead_s = 0.25 * run_s
    faults = case["clock_set"]
    base = FaultPlan() if faults is None else _clock_set_plan(plan, requests, faults)
    specs = list(base.specs)
    for at_frac, duration_frac, cap, target in case["windows"]:
        window = FaultSpec(
            site="hw.thermal_throttle",
            at_s=at_frac * run_s,
            duration_s=duration_frac * run_s,
            param=cap or 900,
            target=target,
        )
        if cap is None:
            # FaultSpec requires a cap, but the injector and the board
            # both accept a window without one.
            object.__setattr__(window, "param", None)
        specs.append(window)
    lost = case["gpu_lost"]
    if lost is not None:
        kind, value = lost
        specs.append(
            FaultSpec(site="nvml.gpu_lost", at_s=value * run_s)
            if kind == "scheduled"
            else FaultSpec(site="nvml.gpu_lost", probability=value)
        )
    return FaultPlan(seed=base.seed, specs=tuple(specs)), lead_s


class TestFaultedBatchProperties:
    @given(request_streams(max_size=24), clock_set_faults())
    @settings(max_examples=40, deadline=None)
    def test_faulted_batch_matches_scalar_twin(self, plan, requests, faults):
        twins = _faulted_twins(plan, requests, _clock_set_plan(plan, requests, faults))
        assert twins[3] == (None, None)
        _assert_split_parity(*twins)

    @given(request_streams(max_size=24), per_event_cases())
    @settings(max_examples=60, deadline=None)
    def test_per_event_split_rules_match_the_replay(self, plan, requests, case):
        """Restricted boards, throttle windows, GPU loss and clock-set
        faults, alone or together, match ``replay_per_event``."""
        fault_plan, lead_s = _per_event_plan(plan, requests, case)

        def prepare(queue):
            queue.gpu.clock.advance(lead_s)
            if case["restricted"] is not None:
                queue.gpu.set_api_restriction(True)
                queue.scaler.backend._lib.effective_root = case["restricted"] == "root"

        _assert_split_parity(*_faulted_twins(plan, requests, fault_plan, prepare))

    @given(request_streams(max_size=24), clock_set_faults())
    @settings(max_examples=15, deadline=None)
    def test_app_clocks_match_the_per_event_replay(self, plan, requests, faults):
        """A split batch reports the application clocks the per-event
        replay's board held while each kernel ran."""
        fault_plan = _clock_set_plan(plan, requests, faults)
        scalar_gpu, batched_gpu = (
            SimulatedGPU(NVIDIA_V100, index=0) for _ in range(2)
        )
        scalar_gpu.fault_injector = fault_plan.injector()
        batched_gpu.fault_injector = fault_plan.injector()
        scalar_q = SynergyQueue(scalar_gpu, plan=plan)
        app = []
        for item in requests:
            replay_per_event(scalar_q, [item])
            # Clocks change only just before a kernel starts.
            app.append((scalar_gpu.core_mhz, scalar_gpu.mem_mhz))
        split = SynergyQueue(batched_gpu, plan=plan).submit_batch(requests)
        assert split.fallback is None
        assert split.app_core_mhz.tolist() == [core for core, _ in app]
        assert split.app_mem_mhz.tolist() == [mem for _, mem in app]
        assert split.core_mhz.tolist() == [r.core_mhz for r in scalar_gpu.records]


class TestRecordChecksOnTheFastPath:
    @given(
        request_streams(max_size=24),
        st.sampled_from((None, 0.55, 0.8)),
        st.none() | clock_set_faults(),
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_records_pass_the_record_checks(
        self, plan, requests, cap, faults
    ):
        """Unconstrained, power-capped and fault-split batches all stay
        on the vectorized path and leave records that pass every check."""
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        if cap is not None:
            idle, peak = NVIDIA_V100.idle_power_w, gpu.default_power_limit_w
            gpu.set_power_limit(idle + cap * (peak - idle), privileged=True)
        if faults is not None:
            gpu.fault_injector = _clock_set_plan(plan, requests, faults).injector()
        queue = SynergyQueue(gpu, plan=plan)
        result = queue.submit_batch(requests)
        queue.wait()
        assert result.fallback is None
        assert len(gpu.records) == len(requests)
        assert _failing_record_checks(gpu) == []


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
        """An armed per-event site no longer sends the whole batch back
        through a replay: the batch reports no fallback and matches
        ``replay_per_event`` on records, counters and fault log."""
        from repro.faults import FaultPlan, FaultSpec

        gemm = kernel_pool[0]
        core = NVIDIA_V100.core_freqs_mhz
        requests = [(877, 1380, gemm), gemm, (877, core[0], gemm), (877, 1380, gemm)]
        twins = _faulted_twins(
            None, requests, FaultPlan(specs=(FaultSpec(**spec),))
        )
        assert twins[3] == (None, None)
        assert twins[2].fallback is None
        _assert_split_parity(*twins)

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
        assert not gpu.fault_injector.log.faults


# ------------------------------------------------------- columnar records


class TestColumnarRecords:
    """A bulk segment commits its records as one column block: no
    ``KernelExecutionRecord`` exists until someone reads one, and a read
    through the board's log or the event gives the same object."""

    def _requests(self, kernel_pool):
        core = NVIDIA_V100.core_freqs_mhz
        return [
            (t, k) for t in (MIN_EDP, MAX_PERF) for k in kernel_pool
        ] + [(877, core[i], kernel_pool[i % 3]) for i in range(0, 60, 7)]

    def test_untraced_batch_builds_no_record_until_one_is_read(
        self, monkeypatch, kernel_pool, plan
    ):
        import repro.hw.records as records_module
        from repro.hw.records import KernelExecutionRecord

        made = []

        class Counting(KernelExecutionRecord):
            def __init__(self, *args):
                made.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(records_module, "KernelExecutionRecord", Counting)
        requests = self._requests(kernel_pool)
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        queue = SynergyQueue(gpu, plan=plan)
        result = queue.submit_batch(requests)
        queue.wait()
        assert len(gpu.records) == len(result) == len(requests)
        assert made == []
        record = result.events[3].record
        assert made == [requests[3][-1].name]
        assert gpu.records[3] is record and result.events[3].record is record
        assert len(made) == 1
        assert [e.record for e in queue.events] == list(gpu.records)
        assert all(
            e.record is r for e, r in zip(queue.events, gpu.records)
        )
        assert len(made) == len(requests)

    def test_editing_the_log_does_not_repoint_events(self, kernel_pool, plan):
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        result = SynergyQueue(gpu, plan=plan).submit_batch(
            self._requests(kernel_pool)
        )
        second = result.events[1].record
        del gpu.records[0]
        assert result.events[1].record is second is gpu.records[0]

    def test_fault_split_batch_matches_the_replay_record_for_record(
        self, kernel_pool, plan
    ):
        """Clock-set faults split the batch: per-event records sit between
        column blocks, and the log still reads as the replay's records."""
        from repro.faults import transient_nvml_plan
        from repro.sycl.event import BlockEvent

        requests = self._requests(kernel_pool) * 3
        scalar_q, batched_q, result, errors = _faulted_twins(
            plan, requests, transient_nvml_plan(0.3, seed=3)
        )
        assert errors == (None, None)
        kinds = {type(e) is BlockEvent for e in result.events}
        assert kinds == {True, False}, "the faults must split the batch"
        _assert_split_parity(scalar_q, batched_q, result, errors)
        a, b = list(scalar_q.gpu.records), list(batched_q.gpu.records)
        assert [(r.kernel_name, r.device_name, r.core_mhz, r.mem_mhz) for r in a] == [
            (r.kernel_name, r.device_name, r.core_mhz, r.mem_mhz) for r in b
        ]
        for field in ("start_s", "end_s", "energy_j", "avg_power_w", "u_core", "u_mem"):
            np.testing.assert_allclose(
                [getattr(r, field) for r in b], [getattr(r, field) for r in a],
                rtol=RTOL,
            )
        assert all(e.record is r for e, r in zip(result.events, b))

    def test_a_fresh_board_holds_no_record_log(self, kernel_pool):
        """The log is made on a board's first record, not with the board.

        The weak-scaling workload builds 3,584 boards per unit, and one
        more container in every board's constructor shows up there as
        garbage-collector time (docs/PERFORMANCE.md, engine section).
        """
        gpu = SimulatedGPU(NVIDIA_V100)
        assert gpu._records is None
        gpu.execute(kernel_pool[0])
        assert gpu._records is not None and len(gpu.records) == 1


# ------------------------------------------------------------ event blocks


def _cluster_requests(kernel_pool, n: int = 384, seed: int = 7) -> list:
    """``n`` seed-drawn requests shaped like one board of the cluster
    scenario: mixed kernels, plan targets and 25% explicit clocks."""
    rng = np.random.default_rng(seed)
    table = NVIDIA_V100.core_freqs_mhz
    requests = []
    for _ in range(n):
        kernel = kernel_pool[int(rng.integers(len(kernel_pool)))]
        if rng.random() < 0.25:
            core = int(table[int(rng.integers(len(table)))])
            requests.append((NVIDIA_V100.default_mem_mhz, core, kernel))
        else:
            requests.append((TARGETS[int(rng.integers(len(TARGETS)))], kernel))
    return requests


class TestEventBlocks:
    """A bulk segment's events are one block: no ``BlockEvent`` or record
    exists until someone reads one, and the queue statistics read the
    record columns instead."""

    def test_untraced_cluster_batch_builds_no_event_or_record(
        self, monkeypatch, kernel_pool, plan
    ):
        import repro.hw.records as records_module
        import repro.sycl.event as event_module

        made = {"events": 0, "records": 0}

        class CountingEvent(event_module.BlockEvent):
            def __init__(self, *args):
                made["events"] += 1
                super().__init__(*args)

        class CountingRecord(records_module.KernelExecutionRecord):
            def __init__(self, *args):
                made["records"] += 1
                super().__init__(*args)

        monkeypatch.setattr(event_module, "BlockEvent", CountingEvent)
        monkeypatch.setattr(records_module, "KernelExecutionRecord", CountingRecord)
        requests = _cluster_requests(kernel_pool)
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        queue = SynergyQueue(gpu, plan=plan)
        result = queue.submit_batch(requests)
        queue.wait()
        assert len(result) == len(queue.events) == len(gpu.records) == 384
        summary = queue.summary()
        stats = queue.kernel_stats()
        assert summary["kernels"] == len(stats) == 384
        assert made == {"events": 0, "records": 0}
        event = queue.events[-5]
        assert made == {"events": 1, "records": 0}
        assert result.events[379] is event and event.record is gpu.records[379]
        assert made == {"events": 1, "records": 1}

    def test_batch_events_are_the_queue_log_parts(self, kernel_pool, plan):
        """The batch's event log and the queue's hold the same blocks and
        per-event events, before and after a per-event submission."""
        from repro.faults import FaultPlan, FaultSpec

        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        gpu.fault_injector = FaultPlan(
            seed=1,
            specs=(FaultSpec(site="nvml.set_clocks", probability=0.3),),
        ).injector()
        queue = SynergyQueue(gpu, plan=plan)
        replay_per_event(queue, [kernel_pool[0]])
        result = queue.submit_batch(_cluster_requests(kernel_pool, 96))
        parts = list(result.events.parts())
        assert len(parts) > 1, "the faults must split the batch"
        assert list(queue.events.parts())[1:] == parts
        assert all(a is b for a, b in zip(queue.events[1:], result.events))
        assert [e.record for e in queue.events] == list(gpu.records)

    def test_a_window_read_builds_only_the_window(self, kernel_pool, plan):
        """The adapt controllers read ``queue.events[n0:]`` once per stream:
        the window after a batch builds none of the batch's events."""
        queue = SynergyQueue(SimulatedGPU(NVIDIA_V100), plan=plan)
        result = queue.submit_batch(_cluster_requests(kernel_pool, 48))
        n0 = len(queue.events)
        replay_per_event(queue, kernel_pool)
        window = queue.events[n0:]
        assert [e.record.kernel_name for e in window] == [k.name for k in kernel_pool]
        assert [block.built for block in result.events.parts()] == [0]

    @given(
        st.lists(
            st.tuples(st.booleans(), request_streams(max_size=10)),
            min_size=1,
            max_size=4,
        ),
        clock_set_faults(),
        st.sampled_from(("none", "some", "all")),
    )
    @settings(max_examples=40, deadline=None)
    def test_column_stats_match_the_record_walk(self, plan, steps, faults, reads):
        """Over a history of batches and per-event submissions under
        clock-set faults, ``kernel_stats`` and ``summary`` are bitwise the
        record walk of ``repro.validate.reference``, whether the blocks
        are unbuilt, partly built or fully built."""
        from repro.common.errors import ReproError
        from repro.validate.reference import (
            kernel_stats_reference,
            summary_reference,
        )

        every = [item for _, requests in steps for item in requests]
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        gpu.fault_injector = _clock_set_plan(plan, every, faults).injector()
        queue = SynergyQueue(gpu, plan=plan)
        for batched, requests in steps:
            try:
                if batched:
                    queue.submit_batch(requests)
                else:
                    replay_per_event(queue, requests)
            except ReproError:
                pass
        if reads == "some":
            for i in range(0, len(gpu.records), 3):
                gpu.records[i]
        elif reads == "all":
            list(queue.events)
            list(gpu.records)
        stats, summary = queue.kernel_stats(), queue.summary()
        want_stats, want_summary = kernel_stats_reference(queue), summary_reference(queue)
        assert repr(stats) == repr(want_stats) and stats == want_stats
        assert repr(summary) == repr(want_summary) and summary == want_summary
        # Once the walk has built every row, the rows are read instead.
        assert repr(queue.kernel_stats()) == repr(want_stats)
        assert repr(queue.summary()) == repr(want_summary)

    def test_degraded_flags_come_from_the_per_event_steps(self, kernel_pool, plan):
        """Clock-set retry exhaustion degrades stepped submissions; the
        column stats flag exactly those, as the record walk does."""
        from repro.validate.reference import (
            kernel_stats_reference,
            summary_reference,
        )

        requests = _cluster_requests(kernel_pool, 48)
        fault_plan = _clock_set_plan(plan, requests, (1.0, 5, 0, None, 3))
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        gpu.fault_injector = fault_plan.injector()
        queue = SynergyQueue(gpu, plan=plan)
        queue.submit_batch(requests)
        summary = queue.summary()
        assert summary["degraded_kernels"] > 0
        assert summary == summary_reference(queue)
        assert queue.kernel_stats() == kernel_stats_reference(queue)

    def test_a_batch_leaves_no_object_per_kernel(self, kernel_pool, plan):
        """Allocation guard: an untraced 384-kernel batch leaves new
        gc-tracked objects per segment (blocks, their kernel lists, the
        result), not per kernel.

        Counted after a full collection, so a per-kernel event, record or
        dict shows as at least 384 new objects.
        """
        import gc

        requests = _cluster_requests(kernel_pool)
        # Warm the sweep cache and every per-spec memo first.
        SynergyQueue(SimulatedGPU(NVIDIA_V100), plan=plan).submit_batch(requests)
        gpu = SimulatedGPU(NVIDIA_V100, index=0)
        queue = SynergyQueue(gpu, plan=plan)
        gc.collect()
        before = len(gc.get_objects())
        result = queue.submit_batch(requests)
        summary = queue.summary()
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert len(result) == summary["kernels"] == 384
        assert grown < 64, grown


#: Boards of the columnar property: one memory clock (V100) and four
#: (Titan X), so memory-clock switches and groups are drawn too.
MIX_SPECS = (NVIDIA_V100, NVIDIA_TITAN_X)


@pytest.fixture(scope="module")
def mix_plans(kernel_pool):
    return {
        spec.name: plan_from_sweeps(spec, kernel_pool, TARGETS)
        for spec in MIX_SPECS
    }


@st.composite
def request_mixes(draw):
    """A board and a request stream over it (bare kernels, explicit pairs
    from its tables, plan targets), plus the queue it runs through:
    queue clocks or none, traced or not, and an armed transient
    clock-set fault plan or none."""
    from repro.apps import get_benchmark

    spec = draw(st.sampled_from(MIX_SPECS))
    kernels = [get_benchmark(n).kernel for n in ("gemm", "sobel3", "median")]
    # Half the core clocks are the board's default, so memory-only
    # switches are common.
    pairs = st.tuples(
        st.sampled_from(spec.mem_freqs_mhz),
        st.just(spec.default_core_mhz) | st.sampled_from(spec.core_freqs_mhz),
    )
    requests = []
    for _ in range(draw(st.integers(1, 24))):
        kernel = draw(st.sampled_from(kernels))
        form = draw(st.integers(0, 2))
        if form == 0:
            requests.append(kernel)
        elif form == 1:
            requests.append((*draw(pairs), kernel))
        else:
            requests.append((draw(st.sampled_from(TARGETS)), kernel))
    return {
        "spec": spec,
        "requests": requests,
        "queue_clocks": draw(st.none() | pairs),
        "traced": draw(st.booleans()),
        "faults": draw(st.none() | clock_set_faults()),
    }


def _column_batch(requests) -> KernelBatch:
    """``requests`` as a batch built directly from columns, coded against
    fixed kernel and target pools (in reverse, so the codes differ from
    the first-use codes of :meth:`KernelBatch.from_requests`)."""
    from repro.apps import get_benchmark

    kernels = tuple(get_benchmark(n).kernel for n in ("median", "sobel3", "gemm"))
    targets = tuple(reversed(TARGETS))
    columns = []
    for item in requests:
        if not isinstance(item, tuple):
            columns.append((kernels.index(item), NO_REQUEST, 0, 0))
        elif len(item) == 2:
            columns.append((kernels.index(item[1]), targets.index(item[0]), 0, 0))
        else:
            columns.append((kernels.index(item[2]), EXPLICIT, item[0], item[1]))
    kernel_code, target_code, mem_mhz, core_mhz = zip(*columns)
    return KernelBatch(
        kernels=kernels, kernel_code=kernel_code, targets=targets,
        target_code=target_code, mem_mhz=mem_mhz, core_mhz=core_mhz,
    )


def _batch_state(result: BatchResult) -> tuple:
    arrays = (
        result.start_s, result.end_s, result.time_s, result.energy_j,
        result.avg_power_w, result.core_mhz, result.mem_mhz,
        result.app_core_mhz, result.app_mem_mhz,
    )
    return (
        [(a.dtype.str, a.tobytes()) for a in arrays],
        result.n_switches,
        result.fallback,
        # Event ids come from a process-wide counter: compare offsets.
        [
            (e.event_id - result.events[0].event_id, e.start_s, e.end_s, e.record)
            for e in result.events
        ],
    )


def _queue_state(queue: SynergyQueue, trace) -> tuple:
    scaler = queue.scaler
    return (
        _board_history(queue.gpu),
        [type(v) for r in queue.gpu.records for v in vars(r).values()],
        (scaler.switch_count, scaler.retry_count, scaler.failed_switches,
         scaler.total_overhead_s),
        queue.kernel_stats(),
        queue.summary(),
        queue.gpu.fault_injector.log.to_dicts(),
        None if trace is None else trace.metrics.as_dict(),
        None if trace is None else [sp.as_dict() for sp in trace.tracer.spans],
    )


class TestColumnarBatchProperties:
    @given(request_mixes())
    @settings(max_examples=50, deadline=None)
    def test_tuple_column_and_per_event_runs_agree(self, mix_plans, mix):
        """Tuple input and column input run bitwise alike: every
        ``BatchResult`` field, record, clock history entry, span and
        counter. Against ``replay_per_event`` the executor's exactness
        contract holds: the same error, clocks, switches, counters and
        fault log, times and energies within rel 1e-12."""
        from repro.common.errors import ReproError
        from repro.faults import FaultPlan

        spec, requests, faults = mix["spec"], mix["requests"], mix["faults"]
        plan = mix_plans[spec.name]
        fault_plan = (
            FaultPlan() if faults is None
            else _clock_set_plan(plan, requests, faults, spec)
        )
        runs = []
        for submit in (
            lambda q: replay_per_event(q, requests),
            lambda q: q.submit_batch(requests),
            lambda q: q.submit_batch(_column_batch(requests)),
        ):
            gpu = SimulatedGPU(spec, index=0)
            gpu.fault_injector = fault_plan.injector()
            trace = TraceSession() if mix["traced"] else None
            queue = SynergyQueue(
                *(mix["queue_clocks"] or ()), gpu, plan=plan, trace=trace
            )
            result = error = None
            try:
                result = submit(queue)
                queue.wait()
            except ReproError as exc:
                error = exc
            runs.append((queue, trace, result, error))
        (scalar_q, scalar_tr, _, scalar_err), tuples, columns = runs
        assert (type(tuples[3]), str(tuples[3])) == (
            type(columns[3]), str(columns[3])
        )
        assert _queue_state(*tuples[:2]) == _queue_state(*columns[:2])
        if tuples[2] is not None:
            assert _batch_state(tuples[2]) == _batch_state(columns[2])
        _assert_split_parity(scalar_q, tuples[0], tuples[2], (scalar_err, tuples[3]))
        if mix["traced"]:
            names = (
                "freq.retries", "faults.injected", "queue.kernels_executed",
                "freq.switches", "predict.plan_lookups",
            )
            assert [scalar_tr.metrics.counter(n).value for n in names] == [
                tuples[1].metrics.counter(n).value for n in names
            ]
