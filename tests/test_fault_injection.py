"""The fault-injection plane: plans, injection sites, and recovery paths."""

import pytest

from repro.apps.cloverleaf import CloverLeaf
from repro.common.errors import (
    ConfigurationError,
    TransientError,
    ValidationError,
)
from repro.core.compiler import SynergyCompiler
from repro.core.frequency import FrequencyScaler
from repro.core.profiling import EnergyProfiler
from repro.core.queue import SynergyQueue
from repro.faults import (
    FaultPlan,
    FaultSpec,
    NodeFailure,
    RankFailure,
    transient_nvml_plan,
)
from repro.hw.device import SimulatedGPU
from repro.hw.sensor import PowerSensor, SensorDropoutError
from repro.hw.specs import NVIDIA_V100
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import MIN_EDP
from repro.mpi.comm import SimulatedComm
from repro.mpi.launcher import launch_ranks
from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
from repro.slurm.job import JobSpec, JobState
from repro.slurm.plugin import NvGpuFreqPlugin, PluginDecision
from repro.slurm.scheduler import MAX_REQUEUES, Scheduler
from repro.vendor.errors import (
    NVML_ERROR_GPU_IS_LOST,
    NVML_ERROR_TIMEOUT,
    NVML_ERROR_UNKNOWN,
    NVMLError,
    NVMLTransientError,
    nvmlErrorString,
)
from repro.vendor.nvml import NVMLLibrary


def _kernel(items: int = 1 << 22) -> KernelIR:
    return KernelIR(
        "fi", InstructionMix(float_add=16, gl_access=2), work_items=items
    )


def _armed_gpu(*specs: FaultSpec, seed: int = 0) -> SimulatedGPU:
    gpu = SimulatedGPU(NVIDIA_V100)
    gpu.fault_injector = FaultPlan(seed=seed, specs=tuple(specs)).injector()
    return gpu


# ----------------------------------------------------------------- the plan


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValidationError, match="unknown fault site"):
            FaultSpec(site="nvml.warp_drive", probability=0.1)

    def test_needs_exactly_one_trigger(self):
        with pytest.raises(ValidationError, match="exactly one"):
            FaultSpec(site="nvml.set_clocks", probability=0.1, at_s=1.0)
        with pytest.raises(ValidationError, match="exactly one"):
            FaultSpec(site="nvml.set_clocks")

    def test_scheduled_defaults_to_single_firing(self):
        spec = FaultSpec(site="slurm.node_fail", at_s=2.0)
        assert spec.scheduled and spec.count == 1

    def test_window_sites_need_duration(self):
        with pytest.raises(ValidationError, match="duration_s"):
            FaultSpec(site="hw.thermal_throttle", at_s=0.0, param=900)
        with pytest.raises(ValidationError, match="duration_s only applies"):
            FaultSpec(site="nvml.set_clocks", probability=0.1, duration_s=1.0)

    def test_link_degradation_needs_bandwidth_fraction(self):
        with pytest.raises(ValidationError, match="param"):
            FaultSpec(site="mpi.link_degraded", at_s=0.0, duration_s=1.0)
        with pytest.raises(ValidationError, match="param"):
            FaultSpec(
                site="mpi.link_degraded", at_s=0.0, duration_s=1.0, param=1.5
            )

    def test_transient_nvml_plan(self):
        assert not transient_nvml_plan(0.0)
        plan = transient_nvml_plan(0.1, seed=3)
        (spec,) = plan.specs
        assert spec.site == "nvml.set_clocks" and spec.probability == 0.1
        with pytest.raises(ValidationError):
            transient_nvml_plan(1.5)


class TestInjectorMechanics:
    def test_scheduled_spec_fires_once_at_deadline(self):
        inj = FaultPlan(
            specs=(FaultSpec(site="slurm.node_fail", at_s=1.0),)
        ).injector()
        assert inj.fires("slurm.node_fail", 0.5) is None
        assert inj.fires("slurm.node_fail", 1.2) is not None
        assert inj.fires("slurm.node_fail", 1.3) is None  # count exhausted
        assert len(inj.log.faults) == 1

    def test_target_filtering(self):
        inj = FaultPlan(
            specs=(FaultSpec(site="mpi.rank_fail", at_s=0.0, target=2),)
        ).injector()
        assert inj.fires("mpi.rank_fail", 1.0, target=1) is None
        assert inj.fires("mpi.rank_fail", 1.0, target=2) is not None

    def test_probabilistic_draws_are_seeded(self):
        def draws(seed):
            inj = FaultPlan(
                seed=seed,
                specs=(FaultSpec(site="nvml.set_clocks", probability=0.5),),
            ).injector()
            return [
                inj.fires("nvml.set_clocks", float(i)) is not None
                for i in range(64)
            ]

        assert draws(1) == draws(1)
        assert draws(1) != draws(2)
        assert any(draws(1)) and not all(draws(1))

    def test_window_logged_once(self):
        inj = FaultPlan(
            specs=(
                FaultSpec(
                    site="mpi.link_degraded", at_s=1.0, duration_s=2.0, param=0.5
                ),
            )
        ).injector()
        assert inj.active("mpi.link_degraded", 0.5) is None
        assert inj.active("mpi.link_degraded", 1.5) is not None
        assert inj.active("mpi.link_degraded", 2.5) is not None
        assert inj.active("mpi.link_degraded", 3.5) is None  # window over
        assert len(inj.log.faults) == 1  # one window, one fault record

    def test_first_active_matches_active_without_logging(self):
        """The pure query agrees with ``active`` on every time: half-open
        windows, target filtering, first match over several windows."""
        windows = (
            FaultSpec(
                site="hw.thermal_throttle", at_s=1.0, duration_s=1.0,
                param=900, target=0,
            ),
            FaultSpec(
                site="hw.thermal_throttle", at_s=0.5, duration_s=0.25,
                param=900, target=1,
            ),
        )
        times = [0.0, 0.5, 0.75, 0.99, 1.0, 1.5, 2.0, 2.5]
        for target, first in ((0, 4), (1, 1), (2, len(times))):
            inj = FaultPlan(specs=windows).injector()
            assert inj.first_active("hw.thermal_throttle", target, times) == first
            assert inj.first_active("hw.thermal_throttle", target, times[6:]) == 2
            assert inj.log.entries == []
            covered = [
                inj.active("hw.thermal_throttle", t, target=target) is not None
                for t in times
            ]
            assert covered[:first] == [False] * first
            assert first == len(times) or covered[first]

    def test_log_accounting(self):
        inj = FaultPlan(
            specs=(FaultSpec(site="slurm.node_fail", at_s=0.0),)
        ).injector()
        inj.fires("slurm.node_fail", 0.0, target="node000")
        inj.log.record_recovery(0.1, "slurm.node_fail", "node000", "drained")
        assert inj.log.counts() == {"slurm.node_fail": 1}
        assert [e["kind"] for e in inj.log.to_dicts()] == ["fault", "recovery"]


SITE = "nvml.set_clocks"


def _streams(inj):
    return {i: rng.bit_generator.state for i, rng in inj._rngs.items()}


class TestQuietPrefix:
    """``quiet_prefix`` answers a run of ``fires`` calls in one query."""

    @staticmethod
    def _assert_matches_fires(plan, times, target=0, primed=()):
        """Bulk query vs calling ``fires`` until one fires, on twin injectors.

        ``primed`` timestamps go through ``fires`` on both injectors first
        (to exhaust counts). The stream state after the query must equal
        the state after the ``k`` quiet ``fires`` calls, and the next call
        must fire the same spec on both.
        """
        scalar, bulk = plan.injector(), plan.injector()
        for t in primed:
            scalar.fires(SITE, t, target=target)
            bulk.fires(SITE, t, target=target)
        k_ref = len(times)
        for i, t in enumerate(times):
            before = _streams(scalar)
            if scalar.fires(SITE, t, target=target) is not None:
                k_ref = i
                break
        else:
            before = _streams(scalar)
        k = bulk.quiet_prefix(SITE, target, times)
        assert k == k_ref
        assert _streams(bulk) == before
        if k < len(times):
            assert bulk.fires(SITE, times[k], target=target) is not None
            assert bulk.log.to_dicts() == scalar.log.to_dicts()
            assert _streams(bulk) == _streams(scalar)
        return k

    def test_bulk_draws_equal_scalar_draws(self):
        from repro.common.rng import make_rng

        bulk, scalar = make_rng(11), make_rng(11)
        assert bulk.random(257).tolist() == [scalar.random() for _ in range(257)]
        assert bulk.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("seed", range(6))
    def test_probabilistic_spec_matches_fires(self, seed):
        plan = FaultPlan(seed=seed, specs=(FaultSpec(site=SITE, probability=0.05),))
        times = [0.001 * i for i in range(200)]
        assert self._assert_matches_fires(plan, times) < len(times)

    def test_no_firing_consumes_every_draw(self):
        plan = FaultPlan(seed=2, specs=(FaultSpec(site=SITE, probability=1e-9),))
        assert self._assert_matches_fires(plan, [0.0] * 50) == 50

    def test_target_restricted_spec(self):
        plan = FaultPlan(
            seed=4,
            specs=(
                FaultSpec(site=SITE, probability=0.5, target=1),
                FaultSpec(site=SITE, probability=0.02),
            ),
        )
        times = [0.01 * i for i in range(100)]
        for target in (0, 1):
            self._assert_matches_fires(plan, times, target=target)

    def test_count_exhausted_spec_draws_nothing(self):
        plan = FaultPlan(
            seed=5,
            specs=(
                FaultSpec(site=SITE, probability=1.0, count=1),
                FaultSpec(site=SITE, probability=0.03),
            ),
        )
        inj = plan.injector()
        inj.fires(SITE, 0.0, target=0)
        exhausted = inj._rngs[0].bit_generator.state
        inj.quiet_prefix(SITE, 0, [0.1] * 40)
        assert inj._rngs[0].bit_generator.state == exhausted
        self._assert_matches_fires(plan, [0.1 * i for i in range(1, 80)], primed=[0.0])

    @pytest.mark.parametrize("at_s", [0.25, 0.5, 10.0])
    def test_scheduled_and_probabilistic_on_one_site(self, at_s):
        plan = FaultPlan(
            seed=6,
            specs=(
                FaultSpec(site=SITE, probability=0.01),
                FaultSpec(site=SITE, at_s=at_s),
            ),
        )
        times = [0.005 * i for i in range(150)]
        self._assert_matches_fires(plan, times)

    @pytest.mark.parametrize(
        "spec",
        [FaultSpec(site=SITE, probability=1.0), FaultSpec(site=SITE, at_s=0.0)],
        ids=["certain", "scheduled-now"],
    )
    def test_zero_when_first_invocation_fires(self, spec):
        plan = FaultPlan(seed=8, specs=(spec,))
        inj = plan.injector()
        before = _streams(inj)
        assert inj.quiet_prefix(SITE, 0, [0.0, 1.0, 2.0]) == 0
        assert _streams(inj) == before
        assert self._assert_matches_fires(plan, [0.0, 1.0, 2.0]) == 0

    def test_unarmed_site_and_empty_query(self):
        inj = FaultPlan(
            specs=(FaultSpec(site="nvml.power_read", probability=1.0),)
        ).injector()
        assert inj.quiet_prefix(SITE, 0, [0.0, 1.0]) == 2
        assert inj.quiet_prefix("nvml.power_read", 0, []) == 0


# ------------------------------------------------------------- vendor layer


class TestVendorFaults:
    def test_error_strings_and_symbols(self):
        assert nvmlErrorString(NVML_ERROR_TIMEOUT) == "Timeout"
        assert "Unknown Error 424242" in nvmlErrorString(424242)
        exc = NVMLError(NVML_ERROR_UNKNOWN, "injected")
        assert "NVML_ERROR_UNKNOWN" in str(exc)

    def test_transient_codes_are_retryable_exceptions(self):
        exc = NVMLError(NVML_ERROR_TIMEOUT)
        assert isinstance(exc, NVMLTransientError)
        assert isinstance(exc, TransientError)
        assert exc.transient
        persistent = NVMLError(NVML_ERROR_GPU_IS_LOST)
        assert not isinstance(persistent, TransientError)
        assert not persistent.transient

    def test_power_read_fault_surfaces_through_nvml(self):
        gpu = _armed_gpu(FaultSpec(site="nvml.power_read", probability=1.0))
        lib = NVMLLibrary([gpu])
        lib.nvmlInit()
        handle = lib.nvmlDeviceGetHandleByIndex(0)
        with pytest.raises(NVMLTransientError):
            lib.nvmlDeviceGetPowerUsage(handle)

    def test_gpu_lost_is_persistent(self):
        gpu = _armed_gpu(FaultSpec(site="nvml.gpu_lost", at_s=0.0))
        lib = NVMLLibrary([gpu])
        lib.nvmlInit()
        handle = lib.nvmlDeviceGetHandleByIndex(0)
        for _ in range(3):
            with pytest.raises(NVMLError) as err:
                lib.nvmlDeviceGetName(handle)
            assert err.value.code == NVML_ERROR_GPU_IS_LOST


# ----------------------------------------------------------------- hw layer


class TestHardwareFaults:
    def test_thermal_throttle_caps_core_clock(self):
        cap = 900
        gpu = _armed_gpu(
            FaultSpec(
                site="hw.thermal_throttle", at_s=0.0, duration_s=60.0, param=cap
            )
        )
        gpu.set_application_clocks(877, NVIDIA_V100.max_core_mhz)
        record = gpu.execute(_kernel())
        assert record.core_mhz <= cap

    def test_sensor_dropout_raises_transient(self):
        gpu = _armed_gpu(FaultSpec(site="hw.sensor_dropout", probability=1.0))
        gpu.execute(_kernel())
        sensor = PowerSensor(gpu)
        with pytest.raises(SensorDropoutError):
            sensor.measure_energy(0.0, gpu.clock.now)

    def test_profiler_falls_back_to_analytic_estimate(self):
        gpu = _armed_gpu(FaultSpec(site="hw.sensor_dropout", probability=1.0))
        profiler = EnergyProfiler(gpu)
        gpu.execute(_kernel())
        energy = profiler.device_energy()
        assert energy == pytest.approx(gpu.energy_between(0.0, gpu.clock.now))
        assert profiler.degraded and profiler.fallback_count == 1
        recs = gpu.fault_injector.log.recoveries
        assert any("analytic estimate" in r.detail for r in recs)

    def test_stuck_sensor_repeats_last_reading(self):
        gpu = _armed_gpu(
            FaultSpec(
                site="hw.sensor_stuck", at_s=0.05, duration_s=60.0, param=None
            )
        )
        gpu.execute(_kernel())
        samples = PowerSensor(gpu).sample_window(0.0, 0.2)
        stuck = [s.power_w for s in samples if s.t >= 0.05]
        healthy = [s.power_w for s in samples if s.t < 0.05]
        assert len(stuck) > 1 and len(set(stuck)) == 1
        assert len(set(healthy)) > 1  # noise still varies before the window


# --------------------------------------------------------------- core layer


class TestScalerResilience:
    def test_retries_absorb_transient_failures(self):
        # The first two clock-set attempts fail, the third succeeds.
        gpu = _armed_gpu(
            FaultSpec(site="nvml.set_clocks", probability=1.0, count=2)
        )
        scaler = FrequencyScaler(gpu)
        assert scaler.set_frequency(877, 850) is True
        assert gpu.core_mhz == 850
        assert scaler.retry_count == 2
        assert scaler.retry_backoff_s > 0.0
        assert not scaler.degraded
        recs = gpu.fault_injector.log.recoveries
        assert any("2 retries" in r.detail for r in recs)

    def test_backoff_is_charged_in_virtual_time(self):
        gpu = _armed_gpu(
            FaultSpec(site="nvml.set_clocks", probability=1.0, count=2)
        )
        scaler = FrequencyScaler(gpu)
        scaler.set_frequency(877, 850)
        # 3 attempts x switch overhead + 2 backoff sleeps.
        expected = 3 * scaler.switch_overhead_s + scaler.retry_backoff_s
        assert gpu.clock.now == pytest.approx(expected)

    def test_exhaustion_degrades_to_driver_defaults(self):
        # All 5 attempts (1 + 4 retries) fail; the best-effort reset works.
        gpu = _armed_gpu(
            FaultSpec(site="nvml.set_clocks", probability=1.0, count=5)
        )
        gpu.set_application_clocks(877, 850)
        scaler = FrequencyScaler(gpu)
        assert scaler.set_frequency(877, 135) is False
        assert scaler.failed_switches == 1
        assert scaler.degraded and scaler.last_degraded
        assert gpu.core_mhz == NVIDIA_V100.default_core_mhz

    def test_persistent_errors_propagate(self):
        gpu = _armed_gpu(FaultSpec(site="nvml.gpu_lost", at_s=0.0))
        scaler = FrequencyScaler(gpu)
        with pytest.raises(NVMLError) as err:
            scaler.set_frequency(877, 850)
        assert err.value.code == NVML_ERROR_GPU_IS_LOST


class TestQueueResilience:
    def test_submit_validates_clocks_immediately(self):
        queue = SynergyQueue(SimulatedGPU(NVIDIA_V100))
        with pytest.raises(ConfigurationError):
            queue.submit(877, 123456, lambda h: h.parallel_for(8, _kernel(8)))
        # Nothing half-submitted: the queue still works afterwards.
        queue.submit(lambda h: h.parallel_for(1 << 20, _kernel(1 << 20)))
        queue.wait()
        assert len(queue.kernel_stats()) == 1

    def test_degraded_kernels_are_flagged(self):
        gpu = _armed_gpu(FaultSpec(site="nvml.set_clocks", probability=1.0))
        queue = SynergyQueue(gpu)
        queue.submit(877, 135, lambda h: h.parallel_for(1 << 20, _kernel(1 << 20)))
        queue.wait()
        (row,) = queue.kernel_stats()
        assert row["degraded"] is True
        summary = queue.summary()
        assert summary["degraded_kernels"] == 1.0
        assert summary["clock_retries"] > 0

    def test_miniapp_reports_degraded_kernels(self, trained_bundle, monkeypatch):
        """The app report counts what the rank queues' summaries flag."""
        import repro.apps.miniapp as miniapp

        queues = []

        class RecordingQueue(SynergyQueue):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                queues.append(self)

        monkeypatch.setattr(miniapp, "SynergyQueue", RecordingQueue)
        plan = FaultPlan(specs=(FaultSpec(site="nvml.set_clocks", probability=1.0),))
        gpus = [SimulatedGPU(NVIDIA_V100, index=i) for i in range(2)]
        for gpu in gpus:
            gpu.fault_injector = plan.injector()
        app = CloverLeaf(steps=2)
        compiled = SynergyCompiler(trained_bundle, NVIDIA_V100).compile(
            list(app.timestep_kernels()), (MIN_EDP,)
        )
        report = app.run(
            SimulatedComm(gpus, [0, 0]), target=MIN_EDP, plan=compiled.plan
        )
        assert len(queues) == 2
        assert report.degraded_kernels > 0
        assert report.degraded_kernels == sum(
            q.summary()["degraded_kernels"] for q in queues
        )


# -------------------------------------------------------------- slurm + mpi


def _build(n_nodes, specs, seed=0, gpus_per_node=2):
    plan = FaultPlan(seed=seed, specs=tuple(specs))
    cluster = Cluster.build(
        NVIDIA_V100,
        n_nodes=n_nodes,
        gpus_per_node=gpus_per_node,
        gres={NVGPUFREQ_GRES},
        fault_plan=plan,
    )
    plugin = NvGpuFreqPlugin()
    return cluster, plugin, Scheduler(cluster, plugins=[plugin])


def _mpi_payload(context):
    comm = launch_ranks(context)
    for gpu in comm.gpus:
        gpu.execute(_kernel())
    comm.barrier()
    return "done"


class TestSchedulerResilience:
    def test_node_failure_drains_and_requeues(self):
        cluster, plugin, scheduler = _build(
            2, [FaultSpec(site="slurm.node_fail", at_s=0.0, target="node000")]
        )
        job = scheduler.submit(
            JobSpec(name="j", n_nodes=1, payload=_mpi_payload)
        )
        assert job.state is JobState.COMPLETED
        assert job.result == "done"
        first = scheduler.jobs[job.requeue_of]
        assert first.state is JobState.NODE_FAIL
        assert first.requeued_as == job.job_id
        node = cluster.get_node("node000")
        assert node.down and not node.idle
        assert cluster.get_node("node000") not in job.nodes
        # The drained node's boards are lost to NVML from now on.
        assert all(
            cluster.fault_injector.device_lost(g.index) for g in node.gpus
        )

    def test_requeued_job_that_loses_a_node_again_stays_node_fail(self):
        # One requeue (MAX_REQUEUES): the second node failure ends the job
        # although a healthy node is still idle, and no third job is made.
        cluster, plugin, scheduler = _build(
            3,
            [
                FaultSpec(site="slurm.node_fail", at_s=0.0, target="node000"),
                FaultSpec(site="slurm.node_fail", at_s=0.0, target="node001"),
            ],
        )
        job = scheduler.submit(
            JobSpec(name="j", n_nodes=1, payload=_mpi_payload)
        )
        assert MAX_REQUEUES == 1
        assert job.state is JobState.NODE_FAIL
        assert job.requeued_as is None
        first = scheduler.jobs[job.requeue_of]
        assert first.state is JobState.NODE_FAIL
        assert first.requeue_of is None and first.requeued_as == job.job_id
        assert len(scheduler.jobs) == 2
        assert cluster.get_node("node002").idle

    def test_requeue_impossible_without_healthy_nodes(self):
        cluster, plugin, scheduler = _build(
            1, [FaultSpec(site="slurm.node_fail", at_s=0.0)]
        )
        job = scheduler.submit(
            JobSpec(name="j", n_nodes=1, payload=_mpi_payload)
        )
        assert job.state is JobState.NODE_FAIL
        assert "requeue impossible" in job.error

    def test_prologue_fault_fails_job_but_cleans_up(self):
        cluster, plugin, scheduler = _build(
            1, [FaultSpec(site="slurm.prologue_fail", at_s=0.0)]
        )
        job = scheduler.submit(
            JobSpec(
                name="j",
                n_nodes=1,
                exclusive=True,
                gres=frozenset({NVGPUFREQ_GRES}),
                payload=_mpi_payload,
            )
        )
        assert job.state is JobState.FAILED
        assert "prologue" in job.error
        for gpu in job.nodes[0].gpus:
            assert gpu.api_restricted
            assert gpu.core_mhz == NVIDIA_V100.default_core_mhz

    def test_dlopen_fault_denies_privileges_gracefully(self):
        cluster, plugin, scheduler = _build(
            1, [FaultSpec(site="slurm.dlopen_fail", at_s=0.0)]
        )
        job = scheduler.submit(
            JobSpec(
                name="j",
                n_nodes=1,
                exclusive=True,
                gres=frozenset({NVGPUFREQ_GRES}),
                payload=lambda c: "ran at default clocks",
            )
        )
        assert job.state is JobState.COMPLETED
        decision = plugin.decisions[(job.job_id, job.nodes[0].name)]
        assert decision is PluginDecision.NVML_UNAVAILABLE


class TestMpiFaults:
    def test_rank_failure_fails_the_job(self):
        cluster, plugin, scheduler = _build(
            1, [FaultSpec(site="mpi.rank_fail", at_s=0.0, target=1)]
        )
        job = scheduler.submit(
            JobSpec(name="j", n_nodes=1, payload=_mpi_payload)
        )
        assert job.state is JobState.FAILED
        assert "rank 1" in job.error

    def test_rank_failure_raises_out_of_collectives(self):
        gpus = [SimulatedGPU(NVIDIA_V100, index=i) for i in range(2)]
        inj = FaultPlan(
            specs=(FaultSpec(site="mpi.rank_fail", at_s=0.0, target=0),)
        ).injector()
        comm = SimulatedComm(gpus, [0, 0], injector=inj)
        with pytest.raises(RankFailure) as err:
            comm.allreduce(8.0)
        assert err.value.rank == 0

    def test_link_degradation_stretches_transfers(self):
        def allreduce_time(inject: bool):
            gpus = [SimulatedGPU(NVIDIA_V100, index=i) for i in range(2)]
            inj = None
            if inject:
                inj = FaultPlan(
                    specs=(
                        FaultSpec(
                            site="mpi.link_degraded",
                            at_s=0.0,
                            duration_s=100.0,
                            param=0.25,
                        ),
                    )
                ).injector()
            comm = SimulatedComm(gpus, [0, 1], injector=inj)
            return comm.allreduce(1 << 20)

        assert allreduce_time(True) == pytest.approx(4.0 * allreduce_time(False))


# -------------------------------------------------- epilogue clock guarantee


class TestEpilogueUnderFaults:
    def test_epilogue_retries_transient_reset_failures(self):
        cluster, plugin, scheduler = _build(
            1, [FaultSpec(site="nvml.set_clocks", probability=1.0, count=2)]
        )

        def lower_then_crash(context):
            for gpu in context.gpus:
                gpu.set_application_clocks(877, NVIDIA_V100.core_freqs_mhz[0])
            raise RuntimeError("crashed mid-kernel")

        job = scheduler.submit(
            JobSpec(
                name="crash",
                n_nodes=1,
                exclusive=True,
                gres=frozenset({NVGPUFREQ_GRES}),
                payload=lower_then_crash,
            )
        )
        assert job.state is JobState.FAILED
        # §7.2 guarantee: the epilogue absorbed the transient failures and
        # still restored the production posture on every board.
        for gpu in job.nodes[0].gpus:
            assert gpu.core_mhz == NVIDIA_V100.default_core_mhz
            assert gpu.api_restricted
        assert plugin.cleanup_failures == []

    def test_epilogue_continues_past_lost_boards(self):
        cluster, plugin, scheduler = _build(
            2, [FaultSpec(site="slurm.node_fail", at_s=0.0, target="node000")]
        )

        def lower_then_sync(context):
            for gpu in context.gpus:
                gpu.set_application_clocks(877, NVIDIA_V100.core_freqs_mhz[0])
            comm = launch_ranks(context)
            comm.barrier()

        job = scheduler.submit(
            JobSpec(
                name="j",
                n_nodes=2,
                exclusive=True,
                gres=frozenset({NVGPUFREQ_GRES}),
                payload=lower_then_sync,
            )
        )
        # Both nodes were needed, one is gone: the requeue is impossible.
        assert job.state is JobState.NODE_FAIL
        # The dead node's boards could not be cleaned (GPU_IS_LOST) ...
        failed = {(n, i) for _, n, i, _ in plugin.cleanup_failures}
        assert ("node000", 0) in failed
        # ... but the surviving node was still fully restored.
        for gpu in cluster.get_node("node001").gpus:
            assert gpu.core_mhz == NVIDIA_V100.default_core_mhz
            assert gpu.api_restricted


# ------------------------------------------------------- acceptance scenario


class TestAcceptance:
    """The issue's e2e: CloverLeaf under node failure + flaky clock-sets."""

    SPECS = (
        FaultSpec(site="nvml.set_clocks", probability=0.05),
        FaultSpec(site="slurm.node_fail", at_s=0.01, target="node001"),
    )

    def _run(self, trained_bundle):
        cluster, plugin, scheduler = _build(
            5, self.SPECS, seed=2023, gpus_per_node=4
        )
        app = CloverLeaf(steps=3)
        compiled = SynergyCompiler(trained_bundle, NVIDIA_V100).compile(
            list(app.timestep_kernels()), (MIN_EDP,)
        )

        def payload(context):
            comm = launch_ranks(context)
            return app.run(comm, target=MIN_EDP, plan=compiled.plan)

        job = scheduler.submit(
            JobSpec(
                name="cloverleaf-e2e",
                n_nodes=4,
                exclusive=True,
                gres=frozenset({NVGPUFREQ_GRES}),
                payload=payload,
            )
        )
        return cluster, plugin, scheduler, job

    def test_end_to_end_resilience(self, trained_bundle):
        cluster, plugin, scheduler, job = self._run(trained_bundle)

        # The job completed despite losing a node mid-run.
        assert job.state is JobState.COMPLETED
        first = scheduler.jobs[job.requeue_of]
        assert first.state is JobState.NODE_FAIL
        assert first.requeued_as == job.job_id
        assert cluster.get_node("node001").down

        # Every surviving GPU ended at driver defaults, restricted.
        for node in cluster.nodes:
            if node.down:
                continue
            for gpu in node.gpus:
                assert gpu.core_mhz == NVIDIA_V100.default_core_mhz
                assert gpu.mem_mhz == NVIDIA_V100.default_mem_mhz
                assert gpu.api_restricted

        # The fault log accounts for every injected fault: exactly one
        # node failure, and transient clock-set faults matched by the
        # retry/degrade recovery records.
        log = cluster.fault_injector.log
        counts = log.counts()
        assert counts["slurm.node_fail"] == 1
        assert counts.get("nvml.set_clocks", 0) >= 1
        assert sum(counts.values()) == len(log.faults)
        assert any(
            r.site == "slurm.node_fail" and "drained" in r.detail
            for r in log.recoveries
        )

        # The app-level report saw the absorbed faults.
        report = job.result
        assert report.clock_retries >= 1

    def test_end_to_end_is_deterministic(self, trained_bundle):
        c1, _, s1, j1 = self._run(trained_bundle)
        c2, _, s2, j2 = self._run(trained_bundle)
        assert (
            c1.fault_injector.log.to_dicts() == c2.fault_injector.log.to_dicts()
        )
        assert j1.result == j2.result
        assert [s1.jobs[i].state for i in s1.jobs] == [
            s2.jobs[i].state for i in s2.jobs
        ]


class TestSiteIndexEquivalence:
    """Regression: the per-site spec index must be invisible in behaviour.

    ``FaultInjector.fires``/``active`` now walk a site-keyed index instead
    of the whole plan per invocation. A reference injector driven through
    a literal full-plan walk (the pre-index implementation) over the same
    seeded call sequence must produce a byte-identical fault log, the same
    returned specs, and the same per-spec firing counters.
    """

    @staticmethod
    def _fires_reference(inj, site, now, target=None, detail=""):
        """The pre-index ``fires`` body, driven over ``inj``'s state."""
        for i, spec in enumerate(inj.plan.specs):
            if spec.site != site or not spec.matches(target):
                continue
            if spec.count and inj._fired[i] >= spec.count:
                continue
            if spec.scheduled:
                if now < spec.at_s:
                    continue
            elif not inj._rngs[i].random() < spec.probability:
                continue
            inj._fired[i] += 1
            inj.log.record_fault(now, site, target, detail)
            return spec
        return None

    @staticmethod
    def _active_reference(inj, site, now, target=None):
        """The pre-index ``active`` body, driven over ``inj``'s state."""
        for i, spec in enumerate(inj.plan.specs):
            if spec.site != site or not spec.matches(target):
                continue
            if not spec.scheduled or spec.duration_s is None:
                continue
            if spec.at_s <= now < spec.at_s + spec.duration_s:
                if i not in inj._activated:
                    inj._activated.add(i)
                    inj._fired[i] += 1
                    inj.log.record_fault(
                        now, site, target,
                        f"window [{spec.at_s:.6f}, "
                        f"{spec.at_s + spec.duration_s:.6f}]s",
                    )
                return spec
        return None

    def _mixed_plan(self) -> FaultPlan:
        return FaultPlan(
            seed=11,
            specs=(
                FaultSpec(site="mpi.rank_fail", probability=0.05, count=2),
                FaultSpec(site="slurm.node_fail", at_s=0.75, target="node001"),
                FaultSpec(site="nvml.set_clocks", probability=0.2, count=3),
                FaultSpec(site="mpi.rank_fail", probability=0.1, target=3),
                FaultSpec(
                    site="mpi.link_degraded", at_s=0.2,
                    duration_s=0.3, param=0.5,
                ),
                FaultSpec(site="hw.thermal_throttle", at_s=0.1,
                          duration_s=0.5, param=900.0),
            ),
        )

    def test_fires_and_active_match_full_plan_walk(self):
        plan = self._mixed_plan()
        indexed = plan.injector()
        reference = plan.injector()
        calls = []
        for step in range(400):
            t = step * 0.01
            calls.append(("fires", "mpi.rank_fail", t, step % 8))
            calls.append(("fires", "slurm.node_fail", t, f"node{step % 4:03d}"))
            calls.append(("fires", "nvml.set_clocks", t, step % 2))
            calls.append(("active", "mpi.link_degraded", t, None))
            calls.append(("active", "hw.thermal_throttle", t, step % 2))
        for kind, site, t, target in calls:
            if kind == "fires":
                got = indexed.fires(site, t, target=target, detail="d")
                want = self._fires_reference(
                    reference, site, t, target=target, detail="d"
                )
            else:
                got = indexed.active(site, t, target=target)
                want = self._active_reference(reference, site, t, target=target)
            assert got is want or (got == want)
        assert indexed.log.to_dicts() == reference.log.to_dicts()
        assert indexed.log.to_dicts()  # the mix actually fired something
        assert indexed._fired == reference._fired

    def test_unarmed_site_reports_not_armed(self):
        inj = self._mixed_plan().injector()
        assert inj.armed("mpi.rank_fail")
        assert not inj.armed("slurm.drain")
        # Unarmed polls are no-ops and leave no log entries.
        assert inj.fires("slurm.drain", 0.0, target="node000") is None
        assert inj.log.to_dicts() == []
