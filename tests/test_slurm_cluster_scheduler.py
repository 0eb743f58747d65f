"""Cluster model and scheduler: allocation, hooks, energy accounting."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError
from repro.hw.device import SimulatedGPU
from repro.hw.specs import NVIDIA_V100
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster, Node
from repro.slurm.job import JobSpec, JobState
from repro.slurm.scheduler import Scheduler


@pytest.fixture
def cluster() -> Cluster:
    return Cluster.build(NVIDIA_V100, n_nodes=3, gpus_per_node=4,
                         gres={NVGPUFREQ_GRES})


@pytest.fixture
def scheduler(cluster) -> Scheduler:
    return Scheduler(cluster)


def _work_payload(context):
    kernel = KernelIR(
        "job_kernel",
        InstructionMix(float_add=8, float_mul=8, gl_access=4),
        work_items=1 << 22,
    )
    for gpu in context.gpus:
        gpu.execute(kernel)
    return len(context.gpus)


class TestCluster:
    def test_topology(self, cluster):
        assert len(cluster.nodes) == 3
        assert cluster.total_gpus == 12
        assert all(n.gpu_count == 4 for n in cluster.nodes)

    def test_production_posture(self, cluster):
        """Provisioned boards are API-restricted at default clocks (§2.3)."""
        for node in cluster.nodes:
            for gpu in node.gpus:
                assert gpu.api_restricted
                assert gpu.core_mhz == NVIDIA_V100.default_core_mhz

    def test_gres_tags(self, cluster):
        assert all(n.has_gres(NVGPUFREQ_GRES) for n in cluster.nodes)
        assert not cluster.nodes[0].has_gres("other")

    def test_get_node(self, cluster):
        assert cluster.get_node("node001").name == "node001"
        with pytest.raises(ConfigurationError):
            cluster.get_node("node999")

    def test_invalid_topology(self):
        with pytest.raises(ConfigurationError):
            Cluster.build(NVIDIA_V100, n_nodes=0)

    def test_node_needs_gpus(self):
        with pytest.raises(ConfigurationError):
            Node("empty", gpus=[])

    def test_index_base_and_prefix_offset_topology(self):
        shard = Cluster.build(NVIDIA_V100, n_nodes=2, gpus_per_node=2,
                              index_base=10, node_prefix="s3n")
        assert [n.name for n in shard.nodes] == ["s3n000", "s3n001"]
        indices = [g.index for n in shard.nodes for g in n.gpus]
        assert indices == [10, 11, 12, 13]
        with pytest.raises(ConfigurationError):
            Cluster.build(NVIDIA_V100, n_nodes=1, index_base=-1)

    def test_duplicate_node_names_rejected(self):
        clk = VirtualClock()
        gpu_a = SimulatedGPU(NVIDIA_V100, clock=VirtualClock())
        gpu_b = SimulatedGPU(NVIDIA_V100, clock=VirtualClock())
        with pytest.raises(ConfigurationError):
            Cluster([Node("n", [gpu_a]), Node("n", [gpu_b])], clk)


class TestScheduler:
    def test_job_completes(self, scheduler):
        job = scheduler.submit(JobSpec(name="ok", n_nodes=2, payload=_work_payload))
        assert job.state is JobState.COMPLETED
        assert job.result == 8  # 2 nodes x 4 GPUs

    def test_insufficient_nodes_rejected(self, scheduler):
        with pytest.raises(ConfigurationError):
            scheduler.submit(JobSpec(name="big", n_nodes=5))

    def test_failed_payload_marks_job_failed(self, scheduler):
        def boom(context):
            raise RuntimeError("kaboom")

        job = scheduler.submit(JobSpec(name="bad", n_nodes=1, payload=boom))
        assert job.state is JobState.FAILED
        assert "kaboom" in job.error

    def test_nodes_released_after_failure(self, scheduler, cluster):
        def boom(context):
            raise RuntimeError("x")

        scheduler.submit(JobSpec(name="bad", n_nodes=3, payload=boom))
        assert len(cluster.idle_nodes()) == 3

    def test_energy_accounting_positive(self, scheduler):
        job = scheduler.submit(JobSpec(name="e", n_nodes=1, payload=_work_payload))
        assert job.gpu_energy_j > 0
        assert job.elapsed_s > 0

    def test_energy_covers_all_allocated_gpus(self, scheduler):
        """Idle boards in the allocation still draw power."""
        def one_gpu_only(context):
            kernel = KernelIR(
                "k", InstructionMix(float_add=512, gl_access=4),
                work_items=1 << 24,
            )
            context.gpus[0].execute(kernel)

        job = scheduler.submit(
            JobSpec(name="partial", n_nodes=1, payload=one_gpu_only)
        )
        busy = job.nodes[0].gpus[0]
        busy_energy = busy.energy_between(job.start_time_s, job.end_time_s)
        assert job.gpu_energy_j > busy_energy  # idle boards add in

    def test_sequential_jobs_get_increasing_ids(self, scheduler):
        a = scheduler.submit(JobSpec(name="a", n_nodes=1, payload=_work_payload))
        b = scheduler.submit(JobSpec(name="b", n_nodes=1, payload=_work_payload))
        assert b.job_id == a.job_id + 1

    def test_wall_clock_advances_with_jobs(self, scheduler, cluster):
        t0 = cluster.clock.now
        scheduler.submit(JobSpec(name="t", n_nodes=1, payload=_work_payload))
        assert cluster.clock.now > t0

    def test_job_report(self, scheduler):
        job = scheduler.submit(JobSpec(name="r", n_nodes=2, payload=_work_payload))
        report = scheduler.job_report(job.job_id)
        assert report["state"] == "COMPLETED"
        assert len(report["nodes"]) == 2
        with pytest.raises(ConfigurationError):
            scheduler.job_report(999)

    def test_exclusive_flag_propagates(self, scheduler):
        seen = {}

        def check(context):
            seen["exclusive"] = context.nodes[0].exclusive

        scheduler.submit(
            JobSpec(name="x", n_nodes=1, exclusive=True, payload=check)
        )
        assert seen["exclusive"] is True


class TestJobSpec:
    def test_validation(self):
        from repro.common.errors import ValidationError

        with pytest.raises(ValidationError):
            JobSpec(name="", n_nodes=1)
        with pytest.raises(ValidationError):
            JobSpec(name="x", n_nodes=0)

    def test_gres_request(self):
        spec = JobSpec(name="x", n_nodes=1, gres=frozenset({NVGPUFREQ_GRES}))
        assert spec.requests_gres(NVGPUFREQ_GRES)
        assert not spec.requests_gres("other")
