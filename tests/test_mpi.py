"""Simulated MPI: network model, communicator semantics, launcher binding."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ValidationError
from repro.hw.device import SimulatedGPU
from repro.hw.specs import NVIDIA_V100
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.mpi.comm import SimulatedComm
from repro.mpi.launcher import launch_ranks
from repro.mpi.network import NetworkModel
from repro.slurm.cluster import Cluster
from repro.slurm.job import JobContext


@pytest.fixture
def net() -> NetworkModel:
    return NetworkModel()


def _make_comm(n_ranks: int, ranks_per_node: int = 2) -> SimulatedComm:
    gpus = [SimulatedGPU(NVIDIA_V100, clock=VirtualClock()) for _ in range(n_ranks)]
    node_of_rank = [i // ranks_per_node for i in range(n_ranks)]
    return SimulatedComm(gpus, node_of_rank)


class TestNetworkModel:
    def test_intra_node_cheaper_than_inter(self, net):
        nbytes = 1 << 20
        assert net.transfer_time(nbytes, 0, 0) < net.transfer_time(nbytes, 0, 1)

    def test_inter_group_extra_hop(self, net):
        nbytes = 8
        same_group = net.transfer_time(nbytes, 0, 1)
        cross_group = net.transfer_time(nbytes, 0, net.nodes_per_group)
        assert cross_group > same_group

    def test_bandwidth_term_scales(self, net):
        small = net.transfer_time(1 << 10, 0, 1)
        large = net.transfer_time(1 << 30, 0, 1)
        assert large > 100 * small

    def test_allreduce_zero_for_single_rank(self, net):
        assert net.allreduce_time(1024, [0]) == 0.0

    def test_allreduce_grows_with_ranks(self, net):
        t4 = net.allreduce_time(1 << 20, [0, 0, 1, 1])
        t8 = net.allreduce_time(1 << 20, [0, 0, 1, 1, 2, 2, 3, 3])
        assert t8 > t4

    def test_negative_bytes_rejected(self, net):
        with pytest.raises(ValidationError):
            net.transfer_time(-1, 0, 1)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            NetworkModel(inter_node_bandwidth=0.0)
        with pytest.raises(ValidationError):
            NetworkModel(nodes_per_group=0)


class TestSimulatedComm:
    def test_size(self):
        assert _make_comm(4).size == 4

    def test_barrier_synchronizes(self):
        comm = _make_comm(3)
        comm.gpus[0].clock.advance(1.0)
        comm.gpus[1].clock.advance(0.3)
        t = comm.barrier()
        assert t == pytest.approx(1.0)
        assert all(g.clock.now == pytest.approx(1.0) for g in comm.gpus)

    def test_barrier_charges_waiting_time_as_comm(self):
        comm = _make_comm(2)
        comm.gpus[0].clock.advance(2.0)
        comm.barrier()
        assert comm.comm_time_s[1] == pytest.approx(2.0)
        assert comm.comm_time_s[0] == pytest.approx(0.0)

    def test_allreduce_synchronizes_all(self):
        comm = _make_comm(4)
        comm.gpus[2].clock.advance(0.5)
        done = comm.allreduce(8.0)
        assert done > 0.5
        assert all(g.clock.now == pytest.approx(done) for g in comm.gpus)

    def test_halo_exchange_advances_everyone(self):
        comm = _make_comm(4)
        before = [g.clock.now for g in comm.gpus]
        comm.halo_exchange(1 << 16)
        assert all(g.clock.now > b for g, b in zip(comm.gpus, before))

    def test_halo_exchange_single_rank_noop(self):
        comm = _make_comm(1)
        t = comm.halo_exchange(1 << 16)
        assert t == 0.0

    def test_halo_exchange_single_rank_polls_fault_plane(self):
        """Regression: the size==1 early return skipped ``_check_faults``.

        An active rank/node failure must surface out of *every* collective
        — barrier and allreduce raised, but a single-rank halo exchange
        returned before polling the fault plane.
        """
        from repro.faults import (
            FaultInjector, FaultPlan, FaultSpec, NodeFailure, RankFailure,
        )

        rank_plan = FaultPlan(
            seed=3, specs=(FaultSpec(site="mpi.rank_fail", at_s=0.0),)
        )
        gpus = [SimulatedGPU(NVIDIA_V100, clock=VirtualClock())]
        comm = SimulatedComm(gpus, [0], injector=FaultInjector(rank_plan))
        with pytest.raises(RankFailure):
            comm.halo_exchange(1 << 16)

        node_plan = FaultPlan(
            seed=3, specs=(FaultSpec(site="slurm.node_fail", at_s=0.0),)
        )
        gpus = [SimulatedGPU(NVIDIA_V100, clock=VirtualClock())]
        comm = SimulatedComm(gpus, [0], injector=FaultInjector(node_plan))
        with pytest.raises(NodeFailure):
            comm.halo_exchange(1 << 16)

    def test_comm_time_accumulates(self):
        comm = _make_comm(4)
        comm.halo_exchange(1 << 20)
        comm.allreduce(8.0)
        assert comm.comm_time_s.max() > 0

    def test_total_gpu_energy(self):
        comm = _make_comm(2)
        kernel = KernelIR(
            "k", InstructionMix(float_add=64, gl_access=2), work_items=1 << 22
        )
        for gpu in comm.gpus:
            gpu.execute(kernel)
        comm.barrier()
        energy = comm.total_gpu_energy(0.0)
        assert energy > 0

    def test_mismatched_node_map_rejected(self):
        gpus = [SimulatedGPU(NVIDIA_V100, clock=VirtualClock())]
        with pytest.raises(ValidationError):
            SimulatedComm(gpus, [0, 1])


class TestLauncher:
    def test_one_rank_per_gpu(self):
        cluster = Cluster.build(NVIDIA_V100, n_nodes=2, gpus_per_node=4)
        context = JobContext(job_id=1, nodes=cluster.nodes, clock=cluster.clock)
        comm = launch_ranks(context)
        assert comm.size == 8
        assert comm.node_of_rank == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_ranks_per_node_limit(self):
        cluster = Cluster.build(NVIDIA_V100, n_nodes=2, gpus_per_node=4)
        context = JobContext(job_id=1, nodes=cluster.nodes, clock=cluster.clock)
        comm = launch_ranks(context, ranks_per_node=2)
        assert comm.size == 4

    def test_invalid_ranks_per_node(self):
        cluster = Cluster.build(NVIDIA_V100, n_nodes=1, gpus_per_node=2)
        context = JobContext(job_id=1, nodes=cluster.nodes, clock=cluster.clock)
        with pytest.raises(ValidationError):
            launch_ranks(context, ranks_per_node=3)
