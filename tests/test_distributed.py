"""Distributed command-graph scheduler tests.

Coverage for the tentpole layers: distributed ranges/buffers/accesses,
dependency-edge derivation (RAW through halo pulls, WAR against
same-wave neighbour transfers, WAW through last writers, gather
collectives), the global frequency planner (rank-uniform clocks, the
critical path at MAX_PERF, slack ranks downclocked inside the SLA
budget), executor parity between the wave-vectorized engine and the
per-event scalar reference, the fallback preconditions of the facade,
and the retroactive per-rank trace tracks.
"""

from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError, ValidationError
from repro.core.compiler import plan_global_frequencies
from repro.core.sweepcache import scoped_cache
from repro.distributed import (
    HALO,
    KERNEL,
    CommandGraph,
    build_comm,
    build_stencil_graph,
    run_graph,
    run_graph_scalar,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw.device import SimulatedGPU
from repro.hw.specs import get_spec
from repro.mpi.comm import SimulatedComm
from repro.mpi.network import NetworkModel
from repro.sycl import DistributedAccess, DistributedBuffer, DistributedRange
from repro.sycl.accessor import AccessMode
from repro.validate.reference import CommandGraphReference

pytestmark = pytest.mark.distributed

RTOL = 1e-12

SPEC = get_spec("A100")


def _kernel(name: str):
    from repro.apps import get_benchmark

    return get_benchmark(name).kernel


@pytest.fixture(scope="module")
def stencil():
    """A warmed 6-rank stencil: comm, graph, plan and MAX_PERF baseline."""
    with scoped_cache():
        comm = build_comm(SPEC, 6)
        graph = build_stencil_graph(comm, steps=3, elems_per_rank=1 << 18)
        kernels = graph.rank_kernels()
        plan = plan_global_frequencies(
            SPEC, kernels, sla_factor=1.25, cache=True
        )
        baseline = plan_global_frequencies(
            SPEC, kernels, sla_factor=1.25, objective="MAX_PERF", cache=True
        )
        yield comm, graph, plan, baseline


# ------------------------------------------------------- ranges and buffers


class TestDistributedRange:
    def test_even_partition(self):
        rng = DistributedRange(12, 4)
        assert rng.counts.tolist() == [3, 3, 3, 3]
        assert rng.slice_of(2) == (6, 9)
        assert len(rng) == 12

    def test_uneven_partition_front_loads_remainder(self):
        rng = DistributedRange(10, 4)
        assert rng.counts.tolist() == [3, 3, 2, 2]
        assert rng.bounds.tolist() == [0, 3, 6, 8, 10]
        assert sum(rng.count_of(r) for r in range(4)) == 10

    def test_more_ranks_than_elements(self):
        rng = DistributedRange(2, 4)
        assert rng.counts.tolist() == [1, 1, 0, 0]
        assert rng.count_of(3) == 0

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            DistributedRange(0, 4)
        with pytest.raises(ValidationError):
            DistributedRange(8, 0)
        with pytest.raises(ValidationError):
            DistributedRange(8, 2).slice_of(2)

    def test_partition_arrays_frozen(self):
        rng = DistributedRange(8, 2)
        with pytest.raises(ValueError):
            rng.counts[0] = 99


class TestDistributedBuffer:
    def test_block_nbytes(self):
        buf = DistributedBuffer(DistributedRange(10, 4), itemsize=8)
        assert buf.block_nbytes(0) == 24
        assert buf.block_nbytes(3) == 16

    def test_names_default_unique(self):
        rng = DistributedRange(4, 2)
        a, b = DistributedBuffer(rng), DistributedBuffer(rng)
        assert a.name != b.name

    def test_access_sugar_modes(self):
        buf = DistributedBuffer(DistributedRange(8, 2), name="f")
        assert buf.read(halo=2).mode is AccessMode.READ
        assert buf.write().mode is AccessMode.WRITE
        assert buf.read_write().mode is AccessMode.READ_WRITE
        assert buf.read(halo=3).halo_nbytes == 3 * buf.itemsize

    def test_halo_on_write_rejected(self):
        buf = DistributedBuffer(DistributedRange(8, 2))
        with pytest.raises(ValidationError):
            DistributedAccess(buf, AccessMode.WRITE, halo=1)
        with pytest.raises(ValidationError):
            DistributedAccess(buf, AccessMode.READ, halo=-1)

    def test_bad_itemsize(self):
        with pytest.raises(ValidationError):
            DistributedBuffer(DistributedRange(8, 2), itemsize=0)


# ------------------------------------------------------------ graph building


def _graph(n_ranks: int = 4) -> CommandGraph:
    return CommandGraph(n_ranks, [r // 2 for r in range(n_ranks)])


class TestGraphDerivation:
    def test_waw_chain_through_last_writer(self):
        g = _graph(2)
        buf = DistributedBuffer(DistributedRange(8, 2), name="b")
        k = _kernel("sobel3")
        first = g.parallel_for(k, [buf.write()])
        second = g.parallel_for(k, [buf.write()])
        for a, b in zip(first, second):
            assert a.nid in b.deps

    def test_raw_waits_on_own_halo_pull(self):
        g = _graph(3)
        buf = DistributedBuffer(DistributedRange(12, 3), name="b")
        k = _kernel("sobel3")
        g.parallel_for(k, [buf.write()])
        kernels = g.parallel_for(k, [buf.read(halo=2)])
        halos = [n for n in g.nodes if n.kind == HALO]
        assert len(halos) == 3  # every rank has at least one neighbour
        halo_of = {h.rank: h.nid for h in halos}
        for node in kernels:
            assert halo_of[node.rank] in node.deps

    def test_war_same_wave_neighbour_halo_blocks_write(self):
        g = _graph(3)
        buf = DistributedBuffer(DistributedRange(12, 3), name="b")
        k = _kernel("sobel3")
        g.parallel_for(k, [buf.write()])
        g.parallel_for(k, [buf.read(halo=2)])
        # Next wave writes the field: rank 1's write must wait for both
        # neighbours' halo pulls (they read rank 1's previous block).
        writers = g.parallel_for(k, [buf.read_write()])
        halos = {n.nid: n for n in g.nodes if n.kind == HALO}
        mid = writers[1]
        neighbour_pulls = [
            d for d in mid.deps if d in halos and halos[d].rank != 1
        ]
        assert sorted(halos[d].rank for d in neighbour_pulls) == [0, 2]

    def test_halo_costs_priced_by_network_distance(self):
        # Ranks 0|1 share a node; rank 1|2 cross nodes: the cross-node
        # pull must cost at least the intra-node one.
        g = CommandGraph(4, [0, 0, 1, 1])
        buf = DistributedBuffer(DistributedRange(16, 4), name="b")
        k = _kernel("sobel3")
        g.parallel_for(k, [buf.write()])
        g.parallel_for(k, [buf.read(halo=4)])
        cost = {n.rank: n.cost_s for n in g.nodes if n.kind == HALO}
        assert cost[1] >= cost[0] > 0.0
        assert cost[1] == cost[2]  # mirrored cross-node exchange

    def test_gather_depends_on_all_writers_and_orders_next_write(self):
        g = _graph(3)
        buf = DistributedBuffer(DistributedRange(12, 3), name="b")
        k = _kernel("sobel3")
        writers = g.parallel_for(k, [buf.write()])
        gather = g.gather(buf)
        assert gather.deps == tuple(sorted(w.nid for w in writers))
        assert gather.rank == -1
        assert gather.cost_s > 0.0
        after = g.parallel_for(k, [buf.write()])
        for node in after:
            assert gather.nid in node.deps

    def test_single_rank_gather_is_free(self):
        g = CommandGraph(1, [0])
        buf = DistributedBuffer(DistributedRange(8, 1), name="b")
        g.parallel_for(_kernel("sobel3"), [buf.write()])
        assert g.gather(buf).cost_s == 0.0

    def test_idle_ranks_skip_node_creation(self):
        g = _graph(4)
        buf = DistributedBuffer(DistributedRange(16, 4), name="b")
        k = _kernel("gemm")
        created = g.parallel_for([k, None, None, k], [buf.read_write()])
        assert [n.rank for n in created] == [0, 3]
        assert g.counts() == {KERNEL: 2}

    def test_builder_argument_validation(self):
        g = _graph(2)
        buf = DistributedBuffer(DistributedRange(8, 2), name="b")
        k = _kernel("sobel3")
        with pytest.raises(ValidationError):
            g.parallel_for([k], [buf.write()])  # wrong per-rank length
        with pytest.raises(ValidationError):
            g.parallel_for([None, None], [buf.write()])  # no active rank
        other = DistributedBuffer(DistributedRange(9, 3), name="c")
        with pytest.raises(ValidationError):
            g.parallel_for(k, [other.write()])  # rank-count mismatch
        with pytest.raises(ValidationError):
            CommandGraph(0, [])
        with pytest.raises(ValidationError):
            CommandGraph(2, [0])

    def test_edges_topological_and_deduped(self, stencil):
        _, graph, _, _ = stencil
        assert graph.check_edges()
        for node in graph.nodes:
            assert list(node.deps) == sorted(set(node.deps))

    def test_rank_kernels_matches_kernel_nodes(self, stencil):
        _, graph, _, _ = stencil
        per_rank = graph.rank_kernels()
        assert sum(len(ks) for ks in per_rank) == graph.counts()[KERNEL]
        # Edge ranks carry the boundary kernel; interior ranks don't.
        names0 = {k.name for k in per_rank[0]}
        names_mid = {k.name for k in per_rank[2]}
        assert "gemm" in names0 and "gemm" not in names_mid
        # Weak scaling: the node count grows linearly with the rank count.
        sizes = [
            len(build_stencil_graph(build_comm(SPEC, n), steps=3).nodes)
            for n in (12, 24)
        ]
        assert abs(sizes[1] / sizes[0] - 2.0) < 0.05 * 2.0


# ------------------------------------------------- builder vs the oracle


def _node_signature(graph) -> list[tuple]:
    return [
        (n.nid, n.kind, n.rank, n.wave, n.label, n.deps, n.nbytes, n.cost_s,
         n.kernel)
        for n in graph.nodes
    ]


_ACCESS = st.tuples(
    st.integers(0, 2),  # buffer index (taken modulo the buffer count)
    st.sampled_from(["read", "write", "read_write"]),
    st.sampled_from([0, 1, 64]),  # halo width; dropped on pure writes
)
_WAVE = st.one_of(
    st.tuples(
        st.just("gather"), st.integers(0, 2), st.sampled_from([None, 512.0])
    ),
    st.tuples(
        st.just("pf"),
        # per-rank kernel choice: -1 idles the rank; an int list of length
        # 1 is one kernel for every rank
        st.lists(st.integers(-1, 2), min_size=1, max_size=9),
        st.lists(_ACCESS, min_size=1, max_size=3),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    n_ranks=st.integers(1, 9),
    ranks_per_node=st.integers(1, 3),
    nodes_per_group=st.integers(1, 2),
    n_bufs=st.integers(1, 3),
    waves=st.lists(_WAVE, min_size=1, max_size=8),
)
def test_columnar_builder_matches_the_per_node_oracle(
    n_ranks, ranks_per_node, nodes_per_group, n_bufs, waves
):
    """Random wave programs give the same nodes and wave records from the
    columnar builder and :class:`CommandGraphReference`, bitwise."""
    kernels = [_kernel(name) for name in ("sobel3", "median", "gemm")]
    node_of_rank = [r // ranks_per_node for r in range(n_ranks)]
    network = NetworkModel(nodes_per_group=nodes_per_group)
    rng = DistributedRange(97 * n_ranks, n_ranks)
    bufs = [
        DistributedBuffer(rng, itemsize=4 * (i + 1), name=f"b{i}")
        for i in range(n_bufs)
    ]
    graph = CommandGraph(n_ranks, node_of_rank, network=network)
    oracle = CommandGraphReference(n_ranks, node_of_rank, network=network)
    for wave in waves:
        if wave[0] == "gather":
            _, bi, nbytes = wave
            for g in (graph, oracle):
                g.gather(bufs[bi % n_bufs], nbytes=nbytes)
            continue
        _, choice, access_spec = wave
        accesses = [
            DistributedAccess(
                bufs[bi % n_bufs], AccessMode[mode.upper()],
                halo=0 if mode == "write" else halo,
            )
            for bi, mode, halo in access_spec
        ]
        if len(choice) == 1 and choice[0] >= 0:
            kernel = kernels[choice[0]]
        else:
            kernel = [
                kernels[c] if c >= 0 else None
                for c in (choice * n_ranks)[:n_ranks]
            ]
            if all(k is None for k in kernel):
                kernel[0] = kernels[0]
        for g in (graph, oracle):
            g.parallel_for(kernel, accesses)
    assert _node_signature(graph) == _node_signature(oracle)
    assert graph.submissions == oracle.submissions
    assert graph.check_edges()
    assert graph.counts() == {
        kind: sum(n.kind == kind for n in oracle.nodes)
        for kind in dict.fromkeys(n.kind for n in oracle.nodes)
    }
    per_rank = [[] for _ in range(n_ranks)]
    for n in oracle.nodes:
        if n.kind == KERNEL:
            per_rank[n.rank].append(n.kernel)
    assert [list(ks) for ks in graph.rank_kernels()] == per_rank


# ------------------------------------------------------------ global planner


class TestGlobalPlanner:
    def test_critical_rank_is_edge_and_maxperf(self, stencil):
        _, graph, plan, _ = stencil
        assert plan.critical_rank in (0, graph.n_ranks - 1)
        assert plan.rank_targets[plan.critical_rank] == "MAX_PERF"

    def test_slack_ranks_downclocked_within_budget(self, stencil):
        _, graph, plan, _ = stencil
        slack = [
            r for r, t in enumerate(plan.rank_targets) if t != "MAX_PERF"
        ]
        assert slack  # interior ranks have exploitable slack
        crit_core = plan.rank_clocks[plan.critical_rank][1]
        for r in slack:
            assert plan.rank_clocks[r][1] < crit_core
            assert plan.est_time_s[r] <= plan.budget_s
            assert plan.est_energy_j[r] <= plan.maxperf_energy_j[r]

    def test_energy_bound_vs_maxperf(self, stencil):
        _, _, plan, baseline = stencil
        assert plan.total_energy_j <= baseline.total_energy_j
        assert plan.saved_j > 0.0
        assert baseline.saved_j == 0.0

    def test_rank_uniform_entries(self, stencil):
        _, graph, plan, _ = stencil
        for rank, ks in enumerate(graph.rank_kernels()):
            pairs = {plan.clocks_for(rank, k.name) for k in ks}
            assert pairs == {plan.rank_clocks[rank]}

    def test_clocks_for_unplanned_kernel_raises(self, stencil):
        _, _, plan, _ = stencil
        with pytest.raises(ConfigurationError):
            plan.clocks_for(0, "not_planned")
        with pytest.raises(ConfigurationError):
            plan.clocks_for(10_000, "sobel3")

    def test_planner_argument_validation(self):
        k = _kernel("sobel3")
        with pytest.raises(ConfigurationError):
            plan_global_frequencies(SPEC, [[k]], sla_factor=0.5)
        with pytest.raises(ConfigurationError):
            plan_global_frequencies(SPEC, [[k]], sla_factor=float("nan"))
        with pytest.raises(ConfigurationError):
            plan_global_frequencies(SPEC, [])
        with pytest.raises(ConfigurationError):
            plan_global_frequencies(SPEC, [[k], []])
        with pytest.raises(ConfigurationError):
            plan_global_frequencies(SPEC, [[k]], objective="FASTEST")

    def test_min_energy_objective_saves_at_least_as_much(self):
        with scoped_cache():
            comm = build_comm(SPEC, 4)
            graph = build_stencil_graph(
                comm, steps=2, elems_per_rank=1 << 18
            )
            kernels = graph.rank_kernels()
            edp = plan_global_frequencies(SPEC, kernels, cache=True)
            mine = plan_global_frequencies(
                SPEC, kernels, objective="MIN_ENERGY", cache=True
            )
        assert mine.total_energy_j <= edp.total_energy_j + 1e-12


# ---------------------------------------------------------------- executors


class TestExecutors:
    def test_batched_scalar_parity(self, stencil):
        comm, graph, plan, _ = stencil
        batched = run_graph(graph, comm, plan)  # pure — boards untouched
        scalar = run_graph_scalar(graph, comm, plan)
        assert batched.mode == "batched" and batched.fallback is None
        np.testing.assert_allclose(
            batched.start_s, scalar.start_s, rtol=RTOL
        )
        np.testing.assert_allclose(
            batched.finish_s, scalar.finish_s, rtol=RTOL
        )
        np.testing.assert_allclose(
            batched.rank_energy_j, scalar.rank_energy_j, rtol=RTOL
        )
        np.testing.assert_allclose(
            batched.rank_time_s, scalar.rank_time_s, rtol=RTOL
        )
        assert batched.rank_switches.tolist() == scalar.rank_switches.tolist()
        assert batched.completion_s == pytest.approx(
            scalar.completion_s, rel=RTOL
        )

    def test_rank_uniform_plan_costs_one_switch_per_rank(self, stencil):
        comm, graph, plan, _ = stencil
        result = run_graph(graph, comm, plan)
        assert all(s <= 1 for s in result.rank_switches.tolist())

    def test_halo_overlaps_compute(self, stencil):
        comm, graph, plan, _ = stencil
        r = run_graph(graph, comm, plan)
        halo_iv = [
            (r.start_s[n.nid], r.finish_s[n.nid])
            for n in graph.nodes if n.kind == HALO and n.cost_s > 0.0
        ]
        kern_iv = [
            (r.start_s[n.nid], r.finish_s[n.nid])
            for n in graph.nodes if n.kind == KERNEL
        ]
        assert any(
            hs < ke and ks < he
            for hs, he in halo_iv for ks, ke in kern_iv
        )

    def test_engine_scalar_forced(self, stencil):
        _, graph, plan, _ = stencil
        comm = build_comm(SPEC, graph.n_ranks)
        result = run_graph_scalar(graph, comm, plan)
        assert result.mode == "scalar" and result.fallback is None

    def test_comm_size_mismatch_rejected(self, stencil):
        _, graph, plan, _ = stencil
        small = build_comm(SPEC, 2)
        with pytest.raises(ValidationError):
            run_graph(graph, small, plan)
        with pytest.raises(ValidationError):
            run_graph_scalar(graph, small, plan)

    def test_fault_injector_forces_scalar_fallback(self, stencil):
        _, graph, plan, _ = stencil
        plan_f = FaultPlan(
            seed=3,
            specs=(FaultSpec(site="mpi.rank_fail", probability=1e-9),),
        )
        comm = build_comm(SPEC, graph.n_ranks, injector=plan_f.injector())
        result = run_graph(graph, comm, plan)
        assert result.mode == "scalar" and result.fallback == "faults"

    def test_powercap_forces_scalar_fallback(self, stencil):
        _, graph, plan, _ = stencil
        comm = build_comm(SPEC, graph.n_ranks)
        gpu = comm.gpus[0]
        gpu.set_power_limit(
            SPEC.idle_power_w
            + 0.5 * (gpu.default_power_limit_w - SPEC.idle_power_w),
            privileged=True,
        )
        result = run_graph(graph, comm, plan)
        assert result.mode == "scalar" and result.fallback == "powercap"

    def test_capped_rank_energy_is_the_sum_of_its_records(self):
        # Half the ranks capped: the facade falls back to the per-event
        # path, whose rank energy is that board's record energies summed
        # in submission order, bitwise.
        with scoped_cache():
            comm = build_comm(SPEC, 8)
            graph = build_stencil_graph(comm, steps=2, elems_per_rank=1 << 16)
            plan = plan_global_frequencies(
                SPEC, graph.rank_kernels(), sla_factor=1.25, cache=True
            )
            for gpu in comm.gpus[::2]:
                gpu.set_power_limit(
                    0.6 * gpu.default_power_limit_w, privileged=True
                )
            result = run_graph(graph, comm, plan)
        assert result.fallback == "powercap"
        for r, gpu in enumerate(comm.gpus):
            assert gpu.records
            assert result.rank_energy_j[r] == sum(
                record.energy_j for record in gpu.records
            )

    def test_heterogeneous_boards_rejected_before_any_node_runs(self, stencil):
        _, graph, plan, _ = stencil
        comm = build_comm(SPEC, graph.n_ranks)
        from repro.common.clock import VirtualClock
        from repro.hw.device import SimulatedGPU

        comm.gpus[-1] = SimulatedGPU(get_spec("V100"), clock=VirtualClock())
        # A plan names one device; the mismatched board is named in the
        # error, raised before any board runs a kernel.
        with pytest.raises(ConfigurationError, match="V100"):
            run_graph(graph, comm, plan)
        assert all(not g.records for g in comm.gpus)

    def test_result_arrays_read_only_and_summary(self, stencil):
        comm, graph, plan, _ = stencil
        r = run_graph(graph, comm, plan)
        with pytest.raises(ValueError):
            r.start_s[0] = 1.0
        s = r.summary()
        assert s["ranks"] == float(graph.n_ranks)
        assert s["kernels"] == float(r.n_kernels)
        assert s["kernel_energy_j"] == pytest.approx(r.total_energy_j)
        assert s["clock_switches"] == float(r.rank_switches.sum())

    def test_build_comm_validation(self):
        with pytest.raises(ValidationError):
            build_comm(SPEC, 0)
        with pytest.raises(ValidationError):
            build_comm(SPEC, 4, ranks_per_node=0)

    @pytest.mark.parametrize(
        "n_ranks, ranks_per_node",
        [
            pytest.param(2.5, 4, id="fractional-ranks"),
            pytest.param(float("nan"), 4, id="nan-ranks"),
            pytest.param(True, 4, id="bool-ranks"),
            pytest.param("4", 4, id="str-ranks"),
            pytest.param(4, 1.5, id="fractional-per-node"),
            pytest.param(4, float("nan"), id="nan-per-node"),
            pytest.param(4, True, id="bool-per-node"),
        ],
    )
    def test_build_comm_rejects_non_integer_counts(self, n_ranks, ranks_per_node):
        with pytest.raises(ValidationError, match="must be an integer"):
            build_comm(SPEC, n_ranks, ranks_per_node=ranks_per_node)


def _comm_on_path(path: str, n_ranks: int):
    """A communicator that sends ``run_graph`` down ``path``."""
    if path == "faults":
        plan_f = FaultPlan(
            seed=3, specs=(FaultSpec(site="mpi.rank_fail", probability=1e-9),)
        )
        return build_comm(SPEC, n_ranks, injector=plan_f.injector())
    comm = build_comm(SPEC, n_ranks)
    if path == "powercap":
        gpu = comm.gpus[0]
        gpu.set_power_limit(0.6 * gpu.default_power_limit_w, privileged=True)
    return comm


def _foreign_plan(graph, kind: str):
    """A plan that does not fit ``graph`` on the A100 communicator."""
    if kind == "device":
        return plan_global_frequencies(get_spec("V100"), graph.rank_kernels())
    smaller = build_stencil_graph(build_comm(SPEC, graph.n_ranks - 1), steps=1)
    return plan_global_frequencies(SPEC, smaller.rank_kernels())


@pytest.mark.parametrize("path", ["batched", "powercap", "faults"])
@pytest.mark.parametrize("mistake", ["device", "ranks"])
@pytest.mark.parametrize("runner", [run_graph, run_graph_scalar])
def test_foreign_plan_rejected_before_any_node_runs(stencil, path, mistake, runner):
    """The same bad plan raises ConfigurationError on every executor
    path, and no board has run a kernel when it does."""
    _, graph, _, _ = stencil
    comm = _comm_on_path(path, graph.n_ranks)
    plan = _foreign_plan(graph, mistake)
    with pytest.raises(ConfigurationError):
        runner(graph, comm, plan)
    assert all(not g.records and g.clock.now == 0.0 for g in comm.gpus)


# ------------------------------------------------------- boards on demand


@pytest.fixture
def board_count(monkeypatch):
    """How many ``SimulatedGPU`` boards have been built so far."""
    made = [0]
    init = SimulatedGPU.__init__

    def counting_init(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimulatedGPU, "__init__", counting_init)
    return lambda: made[0]


def _stencil_run(n_ranks: int, comm=None, steps: int = 2):
    """Graph, plan and ``run_graph`` result on ``comm`` (default: a fresh
    ``build_comm``)."""
    comm = build_comm(SPEC, n_ranks) if comm is None else comm
    graph = build_stencil_graph(comm, steps=steps, elems_per_rank=1 << 16)
    plan = plan_global_frequencies(
        SPEC, graph.rank_kernels(), sla_factor=1.25, cache=True
    )
    return comm, graph, plan, run_graph(graph, comm, plan)


class TestBoardsOnDemand:
    """``build_comm`` builds no board; a batched graph run reads the
    boards' state as arrays, and only what reads a board builds it."""

    def test_batched_run_builds_no_board(self, board_count):
        with scoped_cache():
            comm, _, _, result = _stencil_run(2048)
        assert result.mode == "batched"
        assert board_count() == 0
        assert comm.gpus.built == 0

    def test_batched_run_leaves_few_collectable_objects(self):
        with scoped_cache():
            _stencil_run(2048)  # warm the sweep cache and the model memos
            gc.collect()
            before = len(gc.get_objects())
            kept = _stencil_run(2048)
            gc.collect()
            grown = len(gc.get_objects()) - before
        assert kept[3].mode == "batched"
        # Far fewer than one gc-tracked object per rank; a board alone
        # carries several lists and dicts.
        assert grown < 2048 // 4, grown

    def test_capping_a_rank_builds_only_its_board(self, board_count, monkeypatch):
        import repro.distributed.runner as runner

        built_at_fallback = []
        scalar = runner.run_graph_scalar

        def recording_scalar(graph, comm, plan):
            built_at_fallback.append((board_count(), comm.gpus.built))
            return scalar(graph, comm, plan)

        monkeypatch.setattr(runner, "run_graph_scalar", recording_scalar)
        comm = build_comm(SPEC, 16)
        gpu = comm.gpus[5]
        gpu.set_power_limit(0.6 * gpu.default_power_limit_w, privileged=True)
        assert board_count() == comm.gpus.built == 1
        with scoped_cache():
            _, _, _, result = _stencil_run(16, comm)
        assert result.fallback == "powercap"
        assert built_at_fallback == [(1, 1)]
        assert comm.gpus.built == 16 and board_count() == 16

    def test_board_sequence_is_a_mutable_sequence(self):
        comm = build_comm(SPEC, 6)
        assert len(comm.gpus) == comm.size == 6 and comm.gpus.built == 0
        evens = comm.gpus[::2]
        assert [g.index for g in evens] == [0, 2, 4] and comm.gpus.built == 3
        assert comm.gpus[-1] is comm.gpus[5] and comm.gpus.built == 4
        board = SimulatedGPU(SPEC, VirtualClock(), index=9)
        comm.gpus[1] = board
        assert comm.gpus[1] is board and comm.gpus.built == 5
        with pytest.raises(IndexError):
            comm.gpus[6] = board
        assert [g.index for g in comm.gpus] == [0, 9, 2, 3, 4, 5]
        assert comm.gpus.built == 6


_TOUCHES = ("read", "advance", "clocks", "cap")


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    n_ranks=st.integers(1, 32),
    steps=st.integers(1, 2),
)
def test_lazy_boards_match_eager_boards(data, n_ranks, steps):
    """A communicator whose boards are built on demand runs a graph
    exactly like one whose boards were all built up front: every
    ``ExecutionResult`` field and every board's records are bitwise
    equal, whichever ranks were touched before the run and how."""
    touched = data.draw(
        st.dictionaries(
            st.integers(0, n_ranks - 1),
            st.tuples(
                st.sampled_from(_TOUCHES),
                st.integers(0, len(SPEC.core_freqs_mhz) - 1),
                st.sampled_from((0.0, 1e-4, 0.25)),
            ),
            max_size=n_ranks,
        )
    )
    lazy = build_comm(SPEC, n_ranks)
    eager = SimulatedComm(
        [SimulatedGPU(SPEC, VirtualClock(), index=r) for r in range(n_ranks)],
        [r // 4 for r in range(n_ranks)],
    )
    for comm in (lazy, eager):
        for rank, (touch, core_index, delta) in touched.items():
            gpu = comm.gpus[rank]
            if touch == "advance":
                gpu.clock.advance(delta)
            elif touch == "clocks":
                gpu.set_application_clocks(
                    SPEC.default_mem_mhz, SPEC.core_freqs_mhz[core_index]
                )
            elif touch == "cap":
                gpu.set_power_limit(
                    0.6 * gpu.default_power_limit_w, privileged=True
                )
    assert lazy.gpus.built == len(touched)
    with scoped_cache():
        *_, got = _stencil_run(n_ranks, lazy, steps)
        *_, want = _stencil_run(n_ranks, eager, steps)
    capped = any(t == "cap" for t, _, _ in touched.values())
    assert got.mode == ("scalar" if capped else "batched")
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name
    for r in range(n_ranks):
        assert list(lazy.gpus[r].records) == list(eager.gpus[r].records)
        assert lazy.gpus[r].clock.now == eager.gpus[r].clock.now


# ------------------------------------------------------------- obs tracks


class TestGraphTrace:
    def test_emits_per_rank_tracks(self, stencil):
        from repro.obs import TraceSession
        from repro.obs.dist import emit_graph_trace

        comm, graph, plan, _ = stencil
        result = run_graph(graph, comm, plan)
        session = TraceSession()
        emitted = emit_graph_trace(session, graph, result)
        assert emitted == len(graph.nodes)
        spans = session.tracer.spans
        tracks = {s.track for s in spans}
        assert {f"rank{r}" for r in range(graph.n_ranks)} <= tracks
        assert "mpi" in tracks
        cats = {s.track: s.category for s in spans}
        assert cats["mpi"] == "collective"

    def test_disabled_session_is_noop(self, stencil):
        from repro.obs import NULL_TRACE
        from repro.obs.dist import emit_graph_trace

        comm, graph, plan, _ = stencil
        result = run_graph(graph, comm, plan)
        assert emit_graph_trace(NULL_TRACE, graph, result) == 0
