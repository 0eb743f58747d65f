"""Cluster and node model.

A Marconi-100-like cluster: nodes with several GPUs each, GRES tags
(``nvgpufreq`` marks nodes whose boards allow the plugin's privilege
dance), and a shared virtual clock. Cluster provisioning restores the
production posture: every GPU starts API-restricted at default clocks.
"""

from __future__ import annotations

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError
from repro.faults import FaultInjector, FaultPlan
from repro.hw.device import SimulatedGPU
from repro.hw.specs import GPUSpec
from repro.obs.session import TraceSession, resolve_trace
from repro.vendor.nvml import NVMLLibrary

#: The GRES tag gating the paper's frequency-scaling capability.
NVGPUFREQ_GRES = "nvgpufreq"


class Node:
    """One compute node: GPUs, GRES tags, and its local NVML instance."""

    def __init__(
        self,
        name: str,
        gpus: list[SimulatedGPU],
        gres: set[str] | None = None,
    ) -> None:
        if not gpus:
            raise ConfigurationError(f"node {name!r} needs at least one GPU")
        self.name = name
        self.gpus = list(gpus)
        self.gres: set[str] = set(gres or ())
        if all(g.spec.vendor == "nvidia" for g in gpus):
            self.nvml = NVMLLibrary(self.gpus)
        else:
            self.nvml = None
        #: Job id currently running here, None when idle.
        self.running_job: int | None = None
        #: Whether the running job holds the node exclusively.
        self.exclusive: bool = False
        #: Drained after a node failure; never allocated again.
        self.down: bool = False
        #: Shared fault-injection plane (attached by the cluster).
        self.fault_injector: FaultInjector | None = None

    @property
    def gpu_count(self) -> int:
        """Number of boards on the node."""
        return len(self.gpus)

    def has_gres(self, tag: str) -> bool:
        """Whether the node carries a GRES tag."""
        return tag in self.gres

    @property
    def idle(self) -> bool:
        """Whether the node can take a job (no job running, not drained)."""
        return self.running_job is None and not self.down

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.name!r}, gpus={self.gpu_count}, gres={sorted(self.gres)})"


class Cluster:
    """A set of nodes sharing one virtual clock."""

    def __init__(
        self,
        nodes: list[Node],
        clock: VirtualClock,
        trace: TraceSession | None = None,
    ) -> None:
        if not nodes:
            raise ConfigurationError("cluster needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate node names in cluster")
        self.nodes = list(nodes)
        self.clock = clock
        #: Observability session shared by scheduler/launcher layers.
        self.trace = resolve_trace(trace)
        self._raw_trace = trace
        #: Shared fault-injection plane (None on the happy path).
        self.fault_injector: FaultInjector | None = None

    def attach_faults(self, injector: FaultInjector) -> None:
        """Thread a fault injector through every node and board."""
        self.fault_injector = injector
        for node in self.nodes:
            node.fault_injector = injector
            for gpu in node.gpus:
                gpu.fault_injector = injector

    @classmethod
    def build(
        cls,
        spec: GPUSpec,
        n_nodes: int,
        gpus_per_node: int = 4,
        gres: set[str] | None = None,
        clock: VirtualClock | None = None,
        fault_plan: FaultPlan | None = None,
        trace: TraceSession | None = None,
        index_base: int = 0,
        node_prefix: str = "node",
    ) -> "Cluster":
        """Provision a homogeneous cluster in production posture.

        Every GPU starts with API restriction enabled (only root may change
        clocks) and driver-default clocks — the state §2.3 describes for
        large installations. A ``fault_plan`` arms the chaos plane: its
        injector is attached to the cluster, every node and every board.

        ``index_base`` offsets every GPU index (and therefore its trace
        track and fault-injection address) and ``node_prefix`` the node
        names, so several clusters — e.g. the service plane's partition
        shards — can share one trace session without colliding.
        """
        if n_nodes < 1 or gpus_per_node < 1:
            raise ConfigurationError(
                f"invalid topology: {n_nodes} nodes x {gpus_per_node} GPUs"
            )
        if index_base < 0:
            raise ConfigurationError(
                f"index_base cannot be negative ({index_base!r})"
            )
        clk = clock if clock is not None else VirtualClock()
        nodes = []
        for i in range(n_nodes):
            gpus = []
            for j in range(gpus_per_node):
                # Each board gets its own clock so MPI ranks progress
                # concurrently in virtual time; the scheduler synchronizes
                # device clocks with the cluster wall clock at job edges.
                gpu = SimulatedGPU(
                    spec,
                    clock=VirtualClock(clk.now),
                    index=index_base + i * gpus_per_node + j,
                )
                gpu.set_api_restriction(True)
                gpus.append(gpu)
            nodes.append(
                Node(name=f"{node_prefix}{i:03d}", gpus=gpus, gres=set(gres or ()))
            )
        cluster = cls(nodes, clk, trace=trace)
        if fault_plan is not None:
            cluster.attach_faults(fault_plan.injector(trace=trace))
        return cluster

    def idle_nodes(self) -> list[Node]:
        """Nodes with no running job."""
        return [n for n in self.nodes if n.idle]

    def get_node(self, name: str) -> Node:
        """Look a node up by name."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise ConfigurationError(f"unknown node {name!r}")
