"""Per-partition scheduler shards.

A :class:`PartitionShard` is one slice of the service plane: its own
virtual clock, its own small :class:`Cluster` (provisioned in production
posture with the ``nvgpufreq`` GRES so the plugin's privilege dance
runs), its own :class:`Scheduler` with the :class:`NvGpuFreqPlugin`
attached. Shards run cooperatively in virtual time — the plane advances
every shard's clock to each drain boundary, and each shard then drains
its tenants' queues (one columnar :class:`KernelBatch` each) through
``Scheduler.submit_many``, whose per-job accounting reads only each
board's in-window timeline. GPU indices and
node names are offset per shard (``index_base``/``node_prefix``) so all
shards can share one trace session without track collisions — the
lumos-style fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import VirtualClock
from repro.core.compiler import FrequencyPlan
from repro.engine.batch import KernelBatch
from repro.engine.payload import KernelBatchPayload
from repro.hw.specs import GPUSpec
from repro.obs.session import TraceSession
from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
from repro.slurm.job import Job, JobSpec
from repro.slurm.plugin import NvGpuFreqPlugin
from repro.slurm.scheduler import Scheduler


@dataclass(frozen=True)
class DrainResult:
    """One tenant's drain outcome within a shard cycle."""

    tenant: str
    job: Job
    n: int
    #: Per-submission execution start times (virtual seconds).
    start_s: tuple[float, ...]
    #: Modeled kernel energy (J) — the order-invariant attribution basis.
    kernel_energy_j: float


class PartitionShard:
    """One partition: a private cluster + scheduler draining tenant queues."""

    def __init__(
        self,
        shard_id: int,
        spec: GPUSpec,
        *,
        plan: FrequencyPlan | None = None,
        trace: TraceSession | None = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.plan = plan
        # One single-GPU node per shard: GPU index = shard id.
        self.cluster = Cluster.build(
            spec,
            1,
            gpus_per_node=1,
            gres={NVGPUFREQ_GRES},
            clock=VirtualClock(),
            trace=trace,
            index_base=self.shard_id,
            node_prefix=f"s{self.shard_id}n",
        )
        self.scheduler = Scheduler(
            self.cluster, plugins=[NvGpuFreqPlugin(trace=trace)]
        )

    @property
    def now(self) -> float:
        """The shard's virtual wall clock."""
        return self.cluster.clock.now

    def advance_to(self, t_s: float) -> None:
        """Advance the shard clock to a drain boundary (never backwards)."""
        if t_s > self.cluster.clock.now:
            self.cluster.clock.advance_to(t_s)

    def drain(self, queues: "list[tuple[str, KernelBatch]]") -> list[DrainResult]:
        """Drain tenant queues in the given order via ``submit_many``.

        ``queues`` holds ``(tenant_name, batch)`` pairs, already in the
        plane's priority order; each non-empty batch becomes one
        exclusive ``nvgpufreq`` job so the plugin grants clock privileges
        for the batch and the epilogue restores production posture
        between tenants.
        """
        queues = [(tenant, batch) for tenant, batch in queues if len(batch)]
        if not queues:
            return []
        specs = [
            JobSpec(
                name=f"svc.{tenant}",
                n_nodes=1,
                exclusive=True,
                gres=frozenset({NVGPUFREQ_GRES}),
                payload=KernelBatchPayload(
                    requests=batch, plan=self.plan, owner=tenant
                ),
            )
            for tenant, batch in queues
        ]
        jobs = self.scheduler.submit_many(specs)
        results = []
        for (tenant, batch), job in zip(queues, jobs):
            payload_result = job.result or {}
            results.append(
                DrainResult(
                    tenant=tenant,
                    job=job,
                    n=len(batch),
                    start_s=tuple(payload_result.get("start_s", ())),
                    kernel_energy_j=float(
                        payload_result.get("kernel_energy_j", 0.0)
                    ),
                )
            )
        return results
