"""Per-partition scheduler shards.

A :class:`PartitionShard` is one slice of the service plane: its own
virtual clock, its own small :class:`Cluster` (provisioned in production
posture with the ``nvgpufreq`` GRES so the plugin's privilege dance
runs), its own :class:`Scheduler` with the :class:`NvGpuFreqPlugin`
attached. Shards run cooperatively in virtual time — the plane advances
every shard's clock to each drain boundary, and each shard then drains
its tenants' queues through ``Scheduler.submit_many``, whose per-job
accounting reads only each board's in-window timeline. GPU indices and
node names are offset per shard (``index_base``/``node_prefix``) so all
shards can share one trace session without track collisions — the
lumos-style fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.clock import VirtualClock
from repro.core.compiler import FrequencyPlan
from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S
from repro.core.queue import SynergyQueue
from repro.hw.specs import GPUSpec
from repro.obs.session import TraceSession
from repro.slurm.cluster import NVGPUFREQ_GRES, Cluster
from repro.slurm.job import Job, JobContext, JobSpec
from repro.slurm.plugin import NvGpuFreqPlugin
from repro.slurm.scheduler import Scheduler


@dataclass(frozen=True)
class TenantBatchPayload:
    """Job payload draining one tenant's pending submissions.

    Like :class:`~repro.engine.payload.KernelBatchPayload`, but tagged
    with the owning tenant (the queue's ``owner``, so every
    ``queue.kernel`` span carries the tenant name) and returning the
    per-submission start times and modeled kernel energies the plane
    needs for scheduling-latency percentiles and per-tenant energy
    attribution.
    """

    tenant: str
    requests: tuple
    plan: FrequencyPlan | None = None
    switch_overhead_s: float = DEFAULT_SWITCH_OVERHEAD_S

    def __call__(self, context: JobContext) -> dict[str, object]:
        from repro.engine.batch import KernelBatch

        batch = KernelBatch.from_requests(self.requests)
        start_s: list[float] = []
        kernel_energy_j = 0.0
        summaries = []
        for gpu in context.gpus:
            queue = SynergyQueue(
                gpu,
                plan=self.plan,
                switch_overhead_s=self.switch_overhead_s,
                trace=context.trace,
                validate=context.validator,
                owner=self.tenant,
            )
            result = queue.submit_batch(batch)
            queue.wait()
            start_s.extend(result.start_s.tolist())
            kernel_energy_j += float(np.sum(result.energy_j))
            summaries.append(queue.summary())
        return {
            "tenant": self.tenant,
            "start_s": start_s,
            "kernel_energy_j": kernel_energy_j,
            "gpus": summaries,
        }


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
        n_nodes: int = 1,
        gpus_per_node: int = 1,
        plan: FrequencyPlan | None = None,
        switch_overhead_s: float = DEFAULT_SWITCH_OVERHEAD_S,
        trace: TraceSession | None = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.plan = plan
        self.switch_overhead_s = switch_overhead_s
        self.cluster = Cluster.build(
            spec,
            n_nodes,
            gpus_per_node=gpus_per_node,
            gres={NVGPUFREQ_GRES},
            clock=VirtualClock(),
            trace=trace,
            index_base=self.shard_id * n_nodes * gpus_per_node,
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

    def drain(self, queues: "list[tuple[str, list]]") -> list[DrainResult]:
        """Drain tenant queues in the given order via ``submit_many``.

        ``queues`` holds ``(tenant_name, requests)`` pairs, already in the
        plane's priority order; each becomes one exclusive ``nvgpufreq``
        job so the plugin grants clock privileges for the batch and the
        epilogue restores production posture between tenants.
        """
        queues = [(tenant, reqs) for tenant, reqs in queues if reqs]
        if not queues:
            return []
        specs = [
            JobSpec(
                name=f"svc.{tenant}",
                n_nodes=1,
                exclusive=True,
                gres=frozenset({NVGPUFREQ_GRES}),
                payload=TenantBatchPayload(
                    tenant=tenant,
                    requests=tuple(reqs),
                    plan=self.plan,
                    switch_overhead_s=self.switch_overhead_s,
                ),
            )
            for tenant, reqs in queues
        ]
        jobs = self.scheduler.submit_many(specs)
        results = []
        for (tenant, reqs), job in zip(queues, jobs):
            payload_result = job.result or {}
            results.append(
                DrainResult(
                    tenant=tenant,
                    job=job,
                    n=len(reqs),
                    start_s=tuple(payload_result.get("start_s", ())),
                    kernel_energy_j=float(
                        payload_result.get("kernel_energy_j", 0.0)
                    ),
                )
            )
        return results
