"""The multi-tenant scheduling service plane.

:class:`SchedulingService` ties the pieces together: a
:class:`~repro.service.tenant.TenantRegistry` with admission control, a
set of :class:`~repro.service.shard.PartitionShard` schedulers (tenants
are placed on shards by a stable hash of their name), and a
:class:`~repro.service.store.JobStore` recording every decision.

The plane is *virtual-time-cooperative*: submissions arrive with
explicit arrival times (from the load generator's seeded arrival
process), queue per tenant under quota control, and are drained in
cycles — :meth:`drain` advances every shard's clock to the cycle
boundary and runs one exclusive batched job per (tenant, shard) through
``Scheduler.submit_many``. Priority orders tenants *within* a cycle
(lower band drains first, rotation breaks ties inside a band), but every
admitted submission drains in the next cycle, so priority shapes latency
and never starves anyone.

Per-submission scheduling latency is ``execution start − arrival``;
per-tenant energy attribution uses the *modeled kernel energy* (the sum
of each kernel's power×time at its operating point), which is invariant
under batch-order permutation — the property the Hypothesis suite pins
down. Joules saved compare that against a MAX_PERF baseline per kernel.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.core.compiler import FrequencyPlan
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.obs.session import TraceSession, resolve_trace
from repro.service.shard import PartitionShard
from repro.service.store import JobStore
from repro.service.tenant import (
    AdmissionDecision,
    RejectReason,
    Tenant,
    TenantRegistry,
)


def shard_of(name: str, n_partitions: int) -> int:
    """Stable tenant → partition placement (process-stable hash)."""
    return derive_seed("service.shard", name) % n_partitions


class SchedulingService:
    """Admission control + sharded draining + replayable event log."""

    def __init__(
        self,
        spec: GPUSpec,
        *,
        n_partitions: int = 4,
        plan: FrequencyPlan | None = None,
        baseline_j: dict[str, float] | None = None,
        trace: TraceSession | None = None,
    ) -> None:
        if n_partitions < 1:
            raise ConfigurationError(
                f"service needs >= 1 partition ({n_partitions!r})"
            )
        self.spec = spec
        self.trace = resolve_trace(trace)
        self.registry = TenantRegistry()
        self.store = JobStore()
        #: Per-kernel MAX_PERF energy (J per execution), the savings baseline.
        self.baseline_j = dict(baseline_j or {})
        self.shards = [
            PartitionShard(p, spec, plan=plan, trace=trace)
            for p in range(n_partitions)
        ]
        self._shard_of: dict[str, int] = {}
        #: Pending queues: tenant -> list of (sub_id, arrival_s, kernel).
        self._pending: dict[str, list[tuple[int, float, KernelIR]]] = {}
        #: Accounted modeled kernel energy per tenant (budget basis).
        self._energy_j: dict[str, float] = {}
        #: Per-tenant kernel execution counts (baseline basis).
        self._kernel_counts: dict[str, dict[str, int]] = {}
        #: Accounted board energy per tenant (includes idle/overhead power).
        self._board_energy_j: dict[str, float] = {}
        self._admitted: dict[str, int] = {}
        self._rejected: dict[str, int] = {}
        self._drained: dict[str, int] = {}
        #: Scheduling latencies (start − arrival), per tenant.
        self._latencies_s: dict[str, list[float]] = {}
        self._sub_ids = itertools.count(0)
        self.cycle = 0

    # ------------------------------------------------------------- tenants

    @property
    def n_partitions(self) -> int:
        return len(self.shards)

    def register(self, tenant: Tenant) -> Tenant:
        """Register a tenant and log its placement."""
        self.registry.register(tenant)
        shard = shard_of(tenant.name, self.n_partitions)
        self._shard_of[tenant.name] = shard
        self._pending[tenant.name] = []
        self._energy_j[tenant.name] = 0.0
        self._board_energy_j[tenant.name] = 0.0
        self._kernel_counts[tenant.name] = {}
        self._admitted[tenant.name] = 0
        self._rejected[tenant.name] = 0
        self._drained[tenant.name] = 0
        self._latencies_s[tenant.name] = []
        self.store.append(
            "tenant",
            tenant=tenant.name,
            priority=tenant.priority,
            quota=tenant.quota,
            energy_budget_j=tenant.energy_budget_j,
            target=tenant.target.name,
            shard=shard,
        )
        return tenant

    # ----------------------------------------------------------- admission

    def submit(
        self, name: str, kernel: KernelIR, t_s: float = 0.0
    ) -> AdmissionDecision:
        """One submission attempt at arrival time ``t_s``.

        Admission checks run in a fixed order — identity, energy budget,
        quota — so rejection reasons are deterministic. Rejections are
        returned (and logged), never raised.
        """
        if name not in self.registry:
            self.store.append(
                "reject",
                t=t_s,
                tenant=name,
                kernel=kernel.name,
                reason=RejectReason.UNKNOWN_TENANT.value,
            )
            return AdmissionDecision(
                admitted=False,
                reason=RejectReason.UNKNOWN_TENANT,
                detail=f"tenant {name!r} is not registered",
            )
        tenant = self.registry.get(name)
        if (
            tenant.energy_budget_j is not None
            and self._energy_j[name] >= tenant.energy_budget_j
        ):
            self._rejected[name] += 1
            self.store.append(
                "reject",
                t=t_s,
                tenant=name,
                kernel=kernel.name,
                reason=RejectReason.ENERGY_BUDGET_EXHAUSTED.value,
            )
            return AdmissionDecision(
                admitted=False,
                reason=RejectReason.ENERGY_BUDGET_EXHAUSTED,
                detail=(
                    f"{self._energy_j[name]:.3f} J accounted of a "
                    f"{tenant.energy_budget_j:.3f} J budget"
                ),
            )
        if len(self._pending[name]) >= tenant.quota:
            self._rejected[name] += 1
            self.store.append(
                "reject",
                t=t_s,
                tenant=name,
                kernel=kernel.name,
                reason=RejectReason.QUOTA_EXCEEDED.value,
            )
            return AdmissionDecision(
                admitted=False,
                reason=RejectReason.QUOTA_EXCEEDED,
                detail=f"{len(self._pending[name])} pending of quota "
                f"{tenant.quota}",
            )
        sub_id = next(self._sub_ids)
        self._pending[name].append((sub_id, t_s, kernel))
        self._admitted[name] += 1
        self.store.append(
            "admit",
            t=t_s,
            sub=sub_id,
            tenant=name,
            kernel=kernel.name,
            target=tenant.target.name,
        )
        return AdmissionDecision(admitted=True, sub_id=sub_id)

    # -------------------------------------------------------------- drain

    def _drain_order(self, names: list[str]) -> list[str]:
        """Priority order with rotation inside each band.

        Lower priority band first; within a band, names sort
        deterministically and rotate by cycle index so no tenant
        permanently pays the end-of-band position.
        """
        bands: dict[int, list[str]] = {}
        for name in names:
            bands.setdefault(self.registry.get(name).priority, []).append(name)
        ordered: list[str] = []
        for band in sorted(bands):
            group = sorted(bands[band])
            pivot = self.cycle % len(group)
            ordered.extend(group[pivot:] + group[:pivot])
        return ordered

    def drain(self, now_s: float) -> int:
        """Drain every tenant queue; returns submissions completed.

        Advances each shard's clock to ``now_s`` (never backwards), runs
        one exclusive batched job per tenant with pending work, computes
        scheduling latencies against arrival times, accounts energy, and
        logs one ``batch`` event per job plus one ``cycle`` event.
        """
        total = 0
        for shard in self.shards:
            shard.advance_to(now_s)
            names = [
                name
                for name, sid in sorted(self._shard_of.items())
                if sid == shard.shard_id and self._pending[name]
            ]
            if not names:
                continue
            queues = []
            for name in self._drain_order(names):
                target = self.registry.get(name).target
                queues.append(
                    (
                        name,
                        [(target, k) for _, _, k in self._pending[name]],
                    )
                )
            results = shard.drain(queues)
            for res in results:
                pending = self._pending[res.tenant]
                for (sub_id, arrival_s, kernel), start in zip(
                    pending, res.start_s
                ):
                    self._latencies_s[res.tenant].append(start - arrival_s)
                    counts = self._kernel_counts[res.tenant]
                    counts[kernel.name] = counts.get(kernel.name, 0) + 1
                self._energy_j[res.tenant] += res.kernel_energy_j
                board_j = res.job.gpu_energy_j or 0.0
                self._board_energy_j[res.tenant] += board_j
                self._drained[res.tenant] += res.n
                self._pending[res.tenant] = []
                total += res.n
                self.store.append(
                    "batch",
                    t=now_s,
                    cycle=self.cycle,
                    shard=shard.shard_id,
                    tenant=res.tenant,
                    job_id=res.job.job_id,
                    n=res.n,
                    state=res.job.state.value,
                    energy_j=res.kernel_energy_j,
                    board_energy_j=board_j,
                )
        self.store.append("cycle", t=now_s, cycle=self.cycle, drained=total)
        self.trace.instant(
            now_s, "service", "service.cycle", f"cycle{self.cycle}",
            drained=total,
        )
        self.cycle += 1
        return total

    # ------------------------------------------------------------- reports

    def tenant_report(self, name: str) -> dict[str, object]:
        """Wattlytics-style per-tenant accounting row."""
        tenant = self.registry.get(name)
        counts = self._kernel_counts[name]
        baseline = sum(
            n * self.baseline_j.get(kernel, 0.0)
            for kernel, n in counts.items()
        )
        lat = self._latencies_s[name]
        return {
            "tenant": name,
            "priority": tenant.priority,
            "quota": tenant.quota,
            "target": tenant.target.name,
            "shard": self._shard_of[name],
            "admitted": self._admitted[name],
            "rejected": self._rejected[name],
            "drained": self._drained[name],
            "pending": len(self._pending[name]),
            "energy_j": self._energy_j[name],
            "board_energy_j": self._board_energy_j[name],
            "baseline_j": baseline,
            "saved_j": baseline - self._energy_j[name],
            "p50_latency_s": float(np.percentile(lat, 50)) if lat else None,
            "p99_latency_s": float(np.percentile(lat, 99)) if lat else None,
        }

    def report(self) -> dict[str, object]:
        """Whole-plane summary: per-tenant rows + cluster aggregates."""
        rows = [self.tenant_report(t.name) for t in self.registry]
        lat = [x for ls in self._latencies_s.values() for x in ls]
        baseline = sum(r["baseline_j"] for r in rows)
        modeled = sum(r["energy_j"] for r in rows)
        return {
            "tenants": rows,
            "cluster": {
                "n_tenants": len(self.registry),
                "n_partitions": self.n_partitions,
                "cycles": self.cycle,
                "submissions": sum(r["admitted"] for r in rows),
                "rejections": sum(r["rejected"] for r in rows),
                "drained": sum(r["drained"] for r in rows),
                "kernel_energy_j": modeled,
                "board_energy_j": sum(r["board_energy_j"] for r in rows),
                "baseline_kernel_energy_j": baseline,
                "saved_j": baseline - modeled,
                "p50_latency_s": float(np.percentile(lat, 50)) if lat else None,
                "p99_latency_s": float(np.percentile(lat, 99)) if lat else None,
            },
        }
