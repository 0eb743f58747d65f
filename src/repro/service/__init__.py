"""Multi-tenant scheduling service plane (``repro.service``).

A long-running, virtual-time-cooperative control plane on top of the
SLURM substrate: many tenants concurrently submit kernels with
per-tenant energy targets, quotas and priorities; admission control
rejects with typed reasons; sharded per-partition schedulers drain the
tenant queues through the batched engine (``Scheduler.submit_many`` +
``SynergyQueue.submit_batch``); and an append-only, replayable job store
records every decision so a same-seed session replays byte-identically.

See ``docs/SERVICE.md`` for the tenancy model and
``repro-synergy serve`` for a seeded session from the command line.
"""

from repro.service.loadgen import run_service_session
from repro.service.plane import SchedulingService
from repro.service.shard import PartitionShard, TenantBatchPayload
from repro.service.store import JobStore, fold_events
from repro.service.tenant import (
    AdmissionDecision,
    RejectReason,
    Tenant,
    TenantRegistry,
)

__all__ = [
    "AdmissionDecision",
    "JobStore",
    "PartitionShard",
    "RejectReason",
    "SchedulingService",
    "Tenant",
    "TenantBatchPayload",
    "TenantRegistry",
    "fold_events",
    "run_service_session",
]
