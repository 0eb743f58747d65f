"""Vectorized virtual-time engine.

Batched scenario execution: many in-flight kernels advance per NumPy
pass instead of one per Python call. The struct-of-arrays batch
representation lives in :mod:`repro.engine.batch`, the batched advance
in :mod:`repro.engine.executor`, and the declarative job payload in
:mod:`repro.engine.payload`.

The per-event ``SynergyQueue.submit`` path is the reference semantics:
``repro-synergy validate --only engine`` runs the differential contract
(batched vs :func:`repro.validate.reference.replay_per_event` —
identical clock plans, times/energies within rel 1e-12, identical
counter aggregates). Golden traces pin both paths byte-for-byte: the
``multi-tenant`` scenario drains its tenants through ``engine.batch``
spans, the others submit per event.
"""

from repro.engine.batch import KernelBatch
from repro.engine.executor import BatchResult, execute_batch
from repro.engine.payload import KernelBatchPayload, plan_from_sweeps

__all__ = [
    "BatchResult",
    "KernelBatch",
    "KernelBatchPayload",
    "execute_batch",
    "plan_from_sweeps",
]
