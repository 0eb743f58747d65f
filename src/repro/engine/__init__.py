"""Vectorized virtual-time engine (ROADMAP item 2).

Batched scenario execution: many in-flight kernels (and many jobs)
advance per NumPy pass instead of one per Python call. The struct-of-
arrays batch representations live in :mod:`repro.engine.batch`, the
batched advance in :mod:`repro.engine.executor`, and the declarative
job payloads in :mod:`repro.engine.payload`.

The per-event scalar path stays intact as the reference implementation:
``repro-synergy validate --only engine`` runs the differential contract
(batched vs scalar — identical clock plans, times/energies within
rel 1e-12, identical counter aggregates), and the golden traces keep
replaying through the scalar path byte-for-byte.
"""

from repro.engine.batch import JobBatch, KernelBatch
from repro.engine.executor import BatchResult, execute_batch
from repro.engine.payload import KernelBatchPayload, plan_from_sweeps

__all__ = [
    "BatchResult",
    "JobBatch",
    "KernelBatch",
    "KernelBatchPayload",
    "execute_batch",
    "plan_from_sweeps",
]
