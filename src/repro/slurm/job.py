"""Job specifications and lifecycle.

A job's payload is a Python callable receiving a :class:`JobContext` —
the simulation analogue of the batch script. The context exposes the
allocated nodes/GPUs and the virtual clock; MPI applications build their
communicator from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.slurm.cluster import Node


class JobState(enum.Enum):
    """SLURM-like job states (subset)."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    #: A node allocated to the job died mid-run (requeue candidate).
    NODE_FAIL = "NODE_FAIL"


@dataclass(frozen=True)
class JobSpec:
    """Submission-time job description (the ``sbatch`` flags that matter).

    Attributes
    ----------
    name:
        Job name.
    n_nodes:
        Number of nodes requested.
    exclusive:
        ``--exclusive``: the job must own its nodes entirely. Required by
        the nvgpufreq plugin before it will lower clock privileges.
    gres:
        Requested GRES tags (e.g. ``{"nvgpufreq"}``).
    payload:
        The batch script body; receives a :class:`JobContext`.
    """

    name: str
    n_nodes: int
    exclusive: bool = False
    gres: frozenset[str] = frozenset()
    payload: Callable[["JobContext"], object] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("job name cannot be empty")
        if self.n_nodes < 1:
            raise ValidationError(f"job needs >= 1 node ({self.n_nodes!r})")

    def requests_gres(self, tag: str) -> bool:
        """Whether the job asked for a GRES tag."""
        return tag in self.gres


@dataclass
class JobContext:
    """What a running payload can see: its allocation and the clock."""

    job_id: int
    nodes: list["Node"]
    clock: object  # VirtualClock; typed loosely to avoid an import cycle
    #: Observability session of the scheduler that launched the job (a
    #: TraceSession, possibly the shared no-op); typed loosely like clock.
    trace: object = None
    #: Always ``None``. Kept only because ``bench/workloads.py`` still
    #: passes ``validate=context.validator``; delete with that argument.
    validator: None = None

    @property
    def gpus(self):
        """All allocated GPUs, node-major order."""
        return [gpu for node in self.nodes for gpu in node.gpus]


@dataclass
class Job:
    """A submitted job and its evolving state."""

    job_id: int
    spec: JobSpec
    state: JobState = JobState.PENDING
    nodes: list["Node"] = field(default_factory=list)
    submit_time_s: float = 0.0
    start_time_s: float | None = None
    end_time_s: float | None = None
    #: GPU energy (J) attributed to this job by the scheduler's accounting.
    gpu_energy_j: float | None = None
    #: Payload return value (e.g. an application report).
    result: object = None
    #: Failure detail when state is FAILED or NODE_FAIL.
    error: str | None = None
    #: Job id of the replacement job when this one was requeued.
    requeued_as: int | None = None
    #: Job id of the original submission when this job is a requeue.
    requeue_of: int | None = None

    @property
    def elapsed_s(self) -> float:
        """Wall time from start to end (0 before completion)."""
        if self.start_time_s is None or self.end_time_s is None:
            return 0.0
        return self.end_time_s - self.start_time_s
