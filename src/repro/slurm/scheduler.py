"""slurmctld-like scheduler.

FIFO allocation over idle nodes with a plugin hook chain around each job:
``prologue(job, node)`` on every allocated node before the payload runs,
``epilogue(job, node)`` after it finishes (success or failure). Per-job GPU
energy accounting integrates each allocated board's true energy over the
job's window — SLURM's energy accounting (§2.3) at job granularity. Each
board's integral reads only the timeline inside the window
(:meth:`~repro.hw.device.SimulatedGPU.energy_between`), so accounting a
job costs in proportion to the job, not to the board's history.

Jobs run to completion at submit time (the virtual clock advances through
the payload), so ``submit`` doubles as ``sbatch --wait``.

Resilience: when a payload dies with :class:`~repro.faults.NodeFailure`
the scheduler behaves like slurmctld on a lost node — the job moves to
``NODE_FAIL``, the dead nodes are drained (marked down, their boards
marked lost so NVML reports ``GPU_IS_LOST``), and the job is requeued on
the surviving nodes, at most :data:`MAX_REQUEUES` times. Requeue lineage is
recorded on the job objects (``requeued_as`` / ``requeue_of``).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Protocol

from repro.common.errors import ConfigurationError, ValidationError
from repro.faults import NodeFailure
from repro.obs.session import TraceSession, resolve_trace
from repro.slurm.cluster import Cluster, Node
from repro.slurm.job import Job, JobContext, JobSpec, JobState

#: Requeues after a node failure before a job stays ``NODE_FAIL``.
MAX_REQUEUES = 1


class SchedulerPlugin(Protocol):
    """Prologue/epilogue plugin interface (the SLURM extension hooks)."""

    def prologue(self, job: Job, node: Node) -> object:  # pragma: no cover
        """Runs on each allocated node before the job payload."""
        ...

    def epilogue(self, job: Job, node: Node) -> None:  # pragma: no cover
        """Runs on each allocated node after the job payload."""
        ...


def _job_specs(specs: object) -> list[JobSpec]:
    """``specs`` as a list, or :class:`ValidationError` unless every item
    is a :class:`JobSpec` (a lone non-iterable or string is one item)."""
    if isinstance(specs, str) or not isinstance(specs, Iterable):
        specs = [specs]
    specs = list(specs)
    for spec in specs:
        if not isinstance(spec, JobSpec):
            raise ValidationError(f"jobs are submitted as JobSpec, got {spec!r}")
    return specs


class Scheduler:
    """FIFO scheduler with plugin hooks and energy accounting."""

    def __init__(
        self,
        cluster: Cluster,
        plugins: list[SchedulerPlugin] | None = None,
        trace: TraceSession | None = None,
    ):
        self.cluster = cluster
        # Default to the cluster's session so one Cluster.build(trace=...)
        # call wires the whole SLURM layer.
        self.trace = cluster.trace if trace is None else resolve_trace(trace)
        self.plugins = list(plugins or [])
        self._job_ids = itertools.count(1)
        self.jobs: dict[int, Job] = {}

    # ------------------------------------------------------------- lifecycle

    def submit(self, spec: JobSpec) -> Job:
        """Run a job to completion, requeuing after node failures.

        Returns the *last* job of the requeue chain (the one that actually
        completed, failed, or exhausted the requeue budget); earlier
        attempts stay queryable through ``jobs`` / ``requeued_as`` links.
        """
        _job_specs([spec])
        job = self._run_one(spec)
        requeues = 0
        while job.state is JobState.NODE_FAIL and requeues < MAX_REQUEUES:
            if len(self.cluster.idle_nodes()) < spec.n_nodes:
                job.error = (job.error or "") + (
                    "; requeue impossible: "
                    f"{len(self.cluster.idle_nodes())} healthy nodes idle, "
                    f"{spec.n_nodes} needed"
                )
                break
            requeues += 1
            self.trace.instant(
                self.cluster.clock.now, "slurm", "slurm.requeue", spec.name,
                prev_job_id=job.job_id,
            )
            job = self._run_one(spec, requeue_of=job)
        return job

    def submit_many(self, specs: Iterable[JobSpec]) -> list[Job]:
        """Run a batch of jobs to completion, in submission order.

        Every item must be a :class:`JobSpec`; all are checked before any
        job runs. Each job goes through the same :meth:`submit` core —
        allocation, requeue lineage, hooks, accounting.
        ``submit_many([])`` is a well-formed no-op: it emits an empty
        ``slurm.submit_many`` span and returns no jobs.
        """
        specs = _job_specs(specs)
        tr = self.trace
        if not specs:
            if tr.enabled:
                now = self.cluster.clock.now
                tr.add_span(
                    "slurm", "slurm.submit_many", "submit_many[0]",
                    now, now, jobs=0, completed=0,
                )
            return []
        if not tr.enabled:
            return [self.submit(spec) for spec in specs]
        with tr.span(
            self.cluster.clock, "slurm", "slurm.submit_many",
            f"submit_many[{len(specs)}]", jobs=len(specs),
        ) as sp:
            jobs = [self.submit(spec) for spec in specs]
            sp.set(
                completed=sum(j.state is JobState.COMPLETED for j in jobs)
            )
        return jobs

    def _run_one(self, spec: JobSpec, requeue_of: Job | None = None) -> Job:
        """Allocate, run hooks, execute the payload, account, clean up."""
        tr = self.trace
        if not tr.enabled:
            return self._run_one_inner(spec, requeue_of)
        with tr.span(
            self.cluster.clock, "slurm", "slurm.job", spec.name,
            requeue=requeue_of is not None,
        ) as sp:
            job = self._run_one_inner(spec, requeue_of)
            sp.set(
                job_id=job.job_id,
                state=job.state.value,
                gpu_energy_j=job.gpu_energy_j,
            )
            return job

    def _run_one_inner(self, spec: JobSpec, requeue_of: Job | None = None) -> Job:
        job = self._allocate(spec, requeue_of)
        try:
            # The prologue is inside the try so a prologue fault (a real
            # SLURM failure mode) still runs the epilogue cleanup below —
            # the §7.2 guarantee that no node leaks a degraded state.
            for plugin in self.plugins:
                for node in job.nodes:
                    with self.trace.span(
                        self.cluster.clock, "slurm", "slurm.prologue",
                        node.name, job_id=job.job_id,
                    ):
                        plugin.prologue(job, node)
            if spec.payload is not None:
                context = JobContext(
                    job_id=job.job_id,
                    nodes=job.nodes,
                    clock=self.cluster.clock,
                    trace=self.trace,
                )
                job.result = spec.payload(context)
            job.state = JobState.COMPLETED
        except NodeFailure as exc:  # a node died under the job: drain, requeue
            job.state = JobState.NODE_FAIL
            job.error = f"NodeFailure: {exc}"
            self._drain(exc.nodes, job)
        except Exception as exc:  # payload failures must not wedge the node
            job.state = JobState.FAILED
            job.error = f"{type(exc).__name__}: {exc}"
        finally:
            self._complete(job)
        return job

    # ------------------------------------------------------------ allocation

    def _allocate(self, spec: JobSpec, requeue_of: Job | None = None) -> Job:
        """Create and start a job: nodes claimed, clocks synchronized.

        The beginning half of the job lifecycle, shared by :meth:`submit`
        and :meth:`submit_many`; :meth:`_complete` is the matching end.
        Raises :class:`ConfigurationError` (job left PENDING, no nodes
        claimed) when not enough nodes are idle.
        """
        job = Job(
            job_id=next(self._job_ids),
            spec=spec,
            submit_time_s=self.cluster.clock.now,
        )
        self.jobs[job.job_id] = job
        if requeue_of is not None:
            job.requeue_of = requeue_of.job_id
            requeue_of.requeued_as = job.job_id

        idle = self.cluster.idle_nodes()
        if len(idle) < spec.n_nodes:
            raise ConfigurationError(
                f"job {spec.name!r} needs {spec.n_nodes} nodes; only "
                f"{len(idle)} idle"
            )
        nodes = idle[: spec.n_nodes]
        job.nodes = nodes
        for node in nodes:
            node.running_job = job.job_id
            node.exclusive = spec.exclusive

        job.state = JobState.RUNNING
        # Synchronize: the job starts when the wall clock and every
        # allocated board agree on the time.
        start = max(
            [self.cluster.clock.now]
            + [gpu.clock.now for node in nodes for gpu in node.gpus]
        )
        self.cluster.clock.advance_to(start)
        for node in nodes:
            for gpu in node.gpus:
                gpu.clock.advance_to(start)
        job.start_time_s = start
        return job

    def _complete(self, job: Job) -> None:
        """Finish a started job: end sync, accounting, epilogues, release.

        Runs in the ``finally`` of the job lifecycle, so cleanup happens
        whether the payload completed, failed, or took its nodes down.
        """
        nodes = job.nodes
        # The job ends when its slowest board drains; re-synchronize
        # every allocated board and the wall clock to that instant.
        end = max(
            [self.cluster.clock.now]
            + [gpu.clock.now for node in nodes for gpu in node.gpus]
        )
        self.cluster.clock.advance_to(end)
        for node in nodes:
            for gpu in node.gpus:
                gpu.clock.advance_to(end)
        job.end_time_s = end
        job.gpu_energy_j = self._account_energy(job)
        for plugin in self.plugins:
            for node in nodes:
                with self.trace.span(
                    self.cluster.clock, "slurm", "slurm.epilogue",
                    node.name, job_id=job.job_id,
                ):
                    plugin.epilogue(job, node)
        for node in nodes:
            node.running_job = None
            node.exclusive = False

    def _drain(self, node_names: tuple[str, ...], job: Job) -> None:
        """Take failed nodes out of service and mark their boards lost."""
        injector = self.cluster.fault_injector
        for name in node_names:
            node = self.cluster.get_node(name)
            node.down = True
            self.trace.instant(
                self.cluster.clock.now, "slurm", "slurm.drain", name,
                job_id=job.job_id,
            )
            if injector is not None:
                for gpu in node.gpus:
                    injector.mark_device_lost(gpu.index)
                injector.log.record_recovery(
                    self.cluster.clock.now,
                    "slurm.node_fail",
                    name,
                    f"node drained after failing under job {job.job_id}; "
                    "job marked NODE_FAIL for requeue",
                )

    # ------------------------------------------------------------ accounting

    def _account_energy(self, job: Job) -> float:
        """True GPU energy (J) over the job's execution window."""
        assert job.start_time_s is not None and job.end_time_s is not None
        total = 0.0
        for node in job.nodes:
            for gpu in node.gpus:
                total += gpu.energy_between(job.start_time_s, job.end_time_s)
        return total
