"""``mpiexec``-like rank binding for SLURM jobs.

Maps a job's allocation (nodes × GPUs) to an MPI communicator with one rank
per board, node-major — the standard ``--ntasks-per-node=<gpus>`` binding
used on Marconi-100.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.mpi.comm import SimulatedComm
from repro.slurm.job import JobContext


def launch_ranks(
    context: JobContext,
    ranks_per_node: int | None = None,
    trace=None,
) -> SimulatedComm:
    """Build the communicator for a running job (one rank per GPU).

    ``ranks_per_node`` limits how many boards per node get a rank (defaults
    to all of them). The allocation's fault injector (if the cluster was
    built with a fault plan) is threaded into the communicator so node and
    rank failures surface inside collectives.
    """
    gpus = []
    node_of_rank = []
    for node_index, node in enumerate(context.nodes):
        boards = node.gpus
        if ranks_per_node is not None:
            if ranks_per_node < 1 or ranks_per_node > len(boards):
                raise ValidationError(
                    f"ranks_per_node {ranks_per_node} invalid for node with "
                    f"{len(boards)} GPUs"
                )
            boards = boards[:ranks_per_node]
        for gpu in boards:
            gpus.append(gpu)
            node_of_rank.append(node_index)
    node_names = [node.name for node in context.nodes]
    injector = getattr(context.nodes[0], "fault_injector", None)
    if trace is None:
        # The scheduler stamps its session on the job context, so a traced
        # cluster run gets a traced communicator for free.
        trace = getattr(context, "trace", None)
    return SimulatedComm(
        gpus,
        node_of_rank,
        node_names=node_names,
        injector=injector,
        trace=trace,
    )
