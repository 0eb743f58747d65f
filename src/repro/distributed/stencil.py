"""The weak-scaling stencil workload behind Fig. 10's reopened regime.

A 1-D block-distributed field iterates ``steps`` rounds of the classic
halo-exchange pattern, expressed as distributed command groups so the
graph scheduler derives every edge:

- ``flux`` (sobel3): reads the field with a halo, writes a flux buffer —
  this is the wave whose halo transfers overlap the previous wave's
  compute,
- boundary work (gemm) on the edge ranks only — the heterogeneity that
  creates a critical path (edge ranks) and slack (interior ranks), which
  the global frequency planner converts into energy savings,
- ``update`` (median): reads the flux, read-modify-writes the field —
  its WAR edges against the neighbours' same-step halo pulls keep
  boundary data sound,
- a ``gather`` collective every ``gather_every`` steps (residual norm),
  which is also where the fault plane is polled.

Weak scaling: per-rank block size is fixed, so the problem grows with
the rank count — the 256–2048-rank sweep of the distributed benchmark.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.distributed.graph import CommandGraph
from repro.mpi.comm import SimulatedComm
from repro.sycl.distributed import DistributedBuffer, DistributedRange


def build_stencil_graph(
    comm: SimulatedComm,
    *,
    steps: int = 4,
    elems_per_rank: int = 1 << 20,
    halo_elems: int = 4096,
    gather_every: int = 2,
    graph: CommandGraph | None = None,
) -> CommandGraph:
    """Build the stencil command graph over a communicator's ranks.

    ``graph`` is an empty graph over the communicator's ranks to submit
    into (default: a fresh :class:`CommandGraph`); anything with the same
    ``parallel_for``/``gather`` builder API serves.
    """
    from repro.apps import get_benchmark

    if steps <= 0:
        raise ValidationError(f"steps must be positive ({steps})")
    if gather_every <= 0:
        raise ValidationError(f"gather_every must be positive ({gather_every})")
    n_ranks = comm.size
    flux_k = get_benchmark("sobel3").kernel
    update_k = get_benchmark("median").kernel
    boundary_k = get_benchmark("gemm").kernel

    rng = DistributedRange(elems_per_rank * n_ranks, n_ranks)
    field = DistributedBuffer(rng, name="field")
    flux = DistributedBuffer(rng, name="flux")
    bc = DistributedBuffer(rng, name="boundary")

    if graph is None:
        graph = CommandGraph(n_ranks, comm.node_of_rank, network=comm.network)
    halo = min(halo_elems, elems_per_rank)
    edge_ranks = {0, n_ranks - 1}
    boundary_wave = [
        boundary_k if r in edge_ranks else None for r in range(n_ranks)
    ]
    for step in range(steps):
        graph.parallel_for(
            flux_k, [field.read(halo=halo), flux.write()]
        )
        if n_ranks > 1:
            # Edge ranks integrate boundary conditions — extra work the
            # interior never pays, making the edges the critical path.
            graph.parallel_for(boundary_wave, [bc.read_write()])
        graph.parallel_for(
            update_k, [flux.read(), field.read_write()]
        )
        if (step + 1) % gather_every == 0:
            graph.gather(field)
    return graph
