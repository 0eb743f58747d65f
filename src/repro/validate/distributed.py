"""Validation of the distributed command-graph scheduler.

Three families of checks, all on the weak-scaling stencil workload
(:func:`repro.distributed.stencil.build_stencil_graph`):

- **graph soundness** — derived dependency edges are acyclic (every dep
  id precedes the node id), deduplicated, and carry the hazards the
  access modes imply: halo-reading kernels wait on their halo pull (RAW)
  and a rank never overwrites its boundary while a same-wave neighbour
  halo still reads it (WAR). Graph construction is deterministic, and
  the columnar builder derives the same nodes and wave records as the
  per-node oracle :class:`repro.validate.reference.CommandGraphReference`.
- **executor parity** — the wave-vectorized engine
  (:mod:`repro.engine.multirank`) against the per-event scalar reference
  (:func:`repro.distributed.runner.run_graph_scalar`): node
  start/finish times, per-rank clocks/energies within rel 1e-12
  (:data:`SCALAR_PATH_RTOL`), switch counts exactly equal. Fallback
  preconditions (power caps) must drop to scalar.
- **global-plan invariants** — the executed global plan's energy never
  exceeds the sum of per-rank MAX_PERF energies, completion stays within
  the SLA factor of the MAX_PERF completion (plus one switch overhead of
  headroom for boot-clock asymmetry), savings are strictly positive, and
  halo traffic demonstrably overlaps compute.
"""

from __future__ import annotations

from repro.hw.specs import GPUSpec, get_spec
from repro.validate.differential import SCALAR_PATH_RTOL, _arrays_equal
from repro.validate.result import CheckResult, check

#: Rank count for the validation-sized stencil (small enough for the
#: scalar reference, large enough for interior/edge structure).
VALIDATE_RANKS = 12

#: SLA factor the validation plan is built with.
VALIDATE_SLA = 1.25


def _stencil(spec: GPUSpec, n_ranks: int = VALIDATE_RANKS, **kw):
    from repro.distributed import build_comm, build_stencil_graph

    comm = build_comm(spec, n_ranks)
    graph = build_stencil_graph(
        comm, steps=kw.pop("steps", 3),
        elems_per_rank=kw.pop("elems_per_rank", 1 << 18), **kw
    )
    return comm, graph


def _graph_signature(graph) -> list[tuple]:
    return [
        (n.nid, n.kind, n.rank, n.wave, n.label, n.deps, n.nbytes, n.cost_s)
        for n in graph.nodes
    ]


def _record_signature(graph) -> list[tuple]:
    """The wave records, with buffers named (each build makes its own)."""
    return [
        (
            w.wave, w.kind,
            tuple((a.buffer.name, a.mode, a.halo) for a in w.accesses),
            None if w.buffer is None else w.buffer.name,
            w.kernel_nids, w.halo_nids, w.gather_nid,
        )
        for w in graph.submissions
    ]


def check_graph_soundness(spec: GPUSpec) -> list[CheckResult]:
    """Edge structure, hazard edges and deterministic construction."""
    from repro.distributed.graph import HALO, KERNEL

    from repro.validate.reference import CommandGraphReference

    comm, graph = _stencil(spec)
    _, again = _stencil(spec)
    _, oracle = _stencil(
        spec,
        graph=CommandGraphReference(
            comm.size, comm.node_of_rank, network=comm.network
        ),
    )
    results = [
        check(
            "distributed.graph_edges",
            graph.check_edges(),
            f"{len(graph.nodes)} nodes: some dependency does not precede "
            "its node (cycle or ordering bug)",
        ),
        check(
            "distributed.graph_deterministic",
            _graph_signature(graph) == _graph_signature(again),
            "two identical builder runs derived different graphs",
        ),
        check(
            "distributed.graph_matches_reference",
            _graph_signature(graph) == _graph_signature(oracle)
            and _record_signature(graph) == _record_signature(oracle),
            f"{len(graph.nodes)} nodes: the columnar builder and the "
            "per-node reference builder derived different graphs",
        ),
    ]
    dedup_ok = all(
        list(n.deps) == sorted(set(n.deps)) for n in graph.nodes
    )
    results.append(
        check(
            "distributed.graph_deps_deduped",
            dedup_ok,
            "dependency lists must be sorted and duplicate-free",
        )
    )

    # RAW through halos: every kernel in a halo-reading wave depends on
    # its own rank's halo node of the same wave.
    halos = {(n.wave, n.rank): n for n in graph.nodes if n.kind == HALO}
    raw_ok, raw_total = True, 0
    for n in graph.nodes:
        if n.kind == KERNEL and (n.wave, n.rank) in halos:
            raw_total += 1
            raw_ok &= halos[(n.wave, n.rank)].nid in n.deps
    results.append(
        check(
            "distributed.halo_raw_edges",
            raw_ok and raw_total > 0,
            f"{raw_total} halo-reading kernels; each must depend on its "
            "own halo transfer",
        )
    )

    # WAR through same-step neighbour halos: the field-writing update
    # kernel of an interior rank must wait for both neighbours' halo
    # pulls of the same step (they read this rank's previous block).
    war_ok, war_total = True, 0
    by_nid = graph.nodes
    for n in graph.nodes:
        if n.kind != KERNEL or not n.deps:
            continue
        neighbour_halo_deps = [
            d for d in n.deps
            if by_nid[d].kind == HALO and by_nid[d].rank != n.rank
        ]
        if neighbour_halo_deps:
            war_total += 1
            war_ok &= all(
                abs(by_nid[d].rank - n.rank) == 1 for d in neighbour_halo_deps
            )
    results.append(
        check(
            "distributed.halo_war_edges",
            war_ok and war_total > 0,
            f"{war_total} kernels carry anti-dependencies on neighbour "
            "halo pulls; all must point at rank±1",
        )
    )
    return results


def _plans(spec: GPUSpec, graph):
    from repro.core.compiler import plan_global_frequencies

    kernels = graph.rank_kernels()
    plan = plan_global_frequencies(
        spec, kernels, sla_factor=VALIDATE_SLA, cache=True
    )
    baseline = plan_global_frequencies(
        spec, kernels, sla_factor=VALIDATE_SLA, objective="MAX_PERF",
        cache=True,
    )
    return plan, baseline


def check_executor_parity(spec: GPUSpec) -> list[CheckResult]:
    """Batched vs scalar on one communicator (batched is pure, runs first)."""
    from repro.distributed import run_graph, run_graph_scalar

    comm, graph = _stencil(spec)
    plan, _ = _plans(spec, graph)
    batched = run_graph(graph, comm, plan)
    scalar = run_graph_scalar(graph, comm, plan)
    context = f"{len(graph.nodes)} nodes / {comm.size} ranks@{spec.name}"
    results = [
        check(
            "distributed.fast_path_used",
            batched.mode == "batched" and batched.fallback is None,
            f"{context}: expected the wave-vectorized path, got "
            f"{batched.mode} (fallback={batched.fallback!r})",
        ),
        _arrays_equal(
            "distributed.node_timeline",
            context,
            (batched.start_s, scalar.start_s),
            (batched.finish_s, scalar.finish_s),
            rtol=SCALAR_PATH_RTOL,
        ),
        _arrays_equal(
            "distributed.rank_physics",
            context,
            (batched.rank_time_s, scalar.rank_time_s),
            (batched.rank_energy_j, scalar.rank_energy_j),
            ([batched.completion_s], [scalar.completion_s]),
            rtol=SCALAR_PATH_RTOL,
        ),
        check(
            "distributed.switch_counts",
            batched.rank_switches.tolist() == scalar.rank_switches.tolist(),
            f"{context}: switches {batched.rank_switches.tolist()} vs "
            f"{scalar.rank_switches.tolist()}",
        ),
        check(
            "distributed.one_switch_per_rank",
            all(s <= 1 for s in scalar.rank_switches.tolist()),
            f"{context}: rank-uniform plans must cost at most one clock "
            f"switch per rank, saw {scalar.rank_switches.tolist()}",
        ),
    ]
    return results


def check_fallback_preconditions(spec: GPUSpec) -> list[CheckResult]:
    """A power-capped board must force the scalar reference."""
    from repro.distributed import run_graph

    comm, graph = _stencil(spec, n_ranks=4, steps=2)
    plan, _ = _plans(spec, graph)
    gpu = comm.gpus[1]
    limit = spec.idle_power_w + 0.5 * (
        gpu.default_power_limit_w - spec.idle_power_w
    )
    gpu.set_power_limit(limit, privileged=True)
    result = run_graph(graph, comm, plan)
    return [
        check(
            "distributed.powercap_fallback",
            result.mode == "scalar" and result.fallback == "powercap",
            f"capped board: mode={result.mode} fallback={result.fallback!r} "
            "(want scalar/powercap)",
        )
    ]


def check_global_plan_invariants(spec: GPUSpec) -> list[CheckResult]:
    """Executed energy/SLA invariants of the global frequency plan."""
    from repro.core.frequency import DEFAULT_SWITCH_OVERHEAD_S
    from repro.distributed import build_comm, run_graph
    from repro.distributed.graph import HALO, KERNEL

    comm, graph = _stencil(spec)
    plan, baseline = _plans(spec, graph)
    result = run_graph(graph, comm, plan)
    ref = run_graph(graph, build_comm(spec, comm.size), baseline)
    context = f"{comm.size} ranks@{spec.name}, sla={plan.sla_factor}"
    slop = 1.0 + 1e-9
    results = [
        check(
            "distributed.global_energy_bound",
            result.total_energy_j <= ref.total_energy_j * slop,
            f"{context}: global plan spent {result.total_energy_j:.4f} J vs "
            f"{ref.total_energy_j:.4f} J at all-MAX_PERF",
        ),
        check(
            "distributed.energy_saved",
            result.total_energy_j < ref.total_energy_j
            and plan.saved_j > 0.0,
            f"{context}: expected strict savings, executed "
            f"{result.total_energy_j:.4f} vs {ref.total_energy_j:.4f} J "
            f"(planned {plan.saved_j:.4f} J)",
        ),
        check(
            "distributed.completion_sla",
            result.completion_s
            <= plan.sla_factor * ref.completion_s * slop
            + DEFAULT_SWITCH_OVERHEAD_S,
            f"{context}: completion {result.completion_s:.6f} s vs budget "
            f"{plan.sla_factor * ref.completion_s:.6f} s",
        ),
        check(
            "distributed.critical_rank_maxperf",
            plan.rank_targets[plan.critical_rank] == "MAX_PERF",
            f"{context}: critical rank {plan.critical_rank} planned "
            f"{plan.rank_targets[plan.critical_rank]!r}",
        ),
        check(
            "distributed.slack_ranks_downclocked",
            any(t != "MAX_PERF" for t in plan.rank_targets),
            f"{context}: no slack rank left MAX_PERF — the workload has "
            "no exploitable slack",
        ),
    ]

    # Communication/compute overlap: some halo transfer must be in
    # flight while some kernel executes.
    halo_iv = [
        (result.start_s[n.nid], result.finish_s[n.nid])
        for n in graph.nodes
        if n.kind == HALO and n.cost_s > 0.0
    ]
    kern_iv = [
        (result.start_s[n.nid], result.finish_s[n.nid])
        for n in graph.nodes
        if n.kind == KERNEL
    ]
    overlap = any(
        hs < ke and ks < he
        for hs, he in halo_iv
        for ks, ke in kern_iv
    )
    results.append(
        check(
            "distributed.comm_compute_overlap",
            overlap,
            f"{context}: no halo transfer overlapped any kernel — the "
            "scheduler serialized communication",
        )
    )
    return results


def check_single_rank_degenerate(spec: GPUSpec) -> list[CheckResult]:
    """One rank: no halos, free gathers, plan trivially MAX_PERF-critical."""
    from repro.distributed import run_graph
    from repro.distributed.graph import HALO

    comm, graph = _stencil(spec, n_ranks=1, steps=2)
    plan, _ = _plans(spec, graph)
    result = run_graph(graph, comm, plan)
    n_halos = sum(1 for n in graph.nodes if n.kind == HALO)
    return [
        check(
            "distributed.single_rank",
            n_halos == 0
            and plan.critical_rank == 0
            and plan.rank_targets == ("MAX_PERF",)
            and result.mode == "batched"
            and result.completion_s > 0.0,
            f"1-rank degenerate: {n_halos} halos, critical="
            f"{plan.critical_rank}, targets={plan.rank_targets}, "
            f"mode={result.mode}",
        )
    ]


def run_distributed_checks(spec: GPUSpec | None = None) -> list[CheckResult]:
    """The full distributed-scheduler harness on one device family."""
    spec = spec or get_spec("A100")
    return (
        check_graph_soundness(spec)
        + check_executor_parity(spec)
        + check_fallback_preconditions(spec)
        + check_global_plan_invariants(spec)
        + check_single_rank_degenerate(spec)
    )
