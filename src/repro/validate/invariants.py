"""Pure invariant checkers over sweep, trace and power-cap results.

Each checker is a pure function of its inputs returning
:class:`~repro.validate.result.CheckResult` rows; nothing here mutates the
objects under test. The catalog maps one-to-one onto the paper's claims:

- energy–power–time consistency (``E = P̄·t`` within tolerance) and
  physical power bounds — the ground every figure stands on,
- a single interior minimum of ``energy(f)`` per kernel with the
  ``f(MIN_ENERGY) ≤ f(MIN_EDP) ≤ f(MIN_ED2P) ≤ f(MAX_PERF)`` frequency
  ordering — Fig. 4,
- ES_x / PL_x threshold semantics (``ES_100`` = argmin energy, ``PL_0``
  no slower than the default) and ladder monotonicity — Fig. 5, §5.2–5.3,
- Pareto-front mask consistency — Figs. 2/7/8,
- power-cap budget conservation across ``redistribute_caps`` steps and
  the :class:`~repro.slurm.powercap.PowerCapPlugin` audit round-trip —
  §2.3,
- monotone virtual clocks and metric sanity over a recorded
  :class:`~repro.obs.session.TraceSession`,
- what a run leaves on its boards, clusters and communicators: each
  kernel record's physics, clocks and power limit (§4.4), the §7.2
  production posture of a freshly built cluster, and one rank per bound
  board.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hw.cache import models_for
from repro.hw.specs import GPUSpec
from repro.metrics.pareto import front_violations
from repro.metrics.targets import (
    MAX_PERF,
    MIN_ED2P,
    MIN_EDP,
    MIN_ENERGY,
    EnergyTarget,
    TargetKind,
)
from repro.validate.result import CheckResult, Severity, check

#: Relative tolerance for float comparisons between algebraically equal
#: quantities computed along different paths.
RTOL = 1e-9


def _ctx(sweep) -> str:
    return f"{sweep.kernel_name}@{sweep.device_name}"


# ------------------------------------------------------- physics invariants

def check_energy_power_time(sweep, spec: GPUSpec) -> list[CheckResult]:
    """Energy, time and implied average power are finite, positive and
    physically bounded: ``P_idle ≤ E/t ≤ P_peak`` at every frequency."""
    ctx = _ctx(sweep)
    t = np.asarray(sweep.time_s, dtype=float)
    e = np.asarray(sweep.energy_j, dtype=float)
    results = [
        check(
            "sweep.finite_positive",
            bool(
                np.all(np.isfinite(t)) and np.all(np.isfinite(e))
                and np.all(t > 0) and np.all(e > 0)
            ),
            f"{ctx}: non-finite or non-positive time/energy in sweep",
        )
    ]
    if not results[0].passed:
        return results
    _, power_model = models_for(spec)
    avg_power = e / t
    idle, peak = power_model.power_bounds()
    results.append(
        check(
            "sweep.power_bounds",
            bool(
                np.all(avg_power >= idle * (1.0 - RTOL))
                and np.all(avg_power <= peak * (1.0 + RTOL))
            ),
            f"{ctx}: average power [{avg_power.min():.3f}, "
            f"{avg_power.max():.3f}] W outside [{idle:.3f}, {peak:.3f}] W",
        )
    )
    return results


def check_interior_energy_minimum(sweep) -> list[CheckResult]:
    """``energy(f)`` is unimodal with its minimum strictly inside the table.

    Non-unimodality (more than one descent/ascent transition) is an error;
    a minimum sitting on a table edge is a warning — physically plausible
    for exotic kernels, but it voids the paper's "sweet spot" narrative
    for that kernel.
    """
    ctx = _ctx(sweep)
    e = np.asarray(sweep.energy_j, dtype=float)
    d = np.diff(e)
    scale = float(np.max(np.abs(e))) or 1.0
    signs = np.sign(np.where(np.abs(d) <= RTOL * scale, 0.0, d))
    nonzero = signs[signs != 0]
    transitions = int(np.sum(np.diff(nonzero) != 0)) if nonzero.size else 0
    descends_then_ascends = nonzero.size == 0 or (
        transitions <= 1 and (transitions == 0 or nonzero[0] < 0)
    )
    i_min = int(np.argmin(e))
    return [
        check(
            "sweep.energy_unimodal",
            descends_then_ascends,
            f"{ctx}: energy(f) has {transitions} slope transitions "
            "(expected a single descend-then-ascend valley)",
        ),
        check(
            "sweep.energy_minimum_interior",
            0 < i_min < e.size - 1,
            f"{ctx}: energy minimum at table index {i_min} of {e.size} "
            "(edge, not interior)",
            severity=Severity.WARNING,
        ),
    ]


def check_target_frequency_ordering(sweep) -> list[CheckResult]:
    """Resolved frequencies are ordered
    ``f(MIN_ENERGY) ≤ f(MIN_EDP) ≤ f(MIN_ED2P) ≤ f(MAX_PERF)`` (Fig. 4)."""
    ctx = _ctx(sweep)
    freqs = [
        float(sweep.freqs_mhz[sweep.resolve(t)])
        for t in (MIN_ENERGY, MIN_EDP, MIN_ED2P, MAX_PERF)
    ]
    ordered = all(a <= b + RTOL for a, b in zip(freqs, freqs[1:]))
    return [
        check(
            "sweep.target_frequency_ordering",
            ordered,
            f"{ctx}: target clocks E/EDP/ED2P/perf = {freqs} MHz not "
            "non-decreasing",
        )
    ]


def check_es_pl_semantics(sweep) -> list[CheckResult]:
    """ES_x / PL_x threshold semantics of §5.2–5.3.

    ``ES_100`` lands on the global energy minimum; ``PL_0`` is no slower
    than the default; every ES/PL selection saves energy vs the default;
    the ES energy ladder is non-increasing in x and the PL energy ladder
    is non-increasing in x (more allowed loss → at least as frugal).
    """
    ctx = _ctx(sweep)
    e = np.asarray(sweep.energy_j, dtype=float)
    t = np.asarray(sweep.time_s, dtype=float)
    e_default = float(e[sweep.default_index])
    t_default = float(t[sweep.default_index])

    es_100 = sweep.resolve(EnergyTarget(TargetKind.ES, 100.0))
    pl_0 = sweep.resolve(EnergyTarget(TargetKind.PL, 0.0))
    results = [
        check(
            "tradeoff.es100_is_min_energy",
            math.isclose(float(e[es_100]), float(np.min(e)), rel_tol=RTOL),
            f"{ctx}: ES_100 resolves to {e[es_100]!r} J, global minimum is "
            f"{float(np.min(e))!r} J",
        ),
        check(
            "tradeoff.pl0_no_slower_than_default",
            float(t[pl_0]) <= t_default * (1.0 + RTOL),
            f"{ctx}: PL_0 takes {t[pl_0]!r} s, default takes {t_default!r} s",
        ),
    ]
    grid = [0.0, 25.0, 50.0, 75.0, 100.0]
    es_energy = [float(e[sweep.resolve(EnergyTarget(TargetKind.ES, x))]) for x in grid]
    pl_energy = [float(e[sweep.resolve(EnergyTarget(TargetKind.PL, x))]) for x in grid]
    results += [
        check(
            "tradeoff.selections_save_energy",
            all(v <= e_default * (1.0 + RTOL) for v in es_energy + pl_energy),
            f"{ctx}: an ES/PL selection costs more energy than the default "
            f"({e_default!r} J)",
        ),
        check(
            "tradeoff.es_ladder_monotone",
            all(a >= b - RTOL * abs(a) for a, b in zip(es_energy, es_energy[1:])),
            f"{ctx}: ES energy ladder {es_energy} not non-increasing in x",
        ),
        check(
            "tradeoff.pl_ladder_monotone",
            all(a >= b - RTOL * abs(a) for a, b in zip(pl_energy, pl_energy[1:])),
            f"{ctx}: PL energy ladder {pl_energy} not non-increasing in x",
        ),
    ]
    return results


def check_pareto_consistency(sweep) -> list[CheckResult]:
    """The Pareto mask is internally consistent (Figs. 2/7/8): front points
    are mutually non-dominated, every off-front point is dominated by a
    front point, and the MAX_PERF / MIN_ENERGY selections sit on it."""
    ctx = _ctx(sweep)
    mask = np.asarray(sweep.pareto_mask, dtype=bool)
    dominated_front, uncovered_off = front_violations(
        sweep.speedup, sweep.normalized_energy, mask
    )
    i_perf = int(np.argmin(np.asarray(sweep.time_s)))
    i_energy = int(np.argmin(np.asarray(sweep.energy_j)))
    return [
        check(
            "pareto.front_mutually_nondominated",
            dominated_front == 0,
            f"{ctx}: {dominated_front} masked-in points are dominated by "
            "another front point",
        ),
        check(
            "pareto.off_front_dominated",
            uncovered_off == 0,
            f"{ctx}: {uncovered_off} off-front points are not dominated by "
            "any front point",
        ),
        check(
            "pareto.extremes_on_front",
            bool(mask[i_perf] and mask[i_energy]),
            f"{ctx}: MAX_PERF (idx {i_perf}) or MIN_ENERGY (idx {i_energy}) "
            "not on the Pareto front",
        ),
    ]


def check_sweep(sweep, spec: GPUSpec) -> list[CheckResult]:
    """All sweep-level invariants for one kernel on one device."""
    return (
        check_energy_power_time(sweep, spec)
        + check_interior_energy_minimum(sweep)
        + check_target_frequency_ordering(sweep)
        + check_es_pl_semantics(sweep)
        + check_pareto_consistency(sweep)
    )


# --------------------------------------------------------- trace invariants

def check_trace_monotonicity(session, context: str = "trace") -> list[CheckResult]:
    """Every recorded span closes no earlier than it opens, timestamps are
    finite and non-negative — the virtual clocks never ran backwards."""
    bad_spans = 0
    total = 0
    for span in session.tracer.spans:
        total += 1
        t1 = span.t0 if span.t1 is None else span.t1  # open spans: zero width
        if not (
            math.isfinite(span.t0)
            and math.isfinite(t1)
            and 0.0 <= span.t0 <= t1
        ):
            bad_spans += 1
    bad_instants = sum(
        1
        for inst in session.tracer.instants
        if not (math.isfinite(inst.t) and inst.t >= 0.0)
    )
    return [
        check(
            "trace.monotone_spans",
            bad_spans == 0,
            f"{context}: {bad_spans} of {total} spans have inverted or "
            "non-finite windows",
        ),
        check(
            "trace.nonnegative_instants",
            bad_instants == 0,
            f"{context}: {bad_instants} instants before t=0 or non-finite",
        ),
    ]


def check_metrics_sanity(session, context: str = "trace") -> list[CheckResult]:
    """Counters are non-negative and every histogram's bucket counts sum to
    its observation count."""
    doc = session.metrics.as_dict()
    bad_counters = [k for k, v in doc["counters"].items() if v < 0]
    bad_hists = [
        k for k, h in doc["histograms"].items() if sum(h["counts"]) != h["count"]
    ]
    return [
        check(
            "metrics.nonnegative_counters",
            not bad_counters,
            f"{context}: negative counters {bad_counters}",
        ),
        check(
            "metrics.histogram_totals",
            not bad_hists,
            f"{context}: histograms with inconsistent totals {bad_hists}",
        ),
    ]


# ------------------------------------------------------- run invariants

#: Relative tolerance of ``E = P̄·t`` and of the power limit in the record
#: checks.
RECORD_RTOL = 1e-6


def check_kernel_records(gpu, context: str | None = None) -> list[CheckResult]:
    """Every execution record on a board is physical and legal.

    Reads ``gpu.records`` after the fact: each window ``0 ≤ start ≤ end``;
    time and energy positive and finite; ``E = P̄·t`` within
    :data:`RECORD_RTOL`; core and memory clocks in the device tables;
    average power under the limit in effect when the kernel started
    (``gpu.power_limit_history``); end times never before an earlier
    record's end (one hardware queue per board).
    """
    ctx = f"gpu{gpu.index}" if context is None else context
    records, spec = gpu.records, gpu.spec
    start, end, energy, power = np.array(
        [(r.start_s, r.end_s, r.energy_j, r.avg_power_w) for r in records],
        dtype=float,
    ).reshape(-1, 4).T
    core, mem = np.array(
        [(r.core_mhz, r.mem_mhz) for r in records], dtype=int
    ).reshape(-1, 2).T
    history = gpu.power_limit_history
    limits = np.array([gpu.default_power_limit_w] + [w for _, w in history])
    limit = limits[np.searchsorted([t for t, _ in history], start, side="right")]
    high_water = np.maximum.accumulate(np.concatenate(([0.0], end)))[:-1]
    # A corrupt record may hold inf or NaN: it fails its check quietly.
    with np.errstate(invalid="ignore", over="ignore"):
        time = end - start
        expected = power * time
        scale = np.maximum(np.maximum(np.abs(expected), np.abs(energy)), 1e-12)
        conditions = {
            "event_window": (0.0 <= start) & (start <= end),
            "time_positive": (time > 0.0) & np.isfinite(time),
            "energy_positive": (energy > 0.0) & np.isfinite(energy),
            "energy_power_time": np.abs(energy - expected) <= RECORD_RTOL * scale,
            "core_clock_in_table": np.isin(core, spec.core_freqs_mhz),
            "mem_clock_in_table": np.isin(mem, spec.mem_freqs_mhz),
            "power_under_limit": power <= limit * (1.0 + RECORD_RTOL),
            "monotone_end_times": end >= high_water,
        }
    results = []
    for name, ok in conditions.items():
        bad = np.flatnonzero(~ok)
        first = f"; first: {records[bad[0]]}" if bad.size else ""
        detail = f"{ctx}: {bad.size} of {len(records)} records fail{first}"
        results.append(check(f"records.{name}", bad.size == 0, detail))
    return results


def check_cluster_posture(cluster) -> list[CheckResult]:
    """A freshly built cluster is in §7.2 production posture.

    Board indices are unique; every board is API-restricted, at driver
    default clocks, and on the cluster's wall clock.
    """
    boards = [
        (f"{node.name}/gpu{gpu.index}", gpu)
        for node in cluster.nodes
        for gpu in node.gpus
    ]
    indices = sorted(gpu.index for _, gpu in boards)
    conditions = {
        "api_restricted": lambda g: g.api_restricted,
        "default_clocks": lambda g: (g.core_mhz, g.mem_mhz)
        == (g.spec.default_core_mhz, g.spec.default_mem_mhz),
        "board_clock_aligned": lambda g: g.clock.now == cluster.clock.now,
    }
    results = [
        check(
            "posture.unique_board_indices",
            len(set(indices)) == len(indices),
            f"board indices {indices}",
        )
    ]
    for name, holds in conditions.items():
        bad = [label for label, gpu in boards if not holds(gpu)]
        detail = f"{len(bad)} of {len(boards)} boards fail: {bad[:4]}"
        results.append(check(f"posture.{name}", not bad, detail))
    return results


def check_rank_binding(comm, nodes) -> list[CheckResult]:
    """An MPI communicator binds one rank per board of its allocation.

    One rank per bound board, ranks in node-major order, no board bound
    twice, and every rank's board on the allocated node it is bound to.
    """
    gpus, node_of_rank = list(comm.gpus), list(comm.node_of_rank)
    distinct = len({id(g) for g in gpus})
    on_node = all(
        0 <= n < len(nodes) and any(g is gpu for g in nodes[n].gpus)
        for gpu, n in zip(gpus, node_of_rank)
    )
    sizes = f"{comm.size} ranks, {len(gpus)} boards, {len(node_of_rank)} bindings"
    return [
        check(
            "binding.rank_per_board",
            len(gpus) == len(node_of_rank) == comm.size,
            sizes,
        ),
        check(
            "binding.node_major",
            node_of_rank == sorted(node_of_rank),
            f"rank->node map {node_of_rank}",
        ),
        check("binding.boards_bound_once", distinct == len(gpus), f"{distinct} boards"),
        check("binding.rank_on_allocated_node", on_node, f"{len(nodes)} nodes"),
    ]


# ----------------------------------------------------- power-cap invariants

def check_powercap_conservation(
    caps_w,
    usage_w,
    floor_w: float,
    ceiling_w: float,
    threshold: float = 0.05,
    context: str = "powercap",
    iterations: int = 8,
) -> list[CheckResult]:
    """§2.3 budget conservation across ``redistribute_caps`` steps.

    One step conserves the total budget within float tolerance, keeps every
    cap in ``[floor, ceiling]``, and is the identity when no node is hungry
    (nobody can receive, so nobody may shed — the bug the first run of this
    plane flushed out). Iterating to a fixpoint and stepping once more must
    leave the caps unchanged (idempotence at the fixpoint).
    """
    from repro.slurm.powercap import redistribute_caps

    caps = [float(c) for c in caps_w]
    usage = [float(u) for u in usage_w]
    new = redistribute_caps(caps, usage, floor_w, ceiling_w, threshold)
    total = sum(caps)
    tol = max(1e-9, 1e-9 * abs(total))
    results = [
        check(
            "powercap.budget_conserved",
            abs(sum(new) - total) <= tol,
            f"{context}: total budget moved from {total!r} W to "
            f"{sum(new)!r} W in one redistribution step",
        ),
        check(
            "powercap.caps_in_bounds",
            all(floor_w - tol <= c <= ceiling_w + tol for c in new),
            f"{context}: a redistributed cap left [{floor_w}, {ceiling_w}] W: "
            f"{new}",
        ),
    ]
    hungry = [u >= (1.0 - threshold) * c for c, u in zip(caps, usage)]
    if not any(hungry):
        results.append(
            check(
                "powercap.no_receiver_identity",
                new == caps,
                f"{context}: no node was hungry yet caps changed "
                f"({caps} -> {new})",
            )
        )
    # Iterate the rule: every state along the orbit must conserve the
    # budget. The orbit either reaches a fixpoint (then one more step must
    # be the identity — idempotence at the fixpoint) or revisits a state
    # (the rule can legitimately ping-pong between equal-budget splits).
    seen = {tuple(new)}
    state = new
    orbit_conserved = True
    outcome = "open"
    for _ in range(iterations):
        nxt = redistribute_caps(state, usage, floor_w, ceiling_w, threshold)
        if abs(sum(nxt) - total) > tol:
            orbit_conserved = False
        if nxt == state:
            outcome = "fixpoint"
            break
        if tuple(nxt) in seen:
            outcome = "cycle"
            break
        seen.add(tuple(nxt))
        state = nxt
    results.append(
        check(
            "powercap.orbit_conserves_budget",
            orbit_conserved,
            f"{context}: a later redistribution step changed the total "
            f"budget from {total!r} W",
        )
    )
    if outcome == "fixpoint":
        again = redistribute_caps(state, usage, floor_w, ceiling_w, threshold)
        results.append(
            check(
                "powercap.fixpoint_idempotent",
                again == state,
                f"{context}: fixpoint not idempotent ({state} -> {again})",
            )
        )
    elif outcome == "open":
        results.append(
            CheckResult(
                "powercap.orbit_settles",
                False,
                f"{context}: neither a fixpoint nor a cycle within "
                f"{iterations} iterations",
                Severity.WARNING,
            )
        )
    return results


def check_powercap_audit_roundtrip(
    spec: GPUSpec, node_budget_w: float, gpus_per_node: int = 2
) -> list[CheckResult]:
    """The §2.3 plugin's audit trail matches the NVML-visible limits.

    Runs one capped job on a fresh single-node cluster and asserts that
    the per-GPU limit the plugin *recorded* equals the limit the boards
    actually carried while the job ran (read back through NVML, in mW),
    and that the epilogue restored factory limits.
    """
    from repro.slurm.cluster import Cluster
    from repro.slurm.job import JobSpec, JobState
    from repro.slurm.powercap import PowerCapPlugin
    from repro.slurm.scheduler import Scheduler

    cluster = Cluster.build(spec, n_nodes=1, gpus_per_node=gpus_per_node)
    node = cluster.nodes[0]
    plugin = PowerCapPlugin(node_budget_w=node_budget_w)
    scheduler = Scheduler(cluster, plugins=[plugin])
    seen: dict[str, list[int]] = {}

    def payload(context) -> None:
        assert node.nvml is not None
        node.nvml.nvmlInit()
        seen["limits_mw"] = [
            node.nvml.nvmlDeviceGetPowerManagementLimit(
                node.nvml.nvmlDeviceGetHandleByIndex(i)
            )
            for i in range(len(node.gpus))
        ]

    job = scheduler.submit(
        JobSpec(name="powercap-audit", n_nodes=1, payload=payload)
    )
    recorded = plugin.applied.get((job.job_id, node.name))
    visible_w = [mw / 1000.0 for mw in seen.get("limits_mw", [])]
    restored = all(
        g.power_limit_w == g.default_power_limit_w for g in node.gpus
    )
    return [
        check(
            "powercap.job_completed",
            job.state is JobState.COMPLETED,
            f"audit job finished in state {job.state}",
        ),
        check(
            "powercap.audit_matches_nvml",
            recorded is not None
            and bool(visible_w)
            # NVML reports integer milliwatts: allow the 0.5 mW quantization.
            and all(
                math.isclose(recorded, w, rel_tol=1e-9, abs_tol=5e-4)
                for w in visible_w
            ),
            f"plugin recorded {recorded!r} W but NVML saw {visible_w} W "
            f"(budget {node_budget_w} W over {gpus_per_node} boards)",
        ),
        check(
            "powercap.epilogue_restores_limits",
            restored,
            "factory power limits not restored after the job",
        ),
    ]
