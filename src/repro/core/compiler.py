"""The SYnergy compile-time pipeline (paper §3.1).

In the real system a SYCL toolchain pass extracts static features from each
kernel, runs model inference for the kernel's annotated energy target, and
makes the predicted frequency configuration available to the runtime
library. :class:`SynergyCompiler` performs the same steps over
:class:`~repro.kernelir.kernel.KernelIR` kernels and emits a
:class:`FrequencyPlan` — the table a compiled, energy-aware binary carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, TYPE_CHECKING

from repro.common.errors import ConfigurationError
from repro.core.models import EnergyModelBundle
from repro.core.predictor import FrequencyPredictor
from repro.frontend.decorator import DeviceKernel
from repro.hw.specs import GPUSpec
from repro.kernelir.features import extract_features
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget


@dataclass(frozen=True)
class FrequencyPlan:
    """Per-kernel, per-target clock assignments embedded at compile time.

    ``entries`` maps ``(kernel_name, target_name)`` to ``(mem_mhz,
    core_mhz)``. The plan is immutable once compiled — changing targets
    means recompiling, exactly as in the paper.
    """

    device_name: str
    entries: Mapping[tuple[str, str], tuple[int, int]]

    def lookup(self, kernel_name: str, target: EnergyTarget) -> tuple[int, int]:
        """Clock pair for a kernel/target; raises if not in the plan."""
        key = (kernel_name, target.name)
        if key not in self.entries:
            raise ConfigurationError(
                f"no compiled frequency for kernel {kernel_name!r} with "
                f"target {target.name}; recompile with this target"
            )
        return self.entries[key]

    def has(self, kernel_name: str, target: EnergyTarget) -> bool:
        """Whether the plan covers a kernel/target pair."""
        return (kernel_name, target.name) in self.entries

    @property
    def kernel_names(self) -> tuple[str, ...]:
        """Kernels covered by this plan."""
        return tuple(sorted({k for k, _ in self.entries}))


@dataclass(frozen=True)
class CompiledApplication:
    """An energy-aware application: kernels plus their frequency plan."""

    kernels: tuple[KernelIR, ...]
    plan: FrequencyPlan
    feature_vectors: Mapping[str, tuple[float, ...]] = field(default_factory=dict)


class SynergyCompiler:
    """Feature extraction + model inference over a set of kernels."""

    def __init__(self, bundle: EnergyModelBundle, spec: GPUSpec) -> None:
        if bundle.models_ is None:
            raise ConfigurationError(
                "compiler needs a fitted EnergyModelBundle (run training first)"
            )
        self.spec = spec
        self.predictor = FrequencyPredictor(bundle, spec)

    def compile(
        self,
        kernels: Sequence[KernelIR | DeviceKernel],
        targets: Iterable[EnergyTarget],
        *,
        work_items: int | Mapping[str, int] | None = None,
    ) -> CompiledApplication:
        """Produce the frequency plan for every (kernel, target) pair.

        Kernels may be prebuilt :class:`KernelIR` objects or
        ``@device_kernel``-decorated functions — the latter run through the
        §6.1 front end here, exactly where the paper's pass sits in its
        toolchain. Decorated kernels need a launch size: pass ``work_items``
        as a single int or a ``{kernel_name: size}`` mapping.

        Duplicate kernel names are rejected: the plan is keyed by name, as
        the runtime identifies kernels by their mangled symbol.
        """
        kernels = [self._resolve(k, work_items) for k in kernels]
        names = [k.name for k in kernels]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(f"duplicate kernel names in application: {dupes}")
        target_list = list(targets)
        if not target_list:
            raise ConfigurationError("compile needs at least one energy target")
        entries: dict[tuple[str, str], tuple[int, int]] = {}
        features: dict[str, tuple[float, ...]] = {}
        for kernel in kernels:
            features[kernel.name] = tuple(extract_features(kernel))
            for target in target_list:
                entries[(kernel.name, target.name)] = self.predictor.predict_frequency(
                    kernel, target
                )
        plan = FrequencyPlan(device_name=self.spec.name, entries=entries)
        return CompiledApplication(
            kernels=tuple(kernels), plan=plan, feature_vectors=features
        )

    @staticmethod
    def _resolve(
        kernel: KernelIR | DeviceKernel,
        work_items: int | Mapping[str, int] | None,
    ) -> KernelIR:
        if isinstance(kernel, KernelIR):
            return kernel
        if isinstance(kernel, DeviceKernel):
            if isinstance(work_items, Mapping):
                size = work_items.get(kernel.name)
            else:
                size = work_items
            if size is None:
                raise ConfigurationError(
                    f"device kernel {kernel.name!r} needs a launch size: "
                    "pass work_items=<int> or {kernel_name: <int>}"
                )
            return kernel.kernel_ir(work_items=size)
        raise ConfigurationError(
            f"cannot compile {type(kernel).__name__}: expected KernelIR or "
            "@device_kernel function"
        )


if TYPE_CHECKING:  # pragma: no cover
    from repro.core.sweepcache import SweepCache


@dataclass(frozen=True)
class GlobalFrequencyPlan:
    """Per-rank clock assignments chosen from one *global* energy target.

    The single-device plan (:class:`FrequencyPlan`) answers "which clocks
    for this kernel under this target". At cluster scale the question
    changes: the job finishes when the slowest rank does, so uniform
    per-kernel targets waste nothing on the critical rank and too little
    on slack ranks. This plan is the output of
    :func:`plan_global_frequencies`: the critical-path rank keeps
    MAX_PERF-leaning clocks, slack ranks lean into energy-saving targets
    as far as the global SLA budget allows.

    Clocks are uniform per rank (``rank_clocks[r]``), so a plan costs at
    most one clock switch per rank regardless of kernel mix. ``entries``
    maps ``(rank, kernel_name)`` to ``(mem_mhz, core_mhz)``;
    the ``est_*``/``maxperf_*`` arrays are the planner's serial-compute
    estimates backing its choice (the executed numbers come from the
    graph executors and are validated against these invariants by
    ``repro-synergy validate --only distributed``).
    """

    device_name: str
    sla_factor: float
    budget_s: float
    critical_rank: int
    rank_targets: tuple[str, ...]
    rank_clocks: tuple[tuple[int, int], ...]
    entries: Mapping[tuple[int, str], tuple[int, int]]
    est_time_s: tuple[float, ...]
    est_energy_j: tuple[float, ...]
    maxperf_time_s: tuple[float, ...]
    maxperf_energy_j: tuple[float, ...]

    def clocks_for(self, rank: int, kernel_name: str) -> tuple[int, int]:
        """Clock pair for one kernel on one rank; raises if unplanned."""
        key = (rank, kernel_name)
        if key not in self.entries:
            raise ConfigurationError(
                f"no planned frequency for kernel {kernel_name!r} on rank "
                f"{rank}; replan with this rank's kernel set"
            )
        return self.entries[key]

    @property
    def n_ranks(self) -> int:
        """Ranks covered by the plan."""
        return len(self.rank_targets)

    @property
    def total_energy_j(self) -> float:
        """Planner estimate of whole-job compute energy under this plan."""
        return float(sum(self.est_energy_j))

    @property
    def maxperf_total_energy_j(self) -> float:
        """Estimate of whole-job compute energy with every rank at MAX_PERF."""
        return float(sum(self.maxperf_energy_j))

    @property
    def saved_j(self) -> float:
        """Estimated energy saved vs the all-MAX_PERF baseline."""
        return self.maxperf_total_energy_j - self.total_energy_j


def plan_global_frequencies(
    spec: GPUSpec,
    rank_kernels: Sequence[Sequence[KernelIR]],
    *,
    sla_factor: float = 1.25,
    objective: str = "MIN_EDP",
    cache: "bool | SweepCache | None" = None,
) -> GlobalFrequencyPlan:
    """Choose per-rank clocks meeting a global energy target (Fig. 10 regime).

    ``rank_kernels[r]`` is the kernel sequence rank ``r`` executes
    (repeats included) — e.g. :meth:`CommandGraph.rank_kernels
    <repro.distributed.graph.CommandGraph.rank_kernels>`. The planner
    sweeps each distinct kernel once, computes per rank the *uniform*
    core clock minimizing that rank's serial compute time (the rank-level
    MAX_PERF point), takes the slowest rank as the critical path, and
    sets the completion budget to ``sla_factor`` times the critical
    rank's MAX_PERF time.

    Clocks are uniform per rank — one pair for all of a rank's kernels —
    so every rank pays at most one clock switch (off the boot clocks) no
    matter the plan, keeping the §4.4 switch overhead out of the
    energy/SLA trade at fine-grained kernel durations.

    The critical rank keeps its MAX_PERF clock. Every slack rank scans
    the feasible frequencies — those where every kernel stays within
    ``sla_factor`` of its MAX_PERF duration, the rank's serial time fits
    the budget, and the rank's energy does not exceed its MAX_PERF
    energy — and picks the one minimizing the rank's energy-delay
    product (``objective="MIN_EDP"``, the default lean) or energy alone
    (``"MIN_ENERGY"``); ``objective="MAX_PERF"`` pins every rank to its
    MAX_PERF clock (the baseline plan). Infeasible ranks fall back to
    MAX_PERF.

    Two invariants hold by construction and are re-checked on *executed*
    graphs by ``repro-synergy validate --only distributed``: total
    planned energy never exceeds the all-MAX_PERF energy, and every
    command's duration is within ``sla_factor`` of its MAX_PERF duration
    — which, with target-independent communication costs, bounds graph
    completion at ``sla_factor`` times the MAX_PERF completion.
    """
    import numpy as np

    from repro.experiments.sweep import sweep_kernel

    if not sla_factor >= 1.0:  # also rejects NaN
        raise ConfigurationError(
            f"global SLA factor must be >= 1 ({sla_factor!r})"
        )
    if not rank_kernels or any(not ks for ks in rank_kernels):
        raise ConfigurationError("every rank needs at least one kernel")
    if objective not in ("MIN_EDP", "MIN_ENERGY", "MAX_PERF"):
        raise ConfigurationError(
            f"unknown global objective {objective!r}; expected MIN_EDP, "
            "MIN_ENERGY or MAX_PERF"
        )

    # Ranks with the same kernel sequence (by object identity, repeats
    # and order included) share every per-rank quantity below, so each
    # distinct sequence is planned once and broadcast to its ranks.
    # A sequence object shared by several ranks (as
    # CommandGraph.rank_kernels returns them) is keyed once; the map holds
    # each object so its id cannot be reused by another during the loop.
    group_of: dict[tuple[int, ...], int] = {}
    group_of_object: dict[int, tuple[Sequence[KernelIR], int]] = {}
    seqs: list[Sequence[KernelIR]] = []
    rank_group: list[int] = []
    for ks in rank_kernels:
        seen = group_of_object.get(id(ks))
        if seen is None:
            key = tuple(map(id, ks))
            g = group_of.get(key)
            if g is None:
                g = group_of[key] = len(seqs)
                seqs.append(ks)
            group_of_object[id(ks)] = (ks, g)
        else:
            g = seen[1]
        rank_group.append(g)

    # One sweep per distinct kernel object: time/energy columns over the
    # device's full core table at the default memory clock.
    sweeps: dict[int, object] = {}
    for ks in seqs:
        for k in ks:
            if id(k) not in sweeps:
                sweeps[id(k)] = sweep_kernel(spec, k, cache=cache)

    # Per sequence: serial time/energy columns over the table, per-kernel
    # duration matrix for the SLA guard, and the sequence-level MAX_PERF
    # point (the uniform clock minimizing serial time).
    group_rows = []
    for ks in seqs:
        mult: dict[int, int] = {}
        for k in ks:
            mult[id(k)] = mult.get(id(k), 0) + 1
        time_rows = np.stack([sweeps[i].time_s for i in mult])
        energy_rows = np.stack([sweeps[i].energy_j for i in mult])
        counts = np.asarray([mult[i] for i in mult], dtype=float)
        total_t, total_e = counts @ time_rows, counts @ energy_rows
        i_mp = int(np.argmin(total_t))
        group_rows.append((time_rows, total_t, total_e, i_mp))
    group_mp_t = [float(rows[1][rows[3]]) for rows in group_rows]
    group_mp_e = [float(rows[2][rows[3]]) for rows in group_rows]
    maxperf_t = [group_mp_t[g] for g in rank_group]
    maxperf_e = [group_mp_e[g] for g in rank_group]
    # The critical rank is the first rank with the largest MAX_PERF time.
    critical = int(max(range(len(rank_kernels)), key=maxperf_t.__getitem__))
    budget = sla_factor * maxperf_t[critical]

    freqs = next(iter(sweeps.values())).freqs_mhz
    mem = spec.default_mem_mhz

    def choice(g: int, lean: bool) -> tuple[str, tuple[int, int], float, float]:
        """``(target, clocks, time, energy)`` of a rank running ``seqs[g]``."""
        time_rows, total_t, total_e, best = group_rows[g]
        name = "MAX_PERF"
        if lean and objective != "MAX_PERF":
            per_kernel_ok = np.all(
                time_rows <= sla_factor * time_rows[:, [best]], axis=0
            )
            feasible = (
                per_kernel_ok
                & (total_t <= budget)
                & (total_e <= total_e[best])
            )
            score = (
                total_e * total_t if objective == "MIN_EDP" else total_e
            )
            idx = np.flatnonzero(feasible)
            if idx.size:
                cand = int(idx[np.argmin(score[idx])])
                if cand != best:
                    best, name = cand, objective
        return (
            name, (mem, int(freqs[best])),
            float(total_t[best]), float(total_e[best]),
        )

    slack_choice = [choice(g, True) for g in range(len(seqs))]
    per_rank = [slack_choice[g] for g in rank_group]
    per_rank[critical] = choice(rank_group[critical], False)
    names = [list(dict.fromkeys(k.name for k in ks)) for ks in seqs]
    entries: dict[tuple[int, str], tuple[int, int]] = {}
    for rank, (g, (_, pair, _, _)) in enumerate(zip(rank_group, per_rank)):
        for name in names[g]:
            entries[(rank, name)] = pair
    rank_targets = [c[0] for c in per_rank]
    rank_clocks = [c[1] for c in per_rank]
    est_t = [c[2] for c in per_rank]
    est_e = [c[3] for c in per_rank]
    return GlobalFrequencyPlan(
        device_name=spec.name,
        sla_factor=float(sla_factor),
        budget_s=float(budget),
        critical_rank=critical,
        rank_targets=tuple(rank_targets),
        rank_clocks=tuple(rank_clocks),
        entries=entries,
        est_time_s=tuple(est_t),
        est_energy_j=tuple(est_e),
        maxperf_time_s=tuple(maxperf_t),
        maxperf_energy_j=tuple(maxperf_e),
    )
