"""Benchmark characterization (Figs. 2, 7, 8) and the fine-vs-coarse ablation.

:func:`characterize` produces the speedup/normalized-energy summary the
paper plots per benchmark; :func:`fine_vs_coarse` quantifies §2.2's central
claim — per-kernel (fine-grained) frequency selection beats the best single
frequency for a whole multi-kernel application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.experiments.sweep import FrequencySweep, sweep_kernel
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget


@dataclass(frozen=True)
class CharacterizationResult:
    """Summary of one benchmark's Pareto structure on one device."""

    sweep: FrequencySweep
    #: Speedup range across Pareto-optimal configurations (Fig. 7 analysis).
    pareto_speedup_min: float
    pareto_speedup_max: float
    #: Largest energy saving vs default among Pareto points (fraction).
    max_energy_saving: float
    #: Performance loss (fraction) at the maximum-energy-saving point.
    loss_at_max_saving: float
    #: Whether the default configuration is itself Pareto-optimal.
    default_is_pareto: bool


def characterize(spec: GPUSpec, kernel: KernelIR) -> CharacterizationResult:
    """Sweep a kernel and summarize its Pareto front."""
    sweep = sweep_kernel(spec, kernel)
    mask = sweep.pareto_mask
    speedups = sweep.speedup[mask]
    energies = sweep.normalized_energy[mask]
    best_saving_idx = int(np.argmin(energies))
    return CharacterizationResult(
        sweep=sweep,
        pareto_speedup_min=float(speedups.min()),
        pareto_speedup_max=float(speedups.max()),
        max_energy_saving=float(1.0 - energies.min()),
        loss_at_max_saving=float(1.0 - speedups[best_saving_idx]),
        default_is_pareto=bool(mask[sweep.default_index]),
    )


@dataclass(frozen=True)
class FineVsCoarseResult:
    """Energy comparison between tuning granularities for one target."""

    target_name: str
    #: Total energy with per-kernel frequencies (fine-grained, §2.2).
    fine_energy_j: float
    fine_time_s: float
    #: Total energy with the single best application-wide frequency.
    coarse_energy_j: float
    coarse_time_s: float
    #: Fraction of coarse energy saved by going fine-grained.
    fine_advantage: float


def fine_vs_coarse(
    spec: GPUSpec, kernels: Sequence[KernelIR], target: EnergyTarget
) -> FineVsCoarseResult:
    """Compare per-kernel tuning against the best single frequency.

    *Fine-grained* resolves the target independently per kernel and sums
    the per-kernel optima. *Coarse-grained* evaluates every single
    frequency applied to all kernels, resolves the target on the summed
    curves, and reports that optimum — the best any application-wide
    setting could do.
    """
    if not kernels:
        raise ValidationError("fine vs coarse needs at least one kernel")
    sweeps = [sweep_kernel(spec, k) for k in kernels]
    freqs = sweeps[0].freqs_mhz
    default_index = sweeps[0].default_index

    fine_time = 0.0
    fine_energy = 0.0
    for sweep in sweeps:
        idx = sweep.resolve(target)
        fine_time += float(sweep.time_s[idx])
        fine_energy += float(sweep.energy_j[idx])

    total_time = np.sum([s.time_s for s in sweeps], axis=0)
    total_energy = np.sum([s.energy_j for s in sweeps], axis=0)
    coarse_idx = target.resolve_index(freqs, total_time, total_energy, default_index)
    coarse_time = float(total_time[coarse_idx])
    coarse_energy = float(total_energy[coarse_idx])

    return FineVsCoarseResult(
        target_name=target.name,
        fine_energy_j=fine_energy,
        fine_time_s=fine_time,
        coarse_energy_j=coarse_energy,
        coarse_time_s=coarse_time,
        fine_advantage=1.0 - fine_energy / coarse_energy,
    )
