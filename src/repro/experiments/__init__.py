"""Experiment harnesses reproducing the paper's tables and figures.

Each module is a reusable building block; :mod:`~repro.experiments.artifacts`
wires them into one registry entry per table/figure, which ``repro-synergy
validate --only paper`` runs and checks (see DESIGN.md's experiment index):

- :mod:`~repro.experiments.sweep` — per-kernel frequency sweeps (the
  measurement underlying Figs. 2, 4, 5, 7, 8),
- :mod:`~repro.experiments.characterization` — speedup/normalized-energy
  characterization and Pareto fronts; fine- vs coarse-grained tuning,
- :mod:`~repro.experiments.training` — micro-benchmark training sets and
  per-algorithm model bundles (§6.1),
- :mod:`~repro.experiments.accuracy` — the §8.3 prediction-accuracy
  protocol (Fig. 9 APE, Table 2 RMSE/MAPE),
- :mod:`~repro.experiments.scaling` — the §8.4 multi-node weak-scaling
  experiment on the simulated Marconi-100 (Fig. 10),
- :mod:`~repro.experiments.report` — ASCII tables matching the paper's
  presentation.
"""

from repro.experiments.accuracy import AccuracyAnalysis, run_accuracy_analysis
from repro.experiments.characterization import (
    CharacterizationResult,
    characterize,
    fine_vs_coarse,
)
from repro.experiments.report import format_table
from repro.experiments.scaling import ScalingResult, run_scaling_experiment
from repro.experiments.sweep import (
    FrequencySweep,
    FrequencySweep2D,
    sweep_kernel,
    sweep_kernel_2d,
)
from repro.experiments.training import ALGORITHM_NAMES, make_bundle, train_bundles

__all__ = [
    "FrequencySweep",
    "FrequencySweep2D",
    "sweep_kernel",
    "sweep_kernel_2d",
    "CharacterizationResult",
    "characterize",
    "fine_vs_coarse",
    "ALGORITHM_NAMES",
    "make_bundle",
    "train_bundles",
    "AccuracyAnalysis",
    "run_accuracy_analysis",
    "ScalingResult",
    "run_scaling_experiment",
    "format_table",
]
