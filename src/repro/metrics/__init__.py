"""Energy metrics and targets (paper §5).

- :mod:`~repro.metrics.energy` — EDP / ED2P scalarizations,
- :mod:`~repro.metrics.targets` — the user-facing target vocabulary
  (MAX_PERF, MIN_ENERGY, MIN_EDP, MIN_ED2P, ES_x, PL_x) and its resolution
  against a measured frequency sweep,
- :mod:`~repro.metrics.pareto` — Pareto-front extraction for the
  speedup/normalized-energy plane of Figs. 2, 7, 8,
- :mod:`~repro.metrics.tradeoff` — the ES_x / PL_x selection rules of
  §5.2–5.3,
- :mod:`~repro.metrics.errors` — APE / MAPE / RMSE used in §8.3.
"""

from repro.metrics.energy import ed2p, edp
from repro.metrics.errors import ape, mape, rmse
from repro.metrics.pareto import pareto_front_mask
from repro.metrics.targets import (
    DEADLINE,
    ES_25,
    ES_50,
    ES_75,
    ES_100,
    EnergyTarget,
    MAX_PERF,
    MIN_ED2P,
    MIN_EDP,
    MIN_ENERGY,
    PL_25,
    PL_50,
    PL_75,
    SLA_SLACK,
    TargetKind,
    deadline_index,
)
from repro.metrics.tradeoff import energy_saving_index, performance_loss_index

__all__ = [
    "edp",
    "ed2p",
    "ape",
    "mape",
    "rmse",
    "pareto_front_mask",
    "EnergyTarget",
    "TargetKind",
    "MAX_PERF",
    "MIN_ENERGY",
    "MIN_EDP",
    "MIN_ED2P",
    "ES_25",
    "ES_50",
    "ES_75",
    "ES_100",
    "PL_25",
    "PL_50",
    "PL_75",
    "DEADLINE",
    "SLA_SLACK",
    "deadline_index",
    "energy_saving_index",
    "performance_loss_index",
]
