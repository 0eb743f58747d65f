"""JSON export of experiment results (artifact-evaluation style).

Every harness result maps to a plain JSON document so downstream tooling
(plotting scripts, the AD/AE appendix workflow the paper mentions) can
consume reproduction data without importing this package.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.experiments.accuracy import AccuracyAnalysis
from repro.experiments.characterization import CharacterizationResult
from repro.experiments.faults import ChaosResult
from repro.experiments.scaling import ScalingResult
from repro.experiments.sweep import FrequencySweep


def sweep_to_dict(sweep: FrequencySweep) -> dict:
    """Full per-frequency series of one kernel sweep."""
    return {
        "kind": "frequency_sweep",
        "kernel": sweep.kernel_name,
        "device": sweep.device_name,
        "default_index": sweep.default_index,
        "freqs_mhz": sweep.freqs_mhz.tolist(),
        "time_s": sweep.time_s.tolist(),
        "energy_j": sweep.energy_j.tolist(),
        "speedup": sweep.speedup.tolist(),
        "normalized_energy": sweep.normalized_energy.tolist(),
        "pareto_mask": sweep.pareto_mask.tolist(),
    }


def characterization_to_dict(result: CharacterizationResult) -> dict:
    """Summary + full sweep of one characterization run (Figs. 2/7/8)."""
    return {
        "kind": "characterization",
        "summary": {
            "pareto_speedup_min": result.pareto_speedup_min,
            "pareto_speedup_max": result.pareto_speedup_max,
            "max_energy_saving": result.max_energy_saving,
            "loss_at_max_saving": result.loss_at_max_saving,
            "default_is_pareto": result.default_is_pareto,
        },
        "sweep": sweep_to_dict(result.sweep),
    }


def scaling_to_dict(result: ScalingResult) -> dict:
    """All points of a Fig. 10 weak-scaling run."""
    return {
        "kind": "scaling",
        "app": result.app_name,
        "device": result.device_name,
        "points": [
            {
                "n_gpus": p.n_gpus,
                "target": p.target_name,
                "elapsed_s": p.elapsed_s,
                "gpu_energy_j": p.gpu_energy_j,
                "comm_time_s": p.comm_time_s,
            }
            for p in result.points
        ],
    }


def accuracy_to_dict(analysis: AccuracyAnalysis) -> dict:
    """All prediction records plus the Table 2 aggregate."""
    def _clean(value):
        return None if isinstance(value, float) and np.isnan(value) else value

    return {
        "kind": "accuracy",
        "device": analysis.device_name,
        "records": [
            {
                "benchmark": r.benchmark,
                "objective": r.objective,
                "algorithm": r.algorithm,
                "predicted_freq_mhz": r.predicted_freq_mhz,
                "actual_freq_mhz": r.actual_freq_mhz,
                "predicted_value": r.predicted_value,
                "actual_value": r.actual_value,
                "ape": r.ape,
            }
            for r in analysis.records
        ],
        "table2": [
            {key: _clean(value) for key, value in row.items()}
            for row in analysis.table2()
        ],
    }


def chaos_to_dict(result: ChaosResult) -> dict:
    """All points of a chaos sweep (resilience vs fault rate)."""
    return {
        "kind": "chaos_sweep",
        "app": result.app_name,
        "device": result.device_name,
        "target": result.target_name,
        "seed": result.seed,
        "points": result.rows(),
    }


def write_json(payload: dict, path: str | Path) -> Path:
    """Write an exported document to disk; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2))
    return path
