"""Pareto-front extraction."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.metrics.pareto import pareto_front_mask


def test_single_point_is_optimal():
    assert pareto_front_mask([1.0], [1.0]).tolist() == [True]


def test_dominated_point_excluded():
    # Point 1 is slower AND hungrier than point 0.
    mask = pareto_front_mask([1.0, 0.8], [1.0, 1.2])
    assert mask.tolist() == [True, False]


def test_tradeoff_points_both_kept():
    mask = pareto_front_mask([1.0, 0.8], [1.0, 0.7])
    assert mask.tolist() == [True, True]


def test_identical_points_both_kept():
    mask = pareto_front_mask([1.0, 1.0], [0.5, 0.5])
    assert mask.tolist() == [True, True]


def test_classic_staircase():
    speedup = np.array([0.5, 0.7, 0.9, 1.0, 1.1])
    energy = np.array([0.6, 0.7, 0.65, 0.9, 1.0])
    mask = pareto_front_mask(speedup, energy)
    # (0.7, 0.7) is dominated by (0.9, 0.65).
    assert mask.tolist() == [True, False, True, True, True]


def test_front_energy_decreasing_as_speedup_decreases():
    rng = np.random.default_rng(0)
    speedup = rng.uniform(0.5, 1.2, 200)
    energy = rng.uniform(0.5, 1.2, 200)
    mask = pareto_front_mask(speedup, energy)
    order = np.argsort(speedup[mask])
    # Along the front, higher speedup must cost at least as much energy.
    assert np.all(np.diff(energy[mask][order]) >= 0)


def test_shape_mismatch_rejected():
    with pytest.raises(ValidationError):
        pareto_front_mask([1.0, 2.0], [1.0])


def test_2d_input_rejected():
    with pytest.raises(ValidationError):
        pareto_front_mask(np.ones((2, 2)), np.ones((2, 2)))
