"""CART tree and random forest."""

import tracemalloc

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor


def _leaves(tree):
    """Leaf count of a fitted tree: flat-tree nodes with no split feature."""
    return int(np.count_nonzero(tree.flat_tree().feature < 0))


@pytest.fixture
def step_data():
    """A piecewise-constant target: trees should fit it exactly."""
    X = np.linspace(0, 1, 200).reshape(-1, 1)
    y = np.where(X[:, 0] < 0.3, 1.0, np.where(X[:, 0] < 0.7, 5.0, 2.0))
    return X, y


@pytest.fixture
def smooth_data():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, size=(400, 3))
    y = np.sin(X[:, 0] * 2) + X[:, 1] ** 2 + 0.3 * X[:, 2]
    return X, y


class TestDecisionTree:
    def test_fits_step_function_exactly(self, step_data):
        X, y = step_data
        tree = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(tree.predict(X), y)

    def test_depth_limit_respected(self, smooth_data):
        X, y = smooth_data
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert tree.depth() <= 3
        assert _leaves(tree) <= 8

    def test_min_samples_leaf(self, step_data):
        X, y = step_data
        tree = DecisionTreeRegressor(min_samples_leaf=50).fit(X, y)
        # 200 samples / >=50 per leaf -> at most 4 leaves.
        assert _leaves(tree) <= 4

    def test_constant_target_single_leaf(self):
        X = np.arange(10.0).reshape(-1, 1)
        tree = DecisionTreeRegressor().fit(X, np.full(10, 7.0))
        assert _leaves(tree) == 1
        assert tree.predict([[100.0]])[0] == pytest.approx(7.0)

    def test_interpolates_between_training_points(self, smooth_data):
        X, y = smooth_data
        tree = DecisionTreeRegressor(max_depth=10).fit(X, y)
        assert tree.score(X, y) > 0.9

    def test_predict_before_fit(self):
        with pytest.raises(ValidationError):
            DecisionTreeRegressor().predict([[1.0]])

    def test_feature_count_checked(self, step_data):
        X, y = step_data
        tree = DecisionTreeRegressor().fit(X, y)
        with pytest.raises(ValidationError):
            tree.predict(np.ones((2, 3)))

    def test_adjacent_floats_split_exactly(self):
        # The midpoint of these neighbours rounds up to the upper value; the
        # threshold falls back to the lower one so both leaves stay non-empty.
        lo = np.nextafter(1.0, 2.0)
        hi = np.nextafter(lo, 2.0)
        assert (lo + hi) / 2.0 == hi
        tree = DecisionTreeRegressor().fit([[lo], [hi]], [0.0, 1.0])
        assert tree.predict([[lo], [hi]]).tolist() == [0.0, 1.0]
        assert _leaves(tree) == 2

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(min_samples_leaf=0)

    def test_feature_subsampling_deterministic(self, smooth_data):
        X, y = smooth_data
        a = DecisionTreeRegressor(max_features=1, seed=5).fit(X, y).predict(X)
        b = DecisionTreeRegressor(max_features=1, seed=5).fit(X, y).predict(X)
        assert np.allclose(a, b)


class TestRandomForest:
    def test_beats_single_deep_tree_on_noise(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-2, 2, size=(300, 3))
        y = np.sin(X[:, 0] * 2) + rng.normal(0, 0.4, 300)
        X_test = rng.uniform(-2, 2, size=(200, 3))
        y_test = np.sin(X_test[:, 0] * 2)
        tree = DecisionTreeRegressor(seed=0).fit(X, y)
        forest = RandomForestRegressor(n_estimators=40, seed=0).fit(X, y)
        assert forest.score(X_test, y_test) > tree.score(X_test, y_test)

    def test_deterministic_given_seed(self, smooth_data):
        X, y = smooth_data
        a = RandomForestRegressor(n_estimators=8, seed=4).fit(X, y).predict(X[:20])
        b = RandomForestRegressor(n_estimators=8, seed=4).fit(X, y).predict(X[:20])
        assert np.allclose(a, b)

    def test_seed_matters(self, smooth_data):
        X, y = smooth_data
        a = RandomForestRegressor(n_estimators=8, seed=1).fit(X, y).predict(X[:20])
        b = RandomForestRegressor(n_estimators=8, seed=2).fit(X, y).predict(X[:20])
        assert not np.allclose(a, b)

    def test_prediction_is_tree_mean(self, smooth_data):
        X, y = smooth_data
        forest = RandomForestRegressor(n_estimators=5, seed=9).fit(X, y)
        stacked = np.stack([t.predict(X[:10]) for t in forest.trees_])
        assert np.allclose(forest.predict(X[:10]), stacked.mean(axis=0))

    def test_no_bootstrap_mode(self, smooth_data):
        X, y = smooth_data
        forest = RandomForestRegressor(
            n_estimators=5, bootstrap=False, max_features=None, seed=0
        ).fit(X, y)
        assert forest.score(X, y) > 0.95

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            RandomForestRegressor(n_estimators=0)

    def test_nonlinear_fit_quality(self, smooth_data):
        X, y = smooth_data
        forest = RandomForestRegressor(n_estimators=30, seed=2).fit(X, y)
        assert forest.score(X, y) > 0.93


#: tracemalloc peak of ``EnergyModelBundle().fit`` on the default V100
#: stride-24 training set (531 rows) with the recursive per-node grower.
RECURSIVE_GROWER_PEAK_BYTES = 13_838_404


def test_bundle_fit_peak_memory_bounded():
    """Level-synchronous growth stays within 1.5x the recursive grower's peak.

    Measured peaks (tracemalloc, one default bundle fit, stride-24 V100
    training set): 13.84 MB for the recursive grower, whose node objects
    dominate; 6.29 MB for the level-synchronous grower, which never copies
    ``X`` per tree and caps each padded scan chunk.
    """
    from repro.core.models import EnergyModelBundle
    from repro.experiments.training import microbench_training_set
    from repro.hw.specs import NVIDIA_V100

    training = microbench_training_set(NVIDIA_V100, freq_stride=24)
    tracemalloc.start()
    try:
        EnergyModelBundle().fit(training)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * RECURSIVE_GROWER_PEAK_BYTES
