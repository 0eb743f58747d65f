"""Model serialization: estimator round-trips and bundle files."""

import json

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.core.models import EnergyModelBundle
from repro.core.persistence import (
    bundle_from_dict,
    bundle_to_dict,
    load_bundle,
    save_bundle,
)
from repro.ml.forest import RandomForestRegressor
from repro.ml.lasso import Lasso
from repro.ml.linear import LinearRegression
from repro.ml.serialization import deserialize_estimator, serialize_estimator
from repro.ml.svr import SVR
from repro.ml.tree import DecisionTreeRegressor


@pytest.fixture
def data():
    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, size=(120, 3))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + 0.1 * X[:, 2]
    return X, y


@pytest.mark.parametrize(
    "factory",
    [
        LinearRegression,
        lambda: Lasso(alpha=0.001),
        lambda: DecisionTreeRegressor(max_depth=6),
        lambda: RandomForestRegressor(n_estimators=8, seed=3),
        lambda: SVR(C=5.0, epsilon=0.01),
    ],
)
def test_estimator_roundtrip(factory, data):
    X, y = data
    model = factory().fit(X, y)
    payload = serialize_estimator(model)
    # Must survive a JSON round trip (the on-disk representation).
    restored = deserialize_estimator(json.loads(json.dumps(payload)))
    assert np.allclose(restored.predict(X), model.predict(X))


def test_unfitted_estimator_rejected():
    with pytest.raises(ValidationError):
        serialize_estimator(LinearRegression())
    with pytest.raises(ValidationError):
        serialize_estimator(RandomForestRegressor())
    with pytest.raises(ValidationError):
        serialize_estimator(SVR())


def test_unknown_type_rejected():
    with pytest.raises(ValidationError):
        deserialize_estimator({"type": "GradientBoosting"})


class TestBundlePersistence:
    def test_roundtrip_preserves_predictions(self, trained_bundle, compute_kernel, tmp_path):
        path = save_bundle(trained_bundle, tmp_path / "v100.json")
        restored = load_bundle(path)
        freqs = list(range(200, 1500, 100))
        original = trained_bundle.predict_curves(compute_kernel, freqs)
        loaded = restored.predict_curves(compute_kernel, freqs)
        for name in ("time", "energy", "edp", "ed2p"):
            assert np.allclose(original[name], loaded[name])
        assert restored.device_name == trained_bundle.device_name

    def test_unfitted_bundle_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            save_bundle(EnergyModelBundle(), tmp_path / "x.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_bundle(tmp_path / "missing.json")

    def test_wrong_format_rejected(self):
        with pytest.raises(ValidationError):
            bundle_from_dict({"format": "something-else"})

    def test_wrong_version_rejected(self, trained_bundle):
        payload = bundle_to_dict(trained_bundle)
        payload["version"] = 999
        with pytest.raises(ValidationError):
            bundle_from_dict(payload)

    def test_incomplete_models_rejected(self, trained_bundle):
        payload = bundle_to_dict(trained_bundle)
        del payload["models"]["edp"]
        with pytest.raises(ValidationError):
            bundle_from_dict(payload)

    def test_loaded_bundle_drives_compiler(self, trained_bundle, tmp_path):
        from repro.core.compiler import SynergyCompiler
        from repro.hw.specs import NVIDIA_V100
        from repro.apps import get_benchmark
        from repro.metrics.targets import MIN_EDP

        restored = load_bundle(save_bundle(trained_bundle, tmp_path / "b.json"))
        kernel = get_benchmark("median").kernel
        original = SynergyCompiler(trained_bundle, NVIDIA_V100).compile(
            [kernel], [MIN_EDP]
        )
        loaded = SynergyCompiler(restored, NVIDIA_V100).compile([kernel], [MIN_EDP])
        assert original.plan.entries == loaded.plan.entries


def test_v1_tree_dict_loads_and_predicts_its_structure():
    # x0 <= 1.5 ? (x1 <= 0.0 ? 10 : 20) : 30, in the nested v1 tree format.
    payload = {
        "type": "DecisionTreeRegressor",
        "n_features": 2,
        "root": {
            "value": 17.0, "feature": 0, "threshold": 1.5,
            "left": {
                "value": 15.0, "feature": 1, "threshold": 0.0,
                "left": {"value": 10.0},
                "right": {"value": 20.0},
            },
            "right": {"value": 30.0},
        },
    }
    tree = deserialize_estimator(payload)
    X = [[0.0, -1.0], [1.5, 0.0], [1.0, 2.0], [1.6, -5.0], [9.0, 9.0]]
    assert tree.predict(X).tolist() == [10.0, 10.0, 20.0, 30.0, 30.0]
    assert (tree.depth(), int(np.count_nonzero(tree.flat_tree().feature < 0))) == (2, 3)
    assert serialize_estimator(tree) == payload
    stump = {"type": "DecisionTreeRegressor", "n_features": 2, "root": {"value": 4.0}}
    forest = deserialize_estimator(
        {"type": "RandomForestRegressor", "trees": [payload, stump]}
    )
    assert forest.predict(X).tolist() == [7.0, 7.0, 12.0, 17.0, 17.0]
