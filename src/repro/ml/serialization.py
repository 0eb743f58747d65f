"""Estimator serialization to plain JSON-compatible dictionaries.

Deployment (§3.2) trains the energy models once per system; the trained
bundle must survive to later compile jobs. Serialization is explicit and
pickle-free: every estimator maps to a ``{"type": ..., ...}`` dict of
lists/floats, so model files are portable, inspectable and safe to load.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.errors import ValidationError
from repro.ml.base import Estimator
from repro.ml.forest import RandomForestRegressor
from repro.ml.lasso import Lasso
from repro.ml.linear import LinearRegression
from repro.ml.preprocessing import StandardScaler
from repro.ml.svr import SVR
from repro.ml.tree import DecisionTreeRegressor, FlatTree


def _array(value) -> list:
    return np.asarray(value, dtype=float).tolist()


# --------------------------------------------------------------------- trees

def _tree_to_dict(flat: FlatTree, node: int = 0) -> dict[str, Any]:
    """Nested-dict form of the subtree at ``node`` (leaves carry only a value)."""
    data: dict[str, Any] = {"value": float(flat.value[node])}
    if flat.feature[node] >= 0:
        data["feature"] = int(flat.feature[node])
        data["threshold"] = float(flat.threshold[node])
        data["left"] = _tree_to_dict(flat, int(flat.left[node]))
        data["right"] = _tree_to_dict(flat, int(flat.right[node]))
    return data


def _tree_from_dict(root: dict[str, Any]) -> FlatTree:
    """Preorder :class:`FlatTree` of a nested-dict tree."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def add(data: dict[str, Any]) -> int:
        i = len(value)
        value.append(float(data["value"]))
        feature.append(int(data.get("feature", -1)))
        threshold.append(float(data.get("threshold", 0.0)))
        left.append(-1)
        right.append(-1)
        if "feature" in data:
            left[i] = add(data["left"])
            right[i] = add(data["right"])
        return i

    add(root)
    return FlatTree.from_lists(feature, threshold, left, right, value)


# ---------------------------------------------------------------- estimators

def serialize_estimator(estimator: Estimator) -> dict[str, Any]:
    """Serialize any fitted repro estimator to a JSON-compatible dict."""
    if isinstance(estimator, (LinearRegression, Lasso)):
        if estimator.coef_ is None:
            raise ValidationError("cannot serialize an unfitted linear model")
        data: dict[str, Any] = {
            "type": type(estimator).__name__,
            "coef": _array(estimator.coef_),
            "intercept": float(estimator.intercept_),
        }
        if isinstance(estimator, Lasso):
            data["alpha"] = estimator.alpha
        return data
    if isinstance(estimator, DecisionTreeRegressor):
        if estimator._flat is None:
            raise ValidationError("cannot serialize an unfitted tree")
        return {
            "type": "DecisionTreeRegressor",
            "n_features": estimator.n_features_,
            "root": _tree_to_dict(estimator._flat),
        }
    if isinstance(estimator, RandomForestRegressor):
        if estimator.trees_ is None:
            raise ValidationError("cannot serialize an unfitted forest")
        return {
            "type": "RandomForestRegressor",
            "trees": [serialize_estimator(t) for t in estimator.trees_],
        }
    if isinstance(estimator, SVR):
        if estimator.beta_ is None:
            raise ValidationError("cannot serialize an unfitted SVR")
        assert estimator._scaler is not None and estimator._X is not None
        return {
            "type": "SVR",
            "beta": _array(estimator.beta_),
            "support_X": [_array(row) for row in estimator._X],
            "gamma": float(estimator.gamma_),
            "scaler_mean": _array(estimator._scaler.mean_),
            "scaler_scale": _array(estimator._scaler.scale_),
            "C": estimator.C,
            "epsilon": estimator.epsilon,
        }
    raise ValidationError(
        f"don't know how to serialize {type(estimator).__name__}"
    )


def deserialize_estimator(data: dict[str, Any]) -> Estimator:
    """Rebuild an estimator serialized by :func:`serialize_estimator`."""
    kind = data.get("type")
    if kind in ("LinearRegression", "Lasso"):
        if kind == "LinearRegression":
            est: Any = LinearRegression()
        else:
            est = Lasso(alpha=float(data.get("alpha", 0.01)))
        est.coef_ = np.asarray(data["coef"], dtype=float)
        est.intercept_ = float(data["intercept"])
        return est
    if kind == "DecisionTreeRegressor":
        tree = DecisionTreeRegressor()
        tree.n_features_ = int(data["n_features"])
        tree._flat = _tree_from_dict(data["root"])
        return tree
    if kind == "RandomForestRegressor":
        forest = RandomForestRegressor(n_estimators=max(len(data["trees"]), 1))
        forest.trees_ = [deserialize_estimator(t) for t in data["trees"]]  # type: ignore[misc]
        return forest
    if kind == "SVR":
        svr = SVR(C=float(data["C"]), epsilon=float(data["epsilon"]))
        svr.beta_ = np.asarray(data["beta"], dtype=float)
        svr._X = np.asarray(data["support_X"], dtype=float)
        svr.gamma_ = float(data["gamma"])
        scaler = StandardScaler()
        scaler.mean_ = np.asarray(data["scaler_mean"], dtype=float)
        scaler.scale_ = np.asarray(data["scaler_scale"], dtype=float)
        svr._scaler = scaler
        return svr
    raise ValidationError(f"unknown estimator type {kind!r}")
