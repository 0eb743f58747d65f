"""Estimator protocol and shared validation/scoring helpers."""

from __future__ import annotations

import abc
import copy
import numbers

import numpy as np

from repro.common.errors import ValidationError


class Estimator(abc.ABC):
    """Minimal fit/predict regression estimator interface.

    Each family implements :meth:`_fit_columns` once: it fits one model
    per target column of ``Y`` in one pass, sharing whatever does not
    depend on the target (scalers, kernel matrices, rank tables).
    :meth:`fit` is that pass with one column, and every fitted model is
    bitwise equal to the one a single-column fit of its column gives.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Estimator":
        """Fit on ``(n_samples, n_features)`` / ``(n_samples,)``; returns self."""
        X, Y = check_XY(X, np.asarray(y, dtype=float).ravel())
        self._fit_columns(X, Y, [self])
        return self

    def fit_many(self, X: np.ndarray, Y: np.ndarray) -> list["Estimator"]:
        """One fitted copy of this estimator per column of ``(n, t)`` ``Y``."""
        X, Y = check_XY(X, Y)
        models = [copy.copy(self) for _ in range(Y.shape[1])]
        self._fit_columns(X, Y, models)
        return models

    @abc.abstractmethod
    def _fit_columns(
        self, X: np.ndarray, Y: np.ndarray, models: list["Estimator"]
    ) -> None:
        """Fit ``models[t]`` (copies of self) on column ``t`` of validated ``Y``."""

    @abc.abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for ``(n_samples, n_features)``."""

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R² on the given data."""
        return r2_score(np.asarray(y, dtype=float), self.predict(X))

    def _check_fitted(self, attr: str) -> None:
        if not hasattr(self, attr) or getattr(self, attr) is None:
            raise ValidationError(
                f"{type(self).__name__} is not fitted; call fit() first"
            )


def check_Xy(X, y=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Validate and coerce a design matrix (and optional target vector)."""
    if y is not None:
        X, Y = check_XY(X, np.asarray(y, dtype=float).ravel())
        return X, Y[:, 0]
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValidationError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValidationError("X must contain at least one sample")
    if not np.all(np.isfinite(X)):
        raise ValidationError("X contains non-finite values")
    return X, None


def check_XY(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a design matrix and an ``(n_samples, n_targets)`` target matrix.

    A 1-D ``Y`` is one target column; this is the one place target rules live.
    """
    X, _ = check_Xy(X)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    if Y.ndim != 2 or Y.shape[1] == 0:
        raise ValidationError(f"Y must be 2-D with at least one column, got {Y.shape}")
    if Y.shape[0] != X.shape[0]:
        raise ValidationError(
            f"X and y disagree on sample count: {X.shape[0]} vs {Y.shape[0]}"
        )
    if not np.all(np.isfinite(Y)):
        raise ValidationError("y contains non-finite values")
    return X, Y


def check_count(name: str, value, minimum: int = 1) -> int:
    """``value`` as an ``int`` if it is an integer ``>= minimum`` (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer ({value!r})")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum} ({value!r})")
    return int(value)


def r2_score(y_true, y_pred) -> float:
    """R² = 1 − SS_res/SS_tot; a constant target scores 0 unless matched exactly."""
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    if y_true.shape != y_pred.shape:
        raise ValidationError(
            f"shape mismatch: {y_true.shape} vs {y_pred.shape}"
        )
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - np.mean(y_true)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot
