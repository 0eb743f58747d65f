"""Ordinary least squares."""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.ml.base import Estimator, check_Xy


class LinearRegression(Estimator):
    """OLS via :func:`numpy.linalg.lstsq` (rank-deficiency safe)."""

    def __init__(self, fit_intercept: bool = True) -> None:
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "LinearRegression":
        X, y = check_Xy(X, y)
        assert y is not None
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = float(y.mean())
            Xc, yc = X - x_mean, y - y_mean
        else:
            x_mean, y_mean = np.zeros(X.shape[1]), 0.0
            Xc, yc = X, y
        coef, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
        self.coef_ = coef
        self.intercept_ = y_mean - float(x_mean @ coef)
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("coef_")
        X, _ = check_Xy(X)
        assert self.coef_ is not None
        if X.shape[1] != self.coef_.shape[0]:
            raise ValidationError(
                f"feature count mismatch: fitted {self.coef_.shape[0]}, "
                f"got {X.shape[1]}"
            )
        return X @ self.coef_ + self.intercept_
