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

    def _fit_columns(self, X, Y, models) -> None:
        """One ``lstsq`` per column (a multi-column solve rounds differently)."""
        x_mean = X.mean(axis=0) if self.fit_intercept else np.zeros(X.shape[1])
        Xc = X - x_mean if self.fit_intercept else X
        for model, y in zip(models, np.ascontiguousarray(Y.T)):
            y_mean = float(y.mean()) if self.fit_intercept else 0.0
            yc = y - y_mean if self.fit_intercept else y
            coef, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
            model.coef_ = coef
            model.intercept_ = y_mean - float(x_mean @ coef)

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
