"""Lasso regression via cyclic coordinate descent.

Minimizes ``(1/2n)·‖y − Xw − b‖² + α·‖w‖₁``. Features are standardized
internally (the textbook coordinate-descent update assumes comparable column
scales); coefficients are mapped back to the original scale after fitting.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.ml.base import Estimator, check_count, check_Xy


def _soft_threshold(value: float, threshold: float) -> float:
    """The proximal operator of the L1 norm."""
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


class Lasso(Estimator):
    """L1-regularized linear regression."""

    def __init__(
        self,
        alpha: float = 0.01,
        max_iter: int = 1000,
        tol: float = 1e-6,
        fit_intercept: bool = True,
    ) -> None:
        if alpha < 0:
            raise ValidationError(f"alpha cannot be negative ({alpha!r})")
        self.alpha = float(alpha)
        self.max_iter = check_count("max_iter", max_iter)
        self.tol = float(tol)
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    def _fit_columns(self, X, Y, models) -> None:
        """Cyclic coordinate descent, every column's chain in lockstep.

        All chains share the standardized design; each keeps its own
        residual row and its own ``Xs[:, j] @ residual`` dot (a batched
        product rounds differently). A chain whose largest move falls
        below ``tol`` stops and is masked out of later sweeps.
        """
        n, p = X.shape
        x_mean = X.mean(axis=0) if self.fit_intercept else np.zeros(p)
        x_scale = X.std(axis=0)
        x_scale[x_scale == 0.0] = 1.0
        Xs = (X - x_mean) / x_scale
        columns = np.ascontiguousarray(Y.T)
        n_targets = len(models)
        y_mean = [float(y.mean()) if self.fit_intercept else 0.0 for y in columns]
        # residual[t] = yc_t − Xs @ w[t], maintained incrementally
        residual = list(columns - np.array(y_mean)[:, None])
        w = [[0.0] * p for _ in range(n_targets)]
        col_sq = (Xs**2).sum(axis=0).tolist()
        threshold = self.alpha * n
        n_iter = [0] * n_targets
        chains = list(range(n_targets))

        for iteration in range(1, self.max_iter + 1):
            max_delta = [0.0] * n_targets
            for j in range(p):
                if col_sq[j] == 0.0:
                    continue
                xj = Xs[:, j]
                for t in chains:
                    wt = w[t]
                    rho = float(xj @ residual[t]) + col_sq[j] * wt[j]
                    w_new = _soft_threshold(rho, threshold) / col_sq[j]
                    delta = w_new - wt[j]
                    if delta != 0.0:
                        residual[t] -= delta * xj
                        wt[j] = w_new
                        if abs(delta) > max_delta[t]:
                            max_delta[t] = abs(delta)
            for t in chains:
                n_iter[t] = iteration
            chains = [t for t in chains if not max_delta[t] < self.tol]
            if not chains:
                break

        for t, model in enumerate(models):
            # Map back to the original feature scale.
            model.coef_ = np.array(w[t]) / x_scale
            model.intercept_ = y_mean[t] - float(x_mean @ model.coef_)
            model.n_iter_ = n_iter[t]

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
