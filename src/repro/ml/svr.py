"""ε-insensitive support vector regression with an RBF kernel.

The dual problem (with the bias absorbed into the kernel as ``K' = K + 1``,
removing the equality constraint) is

``max_β  −½ βᵀK'β + βᵀy − ε‖β‖₁   s.t.  |β_i| ≤ C``

solved by projected coordinate maximization: each coordinate update is a
closed-form soft-threshold followed by clipping to the box, cycling until
the largest coordinate move falls below tolerance. Inputs are standardized
internally (RBF kernels assume comparable feature scales).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.ml.base import Estimator, check_Xy
from repro.ml.preprocessing import StandardScaler


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Gaussian kernel matrix ``exp(−γ·‖a − b‖²)`` of shape ``(|A|, |B|)``."""
    a2 = np.sum(A**2, axis=1)[:, None]
    b2 = np.sum(B**2, axis=1)[None, :]
    sq = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma * sq)


class SVR(Estimator):
    """RBF-kernel ε-SVR.

    Parameters
    ----------
    C:
        Box constraint (regularization inverse).
    epsilon:
        Width of the ε-insensitive tube.
    gamma:
        RBF width; ``"scale"`` uses ``1 / (n_features · var(X))`` like
        scikit-learn.
    max_iter, tol:
        Coordinate-descent loop controls.
    """

    def __init__(
        self,
        C: float = 10.0,
        epsilon: float = 0.01,
        gamma: float | str = "scale",
        max_iter: int = 400,
        tol: float = 1e-5,
    ) -> None:
        if C <= 0:
            raise ValidationError(f"C must be positive ({C!r})")
        if epsilon < 0:
            raise ValidationError(f"epsilon cannot be negative ({epsilon!r})")
        if isinstance(gamma, str) and gamma != "scale":
            raise ValidationError(f"gamma must be a float or 'scale' ({gamma!r})")
        self.C = float(C)
        self.epsilon = float(epsilon)
        self.gamma = gamma
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self._scaler: StandardScaler | None = None
        self._X: np.ndarray | None = None
        self.beta_: np.ndarray | None = None
        self.gamma_: float | None = None
        self.n_iter_: int = 0

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if isinstance(self.gamma, (int, float)):
            if self.gamma <= 0:
                raise ValidationError(f"gamma must be positive ({self.gamma!r})")
            return float(self.gamma)
        var = float(X.var())
        return 1.0 / (X.shape[1] * var) if var > 0 else 1.0

    def fit(self, X, y) -> "SVR":
        X, y = check_Xy(X, y)
        assert y is not None
        self._scaler = StandardScaler().fit(X)
        Xs = self._scaler.transform(X)
        self.gamma_ = self._resolve_gamma(Xs)
        n = Xs.shape[0]
        K = rbf_kernel(Xs, Xs, self.gamma_) + 1.0  # +1 absorbs the bias term
        diag = np.diag(K).copy()
        # Row i of K.T is column i of K, laid out contiguously: the same
        # values as the strided K[:, i] without the gather on every update.
        columns = np.ascontiguousarray(K.T)

        beta = np.zeros(n)
        # gradient residual: g_i = y_i − Σ_j K_ij β_j, maintained incrementally
        g = y.astype(float).copy()
        for iteration in range(1, self.max_iter + 1):
            max_move = 0.0
            for i in range(n):
                # Unconstrained maximizer of the i-th coordinate with the
                # ε-L1 term: soft-threshold of the partial residual.
                rho = g[i] + diag[i] * beta[i]
                if rho > self.epsilon:
                    target = (rho - self.epsilon) / diag[i]
                elif rho < -self.epsilon:
                    target = (rho + self.epsilon) / diag[i]
                else:
                    target = 0.0
                # Scalar box clip; check_Xy rejects non-finite inputs, so
                # no NaN can reach it.
                new_beta = min(max(target, -self.C), self.C)
                delta = new_beta - beta[i]
                if delta != 0.0:
                    g -= delta * columns[i]
                    beta[i] = new_beta
                    max_move = max(max_move, abs(delta))
            self.n_iter_ = iteration
            if max_move < self.tol * max(self.C, 1.0):
                break

        self._X = Xs
        self.beta_ = beta
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("beta_")
        assert (
            self._scaler is not None
            and self._X is not None
            and self.beta_ is not None
            and self.gamma_ is not None
        )
        X, _ = check_Xy(X)
        Xs = self._scaler.transform(X)
        K = rbf_kernel(Xs, self._X, self.gamma_) + 1.0
        return K @ self.beta_
