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
from repro.ml.base import Estimator, check_count, check_Xy
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
        self.max_iter = check_count("max_iter", max_iter)
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

    def _fit_columns(self, X, Y, models) -> None:
        """Coordinate maximization, every column's chain in lockstep.

        The scaler, ``gamma_``, the kernel matrix and its contiguous
        columns are built once. Each coordinate step reads every chain's
        gradient entry with one ``tolist`` and runs the scalar update in
        Python floats; a chain that moves updates its own gradient row
        (one row at a time is cheaper than a ``(t, n)`` update). A chain
        whose largest move falls below tolerance stops and is masked out
        of later sweeps. Per chain, the float operations are those of a
        single-column fit, so each ``beta_`` is bitwise the same.
        """
        scaler = StandardScaler().fit(X)
        Xs = scaler.transform(X)
        gamma = self._resolve_gamma(Xs)
        n = Xs.shape[0]
        K = rbf_kernel(Xs, Xs, gamma) + 1.0  # +1 absorbs the bias term
        diag = np.diag(K).copy()
        # Row i of K.T is column i of K, laid out contiguously: the same
        # values as the strided K[:, i] without the gather on every update.
        columns = np.ascontiguousarray(K.T)
        eps, C = self.epsilon, self.C

        n_targets = len(models)
        beta = [[0.0] * n for _ in range(n_targets)]
        # gradient residual: G[t, i] = Y[i, t] − Σ_j K_ij β_tj, maintained
        # incrementally
        G = Y.T.copy()
        g_rows = list(G)                      # one view per chain's row
        n_iter = [0] * n_targets
        chains = list(range(n_targets))
        for iteration in range(1, self.max_iter + 1):
            max_move = [0.0] * n_targets
            for i, d in enumerate(diag.tolist()):
                g = G[:, i].tolist()
                for t in chains:
                    # Unconstrained maximizer of the i-th coordinate with
                    # the ε-L1 term: soft-threshold of the partial residual.
                    b = beta[t]
                    rho = g[t] + d * b[i]
                    if rho > eps:
                        target = (rho - eps) / d
                    elif rho < -eps:
                        target = (rho + eps) / d
                    else:
                        target = 0.0
                    # Scalar box clip; check_Xy rejects non-finite inputs,
                    # so no NaN can reach it.
                    new_beta = min(max(target, -C), C)
                    delta = new_beta - b[i]
                    if delta != 0.0:
                        g_rows[t] -= delta * columns[i]
                        b[i] = new_beta
                        if abs(delta) > max_move[t]:
                            max_move[t] = abs(delta)
            for t in chains:
                n_iter[t] = iteration
            chains = [t for t in chains if not max_move[t] < self.tol * max(C, 1.0)]
            if not chains:
                break

        for t, model in enumerate(models):
            model._scaler, model._X, model.gamma_ = scaler, Xs, gamma
            model.beta_ = np.array(beta[t])
            model.n_iter_ = n_iter[t]

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
