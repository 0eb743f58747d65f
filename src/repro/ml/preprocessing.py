"""Feature scaling."""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.ml.base import check_Xy


class StandardScaler:
    """Zero-mean unit-variance feature scaling (constant columns pass through)."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X) -> "StandardScaler":
        """Learn per-feature mean and standard deviation."""
        X, _ = check_Xy(X)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0  # constant features are centered only
        self.scale_ = scale
        return self

    def transform(self, X) -> np.ndarray:
        """Apply the learned scaling."""
        if self.mean_ is None or self.scale_ is None:
            raise ValidationError("StandardScaler is not fitted")
        X, _ = check_Xy(X)
        if X.shape[1] != self.mean_.shape[0]:
            raise ValidationError(
                f"feature count mismatch: fitted {self.mean_.shape[0]}, "
                f"got {X.shape[1]}"
            )
        return (X - self.mean_) / self.scale_
