"""From-scratch machine-learning algorithms (paper §8.3).

scikit-learn is not available offline, so the four regression families the
paper compares are reimplemented on NumPy:

- :class:`~repro.ml.linear.LinearRegression` (ordinary least squares),
- :class:`~repro.ml.lasso.Lasso` (cyclic coordinate descent),
- :class:`~repro.ml.forest.RandomForestRegressor` over
  :class:`~repro.ml.tree.DecisionTreeRegressor` (CART, variance reduction),
- :class:`~repro.ml.svr.SVR` with an RBF kernel (ε-insensitive dual solved
  by projected coordinate descent with the bias absorbed into the kernel).

Plus the supporting cast: :class:`~repro.ml.preprocessing.StandardScaler`
(the SVR's feature scaling), :func:`~repro.ml.base.r2_score` and the JSON
round trip of :mod:`~repro.ml.serialization`.
"""

from repro.ml.base import Estimator, check_Xy, r2_score
from repro.ml.forest import RandomForestRegressor
from repro.ml.lasso import Lasso
from repro.ml.linear import LinearRegression
from repro.ml.preprocessing import StandardScaler
from repro.ml.svr import SVR
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "Estimator",
    "check_Xy",
    "r2_score",
    "LinearRegression",
    "Lasso",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "SVR",
    "StandardScaler",
]
