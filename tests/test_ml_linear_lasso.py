"""Linear, ridge and lasso regression."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.ml.base import r2_score
from repro.ml.lasso import Lasso
from repro.ml.linear import LinearRegression


@pytest.fixture
def linear_data():
    rng = np.random.default_rng(7)
    X = rng.uniform(-3, 3, size=(200, 5))
    w = np.array([2.0, -1.0, 0.0, 0.5, 0.0])
    y = X @ w + 3.0 + rng.normal(0, 0.01, 200)
    return X, y, w


class TestLinearRegression:
    def test_recovers_coefficients(self, linear_data):
        X, y, w = linear_data
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.coef_, w, atol=0.02)
        assert model.intercept_ == pytest.approx(3.0, abs=0.02)

    def test_r2_near_one(self, linear_data):
        X, y, _ = linear_data
        assert LinearRegression().fit(X, y).score(X, y) > 0.999

    def test_no_intercept(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        model = LinearRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0
        assert model.coef_[0] == pytest.approx(2.0)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ValidationError):
            LinearRegression().predict([[1.0]])

    def test_feature_mismatch_rejected(self, linear_data):
        X, y, _ = linear_data
        model = LinearRegression().fit(X, y)
        with pytest.raises(ValidationError):
            model.predict(np.ones((3, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            LinearRegression().fit([[np.nan]], [1.0])

    def test_1d_X_promoted(self):
        model = LinearRegression().fit([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert model.predict([[4.0]])[0] == pytest.approx(8.0)

    def test_rank_deficient_handled(self):
        X = np.ones((10, 3))  # all-constant columns
        y = np.full(10, 5.0)
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.predict(X), 5.0)


class TestLasso:
    def test_sparsity_on_irrelevant_features(self, linear_data):
        X, y, w = linear_data
        model = Lasso(alpha=0.05).fit(X, y)
        zero = np.flatnonzero(w == 0.0)
        assert np.all(np.abs(model.coef_[zero]) < 0.02)

    def test_small_alpha_matches_ols(self, linear_data):
        X, y, _ = linear_data
        ols = LinearRegression().fit(X, y)
        lasso = Lasso(alpha=1e-6, max_iter=3000).fit(X, y)
        assert np.allclose(lasso.coef_, ols.coef_, atol=0.01)

    def test_huge_alpha_zeroes_everything(self, linear_data):
        X, y, _ = linear_data
        model = Lasso(alpha=1e6).fit(X, y)
        assert np.allclose(model.coef_, 0.0)
        assert model.intercept_ == pytest.approx(float(y.mean()), rel=1e-6)

    def test_converges_and_reports_iterations(self, linear_data):
        X, y, _ = linear_data
        model = Lasso(alpha=0.01).fit(X, y)
        assert 1 <= model.n_iter_ <= model.max_iter

    def test_prediction_quality(self, linear_data):
        X, y, _ = linear_data
        model = Lasso(alpha=0.001).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.99

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            Lasso(alpha=-0.1)
        with pytest.raises(ValidationError):
            Lasso(max_iter=0)

    def test_constant_feature_ignored(self):
        X = np.column_stack([np.ones(50), np.linspace(0, 1, 50)])
        y = 2.0 * X[:, 1] + 1.0
        model = Lasso(alpha=1e-6, max_iter=2000).fit(X, y)
        assert model.coef_[0] == pytest.approx(0.0, abs=1e-9)
        assert model.coef_[1] == pytest.approx(2.0, abs=0.05)
