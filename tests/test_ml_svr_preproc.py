"""SVR, scaler, splitting and cross-validation."""

import hashlib

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.ml.linear import LinearRegression
from repro.ml.preprocessing import KFold, StandardScaler, train_test_split
from repro.ml.selection import cross_val_score
from repro.ml.svr import SVR, rbf_kernel


class TestRBFKernel:
    def test_self_similarity_one(self):
        X = np.random.default_rng(0).normal(size=(5, 3))
        K = rbf_kernel(X, X, gamma=0.5)
        assert np.allclose(np.diag(K), 1.0)

    def test_symmetric(self):
        X = np.random.default_rng(1).normal(size=(6, 2))
        K = rbf_kernel(X, X, gamma=1.0)
        assert np.allclose(K, K.T)

    def test_decays_with_distance(self):
        A = np.array([[0.0], [1.0], [5.0]])
        K = rbf_kernel(A, np.array([[0.0]]), gamma=1.0).ravel()
        assert K[0] > K[1] > K[2]


class TestSVR:
    def test_fits_smooth_function(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-3, 3, size=(250, 2))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
        model = SVR(C=10.0, epsilon=0.01).fit(X, y)
        assert model.score(X, y) > 0.97

    def test_generalizes(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-3, 3, size=(300, 1))
        y = np.sin(X[:, 0])
        model = SVR(C=10.0, epsilon=0.01).fit(X[:200], y[:200])
        assert model.score(X[200:], y[200:]) > 0.95

    def test_epsilon_tube_controls_support_vectors(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-2, 2, size=(150, 1))
        y = X[:, 0] * 2.0
        tight = SVR(C=10.0, epsilon=1e-4).fit(X, y)
        loose = SVR(C=10.0, epsilon=0.5).fit(X, y)
        assert len(loose.support_) < len(tight.support_)

    def test_box_constraint_respected(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(80, 1))
        y = rng.normal(0, 10.0, 80)  # noisy: pushes coefficients to the box
        model = SVR(C=0.5, epsilon=0.0).fit(X, y)
        assert np.all(np.abs(model.beta_) <= 0.5 + 1e-9)

    @pytest.mark.parametrize(
        ("C", "epsilon", "digest"),
        [(0.5, 0.0, "1f0c2f742e2e142c"), (50.0, 1e-3, "385bffc871bffb4e")],
    )
    def test_fit_is_bitwise_pinned(self, C, epsilon, digest):
        # The coordinate loop's exact float sequence: the box-clipped case
        # (C=0.5) and the interior case. Any reordering of the updates
        # moves these bytes.
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 4))
        y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(0, 0.5, 60)
        model = SVR(C=C, epsilon=epsilon, max_iter=50).fit(X, y)
        assert hashlib.sha256(model.beta_.tobytes()).hexdigest()[:16] == digest

    def test_gamma_scale_default(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 4))
        y = X[:, 0]
        model = SVR().fit(X, y)
        assert model.gamma_ == pytest.approx(1.0 / (4 * X.std() ** 2 / 1.0), rel=0.5)

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            SVR(C=0.0)
        with pytest.raises(ValidationError):
            SVR(epsilon=-0.1)
        with pytest.raises(ValidationError):
            SVR(gamma="auto")
        with pytest.raises(ValidationError):
            SVR(gamma=-1.0).fit([[1.0], [2.0]], [1.0, 2.0])


class TestStandardScaler:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(7)
        X = rng.normal(5.0, 3.0, size=(300, 4))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_centered_only(self):
        X = np.column_stack([np.full(10, 4.0), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z[:, 0], 0.0)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 3))
        scaler = StandardScaler().fit(X)
        assert np.allclose(scaler.inverse_transform(scaler.transform(X)), X)

    def test_transform_before_fit(self):
        with pytest.raises(ValidationError):
            StandardScaler().transform([[1.0]])

    def test_feature_mismatch(self):
        scaler = StandardScaler().fit(np.ones((5, 2)))
        with pytest.raises(ValidationError):
            scaler.transform(np.ones((5, 3)))


class TestSplitting:
    def test_split_sizes(self):
        X = np.arange(100.0).reshape(-1, 1)
        y = np.arange(100.0)
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, test_fraction=0.2, seed=0)
        assert len(X_te) == 20 and len(X_tr) == 80
        assert len(y_te) == 20 and len(y_tr) == 80

    def test_split_is_partition(self):
        X = np.arange(50.0).reshape(-1, 1)
        y = np.arange(50.0)
        X_tr, X_te, _, _ = train_test_split(X, y, seed=1)
        combined = sorted(np.concatenate([X_tr, X_te]).ravel().tolist())
        assert combined == sorted(X.ravel().tolist())

    def test_invalid_fraction(self):
        X = np.ones((10, 1))
        y = np.ones(10)
        with pytest.raises(ValidationError):
            train_test_split(X, y, test_fraction=0.0)

    def test_kfold_covers_all_indices(self):
        folds = list(KFold(n_splits=4, seed=0).split(23))
        assert len(folds) == 4
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(23))

    def test_kfold_train_test_disjoint(self):
        for train, test in KFold(n_splits=3, seed=2).split(30):
            assert not set(train) & set(test)

    def test_kfold_too_few_samples(self):
        with pytest.raises(ValidationError):
            list(KFold(n_splits=5).split(3))

    def test_kfold_min_splits(self):
        with pytest.raises(ValidationError):
            KFold(n_splits=1)


def test_cross_val_score_reasonable():
    rng = np.random.default_rng(9)
    X = rng.uniform(-2, 2, size=(120, 2))
    y = 3 * X[:, 0] - X[:, 1] + rng.normal(0, 0.05, 120)
    scores = cross_val_score(LinearRegression, X, y, n_splits=4, seed=0)
    assert scores.shape == (4,)
    assert np.all(scores > 0.99)
