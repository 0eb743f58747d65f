"""``fit_many``: every family fits all target columns in one pass.

Each model ``fit_many(X, Y)`` returns must be bitwise equal to a
single-column ``fit`` on its column: same arrays, same iteration counts.
The fused forest grower must also match the per-node oracle tree by tree.
Plus the integer-count checks every estimator runs at construction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.ml.forest import RandomForestRegressor
from repro.ml.lasso import Lasso
from repro.ml.linear import LinearRegression
from repro.ml.svr import SVR
from repro.ml.tree import DecisionTreeRegressor
from repro.validate.reference import forest_reference, trees_equal

#: Coarse grid: tied x values and constant target columns are common.
_GRID = st.integers(-4, 4).map(lambda v: v / 2.0)


@st.composite
def _problems(draw, max_rows: int = 24):
    """``(X, Y)`` with 1–4 target columns, some of them constant."""
    n = draw(st.integers(2, max_rows))
    p = draw(st.integers(1, 4))
    X = np.array(
        draw(st.lists(st.lists(_GRID, min_size=p, max_size=p), min_size=n, max_size=n))
    )
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append(np.full(n, draw(_GRID)))
        else:
            values = st.one_of(_GRID, st.floats(-10.0, 10.0))
            columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n))))
    return X, np.column_stack(columns)


def _state(model) -> list:
    """Every fitted array (as bytes) and scalar of a model."""
    out = []
    for name, value in sorted(vars(model).items()):
        if isinstance(value, np.ndarray):
            out.append((name, value.dtype.str, value.tobytes()))
        elif isinstance(value, (int, float, str, bool, type(None))):
            out.append((name, value))
        elif name == "_scaler":
            out.append((name, value.mean_.tobytes(), value.scale_.tobytes()))
        elif name == "trees_":
            out.append((name, [_state(tree) for tree in value]))
        elif name == "_flat":
            out.append((name, [a.tobytes() for a in vars(value).values()]))
    return out


def _assert_many_equals_single(make, X, Y):
    fitted = make().fit_many(X, Y)
    assert len(fitted) == Y.shape[1]
    for t, model in enumerate(fitted):
        assert _state(model) == _state(make().fit(X, Y[:, t]))
    return fitted


class TestFitManyEqualsFit:
    @settings(max_examples=60, deadline=None)
    @given(data=_problems(), fit_intercept=st.booleans())
    def test_linear(self, data, fit_intercept):
        _assert_many_equals_single(
            lambda: LinearRegression(fit_intercept=fit_intercept), *data
        )

    @settings(max_examples=40, deadline=None)
    @given(
        data=_problems(),
        alpha=st.sampled_from([0.0, 1e-3, 0.1]),
        max_iter=st.integers(1, 40),
        tol=st.sampled_from([1e-2, 1e-6]),
    )
    def test_lasso(self, data, alpha, max_iter, tol):
        _assert_many_equals_single(
            lambda: Lasso(alpha=alpha, max_iter=max_iter, tol=tol), *data
        )

    @settings(max_examples=40, deadline=None)
    @given(
        data=_problems(max_rows=16),
        C=st.sampled_from([0.5, 50.0]),
        epsilon=st.sampled_from([0.0, 1e-3, 0.5]),
        max_iter=st.integers(1, 25),
        tol=st.sampled_from([1e-2, 1e-5]),
    )
    def test_svr(self, data, C, epsilon, max_iter, tol):
        _assert_many_equals_single(
            lambda: SVR(C=C, epsilon=epsilon, max_iter=max_iter, tol=tol), *data
        )

    @settings(max_examples=60, deadline=None)
    @given(
        data=_problems(),
        max_depth=st.one_of(st.none(), st.integers(1, 5)),
        max_features=st.one_of(st.none(), st.floats(0.2, 0.9), st.integers(1, 3)),
        seed=st.integers(0, 2**32),
    )
    def test_tree(self, data, max_depth, max_features, seed):
        _assert_many_equals_single(
            lambda: DecisionTreeRegressor(
                max_depth=max_depth, max_features=max_features, seed=seed
            ),
            *data,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        data=_problems(),
        n_estimators=st.integers(1, 4),
        min_samples_leaf=st.integers(1, 3),
        max_features=st.one_of(st.none(), st.floats(0.2, 0.9)),
        bootstrap=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    def test_forest_matches_fit_and_oracle(
        self, data, n_estimators, min_samples_leaf, max_features, bootstrap, seed
    ):
        X, Y = data
        forests = _assert_many_equals_single(
            lambda: RandomForestRegressor(
                n_estimators=n_estimators, min_samples_leaf=min_samples_leaf,
                max_features=max_features, bootstrap=bootstrap, seed=seed,
            ),
            X, Y,
        )
        for t, forest in enumerate(forests):
            assert all(
                trees_equal(tree.flat_tree(), ref)
                for tree, ref in zip(
                    forest.trees_, forest_reference(forest, X, Y[:, t]), strict=True
                )
            )


@pytest.mark.parametrize(
    "make",
    [
        lambda: Lasso(alpha=1e-3, max_iter=500),
        lambda: SVR(C=10.0, epsilon=0.05, max_iter=200),
    ],
    ids=["Lasso", "SVR"],
)
def test_chains_stop_at_their_own_iteration(make):
    """A chain that converges early is masked; the others keep going."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    Y = np.column_stack([np.zeros(40), np.sin(X[:, 0]) + X[:, 1] * X[:, 2]])
    fitted = _assert_many_equals_single(make, X, Y)
    assert fitted[0].n_iter_ == 1 < fitted[1].n_iter_


def test_fit_many_returns_fresh_models():
    X = np.arange(12.0).reshape(6, 2)
    template = RandomForestRegressor(n_estimators=2, seed=1)
    a, b = template.fit_many(X, np.column_stack([X[:, 0], -X[:, 0]]))
    assert template.trees_ is None and a is not b and a.trees_ is not b.trees_


@pytest.mark.parametrize("Y", [np.zeros((5, 0)), np.zeros((4, 2)), [[np.nan]] * 5])
def test_fit_many_rejects_bad_targets(Y):
    with pytest.raises(ValidationError):
        LinearRegression().fit_many(np.ones((5, 1)), Y)


@pytest.mark.parametrize(
    ("family", "name", "value"),
    [
        (SVR, "max_iter", 0),
        (SVR, "max_iter", -5),
        (SVR, "max_iter", 2.5),
        (SVR, "max_iter", True),
        (Lasso, "max_iter", 2.5),
        (Lasso, "max_iter", True),
        (RandomForestRegressor, "n_estimators", 2.5),
        (RandomForestRegressor, "n_estimators", True),
        (RandomForestRegressor, "n_estimators", "3"),
        (RandomForestRegressor, "max_depth", 0),
        (RandomForestRegressor, "max_depth", 2.5),
        (RandomForestRegressor, "min_samples_leaf", 0),
        (RandomForestRegressor, "min_samples_leaf", 1.5),
        (DecisionTreeRegressor, "max_depth", True),
        (DecisionTreeRegressor, "max_depth", 1.5),
        (DecisionTreeRegressor, "min_samples_split", 2.5),
        (DecisionTreeRegressor, "min_samples_leaf", True),
        (DecisionTreeRegressor, "min_samples_leaf", 1.5),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_integer_counts_rejected_at_construction(family, name, value):
    with pytest.raises(ValidationError, match=name):
        family(**{name: value})


def test_integer_counts_accept_numpy_integers():
    forest = RandomForestRegressor(n_estimators=np.int64(3), max_depth=np.int32(4))
    assert (forest.n_estimators, forest.max_depth) == (3, 4)
    assert type(forest.n_estimators) is int
