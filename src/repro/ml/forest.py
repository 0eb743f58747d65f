"""Random forest regression: bagged CART trees with feature subsampling.

Every member tree is grown in one level-synchronous pass
(:meth:`DecisionTreeRegressor.fit_batch`); ``fit_many`` grows the trees of
every target column in that same pass. Determinism is by construction:
bootstrap resamples are drawn serially from the forest-level RNG (so all
columns share them), and each tree's feature draws come from its own
Generator seeded with ``derive_seed(seed, "tree", i)``, so a tree does not
depend on which other trees it is grown with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.common.rng import derive_seed, make_rng
from repro.ml.base import Estimator, check_count, check_Xy
from repro.ml.tree import DecisionTreeRegressor, FlatTree


@dataclass(frozen=True)
class _StackedForest:
    """All member trees' flat arrays concatenated with offset child links."""

    flat: FlatTree
    roots: np.ndarray  # (n_trees,) node index of each tree's root


def _stack_trees(trees: list[DecisionTreeRegressor]) -> _StackedForest:
    flats = [t.flat_tree() for t in trees]
    offsets = np.cumsum([0] + [f.n_nodes for f in flats[:-1]])
    feature = np.concatenate([f.feature for f in flats])
    threshold = np.concatenate([f.threshold for f in flats])
    value = np.concatenate([f.value for f in flats])
    left = np.concatenate(
        [np.where(f.left >= 0, f.left + off, -1) for f, off in zip(flats, offsets)]
    )
    right = np.concatenate(
        [np.where(f.right >= 0, f.right + off, -1) for f, off in zip(flats, offsets)]
    )
    return _StackedForest(
        flat=FlatTree(
            feature=feature, threshold=threshold, left=left, right=right,
            value=value,
        ),
        roots=np.asarray(offsets, dtype=np.intp),
    )


class RandomForestRegressor(Estimator):
    """Bootstrap-aggregated regression trees.

    Defaults follow common practice for regression: trees grown deep,
    one-third of the features considered per split, full-size bootstrap
    resamples. Fully deterministic given ``seed``.
    """

    def __init__(
        self,
        n_estimators: int = 60,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | float | None = 1.0 / 3.0,
        bootstrap: bool = True,
        seed: int | None = None,
    ) -> None:
        self.n_estimators = check_count("n_estimators", n_estimators)
        self.max_depth = (
            None if max_depth is None else check_count("max_depth", max_depth)
        )
        self.min_samples_leaf = check_count("min_samples_leaf", min_samples_leaf)
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees_: list[DecisionTreeRegressor] | None = None
        self._stacked: tuple[object, _StackedForest] | None = None
        #: Number of incremental refreshes applied (seeds each refresh's
        #: bootstrap/tree RNG streams, so repeated refreshes stay distinct
        #: yet deterministic).
        self.refresh_generation_: int = 0

    def _grow(self, X, Y, rng, seeds: list[int]) -> list[list[DecisionTreeRegressor]]:
        """Per column of ``Y``, one tree per seed, all grown in one pass.

        Resamples are drawn serially from ``rng``, one per seed, and every
        column's trees share them; each tree gets its own Generator.
        """
        n, n_targets = Y.shape
        samples = [
            rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            for _ in seeds
        ]
        template = DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
        )
        trees = template.fit_batch(
            X, Y, np.repeat(np.arange(n_targets), len(seeds)),
            samples * n_targets, seeds * n_targets,
        )
        return [trees[t * len(seeds) : (t + 1) * len(seeds)] for t in range(n_targets)]

    def _fit_columns(self, X, Y, models) -> None:
        """Every column's forest in one level-synchronous pass."""
        seeds = [derive_seed(self.seed, "tree", i) for i in range(self.n_estimators)]
        for model, trees in zip(models, self._grow(X, Y, make_rng(self.seed), seeds)):
            model.trees_ = trees
            model._stacked = None
            model.refresh_generation_ = 0

    def refresh(self, X, y, *, fraction: float = 0.5) -> "RandomForestRegressor":
        """Incrementally refresh the forest from a recent measurement window.

        Replaces the first ``ceil(fraction × n_estimators)`` trees with
        trees fitted on ``(X, y)`` — the drift-adaptation primitive: the
        refreshed members learn the shifted curve while the survivors
        retain the pre-drift shape, so predictions move toward the new
        regime without discarding everything the full training set taught.

        Deterministic: bootstrap resamples are drawn serially from a
        generation-derived stream and each new tree is seeded with
        ``derive_seed(seed, "refresh", generation, i)``, so a refreshed
        forest is a pure function of (seed, fit data, refresh windows). The
        replaced trees are grown together in one pass.
        """
        self._check_fitted("trees_")
        assert self.trees_ is not None
        if not 0.0 < fraction <= 1.0:
            raise ValidationError(f"refresh fraction must be in (0, 1] ({fraction!r})")
        X, y = check_Xy(X, y)
        assert y is not None
        fitted_p = self.trees_[0].n_features_
        if fitted_p is not None and X.shape[1] != fitted_p:
            raise ValidationError(
                f"feature count mismatch: fitted {fitted_p}, got {X.shape[1]}"
            )
        generation = self.refresh_generation_ + 1
        n_replace = int(np.ceil(fraction * self.n_estimators))
        rng = make_rng(derive_seed(self.seed, "refresh", generation))
        seeds = [
            derive_seed(self.seed, "refresh", generation, i)
            for i in range(n_replace)
        ]
        (fresh,) = self._grow(X, y[:, None], rng, seeds)
        self.trees_ = fresh + self.trees_[n_replace:]
        self._stacked = None
        self.refresh_generation_ = generation
        return self

    def _stacked_forest(self) -> _StackedForest:
        assert self.trees_ is not None
        cached = getattr(self, "_stacked", None)
        if cached is not None and cached[0] is self.trees_:
            return cached[1]
        stacked = _stack_trees(self.trees_)
        self._stacked = (self.trees_, stacked)
        return stacked

    def predict(self, X) -> np.ndarray:
        """Vectorized prediction over all stacked trees at once."""
        self._check_fitted("trees_")
        assert self.trees_ is not None
        X, _ = check_Xy(X)
        fitted_p = self.trees_[0].n_features_
        if fitted_p is not None and X.shape[1] != fitted_p:
            raise ValidationError(
                f"feature count mismatch: fitted {fitted_p}, got {X.shape[1]}"
            )
        stacked = self._stacked_forest()
        flat = stacked.flat
        n_trees = stacked.roots.shape[0]
        n = X.shape[0]
        nodes = np.repeat(stacked.roots, n)
        cols = np.tile(np.arange(n, dtype=np.intp), n_trees)
        active = np.flatnonzero(flat.feature[nodes] >= 0)
        while active.size:
            cur = nodes[active]
            rows = cols[active]
            go_left = X[rows, flat.feature[cur]] <= flat.threshold[cur]
            nxt = np.where(go_left, flat.left[cur], flat.right[cur])
            nodes[active] = nxt
            active = active[flat.feature[nxt] >= 0]
        predictions = flat.value[nodes].reshape(n_trees, n)
        return predictions.mean(axis=0)
