"""Per-node reference implementations the fast paths are verified against.

:func:`grow_tree_reference` grows one regression tree breadth-first, one
node and one candidate feature at a time, on the growth protocol of
:mod:`repro.ml.tree` (sample-order node sums, per-depth feature draws).
The level-synchronous grower must match it bitwise.
:func:`forest_reference` replays a forest's bootstrap and seed derivation
on top of it, and :func:`predict_reference` walks one row at a time.
:func:`throttled_operating_point_reference` is the uncached per-launch
power-cap scan that :class:`repro.hw.cache.OperatingPoints` memoizes.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.common.rng import derive_seed, make_rng
from repro.hw.power import PowerModel
from repro.hw.timing import TimingModel
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import FlatTree, n_candidate_features


def _best_split(xb, yb, features, min_leaf, total_sum, total_sq):
    """``(feature, threshold)`` of one node's best split, or ``None``."""
    m = yb.shape[0]
    lo, hi = min_leaf - 1, m - min_leaf
    parent_sse = total_sq - total_sum**2 / m
    best = (-np.inf, -1, 0.0)
    for j in features:
        order = np.argsort(xb[:, j], kind="stable")
        xs, ys = xb[order, j], yb[order]
        csum, csq = np.cumsum(ys), np.cumsum(ys**2)
        counts = np.arange(lo + 1, hi + 1)
        left_sum, left_sq = csum[lo:hi], csq[lo:hi]
        right_sum, right_sq = total_sum - left_sum, total_sq - left_sq
        sse = (
            left_sq - left_sum**2 / counts + right_sq - right_sum**2 / (m - counts)
        )
        sse = np.where(xs[lo + 1 : hi + 1] != xs[lo:hi], sse, np.inf)
        i = int(np.argmin(sse))
        gain = (parent_sse - sse[i])[0] if np.isfinite(sse[i]) else -np.inf
        if gain > best[0] or best[1] < 0:
            x_lo, x_hi = xs[i + lo], xs[i + lo + 1]
            mid = (x_lo + x_hi) / 2.0
            best = (gain, int(j), mid if mid < x_hi else x_lo)
    return best[1:] if best[0] > 1e-12 else None


def grow_tree_reference(
    X, y, sample, seed, *, max_features, max_depth, min_samples_split=2,
    min_samples_leaf=1,
) -> FlatTree:
    """One tree on ``X[sample]``, node by node in breadth-first order."""
    rng = make_rng(seed)
    xb, yb = X[sample], y[sample]
    p = X.shape[1]
    k = n_candidate_features(max_features, p)
    feature, threshold, left, right, value = [], [], [], [], []
    level, depth = [(np.arange(len(sample)), -1, left)], 0
    while level:
        nxt, todo = [], []
        for rows, parent, side in level:
            node = len(value)
            if parent >= 0:
                side[parent] = node
            ys = yb[rows]
            sums = (np.cumsum(ys)[-1:], np.cumsum(ys**2)[-1:])
            value.append(float((sums[0] / rows.size)[0]))
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            if (
                rows.size >= max(min_samples_split, 2 * min_samples_leaf)
                and (max_depth is None or depth < max_depth)
                and not np.all(ys == ys[0])
            ):
                todo.append((node, rows, sums))
        draws = rng.random((len(todo), p)) if k < p and todo else None
        for i, (node, rows, sums) in enumerate(todo):
            features = (
                np.arange(p) if draws is None
                else np.argsort(draws[i], kind="stable")[:k]
            )
            split = _best_split(
                xb[rows], yb[rows], features, min_samples_leaf, *sums
            )
            if split is None:
                continue
            feature[node], threshold[node] = split
            go_left = xb[rows, split[0]] <= split[1]
            nxt += [(rows[go_left], node, left), (rows[~go_left], node, right)]
        level, depth = nxt, depth + 1
    return FlatTree.from_lists(feature, threshold, left, right, value)


def forest_reference(
    forest: RandomForestRegressor, X, y, *, generation: int = 0,
    fraction: float = 1.0,
) -> list[FlatTree]:
    """The trees ``forest.fit`` grows on ``(X, y)`` — or, for ``generation``
    > 0, the trees that refresh number ``generation`` with ``fraction``
    grows — one reference tree at a time."""
    n = X.shape[0]
    if generation:
        rng = make_rng(derive_seed(forest.seed, "refresh", generation))
        n_trees = int(np.ceil(fraction * forest.n_estimators))
        seeds = [
            derive_seed(forest.seed, "refresh", generation, i)
            for i in range(n_trees)
        ]
    else:
        rng = make_rng(forest.seed)
        seeds = [
            derive_seed(forest.seed, "tree", i) for i in range(forest.n_estimators)
        ]
    return [
        grow_tree_reference(
            X, y, rng.integers(0, n, size=n) if forest.bootstrap else np.arange(n),
            seed, max_features=forest.max_features, max_depth=forest.max_depth,
            min_samples_leaf=forest.min_samples_leaf,
        )
        for seed in seeds
    ]


def trees_equal(a: FlatTree, b: FlatTree) -> bool:
    """Bitwise equality of structure, features, thresholds and values."""
    return all(
        x.dtype == z.dtype and x.tobytes() == z.tobytes()
        for x, z in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(FlatTree))
    )


def predict_reference(flats: list[FlatTree], X) -> np.ndarray:
    """Mean over trees of a row-by-row walk from each root."""
    out = np.zeros((len(flats), X.shape[0]))
    for t, flat in enumerate(flats):
        for i, row in enumerate(X):
            node = 0
            while flat.feature[node] >= 0:
                go_left = row[flat.feature[node]] <= flat.threshold[node]
                node = flat.left[node] if go_left else flat.right[node]
            out[t, i] = flat.value[node]
    return out.mean(axis=0)


def throttled_operating_point_reference(
    spec, kernel, ceiling_mhz, mem_mhz, power_limit_w
):
    """``(core_mhz, timing, power_w)`` of one launch, scanned from scratch.

    Walks down the core table from the highest clock at or below
    ``ceiling_mhz`` and stops at the first clock whose modeled power fits
    ``power_limit_w``; the lowest table clock is used if nothing fits or
    the ceiling is below the table. Fresh models on every call: nothing
    is shared with the memoized launch path.
    """
    timing_model, power_model = TimingModel(spec), PowerModel(spec)
    candidates = [f for f in spec.core_freqs_mhz if f <= ceiling_mhz]
    if not candidates:
        candidates = [spec.min_core_mhz]
    for core_mhz in reversed(candidates):
        timing = timing_model.execute(kernel, core_mhz, mem_mhz)
        power = float(
            power_model.power(
                core_mhz, mem_mhz, timing.core_power_utilization, timing.u_mem
            )
        )
        if power <= power_limit_w or core_mhz == candidates[0]:
            return core_mhz, timing, power
