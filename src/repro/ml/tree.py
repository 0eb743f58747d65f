"""CART regression tree, grown level-synchronously.

Standard variance-reduction splitting: for each candidate feature a node's
samples are scanned in sorted order and prefix sums of ``y`` and ``y²``
give every split's SSE. Supports per-node feature subsampling
(``max_features``) for random-forest use.

:func:`grow_trees` grows any number of trees together, each on its own
target column, one depth at a time: every frontier node of every tree at
a depth is handled by a few array passes instead of a recursive per-node
walk, and a node's split scan scores only the positions that can split.
The fitted trees come out directly in struct-of-arrays form
(:class:`FlatTree`), which batches of rows descend level-synchronously at
prediction time.

Growth protocol (the per-node oracle in :mod:`repro.validate.reference`
implements the same protocol one node at a time and matches bitwise):

- a tree's sample is a list of row indices into ``X`` (a bootstrap
  resample, or every row); ties in a feature are ordered by sample
  position,
- a node's sums of ``y`` and ``y²`` accumulate sequentially over its
  samples in sample order; its value is ``sum / m``,
- a node is *splittable* when it has ``m >= min_samples_split`` samples,
  room for two leaves (``m >= 2 * min_samples_leaf``), is shallower than
  ``max_depth`` and its targets are not all equal,
- **feature draws:** at each depth, each tree's Generator makes one
  ``rng.random((s, p))`` draw for its ``s`` splittable nodes, taken in
  left-to-right order; a node's candidate features are the first ``k``
  entries of the stable argsort of its row. When ``k == p`` nothing is
  drawn and the candidates are ``arange(p)``,
- the split is the first-minimum SSE position per candidate (left size in
  ``[min_samples_leaf, m - min_samples_leaf]``, between distinct x), then
  the first-maximum gain across candidates; a gain of at most 1e-12 makes
  a leaf. The threshold is the midpoint of the straddling x values (the
  lower one if the midpoint rounds up to the upper) and samples with
  ``x <= threshold`` go left,
- nodes are numbered breadth-first per tree (node 0 is the root).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.common.rng import make_rng
from repro.ml.base import Estimator, check_count, check_Xy

#: Cap on the elements of one padded scan chunk (nodes × rows × width):
#: bounds the grower's transient memory independently of forest size.
_CHUNK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class FlatTree:
    """Struct-of-arrays form of a fitted tree (breadth-first node layout).

    Leaves carry ``feature == -1`` and ``left == right == -1``; internal
    nodes index their children into the same arrays.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.value.shape[0])

    @classmethod
    def from_lists(cls, feature, threshold, left, right, value) -> "FlatTree":
        """Build from per-node sequences (any node order; node 0 is the root)."""
        return cls(
            feature=np.asarray(feature, dtype=np.intp),
            threshold=np.asarray(threshold, dtype=float),
            left=np.asarray(left, dtype=np.intp),
            right=np.asarray(right, dtype=np.intp),
            value=np.asarray(value, dtype=float),
        )


def _flat_predict(flat: FlatTree, X: np.ndarray) -> np.ndarray:
    """Vectorized batched descent over a flattened tree."""
    nodes = np.zeros(X.shape[0], dtype=np.intp)
    active = np.flatnonzero(flat.feature[nodes] >= 0)
    while active.size:
        cur = nodes[active]
        go_left = X[active, flat.feature[cur]] <= flat.threshold[cur]
        nxt = np.where(go_left, flat.left[cur], flat.right[cur])
        nodes[active] = nxt
        active = active[flat.feature[nxt] >= 0]
    return flat.value[nodes]


def n_candidate_features(max_features: int | float | None, p: int) -> int:
    """Number of candidate features ``k`` drawn per node out of ``p``."""
    if max_features is None:
        return p
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValidationError(
                f"fractional max_features must be in (0, 1] ({max_features!r})"
            )
        return max(1, int(round(max_features * p)))
    if max_features < 1:
        raise ValidationError(f"max_features must be >= 1 ({max_features!r})")
    return min(int(max_features), p)


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per-column dense ranks of ``X`` as a ``(p, n + 1)`` table.

    Equal values share a rank, so comparing ranks is comparing values; the
    sentinel column ``n`` (rank ``n``) pads scan chunks and sorts after
    every real sample. Feature-major, so a chunk gathers its keys with
    one flat ``take``.
    """
    n, p = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    dense = np.zeros((n, p), dtype=np.intp)
    np.cumsum(xs[1:] != xs[:-1], axis=0, out=dense[1:])
    ranks = np.full((p, n + 1), n, dtype=np.intp)
    np.put_along_axis(ranks[:, :n], order.T, dense.T, axis=1)
    return ranks


def _padded_widths(sizes: np.ndarray) -> np.ndarray:
    """Each size rounded up to a quarter octave (9..16 pad to 10/12/14/16)."""
    step = 1 << np.maximum(np.frexp(sizes - 1)[1] - 3, 0)
    return -(-sizes // step) * step


def _chunks(sizes: np.ndarray, per_node: int):
    """Yield ``(nodes, width)``: nodes bucketed by padded width.

    Widths step by a quarter octave (:func:`_padded_widths`), so padding
    wastes at most ~25%. Node order is kept within a bucket; each
    chunk holds at most :data:`_CHUNK_ELEMENTS` padded elements
    (``per_node`` rows per node).
    """
    widths = _padded_widths(sizes)
    for width in np.unique(widths):
        nodes = np.flatnonzero(widths == width)
        per_chunk = max(1, _CHUNK_ELEMENTS // (int(width) * per_node))
        for i in range(0, nodes.size, per_chunk):
            yield nodes[i : i + per_chunk], int(width)


def _padded_rows(rows, starts, sizes, width, pad_row):
    """``(B, width)`` block of each node's rows, padded with ``pad_row``."""
    offs = np.arange(width)
    idx = np.minimum(starts[:, None] + offs, rows.size - 1)
    return np.where(offs < sizes[:, None], rows[idx], pad_row)


def _node_sums(y, rows, starts, sizes, offsets, pad_row):
    """Per-node sums of ``y`` and ``y²``, accumulated in sample order.

    ``y`` is the flat padded target table and ``offsets[i]`` the start of
    node ``i``'s target row in it.
    """
    sums = np.empty(sizes.size)
    sqs = np.empty(sizes.size)
    for nodes, width in _chunks(sizes, 1):
        m = sizes[nodes]
        r = _padded_rows(rows, starts[nodes], m, width, pad_row)
        ys = y.take(r + offsets[nodes, None])
        last = (np.arange(nodes.size), m - 1)
        sums[nodes] = np.cumsum(ys, axis=1)[last]
        sqs[nodes] = np.cumsum(ys**2, axis=1)[last]
    return sums, sqs


def _best_splits(
    X, y, rank_keys, shift, rows, starts, sizes, offsets, cand, sums, sqs, min_leaf
):
    """Best ``(feature, threshold, gain)`` of each scanned node.

    Each chunk gathers its nodes' samples into a ``(B, k, W)`` block padded
    with the sentinel row, sorts every candidate row by ``(rank, sample
    position)`` — one integer key, ``rank << shift | position``, so a
    plain sort is stable — and scans one ``cumsum`` per row, so every
    prefix sum starts at its own node. Only the valid positions — between
    distinct x values, with both leaves inside the leaf-size band — are
    scored; the rest score ``inf``, as a dense scan would. ``y`` is the
    flat padded target table and ``offsets[i]`` the start of node ``i``'s
    target row in it.
    """
    feature = np.zeros(sizes.size, dtype=np.intp)
    gain = np.full(sizes.size, -np.inf)
    below = np.zeros((2, sizes.size), dtype=np.intp)  # rows straddling each split
    parent_sse = sqs - sums**2 / sizes
    lo = min_leaf - 1
    n_pad = rank_keys.shape[1]                        # n + 1: the sentinel is n
    low = (1 << shift) - 1
    for nodes, width in _chunks(sizes, cand.shape[1]):
        m, c = sizes[nodes], cand[nodes]
        b_count, k = c.shape
        r = _padded_rows(rows, starts[nodes], m, width, n_pad - 1)
        keys = rank_keys.take(c[:, :, None] * n_pad + r[:, None, :])
        keys |= np.arange(width, dtype=keys.dtype)
        keys.sort(axis=2)
        order = (keys & low) + (np.arange(b_count) * width)[:, None, None]
        ys = y.take(r + offsets[nodes, None]).take(order)
        csum = np.cumsum(ys, axis=2)
        csq = np.cumsum(ys**2, axis=2)
        # Position q of a row splits after sample lo + q (left size lo + q + 1,
        # at most m - min_leaf).
        span = width - 1 - lo
        skeys = keys >> shift
        at = np.flatnonzero(skeys[:, :, lo + 1 :] != skeys[:, :, lo : width - 1])
        row, q = np.divmod(at, span)                 # row = node * k + feature
        band = np.flatnonzero(q <= np.repeat(m - 2 * min_leaf, k).take(row))
        at, row, q = at.take(band), row.take(band), q.take(band)
        node = row // k
        counts = q + lo + 1
        left_sum = csum.take(row * width + q + lo)
        left_sq = csq.take(row * width + q + lo)
        right_sum = sums[nodes].take(node) - left_sum
        right_sq = sqs[nodes].take(node) - left_sq
        right_n = m.take(node) - counts
        sse = (
            left_sq
            - left_sum**2 / counts
            + right_sq
            - right_sum**2 / right_n
        )
        scored = np.full((b_count, k, span), np.inf)
        scored.ravel()[at] = sse
        pos = np.argmin(scored, axis=2)              # first minimum per feature
        best_sse = scored.min(axis=2)
        gains = np.where(
            np.isfinite(best_sse), parent_sse[nodes, None] - best_sse, -np.inf
        )
        j = np.argmax(gains, axis=1)                 # first maximum wins ties
        b = np.arange(b_count)
        split_at = pos[b, j] + lo + 1
        feature[nodes] = c[b, j]
        gain[nodes] = gains[b, j]
        below[:, nodes] = r[b, keys[b, j, [split_at - 1, split_at]] & low]
    x_lo, x_hi = X[below, feature]
    mid = (x_lo + x_hi) / 2.0
    return feature, np.where(mid < x_hi, mid, x_lo), gain


def _draw_candidates(rngs, node_tree: np.ndarray, p: int, k: int) -> np.ndarray:
    """Candidate features of one depth's splittable nodes (``(s, k)``)."""
    if k >= p:
        return np.broadcast_to(np.arange(p), (node_tree.size, p))
    counts = np.bincount(node_tree, minlength=len(rngs))
    draws = [rngs[t].random((counts[t], p)) for t in np.flatnonzero(counts)]
    return np.argsort(np.concatenate(draws), axis=1, kind="stable")[:, :k]


def grow_trees(
    X: np.ndarray,
    Y: np.ndarray,
    targets: Sequence[int],
    samples: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    *,
    n_candidates: int,
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
) -> list[FlatTree]:
    """Grow one tree per ``(target, sample, rng)``, all depths in lockstep.

    Tree ``i`` fits column ``targets[i]`` of the ``(n, t)`` matrix ``Y``.
    The frontier is kept as one array of sample rows, node after node (tree
    by tree, left to right), each node's rows in sample order. Per depth:
    node sums, the splittable mask, the feature draws, one bucketed scan
    over every scanned node, and a stable partition of the rows of the
    nodes that split into their children.
    """
    n, p = X.shape
    sizes = np.array([s.shape[0] for s in samples], dtype=np.intp)
    # Sort keys are rank << shift | position; children are never wider
    # than the widest root, so one shift serves every depth.
    shift = int(_padded_widths(sizes).max(initial=1) - 1).bit_length()
    key_dtype = np.int32 if (n + 1) << shift < 2**31 else np.int64
    rank_keys = _dense_ranks(X).astype(key_dtype) << shift
    # One padded row per target, flattened: row n of each is the sentinel.
    y_pad = np.zeros((Y.shape[1], n + 1))
    y_pad[:, :n] = Y.T
    y_flat = y_pad.ravel()
    rows = np.concatenate(samples).astype(np.intp, copy=False)
    tree_offset = np.asarray(targets, dtype=np.intp) * (n + 1)
    node_tree = np.arange(len(samples), dtype=np.intp)
    levels = []
    depth = 0
    while sizes.size:
        starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
        offsets = tree_offset[node_tree]
        sums, sqs = _node_sums(y_flat, rows, starts, sizes, offsets, n)
        ys = y_flat.take(rows + np.repeat(offsets, sizes))
        splittable = (sizes >= max(min_samples_split, 2 * min_samples_leaf)) & (
            np.minimum.reduceat(ys, starts) != np.maximum.reduceat(ys, starts)
        )
        if max_depth is not None and depth >= max_depth:
            splittable[:] = False
        feature = np.full(sizes.size, -1, dtype=np.intp)
        threshold = np.zeros(sizes.size)
        split = np.zeros(sizes.size, dtype=bool)
        scan = np.flatnonzero(splittable)
        if scan.size:
            cand = _draw_candidates(rngs, node_tree[scan], p, n_candidates)
            f, thr, gain = _best_splits(
                X, y_flat, rank_keys, shift, rows, starts[scan], sizes[scan],
                offsets[scan], cand, sums[scan], sqs[scan], min_samples_leaf,
            )
            won = gain > 1e-12
            split[scan[won]] = True
            feature[scan[won]] = f[won]
            threshold[scan[won]] = thr[won]
        levels.append((node_tree, sums / sizes, feature, threshold))
        # Children rows: each split node's rows, left then right, in order.
        seg = np.repeat(np.arange(sizes.size), sizes)
        keep = split[seg]
        rows, seg = rows[keep], seg[keep]
        go_right = X[rows, feature[seg]] > threshold[seg]
        child = 2 * (np.cumsum(split) - 1)[seg] + go_right
        rows = rows[np.argsort(child, kind="stable")]
        sizes = np.bincount(child, minlength=2 * int(split.sum()))
        node_tree = np.repeat(node_tree[split], 2)
        depth += 1
    return _split_by_tree(levels, len(samples))


def _split_by_tree(levels: list, n_trees: int) -> list[FlatTree]:
    """Per-tree breadth-first :class:`FlatTree` s from per-depth node arrays.

    Consumes ``levels``. Each node-sized temporary is dropped once it has
    been used, so the peak is about the node arrays plus the reordered
    copy of one field, not every intermediate at once.
    """
    inner = [np.flatnonzero(level[2] >= 0) for level in levels]
    widths = [level[2].size for level in levels]
    tree, value, feature, threshold = (np.concatenate(a) for a in zip(*levels))
    levels.clear()
    # Global child index of each inner node (children follow their level).
    left = np.full(tree.size, -1, dtype=np.intp)
    base = 0
    for nodes, width in zip(inner, widths):
        left[base + nodes] = base + width + 2 * np.arange(nodes.size)
        base += width
    del inner
    order = np.argsort(tree, kind="stable")
    counts = np.bincount(tree, minlength=n_trees)
    del tree
    # Each node's index within its own tree.
    local = np.empty(order.size, dtype=np.intp)
    local[order] = np.arange(order.size) - np.repeat(np.cumsum(counts) - counts, counts)
    right = np.where(left >= 0, local[left + 1], -1)
    left = np.where(left >= 0, local[left], -1)
    del local
    bounds = np.cumsum(counts)[:-1]
    columns = [feature, threshold, left, right, value]
    del feature, threshold, left, right, value
    parts = []
    for i in range(len(columns)):
        parts.append(np.split(columns[i][order], bounds))
        columns[i] = None
    return [FlatTree(*arrays) for arrays in zip(*parts)]


class DecisionTreeRegressor(Estimator):
    """Binary regression tree minimizing within-leaf variance."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | None = None,
        seed: int | None = None,
    ) -> None:
        self.max_depth = (
            None if max_depth is None else check_count("max_depth", max_depth)
        )
        self.min_samples_split = check_count(
            "min_samples_split", min_samples_split, minimum=2
        )
        self.min_samples_leaf = check_count("min_samples_leaf", min_samples_leaf)
        self.max_features = max_features
        self.seed = seed
        self._flat: FlatTree | None = None
        self.n_features_: int | None = None

    def _fit_columns(self, X, Y, models) -> None:
        """One tree per column, each on every row, seeded by ``seed``."""
        n_targets = Y.shape[1]
        trees = self.fit_batch(
            X, Y, range(n_targets), [np.arange(X.shape[0])] * n_targets,
            [self.seed] * n_targets,
        )
        for model, tree in zip(models, trees):
            model._flat, model.n_features_ = tree._flat, tree.n_features_

    def fit_batch(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        targets: Sequence[int],
        samples: Sequence[np.ndarray],
        seeds: Sequence[int | None],
    ) -> list["DecisionTreeRegressor"]:
        """Fitted copies of this tree, one per ``(target, sample, seed)``.

        ``X`` and the ``(n, t)`` ``Y`` must already be validated; copy ``i``
        fits column ``targets[i]`` on ``samples[i]``, an array of row
        indices (a bootstrap resample, or every row); all grow together.
        """
        flats = grow_trees(
            X, Y, targets, samples, [make_rng(s) for s in seeds],
            n_candidates=n_candidate_features(self.max_features, X.shape[1]),
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
        )
        trees = []
        for seed, flat in zip(seeds, flats):
            tree = DecisionTreeRegressor(
                self.max_depth, self.min_samples_split, self.min_samples_leaf,
                self.max_features, seed,
            )
            tree._flat, tree.n_features_ = flat, X.shape[1]
            trees.append(tree)
        return trees

    def flat_tree(self) -> FlatTree:
        """The fitted tree's array form."""
        self._check_fitted("_flat")
        assert self._flat is not None
        return self._flat

    def predict(self, X) -> np.ndarray:
        """Vectorized batched prediction over the flattened tree."""
        flat = self.flat_tree()
        X, _ = check_Xy(X)
        if X.shape[1] != self.n_features_:
            raise ValidationError(
                f"feature count mismatch: fitted {self.n_features_}, "
                f"got {X.shape[1]}"
            )
        return _flat_predict(flat, X)

    def depth(self) -> int:
        """Actual depth of the fitted tree (a root-only tree has depth 0)."""
        flat = self.flat_tree()
        depth, frontier = 0, np.zeros(1, dtype=np.intp)
        while True:
            inner = frontier[flat.feature[frontier] >= 0]
            if not inner.size:
                return depth
            frontier = np.concatenate([flat.left[inner], flat.right[inner]])
            depth += 1
