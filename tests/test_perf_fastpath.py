"""Equivalence and correctness of the vectorized fast paths.

Every fast path has a one-point-at-a-time oracle (per-clock
``TimingModel.execute`` or :mod:`repro.validate.reference`); these tests
pin the equivalence contract at tier-1 scale:

- vectorized ``TimingModel.sweep`` vs per-clock ``execute``, across
  vendors (V100/A100/MI100) and kernel regimes (compute-, memory- and
  divider-bound, high/low locality), at 1e-12 relative tolerance
  (vectorized NumPy pow differs from scalar libm pow by ~1 ulp),
- ``measure_sweep`` / ``sweep_kernel_2d`` vs their per-clock oracles,
- the ``effective_bandwidth`` array contract,
- level-synchronous tree and forest growth (fit and refresh) vs the
  per-node oracle of ``repro.validate.reference`` — **bitwise identical**
  trees, over Hypothesis-drawn data with tied x values, duplicate rows
  and constant targets; flattened prediction vs the row-by-row walk,
- the keyed sweep cache (hits, read-only results, fingerprint semantics),
- memoization of derived sweep arrays and predictor curves.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import measure_sweep
from repro.core.predictor import FrequencyPredictor
from repro.core.sweepcache import (
    CURVE_STATS,
    SweepCache,
    kernel_fingerprint,
    spec_fingerprint,
)
from repro.experiments.sweep import sweep_kernel, sweep_kernel_2d
from repro.hw.specs import AMD_MI100, NVIDIA_A100, NVIDIA_TITAN_X, NVIDIA_V100
from repro.hw.timing import TimingModel
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.common.rng import make_rng
from repro.validate.reference import (
    forest_reference,
    grow_tree_reference,
    measure_sweep_reference,
    predict_reference,
    sweep_kernel_2d_reference,
    trees_equal,
)

RTOL = 1e-12

KERNEL_MIXES = {
    "compute": KernelIR(
        "k_compute",
        InstructionMix(float_add=40, float_mul=40, gl_access=2),
        work_items=1 << 20,
        locality=0.5,
    ),
    "memory": KernelIR(
        "k_memory",
        InstructionMix(float_add=1, gl_access=4),
        work_items=1 << 22,
    ),
    "divider": KernelIR(
        "k_divider",
        InstructionMix(float_div=12, int_div=4, gl_access=1),
        work_items=1 << 20,
    ),
    "local": KernelIR(
        "k_local",
        InstructionMix(float_add=8, gl_access=6, loc_access=8),
        work_items=1 << 21,
        locality=0.9,
    ),
}

SPECS = {"v100": NVIDIA_V100, "a100": NVIDIA_A100, "mi100": AMD_MI100}


@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("kernel_name", sorted(KERNEL_MIXES))
class TestVectorizedSweep:
    def test_sweep_matches_scalar(self, spec_name, kernel_name):
        spec = SPECS[spec_name]
        kernel = KERNEL_MIXES[kernel_name]
        model = TimingModel(spec)
        freqs = np.asarray(spec.core_freqs_mhz, dtype=float)
        mem = float(spec.default_mem_mhz)
        vec = model.sweep(kernel, freqs, mem)
        assert len(vec) == freqs.size
        for i, core in enumerate(freqs):
            ref = model.execute(kernel, float(core), mem)
            assert vec.time_s[i] == pytest.approx(ref.time_s, rel=RTOL)
            assert vec.u_core[i] == pytest.approx(ref.u_core, rel=RTOL)
            assert vec.u_mem[i] == pytest.approx(ref.u_mem, rel=RTOL)
            assert vec.core_power_utilization[i] == pytest.approx(
                ref.core_power_utilization, rel=RTOL
            )
            at = vec.at(i)
            assert at.time_s == vec.time_s[i]

    def test_measure_sweep_matches_scalar(self, spec_name, kernel_name):
        spec = SPECS[spec_name]
        kernel = KERNEL_MIXES[kernel_name]
        freqs_v, times_v, energies_v = measure_sweep(spec, kernel, cache=False)
        freqs_s, times_s, energies_s = measure_sweep_reference(spec, kernel)
        np.testing.assert_array_equal(freqs_v, freqs_s)
        np.testing.assert_allclose(times_v, times_s, rtol=RTOL, atol=0)
        np.testing.assert_allclose(energies_v, energies_s, rtol=RTOL, atol=0)


def test_sweep_broadcasts_2d_grid():
    model = TimingModel(NVIDIA_TITAN_X)
    core = np.asarray(NVIDIA_TITAN_X.core_freqs_mhz, dtype=float)
    mem = np.asarray(NVIDIA_TITAN_X.mem_freqs_mhz, dtype=float)
    grid = model.sweep(KERNEL_MIXES["memory"], core[None, :], mem[:, None])
    assert grid.time_s.shape == (mem.size, core.size)
    for i, fm in enumerate(mem):
        row = model.sweep(KERNEL_MIXES["memory"], core, float(fm))
        np.testing.assert_allclose(grid.time_s[i], row.time_s, rtol=RTOL)


@pytest.mark.parametrize("spec", [NVIDIA_TITAN_X, NVIDIA_V100])
def test_sweep_kernel_2d_matches_scalar(spec):
    kernel = KERNEL_MIXES["compute"]
    fast = sweep_kernel_2d(spec, kernel, cache=False)
    ref = sweep_kernel_2d_reference(spec, kernel)
    assert fast.time_s.shape == ref.time_s.shape
    np.testing.assert_allclose(fast.time_s, ref.time_s, rtol=RTOL, atol=0)
    np.testing.assert_allclose(fast.energy_j, ref.energy_j, rtol=RTOL, atol=0)


def test_effective_bandwidth_contract():
    model = TimingModel(NVIDIA_V100)
    mem = float(NVIDIA_V100.default_mem_mhz)
    arr = model.effective_bandwidth(np.asarray([800.0, 1200.0]), mem)
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)
    scalar = float(model.effective_bandwidth(800.0, mem))
    assert scalar == pytest.approx(float(arr[0]), rel=RTOL)
    # 0-d array input stays an ndarray on the array path
    zero_d = model.effective_bandwidth(np.float64(800.0), mem)
    assert float(zero_d) == pytest.approx(scalar, rel=RTOL)


# --------------------------------------------------------------------- ML


def _training_data(n=400, p=8, seed=5):
    rng = make_rng(seed)
    X = rng.normal(size=(n, p))
    y = X[:, 0] * 2.0 - np.abs(X[:, 1]) + 0.1 * rng.normal(size=n)
    # duplicated feature values exercise the tie/threshold handling
    X[:, 2] = np.round(X[:, 2] * 2.0) / 2.0
    return X, y


def _assert_tree_matches_oracle(tree, X, y, sample=None):
    ref = grow_tree_reference(
        X, y, np.arange(X.shape[0]) if sample is None else sample, tree.seed,
        max_features=tree.max_features, max_depth=tree.max_depth,
        min_samples_split=tree.min_samples_split,
        min_samples_leaf=tree.min_samples_leaf,
    )
    assert trees_equal(tree.flat_tree(), ref)


def test_tree_presorted_fit_identical_to_reference():
    X, y = _training_data()
    tree = DecisionTreeRegressor(max_depth=9, min_samples_leaf=2, seed=3).fit(X, y)
    _assert_tree_matches_oracle(tree, X, y)


def test_tree_presorted_fit_identical_with_feature_subsampling():
    X, y = _training_data()
    tree = DecisionTreeRegressor(max_features=3, seed=7).fit(X, y)
    _assert_tree_matches_oracle(tree, X, y)


def test_flat_predict_matches_node_walk():
    X, y = _training_data()
    tree = DecisionTreeRegressor(max_depth=8, seed=1).fit(X, y)
    Xq, _ = _training_data(n=257, seed=9)
    np.testing.assert_array_equal(
        tree.predict(Xq), predict_reference([tree.flat_tree()], Xq)
    )


def test_forest_stacked_predict_matches_per_tree_walks():
    X, y = _training_data(n=300)
    forest = RandomForestRegressor(n_estimators=6, seed=21).fit(X, y)
    Xq, _ = _training_data(n=111, seed=4)
    flats = [tree.flat_tree() for tree in forest.trees_]
    np.testing.assert_array_equal(forest.predict(Xq), predict_reference(flats, Xq))


#: Coarse grid: many tied x values (and tied targets) per column.
_GRID = st.integers(-4, 4).map(lambda v: v / 2.0)


@st.composite
def _datasets(draw, max_rows: int = 30, p: int | None = None):
    """``(X, y)`` with tied x values, duplicate rows and constant targets."""
    n = draw(st.integers(1, max_rows))
    p = draw(st.integers(1, 5)) if p is None else p
    X = np.array(
        draw(st.lists(st.lists(_GRID, min_size=p, max_size=p), min_size=n, max_size=n))
    )
    duplicates = draw(st.lists(st.integers(0, n - 1), max_size=n))
    X = np.vstack([X, X[duplicates]])
    if draw(st.booleans()):
        y = np.full(X.shape[0], draw(_GRID))
    else:
        values = st.one_of(_GRID, st.floats(-100.0, 100.0))
        y = np.array(draw(st.lists(values, min_size=X.shape[0], max_size=X.shape[0])))
    return X, y


_MAX_FEATURES = st.one_of(st.none(), st.floats(0.05, 1.0), st.integers(1, 6))
_MAX_DEPTH = st.one_of(st.none(), st.integers(1, 6))


class TestGrowerMatchesOracle:
    """The level-synchronous grower equals the per-node oracle, bitwise."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=_datasets(),
        max_depth=_MAX_DEPTH,
        min_samples_split=st.integers(2, 5),
        min_samples_leaf=st.integers(1, 4),
        max_features=_MAX_FEATURES,
        seed=st.integers(0, 2**32),
    )
    def test_tree(self, data, max_depth, min_samples_split, min_samples_leaf,
                  max_features, seed):
        X, y = data
        tree = DecisionTreeRegressor(
            max_depth=max_depth, min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf, max_features=max_features,
            seed=seed,
        ).fit(X, y)
        _assert_tree_matches_oracle(tree, X, y)
        np.testing.assert_array_equal(
            tree.predict(X), predict_reference([tree.flat_tree()], X)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        data=_datasets(),
        draw=st.data(),
        n_estimators=st.integers(1, 5),
        max_depth=_MAX_DEPTH,
        min_samples_leaf=st.integers(1, 4),
        max_features=_MAX_FEATURES,
        bootstrap=st.booleans(),
        fraction=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**32),
    )
    def test_forest_fit_and_refresh(self, data, draw, n_estimators, max_depth,
                                    min_samples_leaf, max_features, bootstrap,
                                    fraction, seed):
        X, y = data
        forest = RandomForestRegressor(
            n_estimators=n_estimators, max_depth=max_depth,
            min_samples_leaf=min_samples_leaf, max_features=max_features,
            bootstrap=bootstrap, seed=seed,
        ).fit(X, y)
        fitted = forest_reference(forest, X, y)
        assert all(
            trees_equal(tree.flat_tree(), ref)
            for tree, ref in zip(forest.trees_, fitted, strict=True)
        )
        Xw, yw = draw.draw(_datasets(max_rows=12, p=X.shape[1]))
        forest.refresh(Xw, yw, fraction=fraction)
        refreshed = forest_reference(
            forest, Xw, yw, generation=1, fraction=fraction
        )
        expected = refreshed + fitted[len(refreshed):]
        assert all(
            trees_equal(tree.flat_tree(), ref)
            for tree, ref in zip(forest.trees_, expected, strict=True)
        )
        flats = [tree.flat_tree() for tree in forest.trees_]
        np.testing.assert_array_equal(forest.predict(X), predict_reference(flats, X))


# ------------------------------------------------------------------ caching


def test_sweep_cache_hits_and_freezes():
    cache = SweepCache()
    kernel = KERNEL_MIXES["compute"]
    f1, t1, e1 = measure_sweep(NVIDIA_V100, kernel, cache=cache)
    assert cache.stats.misses == 1 and cache.stats.hits == 0
    f2, t2, e2 = measure_sweep(NVIDIA_V100, kernel, cache=cache)
    assert cache.stats.hits == 1
    assert t1 is t2 and e1 is e2  # shared by reference
    assert not t1.flags.writeable
    with pytest.raises(ValueError):
        t1[0] = 0.0


def test_sweep_cache_distinguishes_devices_and_kernels():
    cache = SweepCache()
    measure_sweep(NVIDIA_V100, KERNEL_MIXES["compute"], cache=cache)
    measure_sweep(AMD_MI100, KERNEL_MIXES["compute"], cache=cache)
    measure_sweep(NVIDIA_V100, KERNEL_MIXES["memory"], cache=cache)
    assert cache.stats.misses == 3 and cache.stats.hits == 0


def test_kernel_fingerprint_ignores_name():
    kernel = KERNEL_MIXES["compute"]
    renamed = kernel.with_name("iteration_17#renamed")
    assert kernel_fingerprint(kernel) == kernel_fingerprint(renamed)
    changed = KernelIR(
        kernel.name, kernel.mix, kernel.work_items, locality=0.25
    )
    assert kernel_fingerprint(kernel) != kernel_fingerprint(changed)


def test_spec_fingerprint_is_content_based():
    assert spec_fingerprint(NVIDIA_V100) == spec_fingerprint(NVIDIA_V100)
    assert spec_fingerprint(NVIDIA_V100) != spec_fingerprint(AMD_MI100)


def test_frequency_sweep_memoizes_derived_arrays():
    sweep = sweep_kernel(NVIDIA_V100, KERNEL_MIXES["compute"], cache=False)
    assert sweep.speedup is sweep.speedup
    assert sweep.normalized_energy is sweep.normalized_energy
    assert sweep.edp is sweep.edp
    assert sweep.ed2p is sweep.ed2p
    assert sweep.pareto_mask is sweep.pareto_mask
    assert sweep.speedup[sweep.default_index] == pytest.approx(1.0)


def test_predictor_memoizes_curves(trained_bundle):
    predictor = FrequencyPredictor(trained_bundle, NVIDIA_V100)
    kernel = KERNEL_MIXES["compute"]
    targets = [EnergyTarget.parse(n) for n in ("MIN_EDP", "ES_50", "PL_50")]
    hits0, misses0 = CURVE_STATS.hits, CURVE_STATS.misses
    first = [predictor.predict_index(kernel, t) for t in targets]
    assert CURVE_STATS.misses == misses0 + 1
    assert CURVE_STATS.hits == hits0 + 2
    renamed = kernel.with_name("same_kernel_renamed")
    second = [predictor.predict_index(renamed, t) for t in targets]
    assert second == first
    assert CURVE_STATS.misses == misses0 + 1  # rename still hits the memo
