"""Property-based tests: ML estimators and hardware-model invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.common.clock import VirtualClock
from repro.hw.power import PowerModel
from repro.hw.specs import NVIDIA_V100
from repro.hw.timing import TimingModel
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.ml.lasso import Lasso
from repro.ml.linear import LinearRegression
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeRegressor

_counts = st.floats(min_value=0.0, max_value=512.0, allow_nan=False)


def _mixes():
    return st.tuples(_counts, _counts, _counts, _counts, _counts).map(
        lambda t: InstructionMix(
            float_add=t[0], float_mul=t[1], float_div=t[2], sf=t[3],
            gl_access=max(t[4], 1.0),
        )
    )


class TestHardwareProperties:
    @given(_mixes(), st.integers(min_value=0, max_value=195))
    @settings(max_examples=80)
    def test_time_and_power_positive(self, mix, freq_idx):
        kernel = KernelIR("p", mix, work_items=1 << 20)
        tm = TimingModel(NVIDIA_V100)
        pm = PowerModel(NVIDIA_V100)
        f = NVIDIA_V100.core_freqs_mhz[freq_idx]
        timing = tm.execute(kernel, f, 877)
        power = pm.power(f, 877, timing.core_power_utilization, timing.u_mem)
        assert timing.time_s > 0
        assert power > 0

    @given(_mixes())
    @settings(max_examples=40)
    def test_time_monotone_nonincreasing_in_frequency(self, mix):
        kernel = KernelIR("p", mix, work_items=1 << 20)
        tm = TimingModel(NVIDIA_V100)
        freqs = np.array(NVIDIA_V100.core_freqs_mhz, dtype=float)
        times = np.array([t.time_s for t in tm.sweep(kernel, freqs, 877.0)])
        assert np.all(np.diff(times) <= 1e-12)

    @given(_mixes(), st.integers(min_value=1, max_value=1 << 22))
    @settings(max_examples=40)
    def test_time_scales_with_work_items(self, mix, items):
        tm = TimingModel(NVIDIA_V100)
        one = tm.execute(KernelIR("a", mix, work_items=items), 1315, 877)
        two = tm.execute(KernelIR("b", mix, work_items=2 * items), 1315, 877)
        assert two.time_s >= one.time_s

    @given(st.lists(st.floats(min_value=1e-6, max_value=0.5), min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_clock_advances_sum(self, deltas):
        clock = VirtualClock()
        for d in deltas:
            clock.advance(d)
        assert clock.now == (np.sum(deltas)).item() or abs(
            clock.now - float(np.sum(deltas))
        ) < 1e-9


class TestMLProperties:
    @given(
        arrays(float, (30, 3), elements=st.floats(-10, 10)),
        st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_linear_fits_exact_linear_data(self, X, intercept):
        w = np.array([1.5, -2.0, 0.25])
        y = X @ w + intercept
        if np.linalg.matrix_rank(X - X.mean(axis=0)) < 3:
            return  # degenerate sample
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.predict(X), y, atol=1e-6)

    @given(st.floats(min_value=0.001, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_lasso_coef_norm_nonincreasing_in_alpha(self, alpha):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 4))
        y = X @ np.array([3.0, -1.0, 0.5, 0.0]) + rng.normal(0, 0.1, 60)
        small = Lasso(alpha=alpha / 2).fit(X, y)
        large = Lasso(alpha=alpha * 2).fit(X, y)
        assert np.abs(large.coef_).sum() <= np.abs(small.coef_).sum() + 1e-6

    @given(arrays(float, (25, 2), elements=st.floats(-100, 100)))
    @settings(max_examples=30, deadline=None)
    def test_scaler_roundtrip(self, X):
        scaler = StandardScaler().fit(X)
        back = scaler.transform(X) * scaler.scale_ + scaler.mean_
        assert np.allclose(back, X, atol=1e-8)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_tree_prediction_within_target_range(self, depth):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(80, 2))
        y = rng.uniform(5.0, 9.0, size=80)
        tree = DecisionTreeRegressor(max_depth=depth).fit(X, y)
        pred = tree.predict(rng.uniform(-2, 2, size=(40, 2)))
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9
