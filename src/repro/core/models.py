"""The four single-target energy models of §6.

Training workflow (Fig. 6, steps ①–③):

1. micro-benchmarks are described by their static feature vectors,
2. each is executed at every core frequency of the target device to
   measure per-task time and energy, from which EDP and ED2P follow,
3. four regressors are fitted: ``F_t(k, f)``, ``F_e(k, f)``,
   ``F_edp(k, f)``, ``F_ed2p(k, f)``.

The design matrix row is ``[k₁..k₁₀, f_core_mhz]``; the memory clock is
fixed per device (HBM boards, §7.1) and therefore not a feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.core.sweepcache import SweepCache, resolve_cache
from repro.hw.cache import models_for
from repro.hw.specs import GPUSpec
from repro.kernelir.features import FEATURE_NAMES, extract_features
from repro.kernelir.kernel import KernelIR
from repro.metrics.energy import ed2p, edp
from repro.ml.base import Estimator
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression

#: Column labels of the training design matrix.
DESIGN_COLUMNS: tuple[str, ...] = FEATURE_NAMES + ("core_mhz",)


@dataclass(frozen=True)
class TrainingSet:
    """The paper's ``T = (k, f, e, t, edp, ed2p)`` in matrix form.

    ``X`` has shape ``(n, 11)`` (ten static features + core clock in MHz);
    target vectors are per-task measurements at that clock. ``kernel_ids``
    tags each row with the micro-benchmark it was measured on, which the
    model bundle uses to normalize per-kernel magnitudes away.
    """

    X: np.ndarray
    time_s: np.ndarray
    energy_j: np.ndarray
    edp_js: np.ndarray
    ed2p_js2: np.ndarray
    device_name: str
    kernel_ids: np.ndarray

    def __post_init__(self) -> None:
        n = self.X.shape[0]
        if self.X.ndim != 2 or self.X.shape[1] != len(DESIGN_COLUMNS):
            raise ValidationError(
                f"X must have {len(DESIGN_COLUMNS)} columns, got {self.X.shape}"
            )
        for name in ("time_s", "energy_j", "edp_js", "ed2p_js2", "kernel_ids"):
            vec = getattr(self, name)
            if vec.shape != (n,):
                raise ValidationError(f"{name} must have shape ({n},), got {vec.shape}")

    @property
    def n_samples(self) -> int:
        """Number of (kernel, frequency) measurement rows."""
        return self.X.shape[0]


def _compute_sweep(
    spec: GPUSpec, kernel: KernelIR, freqs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One broadcasted evaluation of the full core-frequency sweep."""
    timing_model, power_model = models_for(spec)
    mem = float(spec.default_mem_mhz)
    timing = timing_model.sweep(kernel, freqs, mem)
    power = np.asarray(
        power_model.power(
            freqs, mem, timing.core_power_utilization, timing.u_mem
        ),
        dtype=float,
    )
    return freqs, timing.time_s, power * timing.time_s


def measure_sweep(
    spec: GPUSpec,
    kernel: KernelIR,
    core_freqs_mhz: Sequence[int] | None = None,
    *,
    cache: bool | SweepCache | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-task ``(freqs, time, energy)`` over a core-frequency sweep.

    This is the measurement primitive of training step ② — equivalent to
    executing the kernel once per frequency on a quiet device and reading
    per-kernel time/energy, but computed directly from the analytic models
    (the simulation's ground truth) in one vectorized pass.

    Results are memoized in the keyed sweep cache (device fingerprint ×
    kernel fingerprint × frequency-table hash); cached arrays come back
    read-only and shared. ``cache=False`` bypasses caching, ``cache`` may
    also be an explicit :class:`~repro.core.sweepcache.SweepCache`.
    """
    freqs = np.asarray(
        core_freqs_mhz if core_freqs_mhz is not None else spec.core_freqs_mhz,
        dtype=float,
    )
    store = resolve_cache(cache)
    if store is None:
        return _compute_sweep(spec, kernel, freqs)
    return store.get_or_compute(
        store.sweep_key(spec, kernel, freqs),
        lambda: _compute_sweep(spec, kernel, freqs),
    )


def build_training_set(
    spec: GPUSpec,
    kernels: Sequence[KernelIR],
    core_freqs_mhz: Sequence[int] | None = None,
) -> TrainingSet:
    """Run training step ①–②: sweep every kernel, assemble the matrix."""
    if not kernels:
        raise ValidationError("training set needs at least one kernel")
    rows: list[np.ndarray] = []
    t_all: list[np.ndarray] = []
    e_all: list[np.ndarray] = []
    ids: list[np.ndarray] = []
    for kernel_id, kernel in enumerate(kernels):
        features = extract_features(kernel)
        freqs, times, energies = measure_sweep(spec, kernel, core_freqs_mhz)
        block = np.empty((freqs.size, len(DESIGN_COLUMNS)))
        block[:, :-1] = features
        block[:, -1] = freqs
        rows.append(block)
        t_all.append(times)
        e_all.append(energies)
        ids.append(np.full(freqs.size, kernel_id, dtype=int))
    X = np.vstack(rows)
    time_s = np.concatenate(t_all)
    energy_j = np.concatenate(e_all)
    return TrainingSet(
        X=X,
        time_s=time_s,
        energy_j=energy_j,
        edp_js=np.asarray(edp(energy_j, time_s)),
        ed2p_js2=np.asarray(ed2p(energy_j, time_s)),
        device_name=spec.name,
        kernel_ids=np.concatenate(ids),
    )


#: Factory signature for fresh estimators (one per target).
EstimatorFactory = Callable[[], Estimator]


#: Canonical GPU issue rates (ops per cycle) used to weight the static
#: instruction counts into a latency-proxy column. These are architectural
#: common knowledge (full-rate ALU, half-rate integer multiply, slow
#: dividers, quarter-rate SFU), not a peek at the simulated device's table.
_CANONICAL_RATES: tuple[float, ...] = (
    64.0,  # int_add
    32.0,  # int_mul
    4.0,   # int_div
    64.0,  # int_bw
    64.0,  # float_add
    64.0,  # float_mul
    8.0,   # float_div
    16.0,  # sf
    32.0,  # gl_access (issue slot only)
    32.0,  # loc_access
)


def expand_design(X: np.ndarray) -> np.ndarray:
    """Physically-motivated basis expansion of the raw ``(k, f)`` matrix.

    Kernel time behaves like ``cycles(k)/f`` and dynamic energy like
    ``cycles(k)·g(f)``, so alongside the raw columns we add ``1/f``,
    ``log f`` and the interaction blocks ``k·(1/f)`` and ``k·f``. Two
    derived columns expose the roofline position directly: a latency-
    weighted cycle proxy and the bytes-per-cycle ratio (memory accesses
    over weighted cycles) — without them tree models must rediscover
    compute- vs memory-boundedness from raw counts at every scale.

    The expansion is applied identically to every estimator family, so the
    §8.3 algorithm comparison stays fair.
    """
    if X.ndim != 2 or X.shape[1] != len(DESIGN_COLUMNS):
        raise ValidationError(
            f"raw design matrix must have {len(DESIGN_COLUMNS)} columns, "
            f"got {X.shape}"
        )
    k = X[:, :-1]
    f = X[:, -1:] / 1000.0  # MHz -> GHz scale
    inv_f = 1.0 / np.maximum(f, 1e-9)
    log_f = np.log(np.maximum(f, 1e-9))
    rates = np.asarray(_CANONICAL_RATES)
    cycles = (k / rates).sum(axis=1, keepdims=True)
    gl_index = FEATURE_NAMES.index("gl_access")
    intensity = k[:, gl_index : gl_index + 1] / np.maximum(cycles, 1e-12)
    return np.hstack(
        [k, f, inv_f, log_f, cycles, intensity, intensity * inv_f,
         k * inv_f, k * f]
    )


class EnergyModelBundle:
    """The four fitted single-target models (training step ③).

    The default factories follow Table 2's winners: linear regression for
    execution time and ED2P (near-monotone objectives), random forest for
    energy and EDP (objectives with interior optima).

    The models are trained on **normalized log shapes**: for each training
    kernel, each metric is divided by that kernel's value at the top of the
    frequency table before taking logs. Per-kernel magnitude (which spans
    many orders and carries no information about the *optimal clock*) is
    normalized away, so the estimators' full capacity goes to the frequency
    shape. Every target resolution of §5 — argmins, ES_x, PL_x — is
    invariant under per-kernel scaling, so shape prediction is exactly
    sufficient for the §6.2 frequency search; predicted curves are in
    units of "relative to this kernel at maximum clock".
    """

    def __init__(
        self,
        time_factory: EstimatorFactory | None = None,
        energy_factory: EstimatorFactory | None = None,
        edp_factory: EstimatorFactory | None = None,
        ed2p_factory: EstimatorFactory | None = None,
        seed: int = 11,
    ) -> None:
        forest = lambda: RandomForestRegressor(n_estimators=60, seed=seed)  # noqa: E731
        self._factories: dict[str, EstimatorFactory] = {
            "time": time_factory or LinearRegression,
            "energy": energy_factory or forest,
            "edp": edp_factory or forest,
            "ed2p": ed2p_factory or LinearRegression,
        }
        self.models_: dict[str, Estimator] | None = None
        self.device_name: str | None = None

    @staticmethod
    def _reference_values(training: TrainingSet, y: np.ndarray) -> np.ndarray:
        """Per-row reference: the row's kernel's metric at its top clock."""
        freqs = training.X[:, -1]
        reference = np.empty_like(y)
        for kernel_id in np.unique(training.kernel_ids):
            rows = training.kernel_ids == kernel_id
            top = np.flatnonzero(rows)[int(np.argmax(freqs[rows]))]
            reference[rows] = y[top]
        return reference

    def _log_shapes(self, training: TrainingSet) -> dict[str, np.ndarray]:
        """Each target's normalized log shape (see the class docstring)."""
        targets = {
            "time": training.time_s,
            "energy": training.energy_j,
            "edp": training.edp_js,
            "ed2p": training.ed2p_js2,
        }
        return {
            name: np.log(
                np.maximum(y, 1e-300)
                / np.maximum(self._reference_values(training, y), 1e-300)
            )
            for name, y in targets.items()
        }

    def fit(self, training: TrainingSet) -> "EnergyModelBundle":
        """Fit all four models on a training set.

        Targets built by the same factory object share a family and its
        parameters, so each factory's targets are fitted together in one
        :meth:`~repro.ml.base.Estimator.fit_many` pass.
        """
        X = expand_design(training.X)
        shapes = self._log_shapes(training)
        groups: dict[EstimatorFactory, list[str]] = {}
        for name, factory in self._factories.items():
            groups.setdefault(factory, []).append(name)
        models: dict[str, Estimator] = {}
        for factory, names in groups.items():
            fitted = factory().fit_many(
                X, np.column_stack([shapes[name] for name in names])
            )
            models.update(zip(names, fitted))
        self.models_ = {name: models[name] for name in self._factories}
        self.device_name = training.device_name
        return self

    def _require_fitted(self) -> dict[str, Estimator]:
        if self.models_ is None:
            raise ValidationError("EnergyModelBundle is not fitted")
        return self.models_

    def refresh(
        self, window: TrainingSet, *, fraction: float = 0.5
    ) -> "EnergyModelBundle":
        """Refresh the fitted models from a recent measurement window.

        The adaptation path of the degradation ladder: ``window`` holds
        live per-launch measurements collected *after* a drift signal.
        Targets are normalized exactly like :meth:`fit` (per-kernel value
        at the window's top measured clock, then log). Estimators exposing
        an incremental ``refresh`` (the random forest) replace ``fraction``
        of their members; closed-form estimators are refitted on the
        window outright — both deterministic.
        """
        models = self._require_fitted()
        if window.device_name != self.device_name:
            raise ValidationError(
                "refresh window measured on a different device "
                f"({window.device_name!r} vs {self.device_name!r})"
            )
        X = expand_design(window.X)
        for name, y_log in self._log_shapes(window).items():
            model = models[name]
            refresh = getattr(model, "refresh", None)
            if callable(refresh):
                refresh(X, y_log, fraction=fraction)
            else:
                models[name] = self._factories[name]().fit(X, y_log)
        return self

    def predict_curves(
        self, kernel: KernelIR, core_freqs_mhz: Sequence[int] | np.ndarray
    ) -> dict[str, np.ndarray]:
        """Predict all four metrics across a frequency sweep for a kernel.

        Returns ``{"time", "energy", "edp", "ed2p"}`` arrays aligned with
        ``core_freqs_mhz`` — prediction step ④–⑤ of Fig. 6.
        """
        models = self._require_fitted()
        freqs = np.asarray(core_freqs_mhz, dtype=float)
        features = extract_features(kernel)
        P = np.empty((freqs.size, len(DESIGN_COLUMNS)))
        P[:, :-1] = features
        P[:, -1] = freqs
        Pe = expand_design(P)
        return {name: np.exp(model.predict(Pe)) for name, model in models.items()}
