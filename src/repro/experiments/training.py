"""Model training over the micro-benchmark suite (paper §6.1, §8.3).

The paper compares four regression families. :func:`make_bundle` builds an
:class:`~repro.core.models.EnergyModelBundle` whose four targets all use one
family (for the per-algorithm comparison); :func:`train_bundles` fits one
bundle per family on the same micro-benchmark training set.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import ConfigurationError
from repro.core.models import EnergyModelBundle, TrainingSet, build_training_set
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.kernelir.microbench import generate_microbenchmarks
from repro.ml.forest import RandomForestRegressor
from repro.ml.lasso import Lasso
from repro.ml.linear import LinearRegression
from repro.ml.svr import SVR

#: The §8.3 algorithm families, in the paper's column order.
ALGORITHM_NAMES: tuple[str, ...] = ("Linear", "Lasso", "RandomForest", "SVR")


def _factory(algorithm: str, seed: int):
    if algorithm == "Linear":
        return LinearRegression
    if algorithm == "Lasso":
        return lambda: Lasso(alpha=1e-4, max_iter=2000)
    if algorithm == "RandomForest":
        return lambda: RandomForestRegressor(
            n_estimators=30, max_depth=14, min_samples_leaf=2, seed=seed
        )
    if algorithm == "SVR":
        return lambda: SVR(C=50.0, epsilon=1e-3, max_iter=200)
    raise ConfigurationError(
        f"unknown algorithm {algorithm!r}; known: {list(ALGORITHM_NAMES)}"
    )


def make_bundle(algorithm: str, seed: int = 11) -> EnergyModelBundle:
    """Bundle whose four target models all use one algorithm family."""
    factory = _factory(algorithm, seed)
    return EnergyModelBundle(
        time_factory=factory,
        energy_factory=factory,
        edp_factory=factory,
        ed2p_factory=factory,
        seed=seed,
    )


def microbench_training_set(
    spec: GPUSpec,
    freq_stride: int = 4,
    random_count: int = 24,
    kernels: Sequence[KernelIR] | None = None,
) -> TrainingSet:
    """Sweep the micro-benchmark suite on a device (training steps ①–②).

    ``freq_stride`` subsamples the frequency table to keep per-family
    training tractable (196 V100 clocks → 49 at the default stride).
    """
    if freq_stride < 1:
        raise ConfigurationError(f"freq_stride must be >= 1 ({freq_stride!r})")
    suite = (
        list(kernels)
        if kernels is not None
        else generate_microbenchmarks(random_count=random_count)
    )
    freqs = spec.core_freqs_mhz[::freq_stride]
    return build_training_set(spec, suite, core_freqs_mhz=freqs)


def train_bundles(
    training: TrainingSet,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
) -> dict[str, EnergyModelBundle]:
    """Fit one single-family bundle per algorithm on a shared training set."""
    bundles: dict[str, EnergyModelBundle] = {}
    for algorithm in algorithms:
        bundles[algorithm] = make_bundle(algorithm).fit(training)
    return bundles
