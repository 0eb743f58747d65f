"""Per-kernel frequency sweeps.

A :class:`FrequencySweep` bundles everything the characterization figures
plot: per-frequency time/energy, speedup and normalized energy against the
device-default baseline, EDP/ED2P curves, the Pareto mask and the resolved
index of any energy target. Derived arrays are memoized per instance —
repeated figure/table passes over the same sweep reuse one computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.models import measure_sweep
from repro.core.sweepcache import SweepCache, resolve_cache
from repro.hw.cache import models_for
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.metrics.energy import ed2p, edp
from repro.metrics.pareto import pareto_front_mask
from repro.metrics.targets import EnergyTarget


@dataclass(frozen=True)
class FrequencySweep:
    """Measured sweep of one kernel over a device's core-frequency table.

    The derived curves (:attr:`speedup`, :attr:`normalized_energy`,
    :attr:`edp`, :attr:`ed2p`, :attr:`pareto_mask`) are computed lazily and
    memoized on first access; ``functools.cached_property`` stores them in
    the instance ``__dict__``, which is compatible with the frozen
    dataclass (only attribute *assignment* is blocked).
    """

    kernel_name: str
    device_name: str
    freqs_mhz: np.ndarray
    time_s: np.ndarray
    energy_j: np.ndarray
    default_index: int

    @cached_property
    def speedup(self) -> np.ndarray:
        """Per-frequency speedup vs the default configuration (Fig. 7 x-axis)."""
        return self.time_s[self.default_index] / self.time_s

    @cached_property
    def normalized_energy(self) -> np.ndarray:
        """Per-task energy normalized to the default (Fig. 7 y-axis)."""
        return self.energy_j / self.energy_j[self.default_index]

    @cached_property
    def edp(self) -> np.ndarray:
        """EDP curve over the sweep (Fig. 4a)."""
        return np.asarray(edp(self.energy_j, self.time_s))

    @cached_property
    def ed2p(self) -> np.ndarray:
        """ED2P curve over the sweep (Fig. 4b)."""
        return np.asarray(ed2p(self.energy_j, self.time_s))

    @cached_property
    def pareto_mask(self) -> np.ndarray:
        """Pareto-optimal configurations on the speedup/energy plane."""
        return pareto_front_mask(self.speedup, self.normalized_energy)

    def resolve(self, target: EnergyTarget) -> int:
        """Index of the configuration realizing ``target`` on measured data."""
        return target.resolve_index(
            self.freqs_mhz, self.time_s, self.energy_j, self.default_index
        )

    def objective_value(self, target: EnergyTarget, index: int) -> float:
        """The target's reported objective at a sweep index (Table 2 protocol).

        MAX_PERF and PL_x report time; MIN_ENERGY, ES_x and the
        deadline/SLA family report energy (they maximize saving subject to
        a time bound); MIN_EDP / MIN_ED2P report their product metric.
        """
        from repro.metrics.targets import TargetKind

        if target.kind in (TargetKind.MAX_PERF, TargetKind.PL):
            return float(self.time_s[index])
        if target.kind in (
            TargetKind.MIN_ENERGY,
            TargetKind.ES,
            TargetKind.DEADLINE,
            TargetKind.SLA_SLACK,
        ):
            return float(self.energy_j[index])
        if target.kind is TargetKind.MIN_EDP:
            return float(self.edp[index])
        return float(self.ed2p[index])


def sweep_kernel(
    spec: GPUSpec,
    kernel: KernelIR,
    *,
    cache: bool | SweepCache | None = None,
) -> FrequencySweep:
    """Measure a kernel across the device's full core-frequency table."""
    freqs, times, energies = measure_sweep(spec, kernel, cache=cache)
    default_index = int(np.argmin(np.abs(freqs - spec.default_core_mhz)))
    return FrequencySweep(
        kernel_name=kernel.name,
        device_name=spec.name,
        freqs_mhz=freqs,
        time_s=times,
        energy_j=energies,
        default_index=default_index,
    )


@dataclass(frozen=True)
class FrequencySweep2D:
    """Joint core × memory frequency sweep (boards with selectable memory
    clocks, e.g. the Titan X of §2.1).

    ``time_s`` and ``energy_j`` have shape ``(n_mem, n_core)``.
    """

    kernel_name: str
    device_name: str
    core_mhz: np.ndarray
    mem_mhz: np.ndarray
    time_s: np.ndarray
    energy_j: np.ndarray


def _compute_sweep_2d(
    spec: GPUSpec, kernel: KernelIR, core: np.ndarray, mem: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The full (memory × core) grid in one broadcasted model evaluation."""
    timing_model, power_model = models_for(spec)
    timing = timing_model.sweep(kernel, core[None, :], mem[:, None])
    power = np.asarray(
        power_model.power(
            core[None, :],
            mem[:, None],
            timing.core_power_utilization,
            timing.u_mem,
        ),
        dtype=float,
    )
    return timing.time_s, power * timing.time_s


def sweep_kernel_2d(
    spec: GPUSpec,
    kernel: KernelIR,
    *,
    cache: bool | SweepCache | None = None,
) -> FrequencySweep2D:
    """Measure a kernel over every (memory, core) clock combination.

    Collapses to one row on HBM devices whose memory clock is fixed. The
    whole grid is a single broadcasted evaluation of the timing and power
    models, memoized in the keyed sweep cache like :func:`sweep_kernel`.
    """
    core = np.asarray(spec.core_freqs_mhz, dtype=float)
    mem = np.asarray(spec.mem_freqs_mhz, dtype=float)
    store = resolve_cache(cache)
    if store is None:
        times, energies = _compute_sweep_2d(spec, kernel, core, mem)
    else:
        times, energies = store.get_or_compute(
            store.sweep2d_key(spec, kernel, core, mem),
            lambda: _compute_sweep_2d(spec, kernel, core, mem),
        )
    return FrequencySweep2D(
        kernel_name=kernel.name,
        device_name=spec.name,
        core_mhz=core,
        mem_mhz=mem,
        time_s=times,
        energy_j=energies,
    )
