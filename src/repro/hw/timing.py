"""Roofline kernel timing model.

Execution time is the smooth maximum of a compute phase and a memory phase:

- ``t_comp = total_issue_cycles / (compute_units · f_core)`` with issue
  cycles from the per-class throughput table,
- ``t_mem = dram_bytes / BW_eff`` where the effective bandwidth scales with
  the memory clock and is additionally capped by the cores' request issue
  rate: below ``bw_knee · f_core_max`` even memory-bound kernels slow down,
  which produces the characteristic "flat Pareto with a cliff" of
  memory-bound kernels (Fig. 2b).

``t = (t_comp^p + t_mem^p)^{1/p}`` with ``p = 4`` approximates perfect
compute/memory overlap while keeping the model differentiable; the phase
fractions become the utilizations fed to the power model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.units import mhz_to_hz
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR

#: Smooth-max exponent. Larger values approach ``max(t_comp, t_mem)``.
SMOOTH_MAX_P: float = 4.0


@dataclass(frozen=True)
class KernelTiming:
    """Result of timing one kernel at one frequency configuration.

    ``u_core`` / ``u_mem`` are phase-occupancy fractions in ``[0, 1]``;
    ``activity`` is the issue-slot switching activity of the kernel's
    instruction mix (1.0 for full-rate FMA streams, low for divider/SFU
    bound code). The core-domain power input is ``u_core · activity``,
    exposed as :attr:`core_power_utilization`.
    """

    time_s: float
    t_comp: float
    t_mem: float
    u_core: float
    u_mem: float
    activity: float = 1.0

    @property
    def core_power_utilization(self) -> float:
        """Effective core-domain switching input for the power model."""
        return self.u_core * self.activity


@dataclass(frozen=True)
class SweepTiming:
    """Struct-of-arrays result of a vectorized frequency sweep.

    Every per-configuration quantity of :class:`KernelTiming` as one NumPy
    array computed in a single broadcasted pass — no per-clock
    ``_combine``. Arrays share one broadcast shape: ``(n_core,)`` for a
    core-table sweep, ``(n_mem, n_core)`` for a joint 2-D sweep.
    ``activity`` stays scalar (it depends only on the instruction mix).
    """

    time_s: np.ndarray
    t_comp: np.ndarray
    t_mem: np.ndarray
    u_core: np.ndarray
    u_mem: np.ndarray
    activity: float = 1.0

    @property
    def core_power_utilization(self) -> np.ndarray:
        """Effective core-domain switching input for the power model."""
        return self.u_core * self.activity

    def __len__(self) -> int:
        return int(self.time_s.shape[0])

    def at(self, index) -> KernelTiming:
        """Materialize one configuration as a scalar :class:`KernelTiming`."""
        return KernelTiming(
            time_s=float(self.time_s[index]),
            t_comp=float(self.t_comp[index]),
            t_mem=float(self.t_mem[index]),
            u_core=float(self.u_core[index]),
            u_mem=float(self.u_mem[index]),
            activity=self.activity,
        )

    def __iter__(self):
        if self.time_s.ndim != 1:
            raise TypeError(
                f"can only iterate a 1-D sweep (shape {self.time_s.shape})"
            )
        for i in range(self.time_s.shape[0]):
            yield self.at(i)


@dataclass(frozen=True)
class TimingModel:
    """Analytic timing model bound to one device spec."""

    spec: GPUSpec

    def issue_cycles_per_item(self, kernel: KernelIR) -> float:
        """Pipeline issue cycles one work-item spends in the compute phase."""
        mix = kernel.mix.as_dict()
        return float(
            sum(count / self.spec.throughput[cls] for cls, count in mix.items())
        )

    def switching_activity(self, kernel: KernelIR) -> float:
        """Issue-slot activity in ``(0, 1]``: achieved ops/cycle vs peak.

        FMA-dense kernels retire close to the peak issue rate and toggle
        the full datapath every cycle; divider/SFU-bound kernels spend many
        cycles per op with most execution lanes dark — their core-domain
        dynamic power is proportionally lower (the mechanism behind the
        paper's per-kernel energy diversity, §2.2).
        """
        cycles = self.issue_cycles_per_item(kernel)
        if cycles <= 0.0:
            return 0.0
        peak_rate = max(self.spec.throughput.values())
        achieved = kernel.mix.total_ops / cycles
        return min(1.0, achieved / peak_rate)

    def effective_bandwidth(
        self, core_mhz: float | np.ndarray, mem_mhz: float | np.ndarray
    ) -> np.ndarray:
        """DRAM bandwidth (bytes/s) achievable at the given clocks.

        Always returns an array (0-d for scalar inputs).
        """
        peak = self.spec.peak_bandwidth_gbs * 1e9
        mem_scale = np.asarray(mem_mhz, dtype=float) / float(
            self.spec.mem_freqs_mhz[-1]
        )
        knee_mhz = self.spec.bw_knee * self.spec.max_core_mhz
        issue_scale = np.minimum(1.0, np.asarray(core_mhz, dtype=float) / knee_mhz)
        return np.asarray(peak * mem_scale * issue_scale, dtype=float)

    def execute(
        self, kernel: KernelIR, core_mhz: float, mem_mhz: float
    ) -> KernelTiming:
        """Time one kernel at one clock pair."""
        t_comp, t_mem = self._phase_times(kernel, core_mhz, mem_mhz)
        return self._combine(
            float(t_comp), float(t_mem), self.switching_activity(kernel)
        )

    def sweep(
        self,
        kernel: KernelIR,
        core_mhz: np.ndarray,
        mem_mhz: float | np.ndarray,
    ) -> SweepTiming:
        """Vectorized timing over a frequency sweep in one NumPy pass.

        ``core_mhz`` and ``mem_mhz`` broadcast against each other, so a 1-D
        core table gives a ``(n_core,)`` sweep and ``(core[None, :],
        mem[:, None])`` gives the full ``(n_mem, n_core)`` grid. The result
        iterates as per-clock :class:`KernelTiming` values for 1-D sweeps;
        per-element results are bitwise those of :meth:`execute`.
        """
        t_comp, t_mem = self._phase_times(kernel, core_mhz, mem_mhz)
        t_comp, t_mem = np.broadcast_arrays(
            np.asarray(t_comp, dtype=float), np.asarray(t_mem, dtype=float)
        )
        p = SMOOTH_MAX_P
        body = (t_comp**p + t_mem**p) ** (1.0 / p)
        positive = body > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            u_core = np.where(positive, np.minimum(1.0, t_comp / body), 0.0)
            u_mem = np.where(positive, np.minimum(1.0, t_mem / body), 0.0)
        return SweepTiming(
            time_s=np.where(positive, body, 0.0) + self.spec.launch_overhead_s,
            t_comp=t_comp.copy(),
            t_mem=t_mem.copy(),
            u_core=u_core,
            u_mem=u_mem,
            activity=self.switching_activity(kernel),
        )

    def _phase_times(
        self,
        kernel: KernelIR,
        core_mhz: float | np.ndarray,
        mem_mhz: float | np.ndarray,
    ) -> tuple[float | np.ndarray, float | np.ndarray]:
        cycles = self.issue_cycles_per_item(kernel) * kernel.work_items
        f_core_hz = mhz_to_hz(1.0) * np.asarray(core_mhz, dtype=float)
        t_comp = cycles / (self.spec.compute_units * f_core_hz)
        bw = self.effective_bandwidth(core_mhz, mem_mhz)
        t_mem = kernel.global_bytes / np.asarray(bw, dtype=float)
        return t_comp, t_mem

    def _combine(
        self, t_comp: float, t_mem: float, activity: float = 1.0
    ) -> KernelTiming:
        p = SMOOTH_MAX_P
        if t_comp <= 0.0 and t_mem <= 0.0:
            body = 0.0
        else:
            body = float((t_comp**p + t_mem**p) ** (1.0 / p))
        time_s = body + self.spec.launch_overhead_s
        if body > 0.0:
            u_core = min(1.0, t_comp / body)
            u_mem = min(1.0, t_mem / body)
        else:
            u_core = u_mem = 0.0
        return KernelTiming(
            time_s=time_s,
            t_comp=t_comp,
            t_mem=t_mem,
            u_core=u_core,
            u_mem=u_mem,
            activity=activity,
        )
