"""Shared per-spec model instances and operating-point memos.

:class:`~repro.hw.timing.TimingModel` and :class:`~repro.hw.power.PowerModel`
are immutable functions of a :class:`~repro.hw.specs.GPUSpec`, yet the hot
sweep paths used to rebuild them (including the voltage-curve construction)
on every call. :func:`models_for` hands out one shared pair per spec
*instance* for the lifetime of the process — a sweep session constructs its
models exactly once. :func:`operating_points_for` hands out the spec's
:class:`OperatingPoints` memo, which the per-event launch path of
:class:`~repro.hw.device.SimulatedGPU` consults instead of re-scanning the
core table on every kernel.

Keys are object identities: specs are frozen dataclasses typically taken
from the module-level catalog, and keeping the spec in the cache value pins
its ``id`` so stale-identity collisions cannot occur.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict

from repro.hw.power import PowerModel
from repro.hw.specs import GPUSpec
from repro.hw.timing import KernelTiming, TimingModel
from repro.kernelir.kernel import KernelIR

#: LRU bound on each spec's operating-point memo. Runs see a handful of
#: distinct points (kernels × clocks × caps); the bound only guards long
#: sessions that mint many distinct kernels.
_OPERATING_POINT_MEMO_MAX = 4096


class OperatingPoints:
    """Exact memo of one spec's throttled operating points.

    A point is a pure function of ``(kernel content, ceiling MHz, memory
    clock MHz, power limit W)``: the highest table clock at or below the
    ceiling whose modeled power fits the limit, or the lowest table clock
    when nothing fits (also when the ceiling is below the table). A miss
    scans down the table with scalar ``TimingModel.execute`` and
    ``PowerModel.power`` calls, so every point is bitwise the one the
    uncached scan gives (the oracle is
    :func:`repro.validate.reference.throttled_operating_point_reference`).
    The kernel name is not part of the key: the models never read it.
    """

    __slots__ = ("_timing", "_power", "_table", "_memo")

    def __init__(self, spec: GPUSpec, timing: TimingModel, power: PowerModel) -> None:
        self._timing = timing
        self._power = power
        self._table = spec.core_freqs_mhz
        self._memo: OrderedDict[tuple, tuple[int, KernelTiming, float]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._memo)

    def clear(self) -> None:
        """Drop every memoized point."""
        self._memo.clear()

    def lookup(
        self,
        kernel: KernelIR,
        ceiling_mhz: int,
        mem_mhz: int,
        power_limit_w: float,
    ) -> tuple[int, KernelTiming, float]:
        """``(core_mhz, timing, power_w)`` the board runs ``kernel`` at."""
        key = (
            kernel.mix, kernel.work_items, kernel.word_bytes, kernel.locality,
            ceiling_mhz, mem_mhz, power_limit_w,
        )
        # Pop and re-insert (not get + move_to_end): a concurrent eviction
        # can then cost a rescan of the same value, never a KeyError.
        memo = self._memo
        point = memo.pop(key, None)
        if point is None:
            point = self._scan(kernel, ceiling_mhz, mem_mhz, power_limit_w)
        memo[key] = point
        while len(memo) > _OPERATING_POINT_MEMO_MAX:
            memo.popitem(last=False)
        return point

    def _scan(self, kernel, ceiling_mhz, mem_mhz, power_limit_w):
        table = self._table
        i = max(bisect.bisect_right(table, ceiling_mhz) - 1, 0)
        while True:
            core_mhz = table[i]
            timing = self._timing.execute(kernel, core_mhz, mem_mhz)
            power = float(
                self._power.power(
                    core_mhz, mem_mhz, timing.core_power_utilization, timing.u_mem
                )
            )
            if power <= power_limit_w or i == 0:
                return core_mhz, timing, power
            i -= 1


_MODELS: dict[int, tuple[GPUSpec, TimingModel, PowerModel, OperatingPoints]] = {}
_LOCK = threading.Lock()


def _entry(spec: GPUSpec) -> tuple[GPUSpec, TimingModel, PowerModel, OperatingPoints]:
    entry = _MODELS.get(id(spec))
    if entry is not None and entry[0] is spec:
        return entry
    timing = TimingModel(spec)
    power = PowerModel(spec)
    entry = (spec, timing, power, OperatingPoints(spec, timing, power))
    with _LOCK:
        _MODELS[id(spec)] = entry
    return entry


def models_for(spec: GPUSpec) -> tuple[TimingModel, PowerModel]:
    """The process-wide ``(TimingModel, PowerModel)`` pair for a spec."""
    entry = _entry(spec)
    return entry[1], entry[2]


def operating_points_for(spec: GPUSpec) -> OperatingPoints:
    """The process-wide operating-point memo for a spec."""
    return _entry(spec)[3]


def clear_model_cache() -> None:
    """Drop all shared model instances and empty their memos (test hook)."""
    with _LOCK:
        for entry in _MODELS.values():
            entry[3].clear()
        _MODELS.clear()
