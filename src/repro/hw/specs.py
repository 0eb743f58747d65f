"""GPU device catalogs.

The frequency tables reproduce Figure 1 of the paper exactly:

- NVIDIA V100: memory fixed at 877 MHz, 196 core configurations 135–1530 MHz,
- NVIDIA A100: memory fixed at 1215 MHz, 81 core configurations 210–1410 MHz,
- AMD MI100: memory fixed at 1200 MHz, 16 core configurations 300–1502 MHz.

Defaults follow the paper's observations: the V100 default application clock
is 1312 MHz (below the 1530 MHz maximum, so speedups > 1 are reachable,
Fig. 7), while the MI100 auto mode behaves like its top performance level
(the default is always the fastest configuration, Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.common.errors import ConfigurationError

#: Default per-CU issue throughputs (operations per cycle per compute unit)
#: for each static instruction class. Values follow the relative widths of
#: modern GPU pipelines: full-rate simple ALU ops, half-rate integer
#: multiplies, slow dividers, quarter-rate special-function units.
_NVIDIA_THROUGHPUT: Mapping[str, float] = MappingProxyType(
    {
        "int_add": 64.0,
        "int_mul": 32.0,
        "int_div": 4.0,
        "int_bw": 64.0,
        "float_add": 64.0,
        "float_mul": 64.0,
        "float_div": 8.0,
        "sf": 16.0,
        "gl_access": 32.0,  # issue cost only; DRAM time is modeled separately
        "loc_access": 32.0,
    }
)

_AMD_THROUGHPUT: Mapping[str, float] = MappingProxyType(
    {
        "int_add": 64.0,
        "int_mul": 24.0,
        "int_div": 4.0,
        "int_bw": 64.0,
        "float_add": 64.0,
        "float_mul": 64.0,
        "float_div": 6.0,
        "sf": 12.0,
        "gl_access": 32.0,
        "loc_access": 32.0,
    }
)


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a GPU model.

    Attributes
    ----------
    name, vendor:
        Marketing name and vendor tag (``"nvidia"`` or ``"amd"``).
    compute_units:
        Number of SMs / CUs.
    core_freqs_mhz, mem_freqs_mhz:
        Supported clock tables, ascending, in MHz.
    default_core_mhz, default_mem_mhz:
        The configuration the driver applies when no application clock has
        been requested (the paper's baseline).
    peak_bandwidth_gbs:
        Peak DRAM bandwidth at the reference memory clock, in GB/s.
    idle_power_w, core_power_w, mem_power_w:
        Power model parameters: static draw, maximum core-domain dynamic
        draw, maximum memory-domain dynamic draw (watts).
    v_min, v_max:
        Core voltage range across the frequency table (volts).
    bw_knee:
        Fraction of the maximum core frequency below which the cores can no
        longer issue enough memory requests to saturate DRAM bandwidth.
    launch_overhead_s:
        Fixed per-kernel launch latency (seconds).
    throughput:
        Per-CU issue rate (ops/cycle) per instruction class.
    """

    name: str
    vendor: str
    compute_units: int
    core_freqs_mhz: tuple[int, ...]
    mem_freqs_mhz: tuple[int, ...]
    default_core_mhz: int
    default_mem_mhz: int
    peak_bandwidth_gbs: float
    idle_power_w: float
    core_power_w: float
    mem_power_w: float
    v_min: float = 0.60
    v_max: float = 1.08
    v_gamma: float = 3.5
    bw_knee: float = 0.45
    launch_overhead_s: float = 5.0e-6
    #: Host-device interconnect bandwidth (GB/s): PCIe gen3 x16 class for
    #: the NVIDIA parts, Infinity-Fabric-attached for the MI100.
    pcie_bandwidth_gbs: float = 12.0
    throughput: Mapping[str, float] = field(
        default_factory=lambda: _NVIDIA_THROUGHPUT
    )

    def __post_init__(self) -> None:
        if not self.core_freqs_mhz or not self.mem_freqs_mhz:
            raise ConfigurationError(f"{self.name}: empty frequency table")
        for what, table in (
            ("core", self.core_freqs_mhz), ("memory", self.mem_freqs_mhz)
        ):
            if list(table) != sorted(set(table)):
                raise ConfigurationError(
                    f"{self.name}: {what} frequency table must be ascending "
                    "and unique"
                )
        if self.default_core_mhz not in self.core_freqs_mhz:
            raise ConfigurationError(
                f"{self.name}: default core clock {self.default_core_mhz} MHz "
                "is not in the supported table"
            )
        if self.default_mem_mhz not in self.mem_freqs_mhz:
            raise ConfigurationError(
                f"{self.name}: default memory clock {self.default_mem_mhz} MHz "
                "is not in the supported table"
            )

    @property
    def max_core_mhz(self) -> int:
        """Highest supported core clock."""
        return self.core_freqs_mhz[-1]

    @property
    def min_core_mhz(self) -> int:
        """Lowest supported core clock."""
        return self.core_freqs_mhz[0]

    @cached_property
    def _clock_sets(self) -> tuple[frozenset[int], frozenset[int]]:
        # Every per-event clock set validates its pair: O(1) membership.
        return frozenset(self.core_freqs_mhz), frozenset(self.mem_freqs_mhz)

    def validate_clocks(self, mem_mhz: int, core_mhz: int) -> None:
        """Raise :class:`ConfigurationError` for unsupported clock pairs."""
        cores, mems = self._clock_sets
        if core_mhz not in cores:
            raise ConfigurationError(
                f"{self.name}: unsupported core clock {core_mhz} MHz"
            )
        if mem_mhz not in mems:
            raise ConfigurationError(
                f"{self.name}: unsupported memory clock {mem_mhz} MHz"
            )

    def validate_clock_columns(self, mem_mhz, core_mhz) -> None:
        """:meth:`validate_clocks` over every pair of two clock columns.

        A pair is supported iff its core and its memory clock both are,
        so the columns' distinct values are checked against the tables as
        sets; the smallest unsupported core clock, then memory clock, is
        named.
        """
        cores, mems = self._clock_sets
        for what, values, table in (
            ("core", core_mhz, cores), ("memory", mem_mhz, mems)
        ):
            bad = set(values) - table
            if bad:
                raise ConfigurationError(
                    f"{self.name}: unsupported {what} clock {min(bad)} MHz"
                )


def _freq_table(lo: int, hi: int, count: int) -> tuple[int, ...]:
    """Evenly spaced integer clock table with exactly ``count`` entries."""
    table = np.unique(np.rint(np.linspace(lo, hi, count)).astype(int))
    if len(table) != count:  # pragma: no cover - guards catalog typos
        raise ConfigurationError(
            f"frequency table [{lo}, {hi}] with {count} steps collapsed to "
            f"{len(table)} unique entries"
        )
    return tuple(int(f) for f in table)


#: NVIDIA V100 (SXM2 16 GB): 196 core configs 135–1530 MHz, HBM2 at 877 MHz.
NVIDIA_V100 = GPUSpec(
    name="NVIDIA V100",
    vendor="nvidia",
    compute_units=80,
    core_freqs_mhz=_freq_table(135, 1530, 196),
    mem_freqs_mhz=(877,),
    default_core_mhz=_freq_table(135, 1530, 196)[
        int(np.argmin(np.abs(np.array(_freq_table(135, 1530, 196)) - 1312)))
    ],
    default_mem_mhz=877,
    peak_bandwidth_gbs=900.0,
    idle_power_w=17.0,
    core_power_w=285.0,
    mem_power_w=38.0,
    throughput=_NVIDIA_THROUGHPUT,
)

#: NVIDIA A100 (SXM4 40 GB): 81 core configs 210–1410 MHz, HBM2e at 1215 MHz.
NVIDIA_A100 = GPUSpec(
    name="NVIDIA A100",
    vendor="nvidia",
    compute_units=108,
    core_freqs_mhz=_freq_table(210, 1410, 81),
    mem_freqs_mhz=(1215,),
    default_core_mhz=1095,
    default_mem_mhz=1215,
    peak_bandwidth_gbs=1555.0,
    idle_power_w=20.0,
    core_power_w=300.0,
    mem_power_w=48.0,
    throughput=_NVIDIA_THROUGHPUT,
)

#: AMD MI100: 16 performance levels 300–1502 MHz, HBM2 at 1200 MHz. The auto
#: mode runs at the top level, so the default equals the maximum clock.
AMD_MI100 = GPUSpec(
    name="AMD MI100",
    vendor="amd",
    compute_units=120,
    core_freqs_mhz=_freq_table(300, 1502, 16),
    mem_freqs_mhz=(1200,),
    default_core_mhz=1502,
    default_mem_mhz=1200,
    peak_bandwidth_gbs=1228.8,
    idle_power_w=16.0,
    core_power_w=255.0,
    mem_power_w=35.0,
    throughput=_AMD_THROUGHPUT,
)

#: NVIDIA Titan X (Pascal): the §2.1 example of a board that exposes a
#: choice of memory frequencies (four levels) alongside the core table.
#: GDDR5X instead of HBM, so the memory clock is a real tuning knob.
NVIDIA_TITAN_X = GPUSpec(
    name="NVIDIA Titan X",
    vendor="nvidia",
    compute_units=28,
    core_freqs_mhz=_freq_table(139, 1911, 120),
    mem_freqs_mhz=(405, 810, 4513, 5005),
    default_core_mhz=_freq_table(139, 1911, 120)[
        int(np.argmin(np.abs(np.array(_freq_table(139, 1911, 120)) - 1417)))
    ],
    default_mem_mhz=5005,
    peak_bandwidth_gbs=480.0,
    idle_power_w=15.0,
    core_power_w=215.0,
    mem_power_w=40.0,
    throughput=_NVIDIA_THROUGHPUT,
)

_CATALOG: dict[str, GPUSpec] = {
    "v100": NVIDIA_V100,
    "a100": NVIDIA_A100,
    "mi100": AMD_MI100,
    "titanx": NVIDIA_TITAN_X,
}


def get_spec(model: str) -> GPUSpec:
    """Look up a device spec by short name (``"v100"``, ``"a100"``, ``"mi100"``)."""
    key = model.strip().lower()
    if key not in _CATALOG:
        raise ConfigurationError(
            f"unknown GPU model {model!r}; known models: {sorted(_CATALOG)}"
        )
    return _CATALOG[key]


def known_devices() -> tuple[str, ...]:
    """Short names of all devices in the catalog."""
    return tuple(sorted(_CATALOG))
