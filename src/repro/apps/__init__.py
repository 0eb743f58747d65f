"""Workloads: the 23-benchmark SYCL suite and the two real-world MPI apps.

- :mod:`~repro.apps.syclbench` — instruction-mix models of the 23 SYCL
  benchmark applications evaluated in §8.2/§8.3,
- :mod:`~repro.apps.cloverleaf` — CloverLeaf: 2-D compressible Euler
  hydrodynamics, multi-kernel timestep, MPI halo exchanges,
- :mod:`~repro.apps.miniweather` — MiniWeather: weather-like flows with
  YAKL-style kernels, MPI halo exchanges.
"""

from repro.apps.cloverleaf import CloverLeaf
from repro.apps.miniweather import MiniWeather
from repro.apps.syclbench import (
    BENCHMARK_NAMES,
    SyclBenchmark,
    get_benchmark,
    iter_benchmarks,
)

__all__ = [
    "SyclBenchmark",
    "BENCHMARK_NAMES",
    "get_benchmark",
    "iter_benchmarks",
    "CloverLeaf",
    "MiniWeather",
]
