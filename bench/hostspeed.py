"""How fast the host runs right now, from a fixed reference computation.

On a shared machine, neighbours can slow every process down by 1.3-1.8x
for stretches longer than a whole run, which moves run medians far more
than any bound worth keeping. The harness times this reference — plain
Python and numpy, independent of the program under test — next to the
workload and scales every host time by ``NOMINAL_S / reference time``.
Both slow down together, so a slow stretch cancels out; on a quiet
machine like the one ``NOMINAL_S`` was measured on, the scale is close to
1. The unscaled times stay in the full report.
"""

from __future__ import annotations

import gc
import mmap
import statistics
import time

import numpy as np

#: Median reference time on a quiet 2-vCPU Intel Xeon VM (Python 3.11.7,
#: numpy 2.4.6).
NOMINAL_S = 0.0075

_REPEATS = 3

# The reference mixes interpreter work, in-cache numpy work and fresh
# memory, like the workloads do. It reuses preallocated arrays and maps
# its fresh pages directly, so the program's heap and allocator state
# cannot change its speed.
_TABLE = {i: (i * 7919) % 1009 for i in range(997)}
_VALUES = np.random.default_rng(0).random(200_000)
_SORTED = np.empty_like(_VALUES)
_SUMS = np.empty_like(_VALUES)
_FRESH_BYTES = 4 << 20


def _work() -> float:
    acc = 0
    for i in range(30_000):
        acc = (acc + _TABLE[i % 997] * i) & 0xFFFFF
    np.copyto(_SORTED, _VALUES)
    _SORTED.sort()
    np.cumsum(_SORTED, out=_SUMS)
    with mmap.mmap(-1, _FRESH_BYTES) as fresh:
        pages = np.frombuffer(fresh, dtype=np.uint8)
        pages.fill(1)
        del pages
    return acc + float(_SUMS[-1])


def reference_s() -> float:
    """Median wall time (s) of a few reference runs, with gc paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            _work()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
