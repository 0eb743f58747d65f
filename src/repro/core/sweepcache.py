"""Keyed cache for analytic frequency sweeps and predicted metric curves.

Characterization, accuracy analysis, weak scaling and training-set
construction all re-measure identical ``(device, kernel, frequency-table)``
sweeps — and the analytic sweep is a pure function of exactly those three
inputs. Entries are keyed on content fingerprints:

- **device spec fingerprint** — every physical field of the
  :class:`~repro.hw.specs.GPUSpec` (catalog constants included), so two
  structurally identical specs share entries while any model-parameter
  tweak misses,
- **kernel fingerprint** — the instruction mix, launch geometry, word size
  and locality; deliberately *not* the kernel name, so per-iteration
  renames (``kernel.with_name``) still hit,
- **frequency-table hash** — the exact clock values swept.

Cached arrays are frozen (``writeable=False``) and shared by reference;
hit/miss counters are surfaced through :func:`cache_report`, which the
observability plane copies into every scenario's metrics document.
Pass ``cache=False`` at a call site to bypass caching.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR

def _digest(*parts: object) -> str:
    payload = "\x1f".join(repr(p) for p in parts).encode()
    return hashlib.sha256(payload).hexdigest()


#: Fingerprint memos keyed by object identity. The object itself is pinned
#: in the value, so an id cannot be reused while its entry exists; the
#: kernel memo is LRU-bounded because experiment runs mint many transient
#: kernels (e.g. per-iteration renames).
_SPEC_FP_MEMO: dict[int, tuple[GPUSpec, str]] = {}
_KERNEL_FP_MEMO: "OrderedDict[int, tuple[KernelIR, str]]" = OrderedDict()
_KERNEL_FP_MEMO_MAX = 4096


def spec_fingerprint(spec: GPUSpec) -> str:
    """Content hash of every model-relevant field of a device spec."""
    entry = _SPEC_FP_MEMO.get(id(spec))
    if entry is not None and entry[0] is spec:
        return entry[1]
    fp = _spec_fingerprint_uncached(spec)
    _SPEC_FP_MEMO[id(spec)] = (spec, fp)
    return fp


def _spec_fingerprint_uncached(spec: GPUSpec) -> str:
    return _digest(
        "spec",
        spec.name,
        spec.vendor,
        spec.compute_units,
        tuple(spec.core_freqs_mhz),
        tuple(spec.mem_freqs_mhz),
        spec.default_core_mhz,
        spec.default_mem_mhz,
        spec.peak_bandwidth_gbs,
        spec.idle_power_w,
        spec.core_power_w,
        spec.mem_power_w,
        spec.v_min,
        spec.v_max,
        spec.v_gamma,
        spec.bw_knee,
        spec.launch_overhead_s,
        spec.pcie_bandwidth_gbs,
        tuple(sorted(spec.throughput.items())),
    )


def kernel_fingerprint(kernel: KernelIR) -> str:
    """Content hash of a kernel's model inputs (name excluded by design)."""
    entry = _KERNEL_FP_MEMO.get(id(kernel))
    if entry is not None and entry[0] is kernel:
        _KERNEL_FP_MEMO.move_to_end(id(kernel))
        return entry[1]
    fp = _digest(
        "kernel",
        tuple(sorted(kernel.mix.as_dict().items())),
        kernel.work_items,
        kernel.word_bytes,
        kernel.locality,
    )
    _KERNEL_FP_MEMO[id(kernel)] = (kernel, fp)
    while len(_KERNEL_FP_MEMO) > _KERNEL_FP_MEMO_MAX:
        _KERNEL_FP_MEMO.popitem(last=False)
    return fp


def freq_fingerprint(freqs_mhz: np.ndarray) -> str:
    """Content hash of a frequency table."""
    arr = np.ascontiguousarray(np.asarray(freqs_mhz, dtype=float))
    return hashlib.sha256(b"freqs\x1f" + arr.tobytes()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters for one cache domain."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


def _freeze(value):
    """Mark every ndarray inside a cached value read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)
    elif isinstance(value, dict):
        for item in value.values():
            _freeze(item)
    return value


@dataclass
class SweepCache:
    """Thread-safe LRU cache for deterministic sweep results."""

    max_entries: int = 2048
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
        self.stats.reset()

    def get_or_compute(self, key: tuple, compute: Callable[[], object]):
        """Return the cached value for ``key``, computing it on first use.

        The computation runs outside the lock (it is deterministic, so a
        rare duplicate computation under contention is harmless); cached
        arrays are frozen so shared results cannot be mutated in place.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
        value = _freeze(compute())
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return value

    def sweep_key(
        self, spec: GPUSpec, kernel: KernelIR, freqs_mhz: np.ndarray
    ) -> tuple:
        return (
            "sweep",
            spec_fingerprint(spec),
            kernel_fingerprint(kernel),
            freq_fingerprint(freqs_mhz),
        )

    def sweep2d_key(
        self,
        spec: GPUSpec,
        kernel: KernelIR,
        core_mhz: np.ndarray,
        mem_mhz: np.ndarray,
    ) -> tuple:
        return (
            "sweep2d",
            spec_fingerprint(spec),
            kernel_fingerprint(kernel),
            freq_fingerprint(core_mhz),
            freq_fingerprint(mem_mhz),
        )

    def engine_key(
        self,
        spec: GPUSpec,
        kernel: KernelIR,
        core_mhz: np.ndarray,
        mem_mhz: float,
    ) -> tuple:
        """Key for the batched engine's per-kernel operating-point tables.

        One entry per ``(device, kernel, core table, memory clock)``: the
        engine gathers per-submission timing/power columns from these
        tables, so repeated batches over the same kernel mix hit instead
        of re-sweeping.
        """
        return (
            "engine-op",
            spec_fingerprint(spec),
            kernel_fingerprint(kernel),
            freq_fingerprint(core_mhz),
            float(mem_mhz),
        )


#: Process-global cache instance shared by all sweep call sites.
_GLOBAL_CACHE = SweepCache()

#: Counters for the predictor-side memoized curve predictions.
CURVE_STATS = CacheStats()


def default_sweep_cache() -> SweepCache:
    """The process-global sweep cache."""
    return _GLOBAL_CACHE


def resolve_cache(cache: "bool | SweepCache | None") -> SweepCache | None:
    """Map a call-site ``cache`` argument onto an actual cache (or None).

    ``None`` or ``True`` → the global cache; ``False`` → no caching; a
    :class:`SweepCache` → that instance.
    """
    if isinstance(cache, SweepCache):
        return cache
    return _GLOBAL_CACHE if cache is None or cache else None


def reset_caches() -> None:
    """Clear the global sweep cache and all counters (test hook)."""
    _GLOBAL_CACHE.clear()
    CURVE_STATS.reset()


def cache_report() -> dict[str, dict[str, float | int]]:
    """Hit/miss counters of all fast-path caches."""
    sweep = dict(_GLOBAL_CACHE.stats.as_dict())
    sweep["entries"] = len(_GLOBAL_CACHE)
    return {"sweep": sweep, "predict_curves": dict(CURVE_STATS.as_dict())}


@contextlib.contextmanager
def scoped_cache(max_entries: int = 2048) -> Iterator[SweepCache]:
    """Run a block against a fresh global cache and curve counters.

    Deterministic replays (the golden-trace scenarios) need cache *state*
    to be part of the run's inputs: a second same-seed run in a warm
    process would otherwise see different hit/miss counts than the first.
    Inside the block the process-global sweep cache is swapped for an
    empty one and ``CURVE_STATS`` is zeroed; both are restored on exit.

    Not thread-safe: the swap is process-global by design (call sites
    reach the cache through module state, not parameters).
    """
    global _GLOBAL_CACHE
    prev_cache = _GLOBAL_CACHE
    prev_stats = (CURVE_STATS.hits, CURVE_STATS.misses)
    _GLOBAL_CACHE = SweepCache(max_entries=max_entries)
    CURVE_STATS.reset()
    try:
        yield _GLOBAL_CACHE
    finally:
        _GLOBAL_CACHE = prev_cache
        CURVE_STATS.hits, CURVE_STATS.misses = prev_stats
