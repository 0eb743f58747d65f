"""Synthetic micro-benchmark generation for model training (paper §6.1).

The paper builds its training set not from existing benchmarks but from
micro-benchmarks spanning the space of instruction mixes. The generator below
produces :class:`~repro.kernelir.kernel.KernelIR` kernels along three axes:

- *archetypes*: pure streams of one instruction class (isolates per-class
  frequency sensitivity),
- *roofline ramps*: fixed memory traffic with increasing compute per byte
  (sweeps the compute-bound/memory-bound transition where the interesting
  energy behaviour lives),
- *random mixes*: Dirichlet-weighted combinations of all classes (fills the
  space between the structured points).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR

#: Instruction classes that the archetype generator emits pure streams of.
_ARCHETYPE_CLASSES: tuple[str, ...] = (
    "int_add",
    "int_mul",
    "int_div",
    "int_bw",
    "float_add",
    "float_mul",
    "float_div",
    "sf",
)


@dataclass(frozen=True)
class MicrobenchGenerator:
    """Deterministic micro-benchmark factory.

    Parameters
    ----------
    seed:
        Root seed for the random-mix axis.
    work_items:
        Launch size shared by all generated kernels; large enough that
        kernel runtimes dominate the 15 ms power-sampling granularity.
    """

    seed: int = 7
    work_items: int = 1 << 22

    #: Work-per-item scales for the archetype axis: spans light stencils to
    #: heavy unrolled loop nests, so application kernels fall inside (not
    #: outside) the training feature range.
    ARCHETYPE_SCALES: tuple[float, ...] = (16.0, 64.0, 256.0)

    def archetypes(self) -> list[KernelIR]:
        """Pure single-class compute kernels plus pure memory kernels."""
        kernels: list[KernelIR] = []
        for ops_per_item in self.ARCHETYPE_SCALES:
            for cls in _ARCHETYPE_CLASSES:
                mix = InstructionMix(**{cls: ops_per_item, "gl_access": 2.0})
                kernels.append(
                    KernelIR(
                        name=f"mb_pure_{cls}_{int(ops_per_item)}",
                        mix=mix,
                        work_items=self.work_items,
                    )
                )
        kernels.append(
            KernelIR(
                name="mb_pure_gl_stream",
                mix=InstructionMix(float_add=1.0, gl_access=8.0),
                work_items=self.work_items,
            )
        )
        kernels.append(
            KernelIR(
                name="mb_pure_loc_access",
                mix=InstructionMix(float_add=2.0, gl_access=2.0, loc_access=16.0),
                work_items=self.work_items,
            )
        )
        return kernels

    def roofline_ramp(self, steps: int = 9) -> list[KernelIR]:
        """Kernels sweeping arithmetic intensity from ~0.25 to ~128 ops/byte."""
        kernels: list[KernelIR] = []
        for i in range(steps):
            compute = 2.0 ** (i + 1)  # 2, 4, ..., 2^steps flops per item
            mix = InstructionMix(
                float_add=compute * 0.5,
                float_mul=compute * 0.5,
                gl_access=2.0,
            )
            kernels.append(
                KernelIR(
                    name=f"mb_roofline_{i:02d}",
                    mix=mix,
                    work_items=self.work_items,
                )
            )
        return kernels

    def random_mixes(self, count: int = 24) -> list[KernelIR]:
        """Dirichlet-weighted random instruction mixes (seeded).

        Scales are log-uniform over [8, 800] total ops per item and
        localities uniform over [0, 0.9), covering the streaming-to-cached
        spectrum of real applications.
        """
        if count < 0:
            raise ConfigurationError(f"random mix count must be >= 0 ({count!r})")
        rng = make_rng(self.seed)
        names = list(_ARCHETYPE_CLASSES) + ["gl_access", "loc_access"]
        kernels: list[KernelIR] = []
        for i in range(count):
            weights = rng.dirichlet(alpha=[0.6] * len(names))
            scale = float(np.exp(rng.uniform(np.log(8.0), np.log(800.0))))
            counts = {n: float(w * scale) for n, w in zip(names, weights)}
            # Every kernel touches memory at least once per item: a kernel
            # with no output would be dead code for a real compiler.
            counts["gl_access"] = max(counts["gl_access"], 1.0)
            locality = float(rng.uniform(0.0, 0.9))
            kernels.append(
                KernelIR(
                    name=f"mb_random_{i:03d}",
                    mix=InstructionMix(**counts),
                    work_items=self.work_items,
                    locality=locality,
                )
            )
        return kernels

    def generate(self, random_count: int = 24) -> list[KernelIR]:
        """Full micro-benchmark suite: archetypes + ramp + random mixes."""
        return self.archetypes() + self.roofline_ramp() + self.random_mixes(random_count)


def generate_microbenchmarks(
    seed: int = 7, random_count: int = 24
) -> list[KernelIR]:
    """Convenience wrapper building the default training suite."""
    return MicrobenchGenerator(seed=seed).generate(random_count)
