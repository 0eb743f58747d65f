"""Kernel intermediate representation and static analysis.

This package plays the role of the paper's compiler integration (§3.1, §6.1):
kernels are represented as :class:`~repro.kernelir.kernel.KernelIR` objects
carrying a static instruction mix, and
:func:`~repro.kernelir.features.extract_features` is the feature-extraction
pass that produces the 10-dimensional static feature vector of Table 1.
:mod:`~repro.kernelir.microbench` generates the synthetic micro-benchmarks
used to build the training set.
"""

from repro.kernelir.features import FEATURE_NAMES, extract_features
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.kernelir.microbench import MicrobenchGenerator, generate_microbenchmarks

__all__ = [
    "InstructionMix",
    "KernelIR",
    "FEATURE_NAMES",
    "extract_features",
    "MicrobenchGenerator",
    "generate_microbenchmarks",
]
