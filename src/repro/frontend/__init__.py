"""Static-analysis front end for device-Python kernels (paper §6.1).

Reconstructs the paper's compiler pass: kernels written in a restricted
Python subset are lowered into a typed CFG, every operation is classified
into its Table-1 instruction class with loop-trip-count multiplication,
and a stride/reuse analysis estimates ``locality`` — producing the
:class:`~repro.kernelir.kernel.KernelIR` the rest of the stack consumes
without hand-declared counts. See ``docs/FRONTEND.md``.
"""

from repro.frontend.cfg import KernelCFG, count_region
from repro.frontend.decorator import (
    AnalysisResult,
    DeviceKernel,
    analyze_source,
    device_kernel,
)
from repro.frontend.diagnostics import (
    Diagnostic,
    DiagnosticSink,
    FrontendError,
)
from repro.frontend.locality import LocalityEstimate, estimate_locality
from repro.frontend.lowering import lower_kernel
from repro.frontend.synth import source_for_mix

__all__ = [
    "AnalysisResult",
    "DeviceKernel",
    "Diagnostic",
    "DiagnosticSink",
    "FrontendError",
    "KernelCFG",
    "LocalityEstimate",
    "analyze_source",
    "count_region",
    "device_kernel",
    "estimate_locality",
    "lower_kernel",
    "source_for_mix",
]
