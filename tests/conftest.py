"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.models import EnergyModelBundle, build_training_set
from repro.hw.device import SimulatedGPU
from repro.hw.specs import AMD_MI100, NVIDIA_V100
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.kernelir.microbench import generate_microbenchmarks
from repro.sycl.device import set_default_device


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden trace/metrics snapshots and the paper "
        "artifacts' numbers under tests/golden/ instead of comparing against them",
    )


@pytest.fixture(autouse=True)
def _clean_default_device():
    """Never leak the default SYCL device between tests."""
    set_default_device(None)
    yield
    set_default_device(None)


@pytest.fixture
def v100() -> SimulatedGPU:
    """A fresh, unrestricted V100 board."""
    return SimulatedGPU(NVIDIA_V100)


@pytest.fixture
def mi100() -> SimulatedGPU:
    """A fresh, unrestricted MI100 board."""
    return SimulatedGPU(AMD_MI100)


@pytest.fixture
def compute_kernel() -> KernelIR:
    """An FMA-dense, compute-bound kernel."""
    return KernelIR(
        "test_compute",
        InstructionMix(float_add=40, float_mul=40, gl_access=2),
        work_items=1 << 22,
        locality=0.5,
    )


@pytest.fixture
def memory_kernel() -> KernelIR:
    """A streaming, memory-bound kernel."""
    return KernelIR(
        "test_memory",
        InstructionMix(float_add=1, gl_access=4),
        work_items=1 << 24,
    )


@pytest.fixture(scope="session")
def trained_bundle() -> EnergyModelBundle:
    """A small but real model bundle trained on micro-benchmarks (V100)."""
    kernels = generate_microbenchmarks(random_count=6)
    training = build_training_set(
        NVIDIA_V100, kernels, core_freqs_mhz=NVIDIA_V100.core_freqs_mhz[::8]
    )
    return EnergyModelBundle().fit(training)
