"""Shared low-level utilities: errors, units, seeded RNG, virtual time.

Everything in the simulation stack is deterministic: randomness flows from
:func:`repro.common.rng.make_rng` seeds and time flows from a
:class:`repro.common.clock.VirtualClock`, never from the wall clock.
"""

from repro.common.clock import VirtualClock
from repro.common.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    ValidationError,
)
from repro.common.rng import derive_seed, make_rng
from repro.common.units import MHZ, mhz_to_hz

__all__ = [
    "VirtualClock",
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "ValidationError",
    "make_rng",
    "derive_seed",
    "mhz_to_hz",
    "MHZ",
]
