"""Fault plans: *what* can go wrong, *where*, and *when*.

A :class:`FaultPlan` is a declarative, seeded description of the faults an
experiment injects: a list of :class:`FaultSpec` entries, each bound to one
injection *site* (a named hook inside the stack — an NVML call, the power
sensor's sampling grid, the SLURM node lifecycle, an MPI collective). Specs
fire either probabilistically (an independent seeded draw per invocation)
or at a scheduled virtual timestamp; window sites stay active for a
duration. Because everything derives from the plan seed and the simulation
is single-threaded virtual time, identical plans produce byte-identical
fault sequences — chaos runs are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ValidationError

#: Known injection sites, by layer. Validation catches typo'd site names at
#: plan construction instead of silently never firing.
FAULT_SITES: frozenset[str] = frozenset(
    {
        # vendor: the simulated NVML entry points
        "nvml.set_clocks",      # transient failure of a clock-set/reset call
        "nvml.power_read",      # transient failure of a power/energy read
        "nvml.gpu_lost",        # persistent: the board falls off the bus
        # hw: the board and its power sensor
        "hw.thermal_throttle",  # window: core clock capped at `param` MHz
        "hw.sensor_dropout",    # a sensor sample is dropped
        "hw.sensor_stuck",      # window: the sensor repeats its last value
        # slurm: node lifecycle and the plugin's prologue
        "slurm.node_fail",      # the node dies (detected at the next sync)
        "slurm.dlopen_fail",    # the NVML shared object fails to load
        "slurm.prologue_fail",  # the prologue itself crashes
        # mpi: ranks and links
        "mpi.rank_fail",        # one rank dies (detected at the next sync)
        "mpi.link_degraded",    # window: link bandwidth scaled by `param`
    }
)

#: Sites whose faults are windows (active over ``[at_s, at_s + duration_s)``)
#: rather than one-shot events.
WINDOW_SITES: frozenset[str] = frozenset(
    {"hw.thermal_throttle", "hw.sensor_stuck", "mpi.link_degraded"}
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault source bound to an injection site.

    Attributes
    ----------
    site:
        Injection site name (one of :data:`FAULT_SITES`).
    probability:
        Per-invocation firing probability (independent seeded draws).
        Mutually exclusive with ``at_s``.
    at_s:
        Virtual timestamp: the fault fires at the first site invocation at
        or after this time (window sites: activation start).
    target:
        Restrict the spec to one entity — a device index for vendor/hw
        sites, a node name for slurm sites, a rank for mpi sites. ``None``
        matches every entity passing through the site.
    count:
        Maximum number of firings. Defaults to 1 for scheduled faults and
        unlimited (0) for probabilistic ones.
    param:
        Site-specific magnitude: the throttle cap in MHz
        (``hw.thermal_throttle``) or the remaining bandwidth fraction in
        ``(0, 1]`` (``mpi.link_degraded``).
    duration_s:
        Window length for window sites.
    code:
        Vendor error code override for ``nvml.*`` transient sites.
    """

    site: str
    probability: float = 0.0
    at_s: float | None = None
    target: object | None = None
    count: int = 0
    param: float | None = None
    duration_s: float | None = None
    code: int | None = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValidationError(
                f"unknown fault site {self.site!r}; known: "
                f"{', '.join(sorted(FAULT_SITES))}"
            )
        scheduled = self.at_s is not None
        if scheduled == (self.probability > 0.0):
            raise ValidationError(
                f"fault spec for {self.site!r} needs exactly one of "
                "probability > 0 or at_s"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(
                f"probability must be in [0, 1] ({self.probability!r})"
            )
        if scheduled and self.at_s < 0.0:
            raise ValidationError(f"at_s cannot be negative ({self.at_s!r})")
        if self.count < 0:
            raise ValidationError(f"count cannot be negative ({self.count!r})")
        if scheduled and self.count == 0:
            # A scheduled fault without an explicit count fires once.
            object.__setattr__(self, "count", 1)
        if self.site in WINDOW_SITES:
            if not scheduled or self.duration_s is None or self.duration_s <= 0:
                raise ValidationError(
                    f"window site {self.site!r} needs at_s and a positive "
                    "duration_s"
                )
            if self.site == "mpi.link_degraded" and not (
                self.param is not None and 0.0 < self.param <= 1.0
            ):
                raise ValidationError(
                    "mpi.link_degraded needs param in (0, 1] "
                    "(remaining bandwidth fraction)"
                )
            if self.site == "hw.thermal_throttle" and not (
                self.param is not None and self.param > 0
            ):
                raise ValidationError(
                    "hw.thermal_throttle needs param > 0 (core cap in MHz)"
                )
        elif self.duration_s is not None:
            raise ValidationError(
                f"duration_s only applies to window sites ({self.site!r})"
            )

    @property
    def scheduled(self) -> bool:
        """Whether the spec fires at a virtual timestamp (vs per-draw)."""
        return self.at_s is not None

    def matches(self, target: object | None) -> bool:
        """Whether this spec applies to an entity passing the site."""
        return self.target is None or self.target == target


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs — the full chaos scenario.

    The plan is immutable and hashable-by-content so experiment reports can
    reference it; :meth:`injector` builds the live
    :class:`~repro.faults.injector.FaultInjector` for one run.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def injector(self, trace=None):
        """Build a fresh injector (fresh RNG streams and fault log)."""
        from repro.faults.injector import FaultInjector

        return FaultInjector(self, trace=trace)


def transient_nvml_plan(
    rate: float, seed: int = 0, extra: tuple[FaultSpec, ...] = ()
) -> FaultPlan:
    """Convenience plan: transient NVML clock-set failures at ``rate``.

    The building block of the chaos sweep: every clock-set call fails with
    ``NVML_ERROR_UNKNOWN`` with probability ``rate``; ``extra`` specs are
    appended (node failures, sensor dropouts, ...).
    """
    if rate < 0.0 or rate > 1.0:
        raise ValidationError(f"fault rate must be in [0, 1] ({rate!r})")
    specs: tuple[FaultSpec, ...] = ()
    if rate > 0.0:
        specs = (FaultSpec(site="nvml.set_clocks", probability=rate),)
    return FaultPlan(seed=seed, specs=specs + tuple(extra))
