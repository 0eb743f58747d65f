"""The live fault-injection engine and its structured log.

A :class:`FaultInjector` is instantiated once per run from a
:class:`~repro.faults.plan.FaultPlan` and threaded through the stack
(``Cluster.build`` attaches it to every node and GPU; standalone tests
attach it by hand). Components consult it at their injection sites:

- :meth:`FaultInjector.fires` — one-shot faults (probabilistic draws and
  scheduled events),
- :meth:`FaultInjector.active` — window faults (thermal throttle, stuck
  sensor, degraded link),
- :meth:`FaultInjector.device_lost` / :meth:`mark_device_lost` — the
  persistent GPU-is-lost state machine.

Every injected fault and every recovery action lands in the
:class:`FaultLog`, so an experiment report can account for each fault and
show what the runtime did about it. All randomness comes from per-spec
seeded streams derived from the plan seed; with a fixed plan and workload,
logs are byte-identical across runs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import FaultInjectionError
from repro.common.rng import derive_seed, make_rng
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.session import TraceSession, resolve_trace


class NodeFailure(FaultInjectionError):
    """A compute node died mid-job (the ``slurm.node_fail`` site)."""

    def __init__(self, nodes: tuple[str, ...], t: float) -> None:
        self.nodes = tuple(nodes)
        self.t = float(t)
        super().__init__(
            f"node failure at t={self.t:.6f}s: {', '.join(self.nodes)}"
        )


class RankFailure(FaultInjectionError):
    """An MPI rank died mid-job (the ``mpi.rank_fail`` site)."""

    def __init__(self, rank: int, t: float) -> None:
        self.rank = int(rank)
        self.t = float(t)
        super().__init__(f"rank {self.rank} failed at t={self.t:.6f}s")


@dataclass(frozen=True)
class FaultRecord:
    """One log entry: an injected fault or a recovery action."""

    t: float
    kind: str  # "fault" | "recovery"
    site: str
    target: str
    detail: str

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form for JSON export and byte-comparison."""
        return {
            "t": self.t,
            "kind": self.kind,
            "site": self.site,
            "target": self.target,
            "detail": self.detail,
        }


@dataclass
class FaultLog:
    """Ordered record of every injected fault and recovery action.

    With a trace session attached, every entry is mirrored as an instant
    on the ``faults`` track and counted, so the exported timeline shows
    injections and recovery actions in place.
    """

    entries: list[FaultRecord] = field(default_factory=list)
    trace: "TraceSession | None" = field(default=None, repr=False)

    def record_fault(
        self, t: float, site: str, target: object = None, detail: str = ""
    ) -> None:
        """Log one injected fault."""
        self.entries.append(
            FaultRecord(float(t), "fault", site, _target_str(target), detail)
        )
        if self.trace is not None and self.trace.enabled:
            self.trace.instant(
                float(t), "faults", "fault", site,
                target=_target_str(target), detail=detail,
            )
            self.trace.count("faults.injected")
            self.trace.count(f"faults.site.{site}")

    def record_recovery(
        self, t: float, site: str, target: object = None, detail: str = ""
    ) -> None:
        """Log one recovery action taken in response to faults."""
        self.entries.append(
            FaultRecord(float(t), "recovery", site, _target_str(target), detail)
        )
        if self.trace is not None and self.trace.enabled:
            self.trace.instant(
                float(t), "faults", "recovery", site,
                target=_target_str(target), detail=detail,
            )
            self.trace.count("faults.recoveries")

    @property
    def faults(self) -> tuple[FaultRecord, ...]:
        """Injected faults only, in injection order."""
        return tuple(e for e in self.entries if e.kind == "fault")

    @property
    def recoveries(self) -> tuple[FaultRecord, ...]:
        """Recovery actions only, in order."""
        return tuple(e for e in self.entries if e.kind == "recovery")

    def counts(self) -> dict[str, int]:
        """Injected-fault count per site."""
        out: dict[str, int] = {}
        for e in self.faults:
            out[e.site] = out.get(e.site, 0) + 1
        return out

    def to_dicts(self) -> list[dict[str, object]]:
        """The whole log as plain dicts (stable, JSON-serializable)."""
        return [e.as_dict() for e in self.entries]


def _target_str(target: object) -> str:
    return "" if target is None else str(target)


def _window(spec: FaultSpec, target: object) -> tuple[float, float] | None:
    """``[start, end)`` of a window spec that applies to ``target``, else None."""
    if not spec.matches(target) or not spec.scheduled or spec.duration_s is None:
        return None
    return spec.at_s, spec.at_s + spec.duration_s


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against live site invocations."""

    def __init__(self, plan: FaultPlan, trace: "TraceSession | None" = None) -> None:
        self.plan = plan
        self.trace = resolve_trace(trace)
        self.log = FaultLog(trace=trace)
        # One independent RNG stream per probabilistic spec, derived from
        # the plan seed + the spec's position: firing decisions for one
        # site never perturb another site's stream.
        self._rngs = {
            i: make_rng(derive_seed(plan.seed, spec.site, i))
            for i, spec in enumerate(plan.specs)
            if not spec.scheduled
        }
        # Site → [(plan index, spec), ...] in plan order. ``fires``/``active``
        # only ever match specs of the invoked site, so walking this index
        # instead of the whole plan is behaviour-preserving (first-match
        # order and per-spec RNG draw counts are unchanged) while making
        # unarmed sites O(1) — the common case on hot collective paths.
        self._by_site: dict[str, list[tuple[int, FaultSpec]]] = {}
        for i, spec in enumerate(plan.specs):
            self._by_site.setdefault(spec.site, []).append((i, spec))
        self._fired = [0] * len(plan.specs)
        # Window specs currently known to be active (logged once).
        self._activated: set[int] = set()
        self._lost_devices: set[int] = set()

    def armed(self, site: str) -> bool:
        """Whether the plan has any spec at ``site``.

        When False, :meth:`fires`/:meth:`active` at that site are guaranteed
        no-ops (no match, no RNG draw), so per-target polling loops can be
        skipped wholesale without changing behaviour or stream state.
        """
        return site in self._by_site

    # ------------------------------------------------------------- one-shot

    def fires(
        self, site: str, now: float, target: object = None, detail: str = ""
    ) -> FaultSpec | None:
        """Check a one-shot site invocation; logs and returns the spec hit.

        Scheduled specs fire at the first invocation at/after ``at_s``;
        probabilistic specs draw from their seeded stream. At most one spec
        fires per invocation (the first match in plan order).
        """
        for i, spec in self._by_site.get(site, ()):
            if not spec.matches(target):
                continue
            if spec.count and self._fired[i] >= spec.count:
                continue
            if spec.scheduled:
                if now < spec.at_s:
                    continue
            elif not self._rngs[i].random() < spec.probability:
                continue
            self._fired[i] += 1
            self.log.record_fault(now, site, target, detail)
            return spec
        return None

    def quiet_prefix(self, site: str, target: object, times) -> int:
        """How many of the next invocations of a one-shot site fire nothing.

        ``times`` holds the virtual timestamps of the next ``fires(site,
        t, target)`` calls, in call order. Returns ``k``: the first ``k``
        calls would all return ``None`` and call ``k`` (if any) would
        fire. Exactly the draws those ``k`` quiet calls make are
        consumed, so call ``k`` can then go through :meth:`fires` and
        every stream continues as if each call had.

        A quiet call fires no spec, so the live specs (matching
        ``target``, count not exhausted) stay the same over the prefix
        and each live probabilistic spec draws once per call. A
        probabilistic spec first fires at its first draw below its
        probability; a scheduled spec at the first timestamp at or after
        ``at_s``. ``Generator.random(k)`` equals ``k`` scalar draws, so
        the search draws in bulk, restores the stream, and consumes ``k``.
        """
        times = np.asarray(times, dtype=float)
        k = times.size
        streams = []
        for i, spec in self._by_site.get(site, ()):
            if not spec.matches(target):
                continue
            if spec.count and self._fired[i] >= spec.count:
                continue
            if spec.scheduled:
                due = np.flatnonzero(times >= spec.at_s)
                if due.size:
                    k = min(k, int(due[0]))
            else:
                streams.append((self._rngs[i], spec.probability))
        for rng, probability in streams:
            if k == 0:
                return 0
            state = rng.bit_generator.state
            hits = np.flatnonzero(rng.random(k) < probability)
            rng.bit_generator.state = state
            if hits.size:
                k = int(hits[0])
        if k:
            for rng, _ in streams:
                rng.random(k)
        return k

    # -------------------------------------------------------------- windows

    def active(
        self, site: str, now: float, target: object = None
    ) -> FaultSpec | None:
        """Check whether a window fault covers ``now`` for ``target``.

        The first invocation inside the window logs the fault; later
        invocations return the spec silently (the fault is one event, even
        if it affects many operations).
        """
        for i, spec in self._by_site.get(site, ()):
            window = _window(spec, target)
            if window is not None and window[0] <= now < window[1]:
                if i not in self._activated:
                    self._activated.add(i)
                    self._fired[i] += 1
                    self.log.record_fault(
                        now, site, target,
                        f"window [{window[0]:.6f}, {window[1]:.6f}]s",
                    )
                return spec
        return None

    def first_active(self, site: str, target: object, times) -> int:
        """Index of the first of the ascending ``times`` that a window of
        ``site`` matching ``target`` covers, else ``len(times)``. Pure:
        the :meth:`active` call at that time still logs the activation
        (both read :func:`_window`).
        """
        k = len(times)
        for _, spec in self._by_site.get(site, ()):
            window = _window(spec, target)
            if window is not None:
                i = bisect.bisect_left(times, window[0])  # first at/after start
                if i < k and times[i] < window[1]:
                    k = i
        return k

    # ------------------------------------------------------ persistent loss

    def mark_device_lost(self, index: int) -> None:
        """Transition a board to the persistent lost state."""
        self._lost_devices.add(int(index))

    def device_lost(self, index: int) -> bool:
        """Whether a board is in the lost state."""
        return int(index) in self._lost_devices
