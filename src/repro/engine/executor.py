"""Batched virtual-time advance for one SYnergy queue.

:func:`execute_batch` replays what a loop of per-event
``SynergyQueue.submit`` calls would do — target resolution, redundancy-
skipped clock switches with §4.4 overhead, throttled operating points,
serial execution on the device timeline — but computes the physics in
broadcasted NumPy passes over per-kernel operating-point tables
(:meth:`TimingModel.sweep` + :meth:`PowerModel.power`, memoized in the
keyed sweep cache) and commits the device/scaler/queue state in bulk.

Exactness contract (checked by ``repro-synergy validate --only engine``):

- resolved clock plans, switch decisions and throttled operating points
  are *identical* to the scalar path,
- times and energies agree within rel 1e-12 (the vectorized sweep and
  the scalar ``execute`` differ by ~1 ulp in ``pow``),
- counter aggregates (kernels executed, switches, plan lookups) match.

The timeline recurrence is evaluated in the exact float order of the
scalar path: with ``n_i`` the virtual time after submission ``i``,
``start_i = n_(i-1)`` and ``n_i = n_(i-1) + max(d_i, OH·switch_i)``
(float ``a + max(b, c)`` equals ``max(a+b, a+c)`` bitwise by
monotonicity), so one ``cumsum`` reproduces the scalar clock walk.

Faults split a batch instead of sending it back to the per-event path.
The only fault site polled here is the backend's clock-set call
(``nvml.set_clocks``), once per attempt, and the first attempt of
switch ``i`` lands at ``clockline[i] + OH``, which is known before
anything commits. :meth:`FaultInjector.quiet_prefix` finds the first
clock-set that fires; the batch commits in bulk up to that submission,
runs that one submission per event (retries, backoff and degrade
included) with its already-resolved clocks, and continues with the
tail. A retried switch that succeeds leaves the board where the plan put
it; a degrade resets the board, so the tail's effective clocks and
switch mask are re-derived from the board state.

Two cases still replay the whole batch per event, which *is* the
reference semantics (``BatchResult.fallback`` names them): a clock
switch on an API-restricted board, and an armed ``nvml.gpu_lost`` or
``hw.thermal_throttle`` site, which the per-event path polls on every
NVML call or every kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from repro.common.errors import ValidationError
from repro.engine.batch import KernelBatch, resolve_effective_clocks
from repro.hw.device import KernelExecutionRecord
from repro.metrics.targets import EnergyTarget
from repro.sycl.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.queue import SynergyQueue

#: Fault sites the per-event path polls outside the clock-set call (on
#: every NVML call, on every kernel): while one is armed, a batch replays
#: per event.
PER_EVENT_FAULT_SITES: tuple[str, ...] = ("nvml.gpu_lost", "hw.thermal_throttle")


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batched submission, in struct-of-arrays form.

    ``core_mhz`` holds the *executed* (possibly throttled) core clocks;
    ``app_core_mhz``/``app_mem_mhz`` the application clocks in effect
    while each kernel ran. ``fallback`` is ``None`` when the batch took
    the vectorized path, including a batch split at failing clock-sets;
    otherwise it names why the batch replayed per event: ``"restricted"``
    or the armed fault site (``"nvml.gpu_lost"``, ``"hw.thermal_throttle"``).
    """

    events: tuple[Event, ...]
    start_s: np.ndarray
    end_s: np.ndarray
    time_s: np.ndarray
    energy_j: np.ndarray
    avg_power_w: np.ndarray
    core_mhz: np.ndarray
    mem_mhz: np.ndarray
    app_core_mhz: np.ndarray
    app_mem_mhz: np.ndarray
    n_switches: int = 0
    fallback: str | None = None

    def __post_init__(self) -> None:
        for arr in (
            self.start_s, self.end_s, self.time_s, self.energy_j,
            self.avg_power_w, self.core_mhz, self.mem_mhz,
            self.app_core_mhz, self.app_mem_mhz,
        ):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.events)

    def summary(self) -> dict[str, float]:
        """Aggregate totals over the batch."""
        return {
            "kernels": float(len(self.events)),
            "kernel_time_s": float(np.sum(self.time_s)),
            "kernel_energy_j": float(np.sum(self.energy_j)),
            "clock_switches": float(self.n_switches),
        }


def _empty_result() -> BatchResult:
    z = np.zeros(0)
    return BatchResult(
        events=(),
        start_s=z,
        end_s=np.zeros(0),
        time_s=np.zeros(0),
        energy_j=np.zeros(0),
        avg_power_w=np.zeros(0),
        core_mhz=np.zeros(0, dtype=int),
        mem_mhz=np.zeros(0, dtype=int),
        app_core_mhz=np.zeros(0, dtype=int),
        app_mem_mhz=np.zeros(0, dtype=int),
    )


def _submit_one(queue: "SynergyQueue", kernel, request) -> Event:
    """One per-event ``SynergyQueue.submit`` in the request's own form."""
    cgf = lambda h, k=kernel: h.parallel_for(k.work_items, k)  # noqa: E731
    if isinstance(request, EnergyTarget):
        return queue.submit(request, cgf)
    if isinstance(request, tuple):
        return queue.submit(request[0], request[1], cgf)
    return queue.submit(cgf)


def _fallback_scalar(
    queue: "SynergyQueue", batch: KernelBatch, reason: str
) -> BatchResult:
    """Replay the batch through the per-event reference path."""
    gpu = queue.device.gpu
    switches_before = queue.scaler.switch_count
    events: list[Event] = []
    app_clocks: list[tuple[int, int]] = []
    for kernel, request in zip(batch.kernels, batch.requests):
        events.append(_submit_one(queue, kernel, request))
        # Clocks change only in ``_pre_kernel``: what the board holds now
        # is what the kernel ran under.
        app_clocks.append((gpu.core_mhz, gpu.mem_mhz))
    records = [e.record for e in events]
    app = np.asarray(app_clocks, dtype=int)
    return BatchResult(
        events=tuple(events),
        start_s=np.asarray([r.start_s for r in records], dtype=float),
        end_s=np.asarray([r.end_s for r in records], dtype=float),
        time_s=np.asarray([r.time_s for r in records], dtype=float),
        energy_j=np.asarray([r.energy_j for r in records], dtype=float),
        avg_power_w=np.asarray([r.avg_power_w for r in records], dtype=float),
        core_mhz=np.asarray([r.core_mhz for r in records], dtype=int),
        mem_mhz=np.asarray([r.mem_mhz for r in records], dtype=int),
        app_core_mhz=app[:, 0].copy(),
        app_mem_mhz=app[:, 1].copy(),
        n_switches=queue.scaler.switch_count - switches_before,
        fallback=reason,
    )


def operating_table(gpu, kernel, mem_mhz: float):
    """Timing/power columns over the full core table at one memory clock.

    Returns read-only ``(time_s, u_core, u_mem, power_w)`` arrays aligned
    with ``spec.core_freqs_mhz``, memoized in the keyed sweep cache. The
    columns depend only on the device *spec* (timing/power models are
    shared per spec), so the single-queue fast path and the multi-rank
    graph engine (:mod:`repro.engine.multirank`) share cache entries.
    """
    from repro.core.sweepcache import resolve_cache

    spec = gpu.spec
    table = np.asarray(spec.core_freqs_mhz, dtype=float)

    def compute():
        timing = gpu.timing_model.sweep(kernel, table, float(mem_mhz))
        power = np.asarray(
            gpu.power_model.power(
                table,
                float(mem_mhz),
                timing.core_power_utilization,
                timing.u_mem,
            ),
            dtype=float,
        )
        return (timing.time_s, timing.u_core, timing.u_mem, power)

    store = resolve_cache(None)
    if store is None:
        value = compute()
        for arr in value:
            arr.setflags(write=False)
        return value
    return store.get_or_compute(store.engine_key(spec, kernel, table, mem_mhz), compute)


def _resolve_requests(queue: "SynergyQueue", batch: KernelBatch):
    """Per-submission clock resolution, matching the scalar path's calls.

    Targets go through the queue's plan/predictor with the same counter
    semantics (``predict.plan_lookups`` per plan hit, ``predict.calls``
    per predictor inference); request-free submissions inherit the queue
    clocks or, absent those, the running board clocks (``None`` here).
    """
    resolved: list[tuple[int, int] | None] = []
    traced = queue.trace.enabled
    # Untraced, target resolution is pure (plan/predictor lookups are
    # deterministic per (kernel, target)), so repeated pairs hit a memo.
    # Traced runs keep the per-submission calls for exact counter parity
    # with the scalar path (one ``predict.plan_lookups`` per submission).
    memo: dict[tuple[int, int], tuple[int, int]] = {}
    inherit = queue._queue_clocks
    for kernel, request in zip(batch.kernels, batch.requests):
        if isinstance(request, EnergyTarget):
            if traced:
                resolved.append(queue._resolve_target(kernel, request))
            else:
                key = (id(kernel), id(request))
                clocks = memo.get(key)
                if clocks is None:
                    clocks = queue._resolve_target(kernel, request)
                    memo[key] = clocks
                resolved.append(clocks)
        elif isinstance(request, tuple):
            resolved.append(request)
        else:
            resolved.append(inherit)
    return resolved


def _core_index(spec, core_mhz: np.ndarray) -> np.ndarray:
    """Index of each core clock in ``spec.core_freqs_mhz``.

    The executor gathers timing/power columns with it; a clock missing
    from the table raises :class:`ValidationError`.
    """
    table = np.asarray(spec.core_freqs_mhz, dtype=int)
    idx = np.clip(np.searchsorted(table, core_mhz), 0, len(table) - 1)
    if not np.array_equal(table[idx], core_mhz):
        bad = core_mhz[table[idx] != core_mhz]
        raise ValidationError(
            f"core clocks not in the device table: {sorted(set(bad.tolist()))}"
        )
    return idx


def _choose_operating_points(
    queue: "SynergyQueue", kernels, mem_mhz: np.ndarray, core_index: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Gather per-submission timing/power at the throttled operating point.

    Returns ``(exec_core_mhz, time_s, u_core, u_mem, power_w)`` arrays.
    Replicates ``SimulatedGPU._throttled_operating_point``: at the
    application clocks the kernel may exceed the board power limit; it
    then runs at the highest core clock at or below the application
    clock whose power fits, or the lowest table clock if nothing fits.
    """
    gpu = queue.device.gpu
    spec = gpu.spec
    table = np.asarray(spec.core_freqs_mhz, dtype=int)
    groups: dict[tuple[int, int], int] = {}
    members: list[tuple[object, int]] = []
    group_ids: list[int] = []
    for kernel, mem in zip(kernels, mem_mhz.tolist()):
        key = (id(kernel), mem)
        idx = groups.get(key)
        if idx is None:
            idx = len(members)
            groups[key] = idx
            members.append((kernel, mem))
        group_ids.append(idx)
    group_of = np.asarray(group_ids, dtype=int)
    tables = [operating_table(gpu, k, float(m)) for k, m in members]
    time_mat = np.stack([t[0] for t in tables])
    u_core_mat = np.stack([t[1] for t in tables])
    u_mem_mat = np.stack([t[2] for t in tables])
    power_mat = np.stack([t[3] for t in tables])

    req_idx = core_index
    if gpu.power_limit_w >= gpu.default_power_limit_w:
        # Unconstrained board: modeled power is strictly below the peak
        # at every operating point, so throttling never engages.
        chosen = req_idx
    else:
        ok = power_mat <= gpu.power_limit_w
        ranked = np.where(ok, np.arange(len(table))[None, :], -1)
        best_upto = np.maximum.accumulate(ranked, axis=1)
        chosen = best_upto[group_of, req_idx]
        chosen = np.where(chosen >= 0, chosen, 0)
    return (
        table[chosen],
        time_mat[group_of, chosen],
        u_core_mat[group_of, chosen],
        u_mem_mat[group_of, chosen],
        power_mat[group_of, chosen],
    )


@dataclass
class _Plan:
    """Per-submission clocks and operating points of one batch.

    Resolved once per batch from :func:`resolve_effective_clocks`' arrays
    and their device-table indices. The entries of a submission run per
    event are overwritten with what the board did; after a degrade the
    tail is re-derived from the board state (:meth:`rederive_tail`).
    """

    #: Effective application clocks (int MHz).
    mem_mhz: np.ndarray
    core_mhz: np.ndarray
    #: True where the submission changes the board clocks.
    switches: np.ndarray
    #: Throttled operating point: executed core clock, timing and power.
    exec_core: np.ndarray
    time_s: np.ndarray
    u_core: np.ndarray
    u_mem: np.ndarray
    power_w: np.ndarray

    @classmethod
    def derive(
        cls, queue: "SynergyQueue", kernels, mem_mhz, core_mhz, switches, core_index
    ) -> "_Plan":
        return cls(
            mem_mhz, core_mhz, switches,
            *_choose_operating_points(queue, kernels, mem_mhz, core_index),
        )

    def rederive_tail(
        self, queue: "SynergyQueue", kernels, resolved, lo: int
    ) -> None:
        """Recompute submissions ``lo:`` from the board's current clocks."""
        gpu = queue.device.gpu
        mem_mhz, core_mhz, switches = resolve_effective_clocks(
            resolved[lo:], (gpu.core_mhz, gpu.mem_mhz)
        )
        new = _Plan.derive(
            queue, kernels[lo:], mem_mhz, core_mhz, switches,
            _core_index(gpu.spec, core_mhz),
        )
        for f in fields(self):
            getattr(self, f.name)[lo:] = getattr(new, f.name)


def _fallback_reason(queue: "SynergyQueue") -> str | None:
    """The armed per-event fault site, or ``None`` for the fast path."""
    injector = queue.device.gpu.fault_injector
    if injector is not None:
        for site in PER_EVENT_FAULT_SITES:
            if injector.armed(site):
                return site
    return None


def execute_batch(queue: "SynergyQueue", batch: KernelBatch) -> BatchResult:
    """Advance one queue through a whole batch of kernel submissions."""
    gpu = queue.device.gpu
    tr = queue.trace
    track = queue._track
    n = len(batch)
    if n == 0:
        # Zero-kernel batches are no-ops but still leave a well-formed,
        # empty trace span so downstream tooling sees the submission.
        if tr.enabled:
            now = gpu.clock.now
            tr.add_span(
                track, "engine.batch", "batch[0]", now, now,
                kernels=0, switches=0, fallback=None,
            )
            tr.count("engine.batches")
        return _empty_result()

    batch.validate_explicit_clocks(gpu.spec)
    reason = _fallback_reason(queue)
    if reason is not None:
        return _traced_fallback(queue, batch, reason)

    resolved = _resolve_requests(queue, batch)
    mem_mhz, core_mhz, switches = resolve_effective_clocks(
        resolved, (gpu.core_mhz, gpu.mem_mhz)
    )
    if gpu.api_restricted and switches.any():
        # A clock change on a restricted board must fail exactly like the
        # per-event path (vendor error after the overhead charge); replay
        # scalar rather than emulating each vendor's failure shape.
        return _traced_fallback(queue, batch, "restricted")
    clocks = (mem_mhz, core_mhz, switches, _core_index(gpu.spec, core_mhz))

    if not tr.enabled:
        return _execute_segmented(queue, batch.kernels, resolved, clocks)[0]
    with tr.span(
        gpu.clock, track, "engine.batch", f"batch[{n}]",
    ) as sp:
        result, fast_events, fast_switches = _execute_segmented(
            queue, batch.kernels, resolved, clocks
        )
        sp.set(kernels=n, switches=result.n_switches, fallback=None)
    tr.count("engine.batches")
    tr.count("engine.batched_kernels", n)
    # Tenancy tag, attached only when the queue has an owner (the service
    # plane) so ownerless golden traces stay byte-identical.
    extra = {} if queue.owner is None else {"owner": queue.owner}
    # Submissions split out to the per-event path traced themselves.
    for event in fast_events:
        record = event.record
        tr.add_span(
            track, "queue.kernel", record.kernel_name,
            event.start_s, event.end_s,
            core_mhz=record.core_mhz,
            mem_mhz=record.mem_mhz,
            energy_j=record.energy_j,
            degraded=False,
            **extra,
        )
        tr.observe("kernel.time_s", record.time_s)
        tr.observe("kernel.energy_j", record.energy_j)
    tr.count("queue.kernels_executed", len(fast_events))
    if fast_switches:
        tr.count("freq.switches", fast_switches)
    return result


def _traced_fallback(
    queue: "SynergyQueue", batch: KernelBatch, reason: str
) -> BatchResult:
    tr = queue.trace
    if not tr.enabled:
        result = _fallback_scalar(queue, batch, reason)
    else:
        with tr.span(
            queue.device.gpu.clock, queue._track, "engine.batch",
            f"batch[{len(batch)}]",
        ) as sp:
            result = _fallback_scalar(queue, batch, reason)
            sp.set(kernels=len(batch), switches=result.n_switches, fallback=reason)
        tr.count("engine.batches")
        tr.count("engine.fallbacks")
    return result


def _execute_segmented(
    queue: "SynergyQueue", kernels, resolved, clocks
) -> tuple[BatchResult, list[Event], int]:
    """Commit the batch in bulk segments split at failing clock-sets.

    ``clocks`` holds the batch's effective ``(mem_mhz, core_mhz,
    switches, core_index)`` arrays. Returns ``(result, fast_events, fast_switches)``: the batch result,
    the events committed in bulk, and the switches charged in bulk (the
    submissions run per event trace and count their own).
    """
    gpu = queue.device.gpu
    scaler = queue.scaler
    oh = scaler.switch_overhead_s
    injector = gpu.fault_injector
    site = scaler.backend.clock_set_site
    if site is None or injector is None or not injector.armed(site):
        injector = None
    n = len(kernels)
    plan = _Plan.derive(queue, kernels, *clocks)
    out = (np.empty(n), np.empty(n), np.empty(n))  # start_s, end_s, energy_j
    # Records and clock plan share one boxed int per distinct clock value.
    box: dict[int, int] = {}
    switches_before = scaler.switch_count
    events: list[Event] = []
    fast_events: list[Event] = []
    fast_switches = 0
    lo = 0
    while lo < n:
        # Virtual-time walk of the tail, in the scalar path's exact float
        # order: n_i = n_(i-1) + max(d_i, OH·switch_i), start_i = n_(i-1).
        # cumsum folds left-to-right, the same float order as the scalar
        # `clock.advance` walk; seeding with `now` keeps the origin in-fold.
        tail = slice(lo, n)
        step = np.where(
            plan.switches[tail], np.maximum(plan.time_s[tail], oh), plan.time_s[tail]
        )
        clockline = np.cumsum(np.concatenate(([gpu.clock.now], step)))
        hi = n
        if injector is not None:
            # Switch i's first clock-set attempt lands at start_i + OH.
            sw = np.flatnonzero(plan.switches[tail])
            k = injector.quiet_prefix(site, gpu.index, clockline[sw] + oh)
            if k < sw.size:
                hi = lo + int(sw[k])
        if hi > lo:
            seg_events, seg_switches = _commit_segment(
                queue, kernels, plan, slice(lo, hi), clockline[: hi - lo + 1],
                out, box,
            )
            events.extend(seg_events)
            fast_events.extend(seg_events)
            fast_switches += seg_switches
        if hi == n:
            break
        # The clock-set of submission `hi` fails: run it per event with
        # its resolved clocks, then record what the board actually did.
        event = _submit_one(
            queue, kernels[hi], (int(plan.mem_mhz[hi]), int(plan.core_mhz[hi]))
        )
        record = event.record
        events.append(event)
        out[0][hi], out[1][hi] = record.start_s, record.end_s
        out[2][hi] = record.energy_j
        plan.power_w[hi] = record.avg_power_w
        plan.exec_core[hi] = record.core_mhz
        plan.core_mhz[hi], plan.mem_mhz[hi] = gpu.core_mhz, gpu.mem_mhz
        lo = hi + 1
        if scaler.last_degraded and lo < n:
            plan.rederive_tail(queue, kernels, resolved, lo)
    start_s, end_s, energy_j = out
    result = BatchResult(
        events=tuple(events),
        start_s=start_s,
        end_s=end_s,
        time_s=end_s - start_s,
        energy_j=energy_j,
        avg_power_w=plan.power_w,
        core_mhz=plan.exec_core,
        mem_mhz=plan.mem_mhz.copy(),
        app_core_mhz=plan.core_mhz,
        app_mem_mhz=plan.mem_mhz,
        n_switches=scaler.switch_count - switches_before,
    )
    return result, fast_events, fast_switches


def _commit_segment(
    queue: "SynergyQueue",
    kernels,
    plan: _Plan,
    seg: slice,
    clockline: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
    box: dict[int, int],
) -> tuple[list[Event], int]:
    """Bulk commit of submissions ``seg``: clock plan, scaler charges,
    power timeline, clock advance, records and events.

    ``clockline`` is the segment's virtual-time walk, starting at the
    current time; the segment's start/end times and energies land in
    ``out``. Returns the segment's events and switch count.
    """
    gpu = queue.device.gpu
    scaler = queue.scaler
    start_s = clockline[:-1]
    time_s = plan.time_s[seg]
    end_s = start_s + time_s
    power_w = plan.power_w[seg]
    energy_j = power_w * time_s
    out[0][seg], out[1][seg], out[2][seg] = start_s, end_s, energy_j

    # Box every value once: the records, the power timeline and the
    # clock plan share the same Python floats and ints.
    starts, ends, powers = start_s.tolist(), end_s.tolist(), power_w.tolist()
    cores = _interned(plan.exec_core[seg], box)
    mems = _interned(plan.mem_mhz[seg], box)
    switch_idx = np.flatnonzero(plan.switches[seg])
    if switch_idx.size:
        gpu.apply_clock_plan(
            (start_s[switch_idx] + scaler.switch_overhead_s).tolist(),
            list(
                zip(
                    _interned(plan.core_mhz[seg][switch_idx], box),
                    [mems[i] for i in switch_idx.tolist()],
                )
            ),
        )
        scaler.charge_batched(int(switch_idx.size))
    gpu.extend_power_timeline(starts, ends, powers)
    final = float(clockline[-1])
    if final > gpu.clock.now:
        gpu.clock.advance_to(final)

    # Bulk ndarray→Python conversion (``tolist`` converts in C) feeding
    # positional dataclass construction: this loop is the remaining
    # per-kernel Python cost of the fast path, so it stays lean.
    device_name = gpu.spec.name
    records = [
        KernelExecutionRecord(
            kernel.name, device_name, core, mem, t0, t1, e, p, uc, um
        )
        for kernel, core, mem, t0, t1, e, p, uc, um in zip(
            kernels[seg],
            cores,
            mems,
            starts,
            ends,
            energy_j.tolist(),
            powers,
            plan.u_core[seg].tolist(),
            plan.u_mem[seg].tolist(),
        )
    ]
    gpu.records.extend(records)
    events = [
        Event(gpu, record.start_s, record.start_s, record.end_s, record)
        for record in records
    ]
    queue._absorb_events(events)
    return events, int(switch_idx.size)


def _interned(values: np.ndarray, box: dict[int, int]) -> list[int]:
    """``values.tolist()`` with every distinct int boxed once, via ``box``."""
    items = values.tolist()
    return list(map(box.setdefault, items, items))
