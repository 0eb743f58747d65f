"""Batched virtual-time advance for one SYnergy queue.

:func:`execute_batch` replays what a loop of per-event
``SynergyQueue.submit`` calls would do — target resolution, redundancy-
skipped clock switches with §4.4 overhead, throttled operating points,
serial execution on the device timeline — but computes the physics in
broadcasted NumPy passes over per-kernel operating-point tables
(:meth:`TimingModel.sweep` + :meth:`PowerModel.power`, memoized in the
keyed sweep cache) and commits the device/scaler/queue state in bulk.

Per batch, :func:`_decode` makes one Python pass over the submissions:
it resolves each request, carries the clocks forward and numbers the
``(kernel, memory clock)`` groups; the lists it builds become arrays
once. Everything after that is array passes, and a bulk commit makes
no object per kernel. A bulk segment's records are one
:class:`~repro.hw.records.RecordBlock` of the columns the commit
already holds as lists, and its events one
:class:`~repro.sycl.event.EventBlock` over that block; a row becomes a
frozen ``KernelExecutionRecord`` or a ``BlockEvent`` when someone first
reads it (the board's ``records[i]`` and the event's ``record`` are the
same object).

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

The batch commits in bulk segments split at each submission that must
run per event. :func:`_bulk_end` finds the next one as the earliest cut
of four rules, each reproducing the per-event path exactly:

- **GPU loss.** While ``nvml.gpu_lost`` is armed, every submission runs
  per event: NVML polls that site on every call (a redundant request's
  ``current_clocks`` read too), so only per-event order keeps its draws.
- **Restricted board.** Every switching submission runs per event: its
  clock-set raises the vendor error after the overhead charge, or
  succeeds with root.
- **Thermal-throttle window.** The first submission that starts inside
  a matching window (:meth:`FaultInjector.first_active`) runs per event,
  where ``FaultInjector.active`` logs the activation and caps the clock.
- **Clock-set fault.** Switch ``i``'s first attempt lands at
  ``start_i + OH``; :meth:`FaultInjector.quiet_prefix` finds the first
  that fires among the switches before the other rules' cut. It runs
  last because it consumes the draws of exactly the bulk calls.

A submission run per event goes through ``queue.submit`` with its
already-resolved clocks (retries, backoff and degrade included), and the
result takes what the board did. A degrade resets the board, so the
tail's clocks and switch mask are re-derived from the board state.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from repro.common.errors import ValidationError
from repro.core.sweepcache import core_table, resolve_cache
from repro.engine.batch import KernelBatch
from repro.hw.records import RecordBlock
from repro.metrics.targets import EnergyTarget
from repro.sycl.event import Event, EventBlock, EventLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.queue import SynergyQueue

#: Fault sites the per-event path polls outside the clock-set call: on
#: every NVML call, and at every kernel start.
GPU_LOST_SITE = "nvml.gpu_lost"
THROTTLE_SITE = "hw.thermal_throttle"


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batched submission, in struct-of-arrays form.

    ``core_mhz`` holds the *executed* (possibly throttled) core clocks;
    ``app_core_mhz``/``app_mem_mhz`` the application clocks in effect
    while each kernel ran. ``events`` holds the parts the queue's event
    log gained: one :class:`~repro.sycl.event.EventBlock` per bulk
    segment and the events of the submissions run per event, so
    ``len()`` builds nothing. ``fallback`` is always ``None``: no batch
    replays per event any more (the field stays for its existing readers).
    """

    events: EventLog
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
        events=EventLog(),
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


def _submit_one(queue: "SynergyQueue", kernel, clocks) -> Event:
    """One per-event ``SynergyQueue.submit`` at ``(mem_mhz, core_mhz)``,
    or with no clock request (no ``set_frequency`` call) for ``None``."""
    cgf = lambda h, k=kernel: h.parallel_for(k.work_items, k)  # noqa: E731
    if clocks is None:
        return queue.submit(cgf)
    return queue.submit(int(clocks[0]), int(clocks[1]), cgf)


def operating_table(gpu, kernel, mem_mhz: float):
    """Timing/power columns over the full core table at one memory clock.

    Returns read-only ``(time_s, u_core, u_mem, power_w)`` arrays aligned
    with ``spec.core_freqs_mhz``, memoized in the keyed sweep cache (one
    lookup per call). The columns depend only on the device *spec*
    (timing/power models are shared per spec), so the single-queue fast
    path and the multi-rank graph engine (:mod:`repro.engine.multirank`)
    share cache entries.
    """
    spec = gpu.spec

    def compute():
        table = core_table(spec).mhz_float
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
    return store.get_or_compute(store.engine_key(spec, kernel, mem_mhz), compute)


@dataclass
class _Decoded:
    """One pass over a batch's submissions, against a queue and board.

    ``resolved`` holds each submission's clock request — ``(mem_mhz,
    core_mhz)``, or ``None`` for a request-free submission that runs at
    whatever clocks are then in effect. ``mem_mhz``/``core_mhz`` are the
    effective application clocks, ``switches`` marks the submissions that
    change them, and submission ``i`` reads operating-point table
    ``group_of[i]``, one per distinct ``(kernel, memory clock)`` in
    ``members``, in first-use order.
    """

    resolved: list
    mem_mhz: np.ndarray
    core_mhz: np.ndarray
    switches: np.ndarray
    group_of: np.ndarray
    members: list


def _decode(queue: "SynergyQueue", kernels, requests) -> _Decoded:
    """Resolve, carry forward and group the submissions in one pass.

    ``requests`` holds :class:`KernelBatch` requests, or an earlier
    decode's ``resolved`` entries (which re-decode to themselves).
    Targets go through the queue's plan/predictor with the scalar path's
    counter semantics (``predict.plan_lookups`` per plan hit,
    ``predict.calls`` per predictor inference). Untraced, resolution is
    pure (deterministic per ``(kernel, target)``), so repeated pairs hit
    a memo; traced runs resolve per submission, for exact counter parity.
    A request-free submission inherits the queue clocks or, absent
    those, makes no request. The effective clocks replicate the scalar
    path exactly: a request-free submission runs at the previous
    submission's clocks (the board's at batch start), and a switch is a
    request that changes them (the redundancy skip of
    ``FrequencyScaler``). Everything comes out as lists, made arrays once.
    """
    gpu = queue.device.gpu
    traced = queue.trace.enabled
    inherit = queue._queue_clocks
    memo: dict[tuple[int, int], tuple[int, int]] = {}
    groups: dict[tuple[int, object], int] = {}
    members: list[tuple[object, object]] = []
    resolved: list = []
    mems: list = []
    cores: list = []
    group_of: list[int] = []
    add_resolved, add_mem, add_core, add_group = (
        resolved.append, mems.append, cores.append, group_of.append
    )
    first_mem, first_core = mem, core = gpu.mem_mhz, gpu.core_mhz
    for kernel, request in zip(kernels, requests):
        if request is None:
            clocks = inherit
        elif type(request) is tuple or not isinstance(request, EnergyTarget):
            clocks = request
        elif traced:
            clocks = queue._resolve_target(kernel, request)
        else:
            key = (id(kernel), id(request))
            clocks = memo.get(key)
            if clocks is None:
                clocks = memo[key] = queue._resolve_target(kernel, request)
        add_resolved(clocks)
        if clocks is not None:
            mem, core = clocks
        add_mem(mem)
        add_core(core)
        key = (id(kernel), mem)
        group = groups.get(key)
        if group is None:
            group = groups[key] = len(members)
            members.append((kernel, mem))
        add_group(group)
    mem_mhz = np.array(mems, dtype=int)
    core_mhz = np.array(cores, dtype=int)
    prev_mem = np.concatenate(([first_mem], mem_mhz[:-1]))
    prev_core = np.concatenate(([first_core], core_mhz[:-1]))
    switches = (mem_mhz != prev_mem) | (core_mhz != prev_core)
    return _Decoded(
        resolved, mem_mhz, core_mhz, switches, np.array(group_of), members
    )


def _core_index(spec, core_mhz: np.ndarray) -> np.ndarray:
    """Index of each core clock in ``spec.core_freqs_mhz``.

    The executor gathers timing/power columns with it; a clock missing
    from the table raises :class:`ValidationError`.
    """
    table = core_table(spec).mhz
    idx = np.clip(np.searchsorted(table, core_mhz), 0, len(table) - 1)
    if not np.array_equal(table[idx], core_mhz):
        bad = core_mhz[table[idx] != core_mhz]
        raise ValidationError(
            f"core clocks not in the device table: {sorted(set(bad.tolist()))}"
        )
    return idx


def _choose_operating_points(
    queue: "SynergyQueue", decoded: _Decoded, core_index: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Gather per-submission timing/power at the throttled operating point.

    Returns ``(exec_core_mhz, time_s, u_core, u_mem, power_w)`` arrays.
    Replicates ``SimulatedGPU._throttled_operating_point``: at the
    application clocks the kernel may exceed the board power limit; it
    then runs at the highest core clock at or below the application
    clock whose power fits, or the lowest table clock if nothing fits.
    """
    gpu = queue.device.gpu
    table = core_table(gpu.spec).mhz
    group_of = decoded.group_of
    tables = [operating_table(gpu, k, float(m)) for k, m in decoded.members]
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

    Derived once per batch from its :func:`_decode` and the clocks'
    device-table indices. The entries of a submission run per
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
        cls, queue: "SynergyQueue", decoded: _Decoded, core_index: np.ndarray
    ) -> "_Plan":
        return cls(
            decoded.mem_mhz, decoded.core_mhz, decoded.switches,
            *_choose_operating_points(queue, decoded, core_index),
        )

    def rederive_tail(
        self, queue: "SynergyQueue", kernels, resolved, lo: int
    ) -> None:
        """Recompute submissions ``lo:`` from the board's current clocks."""
        decoded = _decode(queue, kernels[lo:], resolved[lo:])
        new = _Plan.derive(
            queue, decoded, _core_index(queue.device.gpu.spec, decoded.core_mhz)
        )
        for f in fields(self):
            getattr(self, f.name)[lo:] = getattr(new, f.name)


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
    decoded = _decode(queue, batch.kernels, batch.requests)
    # Checked before the walk: a resolved clock off the table raises here.
    core_index = _core_index(gpu.spec, decoded.core_mhz)
    # Bulk-committed segments as ``(event block, switches)``: the
    # submissions run per event trace and count themselves.
    bulk: list[tuple[EventBlock, int]] = []
    if not tr.enabled:
        return _execute_segmented(queue, batch.kernels, decoded, core_index, bulk)
    try:
        with tr.span(
            gpu.clock, track, "engine.batch", f"batch[{n}]",
        ) as sp:
            result = _execute_segmented(queue, batch.kernels, decoded, core_index, bulk)
            sp.set(kernels=n, switches=result.n_switches, fallback=None)
        tr.count("engine.batches")
        tr.count("engine.batched_kernels", n)
    finally:
        # A batch that raises mid-walk still traces what it committed, as
        # the per-event path would have.
        _trace_bulk(queue, bulk)
    return result


def _trace_bulk(queue: "SynergyQueue", bulk) -> None:
    """The ``queue.kernel`` spans and counters of bulk-committed kernels."""
    tr = queue.trace
    # Tenancy tag, attached only when the queue has an owner (the service
    # plane) so ownerless golden traces stay byte-identical.
    extra = {} if queue.owner is None else {"owner": queue.owner}
    # Read from the record columns: tracing builds no event or record.
    for block, _ in bulk:
        names, cores, mems, starts, ends, energies, _ = block.records.stat_columns()
        for name, core, mem, t0, t1, energy in zip(
            names, cores, mems, starts, ends, energies
        ):
            tr.add_span(
                queue._track, "queue.kernel", name, t0, t1,
                core_mhz=core,
                mem_mhz=mem,
                energy_j=energy,
                degraded=False,
                **extra,
            )
            tr.observe("kernel.time_s", t1 - t0)
            tr.observe("kernel.energy_j", energy)
    tr.count("queue.kernels_executed", sum(len(block) for block, _ in bulk))
    switches = sum(count for _, count in bulk)
    if switches:
        tr.count("freq.switches", switches)


def _bulk_end(queue: "SynergyQueue", plan: _Plan, lo: int):
    """Where the bulk segment starting at submission ``lo`` ends.

    Returns ``(hi, clockline)``: submission ``hi`` is the first that must
    run per event (``len(plan.switches)`` when none must), the earliest
    cut of the four rules of the module docstring, and ``clockline`` is
    the virtual-time walk over ``lo:hi`` from the current time
    (``hi - lo + 1`` entries; ``None`` when ``hi == lo``).
    """
    gpu = queue.device.gpu
    scaler = queue.scaler
    injector = gpu.fault_injector
    now = gpu.clock.now
    throttled = injector is not None and injector.armed(THROTTLE_SITE)
    if (injector is not None and injector.armed(GPU_LOST_SITE)) or (
        throttled and injector.first_active(THROTTLE_SITE, gpu.index, (now,)) == 0
    ):
        # Checked before the walk, so a run of per-event submissions
        # costs O(1) each instead of a rescan of the tail.
        return lo, None
    hi = len(plan.switches)
    if gpu.api_restricted:
        # argmax stops at the first True; an all-False tail returns 0.
        k = int(plan.switches[lo:].argmax())
        if plan.switches[lo + k]:
            hi = lo + k
    # Virtual-time walk, in the scalar path's exact float order:
    # n_i = n_(i-1) + max(d_i, OH·switch_i), start_i = n_(i-1). cumsum
    # folds left-to-right, the same float order as the scalar
    # `clock.advance` walk; seeding with `now` keeps the origin in-fold.
    oh = scaler.switch_overhead_s
    seg = slice(lo, hi)
    step = np.where(
        plan.switches[seg], np.maximum(plan.time_s[seg], oh), plan.time_s[seg]
    )
    clockline = np.cumsum(np.concatenate(([now], step)))
    if throttled:
        hi = lo + injector.first_active(THROTTLE_SITE, gpu.index, clockline[:-1])
    site = scaler.backend.clock_set_site
    if site is not None and injector is not None and injector.armed(site):
        # Switch i's first clock-set attempt lands at start_i + OH.
        sw = np.flatnonzero(plan.switches[lo:hi])
        k = injector.quiet_prefix(site, gpu.index, clockline[sw] + oh)
        if k < sw.size:
            hi = lo + int(sw[k])
    return hi, clockline[: hi - lo + 1]


def _execute_segmented(
    queue: "SynergyQueue", kernels, decoded: _Decoded, core_index, bulk: list
) -> BatchResult:
    """Commit the batch in bulk segments, split where :func:`_bulk_end` cuts.

    ``decoded`` is the batch's :func:`_decode` and ``core_index`` its
    clocks' device-table indices. Each bulk segment's event block and
    switch count are appended to ``bulk`` as it commits.
    """
    gpu = queue.device.gpu
    scaler = queue.scaler
    n = len(kernels)
    resolved = decoded.resolved
    plan = _Plan.derive(queue, decoded, core_index)
    out = (np.empty(n), np.empty(n), np.empty(n))  # start_s, end_s, energy_j
    # Records and clock plan share one boxed int per distinct clock value,
    # and the clock plan one tuple per distinct (core, mem) pair.
    box: dict = {}
    switches_before = scaler.switch_count
    events = EventLog()
    # Submissions run per event, as (index, record, app core, app mem).
    stepped: list[tuple] = []
    lo = 0
    while lo < n:
        hi, clockline = _bulk_end(queue, plan, lo)
        if hi > lo:
            segment = _commit_segment(
                queue, kernels, plan, slice(lo, hi), clockline, out, box
            )
            events.append_block(segment[0])
            bulk.append(segment)
        if hi == n:
            break
        # Run submission `hi` per event with its resolved clocks and keep
        # what the board actually did.
        event = _submit_one(queue, kernels[hi], resolved[hi])
        events.append(event)
        stepped.append((hi, event.record, gpu.core_mhz, gpu.mem_mhz))
        lo = hi + 1
        if lo < n and event in queue._degraded_events:
            plan.rederive_tail(queue, kernels, resolved, lo)
    if stepped:
        # The walk never reads a stepped submission's entries again.
        idx, records, app_core, app_mem = (list(c) for c in zip(*stepped))
        for column, attr in zip(
            (*out, plan.power_w, plan.exec_core),
            ("start_s", "end_s", "energy_j", "avg_power_w", "core_mhz"),
        ):
            column[idx] = [getattr(r, attr) for r in records]
        plan.core_mhz[idx], plan.mem_mhz[idx] = app_core, app_mem
    start_s, end_s, energy_j = out
    return BatchResult(
        events=events,
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


def _commit_segment(
    queue: "SynergyQueue",
    kernels,
    plan: _Plan,
    seg: slice,
    clockline: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
    box: dict,
) -> tuple[EventBlock, int]:
    """Bulk commit of submissions ``seg``: clock plan, scaler charges,
    power timeline, clock advance, records and events.

    ``clockline`` is the segment's virtual-time walk, starting at the
    current time; the segment's start/end times and energies land in
    ``out``. Returns the segment's event block and switch count.
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
    cores = _interned(plan.exec_core[seg].tolist(), box)
    mems = _interned(plan.mem_mhz[seg].tolist(), box)
    switch_idx = np.flatnonzero(plan.switches[seg])
    if switch_idx.size:
        app_cores = _interned(plan.core_mhz[seg][switch_idx].tolist(), box)
        gpu.apply_clock_plan(
            (start_s[switch_idx] + scaler.switch_overhead_s).tolist(),
            _interned(
                list(zip(app_cores, [mems[i] for i in switch_idx.tolist()])), box
            ),
        )
        scaler.charge_batched(int(switch_idx.size))
    gpu.extend_power_timeline(starts, ends, powers)
    final = float(clockline[-1])
    if final > gpu.clock.now:
        gpu.clock.advance_to(final)

    # The records stay columns until someone reads them: the block holds
    # the lists built above, and each row becomes a frozen
    # KernelExecutionRecord on first read (``gpu.records[i]`` or
    # ``event.record``, the same object). The events stay a block too,
    # checked in one array pass; nothing here is made per kernel.
    block = RecordBlock(
        kernels[seg], gpu.spec.name, cores, mems, starts, ends,
        energy_j.tolist(), powers, plan.u_core[seg].tolist(),
        plan.u_mem[seg].tolist(),
    )
    gpu.records.append_block(block)
    events = EventBlock(gpu, block, starts, ends)
    queue._absorb_block(events)
    return events, int(switch_idx.size)


def _interned(items: list, box: dict) -> list:
    """``items`` with every distinct value (an int or a clock pair) boxed
    once per batch, via ``box``."""
    return list(map(box.setdefault, items, items))
