"""SYCL queue.

Command groups submitted to a :class:`Queue` execute on the queue's device in
virtual time. Execution is eager (the simulated timeline is computed at
submit), but SYCL's asynchronous semantics are preserved: start times honour
buffer dependencies and device serialization, and callers still ``wait()`` on
events before reading results, exactly as in Listing 1 of the paper.

Subclasses (the SYnergy queue) hook :meth:`_pre_kernel` /
:meth:`_post_kernel` to apply per-kernel frequency changes and profiling.
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import ValidationError
from repro.sycl.accessor import AccessMode
from repro.sycl.device import SyclDevice, select_device
from repro.sycl.event import Event, EventBlock, EventLog
from repro.sycl.handler import Handler
from repro.kernelir.kernel import KernelIR

#: A SYCL command-group function: receives the handler, returns nothing.
CommandGroupFn = Callable[[Handler], None]


class Queue:
    """An in-order-completion SYCL queue bound to one device."""

    def __init__(self, selector: object | None = None) -> None:
        self.device: SyclDevice = select_device(selector)
        self._events = EventLog()

    @property
    def gpu(self):
        """The simulated GPU behind this queue."""
        return self.device.gpu

    def submit(self, cgf: CommandGroupFn) -> Event:
        """Submit a command group; returns its completion event."""
        handler = Handler()
        cgf(handler)
        if handler.kernel is None:
            raise ValidationError("command group did not call parallel_for")
        return self._launch(handler)

    def parallel_for(self, size: int | tuple[int, ...], kernel: KernelIR) -> Event:
        """Shortcut submission without an explicit command group."""
        return self.submit(lambda h: h.parallel_for(size, kernel))

    def memcpy(self, dst: "Buffer", src) -> Event:
        """Copy host data into a buffer (SYCL ``queue::memcpy``).

        Models the host→device transfer over the PCIe-class link and
        performs the actual host-side copy. ``src`` may be an array-like
        of the buffer's shape or another :class:`Buffer`.
        """
        import numpy as np

        from repro.sycl.buffer import Buffer as _Buffer

        src_buf = src if isinstance(src, _Buffer) else None
        data = src_buf.data if src_buf is not None else np.asarray(src)
        if data.shape != dst.shape:
            raise ValidationError(
                f"memcpy shape mismatch: {data.shape} vs {dst.shape}"
            )
        return self._transfer(
            dst, lambda: np.copyto(dst.data, data), src=src_buf
        )

    def fill(self, dst: "Buffer", value) -> Event:
        """Fill a buffer with one value (SYCL ``queue::fill``)."""
        return self._transfer(dst, lambda: dst.data.fill(value))

    def update_host(self, buf: "Buffer") -> Event:
        """Make device results visible on the host (device→host transfer).

        Host arrays are always coherent in the simulation; only the
        transfer's time/energy is modeled.
        """
        return self._transfer(buf, lambda: None)

    def _transfer(self, buf: "Buffer", apply, src: "Buffer | None" = None) -> Event:
        gpu = self.device.gpu
        submit_time = gpu.clock.now
        ready = submit_time
        for dep in buf.dependencies(writing=True):
            ready = max(ready, dep.end_s)
        if src is not None:
            # A buffer-sourced copy reads ``src``: it must wait for the
            # source's pending writer (RAW) and be visible as a reader so a
            # later write to ``src`` orders behind the copy (WAR).
            for dep in src.dependencies(writing=False):
                ready = max(ready, dep.end_s)
        record = gpu.transfer(buf.data.nbytes, submit_time=ready)
        event = Event(
            device=gpu,
            submit_s=submit_time,
            start_s=record.start_s,
            end_s=record.end_s,
            record=record,
        )
        buf.mark_write(event)
        if src is not None:
            src.mark_read(event)
        apply()
        self._events.append(event)
        return event

    def wait(self) -> None:
        """Block (in virtual time) until every submitted command completes."""
        gpu = self.device.gpu
        if gpu.clock.now < gpu.busy_until:
            gpu.clock.advance_to(gpu.busy_until)

    def wait_and_throw(self) -> None:
        """SYCL spelling of :meth:`wait`."""
        self.wait()

    @property
    def events(self) -> EventLog:
        """All events produced by this queue, in submission order.

        A live, read-only view: it grows as the queue runs, and reading
        a window (``events[n0:]``) builds only the events inside it.
        """
        return self._events

    def _absorb_block(self, block: EventBlock) -> None:
        """Adopt the events of one bulk commit (batched engine).

        The batched executor computes whole submission runs out-of-line
        and hands the finished run back here so ``events`` /
        ``kernel_stats`` keep their submission-order contract.
        """
        self._events.append_block(block)

    # ------------------------------------------------------------ internals

    def _launch(self, handler: Handler) -> Event:
        gpu = self.device.gpu
        kernel = handler.kernel
        assert kernel is not None
        submit_time = gpu.clock.now

        # Earliest start: after every dependency event and the device queue.
        ready = submit_time
        for acc in handler.accessors:
            for dep in acc.buffer.dependencies(writing=acc.mode.writes):
                ready = max(ready, dep.end_s)

        self._pre_kernel(kernel)
        record = gpu.execute(kernel, submit_time=ready)
        event = Event(
            device=gpu,
            submit_s=submit_time,
            start_s=record.start_s,
            end_s=record.end_s,
            record=record,
        )
        for acc in handler.accessors:
            if acc.mode.writes:
                acc.buffer.mark_write(event)
            if acc.mode in (AccessMode.READ, AccessMode.READ_WRITE):
                acc.buffer.mark_read(event)

        if kernel.host_fn is not None:
            kernel.host_fn(handler.accessor_views())

        self._post_kernel(kernel, event)
        self._events.append(event)
        return event

    def _pre_kernel(self, kernel: KernelIR) -> None:
        """Hook invoked just before a kernel starts (frequency scaling)."""

    def _post_kernel(self, kernel: KernelIR, event: Event) -> None:
        """Hook invoked after a kernel's timeline is known (profiling)."""
