"""Columnar kernel batches.

:class:`KernelBatch` holds one queue's worth of kernel submissions as
columns: the distinct kernels and energy targets, and per submission an
int code into each plus an explicit clock pair. The executor decodes
the columns against a queue (:func:`repro.engine.executor.execute_batch`)
in array passes.

Request forms mirror :meth:`repro.core.queue.SynergyQueue.submit`:

- a bare :class:`~repro.kernelir.kernel.KernelIR` (queue clocks or
  driver defaults apply): ``target_code`` :data:`NO_REQUEST`,
- ``(EnergyTarget, kernel)`` — resolved through the plan/predictor:
  ``target_code`` indexes ``targets``,
- ``(mem_mhz, core_mhz, kernel)`` — explicit clocks, validated at
  assembly time: ``target_code`` :data:`EXPLICIT`, the pair in
  ``mem_mhz``/``core_mhz``.

:meth:`KernelBatch.from_requests` is the one adapter for submit-style
items and the only walk over them; producers that already hold the
kernels per submission (the service shards) build the columns directly
with :meth:`KernelBatch.of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.hw.specs import GPUSpec
from repro.kernelir.kernel import KernelIR
from repro.metrics.targets import EnergyTarget


#: What a batch item may be; both constructors name it in their errors.
_ITEM_FORMS = (
    "batch items must be KernelIR, (EnergyTarget, KernelIR) "
    "or (mem_mhz, core_mhz, KernelIR)"
)

#: ``target_code`` of a submission without a clock request.
NO_REQUEST = -1
#: ``target_code`` of a submission with an explicit ``(mem_mhz, core_mhz)``.
EXPLICIT = -2


def _int_column(name: str, values, n: int) -> np.ndarray:
    """``values`` as a read-only int64 copy of length ``n``: a batch never
    freezes or shares its caller's array."""
    column = np.asarray(values)
    if column.size == 0 and n == 0:
        column = np.zeros(0, dtype=np.int64)
    if column.ndim != 1 or column.dtype.kind not in "iu":
        raise ValidationError(
            f"{_ITEM_FORMS}; got {name} of dtype {column.dtype} "
            f"and shape {column.shape}"
        )
    if len(column) != n:
        raise ValidationError(
            f"{name} length mismatch ({len(column)} vs {n} submissions)"
        )
    column = column.astype(np.int64)
    column.setflags(write=False)
    return column


def _check_members(kernels: Iterable, targets: Iterable) -> None:
    """Reject a distinct kernel that is not a :class:`KernelIR`, or a
    distinct target that is not an :class:`EnergyTarget`."""
    for kernel in kernels:
        if not isinstance(kernel, KernelIR):
            raise ValidationError(f"{_ITEM_FORMS}; got kernel {kernel!r}")
    for target in targets:
        if not isinstance(target, EnergyTarget):
            raise ValidationError(f"{_ITEM_FORMS}; got request {target!r}")


@dataclass(frozen=True, eq=False)
class KernelBatch:
    """A batch of kernel submissions as columns.

    Submission ``i`` runs ``kernels[kernel_code[i]]``; its request is
    ``targets[target_code[i]]``, nothing (:data:`NO_REQUEST`) or the
    explicit pair ``(mem_mhz[i], core_mhz[i])`` (:data:`EXPLICIT`; the
    pair columns hold 0 elsewhere). Construction checks the columns in
    array passes and every distinct kernel and target once, so a batch
    built directly fails on the same requests :meth:`from_requests`
    rejects.
    """

    kernels: tuple[KernelIR, ...]
    kernel_code: np.ndarray
    targets: tuple[EnergyTarget, ...]
    target_code: np.ndarray
    mem_mhz: np.ndarray
    core_mhz: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.kernel_code)
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "targets", tuple(self.targets))
        for name in ("kernel_code", "target_code", "mem_mhz", "core_mhz"):
            object.__setattr__(
                self, name, _int_column(name, getattr(self, name), n)
            )
        _check_members(self.kernels, self.targets)
        # Viewed as unsigned, a negative code is out of range too.
        if n and not (
            self.kernel_code.view(np.uint64).max() < len(self.kernels)
            and (self.target_code - EXPLICIT).view(np.uint64).max()
            < len(self.targets) - EXPLICIT
        ):
            raise ValidationError(
                f"batch codes out of range ({len(self.kernels)} kernels, "
                f"{len(self.targets)} targets)"
            )

    def __len__(self) -> int:
        return len(self.kernel_code)

    @classmethod
    def of(
        cls, kernels: Sequence[KernelIR], target: EnergyTarget | None = None
    ) -> "KernelBatch":
        """One submission per entry of ``kernels``, all with request ``target``.

        ``None`` submits bare kernels. The distinct kernels are coded by
        identity, in first-use order.
        """
        distinct = {id(k): k for k in kernels}
        code_of = {key: code for code, key in enumerate(distinct)}
        n = len(kernels)
        zeros = np.zeros(n, dtype=np.int64)
        return cls(
            tuple(distinct.values()),
            np.fromiter(map(code_of.__getitem__, map(id, kernels)), np.int64, n),
            () if target is None else (target,),
            np.full(n, NO_REQUEST if target is None else 0),
            zeros,
            zeros,
        )

    @classmethod
    def from_requests(cls, requests: Iterable[object]) -> "KernelBatch":
        """Assemble a batch from submit-style request items.

        Each item is a bare :class:`KernelIR`, ``(EnergyTarget, kernel)``
        or ``(mem_mhz, core_mhz, kernel)`` — the same three forms
        :meth:`SynergyQueue.submit` accepts, minus the command-group
        indirection (batched submissions are dependency-free
        ``parallel_for`` launches). This is the only walk over the
        items: it splits them by form, checks each kernel and clock pair
        and codes the kernels and targets by identity, in first-use
        order. A 2-tuple is only ever ``(EnergyTarget, kernel)``, so
        ``(None, kernel)`` is rejected as ``submit(None, cgf)`` is.
        """
        kernels: dict[int, int] = {}  # id(kernel) -> code
        targets: dict[int, int] = {}  # id(target) -> code
        kernel_list: list[KernelIR] = []
        target_list: list[EnergyTarget] = []
        kernel_code: list[int] = []
        target_code: list[int] = []
        mems: list[int] = []  # explicit pairs only, in order
        cores: list[int] = []
        add_kernel, add_target = kernel_code.append, target_code.append
        kernel_of, target_of = kernels.get, targets.get
        for item in requests:
            if not isinstance(item, tuple):
                kernel, code = item, NO_REQUEST
            elif len(item) == 2:
                target, kernel = item
                code = target_of(id(target))
                if code is None:
                    if not isinstance(target, EnergyTarget):
                        raise ValidationError(f"{_ITEM_FORMS}; got {item!r}")
                    code = targets[id(target)] = len(target_list)
                    target_list.append(target)
            elif len(item) == 3:
                mem, core, kernel = item
                code = EXPLICIT
                if not (isinstance(mem, int) and isinstance(core, int)):
                    raise ValidationError(
                        f"{_ITEM_FORMS}; got kernel {kernel!r} with request "
                        f"{(mem, core)!r}"
                    )
                mems.append(mem)
                cores.append(core)
            else:
                raise ValidationError(f"{_ITEM_FORMS}; got {item!r}")
            k = kernel_of(id(kernel))
            if k is None:
                if not isinstance(kernel, KernelIR):
                    request = (
                        None if code == NO_REQUEST
                        else (mem, core) if code == EXPLICIT
                        else target
                    )
                    raise ValidationError(
                        f"{_ITEM_FORMS}; got kernel {kernel!r} with request "
                        f"{request!r}"
                    )
                k = kernels[id(kernel)] = len(kernel_list)
                kernel_list.append(kernel)
            add_kernel(k)
            add_target(code)
        target_code = np.array(target_code, dtype=np.int64)
        pair = np.zeros((2, len(target_code)), dtype=np.int64)
        if mems:
            try:
                pair[:, target_code == EXPLICIT] = mems, cores
            except OverflowError:
                raise ValidationError(
                    f"explicit clocks out of the int64 range: "
                    f"{max(mems + cores, key=abs)}"
                ) from None
        return cls(
            tuple(kernel_list), kernel_code, tuple(target_list),
            target_code, *pair,
        )

    def validate_explicit_clocks(self, spec: GPUSpec) -> None:
        """Submit-time validation of every explicit clock pair.

        Mirrors the scalar path, where an invalid pair raises in
        ``submit`` rather than later inside ``_pre_kernel`` — for a batch
        the whole assembly is validated before anything executes, once
        per distinct clock (:meth:`GPUSpec.validate_clock_columns`).
        """
        explicit = self.target_code == EXPLICIT
        spec.validate_clock_columns(
            self.mem_mhz[explicit].tolist(), self.core_mhz[explicit].tolist()
        )
