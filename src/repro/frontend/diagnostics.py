"""Located diagnostics for the device-Python front end (paper §6.1).

The paper's compiler pass runs over SYCL kernels inside a full LLVM
toolchain, so malformed kernels fail loudly at build time. Our restricted
device-Python subset gets the same contract: every construct the analysis
cannot count *exactly* produces a :class:`Diagnostic` with a stable code
and a source location, instead of a silently wrong instruction mix.

Catalogue (see ``docs/FRONTEND.md`` for the narrative version):

========  ==================================================================
code      meaning
========  ==================================================================
FE001     unsupported statement (``while``, ``if``, ``try``, ``with``, ...)
FE002     dynamic loop bound (``range`` argument not a compile-time int)
FE003     call to an unknown function (covers recursion: kernels cannot
          call themselves or any non-intrinsic)
FE004     unsupported expression (comparisons, boolean logic, lambdas, ...)
FE005     array aliasing (binding an array to a second name)
FE006     type error (unknown name, float subscript index, bitwise op on
          floats, ...)
FE007     malformed loop (non-``range`` iterable, zero step, ``else:``)
FE008     unsupported assignment target (tuple unpacking, starred,
          chained targets, attribute stores)
FE009     bad kernel signature (missing work-item id, unknown annotation)
FE010     value returned from a device kernel
FE011     cross-work-item write/write race (two work items provably store
          to the same element; reported by the ``repro.analysis`` race
          pass, not by lowering)
FE012     cross-work-item read/write race (one work item provably reads
          an element another stores, with no ordering barrier between)
FE013     statically-provable out-of-bounds access (negative index, or a
          local-array index at or beyond the declared size)
========  ==================================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.common.errors import ValidationError

#: Stable diagnostic codes, keyed to the catalogue above.
UNSUPPORTED_STATEMENT = "FE001"
DYNAMIC_LOOP_BOUND = "FE002"
UNKNOWN_CALL = "FE003"
UNSUPPORTED_EXPRESSION = "FE004"
ARRAY_ALIASING = "FE005"
TYPE_ERROR = "FE006"
MALFORMED_LOOP = "FE007"
BAD_ASSIGNMENT_TARGET = "FE008"
BAD_SIGNATURE = "FE009"
RETURN_VALUE = "FE010"
WRITE_WRITE_RACE = "FE011"
READ_WRITE_RACE = "FE012"
OUT_OF_BOUNDS = "FE013"


@dataclass(frozen=True)
class Diagnostic:
    """One front-end finding, anchored to a kernel source location."""

    code: str
    message: str
    line: int
    col: int
    kernel: str = ""

    def format(self) -> str:
        """``kernel:line:col: CODE message`` (the compiler-style line)."""
        where = f"{self.kernel or '<kernel>'}:{self.line}:{self.col}"
        return f"{where}: {self.code} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "line": self.line,
            "col": self.col,
            "kernel": self.kernel,
        }


class DiagnosticSink:
    """Collects diagnostics during one lowering pass."""

    def __init__(self, kernel: str = "") -> None:
        self.kernel = kernel
        self.diagnostics: list[Diagnostic] = []

    def report(self, node: ast.AST | None, code: str, message: str) -> None:
        """Record one finding, anchored to ``node``'s source location."""
        line = getattr(node, "lineno", 0) or 0
        col = getattr(node, "col_offset", 0) or 0
        self.diagnostics.append(
            Diagnostic(code=code, message=message, line=line, col=col,
                       kernel=self.kernel)
        )

    @property
    def has_errors(self) -> bool:
        return bool(self.diagnostics)

    def as_tuple(self) -> tuple[Diagnostic, ...]:
        return tuple(self.diagnostics)


class FrontendError(ValidationError):
    """A kernel failed the front-end pass; carries its diagnostics."""

    def __init__(self, kernel: str, diagnostics: tuple[Diagnostic, ...]) -> None:
        self.kernel = kernel
        self.diagnostics = diagnostics
        lines = "\n".join(d.format() for d in diagnostics)
        super().__init__(
            f"kernel {kernel!r} uses constructs outside the device-Python "
            f"subset ({len(diagnostics)} diagnostics):\n{lines}"
        )
