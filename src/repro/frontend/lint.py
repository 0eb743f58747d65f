"""Repo-wide determinism linter (AST pass over ``src/repro``).

The reproduction's contract is bit-stable output: golden traces, sweep
caches and validation reports must not depend on wall-clock time or
process-global RNG state. This linter enforces that statically:

========  ============================================================
rule      meaning
========  ============================================================
ND001     wall-clock read (``time.time``, ``time.time_ns``,
          ``datetime.now``/``utcnow``/``today``) — virtual time and
          seeded simulation only; ``time.perf_counter`` stays legal for
          *measuring* durations in the perf harness
ND002     process-global ``random.*`` call — use a seeded
          ``random.Random(seed)`` instance
ND003     ``numpy.random`` global-state call (``np.random.rand``,
          ``np.random.seed``, ...) — use ``numpy.random.default_rng``
          / ``Generator`` / ``SeedSequence``
ND004     ``==`` / ``!=`` against a nonzero float literal — compare
          with a tolerance; exact ``0.0`` sentinels remain legal
ND005     mutable default argument (``def f(x, acc=[])``) — the default
          is created once and shared across calls, so state leaks
          between invocations; default to ``None`` and allocate inside
========  ============================================================

Exposed as ``repro-synergy lint`` and wired into ``scripts/check.sh``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.common.errors import ConfigurationError

WALLCLOCK_RULE = "ND001"
GLOBAL_RANDOM_RULE = "ND002"
NUMPY_RANDOM_RULE = "ND003"
FLOAT_EQ_RULE = "ND004"
MUTABLE_DEFAULT_RULE = "ND005"

#: AST node types whose evaluation as a default produces a fresh mutable
#: object — shared for the function's whole lifetime.
_MUTABLE_DEFAULT_NODES = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

#: Builtin constructors whose call as a default is the same trap as a
#: literal (``def f(seen=set())``); ``frozenset``/``tuple`` stay legal.
_MUTABLE_DEFAULT_CALLS = frozenset({"list", "dict", "set", "bytearray"})

#: Fully-qualified callables that read the wall clock.
_BANNED_WALLCLOCK: frozenset[str] = frozenset({
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: ``numpy.random`` attributes that do NOT touch the global RNG state.
_NUMPY_RANDOM_OK: frozenset[str] = frozenset({
    "default_rng", "Generator", "SeedSequence", "RandomState",
    "BitGenerator", "PCG64", "Philox",
})


@dataclass(frozen=True)
class LintViolation:
    """One determinism finding, anchored to a file location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: list[LintViolation] = []
        #: local name -> canonical dotted module/attribute path
        self.aliases: dict[str, str] = {}

    # ------------------------------------------------------------- imports

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # ----------------------------------------------------------- resolution

    def _dotted(self, node: ast.expr) -> str | None:
        """``a.b.c`` as a canonical dotted string, aliases resolved."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.aliases.get(node.id, node.id)
        parts.append(head)
        return ".".join(reversed(parts))

    # ---------------------------------------------------------------- calls

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted is not None:
            self._check_call(node, dotted)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, dotted: str) -> None:
        if dotted in _BANNED_WALLCLOCK:
            self._report(
                node, WALLCLOCK_RULE,
                f"wall-clock read {dotted}() breaks bit-stable replay; use "
                "the virtual clock (repro.obs) or pass timestamps in",
            )
            return
        parts = dotted.split(".")
        if (
            parts[0] == "random"
            and len(parts) == 2
            and parts[1] not in ("Random", "SystemRandom")
        ):
            self._report(
                node, GLOBAL_RANDOM_RULE,
                f"process-global {dotted}() call; use a seeded "
                "random.Random(seed) instance",
            )
            return
        if (
            len(parts) >= 3
            and parts[0] == "numpy"
            and parts[1] == "random"
            and parts[2] not in _NUMPY_RANDOM_OK
        ):
            self._report(
                node, NUMPY_RANDOM_RULE,
                f"numpy global-RNG call {dotted}(); use "
                "numpy.random.default_rng(seed)",
            )

    # ------------------------------------------------------------- defaults

    def _check_defaults(self, node) -> None:
        args = node.args
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, _MUTABLE_DEFAULT_NODES):
                kind = type(default).__name__.lower().replace("comp", " comprehension")
                self._report(
                    default, MUTABLE_DEFAULT_RULE,
                    f"mutable default argument ({kind} literal) is shared "
                    "across calls; default to None and allocate in the body",
                )
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and self.aliases.get(default.func.id, default.func.id)
                in _MUTABLE_DEFAULT_CALLS
            ):
                self._report(
                    default, MUTABLE_DEFAULT_RULE,
                    f"mutable default argument ({default.func.id}() call) is "
                    "shared across calls; default to None and allocate in "
                    "the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # ---------------------------------------------------------- comparisons

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (lhs, rhs):
                if (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                    and side.value != 0.0
                ):
                    self._report(
                        side, FLOAT_EQ_RULE,
                        f"exact equality against float literal "
                        f"{side.value!r}; compare with a tolerance "
                        "(math.isclose / pytest.approx)",
                    )
        self.generic_visit(node)

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            LintViolation(
                path=self.path,
                line=getattr(node, "lineno", 0) or 0,
                col=getattr(node, "col_offset", 0) or 0,
                rule=rule,
                message=message,
            )
        )


def lint_source(source: str, path: str = "<source>") -> list[LintViolation]:
    """Lint one unit of Python source text."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            LintViolation(
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                rule="ND000",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    linter = _Linter(path)
    linter.visit(tree)
    return sorted(linter.violations, key=lambda v: (v.line, v.col, v.rule))


def _iter_py_files(paths: Iterable[Path]) -> Iterator[Path]:
    for p in paths:
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif not p.exists():
            raise ConfigurationError(f"no such file or directory: {p}")
        elif p.suffix == ".py":
            yield p


def lint_paths(paths: Iterable[str | Path]) -> list[LintViolation]:
    """Lint every ``*.py`` file under the given files/directories.

    A path that does not exist raises :class:`ConfigurationError`.
    """
    violations: list[LintViolation] = []
    for path in _iter_py_files(Path(p) for p in paths):
        violations.extend(lint_source(path.read_text(), str(path)))
    return violations


def default_lint_root() -> Path:
    """``src/repro`` resolved from the installed package location."""
    return Path(__file__).resolve().parent.parent
