"""Every public definition in ``src/repro`` is reached by the program.

An AST scan over ``src/repro`` lists each public module-level function,
class and assigned name, and each public method of a module-level class.
A name counts as reached when it appears, in code, a string or a comment,
in ``src/``, ``bench/``, ``examples/`` or ``scripts/``. Its own definition
(body included), other definitions that bind the same name and the
re-exports of a package ``__init__.py`` do not count. A definition that
only tests reach is dead weight in the library, so the scan fails on it.

Three packages are exempt, because tests drive other code with them: the
modeled external APIs (``repro.sycl``, ``repro.vendor``) and the oracles
and checks of ``repro.validate``. ``TEST_HOOKS`` names the few other
definitions that exist for tests to drive the program with.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
EXEMPT_PACKAGES = ("sycl", "vendor", "validate")
SEARCH_DIRS = ("src", "bench", "examples", "scripts")

# Hooks that tests drive the program with; nothing else in the repo
# calls them.
TEST_HOOKS = frozenset({
    # Tampers with a finished graph's edges, so tests can see the race
    # audit flag a dropped edge.
    "repro.distributed.graph.CommandGraph.replace_deps",
    # The timed-access harness that the memcpy revert tests replay.
    "repro.analysis.graphaudit.audit_timed_accesses",
    # Emits kernel source for a declared mix, so tests can round-trip it
    # through the front end.
    "repro.frontend.synth.source_for_mix",
    # Empties the per-spec model and operating-point memos between tests.
    "repro.hw.cache.clear_model_cache",
})


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _is_node_visitor(cls: ast.ClassDef) -> bool:
    return any(
        (isinstance(b, ast.Attribute) and b.attr == "NodeVisitor")
        or (isinstance(b, ast.Name) and b.id == "NodeVisitor")
        for b in cls.bases
    )


def _assigned(stmt: ast.stmt) -> list[ast.Name]:
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    names = []
    for target in targets:
        elts = target.elts if isinstance(target, ast.Tuple) else [target]
        names += [e for e in elts if isinstance(e, ast.Name)]
    return names


def _span(node: ast.stmt) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return range(first, node.end_lineno + 1)


def definitions() -> list[tuple[str, str, Path, range]]:
    """Each public definition: qualified name, bare name, file, lines."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).parts
        if rel[0] in EXEMPT_PACKAGES or path.name == "__init__.py":
            continue
        module = _module_name(path)
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.ClassDef):
                names = [stmt.name]
                visitor = _is_node_visitor(stmt)
                for member in stmt.body:
                    if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if not _public(member.name):
                        continue
                    if visitor and member.name.startswith("visit_"):
                        continue
                    found.append((f"{module}.{stmt.name}.{member.name}",
                                  member.name, path, _span(member)))
            else:
                names = [n.id for n in _assigned(stmt)]
            found += [(f"{module}.{name}", name, path, _span(stmt))
                      for name in names if _public(name)]
    return found


_WORD = re.compile(r"[A-Za-z_]\w*")


def _python_words(path: Path):
    """Yield ``(word, line)`` for a Python file's words that use a name.

    Code, strings and comments all count. A ``def`` or ``class`` name and
    a module-level assignment target bind a name rather than use it, and
    so do the imports and the ``__all__`` list of a package
    ``__init__.py``, which only re-export it.
    """
    source = path.read_text()
    binding = set()
    skip_lines = set()
    for stmt in ast.parse(source).body:
        targets = _assigned(stmt)
        binding.update((n.lineno, n.col_offset) for n in targets)
        if path.name == "__init__.py" and (
            isinstance(stmt, (ast.Import, ast.ImportFrom))
            or "__all__" in [n.id for n in targets]
        ):
            skip_lines.update(_span(stmt))
    binds = False
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        line = tok.start[0]
        if line in skip_lines:
            continue
        if tok.type == tokenize.NAME:
            if not binds and tok.start not in binding:
                yield tok.string, line
            binds = tok.string in ("def", "class")
        elif tok.type in (tokenize.STRING, tokenize.COMMENT):
            yield from ((w, line) for w in _WORD.findall(tok.string))


def occurrences() -> dict[str, list[tuple[Path, int]]]:
    """Where each word appears in the program, scripts and examples."""
    seen = defaultdict(list)
    for top in SEARCH_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            if path.suffix == ".py":
                words = _python_words(path)
            elif path.suffix in (".sh", ".md", ".json", ".toml"):
                words = ((w, 0) for w in _WORD.findall(path.read_text()))
            else:
                continue
            for word, line in words:
                seen[word].append((path, line))
    return seen


def unreached() -> list[str]:
    """Public definitions whose name appears nowhere outside themselves."""
    seen = occurrences()
    return sorted(
        qualname
        for qualname, name, path, lines in definitions()
        if all(p == path and line in lines for p, line in seen.get(name, ()))
    )


def test_every_public_definition_is_reached():
    stray = [q for q in unreached() if q not in TEST_HOOKS]
    assert not stray, (
        "public definitions only tests reach (delete them, or make them "
        f"private if the program needs them): {stray}"
    )


def test_test_hooks_are_still_defined_and_unreached():
    assert TEST_HOOKS <= set(unreached())
