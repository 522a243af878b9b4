"""Every name a module imports is used by that module, and every private
helper of the package is used by the package.

A dead import keeps a deleted or test-only name looking used; this scan
of ``src/`` and ``tests/`` (package ``__init__`` files re-export by design
and are skipped) fails on any such name. A module-level ``_name`` in
``src/fanostat`` that no code of ``src/`` refers to outside its own
definition is dead, or lives for the tests only; that scan fails on it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src" / "fanostat").glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_name():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == \
        [(1, "os"), (2, "tau")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"line {line}: {name}" for line, name in unused)


def _private_definitions(statement):
    """The module-level private names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names = {statement.name}
    elif isinstance(statement, ast.Assign):
        names = {t.id for t in statement.targets if isinstance(t, ast.Name)}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def dead_private_helpers(sources):
    """The private names defined at module level in ``sources`` (name ->
    source text) that no code of them refers to outside the definition."""
    defined, used = {}, set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            own = _private_definitions(statement)
            defined.update(dict.fromkeys(own, module))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs = {node.id}
                elif isinstance(node, ast.Attribute):
                    refs = {node.attr}
                elif isinstance(node, ast.ImportFrom):
                    refs = {alias.name for alias in node.names}
                else:
                    continue
                used |= refs - own
    return sorted((module, name) for name, module in defined.items() if name not in used)


def test_scan_finds_a_dead_helper():
    sources = {"a": "def _dead():\n    return _dead()\n_LIVE = 1\n",
               "b": "from .a import _LIVE\n_ALSO = _LIVE\nx = _ALSO\n"}
    assert dead_private_helpers(sources) == [("a", "_dead")]


def test_no_dead_private_helpers():
    dead = dead_private_helpers({p.name: p.read_text() for p in PACKAGE})
    assert not dead, ", ".join(f"{module}: {name}" for module, name in dead)
