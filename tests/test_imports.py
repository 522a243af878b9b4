"""Every name a module imports is used by that module, and every private
helper of the package is used by the package.

A dead import keeps a deleted or test-only name looking used; this scan
of ``src/`` and ``tests/`` (package ``__init__`` files re-export by design
and are skipped) fails on any such name. A module-level ``_name`` in
``src/fanostat`` that no code of ``src/`` refers to outside its own
definition is dead, or lives for the tests only; that scan fails on it.
So does a name of ``fanostat.__all__`` that no module of ``src/`` uses
outside its own definition and the re-export in ``__init__.py``.

Every scipy subpackage loads on first use: a fresh interpreter checks that
importing the package, the commands that evaluate no special function and
the oracle at alpha = 0 load no scipy module, and which subpackages the
scans of model curves, a driven oracle check and a fit then leave in
``sys.modules``.
"""

import ast
import builtins
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fanostat

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


def _definitions(statement):
    """The module-level names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {t.id for t in statement.targets if isinstance(t, ast.Name)}
    return set()


def unreferenced(sources, selected):
    """The module-level names of ``sources`` (module -> source text) that
    ``selected`` picks and that no code of them refers to outside the
    definition."""
    defined, used = {}, set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            own = set(filter(selected, _definitions(statement)))
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


def dead_private_helpers(sources):
    """The private module-level names of ``sources`` that no code of them
    refers to outside the definition."""
    return unreferenced(sources, lambda n: n.startswith("_") and not n.endswith("__"))


def test_scan_finds_a_dead_helper():
    sources = {"a": "def _dead():\n    return _dead()\n_LIVE = 1\n",
               "b": "from .a import _LIVE\n_ALSO = _LIVE\nx = _ALSO\n"}
    assert dead_private_helpers(sources) == [("a", "_dead")]


def test_no_dead_private_helpers():
    dead = dead_private_helpers({p.name: p.read_text() for p in PACKAGE})
    assert not dead, ", ".join(f"{module}: {name}" for module, name in dead)


def test_scan_finds_an_export_only_the_tests_hold():
    sources = {"a": "def held():\n    return held()\ndef used():\n    pass\n",
               "b": "from .a import used\nx = used()\n"}
    assert unreferenced(sources, {"held", "used"}.__contains__) == [("a", "held")]


def test_every_export_is_used_by_the_package():
    # a name of fanostat.__all__ that no module of src/ uses outside its own
    # definition and the re-export in __init__.py is held by the tests alone
    held = unreferenced({p.name: p.read_text() for p in PACKAGE if p.name != "__init__.py"},
                        set(fanostat.__all__).__contains__)
    assert not held, ", ".join(f"{module}: {name}" for module, name in held)


IMPORT_GRAPH = """
import json, sys
import numpy as np
from fanostat import cli
from fanostat.averaging import ModelCurves
from fanostat.fitting import MeasurementSet, fit_full_model
from fanostat.params import PhysicalParams

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

def loaded():
    # the public subpackages among them: scipy.special, not scipy._lib
    return [m for m in scipy_modules() if m.count(".") == 1 and "._" not in m
            and hasattr(sys.modules[m], "__path__")]

out, out_dir = {"import": scipy_modules()}, sys.argv[1]
assert cli.main(["fp-background", "--reflectivity", "0.3", "--fsr-nm", "1",
                 "--grid=910:920:5", "--out", f"{out_dir}/fp.csv"]) == 0
assert cli.main(["scan", "--mode", "decompose", "--grid=-40:40:5",
                 "--out", f"{out_dir}/decompose.csv"]) == 0
cli.oracle_check(deltas=(0.0, 1.0), t0s=(0.5,), zetas=(1.0, 2.0), betas=(0.9,),
                 tau_points=3)
out["undriven"] = scipy_modules()
for mode, extra in (("transmission", []), ("g2trace", ["--detuning", "9"])):
    assert cli.main(["scan", "--mode", mode, "--grid=-40:40:5", *extra,
                     "--out", f"{out_dir}/{mode}.csv"]) == 0
out["scan"] = loaded()
cli.oracle_check(alpha=0.1, deltas=(1.0,), t0s=(0.5,), zetas=(1.0,), betas=(0.9,),
                 tau_points=3)
out["oracle"] = loaded()
det = np.linspace(-20.0, 20.0, 7)
trans = ModelCurves(PhysicalParams()).transmission(det)
data = MeasurementSet(transmission=np.column_stack([det, trans, np.full(7, 0.03)]))
fit_full_model(data, PhysicalParams(t0=0.6))
out["fit"] = loaded()
print(json.dumps(out))
"""


def test_scipy_subpackages_load_on_first_use(tmp_path):
    # one fresh interpreter, step by step: importing the package, the
    # commands with no special function and the oracle at alpha = 0 load no
    # scipy module; the model-curve scans load scipy.special alone, a driven
    # oracle check scipy.linalg and a fit scipy.optimize
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", IMPORT_GRAPH, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded["import"] == [] and loaded["undriven"] == []
    assert loaded["scan"] == ["scipy.special"]
    assert loaded["oracle"] == ["scipy.linalg", "scipy.special"]
    assert "scipy.optimize" in loaded["fit"]


@pytest.mark.parametrize("module,name", [("correlators", "erf"), ("correlators", "erfcx"),
                                         ("averaging", "wofz")])
def test_special_functions_import_on_the_first_call_only(module, name, monkeypatch):
    # the forwarding functions keep scipy.special once it is imported: ten
    # calls after the first run no import statement
    function = getattr(importlib.import_module(f"fanostat.{module}"), name)
    z = np.array([0.3 + 0.2j, 1.5 - 0.4j])
    function(z)
    imports = []
    original = builtins.__import__

    def counted(*args, **kwargs):
        imports.append(args[0])
        return original(*args, **kwargs)
    monkeypatch.setattr(builtins, "__import__", counted)
    for _ in range(10):
        function(z)
    monkeypatch.undo()
    assert imports == []
