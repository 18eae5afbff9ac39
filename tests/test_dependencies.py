"""The runtime needs numpy only; scipy and mpmath serve the tests as
oracles. The benchmark tracer's targets exist in the library, and only
``circle`` reaches its adaptive re-projection."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_cli_import_loads_no_scipy():
    # Nor numpy.polynomial: importing it costs every CLI process about 1 MB
    # of resident memory, and flow builds its Chebyshev matrices without it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = (
        "import sys, virasoro.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy') "
        "or m.startswith('numpy.polynomial')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _import_nodes():
    """Every import statement in the library's sources, as ``(path, node)``."""
    for path in sorted((SRC / "virasoro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path, node


def _source_imports_of(package: str) -> list:
    """Every import of ``package`` in the library's sources, as ``file:line name``."""
    offenders = []
    for path, node in _import_nodes():
        names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module or ""]
        offenders += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == package]
    return offenders


def test_sources_do_not_import_scipy():
    assert _source_imports_of("scipy") == []


def test_sources_do_not_import_mpmath():
    assert _source_imports_of("mpmath") == []


def _callers_of(name: str) -> set:
    """The library's top-level functions and methods that call ``name``, as
    ``module.function`` or ``module.Class.method``; a call inside a nested
    function counts for the function that holds it."""
    callers = set()
    for path in sorted((SRC / "virasoro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        defs += [
            (f"{cls.name}.{fn.name}", fn)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
        ]
        callers |= {
            f"{path.stem}.{fn_name}"
            for fn_name, fn in defs
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
        }
    return callers


def test_only_circle_reaches_the_adaptive_reprojection():
    # compose, inverse and flow leave the finite Fourier class and need the
    # adaptive fit; a bracket, or a field read on one grid, does not.
    importers = [
        f"{path.name}:{node.lineno}"
        for path, node in _import_nodes()
        if isinstance(node, ast.ImportFrom) and "_project_periodic" in (a.name for a in node.names)
    ]
    assert importers == []
    assert _callers_of("_project_periodic") == {"circle.compose", "circle.inverse", "circle.flow"}


def test_one_fit_serves_the_reprojection_and_the_bracket():
    # The library has one fit of sampled values: a second fit mode (read
    # from the slope, say) would add a caller here.
    assert _callers_of("_fit") == {"circle._project_periodic", "circle.bracket"}


def test_compose_callers_are_the_group_law_and_its_check():
    # A cocycle of a moved point d o phi is read by the chain rule from jets
    # of d and phi; a composition is formed only where it is the result
    # (the group law's product) or the thing tested (the cocycle check).
    assert _callers_of("compose") == {"orbits._product", "checks.universal_cocycle"}


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower() for req in requirements}

    assert names(project["dependencies"]) == {"numpy"}
    assert "scipy" in names(project["optional-dependencies"]["test"])


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracer.py wraps each (module, attribute path) of its TARGETS
    # through the owner's __dict__, so a target that is moved or deleted
    # fails every traced benchmark run. Read without importing perfbench.
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    targets = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    )
    missing = []
    for entry in targets.elts:
        module_name, path = (ast.literal_eval(e) for e in entry.elts[:2])
        owner = importlib.import_module(module_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(f"{module_name}:{path}")
    assert targets.elts
    assert missing == []
