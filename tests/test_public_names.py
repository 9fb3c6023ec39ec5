"""Every public name of the package has a user outside the tests.

A name listed in a module's ``__all__`` is used when README mentions it, a
demo imports it, or code in ``src/`` refers to it (a ``Name``, an
``Attribute`` or an import).  A re-export in ``__init__.py`` is not a use,
and neither is a reference from a name's own definition or from the
definition of another public name that has no user itself.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cimsel"


def _modules():
    return [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)


def _defined_name(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        return targets[0].id
    return None


def _unused_public_names():
    public = {
        name
        for path in _modules()
        for name in getattr(importlib.import_module(f"cimsel.{path.stem}"), "__all__", ())
    }
    # (owner, name): the top-level public definition holding a reference, or
    # None for code outside every public definition
    edges = set()
    for path in _modules():
        for stmt in ast.parse(path.read_text()).body:
            owner = _defined_name(stmt)
            owner = owner if owner in public else None
            edges |= {(owner, name) for name in _referenced(stmt) if name != owner}
    readme = (ROOT / "README.md").read_text()
    demo_imports = {
        alias.name
        for path in (ROOT / "demos").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = {n for n in public if n in demo_imports or re.search(rf"\b{re.escape(n)}\b", readme)}
    while True:
        grown = used | {name for owner, name in edges if owner is None or owner in used}
        if grown == used:
            return sorted(public - used)
        used = grown


def test_every_public_name_has_a_user_outside_tests():
    unused = _unused_public_names()
    assert not unused, f"public names with no user outside tests/: {unused}"


def _private_demo_imports():
    """``(demo, name)`` for each name a demo imports from ``cimsel`` that is
    private: the name or a module on its path starts with ``_``."""
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cimsel":
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names if alias.name.split(".")[0] == "cimsel"]
            else:
                continue
            yield from ((path.name, name) for name in names
                        if any(part.startswith("_") for part in name.split(".")))


def test_demos_import_public_names_only():
    private = list(_private_demo_imports())
    assert not private, f"demos importing private cimsel names: {private}"


def test_package_exports_the_observers_readout():
    # every solve observer turns run.x into spins with readout
    cimsel = importlib.import_module("cimsel")
    assert cimsel.readout is importlib.import_module("cimsel.cim").readout
