"""The benchmark's tracer wraps package functions by name.

`bench/tracing.py` looks each wrapped function up as a module global or
in its class's own dict, so renaming or deleting one breaks traced runs
of the benchmark, not any test of the package.  These tests read its
two target lists and check that every name still resolves.  The other
bench files import package names and look them up as module attributes
(`curves.brute_count`); those names are read with `ast` and resolved
too.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path
from types import ModuleType

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))  # tracing imports its sibling `stats`
    try:
        spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_every_traced_target_exists(tracing):
    targets = tracing._targets()
    assert targets
    for owner, attr, name, *_ in targets:
        if isinstance(owner, str):
            found = getattr(importlib.import_module(owner), attr, None)
        else:
            found = owner.__dict__.get(attr)  # wrapped on the class itself
        assert callable(found), name


def test_every_route_exists(tracing):
    assert tracing.ROUTES
    for module, attr, key, _ in tracing.ROUTES:
        assert callable(getattr(importlib.import_module(module), attr, None)), key


def unresolved_package_names(source: str) -> list[str]:
    """`line: module.name` of every name that a `from aswcurves... import`
    statement asks for, and every attribute loaded on a package module
    bound that way, that does not resolve."""
    tree = ast.parse(source)
    lookups, modules = [], {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        if (node.module or "").split(".")[0] != "aswcurves":
            continue
        for alias in node.names:
            lookups.append((node.lineno, node.module, alias.name))
            found = _lookup(node.module, alias.name)
            if isinstance(found, ModuleType):
                modules[alias.asname or alias.name] = found.__name__
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            lookups.append((node.lineno, modules[node.value.id], node.attr))
    return [
        f"{line}: {module}.{name}"
        for line, module, name in sorted(lookups)
        if _lookup(module, name) is _MISSING
    ]


_MISSING = object()


def _lookup(module: str, name: str) -> object:
    """The attribute or submodule `name` of `module`, else _MISSING."""
    try:
        owner = importlib.import_module(module)
        if hasattr(owner, name):
            return getattr(owner, name)
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return _MISSING


def test_every_package_name_the_bench_uses_exists():
    files = sorted(BENCH.glob("*.py"))
    assert files
    offenders = {
        path.name: unresolved_package_names(path.read_text()) for path in files
    }
    assert offenders == {path.name: [] for path in files}


def test_bench_name_detector_flags_missing_imports_and_attributes():
    source = (
        "from aswcurves.bitvec import field_mul, no_such_kernel\n"
        "from aswcurves import curves, skew as sk, no_such_module\n"
        "import json\n"
        "def job():\n"
        "    from aswcurves.errors import CapExceeded\n"
        "    a = curves.brute_count\n"
        "    b = curves.no_such_count(1)\n"
        "    c = sk.SkewPoly.zero\n"
        "    d = sk.no_such_poly\n"
        "    e = json.no_such_thing\n"
        "    return field_mul.no_such_attribute\n"
    )
    assert unresolved_package_names(source) == [
        "1: aswcurves.bitvec.no_such_kernel",
        "2: aswcurves.no_such_module",
        "7: aswcurves.curves.no_such_count",
        "9: aswcurves.skew.no_such_poly",
    ]
