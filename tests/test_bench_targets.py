"""The benchmark's tracer wraps package functions by name.

`bench/tracing.py` looks each wrapped function up as a module global or
in its class's own dict, so renaming or deleting one breaks traced runs
of the benchmark, not any test of the package.  These tests read its
two target lists and check that every name still resolves.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
