"""Source hygiene: no module imports another module's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every `from <package module> import _name`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = (node.module or "").split(".")[0]
        if node.level == 0 and package != "aswcurves":
            continue
        found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_private_cross_module_imports():
    files = sorted(SRC.rglob("*.py"))
    assert files
    offenders = [
        f"{path.relative_to(SRC)}:{line} imports {name}"
        for path in files
        for line, name in private_imports(path.read_text())
    ]
    assert offenders == []


def test_detector_flags_only_package_private_names():
    source = (
        "from __future__ import annotations\n"
        "from .twists import _check, check\n"
        "from ..gf2field import make_field\n"
        "from aswcurves.cli import _emit\n"
        "from os import _exit\n"
        "from . import _private_module\n"
    )
    assert private_imports(source) == [
        (2, "_check"),
        (4, "_emit"),
        (6, "_private_module"),
    ]
