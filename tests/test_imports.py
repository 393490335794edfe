"""Source hygiene: no module imports another module's private names, the
counting oracle imports nothing from the routes it checks, the routes
reach the oracle only through `curves.count.checked_count`, the command
line reaches the eigenvalue route only through `curves.zeta_report`
and compares no routes itself, only `bitvec` imports numpy, the
command line starts without the thread pool, no module
holds what `python -O` would strip, every function and class under
`src/` is reached, and every reference in `tests/reference.py` is
compared against by some test."""

import ast
import importlib
import os
import subprocess
import sys
from collections import defaultdict
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


# The direct count, and the comparison in count.py, must share no code
# path with the closed forms it checks.
ORACLE_FILES = ("aswcurves/curves/count.py", "aswcurves/bitvec.py")
FORMULA_MODULES = {
    "lpoly", "presentation", "twists", "families", "period", "witt2", "symplectic"
}


def imported_modules(source: str) -> set[str]:
    """Last dotted component of every module an import statement names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.split(".")[-1])
            if node.level or (node.module or "").startswith("aswcurves"):
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[-1] for a in node.names)
    return found


def test_oracle_imports_no_formula_route():
    offenders = {
        path: sorted(imported_modules((SRC / path).read_text()) & FORMULA_MODULES)
        for path in ORACLE_FILES
    }
    assert offenders == {path: [] for path in ORACLE_FILES}


def test_import_detector_sees_relative_and_absolute_forms():
    source = (
        "from .lpoly import l_polynomial\n"
        "from . import twists\n"
        "from aswcurves.curves import period\n"
        "import aswcurves.witt2\n"
        "from ..gf2field import make_field\n"
    )
    got = imported_modules(source) & FORMULA_MODULES
    assert got == {"lpoly", "twists", "period", "witt2"}


# Whole-universe enumeration stays behind the one range kernel: under
# src/, only bitvec.py imports numpy, so no other module knows how a
# universe is laid out as an array.
NUMPY_HOME = "aswcurves/bitvec.py"


def numpy_imports(source: str) -> list[int]:
    """Line of every import statement that names numpy or a numpy
    submodule: `import numpy[.sub] [as x]` or `from numpy[.sub] import y`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        if any(module.split(".")[0] == "numpy" for module in modules):
            found.append(node.lineno)
    return sorted(found)


def test_only_bitvec_imports_numpy():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() != NUMPY_HOME
        for line in numpy_imports(path.read_text())
    ]
    assert offenders == []
    assert numpy_imports((SRC / NUMPY_HOME).read_text())


def test_numpy_detector_flags_imports_not_prose():
    source = (
        '"""import numpy in a docstring is prose."""\n'
        "import numpy\n"
        "import numpy as np\n"
        "from numpy import arange\n"
        "from numpy.lib import stride_tricks\n"
        "import numpyish\n"
        "from numpyish import arange\n"
        "label = 'import numpy as np'\n"
        "# from numpy import zeros\n"
        "import os, numpy.linalg as la\n"
        "from . import numpy_helpers\n"
        "xs = np.arange(4)\n"
        "def f():\n"
        "    import numpy\n"
    )
    assert numpy_imports(source) == [2, 3, 4, 5, 10, 14]


def test_the_cli_starts_without_the_thread_pool():
    """`bitvec` imports concurrent.futures only for a threaded count, so
    a command line pays for it only when it asks for threads."""
    program = "import sys, aswcurves.cli\nprint('concurrent.futures' in sys.modules)\n"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + path if path else str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.stdout == "False\n", run.stderr


# The formula routes enter the enumeration oracle only through
# `checked_count`; the package re-exports the entries as public API.
ORACLE_ENTRIES = {"brute_count", "trace_zero_count"}
ORACLE_EXEMPT = {"aswcurves/curves/count.py", "aswcurves/curves/__init__.py"}


def references(source: str, entries: set[str]) -> list[tuple[int, str]]:
    """(line, name) of every import, name or attribute that names one
    of `entries`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.split(".")[-1] for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in entries]
    return found


def test_only_the_count_module_enters_the_oracle():
    offenders = [
        f"{path.relative_to(SRC)}:{line} refers to {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() not in ORACLE_EXEMPT
        for line, name in references(path.read_text(), ORACLE_ENTRIES)
    ]
    assert offenders == []


def test_oracle_detector_sees_imports_calls_and_attributes():
    source = (
        '"""brute_count in a docstring is prose."""\n'
        "from .count import brute_count, checked_count\n"
        "from . import count\n"
        "n = count.trace_zero_count(spec)\n"
        "m = brute_count(spec, 2)\n"
        "k = checked_count(spec, 1, None)\n"
    )
    assert references(source, ORACLE_ENTRIES) == [
        (2, "brute_count"),
        (4, "trace_zero_count"),
        (5, "brute_count"),
    ]


# The command line compares the two routes only through the library's
# report: the eigenvalue route reaches cli.py through `zeta_report`.
def test_cli_reaches_the_eigenvalue_route_only_through_zeta_report():
    source = (SRC / "aswcurves/cli.py").read_text()
    assert references(source, {"presentation_conditions", "l_polynomial"}) == []
    assert references(source, {"zeta_report"})


# `cli.py` parses and formats; every route meeting outside `checked_count`
# is in `curves.zeta`.  So cli.py raises no OracleMismatch, imports nothing
# from the route modules `curves.period`, `curves.twists` and `witt2`, and
# names no comparison or enumeration entry.  One count is exempt by name
# until the eigenvalue route counts F_q alone (ROADMAP item 1).
CLI_ROUTE_MODULES = {"period", "twists", "witt2"}
CLI_ROUTE_NAMES = {
    "check_count", "checked_count", "hd_sum", "coefficient_range", "least_admissible_parameter"
}
CLI_ROUTE_EXEMPT = {
    "checked_count": (
        "cmd_analyze",
        "analyze's second direct count of F_q when no witness gives the class; "
        "bench/routes.json records that doubled count",
    ),
}


def route_meetings(source: str) -> list[tuple[int, str, str]]:
    """(line, where, what) of every `raise OracleMismatch`, import from a
    module of CLI_ROUTE_MODULES and import or reference of a name of
    CLI_ROUTE_NAMES, in line order.  `where` is "import" for an import
    statement, else the top-level function or class around it, or
    "<module>"."""
    found = []
    for top in ast.parse(source).body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc).split(".")[-1] == "OracleMismatch":
                    found.append((node.lineno, scope, "raise OracleMismatch"))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
                modules = names if isinstance(node, ast.Import) else [node.module or ""]
                if isinstance(node, ast.ImportFrom):
                    modules += [f"{node.module or ''}.{name}" for name in names]
                if any(m.split(".")[-1] in CLI_ROUTE_MODULES for m in modules):
                    found.append((node.lineno, "import", "from a route module"))
                found += [
                    (node.lineno, "import", name.split(".")[-1])
                    for name in names
                    if name.split(".")[-1] in CLI_ROUTE_NAMES
                ]
            elif isinstance(node, ast.Name) and node.id in CLI_ROUTE_NAMES:
                found.append((node.lineno, scope, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in CLI_ROUTE_NAMES:
                found.append((node.lineno, scope, node.attr))
    return sorted(found)


def test_cli_compares_no_routes():
    found = route_meetings((SRC / "aswcurves/cli.py").read_text())
    exempt = [
        (where, what)
        for _, where, what in found
        if what in CLI_ROUTE_EXEMPT and where in ("import", CLI_ROUTE_EXEMPT[what][0])
    ]
    assert [f for f in found if f[1:] not in exempt] == []
    assert sorted(exempt) == [("cmd_analyze", "checked_count"), ("import", "checked_count")]


def test_route_detector_sees_raises_imports_and_references():
    source = (
        '"""raise OracleMismatch in a docstring is prose."""\n'
        "from .curves.count import check_count, checked_count\n"
        "from .curves.twists import classify\n"
        "from .curves import period, zeta_report\n"
        "import aswcurves.witt2 as w\n"
        "from .errors import OracleMismatch\n"
        "from .witt2period import helper\n"
        "def cmd_analyze(args):\n"
        "    return checked_count(args)\n"
        "def cmd_hd(args):\n"
        "    if w.hd_sum(3) != 0:\n"
        "        raise errors.OracleMismatch('hd_sum')\n"
        "    raise OracleMismatch\n"
        "class Search:\n"
        "    ranges = coefficient_range\n"
        "label = 'least_admissible_parameter'\n"
        "check_count(None)\n"
    )
    assert route_meetings(source) == [
        (2, "import", "check_count"),
        (2, "import", "checked_count"),
        (3, "import", "from a route module"),
        (4, "import", "from a route module"),
        (5, "import", "from a route module"),
        (9, "cmd_analyze", "checked_count"),
        (11, "cmd_hd", "hd_sum"),
        (12, "cmd_hd", "raise OracleMismatch"),
        (13, "cmd_hd", "raise OracleMismatch"),
        (15, "Search", "coefficient_range"),
        (17, "<module>", "check_count"),
    ]


# `python -O` changes a program in two ways only: it strips `assert`
# statements and reads `__debug__` as False.  With neither in src/, the
# package runs the same code with and without -O, on every input.
def optimizer_sensitive(source: str) -> list[tuple[int, str]]:
    """(line, form) of every `assert` statement and `__debug__` name or
    attribute, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append((node.lineno, "__debug__"))
        elif isinstance(node, ast.Attribute) and node.attr == "__debug__":
            found.append((node.lineno, "__debug__"))
    return sorted(found)


def test_python_O_changes_nothing_in_the_package():
    files = sorted(SRC.rglob("*.py"))
    assert files
    offenders = [
        f"{path.relative_to(SRC)}:{line} has {form}"
        for path in files
        for line, form in optimizer_sensitive(path.read_text())
    ]
    assert offenders == []


def test_optimizer_detector_flags_asserts_and_debug_not_prose():
    source = (
        '"""Never assert in a module docstring."""\n'
        "assert READY\n"
        "def check(x):\n"
        '    """assert x > 0"""\n'
        "    assert x > 0, 'assert in a message'\n"
        "    return 'assert x'\n"
        "class Checked:\n"
        "    assert True\n"
        "if __debug__:\n"
        "    check(1)\n"
        "flag = builtins.__debug__  # assert\n"
    )
    assert optimizer_sensitive(source) == [
        (2, "assert"),
        (5, "assert"),
        (8, "assert"),
        (9, "__debug__"),
        (11, "__debug__"),
    ]


# Every function, method and class under src/ is reached: something in
# src/ names it outside its own body, or it is public, a dunder, or an
# override of a method that a base class outside src/ calls.  A method
# counts as named only through an attribute load, so that a local
# variable of the same name cannot hide a dead method; an import alone
# names nothing.
REACH_EXEMPT = {
    "aswcurves/bitvec.py:field_mul": (
        "the benchmark's microbenchmark and tracer import it; it moves to "
        "tests/ when the benchmark is next re-recorded"
    ),
}


def _public_names() -> set[str]:
    import aswcurves
    from aswcurves import curves

    return set(aswcurves.__all__) | set(curves.__all__)


def _overrides(base: ast.expr, name: str, methods: dict[str, set[str]]) -> bool:
    """Whether the class named by `base` defines `name`: a class of the
    scanned sources, or a dotted name that imports (builtins if bare)."""
    dotted = ast.unparse(base)
    if dotted in methods:
        return name in methods[dotted]
    module, _, attr = dotted.rpartition(".")
    try:
        owner = getattr(importlib.import_module(module or "builtins"), attr)
    except (ImportError, AttributeError):
        return False
    return hasattr(owner, name)


def unreached(sources: dict[str, str], public: set[str]) -> list[str]:
    """`path:qualname` of every function, method and class in `sources`
    that no code in `sources` names outside its own body and that is
    not public, a dunder or an override, in source order."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    loads = defaultdict(list)  # name -> (path, line, is_attribute)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[node.id].append((path, node.lineno, False))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads[node.attr].append((path, node.lineno, True))
    methods = {
        node.name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    found = []
    for path, tree in trees.items():
        owners = {
            id(f): node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for f in node.body
        }
        for fn in ast.walk(tree):
            if isinstance(fn, ast.ClassDef):
                owner = None
            elif isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = owners.get(id(fn))
            else:
                continue
            name = fn.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if (owner.name if owner else name) in public:
                continue
            if owner and any(_overrides(b, name, methods) for b in owner.bases):
                continue
            named = any(
                (is_attr or owner is None)
                and not (where == path and fn.lineno <= line <= fn.end_lineno)
                for where, line, is_attr in loads[name]
            )
            if not named:
                found.append((path, fn.lineno, (owner.name + "." if owner else "") + name))
    return [f"{path}:{qualname}" for path, _, qualname in sorted(found)]


def test_every_function_in_src_is_reached():
    sources = {
        path.relative_to(SRC).as_posix(): path.read_text() for path in sorted(SRC.rglob("*.py"))
    }
    assert sources
    assert unreached(sources, _public_names()) == sorted(REACH_EXEMPT)
    assert all(REACH_EXEMPT.values())


def test_reach_detector_flags_dead_and_hidden_definitions():
    sources = {
        "pkg/a.py": (
            "import argparse\n"
            "def used(x):\n"
            "    return x\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "def entry():\n"
            "    return used(1)\n"
            "class Thing:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "    def read(self):\n"
            "        return self.n\n"
            "    def conj(self):\n"
            "        return self\n"
            "    def again(self):\n"
            "        return self.again()\n"
            "def table(thing):\n"
            "    conj = thing.read()\n"
            "    return conj\n"
            "class Parser(argparse.ArgumentParser):\n"
            "    def error(self, message):\n"
            "        raise SystemExit(message)\n"
            "    def extra(self):\n"
            "        return None\n"
            "class Exported:\n"
            "    def anything(self):\n"
            "        return None\n"
            "class Raised(ValueError):\n"
            "    pass\n"
            "class Dead(ValueError):\n"
            "    pass\n"
            "class Lonely:\n"
            "    @classmethod\n"
            "    def make(cls):\n"
            "        return Lonely()\n"
        ),
        "pkg/b.py": (
            "from .a import Dead, Parser, Raised, Thing, table\n"
            "rows = table(Thing())\n"
            "def parse(text):\n"
            "    if not text:\n"
            "        raise Raised(text)\n"
            "    return Parser().parse_args(text)\n"
        ),
    }
    assert unreached(sources, {"entry", "Exported", "parse"}) == [
        "pkg/a.py:recursive",
        "pkg/a.py:Thing.conj",
        "pkg/a.py:Thing.again",
        "pkg/a.py:Parser.extra",
        "pkg/a.py:Dead",
        "pkg/a.py:Lonely",
        "pkg/a.py:Lonely.make",
    ]


# Every top-level function and class of tests/reference.py is a reference
# that some test compares against: a public one is named in some
# tests/test_*.py, a private helper in reference.py outside its own body.
# As for src/, an import alone names nothing.
TESTS = Path(__file__).resolve().parent


def _loaded_names(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every name or attribute that is read."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, node.lineno))
    return found


def uncompared(reference: str, tests: dict[str, str]) -> list[str]:
    """Top-level functions and classes of `reference` that no test names
    (private ones: that `reference` names nowhere outside their body),
    in source order."""
    tree = ast.parse(reference)
    in_tests = {name for text in tests.values() for name, _ in _loaded_names(ast.parse(text))}
    in_reference = _loaded_names(tree)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            named = any(
                name == node.name and not node.lineno <= line <= node.end_lineno
                for name, line in in_reference
            )
        else:
            named = node.name in in_tests
        if not named:
            found.append(node.name)
    return found


def test_every_reference_is_compared_against():
    tests = {path.name: path.read_text() for path in sorted(TESTS.glob("test_*.py"))}
    assert tests
    assert uncompared((TESTS / "reference.py").read_text(), tests) == []


def test_reference_detector_flags_uncompared_definitions():
    reference = (
        "def _helper(x):\n"
        "    return x\n"
        "def _orphan(x):\n"
        "    return _orphan(x - 1) if x else 0\n"
        "def compared(x):\n"
        "    return _helper(x)\n"
        "class Model:\n"
        "    def run(self):\n"
        "        return imported_only(self)\n"
        "def imported_only(x):\n"
        "    return x\n"
        "def dead(x):\n"
        "    return compared(x)\n"
        "VALUE = 1\n"
    )
    tests = {
        "test_a.py": "from reference import Model, compared, imported_only\n",
        "test_b.py": "def test_x():\n    assert compared(1) == reference.Model().run()\n",
    }
    assert uncompared(reference, tests) == ["_orphan", "imported_only", "dead"]
