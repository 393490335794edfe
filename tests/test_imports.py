"""Source hygiene: no module imports another module's private names, the
counting oracle imports nothing from the routes it checks, the routes
reach the oracle only through `curves.count.checked_count`, the command
line reaches the eigenvalue route only through `curves.zeta_report`,
only `bitvec` builds numpy ranges, no module holds what `python -O`
would strip, every function and class under `src/` is reached, and
every reference in `tests/reference.py` is compared against by some
test."""

import ast
import importlib
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
# src/, only bitvec.py builds a numpy range.
UNIVERSE_HOME = "aswcurves/bitvec.py"
UNIVERSE_CALLS = ("arange",)


def numpy_universe_calls(source: str, names: tuple[str, ...] = UNIVERSE_CALLS) -> list[int]:
    """Line of every numpy `arange` (or other `names`): the
    attribute of a name that an import binds to numpy, or the name
    imported from numpy."""
    tree = ast.parse(source)
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name == "numpy"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [node.lineno for a in node.names if a.name in names]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append(node.lineno)
    return sorted(found)


def test_only_bitvec_builds_numpy_ranges():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() != UNIVERSE_HOME
        for line in numpy_universe_calls(path.read_text())
    ]
    assert offenders == []
    home = (SRC / UNIVERSE_HOME).read_text()
    assert all(numpy_universe_calls(home, (name,)) for name in UNIVERSE_CALLS)


def test_arange_detector_flags_numpy_ranges_not_prose():
    source = (
        '"""np.arange in a docstring is prose."""\n'
        "import numpy as np\n"
        "import numpy\n"
        "from numpy import arange, zeros\n"
        "xs = np.arange(4)\n"
        "ys = numpy.arange(2, dtype=numpy.uint64)\n"
        "zs = range(4)\n"
        "ws = torch.arange(3)\n"
        "label = 'np.arange'\n"
        "f = np.arange\n"
        "from numpy import packbits as pack\n"
        "bits = np.packbits(xs, bitorder='little')\n"
        "words = np.unpackbits(bits)\n"
    )
    assert numpy_universe_calls(source) == [4, 5, 6, 10]
    assert numpy_universe_calls(source, ("packbits",)) == [11, 12]


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
