"""Opt-in line-trace audit: which statements under src/ did no test run?

The reach rule of `test_imports.py` is static, so it cannot see an
operator dunder that nothing applies or a handler for a state no input
reaches.  This pytest plugin traces every line executed in the package
with `sys.settrace` while the suite runs and, at the end, lists each
statement under `src/` that never ran.  `raise` statements and
`return NotImplemented` are left out: they guard states rather than
compute.  Run it with

    PYTHONPATH=src:tests python -m pytest -p trace_audit

Tracing slows the suite about 2.5 times over, so a test that times
code could fail under it.  The hook keeps one local tracer per file
and makes no closure per call, so the suite's memory bounds hold
under it.  Code run in a subprocess is not traced.  The file is no
test module, so pytest never collects it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import Callable

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aswcurves"


def executable_lines(code) -> set[int]:
    """Every line a code object, or one nested in it, runs bytecode on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are not lines of a nested statement:
    the header of a compound statement, all of a simple one."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(start, body[0].lineno)
    return range(start, node.end_lineno + 1)


def _exempt(node: ast.stmt) -> bool:
    return isinstance(node, ast.Raise) or (
        isinstance(node, ast.Return)
        and isinstance(node.value, ast.Name)
        and node.value.id == "NotImplemented"
    )


def unexecuted(path: Path, hits: set[int]) -> list[tuple[int, str]]:
    """(line, first source line) of each statement in `path` that has
    executable lines and none of them in `hits`."""
    source = path.read_text()
    executable = executable_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or _exempt(node):
            continue
        own = executable.intersection(_own_lines(node))
        if own and not own & hits:
            found.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(found)


class LineAudit:
    """The lines each package file ran, recorded by a `sys.settrace` hook."""

    def __init__(self) -> None:
        self.hits: dict[str, set[int]] = {}
        self._tracers: dict[str, Callable | None] = {}  # co_filename -> local tracer

    def _tracer_of(self, filename: str) -> Callable | None:
        """One local tracer per package file, built at its first call:
        it records the line of every event in the file's frames (the
        first line of a call, then each line, return and exception)."""
        path = os.path.realpath(filename)
        if not path.startswith(str(PACKAGE) + os.sep):
            return None
        hits = self.hits.setdefault(path, set())

        def local(frame, event, arg):
            hits.add(frame.f_lineno)
            return local

        return local

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            local = self._tracers[filename]
        except KeyError:
            local = self._tracers[filename] = self._tracer_of(filename)
        return local and local(frame, event, arg)

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        threading.settrace(None)
        report = [
            f"{path.relative_to(PACKAGE.parent.parent)}:{line}: {text}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for line, text in unexecuted(path, self.hits.get(str(path), set()))
        ]
        terminalreporter.section("trace audit")
        terminalreporter.write_line(f"{len(report)} statements under src/ never ran")
        for entry in report:
            terminalreporter.write_line(entry)


def pytest_configure(config):
    audit = LineAudit()
    config.pluginmanager.register(audit, "trace-audit-lines")
    threading.settrace(audit.trace)
    sys.settrace(audit.trace)
