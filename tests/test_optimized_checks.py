"""The command line under `python -O`, as a smoke test.

`python -O` changes a program in two ways only: it strips `assert`
statements and reads `__debug__` as False.  `tests/test_imports.py`
fails on either anywhere under `src/`, so the package runs the same
code with and without -O.  That static check is the stronger proof:
it covers every module and every input, where rerunning suites under
-O covers only the inputs those suites reach.

What is left to show is that the entry point runs under -O at all.
The CLI suite, which drives every subcommand, every exit code and the
grammar fuzz, runs again in one child interpreter under -O (pytest
keeps the asserts of the test module itself), and every one of its
tests must be reported PASSED.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITE = "tests/test_cli.py"


def test_cli_suite_passes_under_python_O():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         str(ROOT / SUITE)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    outcomes = set()
    for line in run.stdout.splitlines():
        status, _, test = line.partition(" ")
        if status.isupper() and test.startswith(SUITE):
            outcomes.add(status)
    assert outcomes == {"PASSED"}, run.stdout + run.stderr
