"""Result checks that must survive `python -O`, which strips `assert`.

The skew, field, symplectic, families, twists, presentation, curve
base, period, Witt and CLI suites run again in one child interpreter
under -O: pytest keeps the asserts of test modules, so every check of
the package they reach (among them the OracleMismatch raises of
`from_subspace`, `factor_through_symmetric`, `Fp2Subspace.from_vectors`,
`PairingCtx`, the pivot and palindrome checks of `curves.families`, the
degree and route checks of `curves.twists`, the witness and recovery
checks of `curves.presentation`, the eigenvalue count of
`l_polynomial` and the exit codes of the command line) is tested with
the package's asserts gone.  Each test below reads its suite's
outcomes from the child's summary.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SUITES = (
    "test_skew.py",
    "test_gf2field.py",
    "test_symplectic.py",
    "test_families.py",
    "test_twists.py",
    "test_presentation.py",
    "test_curves_base.py",
    "test_period.py",
    "test_witt2.py",
    "test_cli.py",
)


@pytest.fixture(scope="module")
def optimized_run():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         *(str(ROOT / "tests" / suite) for suite in SUITES)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )


def assert_passes_under_python_O(run, suite):
    """Every test of the suite is listed as PASSED, and none otherwise."""
    outcomes = set()
    for line in run.stdout.splitlines():
        status, _, test = line.partition(" ")
        if status.isupper() and test.startswith(f"tests/{suite}"):
            outcomes.add(status)
    assert outcomes == {"PASSED"}, run.stdout + run.stderr


def test_skew_suite_passes_under_python_O(optimized_run):
    assert_passes_under_python_O(optimized_run, "test_skew.py")


@pytest.mark.parametrize("suite", SUITES[1:])
def test_suite_passes_under_python_O(optimized_run, suite):
    assert_passes_under_python_O(optimized_run, suite)
