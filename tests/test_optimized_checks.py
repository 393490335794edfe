"""Result checks that must survive `python -O`, which strips `assert`.

The skew, field, symplectic and families suites run again in a child
interpreter under -O: pytest keeps the asserts of test modules, so
every check of the package they reach (among them the OracleMismatch
raises of `from_subspace`, `factor_through_symmetric`,
`Fp2Subspace.from_vectors`, `PairingCtx` and the pivot and palindrome
checks of `curves.families`) is tested with the package's asserts gone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def assert_passes_under_python_O(suite):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / suite)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout


def test_skew_suite_passes_under_python_O():
    assert_passes_under_python_O("test_skew.py")


@pytest.mark.parametrize(
    "suite", ["test_gf2field.py", "test_symplectic.py", "test_families.py"]
)
def test_suite_passes_under_python_O(suite):
    assert_passes_under_python_O(suite)
