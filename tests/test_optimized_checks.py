"""Result checks that must survive `python -O`, which strips `assert`.

The skew suite runs again in a child interpreter under -O: pytest keeps
the asserts of test modules, so every check of the package it reaches
(among them the OracleMismatch raises of `from_subspace` and
`factor_through_symmetric`) is tested with the package's asserts gone.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_skew_suite_passes_under_python_O():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_skew.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout
