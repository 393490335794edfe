"""The benchmark's own unit tests, `bench/test_stats.py`, in a child.

They test the benchmark's arithmetic (self times, judging, reference
scaling) on synthetic data.  They cannot share an interpreter with this
suite: `bench/run.py` does `import reference` for `bench/reference.py`,
and here `reference` is already `tests/reference.py`.  So they run in
one child interpreter, and every one of them must be reported PASSED.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITE = "bench/test_stats.py"


def test_bench_unit_tests_pass():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         str(ROOT / SUITE)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    outcomes = []
    for line in run.stdout.splitlines():
        status, _, test = line.partition(" ")
        if status.isupper() and test.startswith(SUITE):
            outcomes.append(status)
    assert outcomes and set(outcomes) == {"PASSED"}, run.stdout + run.stderr
