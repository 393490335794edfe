"""The demos run and print exactly their recorded output.

Each demo runs in its own interpreter with the package from `src/`; the
sha256 of its standard output is pinned, so any change to what a demo
prints (a number, a label, a line) shows here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_fields_witt_characters.py": "7f70de97fa73b363cc0bf36bd67a7108801fbfd552db50b94bd0b7ec7359505f",
    "02_counting_and_twists.py": "1111ca0bc82042bf76d902b9725689627079961f2ecd373fbfc117506017087b",
    "03_constructions.py": "2d1f4c04d06ce68d2bf999f3eeb74d7e543b8f944f364b41c8f4d54b19c25203",
    "04_period_scan.py": "2a78bbb9e89b62a18bd5a8e32d5f4457b8082aea4b544270177a3488170ee487",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output(name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, timeout=120, check=False,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[name]
