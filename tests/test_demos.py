"""Pinned stdout of the demo scripts.

Each demo runs in a fresh interpreter with ``src`` on PYTHONPATH; its exit
status must be 0 and the sha256 of its stdout must match the digest
recorded before the index arithmetic moved to closed forms.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "01_words_and_rotations.py":
        "5478bc17b21ed637199f155aa291964ba834c284b94fafdc908ed84b7492e2bd",
    "02_tree_and_recursion.py":
        "8ce66717ae7ab04b07864cf0e7ccc627833f334bf60d697fe3f90aceec899ea4",
    "03_palindromic_shifts.py":
        "2e27183eec2fe38267857b60abd0ee10011429c9f6451f2c2ff6c313f87852c8",
    "04_spectrum_values.py":
        "1871b23a8b1f32a38fd37fabbbc97e3d9a5772556ee0b0994815cf426501f288",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_stdout(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DEMOS[name]
