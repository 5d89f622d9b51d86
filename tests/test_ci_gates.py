"""The workflow's checks of ``scan``, ``spectrum`` and ``bqf`` stdout against
``perfbench/oracles.py``, as tier-1 tests.

Each command runs in a fresh ``python -m markovwords.cli`` process, as the
workflow runs it, and its stdout goes to the same oracle function with the
same arguments, each read by ``ast.literal_eval`` from the text the
workflow passes. The period of ``spectrum`` is the stdout of a fresh
``seq --n 1366``, without its final newline, as the shell's ``$(...)``
gives it.
"""
import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ORACLES = ROOT / "perfbench" / "oracles.py"
# stands for the stdout of ``seq --n 1366`` in a command and its arguments
PERIOD = "$(seq --n 1366)"

GATES = [
    (["scan", "--n-max", "320", "--json"], "check_scan", ["320"]),
    (["spectrum", "--period", PERIOD], "check_spectrum", [f"({PERIOD})"]),
    (["bqf", "--form", "1,1,-1", "--radius", "350"], "check_bqf", ["(1,1,-1)", "1", "350"]),
    (["bqf", "--form", "1,2,-1", "--radius", "350"], "check_bqf", ["(1,2,-1)", "2", "350"]),
    (["bqf", "--form", "5,11,-5", "--radius", "350"], "check_bqf", ["(5,11,-5)", "5", "350"]),
]


def launch(*argv: str) -> bytes:
    """The stdout of ``python -m markovwords.cli argv`` in a fresh process, which must exit 0."""
    proc = subprocess.run([sys.executable, "-m", "markovwords.cli", *argv], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.fixture(scope="module")
def oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, check, args", GATES, ids=[" ".join(g[0]) for g in GATES])
def test_stdout_passes_the_perfbench_oracle(oracles, argv, check, args):
    if any(PERIOD in text for text in argv + args):
        period = launch("seq", "--n", "1366").decode().rstrip("\n")
        argv, args = ([text.replace(PERIOD, period) for text in texts] for texts in (argv, args))
    out = launch(*argv)
    assert getattr(oracles, check)(out, *map(ast.literal_eval, args)) is None
