"""The workflow's command-line gates, as tier-1 tests: the exit status of
each command of both benchmark workloads and of a few more, and the stdout
of prop-main, lemmas, ``scan``, ``spectrum`` and ``bqf`` against
``perfbench/oracles.py``.

Each command runs in a fresh ``python -m markovwords.cli`` process, as the
workflow runs it. A prop-main or lemmas stdout must equal the oracle's
expected bytes (``check_exact``); a ``scan``, ``spectrum`` or ``bqf`` stdout
goes to the same oracle function with the same arguments, each read by
``ast.literal_eval`` from the text the workflow passes. The period of
``spectrum`` is the stdout of a fresh ``seq --n 1366``, without its final
newline, as the shell's ``$(...)`` gives it.
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

PROP_MAIN = ["verify", "prop-main", "--n-max", "32768", "--a", "3", "--b", "7"]
# both workloads' commands at benchmark size, verify equivalence and 5000
# digits exit 0; a table past sys.maxsize entries exits 2
STATUSES = [
    (["verify", "lemmas", "--k-max", "262144"], 0),
    (["verify", "lemmas", "--k-max", "300001", "--json"], 0),
    (["verify", "lemmas", "--k-max", "4194304"], 0),
    (PROP_MAIN, 0),
    ([*PROP_MAIN, "--json"], 0),
    (["scan", "--n-max", "320", "--json"], 0),
    (["spectrum", "--period", PERIOD], 0),
    (["bqf", "--form", "1,1,-1", "--radius", "350"], 0),
    (["bqf", "--form", "1,2,-1", "--radius", "350"], 0),
    (["bqf", "--form", "5,11,-5", "--radius", "350"], 0),
    (["verify", "equivalence"], 0),
    (["spectrum", "--period", "1,2", "--digits", "5000"], 0),
    (["verify", "lemmas", "--k-max", "9223372036854775808"], 2),
]
# prop-main and lemmas stdout, byte for byte: the expected function and its bound
EXACT = [
    (PROP_MAIN, "prop_main_expected", 32768),
    (["verify", "prop-main", "--n-max", "131072", "--a", "9", "--b", "1"],
     "prop_main_expected", 131072),
    (["verify", "lemmas", "--k-max", "262144"], "lemmas_expected", 262144),
]
GATES = [
    (["scan", "--n-max", "320", "--json"], "check_scan", ["320"]),
    (["spectrum", "--period", PERIOD], "check_spectrum", [f"({PERIOD})"]),
    (["bqf", "--form", "1,1,-1", "--radius", "350"], "check_bqf", ["(1,1,-1)", "1", "350"]),
    (["bqf", "--form", "1,2,-1", "--radius", "350"], "check_bqf", ["(1,2,-1)", "2", "350"]),
    (["bqf", "--form", "5,11,-5", "--radius", "350"], "check_bqf", ["(5,11,-5)", "5", "350"]),
]


def launch(*argv: str, status: int = 0) -> bytes:
    """The stdout of ``python -m markovwords.cli argv`` in a fresh process,
    which must exit with ``status``."""
    proc = subprocess.run([sys.executable, "-m", "markovwords.cli", *argv], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, timeout=120)
    assert proc.returncode == status, proc.stderr.decode()
    return proc.stdout


def with_period(*texts: list[str]) -> list[list[str]]:
    """``texts`` with PERIOD replaced by the stdout of a fresh ``seq --n 1366``."""
    if not any(PERIOD in text for part in texts for text in part):
        return list(texts)
    period = launch("seq", "--n", "1366").decode().rstrip("\n")
    return [[text.replace(PERIOD, period) for text in part] for part in texts]


@pytest.fixture(scope="module")
def oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, status", STATUSES, ids=[" ".join(s[0]) for s in STATUSES])
def test_exit_status(argv, status):
    (argv,) = with_period(argv)
    launch(*argv, status=status)


@pytest.mark.parametrize("argv, expected, bound", EXACT, ids=[" ".join(e[0]) for e in EXACT])
def test_stdout_equals_the_perfbench_oracle(oracles, argv, expected, bound):
    out = launch(*argv)
    assert oracles.check_exact(out, getattr(oracles, expected)(bound), expected) is None


@pytest.mark.parametrize("argv, check, args", GATES, ids=[" ".join(g[0]) for g in GATES])
def test_stdout_passes_the_perfbench_oracle(oracles, argv, check, args):
    argv, args = with_period(argv, args)
    out = launch(*argv)
    assert getattr(oracles, check)(out, *map(ast.literal_eval, args)) is None
