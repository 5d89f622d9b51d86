"""The end-to-end benchmark's contract with the library.

``perfbench/traced.py`` wraps library functions by name and
``perfbench/run.py`` reads both memo caches (``tree._s_rec_cached``,
``diatomic.stern``) from its summaries by name, so renaming or deleting
one of them breaks ``perfbench/run.py --trace 1`` and nothing else. These
tests run the benchmark's own scripts, unchanged, in fresh interpreters:
its self-test, and a traced run of small commands from both workloads.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

COMMANDS = [
    ("scan", "--n-max", "4", "--json"),
    ("spectrum", "--period", "1,1"),
    ("bqf", "--form", "1,1,-1", "--radius", "3"),
    ("verify", "prop-main", "--n-max", "8", "--a", "3", "--b", "7"),
    ("verify", "lemmas", "--k-max", "8"),
]


def launch(*argv: str) -> subprocess.CompletedProcess:
    """``python argv`` from the repository root with src on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each command run plainly and under traced.py: (plain, traced, trace file)."""
    runs = {}
    for argv in COMMANDS:
        trace_file = tmp_path_factory.mktemp("trace") / "trace.json"
        runs[argv] = (launch("-m", "markovwords.cli", *argv),
                      launch(str(PERFBENCH / "traced.py"), str(trace_file), *argv),
                      trace_file)
    return runs


def test_selftest_passes():
    proc = launch(str(PERFBENCH / "selftest.py"))
    assert proc.returncode == 0, (proc.stdout + proc.stderr).decode()
    assert proc.stdout.endswith(b"selftest: ok\n")


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_traced_run_keeps_stdout_and_reads_both_caches(traced, argv):
    plain, run, trace_file = traced[argv]
    assert plain.returncode == 0, plain.stderr.decode()
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == plain.stdout
    summary = json.loads(run.stderr.decode().splitlines()[-1])
    assert {"tree._s_rec_cached", "diatomic.stern"} <= set(summary["caches"])
    assert json.loads(trace_file.read_text())["caches"] == summary["caches"]


def test_run_reads_every_per_layer_metric_from_the_summaries(traced):
    # run.py's own layer_metrics, on the summaries of all five commands
    summaries = [json.loads(run.stderr.decode().splitlines()[-1]) for _, run, _ in traced.values()]
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); from run import layer_metrics; "
            "print(json.dumps(sorted(layer_metrics(json.load(sys.stdin), 0))))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, timeout=60,
                          input=json.dumps(summaries).encode(), capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # trace.overhead_s compares traced with untraced sessions; run.py adds it later
    assert set(json.loads(proc.stdout)) == declared - {"trace.overhead_s"}
