"""Per-layer timings, one case per layer operation, on fixed inputs.

Needs pytest-benchmark, the ``bench`` extra (``pip install -e '.[bench]'``).
Run from the repository root (not part of the tier-1 suite, whose
testpaths is ``tests``):

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py \
        --benchmark-json=.benchmarks/layers.json
    python benchmarks/summarize.py .benchmarks/layers.json BENCH_11.json

Every round starts from cold memo caches. No case reads them: every word
comes from ``walk`` and d(n) from ``stern_table``, so a case that came to
read them would pay for them in each round. The walk runs on the byte
label seeds the sweeps use. ``test_reference`` and ``test_reference_last``
time the ``main`` of ``perfbench/reference.py``, a fixed job that imports
nothing from markovwords, so its time moves only with the machine; they
run first and last, and ``summarize.py`` divides every median by the mean
of their two medians. The lemma checks are the cases of
``verify lemmas --k-max 262144``, read from the suite's own case list with
the tables it shares, built once outside the timed calls;
``test_lemma_suite`` times the whole suite, its one table build included.
``test_prop_main_sweep`` times the library's report for every index;
``test_prop_main_command`` times ``verify prop-main`` as the command line
runs it, stdout to ``/dev/null``. The theorem sweep is the default
``verify theorem``. The spectrum cases take S(n) on (1,1), (2,2) at the
smallest index of each length L, and the Markov form of ``bqf`` at radius
200 and at the benchmark's 350. ``test_scan_values`` times the values
``scan --n-max 320`` prints: the walk of (word, convergent matrix) pairs
and the value read from each matrix. ``test_launch`` times whole fresh
``python -m markovwords.cli`` launches, as a user runs them, stdout to
``/dev/null``: ``bqf`` at radius 1 is start-up and exit alone,
``scan --json --n-max 320`` is the benchmark's scan,
``verify lemmas --k-max 8`` adds the ``verify`` layers and a small sweep,
and ``verify prop-main --n-max 32768 --a 3 --b 7`` is the benchmark's
sweep. Each launch runs with ``-B`` on a copy of the package that has no
``__pycache__``, so every round compiles the modules it imports, as a
launch with bytecode writing off does, whatever bytecode the repository
holds; the standard library still reads its own cache.
"""
import importlib.util
import os
import shutil
import subprocess
import sys
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from markovwords import cli, theorems
from markovwords.diatomic import a_of, stern, stern_table
from markovwords.spectrum import (BQForm, _join_convergents, _markov_value_from, bqf_min,
                                  cf_matrix, markov_value)
from markovwords.tree import _s_rec_cached, walk

ROUNDS = 7
K_MAX = 262144
# each lemma check of the suite by name: the check, its tables and its bound
LEMMA_CASES = {check.__name__: (check, tables, bound)
               for _, check, tables, bound in theorems._lemma_cases(K_MAX)}
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
# the smallest index n with |S(n)| = L, seeds (1,1), (2,2)
SPECTRUM_INDEX = {178: 342, 1220: 5462, 3194: 21846}


def cold_caches():
    stern.cache_clear()
    _s_rec_cached.cache_clear()
    theorems._lane_mask.cache_clear()


def measure(benchmark, fn, *args, size):
    benchmark.extra_info["input_size"] = size
    return benchmark.pedantic(fn, args, setup=cold_caches, rounds=ROUNDS, iterations=1)


def drain(iterable):
    deque(iterable, maxlen=0)


def time_reference(benchmark):
    spec = importlib.util.spec_from_file_location("reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    measure(benchmark, reference.main, size=reference.MEMO_N)


def test_reference(benchmark):
    time_reference(benchmark)


def test_stern_table(benchmark):
    table = measure(benchmark, stern_table, 2 ** 20, size=2 ** 20)
    assert len(table) == 2 ** 20 + 1


def test_a_of(benchmark):
    measure(benchmark, lambda: drain(map(a_of, range(1, 2 ** 20 + 1))), size=2 ** 20)


def test_walk(benchmark):
    measure(benchmark, lambda: drain(walk(*theorems.LABEL_SEEDS, 1, 2 ** 15)), size=2 ** 15)


def spectrum_word(length):
    w = next(walk((1, 1), (2, 2), SPECTRUM_INDEX[length], SPECTRUM_INDEX[length]))
    assert len(w) == length
    return w


@pytest.mark.parametrize("length", list(SPECTRUM_INDEX))
def test_cf_matrix(benchmark, length):
    measure(benchmark, cf_matrix, spectrum_word(length), size=length)


@pytest.mark.parametrize("length", list(SPECTRUM_INDEX))
def test_markov_value(benchmark, length):
    measure(benchmark, markov_value, spectrum_word(length), size=length)


def test_to_decimal(benchmark):
    value = markov_value(spectrum_word(178)).value
    assert len(measure(benchmark, value.to_decimal, 1000, size=1000)) == 1002


@pytest.mark.parametrize("radius", [200, 350])
def test_bqf_min(benchmark, radius):
    assert measure(benchmark, bqf_min, BQForm(1, 1, -1), radius, size=radius).min_abs == 1


def test_scan_values(benchmark):
    seeds = [(w, cf_matrix(w)) for w in ((1, 1), (2, 2))]

    def values():
        pairs = walk(*seeds, 1, 320, join=_join_convergents)
        return [_markov_value_from(w, m) for w, m in pairs]

    assert len(measure(benchmark, values, size=320)) == 320


def test_prop_main_sweep(benchmark):
    def sweep():
        assert all(rep.passed for rep in theorems.iter_shift_palindromic(32768, 1, 2))

    measure(benchmark, sweep, size=32768)


def test_prop_main_command(benchmark):
    # the command as the benchmark's verify_sweep runs it, in process:
    # the verdict stream, one line per index and the tally, with its
    # output thrown away
    def command():
        with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
            return cli.main(["verify", "prop-main", "--n-max", "32768", "--a", "3", "--b", "7"])

    assert measure(benchmark, command, size=32768) == 0


def test_theorem_sweep(benchmark):
    def sweep():
        assert len(list(theorems.iter_block_rearrangement(512, 200, 42))) == 200

    measure(benchmark, sweep, size=512)


@pytest.mark.parametrize("name", list(LEMMA_CASES))
def test_lemma_check(benchmark, name):
    check, tables, bound = LEMMA_CASES[name]
    assert measure(benchmark, check, *tables, bound, size=bound) is None


def test_lemma_suite(benchmark):
    def suite():
        assert all(rep.passed for rep in theorems.iter_lemma_checks(K_MAX))

    measure(benchmark, suite, size=K_MAX)


LAUNCHES = {"bqf": ["bqf", "--form", "1,1,-1", "--radius", "1"],
            "scan": ["scan", "--json", "--n-max", "320"],
            "lemmas": ["verify", "lemmas", "--k-max", "8"],
            "prop-main": ["verify", "prop-main", "--a", "3", "--b", "7", "--n-max", "32768"]}
PACKAGE = Path(cli.__file__).resolve().parent


@pytest.fixture(scope="module")
def bare_src(tmp_path_factory):
    """A directory holding a copy of the package without its ``__pycache__``."""
    src = tmp_path_factory.mktemp("src")
    shutil.copytree(PACKAGE, src / PACKAGE.name, ignore=shutil.ignore_patterns("__pycache__"))
    return str(src)


@pytest.mark.parametrize("command", list(LAUNCHES))
def test_launch(benchmark, bare_src, command):
    # a fresh interpreter each round: start, import, the command, shutdown;
    # ``-B`` on a copy with no bytecode, so every round compiles the package;
    # no timeout, since waiting with one polls and rounds the time up
    def launch():
        return subprocess.run([sys.executable, "-B", "-m", "markovwords.cli", *LAUNCHES[command]],
                              env={**os.environ, "PYTHONPATH": bare_src},
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode

    benchmark.extra_info["input_size"] = int(LAUNCHES[command][-1])
    assert benchmark.pedantic(launch, rounds=ROUNDS, iterations=1) == 0


def test_reference_last(benchmark):
    # timed again after every other case, so the two medians bracket the file
    time_reference(benchmark)
