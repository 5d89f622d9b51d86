"""Per-layer timings, one case per layer operation, on fixed inputs.

Run from the repository root (not part of the tier-1 suite, whose
testpaths is ``tests``):

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py \
        --benchmark-json=.benchmarks/layers.json
    python benchmarks/summarize.py .benchmarks/layers.json BENCH_6.json

Every round starts from cold memo caches, so the two lemma checks that
still build words through ``s_rec`` pay for their words in each round.
The lemma bounds are those ``verify lemmas --k-max 262144`` uses.
"""
from collections import deque

import pytest

from markovwords import theorems
from markovwords.diatomic import stern, stern_table
from markovwords.tree import _s_rec_cached, walk

ROUNDS = 7
K_MAX = 262144
LEVELS = K_MAX.bit_length() - 1
LEMMA_BOUNDS = {
    "check_length_identity": K_MAX,
    "check_length_is_diatomic": K_MAX,
    "check_half_length_chain": K_MAX,
    "check_factorizations": 4096,
    "check_shift_inequalities": K_MAX,
    "check_row_symmetry": min(LEVELS, 16),
    "check_mirror_arithmetic": min(LEVELS, 14),
    "check_index_identities": min(LEVELS, 14),
    "check_block_exponents": 4096,
}


def cold_caches():
    stern.cache_clear()
    _s_rec_cached.cache_clear()


def measure(benchmark, fn, *args, size):
    benchmark.extra_info["input_size"] = size
    return benchmark.pedantic(fn, args, setup=cold_caches, rounds=ROUNDS, iterations=1)


def drain(iterable):
    deque(iterable, maxlen=0)


def test_stern_table(benchmark):
    table = measure(benchmark, stern_table, 2 ** 20, size=2 ** 20)
    assert len(table) == 2 ** 20 + 1


def test_walk(benchmark):
    measure(benchmark, lambda: drain(walk((1, 1), (2, 2), 1, 2 ** 15)), size=2 ** 15)


def test_prop_main_sweep(benchmark):
    def sweep():
        assert all(rep.passed for rep in theorems.iter_shift_palindromic(32768, 1, 2))

    measure(benchmark, sweep, size=32768)


@pytest.mark.parametrize("name", list(LEMMA_BOUNDS))
def test_lemma_check(benchmark, name):
    bound = LEMMA_BOUNDS[name]
    assert measure(benchmark, getattr(theorems, name), bound, size=bound) is None
