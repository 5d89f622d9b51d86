"""The package's exported names: what a command or a claim reads."""
import os
import subprocess
import sys
from pathlib import Path

import markovwords

SRC = str(Path(markovwords.__file__).parents[1])

PUBLIC = [
    "BQForm",
    "LatticeMinimum",
    "MarkovValue",
    "QuadraticSurd",
    "VerificationReport",
    "Vertex",
    "Word",
    "a_of",
    "a_star",
    "a_table",
    "block_rearrangement",
    "bqf_min",
    "cf_matrix",
    "even_index_factorization",
    "format_word",
    "is_palindrome",
    "is_palindromic_rotation",
    "iter_block_rearrangement",
    "iter_equivalence",
    "iter_lemma_checks",
    "iter_shift_palindromic",
    "markov_value",
    "odd_index_factorization",
    "parse_word",
    "reverse",
    "root",
    "rotate",
    "s_rec",
    "stern",
    "stern_table",
    "verify_block_rearrangement",
    "verify_shift_palindromic",
    "walk",
    "word",
    "zero_tail",
]


def test_public_surface_is_pinned():
    # a name added to __all__ must be added here too, on purpose
    assert len(markovwords.__all__) == len(set(markovwords.__all__))
    assert set(markovwords.__all__) == set(PUBLIC)
    assert len(PUBLIC) == len(set(PUBLIC))
    for name in PUBLIC:
        assert hasattr(markovwords, name), name


def test_each_name_is_the_object_of_its_home_module():
    # a fresh interpreter, so that each name is first read through the package
    code = """
import importlib
import markovwords
names = {name: getattr(markovwords, name) for name in markovwords.__all__}
layers = [importlib.import_module("markovwords." + m)
          for m in ("diatomic", "spectrum", "theorems", "tree", "words")]
for name, value in names.items():
    homes = [m for m in layers if name in vars(m)]
    assert homes, name
    assert all(vars(m)[name] is value for m in homes), name
"""
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": SRC})


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from markovwords import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
