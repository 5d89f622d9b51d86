"""Ordered Markov words, their palindromic circular shifts, and exact
Markov spectrum values via the Perron identity.

The package is organised around three layers: word algebra (``words``),
the integer sequences and concatenation graph generating the family S(n)
(``diatomic``, ``tree``), and the verification / spectrum layers on top
(``theorems``, ``spectrum``). A CLI (``markovwords``) fronts all of it.
The names exported here are the ones a command or a claim reads; the
reference constructions the tests compare against live in the tests.
"""

from .diatomic import a_of, a_star, a_table, stern, stern_table
from .spectrum import (
    BQForm,
    LatticeMinimum,
    MarkovValue,
    QuadraticSurd,
    bqf_min,
    cf_matrix,
    is_markov_sequence,
    markov_element,
    markov_value,
    zero_tail,
)
from .theorems import (
    VerificationReport,
    block_rearrangement,
    even_index_factorization,
    iter_block_rearrangement,
    iter_equivalence,
    iter_lemma_checks,
    iter_shift_palindromic,
    mirror_index,
    odd_index_factorization,
    random_palindrome,
    verify_block_rearrangement,
    verify_mirror,
    verify_shift_palindromic,
)
from .tree import (
    Vertex,
    block_labels,
    level,
    root,
    s_graph,
    s_rec,
    step_left,
    step_right,
    walk,
)
from .words import (
    Word,
    evenly_palindromic_shift,
    format_word,
    is_oddly_palindromic,
    is_palindrome,
    is_palindromic_rotation,
    parse_word,
    reverse,
    rotate,
    word,
)

__version__ = "0.1.0"

__all__ = [
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
    "block_labels",
    "bqf_min",
    "block_rearrangement",
    "cf_matrix",
    "even_index_factorization",
    "evenly_palindromic_shift",
    "format_word",
    "is_markov_sequence",
    "is_oddly_palindromic",
    "is_palindrome",
    "is_palindromic_rotation",
    "iter_block_rearrangement",
    "iter_equivalence",
    "iter_lemma_checks",
    "iter_shift_palindromic",
    "level",
    "markov_element",
    "markov_value",
    "mirror_index",
    "odd_index_factorization",
    "parse_word",
    "random_palindrome",
    "reverse",
    "root",
    "rotate",
    "s_graph",
    "s_rec",
    "step_left",
    "step_right",
    "stern",
    "stern_table",
    "verify_block_rearrangement",
    "verify_mirror",
    "verify_shift_palindromic",
    "walk",
    "word",
    "zero_tail",
]
