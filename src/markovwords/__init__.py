"""Ordered Markov words, their palindromic circular shifts, and exact
Markov spectrum values via the Perron identity.

The package is organised around three layers: word algebra (``words``),
the integer sequences and concatenation graph generating the family S(n)
(``diatomic``, ``tree``), and the verification / spectrum layers on top
(``theorems``, ``spectrum``). A CLI (``markovwords``) fronts all of it.
The names exported here are the ones a command or a claim reads; the
reference constructions the tests compare against live in the tests.

``import markovwords`` loads none of the layers: each exported name is
imported from its home module on first use (PEP 562), so a command
compiles only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name and the module that defines it
_HOME = {name: module for module, names in [
    ("diatomic", "a_of a_star a_table stern stern_table"),
    ("spectrum", "BQForm LatticeMinimum MarkovValue QuadraticSurd bqf_min cf_matrix"
                 " markov_value zero_tail"),
    ("theorems", "VerificationReport block_rearrangement even_index_factorization"
                 " iter_block_rearrangement iter_equivalence iter_lemma_checks"
                 " iter_shift_palindromic odd_index_factorization"
                 " verify_block_rearrangement verify_shift_palindromic"),
    ("tree", "Vertex root s_rec walk"),
    ("words", "Word format_word is_palindrome is_palindromic_rotation parse_word"
              " reverse rotate word"),
] for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import ``name`` from its home module and bind it here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
