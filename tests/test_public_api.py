"""The package's exported names: what a command or a claim reads."""
import markovwords

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
    "block_labels",
    "block_rearrangement",
    "bqf_min",
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


def test_public_surface_is_pinned():
    # a name added to __all__ must be added here too, on purpose
    assert len(markovwords.__all__) == len(set(markovwords.__all__))
    assert set(markovwords.__all__) == set(PUBLIC)
    assert len(PUBLIC) == len(set(PUBLIC))
    for name in PUBLIC:
        assert hasattr(markovwords, name), name
