import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st
from oracles import is_symmetric_about, reverse, verify_mirror

from markovwords.spectrum import cf_matrix, markov_value, zero_tail
from markovwords.seedpairs import block_rearrangement, verify_rearrangement_pair
from markovwords.tree import s_rec, walk
from markovwords.words import (
    FORMAT_SLICE,
    format_word,
    is_palindrome,
    is_palindromic_rotation,
    parse_word,
    rotate,
    word,
)

letters = st.integers(min_value=1, max_value=9)
words = st.lists(letters, min_size=1, max_size=12).map(tuple)


def test_reverse_examples():
    assert reverse((1, 2, 3)) == (3, 2, 1)
    assert reverse((1, 2, 1)) == (1, 2, 1)


def test_rotate_examples():
    assert rotate((1, 1, 1, 1, 2, 2), 2) == (1, 1, 2, 2, 1, 1)
    assert rotate((5, 6, 7), 0) == (5, 6, 7)
    s14 = (1, 1, 2, 2, 1, 1, 2, 2, 2, 2, 1, 1, 2, 2, 2, 2)
    assert rotate(s14, 3) == (2, 1, 1, 2, 2, 2, 2, 1, 1, 2, 2, 2, 2, 1, 1, 2)


def test_rotate_rejects_empty():
    with pytest.raises(ValueError):
        rotate((), 1)


def test_is_palindrome_examples():
    assert is_palindrome((1, 2, 1))
    assert not is_palindrome((2, 2, 1, 1))
    s14 = (1, 1, 2, 2, 1, 1, 2, 2, 2, 2, 1, 1, 2, 2, 2, 2)
    assert is_palindrome(rotate(s14, 3))
    with pytest.raises(ValueError):
        is_palindrome(())


def first_palindromic_shift(w):
    """The least s with rotate(w, s) a palindrome, or None when there is none."""
    return next((s for s in range(len(w)) if is_palindromic_rotation(w, s)), None)


def test_evenly_palindromic_shift_examples():
    assert first_palindromic_shift((1, 1, 1, 1, 2, 2)) == 2
    assert first_palindromic_shift((1, 2, 1, 2)) is None
    assert first_palindromic_shift((1, 1, 2, 2)) == 1


def test_is_oddly_palindromic_examples():
    assert first_palindromic_shift((1,)) == 0
    assert first_palindromic_shift((1, 2, 2)) == 2
    assert first_palindromic_shift((1, 2, 3)) is None


def test_word_validation():
    with pytest.raises(ValueError):
        word((1, 0, 2))
    with pytest.raises(ValueError):
        word((1, -3))
    with pytest.raises(ValueError):
        word((1, 2.5))


@pytest.mark.parametrize("call", [
    lambda: word(()),
    lambda: next(walk((), (2,), 0, 0)),
    lambda: next(walk((1,), (), 5, 9)),
    lambda: s_rec((), (2,), 3),
    lambda: s_rec((1,), (), 0),
    lambda: cf_matrix(()),
    lambda: zero_tail(()),
    lambda: markov_value(()),
    lambda: block_rearrangement((), (3,), 5),
    lambda: block_rearrangement((1,), (), 5),
    lambda: verify_rearrangement_pair(1, (), (3,), 5),
    lambda: verify_mirror((), (2,), 3),
    lambda: verify_mirror((1,), (), 3),
], ids=["word", "walk-A", "walk-B", "s_rec-A", "s_rec-B", "cf_matrix",
        "zero_tail", "markov_value", "block_rearrangement-A", "block_rearrangement-B",
        "verify_rearrangement_pair", "verify_mirror-A", "verify_mirror-B"])
def test_every_word_taking_entry_point_rejects_the_empty_word_through_word(call):
    # a word, seed or period has at least one letter; word() is the one
    # place that says so, and each entry point raises its message
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == "a word has at least one letter"


def test_parse_format_roundtrip():
    assert parse_word("2,2,1,1") == (2, 2, 1, 1)
    assert format_word((2, 2, 1, 1)) == "2,2,1,1"
    # any length, across the slice boundaries, from any iterable of letters
    rng = random.Random(5)
    for n in (0, 1, 3, FORMAT_SLICE - 1, FORMAT_SLICE, FORMAT_SLICE + 1, 199_999):
        w = tuple(rng.randint(1, 12) for _ in range(n))
        text = ",".join(str(x) for x in w)
        assert format_word(w) == format_word(iter(w)) == format_word(bytes(w)) == text
        assert not w or parse_word(text) == w
    with pytest.raises(ValueError):
        parse_word("2,x,1")
    with pytest.raises(ValueError):
        parse_word("2, 1")
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("0,1")
    for text in ("\u0661,\u0662", "1,\u00b2", "+1,2"):  # ASCII digits only
        with pytest.raises(ValueError, match="invalid word letter"):
            parse_word(text)


def test_format_word_memory_is_bounded():
    # one str per letter would peak near 60 MB on 2^20 letters
    w = b"\x01\x02" * 2 ** 19
    tracemalloc.start()
    try:
        text = format_word(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 2 ** 21 - 1
    assert peak < 16 * 2 ** 20


@given(words)
def test_reverse_involution(x):
    assert reverse(reverse(x)) == x


@given(words, st.integers(0, 30), st.integers(0, 30))
def test_rotate_composes(x, i, j):
    assert rotate(rotate(x, i), j) == rotate(x, (i + j) % len(x))


@given(st.lists(letters, min_size=1, max_size=6))
def test_even_palindrome_halves_mirror(half):
    w = tuple(half) + tuple(reversed(half))
    assert is_palindrome(w)
    assert reverse(w[:len(half)]) == w[len(half):]


@given(st.lists(letters, min_size=1, max_size=6).map(lambda h: tuple(h) + tuple(reversed(h))))
def test_palindrome_iff_shift_zero(w):
    # for even-length words, being a palindrome is exactly shift 0
    assert is_palindromic_rotation(w, 0)
    assert is_palindrome(w)


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=40).map(tuple))
def test_is_palindromic_rotation_matches_rotate(w):
    for s in range(-len(w), 2 * len(w)):
        assert is_palindromic_rotation(w, s) == is_palindrome(rotate(w, s)), (w, s)


def test_is_palindromic_rotation_examples():
    # S(5) for seeds (1,1),(2,2) rotated by d(5) = 3 is 1,1,1,2,2,1,1,1
    w = (1, 1, 1, 1, 1, 1, 2, 2)
    assert [s for s in range(8) if is_palindromic_rotation(w, s)] == [3, 7]
    assert is_palindromic_rotation((7,), 5)
    assert first_palindromic_shift((1, 2, 1)) == 0
    assert first_palindromic_shift((1, 2)) is None
    with pytest.raises(ValueError):
        is_palindromic_rotation((), 0)


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=40).map(tuple),
       st.integers(min_value=-10 ** 6, max_value=10 ** 6))
def test_is_symmetric_about_matches_its_definition(w, c):
    m = len(w)
    for axis in (c, c % m, -c, c * m + 1):
        expected = all(w[j] == w[(axis - j) % m] for j in range(m))
        assert is_symmetric_about(w, axis) == expected, (w, axis)
        assert is_symmetric_about(bytes(w), axis) == expected, (w, axis)


def test_shift_theorem_reads_the_label_word_about_its_mirror_axis():
    # S(n) on (1,1),(2,2) is L(n) on (1),(2) with every letter doubled, so
    # its rotation by t is a palindrome exactly when L(n) is symmetric
    # about t - 1: at every shift, the failing ones included
    failing = 0
    for n, s, labels in zip(range(1, 2 ** 10 + 1), walk(b"\x01\x01", b"\x02\x02", 1, 2 ** 10),
                            walk(b"\x01", b"\x02", 1, 2 ** 10)):
        assert s == bytes(x for x in labels for _ in (0, 1))
        for t in range(-2, 2 * len(s) + 3):
            expected = is_palindromic_rotation(s, t)
            assert is_symmetric_about(labels, t - 1) == expected, (n, t)
            failing += not expected
    assert failing > 10 ** 5


def test_is_symmetric_about_rejects_the_empty_word():
    with pytest.raises(ValueError):
        is_symmetric_about((), 0)
