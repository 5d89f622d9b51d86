import pytest
from hypothesis import given, strategies as st

from markovwords.words import (
    concat,
    evenly_palindromic_shift,
    format_word,
    half_ceil,
    half_floor,
    is_oddly_palindromic,
    is_palindrome,
    is_palindromic_rotation,
    parse_word,
    reverse,
    rotate,
    word,
)

letters = st.integers(min_value=1, max_value=9)
words = st.lists(letters, min_size=1, max_size=12).map(tuple)


def test_concat_examples():
    assert concat((2, 2), (1, 1)) == (2, 2, 1, 1)
    assert concat((7, 3), ()) == (7, 3)
    assert concat((), (7, 3)) == (7, 3)
    # (a,a) + (a,a) + (b,b) with a=1, b=2 is the index-3 word
    assert concat(concat((1, 1), (1, 1)), (2, 2)) == (1, 1, 1, 1, 2, 2)


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


def test_evenly_palindromic_shift_examples():
    assert evenly_palindromic_shift((1, 1, 1, 1, 2, 2)) == 2
    assert evenly_palindromic_shift((1, 2, 1, 2)) is None
    assert evenly_palindromic_shift((1, 1, 2, 2)) == 1


def test_evenly_palindromic_shift_rejects_odd():
    with pytest.raises(ValueError):
        evenly_palindromic_shift((1, 2, 1))
    with pytest.raises(ValueError):
        evenly_palindromic_shift(())


def test_is_oddly_palindromic_examples():
    assert is_oddly_palindromic((1,))
    assert is_oddly_palindromic((1, 2, 2))
    assert not is_oddly_palindromic((1, 2, 3))
    with pytest.raises(ValueError):
        is_oddly_palindromic((1, 2))


def test_half_split_examples():
    assert half_floor((2, 2)) == (2,) and half_ceil((2, 2)) == (2,)
    assert half_floor((1, 2, 1)) == (1,) and half_ceil((1, 2, 1)) == (2, 1)
    assert half_floor((1, 2, 2, 1)) == (1, 2) and half_ceil((1, 2, 2, 1)) == (2, 1)
    with pytest.raises(ValueError):
        half_floor(())


def test_word_validation():
    with pytest.raises(ValueError):
        word((1, 0, 2))
    with pytest.raises(ValueError):
        word((1, -3))
    with pytest.raises(ValueError):
        word((1, 2.5))


def test_parse_format_roundtrip():
    assert parse_word("2,2,1,1") == (2, 2, 1, 1)
    assert format_word((2, 2, 1, 1)) == "2,2,1,1"
    with pytest.raises(ValueError):
        parse_word("2,x,1")
    with pytest.raises(ValueError):
        parse_word("2, 1")
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("0,1")


@given(words, words)
def test_concat_length_additive(x, y):
    assert len(concat(x, y)) == len(x) + len(y)


@given(words)
def test_reverse_involution(x):
    assert reverse(reverse(x)) == x


@given(words, st.integers(0, 30), st.integers(0, 30))
def test_rotate_composes(x, i, j):
    assert rotate(rotate(x, i), j) == rotate(x, (i + j) % len(x))


@given(words)
def test_half_split_reassembles(x):
    assert concat(half_floor(x), half_ceil(x)) == x


@given(st.lists(letters, min_size=1, max_size=6))
def test_even_palindrome_halves_mirror(half):
    w = tuple(half) + tuple(reversed(half))
    assert is_palindrome(w)
    assert reverse(half_floor(w)) == half_ceil(w)


@given(st.lists(letters, min_size=1, max_size=6).map(lambda h: tuple(h) + tuple(reversed(h))))
def test_palindrome_iff_shift_zero(w):
    # for even-length words, being a palindrome is exactly shift 0
    assert evenly_palindromic_shift(w) == 0
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
    with pytest.raises(ValueError):
        is_palindromic_rotation((), 0)
