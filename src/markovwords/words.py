"""Finite words over the positive integers.

A word doubles as a continued-fraction period, so letters are positive
integers throughout. Words are plain tuples, so concatenation, halving
and reversal are tuple ``+`` and slicing (``w[::-1]``); this module adds
what tuples lack: validation, the text form, rotation and the palindrome
tests, all pure. The checks of :mod:`markovwords.theorems` carry their
words internally as ``bytes`` over relabelled letters 1, 2, ..., which
:func:`is_symmetric_about` reads as they are, one slice of ``x + x``
against ``x`` reversed; the words the public API returns are tuples.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]

# letters rendered per slice by format_word
FORMAT_SLICE = 1 << 16


def word(letters: Iterable[int]) -> Word:
    """Freeze an iterable of letters into a word, validating it: at least one
    letter, each an integer >= 1."""
    w = tuple(letters)
    if not w:
        raise ValueError("a word has at least one letter")
    for x in w:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"word letters must be integers >= 1, got {x!r}")
    return w


def parse_word(text: str) -> Word:
    """Parse the text form of a word: comma-separated ASCII decimals ``[0-9]+``,
    no spaces or signs.

    >>> parse_word("2,2,1,1")
    (2, 2, 1, 1)
    """
    if not text:
        raise ValueError("empty word literal")
    out = []
    for i, token in enumerate(text.split(","), 1):
        if not (token.isascii() and token.isdigit()) or int(token) < 1:
            # the message quotes ten characters, so it stays short
            raise ValueError(f"invalid word letter {token[:10]!r}"
                             f"{'...' * (len(token) > 10)} at position {i}")
        out.append(int(token))
    return tuple(out)


def format_pieces(w: Iterable[int], sep: str = ",") -> Iterator[str]:
    """The text of :func:`format_word` in pieces, one per FORMAT_SLICE
    letters, each piece after the first led by ``sep``.

    Each slice of letters is joined at once, so a long word never holds one
    ``str`` per letter, and written piece by piece it is never held whole.
    """
    letters = iter(w)
    pieces = iter(lambda: sep.join(map(str, islice(letters, FORMAT_SLICE))), "")
    yield next(pieces, "")
    yield from map(sep.__add__, pieces)


def format_word(w: Iterable[int], sep: str = ",") -> str:
    """Render a word in its text form; inverse of :func:`parse_word`. With
    ``sep=", "`` it is the body of the word's JSON list."""
    return "".join(format_pieces(w, sep))


def rotate(x: Sequence[int], i: int) -> Word:
    """Left rotation by ``i`` (mod length): the letter at zero-based position
    ``i`` comes first."""
    w = tuple(x)
    if not w:
        raise ValueError("cannot rotate the empty word")
    i %= len(w)
    return w[i:] + w[:i]


def is_palindrome(x: Sequence[int]) -> bool:
    w = tuple(x)
    if not w:
        raise ValueError("the empty word is only a concatenation identity")
    return w == w[::-1]


def is_symmetric_about(x: Sequence[int], c: int) -> bool:
    """Whether ``x[j] == x[(c - j) % len(x)]`` for every j: read around the
    circle, the word mirrors itself about position c/2.

    That is x rotated left by d = (c + 1) mod m, m = |x|, equal to x
    reversed. The rotation (x + x)[d:d + m] is x[d:] + x[:d], and x reversed
    is x[d:] reversed, then x[:d] reversed; the parts have equal lengths, so
    the two agree exactly when x[:d] and x[d:] are palindromes, which is
    x[j] == x[(d - 1 - j) % m] for j < d and for j >= d, at every 0 <= d <= m.
    A ``bytes`` word is sliced as it is, without converting its letters.
    """
    m = len(x)
    if not m:
        raise ValueError("the empty word has no mirror axis")
    d = (c + 1) % m
    return (x + x)[d:d + m] == x[::-1]


def is_palindromic_rotation(x: Sequence[int], s: int) -> bool:
    """``is_palindrome(rotate(x, s))``, read on ``x`` as it is: the rotation's
    letters i and m-1-i are x[s + i] and x[2s - 1 - (s + i)], mod m, so it
    is one exactly when :func:`is_symmetric_about` ``(x, 2s - 1)``."""
    return is_symmetric_about(x, 2 * s - 1)
