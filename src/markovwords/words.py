"""Finite words over the positive integers.

A word doubles as a continued-fraction period, so letters are positive
integers throughout. Words are plain tuples, so concatenation and
halving are tuple ``+`` and slicing; this module adds what tuples lack:
validation, the text form, rotation and the palindrome tests, all pure.
The checks of :mod:`markovwords.theorems` carry their words internally
as ``bytes`` over relabelled letters 1, 2, ..., which
:func:`is_symmetric_about` reads as they are; the words the public
API returns are tuples.
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
    for token in text.split(","):
        if not (token.isascii() and token.isdigit()) or int(token) < 1:
            raise ValueError(f"invalid word letter {token!r} in {text!r}")
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


def reverse(x: Sequence[int]) -> Word:
    return tuple(x)[::-1]


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

    Each pair of mirrored positions is compared once: the floor(m/2)
    letters read forwards from position c//2 + 1 against the floor(m/2)
    letters read backwards from position c - c//2 - 1, wrapping around the
    end of the word. The windows are slices of ``x`` itself, so a ``bytes``
    word is compared without converting its letters.
    """
    m = len(x)
    if not m:
        raise ValueError("the empty word has no mirror axis")
    c %= m
    h = m // 2
    # with 0 <= c < m the forward window ends by x[m-1], and the backward one
    # runs x[b], ..., x[0], then x[m-1], ... down to h letters in all
    f, b = c // 2 + 1, (c - 1) // 2  # b = c - c//2 - 1 is -1 at c = 0
    return x[f:f + h] == x[:b + 1][::-1] + x[:m - h + b:-1]


def is_palindromic_rotation(x: Sequence[int], s: int) -> bool:
    """``is_palindrome(rotate(x, s))`` without building the rotation: its
    letters i and m-1-i are x[s + i] and x[2s - 1 - (s + i)], mod m, so it
    is one exactly when :func:`is_symmetric_about` ``(x, 2s - 1)``."""
    return is_symmetric_about(x, 2 * s - 1)
