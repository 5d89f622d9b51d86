"""Finite words over the positive integers.

A word doubles as a continued-fraction period, so letters are positive
integers throughout. Words are plain tuples, so concatenation, halving
and reversal are tuple ``+`` and slicing (``w[::-1]``); this module adds
what tuples lack: validation, the text form, rotation and the palindrome
tests, all pure. The checks of :mod:`markovwords.theorems` carry their
words internally as ``bytes`` over relabelled letters 1, 2, ..., which
:func:`is_palindromic_rotation` reads as they are; the words the public
API returns are tuples.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterable, Sequence

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


def format_word(w: Iterable[int], sep: str = ",") -> str:
    """Render a word in its text form; inverse of :func:`parse_word`. With
    ``sep=", "`` it is the body of the word's JSON list. The letters are
    joined FORMAT_SLICE at a time, so a long word never holds one ``str``
    per letter."""
    letters = iter(w)
    return sep.join(iter(lambda: sep.join(map(str, islice(letters, FORMAT_SLICE))), ""))


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


def is_palindromic_rotation(x: Sequence[int], s: int) -> bool:
    """``is_palindrome(rotate(x, s))``, read on ``x`` as it is, so a
    ``bytes`` word is sliced without converting its letters."""
    if not x:
        raise ValueError("cannot rotate the empty word")
    s %= len(x)
    y = x[s:] + x[:s]
    return y == y[::-1]
