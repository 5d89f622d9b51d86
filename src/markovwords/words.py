"""Finite words over the positive integers.

A word doubles as a continued-fraction period, so letters are positive
integers throughout. Words are plain tuples; all operations are pure.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

Word = tuple[int, ...]


def word(letters: Iterable[int]) -> Word:
    """Freeze an iterable of letters into a word, validating each letter."""
    w = tuple(letters)
    for x in w:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"word letters must be integers >= 1, got {x!r}")
    return w


def parse_word(text: str) -> Word:
    """Parse the text form of a word: comma-separated decimal integers, no spaces.

    >>> parse_word("2,2,1,1")
    (2, 2, 1, 1)
    """
    if not text:
        raise ValueError("empty word literal")
    out = []
    for token in text.split(","):
        if not token.isdigit() or int(token) < 1:
            raise ValueError(f"invalid word letter {token!r} in {text!r}")
        out.append(int(token))
    return tuple(out)


def format_word(w: Sequence[int]) -> str:
    """Render a word in its text form; inverse of :func:`parse_word`."""
    return ",".join(str(x) for x in w)


def concat(x: Sequence[int], y: Sequence[int]) -> Word:
    """Concatenation; the empty word is the identity."""
    return tuple(x) + tuple(y)


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


def is_palindromic_rotation(x: Sequence[int], s: int) -> bool:
    """``is_palindrome(rotate(x, s))`` without building the rotation.

    The rotation is a palindrome when the floor(m/2) letters read forwards
    from position s equal the floor(m/2) letters read backwards from
    position s-1, both windows wrapping around the end of the word.
    """
    w = tuple(x)
    if not w:
        raise ValueError("cannot rotate the empty word")
    m = len(w)
    s %= m
    h = m // 2
    forward = w[s:s + h] if s + h <= m else w[s:] + w[:s + h - m]
    if s > h:
        backward = w[s - 1:s - h - 1:-1]
    else:  # w[s-1], ..., w[0], then w[m-1], ... down to h letters in all
        backward = w[:s][::-1] + w[:m - h + s - 1:-1]
    return forward == backward


def evenly_palindromic_shift(x: Sequence[int]) -> Optional[int]:
    """Smallest rotation amount making an even-length word palindromic.

    Returns None when no rotation works. Odd-length input is an error; use
    :func:`is_oddly_palindromic` for odd lengths.
    """
    w = tuple(x)
    if len(w) == 0 or len(w) % 2 != 0:
        raise ValueError("evenly_palindromic_shift needs even length >= 2")
    for k in range(len(w)):
        if is_palindrome(rotate(w, k)):
            return k
    return None


def is_oddly_palindromic(x: Sequence[int]) -> bool:
    """True when some rotation of an odd-length word is palindromic."""
    w = tuple(x)
    if len(w) % 2 == 0:
        raise ValueError("is_oddly_palindromic needs odd length")
    return any(is_palindrome(rotate(w, k)) for k in range(len(w)))


def half_floor(x: Sequence[int]) -> Word:
    """First half of a word: one-based positions 1..floor(m/2)."""
    w = tuple(x)
    if not w:
        raise ValueError("cannot split the empty word")
    return w[: len(w) // 2]


def half_ceil(x: Sequence[int]) -> Word:
    """Second half of a word: one-based positions floor(m/2)+1..m.

    ``half_floor(x) + half_ceil(x) == x`` always; the middle letter of an
    odd-length word lands in the ceil half. For a palindromic word of even
    length, ``reverse(half_floor(x)) == half_ceil(x)``.
    """
    w = tuple(x)
    if not w:
        raise ValueError("cannot split the empty word")
    return w[len(w) // 2:]
