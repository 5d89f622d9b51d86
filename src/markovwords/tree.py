"""The concatenation tree and the ordered family S(n) it generates.

Vertices are triples (left, centre, right) with centre = left + right.
From the root (A, A+B, B) the moves L(x, y, z) = (x, x+y, y) and
R(x, y, z) = (y, y+z, z) produce an infinite binary tree; levels are
ordered so that the centre of the i-th vertex of level n is the word with
index 2^(n-1)+i. :func:`walk` reads S(lo..hi) off the tree in index
order, and the commands and claims take their words from it: one index
is the walk from n to n, and the label word over {A, B} is the walk on
the one-letter seeds. The vertex centred at S(n) is
(S(a*(n-1)), S(n), S(a(n))), so S(n) = S(a*(n-1)) + S(a(n)) for n >= 2;
:func:`s_rec` builds the words by that index recursion instead, and only
``verify equivalence`` reads it, to check it against the walk.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

from .diatomic import a_of, a_star
from .words import Word, word


class Vertex(NamedTuple):
    left: Word
    center: Word
    right: Word


def root(a: Sequence[int], b: Sequence[int]) -> Vertex:
    """The root vertex (A, A+B, B)."""
    wa, wb = word(a), word(b)
    if not wa or not wb:
        raise ValueError("seed words must be nonempty")
    return Vertex(wa, wa + wb, wb)


def run_lengths(symbols: Iterable[Hashable], first: Hashable) -> tuple[int, ...]:
    """Lengths of the alternating runs of a two-symbol sequence.

    The first entry counts the leading run of ``first`` and is 0 when the
    sequence starts with the other symbol; a trailing 0 keeps the length
    even, so the entries pair up as (first-run, other-run).
    """
    runs: list[int] = []
    prev, count = first, 0
    for sym in symbols:
        if sym != prev:
            runs.append(count)
            prev, count = sym, 0
        count += 1
    if count:
        runs.append(count)
    if len(runs) % 2:
        runs.append(0)
    return tuple(runs)


def _vertices(l: Word, r: Word, depth: int, start: int, stop: int) -> Iterator[tuple]:
    """The vertices (left, centre, right) ``depth`` levels below (l, l+r, r)
    at positions start..stop-1 of that level, in order; start < 2^depth and
    stop > 0. Only the subtrees holding those positions are entered, and
    each vertex costs one concatenation."""
    c = l + r
    if not depth:
        yield l, c, r
        return
    half = 1 << (depth - 1)
    if start < half:
        yield from _vertices(l, c, depth - 1, start, stop)
    if stop > half:
        yield from _vertices(c, r, depth - 1, start - half, stop - half)


def walk(a: Sequence[int], b: Sequence[int], lo: int, hi: int) -> Iterator[Word]:
    """The words with indices lo, lo+1, ..., hi, in index order.

    The centres ``depth`` levels below the root are the indices 2^depth+1,
    ..., 2^(depth+1); each level the range touches is read by
    :func:`_vertices`, which holds only the path from the root to the
    current vertex, at most log2(hi) + 1 of them.

    Two ``bytes`` seeds are concatenated as they are, so the words are
    ``bytes`` too: the sweeps walk the letters 1 and 2 that way, each
    concatenation one block copy. Other seeds give tuples. Both kinds are
    validated by :func:`~markovwords.words.word`, so an empty seed or a
    zero byte raises.
    """
    l, _, r = root(a, b)
    if isinstance(a, bytes) and isinstance(b, bytes):
        l, r = a, b
    if lo < 0:
        raise ValueError("indices start at 0")
    for n in range(lo, min(hi, 1) + 1):
        yield r if n else l
    for depth in range(max(lo - 1, 1).bit_length() - 1, max(hi - 1, 0).bit_length()):
        base = 1 << depth
        for _, center, _ in _vertices(l, r, depth, lo - base - 1, hi - base):
            yield center


def s_rec(a: Sequence[int], b: Sequence[int], n: int) -> Word:
    """The word with index n by the index recursion.

    S(0) = A, S(1) = B and S(n) = S(a*(n-1)) + S(a(n)) for n >= 2: the
    left and right flanks of the vertex centred at S(n). Agrees with
    :func:`walk` at every index.
    """
    if n < 0:
        raise ValueError("indices start at 0")
    wa, wb = word(a), word(b)
    if not wa or not wb:
        raise ValueError("seed words must be nonempty")
    return _s_rec_cached(wa, wb, n)


@lru_cache(maxsize=4096)
def _s_rec_cached(a: tuple, b: tuple, n: int) -> tuple:
    if n < 2:
        return b if n else a
    return _s_rec_cached(a, b, a_star(n - 1)) + _s_rec_cached(a, b, a_of(n))

