"""The concatenation tree and the ordered family S(n) it generates.

Vertices are triples (left, centre, right) with centre = left + right.
From the root (A, A+B, B) the moves L(x, y, z) = (x, x+y, y) and
R(x, y, z) = (y, y+z, z) produce an infinite binary tree; levels are
ordered so that the centre of the i-th vertex of level n is the word with
index 2^(n-1)+i. :func:`walk` reads S(lo..hi) off the tree in index
order on one stack, and the commands and claims take their words from
it: one index is the walk from n to n, and the label word over {A, B}
is the walk on the one-letter seeds. The vertex centred at S(n) is
(S(a*(n-1)), S(n), S(a(n))), so S(n) = S(a*(n-1)) + S(a(n)) for n >= 2;
:func:`s_rec` builds the words by that index recursion instead, and only
``verify equivalence`` reads it, to check it against the walk.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import add
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

from .diatomic import a_of, a_star
from .words import Word, word


class Vertex(NamedTuple):
    left: Word
    center: Word
    right: Word


def root(a: Sequence[int], b: Sequence[int]) -> Vertex:
    """The root vertex (A, A+B, B)."""
    wa, wb = word(a), word(b)
    return Vertex(wa, wa + wb, wb)


def run_lengths(symbols: Iterable[Hashable], first: Hashable) -> tuple[int, ...]:
    """Lengths of the alternating runs of a two-symbol sequence.

    The first entry counts the leading run of ``first`` and is 0 when the
    sequence starts with the other symbol; a trailing 0 keeps the length
    even, so the entries pair up as (first-run, other-run).
    """
    groups = [(sym, len(list(run))) for sym, run in groupby(symbols)]
    lead = [0] if groups and groups[0][0] != first else []
    runs = lead + [n for _, n in groups]
    return tuple(runs + [0] * (len(runs) % 2))


def relabel(a: Sequence[int], b: Sequence[int]) -> tuple[tuple, Word, Word]:
    """The table of the seeds' sorted letters, 0 first, and the seeds with
    each letter replaced by its place in it: ``bytes`` for up to 255
    letters, tuples beyond. The relabelling is injective, so a rotation of
    a walked word is a palindrome exactly when the same rotation of S(n) is."""
    letters = (0, *sorted(set(a) | set(b)))
    encode = bytes if len(letters) <= 256 else tuple
    return letters, encode(map(letters.index, a)), encode(map(letters.index, b))


def walk(a, b, lo: int, hi: int, join: Callable = add) -> Iterator:
    """The words with indices lo, lo+1, ..., hi, in index order.

    Indices 0, 1 and 2 are A, B and A+B. Each deeper level the range
    touches, indices 2^depth+1..2^(depth+1), is one stack entry (l, r,
    depth, start, stop): positions start..stop-1 of the level ``depth``
    below the vertex (l, l+r, r), shallowest level on top. Popping an entry
    costs one join and pushes only the children that hold positions, the
    left on top; at depth 1 both children are leaves, and the entry yields
    their centres itself. At most two entries per level.

    ``join`` is concatenation by default. Two ``bytes`` seeds are then
    concatenated as they are, so the words are ``bytes`` too: the sweeps
    walk the letters 1 and 2 that way, each concatenation one block copy.
    Other seeds give tuples. Both kinds are validated by
    :func:`~markovwords.words.word`, so an empty seed or a zero byte
    raises. Any other ``join`` must be associative, as concatenation is;
    the walk then yields the join of the seeds along each word, on seeds
    taken as they are: ``scan`` walks (word, convergent matrix) pairs
    joined by (u + v, M_u M_v), and beside them the words' texts, joined
    by their separator.
    """
    if join is add:
        wa, wb = word(a), word(b)
        if not (isinstance(a, bytes) and isinstance(b, bytes)):
            a, b = wa, wb
    if lo < 0:
        raise ValueError("indices start at 0")
    for n in range(lo, min(hi, 2) + 1):
        yield (a, b, join(a, b))[n]
    levels = range(max(lo - 1, 2).bit_length() - 1, max(hi - 1, 0).bit_length())
    stack = [(a, b, depth, lo - (1 << depth) - 1, hi - (1 << depth))
             for depth in reversed(levels)]
    while stack:
        l, r, depth, start, stop = stack.pop()
        c = join(l, r)
        if depth == 1:
            if start < 1:
                yield join(l, c)
            if stop > 1:
                yield join(c, r)
            continue
        half = 1 << (depth - 1)
        if stop > half:
            stack.append((c, r, depth - 1, start - half, stop - half))
        if start < half:
            stack.append((l, c, depth - 1, start, stop))


def s_rec(a: Sequence[int], b: Sequence[int], n: int) -> Word:
    """The word with index n by the index recursion.

    S(0) = A, S(1) = B and S(n) = S(a*(n-1)) + S(a(n)) for n >= 2: the
    left and right flanks of the vertex centred at S(n). Agrees with
    :func:`walk` at every index.
    """
    if n < 0:
        raise ValueError("indices start at 0")
    return _s_rec_cached(word(a), word(b), n)


@lru_cache(maxsize=4096)
def _s_rec_cached(a: tuple, b: tuple, n: int) -> tuple:
    if n < 2:
        return b if n else a
    return _s_rec_cached(a, b, a_star(n - 1)) + _s_rec_cached(a, b, a_of(n))

