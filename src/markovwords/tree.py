"""The concatenation graph and the ordered family S(n) it generates.

Vertices are triples (left, centre, right) with centre = left + right.
From the root (A, A+B, B) the moves L and R produce an infinite binary
tree; levels are ordered so that the centre of the i-th vertex of level n
is the word with index 2^(n-1)+i. The vertex centred at S(n) is
(S(a*(n-1)), S(n), S(a(n))), so S(n) = S(a*(n-1)) + S(a(n)) for n >= 2;
that one index recursion builds the words, their label words over {A, B}
and the block counts. :func:`s_graph` walks the graph instead and serves
as the independent oracle; :func:`walk` visits it in index order for
sweeps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .diatomic import a_of, a_star
from .words import Word, word


class Vertex(NamedTuple):
    left: Word
    center: Word
    right: Word


Path = tuple[int, ...]

LABEL_A = "A"
LABEL_B = "B"


@dataclass(frozen=True)
class BlockWord:
    """A word over the labels {A, B} plus the seed words the labels stand for."""

    labels: tuple[str, ...]
    registry: Mapping[str, Word]

    def flatten(self) -> Word:
        out: list[int] = []
        for lab in self.labels:
            out.extend(self.registry[lab])
        return tuple(out)

    def __len__(self) -> int:
        return len(self.labels)


def root(a: Sequence[int], b: Sequence[int]) -> Vertex:
    """The root vertex (A, A+B, B)."""
    wa, wb = word(a), word(b)
    if not wa or not wb:
        raise ValueError("seed words must be nonempty")
    return Vertex(wa, wa + wb, wb)


def step_left(v: Vertex) -> Vertex:
    return Vertex(v.left, v.left + v.center, v.center)


def step_right(v: Vertex) -> Vertex:
    return Vertex(v.center, v.center + v.right, v.right)


def apply_path(v: Vertex, exponents: Sequence[int]) -> Vertex:
    """Apply the move word R^a1, L^a2, R^a3, ... (first factor applied first).

    Odd positions of ``exponents`` (1-based) are R-runs, even positions
    L-runs; zero runs are permitted anywhere.
    """
    for pos, count in enumerate(exponents):
        if count < 0:
            raise ValueError("path exponents must be nonnegative")
        step = step_right if pos % 2 == 0 else step_left
        for _ in range(count):
            v = step(v)
    return v


def path_precedes(p: Sequence[int], q: Sequence[int]) -> bool:
    """Strict order on equal-level paths.

    At the first differing run, a smaller R-exponent (odd position) or a
    larger L-exponent (even position) comes first; this is the in-order
    traversal of the tree. Shorter tuples are padded with zero runs.
    """
    if sum(p) != sum(q):
        raise ValueError("paths lie on different levels")
    for idx in range(max(len(p), len(q))):
        a = p[idx] if idx < len(p) else 0
        b = q[idx] if idx < len(q) else 0
        if a == b:
            continue
        return a < b if idx % 2 == 0 else a > b
    return False


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


def _level_entries(a: Sequence[int], b: Sequence[int], n: int) -> list[tuple[Path, Vertex]]:
    """(path, vertex) pairs of level n in order; the root is level 1."""
    if n < 1:
        raise ValueError("levels are numbered from 1")
    entries = [("", root(a, b))]
    for _ in range(n - 1):
        entries = [
            child
            for moves, v in entries
            for child in ((moves + "L", step_left(v)), (moves + "R", step_right(v)))
        ]
    return [(run_lengths(moves, "R"), v) for moves, v in entries]


def level(a: Sequence[int], b: Sequence[int], n: int) -> list[Vertex]:
    """The 2^(n-1) vertices of level n, sorted by the path order."""
    return [v for _, v in _level_entries(a, b, n)]


def s_graph(a: Sequence[int], b: Sequence[int], n: int) -> Word:
    """The word with index n, read off the ordered graph (the slow oracle).

    Index 2^(m-1)+i is the centre of the i-th vertex of level m, reached by
    walking the binary digits of i-1 from the root (0 = L, 1 = R); they are
    the digits of n-1 after its leading 1.
    """
    v = root(a, b)
    if n < 0:
        raise ValueError("indices start at 0")
    if n < 2:
        return v.right if n else v.left
    for bit in bin(n - 1)[3:]:
        v = step_right(v) if bit == "1" else step_left(v)
    return v.center


def walk(a: Sequence[int], b: Sequence[int], lo: int, hi: int) -> Iterator[Word]:
    """The words with indices lo, lo+1, ..., hi, in index order.

    A depth-first walk of the graph: the stack holds the vertices on the
    path from the root to the current one, at most log2(hi) + 1 of them.
    The path to lo follows the digits of lo-1 as in :func:`s_graph`. From
    index n the walk climbs past the trailing R-moves of the path, one per
    trailing zero of n, turns right, and descends leftwards to the same
    depth; after the last index of a level, n = 2^m, it restarts at the
    root and descends one level deeper. Each new vertex costs one
    concatenation, its centre.
    """
    v = root(a, b)
    if lo < 0:
        raise ValueError("indices start at 0")
    for n in range(lo, min(hi, 1) + 1):
        yield v.right if n else v.left
    n = max(lo, 2)
    if n > hi:
        return
    path = [v]
    for bit in bin(n - 1)[3:]:
        path.append(step_right(path[-1]) if bit == "1" else step_left(path[-1]))
    while True:
        yield path[-1].center
        if n == hi:
            return
        if n & (n - 1) == 0:
            del path[1:]
            turns = n.bit_length() - 1
        else:
            turns = (n & -n).bit_length() - 1
            del path[len(path) - turns - 1:]
            path.append(step_right(path[-1]))
        for _ in range(turns):
            path.append(step_left(path[-1]))
        n += 1


def s_rec(a: Sequence[int], b: Sequence[int], n: int) -> Word:
    """The word with index n by the index recursion.

    S(0) = A, S(1) = B and S(n) = S(a*(n-1)) + S(a(n)) for n >= 2: the
    left and right flanks of the vertex centred at S(n). Agrees with
    :func:`s_graph` at every index.
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


def block_labels(n: int) -> tuple[str, ...]:
    """The label word of index n: the index recursion on the seeds A, B."""
    if n < 0:
        raise ValueError("indices start at 0")
    return _s_rec_cached((LABEL_A,), (LABEL_B,), n)


def block_word(a: Sequence[int], b: Sequence[int], n: int) -> BlockWord:
    """The word with index n as a word over its two seed blocks."""
    wa, wb = word(a), word(b)
    if not wa or not wb:
        raise ValueError("seed words must be nonempty")
    return BlockWord(block_labels(n), {LABEL_A: wa, LABEL_B: wb})


def block_counts(n: int) -> tuple[int, int]:
    """(#A-blocks, #B-blocks) in the label word of index n.

    Counted in :func:`block_labels`; the total is d(2n-1) for n >= 1.
    """
    labels = block_labels(n)
    return (labels.count(LABEL_A), labels.count(LABEL_B))


def flank_indices(j: int) -> tuple[int, int]:
    """Indices (a*(j-1), a(j)) of the left and right words flanking S(j)."""
    if j < 2:
        raise ValueError("flank indices are defined for j >= 2")
    return (a_star(j - 1), a_of(j))
