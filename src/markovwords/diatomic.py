"""Stern's diatomic sequence and the odd-part index sequence a(j).

Both sequences drive the index recursion for ordered Markov words:
``d`` supplies the palindromic shift amounts, ``a``/``a*`` the indices of
the flanking words in the concatenation graph. :func:`stern` and
:func:`a_of` answer single queries; sweeps over a known range read
:func:`stern_table` and :func:`a_table` instead, as ``array('I')``;
:func:`lanes` reads a table slice as one integer, one 32-bit lane per entry.
Table sweeps work in pieces of at most :data:`PIECE` entries.
"""
from __future__ import annotations

import sys
from array import array
from functools import lru_cache

# entries per piece of a table sweep: 16 KB operands and lane integers are
# reused from the heap, not faulted in afresh (verify lemmas --k-max 2^22:
# 11.6k minor faults, against 37.7k with pieces of 2^13 and 116k unpieced)
PIECE = 1 << 12


@lru_cache(maxsize=None)
def stern(n: int) -> int:
    """Stern's diatomic sequence: d(0)=0, d(1)=1, d(2n)=d(n), d(2n-1)=d(n)+d(n-1)."""
    if n < 0:
        raise ValueError("stern is defined for n >= 0")
    if n <= 1:
        return n
    if n % 2 == 0:
        return stern(n // 2)
    return stern((n + 1) // 2) + stern((n - 1) // 2)


def a_of(j: int) -> int:
    """OEIS A003602: a(1)=a(2)=1, a(2j)=a(j), a(2j-1)=j for j>1.

    Equivalently (k+1)/2 for the odd part k = j / (j & -j) of j, where
    j & -j is the lowest set bit of j; computed that way.
    """
    if j < 1:
        raise ValueError("a_of is defined for j >= 1")
    return (j // (j & -j) + 1) // 2


def a_star(x: int) -> int:
    """a(x) with every power of two (including 1) sent to 0.

    Index 0 addresses the first seed word, so this is the left-flank index
    of the vertex centred at the word with index 2x+1. Zeroing all powers
    of two -- not just x=1 -- is what makes the index recursion agree with
    the graph construction at every index (first witness: index 5).
    """
    if x < 1:
        raise ValueError("a_star is defined for x >= 1")
    return 0 if x & (x - 1) == 0 else a_of(x)


def lanes(x: array) -> int:
    """The entries of an ``array('I')`` as one integer, one 32-bit lane per
    entry. Adding two such integers adds every pair of entries at once, as
    long as no lane overflows."""
    return int.from_bytes(x, sys.byteorder)


def stern_table(n: int) -> array:
    """d(0), ..., d(n) as an ``array('I')``.

    The table is allocated once. Each pass fills the row d(2m+1..4m) from
    the row d(m..2m) by d(2i) = d(i) and d(2i+1) = d(i) + d(i+1), cut at n,
    one piece of at most PIECE values of i at a time; the odd half of a
    piece is one addition of :func:`lanes`. The largest d(n) with
    n <= 2^k is the Fibonacci number F(k+1), so d(n) <= F(46) < 2^31 for
    every n <= 2^45: no lane overflows in any table that fits in memory.
    """
    if n < 0:
        raise ValueError("stern is defined for n >= 0")
    table = array("I", [0]) * (n + 1)
    table[:3] = array("I", [0, 1, 1])[:n + 1]
    m = 1
    while 2 * m < n:
        new = min(4 * m, n) - 2 * m  # entries of the row up to index n
        odd, even = m + new - new // 2, m + new // 2  # d(2i+1), i < odd; d(2i), i <= even
        for i in range(m, odd, PIECE):
            row = table[i:min(i + PIECE, odd) + 1]
            total = lanes(row[:-1]) + lanes(row[1:])
            table[2 * i + 1:2 * i + 2 * len(row) - 2:2] = array(
                "I", total.to_bytes(4 * len(row) - 4, sys.byteorder))
            j = min(i + len(row) - 1, even)  # the piece's even entries d(2i+2..2j)
            table[2 * i + 2:2 * j + 1:2] = row[1:j - i + 1]
        m *= 2
    return table


def a_table(n: int) -> array:
    """a(0), ..., a(n) as an ``array('I')``, with the undefined a(0) read as 0.

    The indices with odd part 2i+1 and lowest set bit b are b*(2i+1), and
    a = i+1 on each of them; one slice per bit fills the table. Every entry
    fits its 32 bits: a(j) <= (j+1)/2 < 2^32 for every j < 2^33 - 1.
    """
    if n < 0:
        raise ValueError("a_table is defined for n >= 0")
    table = array("I", [0]) * (n + 1)
    low = 1
    while low <= n:
        table[low::2 * low] = array("I", range(1, (n + low) // (2 * low) + 1))
        low *= 2
    return table
