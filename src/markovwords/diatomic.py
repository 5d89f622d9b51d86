"""Stern's diatomic sequence and the odd-part index sequence a(j).

Both sequences drive the index recursion for ordered Markov words:
``d`` supplies the palindromic shift amounts, ``a``/``a*`` the indices of
the flanking words in the concatenation graph. :func:`stern` and
:func:`a_of` answer single queries; sweeps over a known range read
:func:`stern_table` and :func:`a_table` instead.
"""
from __future__ import annotations

from array import array
from functools import lru_cache
from operator import add


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


def stern_table(n: int) -> array:
    """d(0), ..., d(n) as an ``array('L')``.

    The table is allocated once. Each pass fills the row d(2m+1..4m) from
    the row d(m..2m) by d(2i) = d(i) and d(2i+1) = d(i) + d(i+1), cut at n.
    """
    if n < 0:
        raise ValueError("stern is defined for n >= 0")
    table = array("L", [0]) * (n + 1)
    table[:3] = array("L", [0, 1, 1])[:n + 1]
    m = 1
    while 2 * m < n:
        new = min(4 * m, n) - 2 * m  # entries of the row up to index n
        row = table[m:m + new - new // 2 + 1]
        table[2 * m + 1:4 * m:2] = array("L", map(add, row, row[1:]))
        table[2 * m + 2:4 * m + 1:2] = row[1:new // 2 + 1]
        m *= 2
    return table


def a_table(n: int) -> array:
    """a(0), ..., a(n) as an ``array('L')``, with the undefined a(0) read as 0.

    The indices with odd part 2i+1 and lowest set bit b are b*(2i+1), and
    a = i+1 on each of them; one slice per bit fills the table.
    """
    if n < 0:
        raise ValueError("a_table is defined for n >= 0")
    table = array("L", [0]) * (n + 1)
    low = 1
    while low <= n:
        table[low::2 * low] = array("L", range(1, (n + low) // (2 * low) + 1))
        low *= 2
    return table
