"""Independent oracles used by the exact-arithmetic tests.

The float oracles deliberately avoid the library's surd pipeline: tails
are evaluated by truncating the periodic continued fraction at a fixed
depth in floats. The surd oracle is ``QuadraticSurd`` with the field
arithmetic no command reads: sums, products, order, hashing and pickling,
and ``Fraction`` operands; the tests cross-check the parts the library
keeps (normal form, comparison, reciprocal, decimals) against it. The
exact oracles are the searches the library replaced
by closed forms: a Perron value found by comparing the surd sums at every
position, and a form minimum found by evaluating every point of the box.
The word oracles are the tree's vertices and its root (A, A+B, B), word
reversal as a tuple, the mirror-axis test that the shift sweep's rotation
test decides (the proof is in ``tree._reversed_at``), the graph walk,
which reaches one index by the L
and R moves along the binary digits of n - 1, the levels built from the
root one level at a time by the same moves, and the two-branch index
recursion with an injectable left-flank rule, which the tests use to pin
where a wrong rule diverges. The Christoffel oracle builds a label word
from its length and letter counts alone, by the floors of a line.
The index oracles are the loops the library replaced by bit arithmetic:
halving to the odd part, walking the two factorization chains, and
searching a level for a mirror index. The mirror claim, that S_{A,B}(k)
is the reverse of S_{B,A} at the reflection of k in its level, is
checked here on two walks, beside its closed-form index; no command
reads it. The diatomic oracle is the bit loop for d(n), and the lemma
oracles are the per-index loops that the table-driven lemma checks
replaced, reading d and a through callables so that a test can feed
them a deliberately wrong table. The block oracle
builds the block rearrangement block by block, where the library rotates
S(n). The shift reports are the report of every index of the prop-main
stream, which the command builds only for a failing index. The path order is the paper's comparison of move words, which the
library's level order must reproduce, and the continued-fraction fold is
the reference for the convergent matrix. The axis breaker is no oracle:
it wraps a walk so that chosen label words fail the shift claim, by one
letter flipped off the mirror axis that prop-main tests. The parser oracle
is the argparse parser the command line was read by before its flag table:
on a valid command line, ``markovwords.cli.parse`` must give its values.
"""
from __future__ import annotations

import argparse
from decimal import ROUND_DOWN, Decimal, localcontext
from fractions import Fraction
from functools import cache, partial
from itertools import chain, count
from math import isqrt
from typing import Iterator, NamedTuple, Sequence, Union

from markovwords import theorems
from markovwords.diatomic import a_of, a_star, stern_table
from markovwords.spectrum import (
    BQForm,
    LatticeMinimum,
    MarkovValue,
    QuadraticSurd,
    zero_tail,
)
from markovwords.theorems import VerificationReport
from markovwords.tree import LABEL_SEEDS, _shift_verdicts, run_lengths, walk
from markovwords.words import format_word, parse_word, rotate, word

Path = tuple[int, ...]


class Vertex(NamedTuple):
    """A vertex (left, centre, right) of the concatenation tree."""
    left: tuple[int, ...]
    center: tuple[int, ...]
    right: tuple[int, ...]


def root(a, b) -> Vertex:
    """The root vertex (A, A+B, B) of the seeds, each validated by ``word``."""
    wa, wb = word(a), word(b)
    return Vertex(wa, wa + wb, wb)


def reverse(x: Sequence[int]) -> tuple[int, ...]:
    """The letters of ``x`` in reverse order, as a tuple."""
    return tuple(x)[::-1]


def is_symmetric_about(x: Sequence[int], c: int) -> bool:
    """Whether ``x[j] == x[(c - j) % len(x)]`` for every j: x rotated left by
    (c + 1) mod |x|, one slice of ``x + x``, equals x reversed, on tuples or
    ``bytes`` as they are."""
    m = len(x)
    if not m:
        raise ValueError("the empty word has no mirror axis")
    d = (c + 1) % m
    return (x + x)[d:d + m] == x[::-1]


def shift_reports(n_max: int, a_sym: int, b_sym: int) -> Iterator[VerificationReport]:
    """The report of every index n <= n_max of prop-main on (a,a),(b,b), in
    index order: ``theorems._shift_report`` over ``tree._shift_verdicts``,
    one lazy report per verdict."""
    shifts = stern_table(n_max)[1:]
    return map(partial(theorems._shift_report, a_sym, b_sym), count(1), shifts,
               _shift_verdicts(1, shifts))


def cf_eval(x: Sequence[int]) -> Fraction:
    """Value of the finite continued fraction [a1; a2 : ... : an], folded
    from the last partial quotient; the reference for ``cf_matrix``."""
    w = word(x)
    acc = Fraction(w[-1])
    for a in w[-2::-1]:
        acc = a + 1 / acc
    return acc


def decimal_truncated(p: int, q: int, r: int, d: int, digits: int) -> str:
    """(p + q*sqrt(d))/r to ``digits`` fractional digits, truncated toward
    zero, by the decimal module at 40 digits more precision; the reference
    for ``QuadraticSurd.to_decimal`` on values of a few integer digits."""
    with localcontext() as ctx:
        ctx.prec = digits + 40
        value = (p + q * Decimal(d).sqrt()) / r
        return str(value.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_DOWN))


class Surd(QuadraticSurd):
    """A :class:`QuadraticSurd` that also adds, multiplies, orders, hashes and
    pickles, and takes ``int`` and ``Fraction`` operands on either side.

    Two surds can be added or multiplied when they lie in one field: equal
    d, d1*d2 a perfect square (the result is written over the left
    operand's d), or either one rational. Every result is a ``Surd``.
    """

    __slots__ = ()

    @classmethod
    def of(cls, x: Union[QuadraticSurd, int, Fraction]) -> "Surd":
        """``x`` as a Surd: a library surd lifted with its fields, or a rational."""
        if isinstance(x, QuadraticSurd):
            return cls(*x.as_tuple())
        return cls.from_fraction(Fraction(x))

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Surd":
        return cls(f.numerator, 0, f.denominator, 0)

    def __reduce__(self):
        # pickle would restore the slots through __setattr__; rebuild instead
        return type(self), self.as_tuple()

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def _coerce(self, other: Union[QuadraticSurd, int, Fraction]) -> "Surd":
        if isinstance(other, (QuadraticSurd, int, Fraction)):
            return Surd.of(other)
        return NotImplemented  # type: ignore[return-value]

    def _common_d(self, other: "Surd") -> tuple[int, "Surd"]:
        """A radicand both values can be written over, and ``other`` over it.

        Distinct radicands d1, d2 span the same field exactly when d1*d2 is
        a perfect square s^2; then sqrt(d2) = (s/d1)*sqrt(d1), and ``other``
        is rescaled to d1 = self.d.
        """
        if self.q == 0:
            return other.d, other
        if other.q == 0 or other.d == self.d:
            return self.d, other
        s = isqrt(self.d * other.d)
        if s * s != self.d * other.d:
            raise ValueError(f"incompatible radicands {self.d} and {other.d}")
        return self.d, Surd(other.p * self.d, other.q * s, other.r * self.d, self.d)

    def __add__(self, other: Union[QuadraticSurd, int, Fraction]) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d, o = self._common_d(o)
        return Surd(self.p * o.r + o.p * self.r, self.q * o.r + o.q * self.r, self.r * o.r, d)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other: Union[QuadraticSurd, int, Fraction]) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Union[int, Fraction]) -> "Surd":
        return (-self) + other

    def __mul__(self, other: Union[QuadraticSurd, int, Fraction]) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d, o = self._common_d(o)
        return Surd(self.p * o.p + self.q * o.q * d, self.p * o.q + self.q * o.p, self.r * o.r, d)

    __rmul__ = __mul__

    def reciprocal(self) -> "Surd":
        return Surd.of(super().reciprocal())

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(Fraction(self.p, self.r))  # equal to the int or Fraction
        # (p/r, sign q, q^2 d / r^2) determines the value, so hash on that
        return hash((Fraction(self.p, self.r), (self.q > 0) - (self.q < 0),
                     Fraction(self.q * self.q * self.d, self.r * self.r)))

    def __lt__(self, other: Union[QuadraticSurd, int, Fraction]) -> bool:
        return self.compare(other) < 0

    def __le__(self, other: Union[QuadraticSurd, int, Fraction]) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: Union[QuadraticSurd, int, Fraction]) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: Union[QuadraticSurd, int, Fraction]) -> bool:
        return self.compare(other) >= 0

    def __float__(self) -> float:
        return int(self._floor_scaled(10 ** 17)) / 10 ** 17


def tail_float(period, depth: int = 60) -> float:
    """[0; period, period, ...] truncated at ``depth`` partial quotients."""
    reps = depth // len(period) + 2
    entries = (list(period) * reps)[:depth]
    t = 0.0
    for a in reversed(entries):
        t = 1.0 / (a + t)
    return t


def perron_float(period, depth: int = 60) -> tuple[float, int]:
    """Largest Perron sum over cyclic positions, ties to the smallest index."""
    n = len(period)
    best, arg = None, 0
    for i in range(n):
        fwd_period = tuple(period[(i + 1 + k) % n] for k in range(n))
        bwd_period = tuple(period[(i - 1 - k) % n] for k in range(n))
        v = period[i] + tail_float(fwd_period, depth) + tail_float(bwd_period, depth)
        if best is None or v > best + 1e-13:
            best, arg = v, i
    return best, arg


def markov_value_by_tails(period) -> MarkovValue:
    """Largest exact Perron sum a_i + forward tail + backward tail, ties low."""
    w = word(period)
    n = len(w)
    best: Surd | None = None
    best_i = 0
    for i in range(n):
        forward = Surd.of(zero_tail(rotate(w, (i + 1) % n)))
        backward = zero_tail(reverse(rotate(w, i)))
        candidate = forward + backward + w[i]
        if best is None or candidate.compare(best) > 0:
            best, best_i = candidate, i
    return MarkovValue(best, best_i)


def bqf_min_brute(form: BQForm, radius: int) -> LatticeMinimum:
    """Minimum of |f| over every nonzero point of the box, canonical point."""
    disc = form.discriminant()
    if disc <= 0:
        raise ValueError(f"form must be indefinite, discriminant is {disc}")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    best: int | None = None
    attaining: list[tuple[int, int, int]] = []
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            if x == 0 and y == 0:
                continue
            v = form(x, y)
            av = abs(v)
            if best is None or av < best:
                best, attaining = av, [(v, x, y)]
            elif av == best:
                attaining.append((v, x, y))

    def canonical(entry: tuple[int, int, int]) -> tuple[int, int, int]:
        v, x, y = entry
        if x < 0 or (x == 0 and y < 0):
            x, y = -x, -y
        return (0 if v >= 0 else 1, x, y)

    _, px, py = min(canonical(e) for e in attaining)
    return LatticeMinimum(best, QuadraticSurd(0, best, disc, disc), (px, py))


def s_graph(a, b, n: int) -> tuple[int, ...]:
    """The word with index n, read off the ordered graph one move at a time.

    Index 2^(m-1)+i is the centre of the i-th vertex of level m, reached by
    walking the binary digits of i-1 from the root (0 = L, 1 = R); they are
    the digits of n-1 after its leading 1. L(x, y, z) = (x, x+y, y) and
    R(x, y, z) = (y, y+z, z).
    """
    if n < 0:
        raise ValueError("indices start at 0")
    x, y, z = root(a, b)
    if n < 2:
        return z if n else x
    for bit in bin(n - 1)[3:]:
        x, y, z = (y, y + z, z) if bit == "1" else (x, x + y, y)
    return y


def lower_christoffel(m: int, b_count: int) -> tuple[int, ...]:
    """The lower Christoffel word of length m with b_count letters 2 and the
    rest 1: letter i is 2 exactly when floor((i+1) b_count / m) exceeds
    floor(i b_count / m), the steps of the line of slope b_count/m."""
    return tuple(1 + ((i + 1) * b_count // m > i * b_count // m) for i in range(m))


def level(a, b, n: int) -> list[Vertex]:
    """The 2^(n-1) vertices of level n (the root is level 1) in path order.

    Built from the root one level at a time: each vertex is followed on
    the next level by its L child, then its R child, so the i-th vertex
    (from 0) is reached by the n-1 binary digits of i, as in ``s_graph``.
    """
    if n < 1:
        raise ValueError("levels are numbered from 1")
    vertices = [root(a, b)]
    for _ in range(n - 1):
        vertices = [child for x, y, z in vertices
                    for child in (Vertex(x, x + y, y), Vertex(y, y + z, z))]
    return vertices


def s_rec_with_rule(a, b, n: int, rule) -> tuple[int, ...]:
    """S(n) by the two-branch recursion with ``rule`` as the left-flank index.

    S(2j) = S(j) + S(a(j)) and S(2j-1) = S(rule(j-1)) + S(j). With
    ``rule = a_star`` it equals the library's single rule
    S(n) = S(a*(n-1)) + S(a(n)); uncached.
    """
    if n < 2:
        return word(b) if n else word(a)
    if n == 2:
        return word(a) + word(b)
    if n % 2 == 0:
        j = n // 2
        return s_rec_with_rule(a, b, j, rule) + s_rec_with_rule(a, b, a_of(j), rule)
    j = (n + 1) // 2
    return s_rec_with_rule(a, b, rule(j - 1), rule) + s_rec_with_rule(a, b, j, rule)


def path_precedes(p: Sequence[int], q: Sequence[int]) -> bool:
    """The paper's strict order on equal-level paths R^a1 L^a2 R^a3 ...

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


def level_entries(a, b, n: int) -> list[tuple[Path, Vertex]]:
    """(path, vertex) pairs of level n in the library's order; the i-th path
    (from 0) is read off the n-1 binary digits of i (0 = L, 1 = R), as in
    ``s_graph``."""
    return [
        (run_lengths(bin(i | 1 << (n - 1))[3:], "1"), v)
        for i, v in enumerate(level(a, b, n))
    ]


def a_of_by_halving(j: int) -> int:
    """a(j) = (k+1)/2 for the odd part k of j, found by halving j until odd."""
    while j % 2 == 0:
        j //= 2
    return (j + 1) // 2 if j > 1 else 1


def even_index_factorization_by_halving(k: int) -> tuple[int, int, int]:
    """(prefix, base, power) for even k > 2 by walking the halving chain."""
    if k & (k - 1) == 0:
        return (2, 1, k.bit_length() - 2)
    i = 1
    o = k
    while o % 2 == 0:
        o //= 2
        i += 1
    base = (o + 1) // 2
    return (a_star(base - 1), base, i)


def odd_index_factorization_by_chain(k: int) -> tuple[int, int, int]:
    """(base, power, suffix) for odd k > 2 by iterating k -> (k+1)/2 until even."""
    i = 1
    e = k
    while e % 2 != 0:
        e = (e + 1) // 2
        i += 1
    if e == 2:
        return (0, i, 1)
    return (e // 2, i, a_of_by_halving(e // 2))


def mirror_index(k: int) -> int:
    """The index m with S_{A,B}(k) equal to the reverse of S_{B,A}(m).

    Reversal mirrors the concatenation tree left to right, so m is the
    reflection of k inside its level (2^j, 2^(j+1)]: m = 3*2^j + 1 - k,
    with 2^j = 1 << ((k-1).bit_length() - 1). Defined for every k >= 2.
    """
    if k < 2:
        raise ValueError("mirror_index is defined for k >= 2")
    return (3 << ((k - 1).bit_length() - 1)) + 1 - k


def verify_mirror(a: Sequence[int], b: Sequence[int], k: int) -> VerificationReport:
    """Check S_{A,B}(k) == reverse(S_{B,A}(mirror_index(k))), both words walked.

    Reversal flips the letters inside each block, so the element-level
    identity holds for palindromic seeds.
    """
    m = mirror_index(k)
    s = next(walk(a, b, k, k))
    ok = s == reverse(next(walk(b, a, m, m)))
    return VerificationReport("mirror", k, ok, m, None if ok else format_word(s))


def mirror_index_by_search(k: int) -> int:
    """The mirror index of k >= 2, found by searching k's level (2^j, 2^(j+1)]
    for the index m with reverse(S_{B,A}(m)) == S_{A,B}(k), seeds (1,1),(2,2)."""
    j = (k - 1).bit_length() - 1
    return _reversed_level(j)[s_rec_with_rule((1, 1), (2, 2), k, a_star)]


@cache
def _reversed_level(j: int) -> dict[tuple[int, ...], int]:
    """reverse(S_{B,A}(m)) -> m over the level (2^j, 2^(j+1)]; its words are distinct."""
    level = range((1 << j) + 1, (2 << j) + 1)
    found = {tuple(reversed(s_rec_with_rule((2, 2), (1, 1), m, a_star))): m for m in level}
    assert len(found) == len(level)
    return found


@cache
def stern_by_recursion(n: int) -> int:
    """d(n) by its defining recursion, memoised: d(0) = 0, d(1) = 1,
    d(2m) = d(m) and d(2m - 1) = d(m) + d(m - 1). It recurses once per bit
    of n, so it serves indices of a few hundred bits at most."""
    if n <= 1:
        return n
    if n % 2 == 0:
        return stern_by_recursion(n // 2)
    return stern_by_recursion((n + 1) // 2) + stern_by_recursion((n - 1) // 2)


def stern_by_bits(n: int) -> int:
    """d(n) by one pass over the bits of n, lowest first, with no table or memo.

    The pair (x, y) holds (d(m+1), d(m)) for the number m formed by the
    bits not yet read; an odd bit adds x to y, an even bit adds y to x.
    """
    x, y = 1, 0
    while n:
        if n & 1:
            y += x
        else:
            x += y
        n >>= 1
    return y


def off_axis_flip(labels: bytes, c: int) -> bytes:
    """``labels`` with the letter 1 <-> 2 swapped at the first position j whose
    mirror (c - j) % m about c is another position, so the word is no longer
    symmetric about c. A word of one letter, or of two about an even c, has
    no such position, and raises."""
    m = len(labels)
    j = next((j for j in range(m) if (c - j) % m != j), None)
    if j is None:
        raise ValueError(f"every letter of {labels!r} lies on the axis {c}")
    return labels[:j] + bytes([3 - labels[j]]) + labels[j + 1:]


def walk_off_axis(real_walk, indices):
    """``real_walk`` with the label word L(n) of each n in ``indices``, walked on
    ``LABEL_SEEDS``, flipped off its axis d(n) - 1 by :func:`off_axis_flip`,
    so that the shift claim fails there; walks on other seeds pass through."""
    def walk_(a, b, lo, hi):
        words = real_walk(a, b, lo, hi)
        if (a, b) != LABEL_SEEDS:
            return words
        return (off_axis_flip(w, stern_by_bits(n) - 1) if n in indices else w
                for n, w in enumerate(words, lo))
    return walk_


def _length_by_index(d, j: int) -> int:
    return 2 if j == 0 else 2 * d(2 * j - 1)


def arrangement_by_blocks(seeds, labels, d: int) -> tuple[int, ...]:
    """The block rearrangement at shift d of a label word over {1, 2}.

    The blocks seeds[label - 1], rotated to start at block d/2 + 1 for even
    d; for odd d, block c = (d+1)/2 is split into its ceil and floor halves,
    which wrap around the remaining blocks.
    """
    blocks = [seeds[lab - 1] for lab in labels]
    if d % 2 == 0:
        start = d // 2  # zero-based index of block d/2 + 1
        return tuple(chain.from_iterable(blocks[start:] + blocks[:start]))
    c = (d + 1) // 2
    split = blocks[c - 1]
    middle = chain.from_iterable(blocks[c:] + blocks[:c - 1])
    h = len(split) // 2
    return split[h:] + tuple(middle) + split[:h]


def length_identity_by_index(k_hi: int, d, a):
    for k in range(2, k_hi + 1):
        if _length_by_index(d, k) != _length_by_index(d, a(k)) + _length_by_index(d, a(k - 1)):
            return {"k": k}
    return None


def length_is_diatomic_by_index(k_hi: int, d, a):
    for k in range(1, k_hi + 1):
        if _length_by_index(d, a(k)) != 2 * d(k):
            return {"k": k}
    return None


def half_length_chain_by_index(k_hi: int, d, a):
    for k in range(3, k_hi + 1, 2):
        e = k
        while e % 2 != 0:
            e = (e + 1) // 2
        if _length_by_index(d, e // 2) // 2 != d(k - 1):
            return {"k": k, "chain_end": e // 2}
    return None


def mirror_arithmetic_by_index(n_hi: int, d, a):
    for n in range(2, n_hi + 1):
        for i in range(1, 2 ** n + 1):
            k = 2 ** n + i
            if d(2 * k - 1) - d(k) != d(3 * 2 ** n + 1 - k):
                return {"n": n, "i": i}
    return None


def index_identities_by_index(n_hi: int, d, a):
    def a_st(x):
        return 0 if x & (x - 1) == 0 else a(x)

    for n in range(3, n_hi + 1):
        for m in range(3, 2 ** (n - 1) + 1):
            if m % 2 == 0:
                k = m // 2
                if a(2 ** (n - 2) + k) != a(2 ** (n - 1) + m):
                    return {"n": n, "m": m, "eq": "a"}
                if 2 * (2 ** (n - 2) + k) != 2 ** (n - 1) + m:
                    return {"n": n, "m": m, "eq": "double"}
            else:
                k = (m + 1) // 2
                if a_st(2 ** (n - 2) + k - 1) != a_st(2 ** (n - 1) + m - 1):
                    return {"n": n, "m": m, "eq": "a-star"}
                if 2 ** (n - 2) + k != a(2 ** (n - 1) + m):
                    return {"n": n, "m": m, "eq": "a-odd"}
    return None


def shift_inequalities_by_index(k_hi: int, d, a):
    def length(j):
        return _length_by_index(d, j)

    for k in range(3, k_hi + 1):
        if k % 2 == 0:
            if k & (k - 1) == 0:
                continue  # chain bottoms at 1; a(0) undefined
            _, base, power = even_index_factorization_by_halving(k)
            left = d(k // 2)
            flank = length(a(base - 1))
            if not left + (flank + (power - 1) * length(base)) // 2 > flank:
                return {"k": k, "case": "even"}
        else:
            base, power, _ = odd_index_factorization_by_chain(k)
            chain_end = base if base else 1  # degenerate chain bottoms at index 1
            if not d((k + 1) // 2) < (power - 1) * length(chain_end):
                return {"k": k, "case": "odd"}
    return None


def row_symmetry_by_index(n_hi: int, d, a):
    for n in range(0, n_hi + 1):
        lo, hi = 2 ** n, 2 ** (n + 1)
        for i in range(0, 2 ** n + 1):
            if d(lo + i) != d(hi - i):
                return {"n": n, "i": i}
    return None


def _word_arg(text: str):
    try:
        return parse_word(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _form_arg(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"form needs three coefficients, got {text!r}")
    # each coefficient is an optional sign, then ASCII digits
    digits = [p[1:] if p.startswith(("+", "-")) else p for p in parts]
    if not all(d.isascii() and d.isdigit() for d in digits):
        raise argparse.ArgumentTypeError(f"non-integer coefficient in {text!r}")
    return BQForm(*map(int, parts))


# each subcommand and its help line, in the order --help lists them
COMMANDS = {
    "seq": "print the word with index n",
    "stern": "emit the diatomic sequence as index,value CSV",
    "verify": "run a verification sweep",
    "spectrum": "exact Perron value of a period",
    "scan": "tabulate spectrum values of S(1..n)",
    "bqf": "bounded lattice minimum of an indefinite form",
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The argparse parser of a command line whose subcommand is ``command``.

    Every subcommand is listed, so usage, ``--help`` and a wrong subcommand
    read as with a full parser; only ``command``'s own arguments are added.
    It applies no least value: the command line checked those after parsing.
    """
    parser = argparse.ArgumentParser(
        prog="markovwords",
        description="Ordered Markov words, palindromic shifts, exact spectrum values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=text) for name, text in COMMANDS.items()}

    if command == "seq":
        p["seq"].add_argument("--A", type=_word_arg, default=(1, 1), metavar="WORD")
        p["seq"].add_argument("--B", type=_word_arg, default=(2, 2), metavar="WORD")
        p["seq"].add_argument("--n", type=int, required=True)
        p["seq"].add_argument("--blocks", action="store_true", help="print the block word instead")
    elif command == "stern":
        p["stern"].add_argument("--upto", type=int, required=True, metavar="N")
    elif command == "verify":
        vsub = p["verify"].add_subparsers(dest="check", required=True)

        p_prop = vsub.add_parser("prop-main", help="d(n)-shift palindromicity sweep")
        p_prop.add_argument("--n-max", type=int, default=4096)
        p_prop.add_argument("--a", type=int, default=1, help="letter of the first seed (a,a)")
        p_prop.add_argument("--b", type=int, default=2, help="letter of the second seed (b,b)")

        p_thm = vsub.add_parser("theorem", help="block-rearrangement sweep over random seeds")
        p_thm.add_argument("--trials", type=int, default=200)
        p_thm.add_argument("--seed", type=int, default=42)
        p_thm.add_argument("--n-max", type=int, default=512)

        p_eq = vsub.add_parser("equivalence", help="graph builder vs index recursion")
        p_eq.add_argument("--levels", type=int, default=10)
        p_eq.add_argument("--pairs", type=int, default=20)
        p_eq.add_argument("--seed", type=int, default=42)

        p_lem = vsub.add_parser("lemmas", help="supporting identity suite")
        p_lem.add_argument("--k-max", type=int, default=4096)

        for check in (p_prop, p_thm, p_eq, p_lem):
            check.add_argument("--json", action="store_true")
    elif command == "spectrum":
        p["spectrum"].add_argument("--period", type=_word_arg, required=True, metavar="WORD")
        p["spectrum"].add_argument("--digits", type=int, default=30)
    elif command == "scan":
        p["scan"].add_argument("--n-max", type=int, default=64)
        p["scan"].add_argument("--A", type=_word_arg, default=(1, 1), metavar="WORD")
        p["scan"].add_argument("--B", type=_word_arg, default=(2, 2), metavar="WORD")
        p["scan"].add_argument("--digits", type=int, default=30)
    elif command == "bqf":
        p["bqf"].add_argument("--form", type=_form_arg, required=True, metavar="A,B,C")
        p["bqf"].add_argument("--radius", type=int, default=50)
        p["bqf"].add_argument("--digits", type=int, default=30)
    if command in ("seq", "stern", "spectrum", "scan", "bqf"):
        p[command].add_argument("--json", action="store_true")
    return parser
