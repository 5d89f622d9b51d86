"""Independent oracles used by the exact-arithmetic tests.

The float oracles deliberately avoid the library's surd pipeline: tails
are evaluated by truncating the periodic continued fraction at a fixed
depth in floats. The exact oracles are the searches the library replaced
by closed forms: a Perron value found by comparing the surd sums at every
position, and a form minimum found by evaluating every point of the box.
The word oracle is the two-branch index recursion with an injectable
left-flank rule, which the tests use to pin where a wrong rule diverges.
The index oracles are the loops the library replaced by bit arithmetic:
halving to the odd part, walking the two factorization chains, and
searching the levels for a mirror index. The diatomic oracle is the bit
loop for d(n), and the lemma oracles are the per-index loops that the
table-driven lemma checks replaced, reading d and a through callables so
that a test can feed them a deliberately wrong table.
"""
from __future__ import annotations

from markovwords.diatomic import a_of, a_star
from markovwords.spectrum import (
    BQForm,
    LatticeMinimum,
    MarkovValue,
    QuadraticSurd,
    zero_tail,
)
from markovwords.words import reverse, rotate, word


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
    if not w:
        raise ValueError("empty period")
    n = len(w)
    best: QuadraticSurd | None = None
    best_i = 0
    for i in range(n):
        forward = zero_tail(rotate(w, (i + 1) % n))
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


def mirror_index_by_search(k: int) -> int | None:
    """The mirror index of k >= 3, found by searching the levels upwards."""
    n = 2
    while True:
        base = 6 * 2 ** (n - 2)
        if k <= base:
            return None
        if k <= base + 2 ** (n - 1):
            return base - (k - base) + 1
        n += 1


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


def _length_by_index(d, j: int) -> int:
    return 2 if j == 0 else 2 * d(2 * j - 1)


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


def mirror_arithmetic_by_index(n_hi: int, d, a):
    for n in range(2, n_hi + 1):
        base = 6 * 2 ** (n - 2)
        for i in range(1, 2 ** (n - 1) + 1):
            kp, kq = base + i - 1, base - i + 1
            if d(2 * (kp + 1) - 1) - d(kp + 1) != d(kq):
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


def row_symmetry_by_index(n_hi: int, d, a):
    for n in range(0, n_hi + 1):
        lo, hi = 2 ** n, 2 ** (n + 1)
        for i in range(0, 2 ** n + 1):
            if d(lo + i) != d(hi - i):
                return {"n": n, "i": i}
    return None
