"""Exact Perron evaluation of periodic words and a quadratic-form oracle.

Periodic continued fractions are quadratic irrationals, so every value here
is an exact element (p + q*sqrt(d))/r of a real quadratic field. Values are
compared and rendered in decimal through integer arithmetic only; nothing
is ever rounded before the final digit string, and every integer the
commands print is converted in pieces below the interpreter's limit on
int-to-str conversion (:func:`_int_text`).
"""
from __future__ import annotations

from math import gcd, isqrt
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

if TYPE_CHECKING:
    from .words import Word


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _surd_sign(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d), by comparing p^2 against q^2*d where needed."""
    if q == 0:
        return _sign(p)
    if q > 0:
        if p >= 0:
            return 1
        return 1 if p * p < q * q * d else -1
    if p <= 0:
        return -1
    return -1 if p * p < q * q * d else 1


# digits per int-to-str conversion: the lowest limit a program can set on
# such conversions (sys.int_info.str_digits_check_threshold)
_STR_PIECE_DIGITS = 640


def _decimal_digits(x: int, width: int) -> str:
    """0 <= x < 10**width as exactly ``width`` decimal digits, converted in
    pieces of at most _STR_PIECE_DIGITS, so no conversion meets the
    interpreter's limit on int-to-str conversion."""
    if width <= _STR_PIECE_DIGITS:
        return f"{x:0{width}d}"
    low = width // 2
    high, rest = divmod(x, 10 ** low)
    return _decimal_digits(high, width - low) + _decimal_digits(rest, low)


def _int_text(x: int) -> str:
    """``str(x)`` for an int of any size. Below 2**2126 < 10**640 it is
    ``str``; past that the digits come from :func:`_decimal_digits`, at the
    width bound floor(bits * log10(2)) + 1, with the leading zeros cut."""
    if x.bit_length() <= 2126:
        return str(x)
    text = _decimal_digits(abs(x), x.bit_length() * 30103 // 10 ** 5 + 1).lstrip("0")
    return "-" + text if x < 0 else text


class QuadraticSurd:
    """Exact value (p + q*sqrt(d))/r with arbitrary-precision integers.

    Normal form: r > 0, gcd(p, q, r) = 1, and a perfect-square d is folded
    into the rational part (leaving q = 0, d = 0). A surd holds what the
    commands print and test: its normal form, an exact comparison with an
    int or another surd (of any radicand), its reciprocal, which
    :func:`zero_tail` takes, and its decimal expansion. Instances are
    immutable.
    """

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p: int, q: int, r: int, d: int) -> None:
        if r == 0:
            raise ValueError("zero denominator")
        if d < 0:
            raise ValueError("negative radicand")
        if r < 0:
            p, q, r = -p, -q, -r
        if q == 0:
            d = 0
        else:
            root = isqrt(d)
            if root * root == d:
                p, q, d = p + q * root, 0, 0
        g = gcd(p, q, r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"QuadraticSurd(p={self.p!r}, q={self.q!r}, r={self.r!r}, d={self.d!r})"

    def _coerce(self, other: Union["QuadraticSurd", int]) -> "QuadraticSurd":
        if isinstance(other, QuadraticSurd):
            return other
        if isinstance(other, int):
            return QuadraticSurd(other, 0, 1, 0)
        return NotImplemented  # type: ignore[return-value]

    def __neg__(self) -> "QuadraticSurd":
        return QuadraticSurd(-self.p, -self.q, self.r, self.d)

    def reciprocal(self) -> "QuadraticSurd":
        """Exact 1/x via rationalising: r*(p - q*sqrt(d)) / (p^2 - q^2*d)."""
        if self.p == 0 and self.q == 0:
            raise ZeroDivisionError("reciprocal of zero")
        norm = self.p * self.p - self.q * self.q * self.d
        return QuadraticSurd(self.r * self.p, -self.r * self.q, norm, self.d)

    def sign(self) -> int:
        """Exact sign, by comparing p^2 against q^2*d where needed."""
        return _surd_sign(self.p, self.q, self.d)

    def compare(self, other: Union["QuadraticSurd", int]) -> int:
        """-1, 0 or +1 as self is below, equal to or above other; exact.

        r1*r2*(self - other) = u - v with u = x + y*sqrt(d1), v = z*sqrt(d2);
        when u and v share a sign s, the result is s * sign(u^2 - v^2).
        """
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare with {other!r}")
        x = self.p * o.r - o.p * self.r
        y, z = self.q * o.r, o.q * self.r
        su, sv = _surd_sign(x, y, self.d), _sign(z)
        if su != sv:
            return _sign(su - sv)
        return su * _surd_sign(x * x + y * y * self.d - z * z * o.d, 2 * x * y, self.d)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.compare(o) == 0

    def _floor_scaled(self, scale: int) -> int:
        """floor(self * scale) by integer arithmetic only."""
        num = self.p * scale
        if self.q != 0:
            t = isqrt(self.q * self.q * self.d * scale * scale)
            if self.q > 0:
                num += t
            else:
                num -= t + 1  # sqrt is irrational here, so floor is -t-1
        return num // self.r

    def to_decimal(self, digits: int = 30) -> str:
        """Decimal string with ``digits`` fractional digits, rounded toward zero."""
        if digits < 0:
            raise ValueError("digits must be >= 0")
        negative = self.sign() < 0
        sign = "-" if negative else ""  # kept when truncation reaches zero
        scaled = (-self if negative else self)._floor_scaled(10 ** digits)
        text = _int_text(scaled).zfill(digits + 1)
        whole = text[:len(text) - digits].lstrip("0") or "0"
        return f"{sign}{whole}.{text[len(text) - digits:]}" if digits else f"{sign}{whole}"

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p) if self.r == 1 else f"{self.p}/{self.r}"
        qpart = f"sqrt({self.d})" if abs(self.q) == 1 else f"{abs(self.q)}*sqrt({self.d})"
        op = "+" if self.q > 0 else "-"
        return f"({self.p} {op} {qpart})/{self.r}"

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.p, self.q, self.r, self.d)


Matrix = tuple[tuple[int, int], tuple[int, int]]


def cf_matrix(x: Sequence[int]) -> Matrix:
    """Convergent matrix: the product of [[a, 1], [1, 0]] over the word.

    Its determinant is (-1)^len and the first column holds the final
    convergent numerator/denominator.
    """
    from .words import word

    return _fold_convergents(word(x))


def _fold_convergents(w: Word) -> Matrix:
    """:func:`cf_matrix` of a word already validated."""
    m11, m12, m21, m22 = 1, 0, 0, 1
    for a in w:
        m11, m12, m21, m22 = m11 * a + m12, m11, m21 * a + m22, m21
    return ((m11, m12), (m21, m22))


def zero_tail(period: Sequence[int]) -> QuadraticSurd:
    """Exact value of [0; period, period, ...], always strictly inside (0, 1).

    The purely periodic value y > 1 is the positive root of
    m21*y^2 + (m22 - m11)*y - m12 = 0 for the convergent matrix M of the
    period; the tail is 1/y. The radicand is trace(M)^2 - 4*det(M), shared
    by every rotation and by the reversed period (same trace, same det).
    """
    (m11, m12), (m21, m22) = cf_matrix(period)
    det = m11 * m22 - m12 * m21
    d = (m11 + m22) ** 2 - 4 * det
    y = QuadraticSurd(m11 - m22, 1, 2 * m21, d)
    return y.reciprocal()


class MarkovValue(NamedTuple):
    value: QuadraticSurd
    argmin: int


def markov_value(period: Sequence[int]) -> MarkovValue:
    """Extremal Perron sum of the doubly infinite repetition of ``period``.

    At each cyclic position i the sum is a_i plus the forward tail
    [0; a_{i+1}, a_{i+2}, ...] plus the backward tail [0; a_{i-1}, ...];
    the spectrum value is the largest of these. That sum equals
    sqrt(D)/q_i, where q_i is the lower-left entry of the convergent matrix
    of the period rotated to start at i, and D = trace^2 - 4*det is the
    same for every rotation. Rotating by one letter a conjugates the
    matrix by [[a, 1], [1, 0]], so all q_i come from one walk in integer
    arithmetic, and the value is sqrt(D)/min q_i. Ties resolve to the
    smallest position.
    """
    from .words import word

    w = word(period)
    return _markov_value_from(w, _fold_convergents(w))


def _join_convergents(u: tuple[Word, Matrix], v: tuple[Word, Matrix]) -> tuple[Word, Matrix]:
    """The (word, convergent matrix) pair of the concatenation of two pairs:
    the convergent matrix of u + v is the product M_u M_v."""
    (wu, ((a, b), (c, d))), (wv, ((e, f), (g, h))) = u, v
    return wu + wv, ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _markov_value_from(w: Word, m: Matrix) -> MarkovValue:
    """:func:`markov_value` of a validated word whose convergent matrix ``m``
    is already known, as it is for the words ``scan`` walks."""
    (m11, m12), (m21, m22) = m
    t = m11 + m22
    d = t * t - 4 * (m11 * m22 - m12 * m21)
    q_min, argmin = m21, 0
    for i, a in enumerate(w[:-1], 1):
        # M <- [[0, 1], [1, -a]] M [[a, 1], [1, 0]]: the period rotated by
        # one letter; conjugation keeps the trace t, so m22 = t - m11 is
        # never carried, and a step is two multiplications
        n11 = a * m21 + t - m11
        m11, m12, m21 = n11, m21, a * (m11 - n11) + m12
        if m21 < q_min:
            q_min, argmin = m21, i
    return MarkovValue(QuadraticSurd(0, 1, q_min, d), argmin)


class BQForm(NamedTuple):
    """Integer binary quadratic form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __str__(self) -> str:
        return (f"{self.a}x^2 {'+' if self.b >= 0 else '-'} {abs(self.b)}xy "
                f"{'+' if self.c >= 0 else '-'} {abs(self.c)}y^2")


class LatticeMinimum(NamedTuple):
    min_abs: int
    normalized: QuadraticSurd
    point: tuple[int, int]


def bqf_min(form: BQForm, radius: int) -> LatticeMinimum:
    """Minimum of |f| over integer points within the given sup-norm radius.

    A bounded search, not the form's infimum: the minimum over the box can
    lie above it. For -7x^2 - 7xy + 6y^2 the box minimum is 3 at (1, 2) for
    radius 2 to 66, 2 at (37, 67) for radius 67 to 497, and 1 at
    (275, 498) from radius 498 on. ``normalized`` is the exact surd
    min|f|/sqrt(disc). The reported point is canonical: positive form
    value preferred, sign fixed so the first nonzero coordinate is
    positive, then lexicographically smallest.

    Only candidates are evaluated. As f(-x, -y) = f(x, y), the half box
    y > 0, plus x > 0 on y = 0, holds every value. On y = 0, |f| = |a|x^2
    is smallest at x = 1. On a row y > 0, f(., y) has two real roots (its
    discriminant is disc*y^2 > 0), or one when a = 0; |f| is strictly
    monotone outside them and strictly concave between them, so every
    point of the row attaining its minimum is a floor or ceiling of a
    root, clamped to [-radius, radius]. Each row is one plain loop over
    those candidates: f is evaluated inline, and the score (|f|, f < 0,
    canonical point) is built only when |f| is at most the least so far,
    so the search runs in constant memory.
    """
    disc = form.discriminant()
    if disc <= 0:
        raise ValueError(f"form must be indefinite, discriminant is {disc}")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    a, b, c = form.a, form.b, form.c
    best = (abs(a), a < 0, 1, 0)  # the point (1, 0)
    low = best[0]
    for y in range(1, radius + 1):
        if a != 0:
            t = isqrt(disc * y * y)
            roots = ((-b * y - t) // (2 * a), (-b * y + t) // (2 * a))
        else:
            roots = ((-c * y) // b,)  # disc = b^2 > 0, so b != 0
        by, cyy = b * y, c * y * y
        for k in roots:
            # each estimate is within one of the root's floor: k-1..k+2 covers
            # its floor and ceiling, and clamped to the box it is one range
            for x in range(min(max(k - 1, -radius), radius), max(min(k + 2, radius), -radius) + 1):
                v = (a * x + by) * x + cyy
                if -low <= v <= low:
                    score = (abs(v), v < 0, x, y) if x >= 0 else (abs(v), v < 0, -x, -y)
                    if score < best:
                        best, low = score, score[0]
    _, _, px, py = best
    return LatticeMinimum(low, QuadraticSurd(0, low, disc, disc), (px, py))
