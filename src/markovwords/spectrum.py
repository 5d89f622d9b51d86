"""Exact Perron evaluation of periodic words and a quadratic-form oracle.

Periodic continued fractions are quadratic irrationals, so every value here
is an exact element (p + q*sqrt(d))/r of a real quadratic field. All
comparisons and the decimal rendering go through integer arithmetic only;
nothing is ever rounded before the final digit string.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple, Sequence, Union

from .words import word


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


@dataclass(frozen=True)
class QuadraticSurd:
    """Exact value (p + q*sqrt(d))/r with arbitrary-precision integers.

    Normal form: r > 0, gcd(p, q, r) = 1, and a perfect-square d is folded
    into the rational part (leaving q = 0, d = 0). Two surds can be added or
    multiplied when they lie in one field: equal d, d1*d2 a perfect square
    (the result is written over the left operand's d), or either one
    rational; order and equality are decided exactly across different d.
    """

    p: int
    q: int
    r: int
    d: int

    def __post_init__(self) -> None:
        p, q, r, d = self.p, self.q, self.r, self.d
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

    @classmethod
    def from_int(cls, n: int) -> "QuadraticSurd":
        return cls(n, 0, 1, 0)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "QuadraticSurd":
        return cls(f.numerator, 0, f.denominator, 0)

    def is_rational(self) -> bool:
        return self.q == 0

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def _coerce(self, other: Union["QuadraticSurd", int, Fraction]) -> "QuadraticSurd":
        if isinstance(other, QuadraticSurd):
            return other
        if isinstance(other, int):
            return QuadraticSurd.from_int(other)
        if isinstance(other, Fraction):
            return QuadraticSurd.from_fraction(other)
        return NotImplemented  # type: ignore[return-value]

    def _common_d(self, other: "QuadraticSurd") -> tuple[int, "QuadraticSurd"]:
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
        return self.d, QuadraticSurd(other.p * self.d, other.q * s, other.r * self.d, self.d)

    def __add__(self, other: Union["QuadraticSurd", int, Fraction]) -> "QuadraticSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d, o = self._common_d(o)
        return QuadraticSurd(
            self.p * o.r + o.p * self.r,
            self.q * o.r + o.q * self.r,
            self.r * o.r,
            d,
        )

    __radd__ = __add__

    def __neg__(self) -> "QuadraticSurd":
        return QuadraticSurd(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other: Union["QuadraticSurd", int, Fraction]) -> "QuadraticSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Union[int, Fraction]) -> "QuadraticSurd":
        return (-self) + other

    def __mul__(self, other: Union["QuadraticSurd", int, Fraction]) -> "QuadraticSurd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d, o = self._common_d(o)
        return QuadraticSurd(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + self.q * o.p,
            self.r * o.r,
            d,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "QuadraticSurd":
        """Exact 1/x via rationalising: r*(p - q*sqrt(d)) / (p^2 - q^2*d)."""
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        norm = self.p * self.p - self.q * self.q * self.d
        return QuadraticSurd(self.r * self.p, -self.r * self.q, norm, self.d)

    def sign(self) -> int:
        """Exact sign, by comparing p^2 against q^2*d where needed."""
        return _surd_sign(self.p, self.q, self.d)

    def compare(self, other: Union["QuadraticSurd", int, Fraction]) -> int:
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
        if not isinstance(other, (QuadraticSurd, int, Fraction)):
            return NotImplemented
        return self.compare(other) == 0

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(Fraction(self.p, self.r))  # equal to the int or Fraction
        # (p/r, sign q, q^2 d / r^2) determines the value, so hash on that
        return hash((Fraction(self.p, self.r), _sign(self.q),
                     Fraction(self.q * self.q * self.d, self.r * self.r)))

    def __lt__(self, other: Union["QuadraticSurd", int, Fraction]) -> bool:
        return self.compare(other) < 0

    def __le__(self, other: Union["QuadraticSurd", int, Fraction]) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: Union["QuadraticSurd", int, Fraction]) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: Union["QuadraticSurd", int, Fraction]) -> bool:
        return self.compare(other) >= 0

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
        scale = 10 ** digits
        scaled = self._floor_scaled(scale)
        negative = self.sign() < 0
        if negative and not self._is_exact_at(scale):
            scaled += 1  # floor -> truncation for negative values
        sign = "-" if negative else ""  # kept when truncation reaches zero
        scaled = abs(scaled)
        if digits == 0:
            return f"{sign}{scaled}"
        return f"{sign}{scaled // scale}.{scaled % scale:0{digits}d}"

    def _is_exact_at(self, scale: int) -> bool:
        return self.q == 0 and (self.p * scale) % self.r == 0

    def __float__(self) -> float:
        return int(self._floor_scaled(10 ** 17)) / 10 ** 17

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p) if self.r == 1 else f"{self.p}/{self.r}"
        qpart = f"sqrt({self.d})" if abs(self.q) == 1 else f"{abs(self.q)}*sqrt({self.d})"
        op = "+" if self.q > 0 else "-"
        return f"({self.p} {op} {qpart})/{self.r}"

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.p, self.q, self.r, self.d)


def cf_eval(x: Sequence[int]) -> Fraction:
    """Value of the finite continued fraction [a1; a2 : ... : an]."""
    w = word(x)
    if not w:
        raise ValueError("empty continued fraction")
    acc = Fraction(w[-1])
    for a in w[-2::-1]:
        acc = a + 1 / acc
    return acc


def cf_matrix(x: Sequence[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Convergent matrix: the product of [[a, 1], [1, 0]] over the word.

    Its determinant is (-1)^len and the first column holds the final
    convergent numerator/denominator.
    """
    w = word(x)
    if not w:
        raise ValueError("empty continued fraction")
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
    w = word(period)
    if not w:
        raise ValueError("empty period")
    (m11, m12), (m21, m22) = cf_matrix(w)
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
    w = word(period)
    if not w:
        raise ValueError("empty period")
    (m11, m12), (m21, m22) = cf_matrix(w)
    d = (m11 + m22) ** 2 - 4 * (m11 * m22 - m12 * m21)
    q_min, argmin = m21, 0
    for i, a in enumerate(w[:-1], 1):
        # M <- [[0, 1], [1, -a]] M [[a, 1], [1, 0]]: the period rotated by one
        n11 = a * m21 + m22
        m11, m12, m21, m22 = n11, m21, a * (m11 - n11) + m12, m11 - a * m21
        if m21 < q_min:
            q_min, argmin = m21, i
    return MarkovValue(QuadraticSurd(0, 1, q_min, d), argmin)


def markov_element(period: Sequence[int]) -> QuadraticSurd:
    """Reciprocal of the Perron value; the normalised form minimum it equals."""
    return markov_value(period).value.reciprocal()


def is_markov_sequence(period: Sequence[int]) -> bool:
    """True when the Perron value lies strictly below 3, decided exactly."""
    return markov_value(period).value.compare(3) < 0


@dataclass(frozen=True)
class BQForm:
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

    A bounded search, not the true infimum; for the small integral forms
    used here the minimum is attained well inside radius 3. ``normalized``
    is the exact surd min|f|/sqrt(disc). The reported point is canonical:
    positive form value preferred, sign fixed so the first nonzero
    coordinate is positive, then lexicographically smallest.

    Only candidates are evaluated. As f(-x, -y) = f(x, y), the half box
    y > 0, plus x > 0 on y = 0, holds every value. On a row y > 0, f(., y)
    has two real roots (its discriminant is disc*y^2 > 0), or one when
    a = 0; |f| is strictly monotone outside them and strictly concave
    between them, so every point of the row attaining its minimum is a
    floor or ceiling of a root, clamped to [-radius, radius].
    """
    disc = form.discriminant()
    if disc <= 0:
        raise ValueError(f"form must be indefinite, discriminant is {disc}")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    a, b, c = form.a, form.b, form.c
    points = [(x, 0) for x in range(1, radius + 1)]
    for y in range(1, radius + 1):
        if a != 0:
            t = isqrt(disc * y * y)
            roots = ((-b * y - t) // (2 * a), (-b * y + t) // (2 * a))
        else:
            roots = ((-c * y) // b,)  # disc = b^2 > 0, so b != 0
        # each estimate is within one of the root's floor; widen to cover
        # its floor and ceiling
        xs = {min(max(k + e, -radius), radius) for k in roots for e in (-1, 0, 1, 2)}
        points.extend((x, y) for x in xs)
    best: int | None = None
    attaining: list[tuple[int, int, int]] = []
    for x, y in points:
        v = form(x, y)
        av = abs(v)
        if best is None or av < best:
            best, attaining = av, [(v, x, y)]
        elif av == best:
            attaining.append((v, x, y))
    assert best is not None

    def canonical(entry: tuple[int, int, int]) -> tuple[int, int, int]:
        v, x, y = entry
        if x < 0 or (x == 0 and y < 0):
            x, y = -x, -y
        return (0 if v >= 0 else 1, x, y)

    _, px, py = min(canonical(e) for e in attaining)
    return LatticeMinimum(best, QuadraticSurd(0, best, disc, disc), (px, py))
