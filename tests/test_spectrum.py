import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import bqf_min_brute, markov_value_by_tails, perron_float, tail_float

from markovwords.spectrum import (
    BQForm,
    QuadraticSurd,
    bqf_min,
    cf_eval,
    cf_matrix,
    is_markov_sequence,
    markov_element,
    markov_value,
    zero_tail,
)
from markovwords.tree import s_rec

letters = st.integers(min_value=1, max_value=4)
periods = st.lists(letters, min_size=1, max_size=8).map(tuple)

SQRT5 = QuadraticSurd(0, 1, 1, 5)
GOLDEN_TAIL = QuadraticSurd(-1, 1, 2, 5)  # (sqrt(5)-1)/2


def test_cf_eval_examples():
    assert cf_eval((2,)) == 2
    assert cf_eval((1, 1, 1)) == Fraction(3, 2)
    # direct fold: 2 + 1/(2 + 1/(1 + 1/1)) = 12/5
    assert cf_eval((2, 2, 1, 1)) == Fraction(12, 5)
    with pytest.raises(ValueError):
        cf_eval(())


def test_cf_matrix_examples():
    assert cf_matrix((2,)) == ((2, 1), (1, 0))
    assert cf_matrix((1, 1)) == ((2, 1), (1, 1))


@given(periods)
def test_cf_matrix_determinant_and_ratio(w):
    (m11, m12), (m21, m22) = cf_matrix(w)
    det = m11 * m22 - m12 * m21
    assert det == (-1) ** len(w)
    assert Fraction(m11, m21) == cf_eval(w)


def test_zero_tail_examples():
    assert zero_tail((1, 1)) == GOLDEN_TAIL
    assert zero_tail((1,)) == GOLDEN_TAIL
    assert zero_tail((2, 2)) == QuadraticSurd(-1, 1, 1, 2)  # sqrt(2) - 1
    with pytest.raises(ValueError):
        zero_tail(())


@given(periods)
def test_zero_tail_in_unit_interval(w):
    t = zero_tail(w)
    assert t.compare(0) > 0
    assert t.compare(1) < 0


@given(periods)
def test_zero_tail_satisfies_its_quadratic(w):
    (m11, m12), (m21, m22) = cf_matrix(w)
    y = zero_tail(w).reciprocal()
    residue = y * y * m21 + y * (m22 - m11) - m12
    assert residue.is_zero()


def test_surd_arithmetic_examples():
    assert GOLDEN_TAIL + GOLDEN_TAIL + 1 == SQRT5
    assert GOLDEN_TAIL.reciprocal() == QuadraticSurd(1, 1, 2, 5)  # (sqrt(5)+1)/2
    assert SQRT5.compare(3) < 0
    assert QuadraticSurd(0, 1, 1, 8) == QuadraticSurd(0, 1, 2, 32) == QuadraticSurd(0, 2, 1, 2)


def test_surd_normalisation():
    assert QuadraticSurd(2, 0, -4, 0) == QuadraticSurd(-1, 0, 2, 0)
    assert QuadraticSurd(1, 2, 1, 9).as_tuple() == (7, 0, 1, 0)  # 1 + 2*3
    assert QuadraticSurd(2, 4, 6, 5).as_tuple() == (1, 2, 3, 5)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 0, 5)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 1, -5)


def test_surd_compare_and_errors():
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, 1, 5) + QuadraticSurd(0, 1, 1, 7)
    assert QuadraticSurd(0, 1, 1, 5) != QuadraticSurd(0, 1, 1, 7)
    with pytest.raises(ZeroDivisionError):
        QuadraticSurd(0, 0, 1, 0).reciprocal()
    # rationals combine with any radicand
    assert QuadraticSurd(3, 0, 2, 0) + QuadraticSurd(0, 1, 1, 5) == QuadraticSurd(3, 2, 2, 5)


def test_surd_decimal():
    assert SQRT5.to_decimal(12) == "2.236067977499"
    assert QuadraticSurd(0, 1, 1, 8).to_decimal(12) == "2.828427124746"
    assert QuadraticSurd(0, 1, 5, 221).to_decimal(12) == "2.973213749463"
    assert QuadraticSurd(-3, 0, 2, 0).to_decimal(2) == "-1.50"
    assert (-SQRT5).to_decimal(3) == "-2.236"
    assert SQRT5.to_decimal(0) == "2"
    assert QuadraticSurd(7, 0, 1, 0).to_decimal(3) == "7.000"


@given(st.integers(-10**6, 10**6), st.integers(-50, 50), st.integers(1, 10**4),
       st.integers(0, 30))
def test_rational_surd_hash_matches_fraction(p, q, r, root):
    # q*sqrt(root^2) folds into the rational part, so x is rational
    x = QuadraticSurd(p, q, r, root * root)
    f = Fraction(p + q * root, r)
    assert x == f
    assert hash(x) == hash(f)
    assert len({x, f}) == 1


@given(st.integers(-100, 100) | st.integers(-10**6, 10**6), st.integers(1, 10**4),
       st.integers(0, 6))
def test_decimal_of_fraction_truncates_toward_zero_keeping_sign(num, den, digits):
    f = Fraction(num, den)
    text = QuadraticSurd.from_fraction(f).to_decimal(digits)
    assert text.startswith("-") == (f < 0)
    scale = 10 ** digits
    assert Fraction(text) == Fraction(math.trunc(f * scale), scale)


def test_decimal_sign_survives_truncation_to_zero():
    assert QuadraticSurd.from_fraction(Fraction(-1, 20)).to_decimal(1) == "-0.0"
    assert QuadraticSurd(0, -1, 1000, 5).to_decimal(2) == "-0.00"
    assert QuadraticSurd(0, 0, 1, 0).to_decimal(2) == "0.00"


surd_ints = st.integers(min_value=-50, max_value=50)


@given(surd_ints, surd_ints, st.integers(1, 20), st.sampled_from([2, 3, 5, 7, 10]))
def test_surd_reciprocal_roundtrip(p, q, r, d):
    x = QuadraticSurd(p, q, r, d)
    if not x.is_zero():
        assert x.reciprocal().reciprocal() == x
        assert x * x.reciprocal() == QuadraticSurd(1, 0, 1, 0)


@given(surd_ints, surd_ints, surd_ints, surd_ints, st.integers(1, 9), st.integers(1, 9),
       st.sampled_from([2, 3, 5, 7]))
def test_surd_order_consistent_with_floats(p1, q1, p2, q2, r1, r2, d):
    x = QuadraticSurd(p1, q1, r1, d)
    y = QuadraticSurd(p2, q2, r2, d)
    fx = (p1 + q1 * d ** 0.5) / r1
    fy = (p2 + q2 * d ** 0.5) / r2
    if abs(fx - fy) > 1e-9:
        assert (x.compare(y) < 0) == (fx < fy)


CROSS_RADICANDS = [0, 2, 3, 5, 8, 12, 18, 20, 45]


def _decimal_100(x: QuadraticSurd) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 100
        return (x.p + x.q * Decimal(x.d).sqrt()) / x.r


@given(surd_ints, surd_ints, st.integers(1, 9), st.sampled_from(CROSS_RADICANDS),
       surd_ints, surd_ints, st.integers(1, 9), st.sampled_from(CROSS_RADICANDS))
def test_surd_compare_across_fields_matches_decimal(p1, q1, r1, d1, p2, q2, r2, d2):
    x = QuadraticSurd(p1, q1, r1, d1)
    y = QuadraticSurd(p2, q2, r2, d2)
    gap = _decimal_100(x) - _decimal_100(y)
    # unequal values of this height differ by far more than 10^-80
    expected = 0 if abs(gap) < Decimal(10) ** -80 else (1 if gap > 0 else -1)
    assert x.compare(y) == expected
    assert y.compare(x) == -expected
    assert (x == y) == (expected == 0)


SAME_FIELD_RADICANDS = [2, 8, 18, 3, 12, 27]


@given(surd_ints, surd_ints, st.integers(1, 9), st.sampled_from(SAME_FIELD_RADICANDS),
       surd_ints, surd_ints, st.integers(1, 9), st.sampled_from(SAME_FIELD_RADICANDS))
def test_surd_arithmetic_across_radicands_matches_decimal(p1, q1, r1, d1, p2, q2, r2, d2):
    x = QuadraticSurd(p1, q1, r1, d1)
    y = QuadraticSurd(p2, q2, r2, d2)
    if math.isqrt(x.d * y.d) ** 2 != x.d * y.d:
        # sqrt(2) and sqrt(3) span different fields: no exact sum or product
        with pytest.raises(ValueError, match="incompatible radicands"):
            x + y
        with pytest.raises(ValueError, match="incompatible radicands"):
            x * y
        return
    dx, dy = _decimal_100(x), _decimal_100(y)
    with localcontext() as ctx:
        ctx.prec = 100
        for exact, approx in ((x + y, dx + dy), (x * y, dx * dy)):
            assert abs(_decimal_100(exact) - approx) < Decimal(10) ** -90
            assert exact.r > 0 and math.gcd(exact.p, exact.q, exact.r) == 1


def test_surd_arithmetic_across_radicands_examples():
    root8, two_root2 = QuadraticSurd(0, 1, 1, 8), QuadraticSurd(0, 2, 1, 2)
    assert root8 + two_root2 == QuadraticSurd(0, 2, 1, 8)
    assert (root8 + two_root2).as_tuple() == (0, 2, 1, 8)
    assert (two_root2 + root8).as_tuple() == (0, 4, 1, 2)
    assert root8 * two_root2 == 8
    # the normal form keeps the radicand: 2,2 still gives (0,1,2,32)
    assert markov_value((2, 2)).value == QuadraticSurd(0, 1, 1, 8)


def test_surd_compare_across_fields_examples():
    assert QuadraticSurd(0, 1, 1, 8).compare(QuadraticSurd(0, 2, 1, 2)) == 0
    assert QuadraticSurd(0, 1, 1, 8) == QuadraticSurd(0, 2, 1, 2)
    # 1/sqrt(13) against sqrt(5)/5
    value = bqf_min(BQForm(1, 3, -1), 3).normalized
    assert value.compare(markov_element((1, 1))) == -1
    assert markov_element((1, 1)) > value


def test_markov_value_examples():
    v1 = markov_value((1, 1))
    assert v1.value == SQRT5 and v1.argmin == 0
    v2 = markov_value((2, 2))
    assert v2.value == QuadraticSurd(0, 1, 1, 8)
    v3 = markov_value((2, 2, 1, 1))
    assert v3.value == QuadraticSurd(0, 1, 5, 221)
    assert v3.argmin == 0  # position 1 attains the same value; ties go low
    with pytest.raises(ValueError):
        markov_value(())


def assert_same_markov_value(w):
    fast, slow = markov_value(w), markov_value_by_tails(w)
    assert fast.value.as_tuple() == slow.value.as_tuple(), w
    assert fast.argmin == slow.argmin, w


@given(st.lists(st.integers(1, 5), min_size=1, max_size=40).map(tuple))
def test_markov_value_matches_tail_oracle(w):
    assert_same_markov_value(w)


def test_markov_value_matches_tail_oracle_on_tree_words():
    for n in range(513):
        assert_same_markov_value(s_rec((1, 1), (2, 2), n))


def test_markov_value_rotation_invariant():
    rng = random.Random(13)
    for _ in range(40):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 8)))
        base = markov_value(w).value
        for k in range(len(w)):
            rotated = w[k:] + w[:k]
            assert markov_value(rotated).value == base


def test_forward_and_reversed_tails_share_radicand():
    rng = random.Random(29)
    for _ in range(1000):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 12)))
        assert zero_tail(w).d == zero_tail(w[::-1]).d


def test_markov_value_agrees_with_float_oracle():
    rng = random.Random(17)
    for _ in range(60):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 12)))
        approx, _ = perron_float(w)
        exact = markov_value(w).value.to_decimal(12)
        assert abs(float(exact) - approx) < 1e-10


def test_markov_element_examples():
    assert markov_element((1, 1)) == QuadraticSurd(0, 1, 5, 5)  # 1/sqrt(5)
    assert markov_element((2, 2)) == QuadraticSurd(0, 1, 8, 8)  # 1/(2*sqrt(2))
    third = QuadraticSurd(1, 0, 3, 0)
    assert markov_element((1, 1)).compare(third) > 0  # M > 1/3


def test_is_markov_sequence():
    assert is_markov_sequence((1, 1))
    assert is_markov_sequence((2, 2, 1, 1))  # 221 < 225
    assert not is_markov_sequence((3,))
    assert not is_markov_sequence((1, 3))  # contains a letter above 2


def test_tree_words_are_markov_sequences():
    for n in range(1, 65):
        assert is_markov_sequence(s_rec((1, 1), (2, 2), n)), n


def test_bqf_form_basics():
    f = BQForm(1, 1, -1)
    assert f.discriminant() == 5
    assert f(1, 0) == 1 and f(0, 1) == -1


def test_bqf_min_examples():
    res = bqf_min(BQForm(1, 1, -1), 50)
    assert res.min_abs == 1
    assert res.normalized == QuadraticSurd(0, 1, 5, 5)
    assert res.point == (1, 0)
    res2 = bqf_min(BQForm(1, 2, -1), 50)
    assert res2.min_abs == 1
    assert res2.normalized == QuadraticSurd(0, 1, 8, 8)
    with pytest.raises(ValueError):
        bqf_min(BQForm(1, 0, 1), 10)  # discriminant -4
    with pytest.raises(ValueError):
        bqf_min(BQForm(1, 1, -1), 0)


def test_bqf_min_matches_brute_force_on_small_forms():
    cases = 0
    for a, b, c in itertools.product(range(-6, 7), repeat=3):
        form = BQForm(a, b, c)
        if form.discriminant() <= 0:
            continue
        for radius in (1, 2, 3, 5, 8):
            fast, slow = bqf_min(form, radius), bqf_min_brute(form, radius)
            assert fast.min_abs == slow.min_abs, (form, radius)
            assert fast.point == slow.point, (form, radius)
            assert fast.normalized.as_tuple() == slow.normalized.as_tuple(), (form, radius)
            cases += 1
    assert cases == 6940


def test_bqf_cross_checks_markov_element():
    # the normalised lattice minimum equals 1/(Perron value), exactly
    assert bqf_min(BQForm(1, 1, -1), 3).normalized == markov_element((1, 1))
    assert bqf_min(BQForm(1, 2, -1), 3).normalized == markov_element((2, 2))


def test_truncated_float_tails_match_exact_decimals():
    rng = random.Random(101)
    for _ in range(50):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 12)))
        exact = zero_tail(w)
        assert abs(float(exact.to_decimal(15)) - tail_float(w)) < 1e-10
