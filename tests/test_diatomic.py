import pytest

from oracles import a_of_by_halving, stern_by_bits

from markovwords.diatomic import a_of, a_star, a_table, stern, stern_row, stern_table

FIRST_TEN_D = (0, 1, 1, 2, 1, 3, 2, 3, 1, 4)
FIRST_TEN_A = (1, 1, 2, 1, 3, 2, 4, 1, 5, 3)


def test_stern_first_values():
    assert tuple(stern(n) for n in range(10)) == FIRST_TEN_D


def test_stern_derived_values():
    assert stern(14) == 3  # d14 = d7 = d4 + d3
    assert stern(27) == 8  # d27 = d14 + d13


def test_stern_rejects_negative():
    with pytest.raises(ValueError):
        stern(-1)


def test_a_first_values():
    assert tuple(a_of(j) for j in range(1, 11)) == FIRST_TEN_A


def test_a_powers_of_two():
    for m in range(21):
        assert a_of(2 ** m) == 1


def test_a_odd_clause():
    for j in range(2, 101):
        assert a_of(2 * j - 1) == j


def test_a_even_clause():
    for j in range(1, 200):
        assert a_of(2 * j) == a_of(j)


def test_a_rejects_zero():
    with pytest.raises(ValueError):
        a_of(0)


def test_a_star_values():
    assert a_star(1) == 0
    assert a_star(2) == 0  # not the bare recurrence: needed for index 5
    assert a_star(3) == 2
    assert a_star(4) == 0
    assert a_star(5) == 3
    for m in range(17):
        assert a_star(2 ** m) == 0
    with pytest.raises(ValueError):
        a_star(0)


def test_a_star_matches_a_off_powers():
    for x in range(1, 2000):
        if x & (x - 1):
            assert a_star(x) == a_of(x)


def test_stern_row_values():
    assert stern_row(0) == [1, 1]
    assert stern_row(1) == [1, 2, 1]
    assert stern_row(2) == [1, 3, 2, 3, 1]


def test_row_symmetry():
    # d(2^n + i) == d(2^(n+1) - i) for 0 <= i <= 2^n
    for n in range(17):
        row = stern_row(n)
        assert row == row[::-1]


def test_recurrence_restated_to_1e5():
    for j in range(2, 10 ** 5 + 1):
        assert stern(2 * j - 1) == stern(j) + stern(j - 1)


def test_index_identities():
    # m = 2k > 2: a(2^(n-2)+k) == a(2^(n-1)+m) and 2(2^(n-2)+k) == 2^(n-1)+m
    # m = 2k-1 > 2: a*(2^(n-2)+k-1) == a*(2^(n-1)+m-1) and 2^(n-2)+k == a(2^(n-1)+m)
    for n in range(3, 15):
        for m in range(3, 2 ** (n - 1) + 1):
            if m % 2 == 0:
                k = m // 2
                assert a_of(2 ** (n - 2) + k) == a_of(2 ** (n - 1) + m)
                assert 2 * (2 ** (n - 2) + k) == 2 ** (n - 1) + m
            else:
                k = (m + 1) // 2
                assert a_star(2 ** (n - 2) + k - 1) == a_star(2 ** (n - 1) + m - 1)
                assert 2 ** (n - 2) + k == a_of(2 ** (n - 1) + m)


def test_mirror_arithmetic_identity():
    # with k' = 6*2^(n-2)+i-1 and k'' = 6*2^(n-2)-i+1:
    # d(2(k'+1)-1) - d(k'+1) == d(k'')
    for n in range(2, 15):
        base = 6 * 2 ** (n - 2)
        for i in range(1, 2 ** (n - 1) + 1):
            kp, kq = base + i - 1, base - i + 1
            assert stern(2 * (kp + 1) - 1) - stern(kp + 1) == stern(kq)


def test_stern_table_matches_memo_and_bit_loop():
    table = stern_table(2 ** 16)
    assert len(table) == 2 ** 16 + 1
    assert list(table) == [stern(n) for n in range(2 ** 16 + 1)]
    assert list(table) == [stern_by_bits(n) for n in range(2 ** 16 + 1)]


def test_stern_table_every_small_length():
    # the doubling passes are cut to n + 1 entries at every n
    for n in range(70):
        assert list(stern_table(n)) == [stern_by_bits(k) for k in range(n + 1)]
    with pytest.raises(ValueError):
        stern_table(-1)


def test_a_table_matches_a_of_and_halving():
    table = a_table(2 ** 16)
    assert table[0] == 0
    assert list(table[1:]) == [a_of(j) for j in range(1, 2 ** 16 + 1)]
    assert list(table[1:]) == [a_of_by_halving(j) for j in range(1, 2 ** 16 + 1)]
    for n in range(70):
        assert list(a_table(n)[1:]) == [a_of(j) for j in range(1, n + 1)]
    with pytest.raises(ValueError):
        a_table(-1)
