import random
import sys
from array import array

import pytest

from oracles import a_of_by_halving, stern_by_bits, stern_by_recursion

from markovwords import diatomic
from markovwords.diatomic import a_of, a_star, a_table, lanes, stern, stern_table

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


def _row(n):
    """The row (d(2^n), ..., d(2^(n+1))) of the diatomic array."""
    return stern_table(2 ** (n + 1))[2 ** n:].tolist()


def test_stern_row_values():
    assert _row(0) == [1, 1]
    assert _row(1) == [1, 2, 1]
    assert _row(2) == [1, 3, 2, 3, 1]


def test_row_symmetry():
    # d(2^n + i) == d(2^(n+1) - i) for 0 <= i <= 2^n
    for n in range(17):
        row = _row(n)
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
    # d(2k-1) - d(k) == d(k*) on the whole level (2^n, 2^(n+1)], with
    # k* = 3*2^n + 1 - k the reflection of k in its level
    for n in range(2, 15):
        for k in range(2 ** n + 1, 2 ** (n + 1) + 1):
            assert stern(2 * k - 1) - stern(k) == stern(3 * 2 ** n + 1 - k), k


def test_stern_agrees_with_the_recursion_and_the_low_bit_loop_on_wide_indices():
    # stern reads the bits of n highest first, stern_by_bits lowest first, and
    # the memoised recursion checks both on indices of up to 300 bits, as deep
    # as the recursion goes (every n to 2^16 is checked with the table below)
    rng = random.Random(35)
    wide = [rng.getrandbits(bits) for bits in (64, 150, 300) for _ in range(30)]
    for n in [*wide, 10 ** 90 - 1, 2 ** 299 + 1]:
        assert stern(n) == stern_by_bits(n) == stern_by_recursion(n), n


def test_stern_of_an_index_of_any_size():
    # no recursion: an index of 4000 digits, past any recursion limit, reads
    # one pass over its 13,288 bits
    for n in (10 ** 150 - 1, 10 ** 4000 - 1, 2 ** 20000 - 1):
        assert stern(n) == stern_by_bits(n), n
    assert stern(2 ** 20000 - 1) == 20000  # d(2^k - 1) = k


def test_stern_table_matches_memo_and_bit_loop():
    table = stern_table(2 ** 16)
    assert len(table) == 2 ** 16 + 1
    assert list(table) == [stern(n) for n in range(2 ** 16 + 1)]
    assert list(table) == [stern_by_bits(n) for n in range(2 ** 16 + 1)]
    assert list(table) == [stern_by_recursion(n) for n in range(2 ** 16 + 1)]
    # the rows are filled up to n: sizes on both sides of a row boundary
    for m in range(17):
        for n in (2 ** m - 1, 2 ** m, 2 ** m + 1):
            assert list(stern_table(n)) == [stern(k) for k in range(n + 1)], n


def test_stern_table_every_small_length():
    # the doubling passes are cut to n + 1 entries at every n
    for n in range(70):
        assert list(stern_table(n)) == [stern_by_bits(k) for k in range(n + 1)]
    with pytest.raises(ValueError):
        stern_table(-1)


@pytest.mark.parametrize("piece", [1, 3, 64])
def test_stern_table_in_small_pieces(monkeypatch, piece):
    # each row is filled piece by piece: pieces that end inside a row, at
    # its cut at n, and before its even half ends; every n <= 5000 for
    # pieces of 64, every length around a row boundary for the smaller ones
    expected = [stern_by_bits(k) for k in range(5001)]
    monkeypatch.setattr(diatomic, "PIECE", piece)
    edges = {n + e for n in (1 << m for m in range(1, 13)) for e in (-2, -1, 0, 1, 2)}
    sizes = range(5001) if piece == 64 else sorted(set(range(200)) | edges | {4999, 5000})
    for n in sizes:
        assert list(stern_table(n)) == expected[:n + 1], n


def test_tables_are_32_bit_lanes():
    # lanes() reads entry i as bits 32i..32i+31 on a little-endian machine,
    # and from the top lane down on a big-endian one
    for table in (stern_table(100), a_table(100)):
        assert (table.typecode, table.itemsize) == ("I", 4)
    entries = [5, 2 ** 32 - 1, 0, 2 ** 31]
    order = entries if sys.byteorder == "little" else entries[::-1]
    assert lanes(array("I", entries)) == sum(e << (32 * i) for i, e in enumerate(order))


def test_a_table_matches_a_of_and_halving():
    table = a_table(2 ** 16)
    assert table[0] == 0
    assert list(table[1:]) == [a_of(j) for j in range(1, 2 ** 16 + 1)]
    assert list(table[1:]) == [a_of_by_halving(j) for j in range(1, 2 ** 16 + 1)]
    for n in range(70):
        assert list(a_table(n)[1:]) == [a_of(j) for j in range(1, n + 1)]
    with pytest.raises(ValueError):
        a_table(-1)
