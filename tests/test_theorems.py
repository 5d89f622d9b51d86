import os
import random

import pytest

from oracles import (
    a_of_by_halving,
    even_index_factorization_by_halving,
    index_identities_by_index,
    length_identity_by_index,
    length_is_diatomic_by_index,
    mirror_arithmetic_by_index,
    mirror_index_by_search,
    odd_index_factorization_by_chain,
    row_symmetry_by_index,
)

from markovwords import theorems
from markovwords.diatomic import a_of, a_table, stern, stern_table
from markovwords.theorems import (
    VerificationReport,
    block_exponent_profile,
    block_rearrangement,
    even_index_factorization,
    iter_equivalence,
    iter_lemma_checks,
    iter_shift_palindromic,
    length_of_s,
    mirror_index,
    odd_index_factorization,
    random_palindrome,
    sweep,
    verify_block_rearrangement,
    verify_mirror,
    verify_shift_palindromic,
    verify_shift_palindromic_range,
)
from markovwords.tree import _s_rec_cached, s_rec
from markovwords.words import format_word, is_palindrome, rotate

A, B = (1, 1), (2, 2)


def test_shift_palindromic_examples():
    r3 = verify_shift_palindromic(1, 2, 3)
    assert r3.passed and r3.witness == 2
    assert rotate(s_rec(A, B, 3), 2) == (1, 1, 2, 2, 1, 1)
    r14 = verify_shift_palindromic(1, 2, 14)
    assert r14.passed and r14.witness == 3
    # index 5 needs the corrected left-flank rule; shift d(5)=3
    r5 = verify_shift_palindromic(1, 2, 5)
    assert r5.passed
    assert rotate(s_rec(A, B, 5), 3) == (1, 1, 1, 2, 2, 1, 1, 1)


def test_shift_palindromic_preconditions():
    with pytest.raises(ValueError):
        verify_shift_palindromic(1, 1, 3)
    with pytest.raises(ValueError):
        verify_shift_palindromic(1, 2, 0)


def test_shift_palindromic_sweep_small():
    assert all(rep.passed for rep in iter_shift_palindromic(256))


def test_shift_palindromic_sweep_matches_single_queries():
    # 3000 crosses two range boundaries and the level boundary at 2048
    single = [verify_shift_palindromic(3, 5, n) for n in range(1, 3001)]
    assert list(iter_shift_palindromic(3000, 3, 5)) == single


def test_shift_palindromic_sweep_short_ranges(monkeypatch):
    monkeypatch.setattr(theorems, "SHIFT_RANGE", 7)
    single = [verify_shift_palindromic(2, 7, n) for n in range(1, 301)]
    assert list(iter_shift_palindromic(300, 2, 7)) == single


def test_shift_palindromic_range_preconditions():
    with pytest.raises(ValueError):
        verify_shift_palindromic_range(1, 1, 3, [2])
    with pytest.raises(ValueError):
        verify_shift_palindromic_range(1, 2, 0, [0, 1])
    assert verify_shift_palindromic_range(1, 2, 3, []) == []


def test_failing_shift_report_prints_the_rotation(monkeypatch):
    # the claim holds everywhere, so force the check to fail
    monkeypatch.setattr(theorems, "is_palindromic_rotation", lambda w, s: False)
    expected = format_word(rotate(s_rec(A, B, 14), 3))
    for rep in (verify_shift_palindromic(1, 2, 14), list(iter_shift_palindromic(14))[-1]):
        assert not rep.passed and rep.witness == 3
        assert rep.counterexample == expected


def test_arrangement_even_case():
    # d(3)=2: blocks rotate to ABA
    assert block_rearrangement(A, B, 3) == (1, 1, 2, 2, 1, 1)
    # d(12)=2: blocks rotate to ABABABA
    r12 = verify_block_rearrangement(A, B, 12)
    assert r12.passed
    assert block_rearrangement(A, B, 12) == rotate(s_rec(A, B, 12), 2)


def test_arrangement_odd_case():
    # d(14)=3 splits block 2 (=B); reproduces the rotation by 3
    arr = block_rearrangement(A, B, 14)
    assert arr == (2, 1, 1, 2, 2, 2, 2, 1, 1, 2, 2, 2, 2, 1, 1, 2)
    assert arr == rotate(s_rec(A, B, 14), 3)
    assert verify_block_rearrangement(A, B, 14).passed


def test_arrangement_single_block():
    # n=1: the arrangement is ceil(B) + floor(B), i.e. B itself for even B
    assert block_rearrangement(A, B, 1) == B


def test_arrangement_preconditions():
    with pytest.raises(ValueError):
        block_rearrangement((1, 2), (3,), 5)  # (1,2) not palindromic
    with pytest.raises(ValueError):
        block_rearrangement((), (3,), 5)
    with pytest.raises(ValueError):
        block_rearrangement(A, B, 0)


def test_rearrangement_equals_rotation_for_length2_seeds():
    for n in range(1, 257):
        assert block_rearrangement(A, B, n) == rotate(s_rec(A, B, n), stern(n))


def test_even_length_seeds_always_pass():
    rng = random.Random(11)
    for _ in range(25):
        wa = random_palindrome(rng, lengths=(2, 4, 6, 8))
        wb = random_palindrome(rng, lengths=(2, 4, 6, 8))
        for n in range(1, 129):
            assert verify_block_rearrangement(wa, wb, n).passed, (wa, wb, n)


def test_odd_length_seed_failure_is_real():
    # The stated construction is NOT palindromic for seeds (1,2,1),(3) at
    # n=7: it yields (3,1,2,1,3,3,1,2,1). This is not an implementation
    # artefact: at n=5 the word S(5) = (1,2,1)*3 + (3) contains the letter
    # 2 three times and 3 once, so no rotation of this even-length word can
    # be a palindrome at all (palindromes of even length have even letter
    # counts). The block-rearrangement claim genuinely needs even-length
    # seeds when the split block has odd length.
    rep = verify_block_rearrangement((1, 2, 1), (3,), 7)
    assert not rep.passed
    assert block_rearrangement((1, 2, 1), (3,), 7) == (3, 1, 2, 1, 3, 3, 1, 2, 1)
    s5 = s_rec((1, 2, 1), (3,), 5)
    assert not any(is_palindrome(rotate(s5, k)) for k in range(len(s5)))
    assert not verify_block_rearrangement((1, 2, 1), (3,), 5).passed


def test_length_of_s():
    assert length_of_s(14) == 16 == 2 * stern(27)
    assert length_of_s(3) == 6
    assert length_of_s(2) == 4
    assert length_of_s(0) == 2 and length_of_s(1) == 2
    # general seed lengths agree with materialisation
    for n in range(0, 65):
        assert length_of_s(n, 3, 1) == len(s_rec((1, 2, 1), (3,), n))


def test_even_factorization_examples():
    assert even_index_factorization(12) == (0, 2, 3)
    assert even_index_factorization(10) == (0, 3, 2)
    assert even_index_factorization(4) == (2, 1, 1)
    assert even_index_factorization(8) == (2, 1, 2)
    with pytest.raises(ValueError):
        even_index_factorization(7)
    with pytest.raises(ValueError):
        even_index_factorization(2)


def test_odd_factorization_examples():
    assert odd_index_factorization(11) == (3, 2, 2)
    assert odd_index_factorization(7) == (2, 2, 1)
    assert odd_index_factorization(3) == (0, 2, 1)
    with pytest.raises(ValueError):
        odd_index_factorization(6)


def test_factorizations_rebuild_words():
    for k in range(3, 513):
        if k % 2 == 0:
            prefix, base, power = even_index_factorization(k)
            rebuilt = s_rec(A, B, prefix) + s_rec(A, B, base) * power
        else:
            base, power, suffix = odd_index_factorization(k)
            rebuilt = s_rec(A, B, base) * power + s_rec(A, B, suffix)
        assert rebuilt == s_rec(A, B, k), k


def test_mirror_index():
    assert mirror_index(7) == 6
    assert mirror_index(8) == 5
    assert mirror_index(4) is None
    # formula value for 14 = 6*2^(3-2)+2 is 12-2+1 = 11 (and 11 verifies;
    # 13 does not: reverse(S_{B,A}(13)) is S(12), not S(14))
    assert mirror_index(14) == 11
    assert mirror_index(9) is None  # gap between level ranges
    assert mirror_index(24) is None
    assert mirror_index(25) == 24
    with pytest.raises(ValueError):
        mirror_index(2)


def test_index_closed_forms_match_loops():
    for j in range(1, 2 ** 16):
        assert a_of(j) == a_of_by_halving(j), j
    for k in range(3, 2 ** 16):
        if k % 2 == 0:
            assert even_index_factorization(k) == even_index_factorization_by_halving(k), k
        else:
            assert odd_index_factorization(k) == odd_index_factorization_by_chain(k), k
        assert mirror_index(k) == mirror_index_by_search(k), k


def test_verify_mirror():
    for k in (7, 8, 14):
        assert verify_mirror(A, B, k).passed
    with pytest.raises(ValueError):
        verify_mirror(A, B, 4)


def test_verify_mirror_sweep():
    # reversal flips the letters inside each block, so the element-level
    # mirror identity needs palindromic seeds
    rng = random.Random(5)
    wa = random_palindrome(rng, lengths=(1, 2, 3, 4))
    wb = random_palindrome(rng, lengths=(1, 2, 3, 4))
    for k in range(3, 513):
        if mirror_index(k) is not None:
            assert verify_mirror(wa, wb, k).passed, k
    # with non-palindromic seeds the check honestly reports failure
    assert not verify_mirror((5, 6, 9), (1, 8), 7).passed


def test_block_exponent_profile():
    assert block_exponent_profile(14) == [(1, 1), (1, 2), (1, 2)]
    assert block_exponent_profile(3) == [(2, 1)]
    assert block_exponent_profile(2) == [(1, 1)]
    assert block_exponent_profile(1) == [(0, 1)]
    assert block_exponent_profile(5) == [(3, 1)]


def test_block_exponent_structure_small():
    for n in range(1, 513):
        profile = block_exponent_profile(n)
        assert all(a == 1 for a, _ in profile) or all(b == 1 for _, b in profile)


def test_equivalence_reports():
    reports = list(iter_equivalence(levels=6, pairs=4, seed=9))
    assert len(reports) == 5
    assert all(r.passed for r in reports)


def test_identity_suite_small():
    reports = list(iter_lemma_checks(256))
    failing = [r for r in reports if not r.passed]
    assert failing == []
    assert {r.claim for r in reports} == {
        "length-identity",
        "length-is-diatomic",
        "half-length-chain",
        "factorizations",
        "shift-inequalities",
        "row-symmetry",
        "mirror-arithmetic",
        "index-identities",
        "block-exponents",
    }


def test_report_json():
    rep = VerificationReport(claim="demo", n=3, passed=False, witness=2,
                             counterexample="1,2")
    assert rep.to_json() == {
        "claim": "demo", "n": 3, "passed": False, "witness": 2,
        "counterexample": "1,2",
    }


def test_random_palindrome_generator():
    rng = random.Random(0)
    for _ in range(200):
        w = random_palindrome(rng)
        assert 1 <= len(w) <= 8
        assert w == w[::-1]
        assert all(1 <= x <= 9 for x in w)


TABLE_CHECKS = [
    (theorems.check_length_identity, length_identity_by_index, 1200),
    (theorems.check_length_is_diatomic, length_is_diatomic_by_index, 1200),
    (theorems.check_mirror_arithmetic, mirror_arithmetic_by_index, 8),
    (theorems.check_index_identities, index_identities_by_index, 10),
    (theorems.check_row_symmetry, row_symmetry_by_index, 10),
]


@pytest.mark.parametrize("kind", ["d", "a"])
def test_table_checks_report_what_the_index_loops_report(monkeypatch, kind):
    # one wrong table entry at a time: each slice-wise check must name the
    # same first counterexample as its per-index loop, or pass with it
    big = 2 ** 12
    found = 0
    for j in (3, 5, 6, 12, 37, 64, 100, 257, 700, 1023, 1500, 2048, 3001):
        for delta in (1, -1):
            d, a = stern_table(big), a_table(big)
            (d if kind == "d" else a)[j] += delta

            def wrong(table):
                return lambda n: table[:n + 1]

            monkeypatch.setattr(theorems, "stern_table", wrong(d))
            monkeypatch.setattr(theorems, "a_table", wrong(a))
            for check, by_index, bound in TABLE_CHECKS:
                expected = by_index(bound, d.__getitem__, a.__getitem__)
                assert check(bound) == expected, (check.__name__, kind, j, delta)
                found += expected is not None
    assert found > 20


def test_sweeps_leave_the_memo_caches_alone():
    # the words come from the walk and d(n), a(j) from tables, not from
    # the memoised recursions that serve single queries
    before = stern.cache_info(), _s_rec_cached.cache_info()
    assert all(rep.passed for rep in iter_shift_palindromic(5000, 4, 9))
    for check, bound in [
        (theorems.check_length_identity, 5000), (theorems.check_length_is_diatomic, 5000),
        (theorems.check_half_length_chain, 5000), (theorems.check_shift_inequalities, 5000),
        (theorems.check_row_symmetry, 12), (theorems.check_mirror_arithmetic, 12),
        (theorems.check_index_identities, 12),
    ]:
        assert check(bound) is None
    assert (stern.cache_info(), _s_rec_cached.cache_info()) == before


@pytest.mark.parametrize("cpus, requested, pool", [
    (2, 64, [2]), (8, 3, [3]), (1, 64, []), (None, 4, []),
])
def test_sweep_caps_workers_at_cpu_count(monkeypatch, stub_pool, cpus, requested, pool):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cases = [(2, k) for k in range(10)]
    assert list(sweep(pow, cases, workers=requested)) == [2 ** k for k in range(10)]
    assert stub_pool == pool
