import random
import sys
import tracemalloc
from array import array
from itertools import product, repeat

import pytest

from oracles import (
    a_of_by_halving,
    arrangement_by_blocks,
    even_index_factorization_by_halving,
    half_length_chain_by_index,
    index_identities_by_index,
    length_identity_by_index,
    length_is_diatomic_by_index,
    mirror_arithmetic_by_index,
    mirror_index,
    mirror_index_by_search,
    odd_index_factorization_by_chain,
    row_symmetry_by_index,
    shift_inequalities_by_index,
    verify_mirror,
    walk_off_axis,
)

from markovwords import theorems
from markovwords.diatomic import PIECE, a_of, a_table, lanes, stern, stern_table
from markovwords.theorems import (
    VerificationReport,
    block_rearrangement,
    even_index_factorization,
    iter_block_rearrangement,
    iter_equivalence,
    iter_lemma_checks,
    iter_shift_palindromic,
    odd_index_factorization,
    random_palindrome,
    random_seed_pairs,
    verify_block_rearrangement,
    verify_rearrangement_pair,
    verify_shift_palindromic,
)
from markovwords.tree import _s_rec_cached, run_lengths, s_rec, walk
from markovwords.words import format_word, is_palindrome, is_symmetric_about, rotate

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
    # 3000 crosses the level boundary at 2048; the sweep and the single
    # queries walk the letters 1, 2 while the expected reports rotate S(n)
    # built on the real letters, some of them too large for a byte
    for a_sym, b_sym in ((3, 5), (256, 1000), (300, 7)):
        seeds = (a_sym, a_sym), (b_sym, b_sym)
        expected = [
            VerificationReport("shift-palindromic", n,
                               is_palindrome(rotate(s_rec(*seeds, n), stern(n))), stern(n))
            for n in range(1, 3001)]
        single = [verify_shift_palindromic(a_sym, b_sym, n) for n in range(1, 3001)]
        assert list(iter_shift_palindromic(3000, a_sym, b_sym)) == single == expected


def test_shift_palindromic_sweep_reads_one_word_per_report(monkeypatch):
    # the sweep is one lazy walk: its first report draws one word, not a run
    first = verify_shift_palindromic(1, 2, 1)
    drawn = []
    real = theorems.walk

    def counting_walk(a, b, lo, hi):
        for w in real(a, b, lo, hi):
            drawn.append(w)
            yield w
    monkeypatch.setattr(theorems, "walk", counting_walk)
    assert next(iter_shift_palindromic(4096)) == first
    assert len(drawn) == 1


def test_shift_palindromic_range_preconditions():
    # the verdict stream is checked as it is made, before any word is walked
    with pytest.raises(ValueError):
        theorems._shift_verdicts(1, 1, 3, [2])
    # the stream walks the letters 1, 2, but still rejects a letter below 1
    for a_sym, b_sym in ((0, 2), (3, -1), (True, 2)):
        with pytest.raises(ValueError):
            theorems._shift_verdicts(a_sym, b_sym, 3, [2])
    with pytest.raises(ValueError):
        theorems._shift_verdicts(1, 2, 0, [0, 1])
    assert list(theorems._shift_verdicts(1, 2, 3, [])) == []
    # a verdict and its report: the report of a range index is the single check's
    shifts = stern_table(40)[3:]
    verdicts = list(theorems._shift_verdicts(4, 9, 3, shifts))
    assert [theorems._shift_report(4, 9, n, d, ok)
            for n, d, ok in zip(range(3, 41), shifts, verdicts)] == [
        verify_shift_palindromic(4, 9, n) for n in range(3, 41)]


def test_rotation_test_is_the_axis_test_at_every_shift():
    # every shift 0 <= s <= |L| of every label word L(n), n <= 2^10, passing
    # and failing alike: the rotation-equals-reversal test of the sweep is
    # the axis test about s - 1
    for labels in walk(*theorems.LABEL_SEEDS, 1, 1 << 10):
        shifts = range(len(labels) + 1)
        assert list(theorems._reversed_at(repeat(labels), shifts)) == [
            is_symmetric_about(labels, s - 1) for s in shifts]
    # and the sweep's verdicts are the axis test about d(n) - 1, to 2^15
    shifts = stern_table(1 << 15)[1:]
    assert list(theorems._shift_verdicts(1, 2, 1, shifts)) == list(map(
        is_symmetric_about, walk(*theorems.LABEL_SEEDS, 1, 1 << 15), map((-1).__add__, shifts)))


def test_failing_shift_report_prints_the_rotation(monkeypatch):
    # the claim holds everywhere, so the walked label word of n = 14 gets one
    # letter flipped off its mirror axis; the counterexample is S(n) on
    # (a,a),(b,b), walked apart from the label words, rotated by d(n)
    monkeypatch.setattr(theorems, "walk", walk_off_axis(theorems.walk, [14]))
    for a_sym, b_sym in ((1, 2), (4, 9), (300, 2)):
        expected = format_word(rotate(s_rec((a_sym, a_sym), (b_sym, b_sym), 14), 3))
        assert set(expected.split(",")) == {str(a_sym), str(b_sym)}
        for rep in (verify_shift_palindromic(a_sym, b_sym, 14),
                    list(iter_shift_palindromic(14, a_sym, b_sym))[-1]):
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
        block_rearrangement(A, B, 0)


def test_rearrangement_equals_rotation_for_length2_seeds():
    for n in range(1, 257):
        assert block_rearrangement(A, B, n) == rotate(s_rec(A, B, n), stern(n))


def test_rearrangement_rotation_matches_the_block_construction():
    # random palindromic seeds of lengths 1..8: the rotation of S(n) equals
    # the blocks rearranged one by one, for even d(n) and for odd d(n) with
    # a split block of even and of odd length
    rng = random.Random(3)
    cases = set()
    for _ in range(12):
        wa, wb = random_palindrome(rng), random_palindrome(rng)
        for n in range(1, 257):
            labels, d = s_rec((1,), (2,), n), stern(n)
            expected = arrangement_by_blocks((wa, wb), labels, d)
            assert block_rearrangement(wa, wb, n) == expected, (wa, wb, n)
            cases.add("even d" if d % 2 == 0 else len((wa, wb)[labels[d // 2] - 1]) % 2)
    assert cases == {"even d", 0, 1}


def test_pair_sweep_reports_the_first_failing_index():
    # one pair's verdict stream holds every index n <= 128, the ones after a
    # failure too; the report built from each verdict equals the
    # single-index check and judges the arrangement built block by block;
    # the pair sweep names the stream's first failure, with the same
    # arrangement
    failed = 0
    labels = list(walk((1,), (2,), 0, 128))
    # letters >= 256, and more than 255 distinct letters (walked as tuples)
    half = tuple(range(1, 151))
    odd, even = half + (151,) + half[::-1], half + half[::-1]
    wide = tuple(x + 1000 for x in even)
    pairs = random_seed_pairs(40, 7) + [
        ((300,), (7, 1000, 7)), ((300, 300), (7, 1000, 1000, 7)), (odd, wide), (even, wide)]
    for idx, (wa, wb) in enumerate(pairs, 1):
        shifts = stern_table(128)[1:]
        verdicts = theorems._rearrangement_verdicts(wa, wb, 1, shifts)
        stream = [theorems._rearrangement_report(wa, wb, n, d, ok)
                  for n, d, ok in zip(range(1, 129), shifts, verdicts)]
        assert stream == [verify_block_rearrangement(wa, wb, n) for n in range(1, 129)]
        for n, r in enumerate(stream, 1):
            arrangement = arrangement_by_blocks((wa, wb), labels[n], stern(n))
            assert r.passed == is_palindrome(arrangement), (wa, wb, n)
            assert r.counterexample == (None if r.passed else format_word(arrangement))
        rep = verify_rearrangement_pair(idx, wa, wb, 128)
        first = next((r for r in stream if not r.passed), None)
        assert rep.passed == (first is None)
        if first is not None:
            failed += 1
            assert rep.counterexample == {"n": first.n, "arrangement": first.counterexample}
    assert 0 < failed < 40


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
    assert mirror_index(2) == 2
    assert mirror_index(7) == 6
    assert mirror_index(8) == 5
    assert mirror_index(4) == 3
    # 14 lies on the level (8, 16], so its mirror is 3*8 + 1 - 14 = 11 (and
    # 11 verifies; 13 does not: reverse(S_{B,A}(13)) is S(12), not S(14))
    assert mirror_index(14) == 11
    assert mirror_index(9) == 16  # the two ends of a level swap
    assert mirror_index(24) == 25
    assert mirror_index(25) == 24
    # an involution on each level
    for j in range(12):
        level = range((1 << j) + 1, (2 << j) + 1)
        assert sorted(map(mirror_index, level)) == list(level)
        assert all(mirror_index(mirror_index(k)) == k for k in level)
    with pytest.raises(ValueError):
        mirror_index(1)


def test_index_closed_forms_match_loops():
    for j in range(1, 2 ** 16):
        assert a_of(j) == a_of_by_halving(j), j
    for k in range(3, 2 ** 16):
        if k % 2 == 0:
            assert even_index_factorization(k) == even_index_factorization_by_halving(k), k
        else:
            assert odd_index_factorization(k) == odd_index_factorization_by_chain(k), k
    for k in range(2, 2 ** 12 + 1):
        assert mirror_index(k) == mirror_index_by_search(k), k


def test_verify_mirror():
    for k in (2, 4, 7, 8, 9, 14, 24):
        rep = verify_mirror(A, B, k)
        assert rep.passed and rep.witness == mirror_index(k)
    with pytest.raises(ValueError):
        verify_mirror(A, B, 1)


def test_verify_mirror_sweep():
    # reversal flips the letters inside each block, so the element-level
    # mirror identity needs palindromic seeds
    rng = random.Random(5)
    wa = random_palindrome(rng, lengths=(1, 2, 3, 4))
    wb = random_palindrome(rng, lengths=(1, 2, 3, 4))
    seeds = [(A, B), ((1, 2, 1), (3,)), ((5,), (7, 7, 7)), (B, A), (wa, wb)]
    for k in range(2, 1025):
        for sa, sb in seeds:
            assert verify_mirror(sa, sb, k).passed, (sa, sb, k)
    # with non-palindromic seeds the check honestly reports failure
    assert not verify_mirror((5, 6, 9), (1, 8), 7).passed


def _exponent_profile(n):
    """Run-length exponents (alpha_i, beta_i) of the label word A^a1 B^b1 ...;
    a leading zero alpha or trailing zero beta keeps the pairs alternating."""
    runs = run_lengths(next(walk(b"A", b"B", n, n)).decode(), "A")
    return list(zip(runs[0::2], runs[1::2]))


def test_block_exponent_profile():
    assert _exponent_profile(14) == [(1, 1), (1, 2), (1, 2)]
    assert _exponent_profile(3) == [(2, 1)]
    assert _exponent_profile(2) == [(1, 1)]
    assert _exponent_profile(1) == [(0, 1)]
    assert _exponent_profile(5) == [(3, 1)]


def test_block_exponent_structure_small():
    for n in range(1, 513):
        profile = _exponent_profile(n)
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


# each table check, its per-index oracle, the tables it reads and a bound
TABLE_CHECKS = [
    (theorems.check_length_identity, length_identity_by_index, "d", 1200),
    (theorems.check_length_is_diatomic, length_is_diatomic_by_index, "d", 1200),
    (theorems.check_half_length_chain, half_length_chain_by_index, "d", 1200),
    (theorems.check_mirror_arithmetic, mirror_arithmetic_by_index, "d", 8),
    (theorems.check_index_identities, index_identities_by_index, "a", 10),
    (theorems.check_row_symmetry, row_symmetry_by_index, "d", 10),
    (theorems.check_shift_inequalities, shift_inequalities_by_index, "d", 1200),
]


def tables(reads, d, a):
    return [{"d": d, "a": a}[name] for name in reads]


@pytest.mark.parametrize("kind", ["d", "a"])
def test_table_checks_report_what_the_index_loops_report(kind):
    # one wrong table entry at a time, handed to every check that reads
    # that table: each slice-wise check must name the same first
    # counterexample as its per-index loop, or pass with it
    big = 2 ** 12
    found = 0
    for j in (3, 5, 6, 12, 37, 64, 100, 129, 257, 513, 700, 1023, 1500, 2048, 3001):
        for delta in (1, -1):
            d, a = stern_table(big), a_table(big)
            (d if kind == "d" else a)[j] += delta
            for check, by_index, reads, bound in TABLE_CHECKS:
                if kind == "a" and "a" not in reads:
                    continue
                expected = by_index(bound, d.__getitem__, a.__getitem__)
                got = check(*tables(reads, d, a), bound)
                assert got == expected, (check.__name__, kind, j, delta)
                found += expected is not None
    assert found > 20


def test_length_checks_read_a_on_its_2_adic_classes():
    # none of the length checks reads a_table: they take a(k) = i + 1 on
    # the class k = 2^v (2i + 1), and a(k) = (k + 1)/2 for odd k
    n = 2 ** 13
    a = a_table(n)
    for v in range(n.bit_length()):
        for i in range(((n >> v) + 1) >> 1):
            k = (2 * i + 1) << v
            assert a[k] == a_of(k) == i + 1, k
    assert all(a[k] == (k + 1) // 2 for k in range(1, n + 1, 2))


def test_shift_inequalities_name_the_first_failing_k():
    # a wrong entry of ±1 never breaks these inequalities, so double, zero
    # or shift one entry of d: the class-by-class slices must name the same
    # first failing k and case as the per-k loop
    cases = set()
    a = a_table(1200)
    for j in (3, 5, 6, 12, 37, 64, 100, 257, 700, 1023):
        for wrong_entry in (lambda x: 2 * x, lambda x: 0, lambda x: x + j):
            d = stern_table(1200)
            d[j] = wrong_entry(d[j])
            expected = shift_inequalities_by_index(1200, d.__getitem__, a.__getitem__)
            assert theorems.check_shift_inequalities(d, 1200) == expected, j
            if expected is not None:
                cases.add(expected["case"])
    assert cases == {"even", "odd"}


def test_shift_inequalities_read_each_flank_where_a_points(monkeypatch):
    # the even classes read the flank |S(a(i))|/2 of every i they cover,
    # filled one slice of d per bit; the oracle gathers d(2a(i)-1) entry by
    # entry through a_table, at every bound from 0 to 2^12
    d, a = stern_table(2 ** 13), a_table(2 ** 12)
    calls, real = [], theorems._first_not_below

    def recording(x, m, y, ks):
        calls.append((x, ks))
        return real(x, m, y, ks)
    monkeypatch.setattr(theorems, "_first_not_below", recording)
    for k_hi in range(2 ** 12 + 1):
        blocks = array("I", [1]) + d[1:k_hi + 1:2]
        gathered = array("I", map(blocks.__getitem__, a[1:(k_hi + 2) // 4]))
        calls.clear()
        assert theorems.check_shift_inequalities(d, k_hi) is None, k_hi
        even = [(x, ks) for x, ks in calls if ks.start % 2 == 0]
        assert all(x == gathered[:len(ks)] for x, ks in even), k_hi
        # the class of 6 covers every i, so its flanks are the whole gather
        assert even[0][0] == gathered if k_hi >= 6 else not even, k_hi


@pytest.mark.parametrize("piece", [1, 3, 64])
def test_shift_inequalities_read_each_flank_in_small_pieces(monkeypatch, piece):
    # each piece of an even class fills its own flanks, one slice of d per
    # lowest set bit; joined piece by piece, a class's flanks are the
    # gather through a_table
    d, a = stern_table(2 ** 11), a_table(2 ** 10)
    calls, real = [], theorems._first_not_below

    def recording(x, m, y, ks):
        calls.append((x, ks))
        return real(x, m, y, ks)
    monkeypatch.setattr(theorems, "_first_not_below", recording)
    monkeypatch.setattr(theorems, "PIECE", piece)
    for k_hi in (6, 100, 1000, 2 ** 10):
        blocks = array("I", [1]) + d[1:k_hi + 1:2]
        gathered = array("I", map(blocks.__getitem__, a[1:(k_hi + 2) // 4]))
        calls.clear()
        assert theorems.check_shift_inequalities(d, k_hi) is None, k_hi
        classes = {}
        for x, ks in calls:
            if ks.start % 2 == 0:
                assert len(x) == len(ks) <= piece, k_hi
                classes.setdefault(ks.step, array("I")).extend(x)
        assert classes[4] == gathered, k_hi  # the class of 6 covers every i
        assert all(x == gathered[:len(x)] for x in classes.values()), k_hi


@pytest.mark.parametrize("check, by_index, reads, _", [
    case for case in TABLE_CHECKS if case[3] == 1200])
def test_class_slices_agree_with_the_index_loops_at_every_bound(check, by_index, reads, _):
    # every k_max in 0..600 ends the 2-adic classes at a different place;
    # the clean tables pass, and one tripled entry at the topmost index a
    # check reads, (k_max+1)/2, k_max-1, k_max or 2*k_max-1, is named as
    # the loop names it
    clean_d, a = stern_table(1200), a_table(1200)
    for k_max in range(601):
        assert check(*tables(reads, clean_d, a), k_max) is None, k_max
        for j in ((k_max + 1) // 2, k_max - 1, k_max, 2 * k_max - 1):
            d = clean_d[:]
            d[j] *= 3
            expected = by_index(k_max, d.__getitem__, a.__getitem__)
            assert check(*tables(reads, d, a), k_max) == expected, (k_max, j)


# the topmost index of d each length check reads at a bound k_max
TOPS = {theorems.check_length_identity: lambda k: 2 * k - 1,
        theorems.check_length_is_diatomic: lambda k: k,
        theorems.check_half_length_chain: lambda k: k - 1,
        theorems.check_shift_inequalities: lambda k: (k + 1) // 2}


@pytest.mark.parametrize("check, by_index, reads, _", [
    case for case in TABLE_CHECKS if case[0] in TOPS])
def test_table_checks_in_small_pieces_report_what_the_index_loops_report(
        monkeypatch, check, by_index, reads, _):
    # each class runs in pieces of at most PIECE indices; at every k_max in
    # 0..600 pieces of 1, 3 and 64 end at different places, the clean
    # table passes, and one tripled entry at the topmost index the check
    # reads is named as its loop names it
    clean_d, a = stern_table(1200), a_table(1200)
    for k_max in range(601):
        d = clean_d[:]
        d[TOPS[check](k_max)] *= 3
        expected = by_index(k_max, d.__getitem__, a.__getitem__)
        for piece in (1, 3, 64):
            monkeypatch.setattr(theorems, "PIECE", piece)
            assert check(*tables(reads, clean_d, a), k_max) is None, (k_max, piece)
            assert check(*tables(reads, d, a), k_max) == expected, (k_max, piece)


def test_table_checks_read_entries_past_the_lane_guards():
    # 2^24 + 3 and 2^31 - 1 pass the guards of the lane steps, which must
    # find them; 2^31 and 2^32 - 1 fail a guard, and the element-wise
    # comparison decides. Either way each check names what its loop names
    found = 0
    for value in (2 ** 24 + 3, 2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1):
        for j in (3, 5, 37, 100, 257, 700, 1023, 1199, 1500, 2047, 2399):
            d, a = stern_table(2 ** 12), a_table(2 ** 12)
            d[j] = value
            for check, by_index, reads, bound in TABLE_CHECKS:
                if "d" in reads:
                    expected = by_index(bound, d.__getitem__, a.__getitem__)
                    got = check(*tables(reads, d, a), bound)
                    assert got == expected, (check.__name__, j, value)
                    found += expected is not None
    assert found > 60


def lane_array(*entries):
    """An array('I') whose entries fill its lanes from the lowest up on
    either byte order, so that a crafted carry or borrow runs upward."""
    return array("I", entries if sys.byteorder == "little" else entries[::-1])


def first_unsummed_by_index(whole, left, right):
    failures = (i for i, (w, x, y) in enumerate(zip(whole, left, right)) if w != x + y)
    return next(failures, None)


def first_not_below_by_index(x, m, y):
    return next((i for i, (u, v) in enumerate(zip(x, y)) if not u < m * v), None)


def lane_step_alone(monkeypatch):
    """From here on, a kernel that falls back to the element-wise search fails."""
    def element_wise(flags, indices):
        raise AssertionError("the lane step should have decided")

    monkeypatch.setattr(theorems, "_first_false", element_wise)


def test_sums_hold_only_where_no_lane_carries(monkeypatch):
    def first_unsummed(whole, left, right):
        got = theorems._first_unsummed(whole, left, right, range(len(whole)))
        assert got == first_unsummed_by_index(whole, left, right)
        return got

    # each sum overflows lane 0, and its carry would make lane 1 agree
    carried = lane_array(0, 1)
    assert first_unsummed(carried, lane_array(2 ** 31, 0), lane_array(2 ** 31, 0)) == 0
    assert first_unsummed(carried, lane_array(1, 0), lane_array(2 ** 32 - 1, 0)) == 0
    assert first_unsummed(carried, lane_array(2 ** 32 - 1, 0), lane_array(1, 0)) == 0
    # past the guard a sum that holds is found to hold entry by entry
    assert first_unsummed(lane_array(2 ** 31, 1), lane_array(2 ** 31, 0), carried) is None
    # below 2^31 every lane sum is exact
    left, right = lane_array(2 ** 31 - 1, 3), lane_array(2 ** 31 - 1, 4)
    assert first_unsummed(lane_array(2 ** 32 - 2, 8), left, right) is not None
    assert first_unsummed(lane_array(2 ** 32 - 1, 7), left, right) is not None
    lane_step_alone(monkeypatch)
    assert first_unsummed(lane_array(2 ** 32 - 2, 7), left, right) is None


def test_all_below_only_where_no_lane_borrows_or_spills(monkeypatch):
    def first_not_below(x, m, y):
        got = theorems._first_not_below(x, m, y, range(len(x)))
        assert got == first_not_below_by_index(x, m, y)
        return got

    # x >= 2^31 borrows from the lane above, or from the sign at the top
    assert first_not_below(lane_array(2 ** 31 + 5), 1, lane_array(0)) == 0
    assert first_not_below(lane_array(2 ** 31 + 5, 0), 1, lane_array(0, 2)) is not None
    # 8 * (2^32 - 1) spills 7 into lane 1, where 6 < 8 * 0 fails
    assert first_not_below(lane_array(2 ** 31 - 1, 6), 8, lane_array(2 ** 32 - 1, 0)) is not None
    # past the guard an inequality that holds is found to hold entry by entry
    assert first_not_below(lane_array(2 ** 31 - 1), 1, lane_array(2 ** 31)) is None
    # x == m * y fails; one less holds, up to the largest y the guard passes
    assert first_not_below(lane_array(6, 1), 3, lane_array(2, 1)) is not None
    assert first_not_below(lane_array(3 * 2 ** 29 - 3), 3, lane_array(2 ** 29 - 1)) == 0
    lane_step_alone(monkeypatch)
    assert first_not_below(lane_array(5, 1), 3, lane_array(2, 1)) is None
    assert first_not_below(lane_array(2 ** 30 - 2), 1, lane_array(2 ** 30 - 1)) is None
    assert first_not_below(lane_array(3 * 2 ** 29 - 4), 3, lane_array(2 ** 29 - 1)) is None


def test_lane_kernels_agree_with_the_element_wise_comparisons(monkeypatch):
    # each kernel names the element-wise first failure, and its lane step
    # decides alone exactly when every entry holds and the operands pass
    # the guards
    rng = random.Random(19)
    edges = [0, 1, 2, 3, 2 ** 24 + 3, 2 ** 28, 2 ** 29 - 1, 2 ** 30 - 1, 2 ** 30,
             2 ** 31 - 1, 2 ** 31, 2 ** 32 - 2, 2 ** 32 - 1]
    searched = []
    first_false = theorems._first_false

    def counted(flags, indices):
        searched.append(indices)
        return first_false(flags, indices)

    monkeypatch.setattr(theorems, "_first_false", counted)

    def entries(n):
        return array("I", (min(max(rng.choice(edges) + rng.randint(-1, 1), 0), 2 ** 32 - 1)
                           for _ in range(n)))

    for _ in range(4000):
        n, m = rng.randint(1, 4), rng.randint(1, 40)
        left, right = entries(n), entries(n)
        whole = array("I", (min(x + y, 2 ** 32 - 1) for x, y in zip(left, right)))
        if rng.random() < 0.5:
            whole[rng.randrange(n)] = entries(1)[0]
        expected = first_unsummed_by_index(whole, left, right)
        guarded = max(left + right) < 2 ** 31
        searched.clear()
        assert theorems._first_unsummed(whole, left, right, range(n)) == expected
        assert bool(searched) == (expected is not None or not guarded)
        x, y = entries(n), entries(n)
        if rng.random() < 0.5:
            y = array("I", (min(v, (2 ** 31 - 1) // m) for v in y))
            i = rng.randrange(n)
            x[i] = m * y[i] - rng.randint(0, 1) if m * y[i] else 0
        expected = first_not_below_by_index(x, m, y)
        guarded = max(x) < 2 ** 31 and max(y) < 2 ** (31 - m.bit_length())
        searched.clear()
        assert theorems._first_not_below(x, m, y, range(n)) == expected
        assert bool(searched) == (expected is not None or not guarded)


def test_lemma_suite_reuses_one_mask_per_operand_length(monkeypatch):
    # the kernels read their lane masks from a cache keyed by operand length
    # and lane value; every mask a lemma run reads, past PIECE too, where
    # the mirror arithmetic passes whole levels, equals a fresh build
    read, cached = [], theorems._lane_mask

    def recording(n, value):
        read.append((n, value))
        return cached(n, value)

    monkeypatch.setattr(theorems, "_lane_mask", recording)
    cached.cache_clear()
    assert all(rep.passed for rep in iter_lemma_checks(2 ** 18))
    assert max(n for n, _ in read) > PIECE
    assert cached.cache_info().misses == len(set(read)) < len(read)
    for n, value in set(read):
        assert cached(n, value) == lanes(array("I", [value]) * n), (n, value)


def test_mismatched_operands_raise_instead_of_passing():
    # map() stops at the shorter operand, so unequal lengths used to pass
    with pytest.raises(ValueError, match="lengths differ"):
        theorems._first_mismatch(array("L", [1, 2, 3]), array("L", [1, 2]), range(3))
    with pytest.raises(ValueError, match="lengths differ"):
        theorems._first_mismatch(array("L", [1, 2]), array("L", [1, 2, 9]), range(2))


@pytest.mark.parametrize("check, reads, bound, top", [
    (theorems.check_length_identity, "d", 1200, 2399),
    (theorems.check_length_is_diatomic, "d", 1200, 1200),
    (theorems.check_half_length_chain, "d", 1201, 1200),
    (theorems.check_shift_inequalities, "d", 1201, 601),
    (theorems.check_row_symmetry, "d", 10, 2 << 10),
    (theorems.check_mirror_arithmetic, "d", 8, (4 << 8) - 1),
    (theorems.check_index_identities, "a", 10, 1 << 10),
])
def test_table_checks_reject_a_table_that_ends_early(check, reads, bound, top):
    # a table that ends at the last index a check reads is enough; one
    # entry fewer leaves a slice short, and map() would stop at it, so the
    # comparison raises instead of passing on fewer indices
    table = stern_table(top) if reads == "d" else a_table(top)
    assert check(table, bound) is None
    with pytest.raises(ValueError, match="lengths differ"):
        check(table[:-1], bound)


def test_lemma_suite_builds_one_diatomic_table(monkeypatch):
    built = []

    def counting(n):
        built.append(n)
        return stern_table(n)

    monkeypatch.setattr(theorems, "stern_table", counting)
    # d(2k - 1) for k <= k_max, unless the mirror levels read further:
    # d below 4 << min(levels, 14)
    for k_max, size in [(8, 4 << 3), (4097, 4 << 12), (32768, 2 * 32768)]:
        built.clear()
        assert all(rep.passed for rep in iter_lemma_checks(k_max))
        assert built == [size], k_max


@pytest.mark.parametrize("k_max", [2 ** 18, 2 ** 20])
def test_lemma_suite_holds_little_beside_its_table(k_max):
    # the table of d(0..2 k_max) takes 4 (2 k_max + 1) bytes; the operands
    # and lane integers of every check come in pieces, so all the rest the
    # suite holds at once stays within 2 MiB
    tracemalloc.start()
    try:
        assert all(rep.passed for rep in iter_lemma_checks(k_max))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 4 * (2 * k_max + 1) <= 2 * 2 ** 20


def test_lemma_suite_builds_a_table_for_the_index_identities_alone(monkeypatch):
    built = []

    def counting(n):
        built.append(n)
        return a_table(n)

    monkeypatch.setattr(theorems, "a_table", counting)
    # a(0..2^mirror_levels), mirror_levels = min(bit_length - 1, 14), for
    # every k_max: no other check reads a
    for k_max, size in [(8, 1 << 3), (4097, 1 << 12), (2 ** 17, 1 << 14)]:
        built.clear()
        theorems._lemma_cases(k_max)
        assert built == [size], k_max


def test_sweeps_leave_the_memo_caches_alone():
    # the words come from the walk and d(n), a(j) from tables, not from
    # the memoised recursions that serve single queries
    before = stern.cache_info(), _s_rec_cached.cache_info()
    assert all(rep.passed for rep in iter_shift_palindromic(5000, 4, 9))
    assert len(list(iter_block_rearrangement(300, 8, 42))) == 8
    d, a = stern_table(4 << 12), a_table(5000)
    labels = list(walk(*theorems.LABEL_SEEDS, 0, 2000))
    for check, args in [
        (theorems.check_length_identity, (d, 5000)),
        (theorems.check_length_is_diatomic, (d, 5000)),
        (theorems.check_half_length_chain, (d, 5000)),
        (theorems.check_shift_inequalities, (d, 5000)),
        (theorems.check_row_symmetry, (d, 12)), (theorems.check_mirror_arithmetic, (d, 12)),
        (theorems.check_index_identities, (a, 12)),
        (theorems.check_factorizations, (labels, 2000)),
        (theorems.check_block_exponents, (labels, 2000)),
    ]:
        assert check(*args) is None
    # the mirror check reads both of its words from the walk too
    assert all(verify_mirror(A, B, k).passed for k in range(2, 600))
    assert (stern.cache_info(), _s_rec_cached.cache_info()) == before


def walk_with(index, wrong):
    """``theorems.walk`` with the word of one index replaced by ``wrong``,
    converted to the type of the walked words so that only its letters differ."""
    real = theorems.walk

    def walk(a, b, lo, hi):
        for n, w in enumerate(real(a, b, lo, hi), lo):
            yield type(w)(wrong) if n == index else w
    return walk


def labels_with(hi, index, wrong):
    """The label words L(0..hi), with the word of one index replaced by ``wrong``."""
    labels = list(walk(*theorems.LABEL_SEEDS, 0, hi))
    labels[index] = bytes(wrong)
    return labels


@pytest.mark.parametrize("k", [3, 4, 8, 17, 100, 1023, 1024, 2000])
def test_check_factorizations_names_a_wrong_word(k):
    assert theorems.check_factorizations(labels_with(2000, k, s_rec(A, B, k) + A), 2000) == {
        "k": k}


@pytest.mark.parametrize("k", [0, 1, 5, 64])
def test_equivalence_names_the_first_index_where_the_builders_differ(monkeypatch, k):
    # a wrong walked word at k, and the recursion still right there
    monkeypatch.setattr(theorems, "walk", walk_with(k, (9,)))
    rep = theorems.verify_equivalence_pair(3, A, B, 6)
    assert (rep.passed, rep.counterexample) == (False, k)


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1024, 2000])
def test_check_block_exponents_names_a_wrong_label_word(n):
    # an A-run and a B-run of length 2 break "all A-runs or all B-runs are 1"
    assert theorems.check_block_exponents(labels_with(2000, n, (1, 1, 2, 2)), 2000) == {
        "n": n, "profile": [(2, 2)]}


def test_check_block_exponents_follows_the_run_length_profile():
    # every word over {1, 2} of length 1..12, read as the label word of
    # n = 1: the check must fail exactly where the run-length profile has an
    # A-run and a B-run other than 1, and print that profile
    for length in range(1, 13):
        for letters in product(b"\x01\x02", repeat=length):
            labels = bytes(letters)
            runs = run_lengths(labels, 1)
            alphas, betas = runs[0::2], runs[1::2]
            holds = all(x == 1 for x in alphas) or all(x == 1 for x in betas)
            expected = None if holds else {"n": 1, "profile": list(zip(alphas, betas))}
            assert theorems.check_block_exponents([b"\x01", labels], 1) == expected, labels


@pytest.mark.parametrize("sweep_fn, args, bound", [
    (iter_shift_palindromic, (-1,), "n_max"),
    (iter_block_rearrangement, (-1, 2, 42), "n_max"),
    (iter_equivalence, (-1, 2), "levels"),
    (iter_lemma_checks, (-5,), "k_max"),
    # the CLI's minima: n_max >= 1, k_max >= 8
    (iter_shift_palindromic, (0,), "n_max"),
    (iter_block_rearrangement, (0, 2, 42), "n_max"),
    (iter_lemma_checks, (0,), "k_max"),
    (iter_lemma_checks, (7,), "k_max"),
])
def test_sweeps_reject_a_negative_bound(sweep_fn, args, bound):
    with pytest.raises(ValueError, match=bound):
        sweep_fn(*args)
