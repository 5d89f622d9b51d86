"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 4 sweeps random palindromic seeds of lengths 1-8 and checks the
block rearrangement where it is proved palindromic: d(n) even, or the block it
splits has even length. Outside that scope it is sometimes not palindromic and
sometimes no rotation of S(n) is (see test_theorems.py::
test_odd_length_seed_failure_is_real), so those cases are counted, not judged.
"""
import time

from oracles import perron_float, s_graph, s_rec_with_rule

from markovwords.diatomic import a_of, a_table, stern, stern_table
from markovwords.spectrum import BQForm, QuadraticSurd, bqf_min, markov_value
from markovwords.theorems import (
    LABEL_SEEDS,
    _rearrangement_verdicts,
    block_rearrangement,
    check_block_exponents,
    check_factorizations,
    check_half_length_chain,
    check_index_identities,
    check_length_identity,
    check_length_is_diatomic,
    check_mirror_arithmetic,
    check_row_symmetry,
    check_shift_inequalities,
    iter_equivalence,
    random_seed_pairs,
    verify_rearrangement_pair,
    verify_shift_palindromic,
)
from markovwords.tree import s_rec, walk
from markovwords.words import format_word, rotate

A, B = (1, 1), (2, 2)


def _report(num: int, ok: bool, elapsed: float, budget: float, desc: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} [{elapsed:.2f}s/{budget:.0f}s] {desc}", flush=True)


def test_criterion_1_golden_values():
    budget = 1.0
    t0 = time.perf_counter()
    problems = []
    if s_rec(A, B, 14) != (1, 1, 2, 2, 1, 1, 2, 2, 2, 2, 1, 1, 2, 2, 2, 2):
        problems.append("index-14 word")
    if s_rec(A, B, 3) != (1, 1, 1, 1, 2, 2):
        problems.append("index-3 word")
    if rotate(s_rec(A, B, 3), 2) != (1, 1, 2, 2, 1, 1):
        problems.append("rotation of index-3 word")
    if tuple(a_of(j) for j in range(1, 11)) != (1, 1, 2, 1, 3, 2, 4, 1, 5, 3):
        problems.append("a(1..10)")
    if tuple(stern(n) for n in range(10)) != (0, 1, 1, 2, 1, 3, 2, 3, 1, 4):
        problems.append("d(0..9)")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < budget
    _report(1, ok, elapsed, budget, "golden values: S(14), S(3), C2(S(3)), a(1..10), d(0..9)")
    assert not problems, problems
    assert elapsed < budget


def test_criterion_2_shift_palindromicity_to_4096():
    budget = 10.0
    t0 = time.perf_counter()
    failures = [rep.n for rep in
                (verify_shift_palindromic(1, 2, n) for n in range(1, 4097))
                if not rep.passed]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _report(2, ok, elapsed, budget,
            "rotate(S(n), d(n)) palindromic for 1 <= n <= 4096, seeds (1,1),(2,2)")
    assert not failures, failures[:10]
    assert elapsed < budget


def test_criterion_3_builder_equivalence_level_10():
    budget = 30.0
    t0 = time.perf_counter()
    reports = list(iter_equivalence(levels=10, pairs=20, seed=42))
    failures = [r for r in reports if not r.passed]

    # the corrected left-flank rule is load-bearing: zeroing only x=1 must
    # diverge from the graph, first at index 5 (the documented witness)
    def literal_rule(x: int) -> int:
        return 0 if x == 1 else a_of(x)

    first_divergence = next(
        n for n in range(0, 1025)
        if s_rec_with_rule(A, B, n, literal_rule) != s_graph(A, B, n)
    )
    elapsed = time.perf_counter() - t0
    ok = not failures and first_divergence == 5 and elapsed < budget
    _report(3, ok, elapsed, budget,
            "recursion == graph for n <= 2^10 over 21 seed pairs; "
            f"literal flank rule diverges first at {first_divergence}")
    assert not failures, failures
    assert first_divergence == 5
    assert elapsed < budget


def test_criterion_4_block_rearrangement_random_seeds():
    # The arrangement is proved palindromic when d = d(n) is even or the split
    # block (d+1)/2 has even length (argument in block_rearrangement's
    # docstring). Each pair's verdict stream judges every (pair, n) on its
    # own, so a failure at one n does not hide the in-scope indices after it;
    # only a failing case builds its arrangement.
    budget = 60.0
    t0 = time.perf_counter()
    pairs = random_seed_pairs(trials=200, seed=42)  # lengths 1..8, letters 1..9
    in_scope = out_of_scope = 0
    failures = []
    labels = [w.decode() for w in walk(b"A", b"B", 0, 512)]
    shifts = stern_table(512)[1:]
    for idx, (wa, wb) in enumerate(pairs, 1):
        seeds = {"A": wa, "B": wb}
        verdicts = list(_rearrangement_verdicts(wa, wb, shifts))
        assert len(verdicts) == 512
        for n, ok in enumerate(verdicts, 1):
            d = stern(n)
            if d % 2 and len(seeds[labels[n][(d + 1) // 2 - 1]]) % 2:
                out_of_scope += 1
                continue
            in_scope += 1
            if not ok:
                failures.append((idx, wa, wb, n, d))
    elapsed = time.perf_counter() - t0
    ok = not failures and out_of_scope > 0 and elapsed < budget
    _report(4, ok, elapsed, budget,
            f"block rearrangement palindromic for n <= 512 over 200 random "
            f"palindromic seed pairs where d(n) is even or the split block has "
            f"even length ({in_scope} cases in scope, {len(failures)} failed; "
            f"{out_of_scope} out of scope, not judged)")
    if failures:
        idx, wa, wb, n, d = failures[0]
        raise AssertionError(
            f"{len(failures)}/{in_scope} in-scope cases fail, first: pair {idx} "
            f"A={format_word(wa)} B={format_word(wb)} at n={n}, "
            f"d(n)={d}, arrangement {format_word(block_rearrangement(wa, wb, n))}")
    # the sweep must still reach odd-length split blocks, or lengths 1..8
    # would test no more than the even-length refinement below
    assert out_of_scope > 0
    assert (in_scope, out_of_scope) == (70355, 32045)
    assert elapsed < budget


def test_criterion_4_even_length_refinement():
    # the scope on which the rearrangement claim is actually true: both
    # seeds of even length (the split block then has even length and its
    # halves mirror); same volume as criterion 4
    budget = 60.0
    t0 = time.perf_counter()
    pairs = random_seed_pairs(trials=200, seed=42, lengths=(2, 4, 6, 8))
    failures = [verify_rearrangement_pair(i, wa, wb, 512)
                for i, (wa, wb) in enumerate(pairs, 1)]
    failures = [r for r in failures if not r.passed]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _report(4, ok, elapsed, budget,
            "refinement: same sweep restricted to even-length seeds")
    assert not failures, failures[:3]
    assert elapsed < budget


def test_criterion_5_supporting_identity_suite():
    budget = 60.0
    t0 = time.perf_counter()
    # one table of d serves every check but the index identities, which
    # read one table of a, and the two word checks share one walk, as in
    # the CLI suite
    d, a = stern_table(2 * 10 ** 5), a_table(2 ** 14)
    labels = list(walk(*LABEL_SEEDS, 0, 2 ** 12))
    checks = [
        ("length-identity", check_length_identity, (d, 10 ** 5)),
        ("length-is-diatomic", check_length_is_diatomic, (d, 10 ** 5)),
        ("half-length-chain", check_half_length_chain, (d, 2 ** 14)),
        ("factorizations", check_factorizations, (labels, 2 ** 12)),
        ("shift-inequalities", check_shift_inequalities, (d, 2 ** 12)),
        ("row-symmetry", check_row_symmetry, (d, 16)),
        ("mirror-arithmetic", check_mirror_arithmetic, (d, 14)),
        ("index-identities", check_index_identities, (a, 14)),
        ("block-exponents", check_block_exponents, (labels, 2 ** 12)),
    ]
    failures = {name: cx for name, fn, args in checks
                if (cx := fn(*args)) is not None}
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _report(5, ok, elapsed, budget,
            "supporting identities over their stated ranges (9 claims)")
    assert not failures, failures
    assert elapsed < budget


def test_criterion_6_spectrum_values():
    budget = 1.0
    t0 = time.perf_counter()
    cases = [
        ((1, 1), QuadraticSurd(0, 1, 1, 5), "2.236067977499"),
        ((2, 2), QuadraticSurd(0, 1, 1, 8), "2.828427124746"),
        ((2, 2, 1, 1), QuadraticSurd(0, 1, 5, 221), "2.973213749463"),
    ]
    problems = []
    for period, expected, decimal12 in cases:
        mv = markov_value(period)
        if mv.value != expected:
            problems.append((period, "surd", mv.value.as_tuple()))
        if mv.value.to_decimal(12) != decimal12:
            problems.append((period, "decimal", mv.value.to_decimal(12)))
        approx, _ = perron_float(period, depth=60)
        if abs(float(mv.value.to_decimal(15)) - approx) >= 1e-10:
            problems.append((period, "float-oracle", approx))
        if not mv.value.compare(3) < 0:
            problems.append((period, "below-3"))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < budget
    _report(6, ok, elapsed, budget,
            "exact values sqrt5, sqrt8, sqrt221/5; 12-digit decimals; "
            "depth-60 oracle at 1e-10; all < 3")
    assert not problems, problems
    assert elapsed < budget


def test_criterion_7_markov_predicate_to_64():
    budget = 10.0
    t0 = time.perf_counter()
    failures = [n for n in range(1, 65)
                if not markov_value(s_rec(A, B, n)).value.compare(3) < 0]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _report(7, ok, elapsed, budget,
            "markov_value(S(n)) < 3 for 1 <= n <= 64, seeds (1,1),(2,2)")
    assert not failures, failures
    assert elapsed < budget


def test_criterion_8_quadratic_form_cross_check():
    budget = 1.0
    t0 = time.perf_counter()
    problems = []
    res5 = bqf_min(BQForm(1, 1, -1), 50)
    if res5.normalized != QuadraticSurd(0, 1, 5, 5):
        problems.append(("(1,1,-1)", res5.normalized.as_tuple()))
    if res5.normalized != markov_value((1, 1)).value.reciprocal():
        problems.append("(1,1,-1) vs 1/markov_value((1,1))")
    res8 = bqf_min(BQForm(1, 2, -1), 50)
    if res8.normalized != QuadraticSurd(0, 1, 8, 8):
        problems.append(("(1,2,-1)", res8.normalized.as_tuple()))
    if res8.normalized != markov_value((2, 2)).value.reciprocal():
        problems.append("(1,2,-1) vs 1/markov_value((2,2))")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < budget
    _report(8, ok, elapsed, budget,
            "lattice minima of x^2+xy-y^2 and x^2+2xy-y^2 match the "
            "reciprocal Perron values exactly")
    assert not problems, problems
    assert elapsed < budget
