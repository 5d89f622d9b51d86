"""Executable checks of the palindromic-shift results and their supporting identities.

Each check returns a :class:`VerificationReport`; batch runners stream
reports instead of aborting, so a sweep always yields the complete
regression surface. A failing report carries a reproducible witness.
Every sweep, the command line's included, runs through :func:`sweep`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import starmap
from typing import Callable, Iterator, Optional, Sequence

from .diatomic import a_of, a_star, stern
from .tree import block_counts, block_labels, block_word, run_lengths, s_rec
from .words import (
    Word,
    format_word,
    half_ceil,
    half_floor,
    is_palindrome,
    reverse,
    rotate,
    word,
)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: claim identifier, index, witness, counterexample."""

    claim: str
    n: int
    passed: bool
    witness: object = None
    counterexample: object = None

    def to_json(self) -> dict:
        out = {"claim": self.claim, "n": self.n, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def verify_shift_palindromic(a_sym: int, b_sym: int, n: int) -> VerificationReport:
    """Check that rotating S(n) by d(n) gives a palindrome, seeds (a,a),(b,b)."""
    if a_sym == b_sym:
        raise ValueError("seed letters must differ")
    if n < 1:
        raise ValueError("indices start at 1")
    seq = s_rec((a_sym, a_sym), (b_sym, b_sym), n)
    shift = stern(n)
    rotated = rotate(seq, shift)
    ok = is_palindrome(rotated)
    return VerificationReport(
        claim="shift-palindromic",
        n=n,
        passed=ok,
        witness=shift,
        counterexample=None if ok else format_word(rotated),
    )


def block_rearrangement(a: Sequence[int], b: Sequence[int], n: int) -> Word:
    """The block rearrangement of S(n) asserted to be palindromic.

    With d = d(n) and blocks B1..BN: for even d, concatenate blocks starting
    at block d/2+1; for odd d, split block c=(d+1)/2 into its ceil and floor
    halves and wrap them around the remaining blocks. For length-2 seeds
    this equals the d-step rotation of S(n).

    The arrangement is palindromic when d is even or the split block has
    even length:

    - the label word rotated by floor(d/2) blocks is a palindrome P for even
      d and has the form v.P for odd d, by the shift theorem, since S(n) with
      seeds (a,a),(b,b) is the label word with every letter doubled;
    - substituting palindromic blocks into P gives a palindrome Q;
    - if the split block is v = h.reverse(h), the arrangement
      reverse(h).Q.h is a palindrome too.

    When the split block has odd length nothing forces a palindrome, and
    sometimes none exists: with seeds (1,2,1),(3), S(5) has even length and
    three 2s, so no rotation of it is palindromic.
    """
    wa, wb = word(a), word(b)
    if not wa or not wb:
        raise ValueError("seed words must be nonempty")
    if not (is_palindrome(wa) and is_palindrome(wb)):
        raise ValueError("seed words must be palindromic")
    if n < 1:
        raise ValueError("indices start at 1")
    registry = block_word(wa, wb, n).registry
    blocks = [registry[lab] for lab in block_labels(n)]
    d = stern(n)
    if d % 2 == 0:
        start = d // 2  # zero-based index of block d/2 + 1
        order = blocks[start:] + blocks[:start]
        return tuple(x for blk in order for x in blk)
    c = (d + 1) // 2
    split = blocks[c - 1]
    middle = blocks[c:] + blocks[: c - 1]
    flat_middle = tuple(x for blk in middle for x in blk)
    return half_ceil(split) + flat_middle + half_floor(split)


def verify_block_rearrangement(
    a: Sequence[int], b: Sequence[int], n: int
) -> VerificationReport:
    """Check that the block rearrangement of S(n) is palindromic.

    The claim is proved only when d(n) is even or the split block
    (d(n)+1)/2 has even length (see :func:`block_rearrangement`); outside
    that scope a failing report records a fact, not a defect.
    """
    arrangement = block_rearrangement(a, b, n)
    d = stern(n)
    ok = is_palindrome(arrangement)
    return VerificationReport(
        claim="block-rearrangement",
        n=n,
        passed=ok,
        witness={"shift": d, "A": format_word(a), "B": format_word(b)},
        counterexample=None if ok else format_word(arrangement),
    )


def length_of_s(n: int, len_a: int = 2, len_b: int = 2) -> int:
    """|S(n)| without materialising the word.

    Equal seed lengths L give the closed form |S(n)| = d(2n-1)*L for n >= 1
    (the label word has d(2n-1) blocks); unequal lengths fall back to the
    exact block counts.
    """
    if n < 0:
        raise ValueError("indices start at 0")
    if n == 0:
        return len_a
    if len_a == len_b:
        return stern(2 * n - 1) * len_a
    ca, cb = block_counts(n)
    return ca * len_a + cb * len_b


def even_index_factorization(k: int) -> tuple[int, int, int]:
    """Factor S(k), k even > 2, as S(prefix) + S(base)^power.

    Halving k to its odd part takes v steps, with 2^v = k & -k: base = a(k),
    prefix = a*(base-1), power = v+1 = (k & -k).bit_length(). Powers of two
    short-circuit to S(2) + S(1)^(power-2); their chain bottoms out at 1.
    """
    if k <= 2 or k % 2 != 0:
        raise ValueError("defined for even k > 2")
    if k & (k - 1) == 0:
        return (2, 1, k.bit_length() - 2)
    base = a_of(k)
    return (a_star(base - 1), base, (k & -k).bit_length())


def odd_index_factorization(k: int) -> tuple[int, int, int]:
    """Factor S(k), k odd > 2, as S(base)^power + S(suffix).

    k -> (k+1)/2 halves k-1 until it is odd; with low = (k-1) & (1-k) the
    lowest set bit of k-1, base = a(k-1), power = low.bit_length() and
    suffix = a(base), except that k-1 = low degenerates to S(0)^power + S(1).
    """
    if k <= 2 or k % 2 == 0:
        raise ValueError("defined for odd k > 2")
    low = (k - 1) & (1 - k)
    if low == k - 1:
        return (0, low.bit_length(), 1)
    base = a_of(k - 1)
    return (base, low.bit_length(), a_of(base))


def mirror_index(k: int) -> Optional[int]:
    """The index m with S_{A,B}(k) equal to the reverse of S_{B,A}(m).

    Defined when k = 6*2^(n-2) + i with n >= 2 and 1 <= i <= 2^(n-1)
    (the upper half of each level); then m = 6*2^(n-2) - i + 1. Such k lie
    in (2^n, 2^(n+1)], so base = 6*2^(n-2) = 3 << ((k-1).bit_length() - 2);
    max(base, 6) leaves out k = 4, on level 1.
    """
    if k < 3:
        raise ValueError("mirror_index is defined for k >= 3")
    base = 3 << ((k - 1).bit_length() - 2)
    return 2 * base - k + 1 if k > max(base, 6) else None


def verify_mirror(a: Sequence[int], b: Sequence[int], k: int) -> VerificationReport:
    """Check S_{A,B}(k) == reverse(S_{B,A}(mirror_index(k))).

    Reversal flips the letters inside each block, so the element-level
    identity holds for palindromic seeds.
    """
    m = mirror_index(k)
    if m is None:
        raise ValueError(f"no mirror index for k={k}")
    ok = s_rec(a, b, k) == reverse(s_rec(b, a, m))
    return VerificationReport(
        claim="mirror",
        n=k,
        passed=ok,
        witness=m,
        counterexample=None if ok else format_word(s_rec(a, b, k)),
    )


def block_exponent_profile(n: int) -> list[tuple[int, int]]:
    """Run-length exponents (alpha_i, beta_i) of the label word A^a1 B^b1 ...

    A leading zero alpha (word starts with B) or trailing zero beta (word
    ends with A) is kept so the pairs always alternate A-run, B-run.
    """
    runs = run_lengths(block_labels(n), "A")
    return [(runs[t], runs[t + 1]) for t in range(0, len(runs), 2)]


def random_palindrome(rng: random.Random, lengths: Sequence[int] = range(1, 9),
                      max_letter: int = 9) -> Word:
    """A uniform-length random palindrome, built by mirroring a random half."""
    m = rng.choice(list(lengths))
    half = [rng.randint(1, max_letter) for _ in range(m // 2)]
    middle = [rng.randint(1, max_letter)] if m % 2 else []
    return tuple(half + middle + half[::-1])


def random_seed_pairs(
    trials: int, seed: int, lengths: Sequence[int] = range(1, 9)
) -> list[tuple[Word, Word]]:
    """Deterministic list of random palindromic seed pairs for a given seed."""
    rng = random.Random(seed)
    return [
        (random_palindrome(rng, lengths), random_palindrome(rng, lengths))
        for _ in range(trials)
    ]


def verify_rearrangement_pair(
    pair_index: int, a: Sequence[int], b: Sequence[int], n_max: int
) -> VerificationReport:
    """Sweep one seed pair through all indices n <= n_max."""
    failure = None
    for n in range(1, n_max + 1):
        rep = verify_block_rearrangement(a, b, n)
        if not rep.passed:
            failure = rep
            break
    return VerificationReport(
        claim="block-rearrangement-pair",
        n=pair_index,
        passed=failure is None,
        witness={"A": format_word(a), "B": format_word(b)},
        counterexample=None
        if failure is None
        else {"n": failure.n, "arrangement": failure.counterexample},
    )


def sweep(fn: Callable, cases: Sequence[tuple], workers: int = 1) -> Iterator:
    """``fn(*case)`` for every case, in the order of ``cases``.

    With ``workers`` > 1 the cases are split into chunks over a process
    pool; ``fn`` must then be a module-level function.
    """
    if workers <= 1:
        yield from starmap(fn, cases)
        return
    # imported here so that serial runs never load the multiprocessing stack
    from concurrent.futures import ProcessPoolExecutor
    chunksize = max(1, len(cases) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, *zip(*cases), chunksize=chunksize)


def iter_shift_palindromic(
    n_max: int, a_sym: int = 1, b_sym: int = 2, workers: int = 1
) -> Iterator[VerificationReport]:
    cases = [(a_sym, b_sym, n) for n in range(1, n_max + 1)]
    return sweep(verify_shift_palindromic, cases, workers)


def iter_block_rearrangement(
    n_max: int, trials: int, seed: int, lengths: Sequence[int] = range(1, 9),
    workers: int = 1,
) -> Iterator[VerificationReport]:
    """One report per random palindromic seed pair, sweeping all n <= n_max."""
    pairs = random_seed_pairs(trials, seed, lengths)
    cases = [(idx, wa, wb, n_max) for idx, (wa, wb) in enumerate(pairs, 1)]
    return sweep(verify_rearrangement_pair, cases, workers)


def random_word_pairs(pairs: int, seed: int, max_len: int = 4) -> list[tuple[Word, Word]]:
    """Deterministic random nonempty seed pairs (not necessarily palindromic)."""
    rng = random.Random(seed)
    out = []
    for _ in range(pairs):
        wa = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, max_len)))
        wb = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, max_len)))
        out.append((wa, wb))
    return out


def verify_equivalence_pair(
    pair_index: int, a: Sequence[int], b: Sequence[int], levels: int
) -> VerificationReport:
    """Compare the graph builder with the index recursion through 2**levels."""
    from .tree import s_graph

    mismatch = None
    for n in range(0, 2 ** levels + 1):
        if s_rec(a, b, n) != s_graph(a, b, n):
            mismatch = n
            break
    return VerificationReport(
        claim="recursion-vs-graph",
        n=pair_index,
        passed=mismatch is None,
        witness={"A": format_word(a), "B": format_word(b)},
        counterexample=mismatch,
    )


def iter_equivalence(
    levels: int, pairs: int = 20, seed: int = 42, workers: int = 1
) -> Iterator[VerificationReport]:
    """One equivalence report per seed pair: (1,1),(2,2) first, then random pairs."""
    seed_pairs = [((1, 1), (2, 2))] + random_word_pairs(pairs, seed)
    cases = [(idx, wa, wb, levels) for idx, (wa, wb) in enumerate(seed_pairs)]
    return sweep(verify_equivalence_pair, cases, workers)


def check_length_identity(k_hi: int) -> Optional[dict]:
    """|S(k)| == |S(a(k))| + |S(a(k-1))| for length-2 seeds, arithmetically."""
    for k in range(2, k_hi + 1):
        if length_of_s(k) != length_of_s(a_of(k)) + length_of_s(a_of(k - 1)):
            return {"k": k}
    return None


def check_length_is_diatomic(k_hi: int) -> Optional[dict]:
    """|S(a(k))| == 2*d(k) for length-2 seeds."""
    for k in range(1, k_hi + 1):
        if length_of_s(a_of(k)) != 2 * stern(k):
            return {"k": k}
    return None


def check_half_length_chain(k_hi: int) -> Optional[dict]:
    """For odd k, the halving-chain endpoint satisfies |S(end)|/2 == d(k-1)."""
    for k in range(3, k_hi + 1, 2):
        e = k
        while e % 2 != 0:
            e = (e + 1) // 2
        if length_of_s(e // 2) // 2 != stern(k - 1):
            return {"k": k, "chain_end": e // 2}
    return None


def check_factorizations(k_hi: int) -> Optional[dict]:
    """Materialised S(k) equals its halving-chain factorization."""
    a, b = (1, 1), (2, 2)
    for k in range(3, k_hi + 1):
        if k % 2 == 0:
            prefix, base, power = even_index_factorization(k)
            rebuilt = s_rec(a, b, prefix) + s_rec(a, b, base) * power
        else:
            base, power, suffix = odd_index_factorization(k)
            rebuilt = s_rec(a, b, base) * power + s_rec(a, b, suffix)
        if rebuilt != s_rec(a, b, k):
            return {"k": k}
    return None


def check_shift_inequalities(k_hi: int) -> Optional[dict]:
    """The length bounds that keep the shifted palindrome window in range.

    Even case: R = L + (|S(a(base-1))| + (power-1)|S(base)|)/2 must exceed
    |S(a(base-1))| with L = d(k/2). Odd case: L = d((k+1)/2) must stay
    below (power-1)*|S(chain end)|.
    """
    for k in range(3, k_hi + 1):
        if k % 2 == 0:
            if k & (k - 1) == 0:
                continue  # chain bottoms at 1; a(0) undefined
            prefix, base, power = even_index_factorization(k)
            left = stern(k // 2)
            right = left + (length_of_s(a_of(base - 1)) + (power - 1) * length_of_s(base)) // 2
            if not right > length_of_s(a_of(base - 1)):
                return {"k": k, "case": "even"}
        else:
            base, power, _ = odd_index_factorization(k)
            chain_end = base if base else 1  # degenerate chain bottoms at index 1
            left = stern((k + 1) // 2)
            if not left < (power - 1) * length_of_s(chain_end):
                return {"k": k, "case": "odd"}
    return None


def check_mirror_arithmetic(n_hi: int) -> Optional[dict]:
    """d(2(k'+1)-1) - d(k'+1) == d(k'') for the mirrored index pairs."""
    for n in range(2, n_hi + 1):
        base = 6 * 2 ** (n - 2)
        for i in range(1, 2 ** (n - 1) + 1):
            kp, kq = base + i - 1, base - i + 1
            if stern(2 * (kp + 1) - 1) - stern(kp + 1) != stern(kq):
                return {"n": n, "i": i}
    return None


def check_index_identities(n_hi: int) -> Optional[dict]:
    """The a/a* index identities used by the level-to-level induction."""
    for n in range(3, n_hi + 1):
        for m in range(3, 2 ** (n - 1) + 1):
            if m % 2 == 0:
                k = m // 2
                if a_of(2 ** (n - 2) + k) != a_of(2 ** (n - 1) + m):
                    return {"n": n, "m": m, "eq": "a"}
                if 2 * (2 ** (n - 2) + k) != 2 ** (n - 1) + m:
                    return {"n": n, "m": m, "eq": "double"}
            else:
                k = (m + 1) // 2
                if a_star(2 ** (n - 2) + k - 1) != a_star(2 ** (n - 1) + m - 1):
                    return {"n": n, "m": m, "eq": "a-star"}
                if 2 ** (n - 2) + k != a_of(2 ** (n - 1) + m):
                    return {"n": n, "m": m, "eq": "a-odd"}
    return None


def check_row_symmetry(n_hi: int) -> Optional[dict]:
    """d(2^n + i) == d(2^(n+1) - i), row by row."""
    for n in range(0, n_hi + 1):
        lo, hi = 2 ** n, 2 ** (n + 1)
        for i in range(0, 2 ** n + 1):
            if stern(lo + i) != stern(hi - i):
                return {"n": n, "i": i}
    return None


def check_block_exponents(n_hi: int) -> Optional[dict]:
    """In every run-length profile, all A-runs are 1 or all B-runs are 1."""
    for n in range(1, n_hi + 1):
        profile = block_exponent_profile(n)
        alphas = [al for al, _ in profile]
        betas = [be for _, be in profile]
        if not (all(x == 1 for x in alphas) or all(x == 1 for x in betas)):
            return {"n": n, "profile": profile}
    return None


def _lemma_report(claim: str, check: Callable, bound: int) -> VerificationReport:
    counterexample = check(bound)
    return VerificationReport(claim, bound, counterexample is None,
                              counterexample=counterexample)


def iter_lemma_checks(k_max: int, workers: int = 1) -> Iterator[VerificationReport]:
    """Run the supporting-identity suite; one report per claim.

    Index-arithmetic checks run to k_max; checks that materialise words are
    capped at 4096 so CLI sweeps stay fast.
    """
    n_levels = max(2, k_max.bit_length() - 1)
    checks = [
        ("length-identity", check_length_identity, k_max),
        ("length-is-diatomic", check_length_is_diatomic, k_max),
        ("half-length-chain", check_half_length_chain, k_max),
        ("factorizations", check_factorizations, min(k_max, 4096)),
        ("shift-inequalities", check_shift_inequalities, k_max),
        ("row-symmetry", check_row_symmetry, min(n_levels, 16)),
        ("mirror-arithmetic", check_mirror_arithmetic, min(n_levels, 14)),
        ("index-identities", check_index_identities, min(n_levels, 14)),
        ("block-exponents", check_block_exponents, min(k_max, 4096)),
    ]
    return sweep(_lemma_report, checks, workers)
