"""The two random-seed-pair sweeps: the block claim (``verify theorem``)
and the agreement of the tree walk with the index recursion (``verify
equivalence``).

Each sweep draws its seed pairs from one seeded :class:`random.Random`, so a
run is reproducible from its seed, and yields one
:class:`~markovwords.theorems.VerificationReport` per pair, naming the first
index where the pair fails. Only those two commands and the package's
exports import this module, so no other launch compiles it.
"""
from __future__ import annotations

import random
from itertools import count
from typing import Iterator, Sequence

from .diatomic import stern, stern_table
from .theorems import VerificationReport, _first_false
from .tree import LABEL_SEEDS, relabel, s_rec, walk
from .words import Word, format_word, is_palindrome, is_palindromic_rotation, rotate, word


def _palindromic_seeds(a: Sequence[int], b: Sequence[int]) -> tuple[Word, Word]:
    wa, wb = word(a), word(b)
    if not (is_palindrome(wa) and is_palindrome(wb)):
        raise ValueError("seed words must be palindromic")
    return wa, wb


def _rearrangement_shift(seeds: tuple[Word, Word], labels: Sequence[int], d: int) -> int:
    """How far :func:`block_rearrangement` rotates S(n), given its labels over {1, 2}."""
    k = d // 2
    n_a = labels[:k].count(1)
    shift = n_a * len(seeds[0]) + (k - n_a) * len(seeds[1])
    return shift + len(seeds[labels[k] - 1]) // 2 if d % 2 else shift


def _rearrangement_verdicts(
    a: Sequence[int], b: Sequence[int], shifts: Sequence[int]
) -> Iterator[bool]:
    """Whether the block rearrangement of S(n) is palindromic, for n = 1,
    ..., len(shifts); ``shifts`` holds d(n) for those indices.

    S(n) is walked on the seeds :func:`~markovwords.tree.relabel` gives,
    beside its label word on :data:`LABEL_SEEDS`, and each word is dropped
    once it is tested.
    """
    seeds = _palindromic_seeds(a, b)
    hi = len(shifts)
    return (is_palindromic_rotation(s, _rearrangement_shift(seeds, labels, d))
            for s, labels, d in zip(walk(*relabel(*seeds), 1, hi), walk(*LABEL_SEEDS, 1, hi),
                                    shifts))


def _arrangement(seeds: tuple[Word, Word], n: int, d: int) -> Word:
    """:func:`block_rearrangement` on validated seeds, given d = d(n)."""
    s, labels = next(walk(*seeds, n, n)), next(walk(*LABEL_SEEDS, n, n))
    return rotate(s, _rearrangement_shift(seeds, labels, d))


def block_rearrangement(a: Sequence[int], b: Sequence[int], n: int) -> Word:
    """The block rearrangement of S(n) asserted to be palindromic.

    With d = d(n) and blocks B1..BN: for even d, concatenate blocks starting
    at block d/2+1; for odd d, split block c=(d+1)/2 into its ceil and floor
    halves and wrap them around the remaining blocks. That is S(n) rotated
    left by n_A|A| + (k-n_A)|B|, k = floor(d/2) and n_A the A-labels of the
    first k, plus floor(|B(k+1)|/2) for odd d; by d for length-2 seeds.

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
    seeds = _palindromic_seeds(a, b)
    if n < 1:
        raise ValueError("indices start at 1")
    return _arrangement(seeds, n, stern(n))


def random_palindrome(rng: random.Random, lengths: Sequence[int] = range(1, 9)) -> Word:
    """A uniform-length random palindrome over 1..9, built by mirroring a random half."""
    m = rng.choice(list(lengths))
    half = [rng.randint(1, 9) for _ in range(m // 2)]
    middle = [rng.randint(1, 9)] if m % 2 else []
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


def _pair_report(
    claim: str, index: int, a: Sequence[int], b: Sequence[int], counterexample: object
) -> VerificationReport:
    """The report of one seed pair's sweep, passed exactly when it found no
    counterexample; the witness names the pair."""
    return VerificationReport(claim, index, counterexample is None,
                              {"A": format_word(a), "B": format_word(b)}, counterexample)


def verify_rearrangement_pair(
    pair_index: int, a: Sequence[int], b: Sequence[int], n_max: int
) -> VerificationReport:
    """Sweep one seed pair through all n <= n_max and name the first index
    whose :func:`_rearrangement_verdicts` fails, with its arrangement."""
    shifts = stern_table(n_max)[1:]
    n = _first_false(_rearrangement_verdicts(a, b, shifts), count(1))
    first = None if n is None else {
        "n": n, "arrangement": format_word(_arrangement(_palindromic_seeds(a, b), n, shifts[n - 1]))}
    return _pair_report("block-rearrangement-pair", pair_index, a, b, first)


def iter_block_rearrangement(
    n_max: int, trials: int, seed: int
) -> Iterator[VerificationReport]:
    """One report per random palindromic seed pair, sweeping all n <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    pairs = random_seed_pairs(trials, seed)
    return (verify_rearrangement_pair(idx, wa, wb, n_max)
            for idx, (wa, wb) in enumerate(pairs, 1))


def random_word_pairs(pairs: int, seed: int) -> list[tuple[Word, Word]]:
    """Deterministic random seed pairs of lengths 1..4 (not necessarily palindromic)."""
    rng = random.Random(seed)
    out = []
    for _ in range(pairs):
        wa = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4)))
        wb = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4)))
        out.append((wa, wb))
    return out


def verify_equivalence_pair(
    pair_index: int, a: Sequence[int], b: Sequence[int], levels: int
) -> VerificationReport:
    """Compare the tree walk with the index recursion through 2**levels.

    The two builders are independent: the walk concatenates along the tree
    and never reads a or a*, which drive the recursion.
    """
    words = enumerate(walk(a, b, 0, 2 ** levels))
    mismatch = next((n for n, w in words if s_rec(a, b, n) != w), None)
    return _pair_report("recursion-vs-graph", pair_index, a, b, mismatch)


def iter_equivalence(
    levels: int, pairs: int = 20, seed: int = 42
) -> Iterator[VerificationReport]:
    """One equivalence report per seed pair: (1,1),(2,2) first, then random pairs."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    seed_pairs = [((1, 1), (2, 2))] + random_word_pairs(pairs, seed)
    return (verify_equivalence_pair(idx, wa, wb, levels)
            for idx, (wa, wb) in enumerate(seed_pairs))
