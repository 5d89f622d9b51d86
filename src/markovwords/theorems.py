"""Executable checks of the palindromic-shift results and their supporting identities.

Each check returns a :class:`VerificationReport`; batch runners stream
reports instead of aborting, so a sweep always yields the complete
regression surface. A failing report carries a reproducible witness.
Every sweep is one lazy iterator, read by the command line as it writes.
Each per-index claim is a stream of verdicts, one bool per index, and a
builder of one index's report from its verdict, which walks S(n) again
only for a failing index; sweeps and single-index checks read that pair.
"""
from __future__ import annotations

import random
from array import array
from functools import lru_cache, partial
from itertools import chain, compress, count, repeat, starmap, tee
from operator import add, eq, itemgetter, lt, mul, not_
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Sized

from .diatomic import PIECE, a_of, a_star, a_table, lanes, stern, stern_table
from .tree import relabel, run_lengths, s_rec, walk
from .words import Word, format_word, is_palindrome, is_palindromic_rotation, rotate, word

# the seeds every walking sweep uses: the label words on (1),(2), as
# bytes, so concatenations and comparisons copy and compare whole blocks
LABEL_SEEDS = (b"\x01", b"\x02")


class VerificationReport(NamedTuple):
    """Outcome of one check: claim identifier, index, witness, counterexample."""

    claim: str
    n: int
    passed: bool
    witness: object = None
    counterexample: object = None

    def to_json(self) -> dict:
        return {key: value for key, value in self._asdict().items() if value is not None}


def _check_shift_letters(a_sym: int, b_sym: int) -> None:
    if a_sym == b_sym:
        raise ValueError("seed letters must differ")
    word((a_sym, b_sym))


def verify_shift_palindromic(a_sym: int, b_sym: int, n: int) -> VerificationReport:
    """Check that rotating S(n) by d(n) gives a palindrome, seeds (a,a),(b,b):
    :func:`_shift_report` of the one verdict :func:`_shift_verdicts` gives n."""
    d = stern(n)
    return _shift_report(a_sym, b_sym, n, d, next(_shift_verdicts(a_sym, b_sym, n, [d])))


def _shift_verdicts(a_sym: int, b_sym: int, lo: int, shifts: Sequence[int]) -> Iterator[bool]:
    """Whether S(n) rotated by d(n) is a palindrome, for n = lo, ...,
    lo + len(shifts) - 1: :func:`_reversed_at` over one
    :func:`~markovwords.tree.walk` of the label words L(n) of the range on
    :data:`LABEL_SEEDS`, at the shifts d(n) in ``shifts``.

    S(n) on (a,a),(b,b) is L(n) with every letter doubled, S[i] = L[i//2]
    with |S| = 2m, and a -> 1, b -> 2 is injective. The rotation of S by d
    is a palindrome exactly when S[i] == S[(2d - 1 - i) % 2m] for every i.
    Both i = 2j and i = 2j + 1 halve to L[j] == L[(d - 1 - j) % m], so it
    is one exactly when L is symmetric about d - 1. Each shift is in range:
    d(n) <= d(n) + d(n - 1) = d(2n - 1) = |L(n)|.
    """
    _check_shift_letters(a_sym, b_sym)
    if lo < 1:
        raise ValueError("indices start at 1")
    return _reversed_at(walk(*LABEL_SEEDS, lo, lo + len(shifts) - 1), shifts)


def _reversed_at(words: Iterable[bytes], shifts: Iterable[int]) -> Iterator[bool]:
    """Whether each word L rotated by its shift d is reverse(L), for
    0 <= d <= |L|; that is ``words.is_symmetric_about(L, d - 1)``.

    With m = |L|, (L + L)[d:d + m] is L[d:] + L[:d], the rotation, and
    reverse(L) is reverse(L[d:]) + reverse(L[:d]); the parts have equal
    lengths, so the two agree exactly when L[:d] and L[d:] are palindromes,
    which is L[j] == L[(d - 1 - j) % m] for j < d and for j >= d. So each
    verdict is one ``bytes.startswith`` of L + L and L reversed at d, a map
    of builtins over one ``tee`` of ``words``, each word dropped once tested.
    """
    words, mirrors = tee(words)
    return map(bytes.startswith, map(mul, words, repeat(2)),
               map(itemgetter(slice(None, None, -1)), mirrors), shifts)


def _shift_report(a_sym: int, b_sym: int, n: int, shift: int, ok: bool) -> VerificationReport:
    """The report of index n, given its verdict from :func:`_shift_verdicts`.
    A failing index walks S(n) on (a,a),(b,b) on its own, and rotates it."""
    return VerificationReport("shift-palindromic", n, ok, shift, None if ok else format_word(
        rotate(next(walk((a_sym, a_sym), (b_sym, b_sym), n, n)), shift)))


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
    a: Sequence[int], b: Sequence[int], lo: int, shifts: Sequence[int]
) -> Iterator[bool]:
    """Whether the block rearrangement of S(n) is palindromic, for n = lo,
    ..., lo + len(shifts) - 1; ``shifts`` holds d(n) for those indices.

    S(n) is walked on the seeds :func:`~markovwords.tree.relabel` gives,
    beside its label word on :data:`LABEL_SEEDS`, and each word is dropped
    once it is tested.
    """
    seeds = _palindromic_seeds(a, b)
    if lo < 1:
        raise ValueError("indices start at 1")
    _, *relabelled = relabel(*seeds)
    hi = lo + len(shifts) - 1
    return (is_palindromic_rotation(s, _rearrangement_shift(seeds, labels, d))
            for s, labels, d in zip(walk(*relabelled, lo, hi), walk(*LABEL_SEEDS, lo, hi), shifts))


def _rearrangement_report(
    a: Sequence[int], b: Sequence[int], n: int, d: int, ok: bool
) -> VerificationReport:
    """The report of index n, given d = d(n) and its verdict from
    :func:`_rearrangement_verdicts`. A failing index walks S(n) again on
    its own, and builds its arrangement."""
    return VerificationReport(
        "block-rearrangement", n, ok, {"shift": d, "A": format_word(a), "B": format_word(b)},
        None if ok else format_word(_arrangement(_palindromic_seeds(a, b), n, d)))


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


def verify_block_rearrangement(
    a: Sequence[int], b: Sequence[int], n: int
) -> VerificationReport:
    """Check that the block rearrangement of S(n) is palindromic.

    The claim is proved only when d(n) is even or the split block
    (d(n)+1)/2 has even length (see :func:`block_rearrangement`); outside
    that scope a failing report records a fact, not a defect.
    """
    d = stern(n)
    return _rearrangement_report(a, b, n, d, next(_rearrangement_verdicts(a, b, n, [d])))


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
    n = _first_false(_rearrangement_verdicts(a, b, 1, shifts), count(1))
    first = None if n is None else {
        "n": n, "arrangement": format_word(_arrangement(_palindromic_seeds(a, b), n, shifts[n - 1]))}
    return _pair_report("block-rearrangement-pair", pair_index, a, b, first)


def iter_shift_palindromic(
    n_max: int, a_sym: int = 1, b_sym: int = 2
) -> Iterator[VerificationReport]:
    """One report per index n <= n_max, in index order: :func:`_shift_report`
    over the verdicts :func:`_shift_verdicts` reads from one walk of
    L(1..n_max) beside one table of d(1..n_max), one report at a time."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    shifts = stern_table(n_max)[1:]
    verdicts = _shift_verdicts(a_sym, b_sym, 1, shifts)
    return map(partial(_shift_report, a_sym, b_sym), count(1), shifts, verdicts)


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


def _same_length(*operands: Sized) -> None:
    """Raise unless the operands have one length: ``map`` stops at the
    shortest, so a comparison would pass on the entries it never reached."""
    if len({len(x) for x in operands}) > 1:
        raise ValueError(f"operand lengths differ: {[len(x) for x in operands]}")


def _first_false(flags: Iterable[bool], indices: Iterable[int]) -> Optional[int]:
    """The index paired with the first false flag, or None when all hold."""
    return next(compress(indices, map(not_, flags)), None)


def _first_mismatch(x: array, y: array, indices: range) -> Optional[int]:
    """:func:`_first_false` of x == y elementwise; one comparison when all hold.
    A table that ends early leaves x or y short of ``indices``, and raises."""
    _same_length(x, y, indices)
    return None if x == y else _first_false(map(eq, x, y), indices)


@lru_cache(maxsize=256)
def _lane_mask(n: int, value: int) -> int:
    """:func:`~markovwords.diatomic.lanes` of n entries equal to ``value``:
    the same few masks serve every class of a lemma run, one per operand
    length, so each is built once."""
    return lanes(array("I", [value]) * n)


def _first_unsummed(whole: array, left: array, right: array, indices: range) -> Optional[int]:
    """:func:`_first_false` of whole == left + right elementwise on ``array('I')``;
    one lane addition when all hold. No lane carries while left and right
    stay below 2^31; past that, or on a failure, entries are compared one by one."""
    _same_length(whole, left, right, indices)
    top = _lane_mask(len(whole), 1 << 31)
    x, y = lanes(left), lanes(right)
    if not (x | y) & top and lanes(whole) == x + y:
        return None
    return _first_false(map(eq, whole, map(add, left, right)), indices)


def _first_not_below(x: array, m: int, y: array, indices: range) -> Optional[int]:
    """:func:`_first_false` of x < m*y elementwise on ``array('I')``; one lane
    subtraction when all hold. With x[i] < 2^31 and y[i] < 2^(31 - m.bit_length()),
    so m*y[i] < 2^31, the lane m*y[i] + 2^31 - x[i] - 1 neither borrows nor
    carries, and keeps bit 31 exactly when x[i] < m*y[i]; past those bounds,
    or on a failure, entries are compared one by one."""
    _same_length(x, y, indices)
    top, ones, xs, ys = _lane_mask(len(x), 1 << 31), _lane_mask(len(x), 1), lanes(x), lanes(y)
    # bits 31 - m.bit_length() to 31 of every lane: set in y only past the guard
    y_high = _lane_mask(len(x), (1 << 32) - (1 << (31 - m.bit_length())))
    if not (xs & top or ys & y_high) and (m * ys + top - xs - ones) & top == top:
        return None
    return _first_false(map(lt, x, map(m.__mul__, y)), indices)


def _least(indices: Iterable[Optional[int]]) -> Optional[int]:
    """The smallest index that is not None, or None when there is none."""
    return min((i for i in indices if i is not None), default=None)


def _pieces(ks: range) -> Iterator[tuple[range, range]]:
    """``ks`` in sub-ranges of at most PIECE indices, each beside the places
    in ``ks`` it covers, so no operand sliced for it outgrows a piece."""
    places = range(len(ks))
    return ((ks[o:o + PIECE], places[o:o + PIECE]) for o in places[::PIECE])


def _at(d: array, scale: int, shift: int, ks: range) -> array:
    """d(scale*k + shift) for k in ``ks``: one strided slice, short if ``d`` is."""
    first = scale * ks.start + shift
    return d[first:first + scale * ks.step * len(ks):scale * ks.step]


def _flanks(d: array, places: range) -> array:
    """The flank |S(a(i))|/2 = d(2a(i) - 1) of every i in ``places``: 2a(i) - 1
    is the odd part of i, so one slice of ``d`` per lowest set bit fills them."""
    out = array("I", [0]) * len(places)
    for low in map((1).__lshift__, range((places.stop - 1).bit_length())):
        first = places.start + (low - places.start) % (2 * low)  # lowest set bit low
        out[first - places.start::2 * low] = d[first // low:-(-places.stop // low):2]
    return out


def check_length_identity(d: array, k_hi: int) -> Optional[dict]:
    """|S(k)| == |S(a(k))| + |S(a(k-1))| for length-2 seeds, in blocks.

    ``d`` holds d(0..2*k_hi - 1) and |S(j)|/2 = d(2j-1). Each 2-adic class
    v >= 1 is a slice sum per parity e and piece. k = 2^v(2i+1) + e has
    a(k) = i+1, a(k-1) = k/2 for even k and a(k) = (k+1)/2, a(k-1) = i+1
    for odd k, so both read d(2k-1) == d(2i+1) + d(k-1+e).
    """
    k = _least(_first_unsummed(_at(d, 2, -1, ks), _at(d, 2, 1, i), _at(d, 1, e - 1, ks), ks)
               for v in range(1, k_hi.bit_length())  # 2^v <= k_hi
               for e in (0, 1) for ks, i in _pieces(range((1 << v) + e, k_hi + 1, 2 << v)))
    return None if k is None else {"k": k}


def check_length_is_diatomic(d: array, k_hi: int) -> Optional[dict]:
    """|S(a(k))| == 2*d(k) for length-2 seeds: a(k) <= (k+1)/2 has d(k) blocks.

    ``d`` holds d(0..k_hi). On the 2-adic class k = 2^v(2i+1), a(k) = i+1
    and |S(i+1)|/2 = d(2i+1): one slice comparison per piece of a class.
    """
    k = _least(_first_mismatch(_at(d, 2, 1, i), _at(d, 1, 0, ks), ks)
               for v in range(k_hi.bit_length())  # 2^v <= k_hi
               for ks, i in _pieces(range(1 << v, k_hi + 1, 2 << v)))
    return None if k is None else {"k": k}


def check_half_length_chain(d: array, k_hi: int) -> Optional[dict]:
    """For odd k, the halving-chain endpoint satisfies |S(end)|/2 == d(k-1).

    ``d`` holds d(0..k_hi - 1). Odd k = 2^(u+1)(2j+1) + 1 reaches the even
    2j+2 after u+1 halvings, so its chain ends at j+1 = a(k-1) and
    |S(j+1)|/2 = d(2j+1): one slice per piece of a class u.
    """
    k = _least(_first_mismatch(_at(d, 2, 1, j), _at(d, 1, -1, ks), ks)
               for u in range((k_hi - 1).bit_length() - 1)  # (2 << u) + 1 <= k_hi
               for ks, j in _pieces(range((2 << u) + 1, k_hi + 1, 4 << u)))
    return None if k is None else {"k": k, "chain_end": a_of(k - 1)}


def check_factorizations(s: Sequence[bytes], k_hi: int) -> Optional[dict]:
    """Materialised S(k) equals its halving-chain factorization, on any seeds;
    ``s`` holds the label words L(0..k_hi)."""
    for k in range(3, k_hi + 1):
        if k % 2 == 0:
            prefix, base, power = even_index_factorization(k)
            rebuilt = s[prefix] + s[base] * power
        else:
            base, power, suffix = odd_index_factorization(k)
            rebuilt = s[base] * power + s[suffix]
        if rebuilt != s[k]:
            return {"k": k}
    return None


def check_shift_inequalities(d: array, k_hi: int) -> Optional[dict]:
    """The length bounds that keep the shifted palindrome window in range.

    Even case: R = L + (|S(a(base-1))| + (power-1)|S(base)|)/2 must exceed
    |S(a(base-1))| with L = d(k/2). Odd case: L = d((k+1)/2) must stay
    below (power-1)*|S(chain end)|. Every |S(j)| is even, so both are read
    exactly in blocks |S(j)|/2 = d(2j-1). ``d`` holds d(0..(k_hi+1)//2).

    Each 2-adic class of k is a pass over slices, piece by piece. Even k = 2^v(2i+1),
    i >= 1, has base i+1, power v+1 and L = d(2i+1) = |S(base)|/2, so the
    bound is (v+1)*d(2i+1); powers of two are skipped, their chain bottoms
    at 1 and a(0) is undefined. Odd k = 2^(u+1)(2j+1) + 1 has chain end
    j+1, power u+2 and L = d(2^u(2j+1) + 1). The smallest failing k over
    all classes is named, and its parity names the case.
    """
    k = _least(chain(
        (_first_not_below(_flanks(d, range(t.start + 1, t.stop + 1)), v + 1, _at(d, 2, 3, t), ks)
         for v in range(1, (k_hi // 3).bit_length())  # 3 << v <= k_hi
         for ks, t in _pieces(range(3 << v, k_hi + 1, 2 << v))),  # i = t + 1
        (_first_not_below(_at(d, 2 << u, (1 << u) + 1, j), 2 * u + 2, _at(d, 2, 1, j), ks)
         for u in range((k_hi - 1).bit_length() - 1)  # (2 << u) + 1 <= k_hi
         for ks, j in _pieces(range((2 << u) + 1, k_hi + 1, 4 << u))),
    ))
    return None if k is None else {"k": k, "case": ("even", "odd")[k % 2]}


def check_mirror_arithmetic(d: array, n_hi: int) -> Optional[dict]:
    """d(2k-1) - d(k) == d(k*) on each level (2^n, 2^(n+1)], n = 2..n_hi,
    where k* = 3*2^n + 1 - k is the reflection of k in its level.

    With k = 2^n + i for i = 1..2^n, the three operands are slices of ``d``:
    d(2k-1) every other entry of the next level, d(k) the level itself and
    d(k*) the level read backwards. ``d`` holds d(0..2^(n_hi+2) - 1). The
    difference is checked as a sum, one per level, and a failure names i.
    """
    for n in range(2, n_hi + 1):
        lo, hi = 1 << n, 2 << n
        i = _first_unsummed(d[hi + 1:2 * hi:2], d[lo + 1:hi + 1], d[hi:lo:-1], range(1, lo + 1))
        if i is not None:
            return {"n": n, "i": i}
    return None


def check_index_identities(a: array, n_hi: int) -> Optional[dict]:
    """The a/a* index identities used by the level-to-level induction, for
    m = 3..2^(n-1) on each level n = 3..n_hi; ``a`` holds a(0..2^n_hi).

    Even m = 2k: a(2^(n-2)+k) == a(2^(n-1)+m). Odd m = 2k-1:
    a*(2^(n-2)+k-1) == a*(2^(n-1)+m-1) and 2^(n-2)+k == a(2^(n-1)+m).
    a* is a off the powers of two, and none of the indices read is one, so
    each identity is one comparison of strided slices of ``a`` per level.
    The smallest failing m of the lowest failing level is named; at one m
    the a* identity comes first.
    """
    for n in range(3, n_hi + 1):
        q, h = 1 << (n - 2), 1 << (n - 1)
        evens, odds = range(4, h + 1, 2), range(3, h, 2)
        identities = [
            ("a", a[q + 2:h + 1], a[h + 4:2 * h + 1:2], evens),
            ("a-star", a[q + 1:h], a[h + 2:2 * h - 1:2], odds),
            ("a-odd", array(a.typecode, range(q + 2, h + 1)), a[h + 3:2 * h:2], odds),
        ]
        failures = [{"n": n, "m": m, "eq": name} for name, x, y, ms in identities
                    if (m := _first_mismatch(x, y, ms)) is not None]
        if failures:
            return min(failures, key=itemgetter("m"))
    return None


def check_row_symmetry(d: array, n_hi: int) -> Optional[dict]:
    """d(2^n + i) == d(2^(n+1) - i), row by row; ``d`` holds d(0..2^(n_hi+1))."""
    for n in range(0, n_hi + 1):
        lo, hi = 2 ** n, 2 ** (n + 1)
        i = _first_mismatch(d[lo:hi + 1], d[hi:lo - 1:-1], range(hi - lo + 1))
        if i is not None:
            return {"n": n, "i": i}
    return None


def check_block_exponents(s: Sequence[bytes], n_hi: int) -> Optional[dict]:
    """All A-runs are 1 or all B-runs are 1 in every run-length profile: the
    word starts with A and has no AA, or ends with B and has no BB (the
    profile opens with an A-run and closes with a B-run, either maybe empty).
    ``s`` holds the label words L(0..n_hi)."""
    for n, labels in enumerate(s[1:n_hi + 1], 1):
        if not (labels[0] == 1 and b"\x01\x01" not in labels
                or labels[-1] == 2 and b"\x02\x02" not in labels):
            runs = run_lengths(labels, 1)
            return {"n": n, "profile": list(zip(runs[0::2], runs[1::2]))}
    return None


def _lemma_report(
    claim: str, check: Callable, tables: tuple, bound: int
) -> VerificationReport:
    counterexample = check(*tables, bound)
    return VerificationReport(claim, bound, counterexample is None,
                              counterexample=counterexample)


def _lemma_cases(k_max: int) -> list[tuple[str, Callable, tuple, int]]:
    """The supporting-identity suite as (claim, check, tables, bound), in order.

    Index-arithmetic checks run to k_max and share one ``stern_table``,
    long enough for |S(k_max)|/2 = d(2k_max - 1) and the mirror levels;
    the index identities alone read an ``a_table``. The two checks that
    read words share one walk of the label words, capped at 4096 so CLI
    sweeps stay fast. Below k_max = 8 the suite has too few levels
    to check every identity, so smaller bounds are rejected. Each check is
    read by name on every call.
    """
    if k_max < 8:
        raise ValueError("k_max must be >= 8")
    n_levels = max(2, k_max.bit_length() - 1)
    mirror_levels = min(n_levels, 14)
    d = stern_table(max(2 * k_max, 4 << mirror_levels))
    a = a_table(1 << mirror_levels)
    word_cap = min(k_max, 4096)
    labels = list(walk(*LABEL_SEEDS, 0, word_cap))
    return [
        ("length-identity", check_length_identity, (d,), k_max),
        ("length-is-diatomic", check_length_is_diatomic, (d,), k_max),
        ("half-length-chain", check_half_length_chain, (d,), k_max),
        ("factorizations", check_factorizations, (labels,), word_cap),
        ("shift-inequalities", check_shift_inequalities, (d,), k_max),
        ("row-symmetry", check_row_symmetry, (d,), min(n_levels, 16)),
        ("mirror-arithmetic", check_mirror_arithmetic, (d,), mirror_levels),
        ("index-identities", check_index_identities, (a,), mirror_levels),
        ("block-exponents", check_block_exponents, (labels,), word_cap),
    ]


def iter_lemma_checks(k_max: int) -> Iterator[VerificationReport]:
    """Run the supporting-identity suite of :func:`_lemma_cases`; one report
    per claim, in order."""
    return starmap(_lemma_report, _lemma_cases(k_max))
