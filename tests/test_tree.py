import random
import tracemalloc
from collections import deque

import pytest

from oracles import (
    level,
    level_entries,
    lower_christoffel,
    path_precedes,
    s_graph,
    s_rec_with_rule,
)

from markovwords.diatomic import a_of, a_star, stern, stern_table
from markovwords.tree import Vertex, root, run_lengths, s_rec, walk

A, B = (1, 1), (2, 2)


def label_words(lo, hi):
    """The label words over {A, B} of the indices lo..hi: the walk on the
    one-letter seeds."""
    return [w.decode() for w in walk(b"A", b"B", lo, hi)]


def labels_of(n):
    (labels,) = label_words(n, n)
    return labels


def test_root():
    v = root(A, B)
    assert v == Vertex((1, 1), (1, 1, 2, 2), (2, 2))
    assert v.center == s_rec(A, B, 2)
    assert v.left == s_rec(A, B, 0) and v.right == s_rec(A, B, 1)


def test_steps():
    # the children of the root are L(root) and R(root), and the first
    # vertex of level 3 is L(L(root))
    left, right = level(A, B, 2)
    assert left.center == (1, 1, 1, 1, 2, 2)  # index 3
    assert right.center == (1, 1, 2, 2, 2, 2)  # index 4 = A+B+B
    assert level(A, B, 3)[0].center == (1, 1, 1, 1, 1, 1, 2, 2)  # A A A B


def test_path_precedes_examples():
    assert path_precedes((0, 2), (0, 1, 1, 0))
    assert path_precedes((0, 1, 1, 0), (1, 1))
    assert path_precedes((1, 1), (2, 0))
    assert not path_precedes((0, 2), (0, 2))
    with pytest.raises(ValueError):
        path_precedes((1, 0), (1, 1))


def test_level_small():
    assert level(A, B, 1) == [root(A, B)]
    lvl2 = level(A, B, 2)
    assert [v.center for v in lvl2] == [s_rec(A, B, 3), s_rec(A, B, 4)]
    lvl3 = level(A, B, 3)
    assert [v.center for v in lvl3] == [s_rec(A, B, n) for n in (5, 6, 7, 8)]
    with pytest.raises(ValueError):
        level(A, B, 0)
    # the centres of level n are S(2^(n-1)+1..2^n), the range walk reads
    for n in range(1, 9):
        assert [v.center for v in level(A, B, n)] == list(walk(A, B, 2 ** (n - 1) + 1, 2 ** n))


def test_level3_block_structure():
    # centres of level 3 are AAAB, AABAB, ABABB, ABBB as block words
    expected = ["AAAB", "AABAB", "ABABB", "ABBB"]
    assert label_words(5, 8) == expected


def test_order_comparators_agree():
    # the exponent-clause order and the L<R move-string order encode the
    # same traversal: both must reproduce the generation order
    for n in range(1, 8):
        entries = level_entries(A, B, n)
        paths = [p for p, _ in entries]
        order = list(range(len(paths)))
        by_clauses = sorted(order, key=_cmp_key(paths))
        assert by_clauses == order


def _cmp_key(paths):
    import functools

    def cmp(i, j):
        if path_precedes(paths[i], paths[j]):
            return -1
        if path_precedes(paths[j], paths[i]):
            return 1
        return 0

    return functools.cmp_to_key(cmp)


def test_center_is_left_plus_right_everywhere():
    for n in range(1, 9):
        for v in level(A, B, n):
            assert v.center == v.left + v.right


def test_heap_indexing():
    # L-child of the vertex centred at S(j) is centred at S(2j-1), R-child at S(2j)
    for n in range(2, 8):
        below = level(A, B, n + 1)
        for i, v in enumerate(level(A, B, n), start=1):
            j = 2 ** (n - 1) + i
            left, right = below[2 * i - 2:2 * i]
            assert left == (v.left, v.left + v.center, v.center)
            assert right == (v.center, v.center + v.right, v.right)
            assert v.center == s_rec(A, B, j)
            assert left.center == s_rec(A, B, 2 * j - 1)
            assert right.center == s_rec(A, B, 2 * j)


def test_s_graph_paper_tuple():
    assert s_graph(A, B, 14) == (1, 1, 2, 2, 1, 1, 2, 2, 2, 2, 1, 1, 2, 2, 2, 2)
    assert s_graph(A, B, 3) == (1, 1, 1, 1, 2, 2)
    assert s_graph(A, B, 5) == (1, 1, 1, 1, 1, 1, 2, 2)


def test_s_rec_examples():
    assert s_rec(A, B, 14) == s_graph(A, B, 14)
    assert labels_of(7) == "ABABB"
    assert labels_of(5) == "AAAB"
    assert s_rec(A, B, 7) == s_rec(A, B, 2) + s_rec(A, B, 4)
    assert s_rec(A, B, 5) == s_rec(A, B, 0) + s_rec(A, B, 3)


def test_s_rec_rejects_bad_input():
    with pytest.raises(ValueError):
        s_rec(A, B, -1)


def test_recursion_matches_graph_random_seeds():
    rng = random.Random(7)
    for _ in range(8):
        wa = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4)))
        wb = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4)))
        for n in range(0, 129):
            assert s_rec(wa, wb, n) == s_graph(wa, wb, n)


def test_literal_a_star_rule_diverges_at_five():
    # zeroing only x=1 (instead of all powers of two) breaks the recursion;
    # the first divergence from the graph is index 5
    def literal(x):
        return 0 if x == 1 else a_of(x)

    diverged = [
        n for n in range(0, 33) if s_rec_with_rule(A, B, n, literal) != s_graph(A, B, n)
    ]
    assert diverged[0] == 5


def test_single_rule_matches_two_branch_rule():
    # S(n) = S(a*(n-1)) + S(a(n)) is the even/odd rule S(2j) = S(j) + S(a(j)),
    # S(2j-1) = S(a*(j-1)) + S(j), since a*(2j-1) = j, a(2j) = a(j),
    # a*(2j-2) = a*(j-1) and a(2j-1) = j
    for wa, wb in ((A, B), ((1, 2, 1), (3,))):
        for n in range(0, 2049):
            assert s_rec(wa, wb, n) == s_rec_with_rule(wa, wb, n, a_star), n


@pytest.mark.parametrize("word, runs", [
    ("", ()),
    ("AAA", (3, 0)),
    ("BB", (0, 2)),
    ("BBA", (0, 2, 1, 0)),
    ("ABB", (1, 2)),
    ("AABAA", (2, 1, 2, 0)),
    ("BABBAAAB", (0, 1, 1, 2, 3, 1)),
])
@pytest.mark.parametrize("kind", ["str", "bytes"])
def test_run_lengths_pair_up_from_the_first_symbol(word, runs, kind):
    # the leading entry counts the run of the first symbol, 0 when the word
    # opens with the other one, and a trailing 0 evens out an odd count
    if kind == "bytes":
        assert run_lengths(word.replace("A", "\x01").replace("B", "\x02").encode(), 1) == runs
    else:
        assert run_lengths(word, "A") == runs


def test_block_word_examples():
    labels = labels_of(14)
    assert labels == "ABABBABB"
    assert len(labels) == 8 == stern(27)
    # substituting the seeds for the labels, A -> A and B -> B, gives S(14)
    seeds = {"A": A, "B": B}
    assert tuple(x for lab in labels for x in seeds[lab]) == s_rec(A, B, 14)
    assert labels_of(2) == "AB"
    assert labels_of(12) == "AABABAB"
    assert len(labels_of(12)) == 7 == stern(23)


def test_block_counts_match_labels():
    # individual counts follow no stern closed form (n=6 gives (3,2), not
    # (d6,d5)=(2,3)); only the total is d(2n-1)
    labels = labels_of(6)
    assert (labels.count("A"), labels.count("B")) == (3, 2)
    for n, labels in enumerate(label_words(0, 4096)):
        assert labels.count("A") + labels.count("B") == len(labels)
        if n >= 1:
            assert len(labels) == stern(2 * n - 1)


def test_label_count_is_stern():
    for n, labels in enumerate(label_words(1, 2048), 1):
        assert len(labels) == stern(2 * n - 1)


def test_length_closed_form_various_seed_lengths():
    rng = random.Random(3)
    for _ in range(5):
        wa = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 5)))
        wb = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 5)))
        for n, labels in enumerate(label_words(0, 64)):
            assert len(s_rec(wa, wb, n)) == (
                labels.count("A") * len(wa) + labels.count("B") * len(wb))


def test_flank_indices_examples():
    # the vertex centred at S(j) is (S(a*(j-1)), S(j), S(a(j)))
    assert [(a_star(j - 1), a_of(j)) for j in (3, 4, 8)] == [(0, 2), (2, 1), (4, 1)]
    s3, s4 = level(A, B, 2)
    assert (s3.left, s3.right) == (s_rec(A, B, 0), s_rec(A, B, 2))
    assert (s4.left, s4.right) == (s_rec(A, B, 2), s_rec(A, B, 1))


def test_flank_indices_match_graph():
    for n in range(2, 8):
        for i, v in enumerate(level(A, B, n), start=1):
            j = 2 ** (n - 1) + i
            assert v.left == s_rec(A, B, a_star(j - 1))
            assert v.right == s_rec(A, B, a_of(j))


@pytest.mark.parametrize("wa, wb", [(A, B), ((3, 3), (5, 5)), (b"\x01\x01", b"\x02\x02")])
def test_walk_matches_graph_from_the_root(wa, wb):
    # bytes seeds give bytes words, equal to the graph's on the same letters
    graph = [type(wa)(s_graph(tuple(wa), tuple(wb), n)) for n in range(2 ** 12 + 1)]
    assert list(walk(wa, wb, 0, 2 ** 12)) == graph


def test_walk_matches_graph_from_any_start():
    rng = random.Random(11)
    starts = [0, 1, 2, 3, 5, 200, 1000]
    for m in range(2, 12):
        starts += [2 ** m, 2 ** m + 1]
    # ranges that cross the level boundaries at 2^40 and 2^62
    starts += [2 ** 40 - 1, 2 ** 62 - 2]
    for _ in range(3):
        wa = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 4)))
        wb = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 4)))
        while wa == wa[::-1] or wb == wb[::-1]:
            wa, wb = wa + (rng.randint(1, 9),), wb + (rng.randint(1, 9),)
        for lo in starts:
            hi = lo + rng.randint(0, 300)
            graph = [s_graph(wa, wb, n) for n in range(lo, hi + 1)]
            assert list(walk(wa, wb, lo, hi)) == graph
            assert list(walk(bytes(wa), bytes(wb), lo, hi)) == list(map(bytes, graph))


def test_walk_bounds():
    assert list(walk(A, B, 5, 4)) == []
    assert list(walk(A, B, 1, 1)) == [B]
    assert list(walk(A, B, 4, 4)) == [s_graph(A, B, 4)]
    with pytest.raises(ValueError):
        list(walk(A, B, -1, 3))
    # bytes seeds are validated like tuples: a zero byte or an empty seed raises
    for wa, wb in ((b"\x00", b"\x02"), (b"\x01", b""), (b"", b"")):
        with pytest.raises(ValueError):
            list(walk(wa, wb, 0, 3))


@pytest.mark.parametrize("wa, wb", [((1, 2), (3,)), (b"\x01\x02", b"\x03")])
def test_walk_every_window_to_70(wa, wb):
    # every window lo..hi in 0..70, empty ones included, so every level edge
    # and both leaf positions of a depth-1 entry start and end a window
    graph = [type(wa)(s_graph(tuple(wa), tuple(wb), n)) for n in range(71)]
    for lo in range(71):
        for hi in range(lo - 2, 71):
            assert list(walk(wa, wb, lo, hi)) == graph[lo:max(hi + 1, lo)], (lo, hi)


def test_walk_with_a_join_folds_the_seeds_along_each_word():
    # any other join takes the seeds as they are: joined by +, the lengths
    # 2 and 1 walk to the length of each word, on every window in 0..70
    lengths = [len(s_graph((1, 2), (3,), n)) for n in range(71)]
    for lo in range(71):
        for hi in range(lo - 2, 71):
            assert list(walk(2, 1, lo, hi, join=lambda u, v: u + v)) == lengths[lo:max(hi + 1, lo)]
    # the default join validates its seeds; ints are not words
    with pytest.raises(TypeError):
        list(walk(2, 1, 0, 3))


def test_walk_memory_is_bounded_by_the_path():
    # the deepest level of S(1..2^16) holds about 55 MB of words; the walk holds
    # only the path to the current word and the entries beside it
    d = stern_table(2 ** 17)
    deepest = 2 * sum(d[2 ** 16 + 1:2 ** 17:2])  # bytes, |S(n)| = 2 d(2n-1)
    tracemalloc.start()
    try:
        deque(walk(b"\x01\x01", b"\x02\x02", 1, 2 ** 16), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert deepest > 50 * 2 ** 20
    assert peak < 2 ** 20


def test_label_words_are_lower_christoffel_words():
    # the words prop-main checks, on the label seeds (1), (2), are the lower
    # Christoffel words of their lengths and letter counts: the walk and the
    # index recursion both agree with the floors of the line at every index,
    # and on other seeds S(n) is that word with the seeds substituted
    for n, labels in enumerate(walk(b"\x01", b"\x02", 2, 2 ** 12), 2):
        expected = lower_christoffel(len(labels), labels.count(2))
        assert tuple(labels) == expected, n
        assert s_rec((1,), (2,), n) == expected, n
    for seeds in [((1, 1), (2, 2)), ((1, 2, 1), (3,)), ((2,), (1, 1))]:
        for n, s in enumerate(walk(*seeds, 2, 2 ** 10), 2):
            labels = next(walk(b"\x01", b"\x02", n, n))
            expected = lower_christoffel(len(labels), labels.count(2))
            assert s == tuple(x for c in expected for x in seeds[c - 1]), (seeds, n)
