import random

import pytest

from oracles import s_rec_with_rule

from markovwords.diatomic import a_of, a_star, stern
from markovwords.tree import (
    Vertex,
    _level_entries,
    apply_path,
    block_counts,
    block_labels,
    block_word,
    flank_indices,
    level,
    path_precedes,
    root,
    s_graph,
    s_rec,
    step_left,
    step_right,
    walk,
)

A, B = (1, 1), (2, 2)


def test_root():
    v = root(A, B)
    assert v == Vertex((1, 1), (1, 1, 2, 2), (2, 2))
    assert v.center == s_rec(A, B, 2)
    assert v.left == s_rec(A, B, 0) and v.right == s_rec(A, B, 1)
    with pytest.raises(ValueError):
        root((), B)


def test_steps():
    v = root(A, B)
    assert step_left(v).center == (1, 1, 1, 1, 2, 2)  # index 3
    assert step_right(v).center == (1, 1, 2, 2, 2, 2)  # index 4 = A+B+B
    assert step_left(step_left(v)).center == (1, 1, 1, 1, 1, 1, 2, 2)  # A A A B


def test_apply_path():
    v = root(A, B)
    assert apply_path(v, (0, 1)) == step_left(v)
    assert apply_path(v, (1, 0)) == step_right(v)
    assert apply_path(v, (1, 1)) == step_left(step_right(v))
    with pytest.raises(ValueError):
        apply_path(v, (-1, 2))


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


def test_level3_block_structure():
    # centres of level 3 are AAAB, AABAB, ABABB, ABBB as block words
    expected = ["AAAB", "AABAB", "ABABB", "ABBB"]
    assert ["".join(block_labels(n)) for n in (5, 6, 7, 8)] == expected


def test_order_comparators_agree():
    # the exponent-clause order and the L<R move-string order encode the
    # same traversal: both must reproduce the generation order
    for n in range(1, 8):
        entries = _level_entries(A, B, n)
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
        for i, v in enumerate(level(A, B, n), start=1):
            j = 2 ** (n - 1) + i
            assert v.center == s_rec(A, B, j)
            assert step_left(v).center == s_rec(A, B, 2 * j - 1)
            assert step_right(v).center == s_rec(A, B, 2 * j)


def test_s_graph_paper_tuple():
    assert s_graph(A, B, 14) == (1, 1, 2, 2, 1, 1, 2, 2, 2, 2, 1, 1, 2, 2, 2, 2)
    assert s_graph(A, B, 3) == (1, 1, 1, 1, 2, 2)
    assert s_graph(A, B, 5) == (1, 1, 1, 1, 1, 1, 2, 2)


def test_s_rec_examples():
    assert s_rec(A, B, 14) == s_graph(A, B, 14)
    assert "".join(block_labels(7)) == "ABABB"
    assert "".join(block_labels(5)) == "AAAB"
    assert s_rec(A, B, 7) == s_rec(A, B, 2) + s_rec(A, B, 4)
    assert s_rec(A, B, 5) == s_rec(A, B, 0) + s_rec(A, B, 3)


def test_s_rec_rejects_bad_input():
    with pytest.raises(ValueError):
        s_rec((), B, 3)
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


def test_block_word_examples():
    bw = block_word(A, B, 14)
    assert "".join(bw.labels) == "ABABBABB"
    assert len(bw) == 8 == stern(27)
    assert bw.flatten() == s_rec(A, B, 14)
    assert "".join(block_word(A, B, 2).labels) == "AB"
    assert "".join(block_word(A, B, 12).labels) == "AABABAB"
    assert len(block_word(A, B, 12)) == 7 == stern(23)


def test_block_counts_match_labels():
    # individual counts follow no stern closed form (n=6 gives (3,2), not
    # (d6,d5)=(2,3)); only the total is d(2n-1)
    for n in range(0, 4097):
        ca, cb = block_counts(n)
        labels = block_labels(n)
        assert ca == labels.count("A") and cb == labels.count("B")
        if n >= 1:
            assert ca + cb == stern(2 * n - 1)


def test_label_count_is_stern():
    for n in range(1, 2049):
        assert len(block_labels(n)) == stern(2 * n - 1)


def test_length_closed_form_various_seed_lengths():
    rng = random.Random(3)
    for _ in range(5):
        wa = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 5)))
        wb = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 5)))
        for n in range(0, 65):
            ca, cb = block_counts(n)
            assert len(s_rec(wa, wb, n)) == ca * len(wa) + cb * len(wb)


def test_flank_indices_examples():
    assert flank_indices(3) == (0, 2)
    assert flank_indices(4) == (2, 1)
    assert flank_indices(8) == (4, 1)
    with pytest.raises(ValueError):
        flank_indices(1)


def test_flank_indices_match_index_sequences():
    for j in range(2, 4097):
        left, right = flank_indices(j)
        assert right == a_of(j)
        assert left == a_star(j - 1)


def test_flank_indices_match_graph():
    for n in range(2, 8):
        for i, v in enumerate(level(A, B, n), start=1):
            j = 2 ** (n - 1) + i
            left, right = flank_indices(j)
            assert v.left == s_rec(A, B, left)
            assert v.right == s_rec(A, B, right)


@pytest.mark.parametrize("wa, wb", [(A, B), ((3, 3), (5, 5))])
def test_walk_matches_graph_from_the_root(wa, wb):
    assert list(walk(wa, wb, 0, 2 ** 12)) == [s_graph(wa, wb, n) for n in range(2 ** 12 + 1)]


def test_walk_matches_graph_from_any_start():
    rng = random.Random(11)
    starts = [0, 1, 2, 3, 5, 200, 1000]
    for m in range(2, 12):
        starts += [2 ** m, 2 ** m + 1]
    for _ in range(3):
        wa = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 4)))
        wb = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 4)))
        while wa == wa[::-1] or wb == wb[::-1]:
            wa, wb = wa + (rng.randint(1, 9),), wb + (rng.randint(1, 9),)
        for lo in starts:
            hi = lo + rng.randint(0, 300)
            assert list(walk(wa, wb, lo, hi)) == [s_graph(wa, wb, n) for n in range(lo, hi + 1)]


def test_walk_bounds():
    assert list(walk(A, B, 5, 4)) == []
    assert list(walk(A, B, 1, 1)) == [B]
    assert list(walk(A, B, 4, 4)) == [s_graph(A, B, 4)]
    with pytest.raises(ValueError):
        list(walk(A, B, -1, 3))
