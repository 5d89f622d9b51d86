"""The concatenation graph and its index recursion.

Starting from two seed words A and B, the triple (A, A+B, B) generates an
infinite binary tree under the moves

    L(x, y, z) = (x, x+y, y)      R(x, y, z) = (y, y+z, z).

Ordering each level left-to-right and reading off the centre entries gives
the family S(0)=A, S(1)=B, S(2)=A+B, S(2^(n-1)+i) = centre of the i-th
vertex of level n; ``walk`` reads it off the tree in index order, and on
the one-letter seeds A, B it gives the label (block) words. The same
family satisfies an index recursion driven by the odd-part sequence a(j);
this script shows both builders and the divergence that pins down the
left-flank rule.

Run: python demos/02_tree_and_recursion.py
"""
from markovwords import a_of, a_star, root, s_rec, stern, walk

A, B = (1, 1), (2, 2)

# The root and its two children, the vertices of level 2, centred at S(3)
# and S(4).
v = root(A, B)
print("root:", v)
left, right = walk(A, B, 3, 4)
print("L(root) centre:", left, " R(root) centre:", right)

# Level 3 holds four vertices; their centres are S(5)..S(8).
labels = walk(b"A", b"B", 5, 8)
for i, (centre, blocks) in enumerate(zip(walk(A, B, 5, 8), labels), start=1):
    n = 4 + i
    print(f"level 3, vertex {i}: centre = S({n}) =", centre,
          "blocks:", blocks.decode())

# The index recursion builds the same words without touching the graph.
# The vertex centred at S(n) is (S(a*(n-1)), S(n), S(a(n))), so
#   S(n) = S(a*(n-1)) + S(a(n))   for n >= 2.
print("\nindex 14 via graph:    ", next(walk(A, B, 14, 14)))
print("index 14 via recursion:", s_rec(A, B, 14))
assert list(walk(A, B, 0, 256)) == [s_rec(A, B, n) for n in range(257)]
print("builders agree for every index up to 256")

# The left-flank rule a* must send EVERY power of two to 0, not just 1.
# Zeroing only 1 looks plausible: in the even/odd form of the recursion,
#   S(2j) = S(j) + S(a(j)),  S(2j-1) = S(a*(j-1)) + S(j),
# it diverges from the graph first at index 5.
literal = lambda x: 0 if x == 1 else a_of(x)


def s_literal(n):
    if n < 3:
        return (A, B, A + B)[n]
    j = (n + 1) // 2
    if n % 2 == 0:
        return s_literal(j) + s_literal(a_of(j))
    return s_literal(literal(j - 1)) + s_literal(j)


for n, rhs in enumerate(walk(A, B, 3, 7), start=3):
    lhs = s_literal(n)
    marker = "  <-- diverges" if lhs != rhs else ""
    print(f"n={n}: literal rule gives {lhs}{marker}")

# Every vertex is (S(l), S(j), S(r)) for the flank indices
# l = a*(j-1), r = a(j) of j.
for j in (3, 4, 8, 14):
    l, r = a_star(j - 1), a_of(j)
    print(f"vertex of S({j}): left=S({l}), right=S({r})")

# Word lengths follow the diatomic sequence: |S(n)| = 2*d(2n-1) for these
# length-2 seeds.
print("lengths:", [len(w) for w in walk(A, B, 1, 8)],
      "= 2*d(2n-1):", [2 * stern(2 * n - 1) for n in range(1, 9)])
