"""Palindromic circular shifts and the block rearrangement.

The central result this package verifies: with seeds (a,a) and (b,b), the
word S(n) becomes a palindrome after exactly d(n) circular shifts, where d
is Stern's diatomic sequence. The block form generalises this to other
palindromic seeds by rearranging whole blocks, splitting one block in half
when d(n) is odd - and this demo also shows exactly where that
generalisation stops being true.

Run: python demos/03_palindromic_shifts.py
"""
from markovwords import (
    block_rearrangement,
    is_palindrome,
    rotate,
    stern,
    verify_block_rearrangement,
    verify_shift_palindromic,
    walk,
)

A, B = (1, 1), (2, 2)

# Rotate S(n) by d(n) and watch palindromes appear; the block word of
# S(n) is the walk on the one-letter seeds A, B.
print("shift-palindromicity for n = 1..16:")
words = zip(walk(A, B, 1, 16), walk(b"A", b"B", 1, 16))
for n, (w, blocks) in enumerate(words, start=1):
    shifted = rotate(w, stern(n))
    print(f"  n={n:>2} d={stern(n)} blocks={blocks.decode():<9} "
          f"rotated={shifted} palindrome={is_palindrome(shifted)}")

# The same statement holds exactly up to 4096 (and beyond); the library
# checks it report-by-report rather than aborting at the first failure.
reports = [verify_shift_palindromic(1, 2, n) for n in range(1, 4097)]
print("all of n <= 4096 pass:", all(r.passed for r in reports))

# Block rearrangement with longer palindromic seeds: rotate whole blocks
# by d(n)/2 when d(n) is even, split the middle block when odd.
wa, wb = (1, 2, 2, 1), (3, 3)
print("\neven-length seeds", wa, wb)
for n in (3, 7, 12, 14):
    arr = block_rearrangement(wa, wb, n)
    print(f"  n={n}: {arr} palindrome={is_palindrome(arr)}")

# The limit of the claim: when d(n) is odd the construction splits one
# block into unequal halves. For an odd-length block that cannot produce a
# palindrome in general - and some words over odd-length seeds have no
# palindromic rotation at all, by letter counting.
wa, wb = (1, 2, 1), (3,)
rep = verify_block_rearrangement(wa, wb, 7)
print("\nodd-length seeds", wa, wb, "at n=7:")
print("  arrangement:", rep.counterexample, "passed:", rep.passed)
s5 = next(walk(wa, wb, 5, 5))
print("  S(5) =", s5)
print("  rotations palindromic?",
      [is_palindrome(rotate(s5, k)) for k in range(len(s5))])
print("  (three 2s and one 3: an even-length palindrome needs every letter "
      "an even number of times, so no rotation can work)")
