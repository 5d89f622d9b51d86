"""Words, rotations and palindromicity.

The whole package works over finite words of positive integers. This
script walks through the small algebra those words support: concatenation,
reversal, left rotation, the two palindromicity notions, and half-splits.

Run: python demos/01_words_and_rotations.py
"""
from markovwords import is_palindrome, is_palindromic_rotation, rotate


def smallest_palindromic_shift(w):
    """The smallest k making rotate(w, k) a palindrome, or None."""
    return next((k for k in range(len(w)) if is_palindromic_rotation(w, k)), None)


# Words are tuples, so concatenation is tuple +; the empty word is its identity.
a, b = (1, 1), (2, 2)
print("concat:", a + b, "identity:", a + () == a)

# Rotation is zero-based: the letter at position i comes first.
w = (1, 1, 1, 1, 2, 2)
for i in range(len(w)):
    print(f"rotate by {i}: {rotate(w, i)}  palindrome={is_palindrome(rotate(w, i))}")

# That word is not a palindrome, but its rotation by 2 is. The smallest
# such rotation amount is what smallest_palindromic_shift reports.
print("smallest palindromic shift of", w, "->", smallest_palindromic_shift(w))

# Some words admit no palindromic rotation at all:
print("shift of (1,2,1,2):", smallest_palindromic_shift((1, 2, 1, 2)))

# The same search answers whether any rotation is palindromic.
print("some rotation of (1,2,2) palindromic?", smallest_palindromic_shift((1, 2, 2)) is not None)
print("some rotation of (1,2,3) palindromic?", smallest_palindromic_shift((1, 2, 3)) is not None)

# Half-splits cut a word into floor and ceil halves at len // 2; an odd
# middle letter lands in the ceil half, and the two halves always
# reassemble the word.
for w in [(2, 2), (1, 2, 1), (1, 2, 2, 1)]:
    lo, hi = w[:len(w) // 2], w[len(w) // 2:]
    print(f"{w} -> floor={lo} ceil={hi} reassembles={lo + hi == w}")

# For an even-length palindrome the halves mirror each other.
p = (1, 2, 2, 1)
print("reverse(floor) == ceil for", p, ":", p[:2][::-1] == p[2:])
