"""A fixed Python job that shows how fast the machine runs Python right now.

Usage: python perfbench/reference.py   (prints a checksum)

It imports nothing from markovwords and never changes, so its time moves
only with the machine: a shared host's CPU speed drifts by tens of percent
over minutes, and this job drifts with it. ``run.py`` launches it before
every session, in a fresh interpreter like the commands it times, and
scales session times by its mean time in the same run. The work is of the same kinds as the CLI's: a large
memo dict of small ints (like ``stern``), tuple building and comparison
(like the words), and products of integer matrices (like the convergents).
"""
from __future__ import annotations

MEMO_N = 1 << 18
WORD_LEN = 466
ROTATIONS = 3000
PRODUCTS = 600


def _mirror_matches(word: tuple) -> int:
    n, matches = len(word), 0
    for i in range(n // 2):
        if word[i] == word[n - 1 - i]:
            matches += 1
    return matches


def main() -> int:
    memo = {0: 0, 1: 1}
    for n in range(2, MEMO_N):
        half = n >> 1
        memo[n] = memo[half] + memo[half + 1] if n & 1 else memo[half]
    total = sum(memo[k] for k in range(0, MEMO_N, 7))

    word = tuple(1 + k * k % 7 // 6 for k in range(WORD_LEN))
    for k in range(ROTATIONS):
        i = k % WORD_LEN
        rotation = word[i:] + word[:i]
        total += _mirror_matches(rotation)

    for _ in range(PRODUCTS):
        p, q, r, s = 1, 0, 0, 1
        for x in word:
            p, q, r, s = p * x + q, p, r * x + s, r
        total += (p + r) % 1_000_003
    return total


if __name__ == "__main__":
    print(main())
