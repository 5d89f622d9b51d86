"""Exact Markov spectrum values via the Perron identity.

A purely periodic word of partial quotients determines a point of the
Markov spectrum: the largest value, over cyclic positions, of

    a_i + [0; forward tail] + [0; backward tail].

Periodic tails are quadratic irrationals, so the whole computation runs in
exact arithmetic over (p + q*sqrt(D))/r. The classical first values and
the quadratic-form route to the same numbers:

Run: python demos/04_spectrum_values.py
"""
from markovwords import BQForm, bqf_min, markov_value, s_rec, zero_tail

# Periodic tails: [0; 1,1,1,...] is 1/golden-ratio, [0; 2,2,2,...] is sqrt(2)-1.
print("tail of (1,1):", zero_tail((1, 1)), "=", zero_tail((1, 1)).to_decimal(12))
print("tail of (2,2):", zero_tail((2, 2)), "=", zero_tail((2, 2)).to_decimal(12))

# The first two spectrum points, and the first one above them.
for period in [(1, 1), (2, 2), (2, 2, 1, 1)]:
    mv = markov_value(period)
    print(f"period {period}: value = {mv.value} = {mv.value.to_decimal(30)}"
          f" (attained at position {mv.argmin})")

# Everything the seed tree generates from (1,1),(2,2) stays below 3 -
# these are exactly the periods of Markov forms.
below = all(markov_value(s_rec((1, 1), (2, 2), n)).value.compare(3) < 0 for n in range(1, 65))
print("all S(n), n <= 64, lie below 3:", below)
print("(3) below 3?", markov_value((3,)).value.compare(3) < 0)

# The quadratic-form side of the same numbers: the normalised lattice
# minimum min|f|/sqrt(disc) of an indefinite form. For x^2+xy-y^2 it is
# 1/sqrt(5), the reciprocal of the Perron value of period (1,1); exactly.
f = BQForm(1, 1, -1)
res = bqf_min(f, 50)
print(f"\n{f}: min|f| = {res.min_abs} at {res.point}, "
      f"normalised = {res.normalized} = {res.normalized.to_decimal(12)}")
print("equals 1/markov_value((1,1)):",
      res.normalized == markov_value((1, 1)).value.reciprocal())

g = BQForm(1, 2, -1)
res2 = bqf_min(g, 50)
print(f"{g}: normalised = {res2.normalized}, equals 1/markov_value((2,2)):",
      res2.normalized == markov_value((2, 2)).value.reciprocal())
