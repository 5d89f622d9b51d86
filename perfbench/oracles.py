"""Independent oracles for the output of the markovwords command line.

Nothing here imports markovwords. The words S(n) come from the graph walk
(not the index recursion the library uses), d(n) from a loop over the bits
of n, and every spectrum value from integer identities:

* a Markov period w with convergent matrix M has Markov number
  m = trace(M)/3 and Perron value sqrt(9m^2 - 4)/m;
* the position of that value is the first rotation of w whose convergent
  matrix has the smallest lower-left entry (that entry is m);
* a Markov form of discriminant disc and Markov number m has
  min|f|^2 * (9m^2 - 4) = m^2 * disc.

Each ``check_*`` function takes the raw stdout bytes of one command and
returns None when the output is right, or a one-line reason when it is not.
"""
from __future__ import annotations

import json
import re
from math import isqrt

SEED_A = (1, 1)
SEED_B = (2, 2)
DIGITS = 30  # the CLI's default --digits


def stern(n: int) -> int:
    """Stern's diatomic d(n), reading the bits of n from the top.

    The loop keeps (d(k), d(k+1)) for the prefix k of n's bits:
    d(2k) = d(k) and d(2k+1) = d(k) + d(k+1).
    """
    lo, hi = 0, 1
    for bit in bin(n)[2:]:
        if bit == "1":
            lo += hi
        else:
            hi += lo
    return lo


def s_word(n: int, a=SEED_A, b=SEED_B) -> tuple[int, ...]:
    """S(n) read off the concatenation graph.

    Index 2^(k-1)+i is the centre of the i-th vertex on level k, reached
    from the root (A, A+B, B) by the binary digits of i-1 (0 = L, 1 = R),
    where L(x, y, z) = (x, x+y, y) and R(x, y, z) = (y, y+z, z).
    """
    a, b = tuple(a), tuple(b)
    if n < 3:
        return (a, b, a + b)[n]
    k = (n - 1).bit_length()
    i = n - 2 ** (k - 1)
    left, centre, right = a, a + b, b
    for bit in format(i - 1, "b").zfill(k - 1):
        if bit == "1":
            left, centre = centre, centre + right
        else:
            centre, right = left + centre, centre
    return centre


def fmt_word(w) -> str:
    return ",".join(map(str, w))


def convergent_matrix(w):
    """The product of [[a, 1], [1, 0]] over the letters of w, as a 4-tuple."""
    m11, m12, m21, m22 = 1, 0, 0, 1
    for x in w:
        m11, m12, m21, m22 = m11 * x + m12, m11, m21 * x + m22, m21
    return m11, m12, m21, m22


def perron(w) -> tuple[int, int]:
    """(m, argmin) of a Markov period: m = trace/3, first rotation with lower-left m.

    Rotating w left by one letter x conjugates its convergent matrix by
    P(x) = [[x, 1], [1, 0]], so all rotations cost O(len(w)) 2x2 steps.
    Raises ValueError when w is not a Markov period.
    """
    m11, m12, m21, m22 = convergent_matrix(w)
    trace = m11 + m22
    if trace % 3 or m11 * m22 - m12 * m21 != 1:
        raise ValueError("not a Markov period")
    lowest, argmin = None, 0
    for i, x in enumerate(w):
        if lowest is None or m21 < lowest:
            lowest, argmin = m21, i
        # P(x)^-1 M P(x) with P(x)^-1 = [[0, 1], [1, -x]]
        n11, n12, n21, n22 = m21, m22, m11 - x * m21, m12 - x * m22
        m11, m12, m21, m22 = n11 * x + n12, n11, n21 * x + n22, n21
    m = trace // 3
    if lowest != m:
        raise ValueError("smallest lower-left entry is not trace/3")
    return m, argmin


def truncated_decimal(num_sq: int, den_sq: int, digits: int = DIGITS) -> str:
    """sqrt(num_sq/den_sq) truncated to ``digits`` places, for a positive value."""
    scale = 10 ** digits
    v = isqrt(num_sq * scale * scale // den_sq)
    return f"{v // scale}.{v % scale:0{digits}d}"


def markov_decimal(m: int) -> str:
    return truncated_decimal(9 * m * m - 4, m * m)


def surd_is_markov_value(p: int, q: int, r: int, d: int, m: int) -> bool:
    """(p + q*sqrt(d))/r == sqrt(9m^2 - 4)/m, decided with integers."""
    return p == 0 and q > 0 and r > 0 and q * q * d * m * m == (9 * m * m - 4) * r * r


def indices_of_length(length: int, below: int) -> list[int]:
    """Indices 3 <= n < below whose word S(n) has the given length.

    With length-2 seeds |S(n)| = 2*d(2n-1).
    """
    return [n for n in range(3, below) if 2 * stern(2 * n - 1) == length]


def _lines(out: bytes) -> list[str] | str:
    try:
        text = out.decode("ascii")
    except UnicodeDecodeError:
        return "stdout is not ASCII"
    if not text.endswith("\n"):
        return "stdout does not end with a newline"
    return text[:-1].split("\n")


def check_scan(out: bytes, n_max: int) -> str | None:
    """``scan --n-max n_max --json``: one row per n, each an exact Perron value."""
    lines = _lines(out)
    if isinstance(lines, str):
        return lines
    if len(lines) != n_max:
        return f"scan: {len(lines)} rows, expected {n_max}"
    for n, line in enumerate(lines, 1):
        try:
            row = json.loads(line)
            surd = row["surd"]
            p, q, r, d = surd["p"], surd["q"], surd["r"], surd["D"]
            fields = (row["command"], row["n"], row["period"], row["decimal"],
                      row["argmin"], row["is_markov"])
        except (ValueError, KeyError, TypeError):
            return f"scan: row {n} is not a scan record"
        period = s_word(n)
        m, argmin = perron(period)
        want = ("scan", n, list(period), markov_decimal(m), argmin, True)
        if fields != want:
            return f"scan: row {n} differs from the oracle"
        if not surd_is_markov_value(p, q, r, d, m):
            return f"scan: row {n} surd is not sqrt(9m^2-4)/m for m={m}"
    return None


_SPECTRUM = re.compile(
    r"period=(\S+) surd=\((-?\d+),(-?\d+),(-?\d+),(-?\d+)\) "
    r"decimal=(\S+) argmin=(\d+) markov=(true|false)"
)


def check_spectrum(out: bytes, period) -> str | None:
    """``spectrum --period W`` in text mode."""
    lines = _lines(out)
    if isinstance(lines, str):
        return lines
    match = _SPECTRUM.fullmatch(lines[0]) if len(lines) == 1 else None
    if match is None:
        return "spectrum: output is not one spectrum line"
    text, p, q, r, d, decimal, argmin, markov = match.groups()
    m, want_argmin = perron(period)
    if (text, decimal, int(argmin), markov) != (fmt_word(period), markov_decimal(m),
                                               want_argmin, "true"):
        return "spectrum: fields differ from the oracle"
    if not surd_is_markov_value(int(p), int(q), int(r), int(d), m):
        return f"spectrum: surd is not sqrt(9m^2-4)/m for m={m}"
    return None


_BQF = re.compile(
    r"form=(-?\d+),(-?\d+),(-?\d+) radius=(\d+) min_abs=(\d+) "
    r"point=\((-?\d+),(-?\d+)\) normalized=\((-?\d+),(-?\d+),(-?\d+),(-?\d+)\) "
    r"decimal=(\S+)"
)


def check_bqf(out: bytes, form: tuple[int, int, int], m: int, radius: int) -> str | None:
    """``bqf --form a,b,c --radius R`` in text mode, for a Markov form with number m."""
    lines = _lines(out)
    if isinstance(lines, str):
        return lines
    match = _BQF.fullmatch(lines[0]) if len(lines) == 1 else None
    if match is None:
        return "bqf: output is not one bqf line"
    a, b, c, rad, low, x, y, p, q, r, d = (int(g) for g in match.groups()[:-1])
    decimal = match.group(12)
    disc = b * b - 4 * a * c
    if (a, b, c, rad) != (*form, radius):
        return "bqf: form or radius not echoed"
    if low * low * (9 * m * m - 4) != m * m * disc:
        return f"bqf: min_abs={low} breaks min^2*(9m^2-4) = m^2*disc for m={m}"
    if abs(a * x * x + b * x * y + c * y * y) != low or max(abs(x), abs(y)) > radius \
            or not (x > 0 or (x == 0 and y > 0)):
        return f"bqf: point ({x},{y}) does not attain min_abs inside the radius"
    # normalized = min_abs/sqrt(disc)
    if not (p == 0 and q > 0 and r > 0 and q * q * d * disc == low * low * r * r):
        return "bqf: normalized is not min_abs/sqrt(disc)"
    if decimal != truncated_decimal(low * low, disc):
        return "bqf: decimal differs from the oracle"
    return None


def prop_main_expected(n_max: int) -> bytes:
    """The exact stdout of ``verify prop-main --n-max n_max`` when every check passes."""
    return "".join(
        f"PASS shift-palindromic n={n} witness={stern(n)}\n" for n in range(1, n_max + 1)
    ).encode()


def lemmas_expected(k_max: int) -> bytes:
    """The exact stdout of ``verify lemmas --k-max k_max``: nine PASS lines.

    Index-arithmetic checks run to k_max, checks that build words to 4096,
    and the level checks to min(levels, 16 or 14) with levels from k_max.
    """
    levels = max(2, k_max.bit_length() - 1)
    word_cap = min(k_max, 4096)
    bounds = [
        ("length-identity", k_max),
        ("length-is-diatomic", k_max),
        ("half-length-chain", k_max),
        ("factorizations", word_cap),
        ("shift-inequalities", k_max),
        ("row-symmetry", min(levels, 16)),
        ("mirror-arithmetic", min(levels, 14)),
        ("index-identities", min(levels, 14)),
        ("block-exponents", word_cap),
    ]
    return "".join(f"PASS {claim} n={bound}\n" for claim, bound in bounds).encode()


def check_exact(out: bytes, expected: bytes, what: str) -> str | None:
    """Byte-exact comparison that names the first line that differs."""
    if out == expected:
        return None
    got, want = out.split(b"\n"), expected.split(b"\n")
    for i, (g, w) in enumerate(zip(got, want), 1):
        if g != w:
            return f"{what}: line {i} is {g[:80]!r}, expected {w[:80]!r}"
    return f"{what}: {len(got) - 1} lines, expected {len(want) - 1}"
