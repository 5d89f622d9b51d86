"""Self-tests for the benchmark's oracles.

Small real commands must pass their oracle, and the same outputs with a
perturbed surd, a wrong witness or a truncated tail must fail it. Runs in
well under a second and launches nothing at workload size.

Usage: python perfbench/selftest.py   (from the repository root)
"""
from __future__ import annotations

import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import oracles

SCAN_N = 12
SPECTRUM_N = 38
BQF = ((5, 11, -5), 5, 6)  # form, its Markov number, radius
PROP_N, PROP_LETTERS = 64, (3, 7)
LEMMAS_K = 64


def _drop_last_line(out: bytes) -> bytes:
    return out[: out.rstrip(b"\n").rfind(b"\n") + 1]


def _bump_scan_surd(out: bytes) -> bytes:
    rows = out.decode().splitlines()
    row = json.loads(rows[4])
    row["surd"]["q"] += 1
    rows[4] = json.dumps(row)
    return ("\n".join(rows) + "\n").encode()


def _bump_text_surd(out: bytes, field: str) -> bytes:
    return re.sub(rf"{field}=\((-?\d+),(-?\d+),".encode(),
                  lambda m: b"%s=(%s,%d," % (field.encode(), m.group(1), int(m.group(2)) + 1),
                  out, count=1)


def _wrong_witness(out: bytes) -> bytes:
    line = f"witness={oracles.stern(10)}\n".encode()
    wrong = f"witness={oracles.stern(10) + 1}\n".encode()
    return out.replace(b"n=10 " + line, b"n=10 " + wrong)


def run_selftests(cli) -> list[str]:
    """Run every self-test; ``cli(args)`` returns the stdout of a real command.

    Returns the names of the self-tests that went wrong.
    """
    period = oracles.s_word(SPECTRUM_N)
    form, m, radius = BQF
    commands = [
        ["scan", "--n-max", str(SCAN_N), "--json"],
        ["spectrum", "--period", oracles.fmt_word(period)],
        ["bqf", "--form", ",".join(map(str, form)), "--radius", str(radius)],
        ["verify", "prop-main", "--n-max", str(PROP_N),
         "--a", str(PROP_LETTERS[0]), "--b", str(PROP_LETTERS[1])],
        ["verify", "lemmas", "--k-max", str(LEMMAS_K)],
    ]
    # two at a time, to stay under a second on two cores
    with ThreadPoolExecutor(max_workers=2) as pool:
        scan, spectrum, bqf, prop, lemmas = pool.map(cli, commands)

    def check_prop(out):
        return oracles.check_exact(out, oracles.prop_main_expected(PROP_N), "prop-main")

    def check_lemmas(out):
        return oracles.check_exact(out, oracles.lemmas_expected(LEMMAS_K), "lemmas")

    cases = [
        ("scan as printed", oracles.check_scan, (scan, SCAN_N), True),
        ("scan with a perturbed surd", oracles.check_scan, (_bump_scan_surd(scan), SCAN_N), False),
        ("scan truncated", oracles.check_scan, (_drop_last_line(scan), SCAN_N), False),
        ("spectrum as printed", oracles.check_spectrum, (spectrum, period), True),
        ("spectrum with a perturbed surd", oracles.check_spectrum,
         (_bump_text_surd(spectrum, "surd"), period), False),
        ("spectrum truncated", oracles.check_spectrum, (spectrum[: len(spectrum) // 2], period), False),
        ("bqf as printed", oracles.check_bqf, (bqf, form, m, radius), True),
        ("bqf with a perturbed surd", oracles.check_bqf,
         (_bump_text_surd(bqf, "normalized"), form, m, radius), False),
        ("bqf truncated", oracles.check_bqf, (bqf[:-20] + b"\n", form, m, radius), False),
        ("prop-main as printed", check_prop, (prop,), True),
        ("prop-main with a wrong witness", check_prop, (_wrong_witness(prop),), False),
        ("prop-main truncated", check_prop, (_drop_last_line(prop),), False),
        ("lemmas as printed", check_lemmas, (lemmas,), True),
        ("lemmas truncated", check_lemmas, (_drop_last_line(lemmas),), False),
    ]
    wrong = []
    for name, check, args, should_pass in cases:
        if (check(*args) is None) != should_pass:
            wrong.append(name)
    return wrong


if __name__ == "__main__":
    from run import run_cli

    wrong = run_selftests(run_cli)
    for name in wrong:
        print(f"FAIL {name}")
    print("selftest:", "ok" if not wrong else f"{len(wrong)} wrong")
    sys.exit(1 if wrong else 0)
