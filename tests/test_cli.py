import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from oracles import (build_parser, decimal_truncated, markov_value_by_tails, s_graph,
                     shift_reports, stern_by_bits, walk_off_axis)

from markovwords import cli, spectrum, theorems
from markovwords.cli import main
from markovwords.diatomic import stern
from markovwords.tree import walk
from markovwords.words import format_word, parse_word

SRC = str(Path(cli.__file__).parents[1])


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("markovwords") / "schemas" / "cli-output.schema.json"
    return json.loads(ref.read_text())


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def validate_lines(schema, out):
    lines = [ln for ln in out.splitlines() if ln]
    assert lines
    for ln in lines:
        jsonschema.validate(json.loads(ln), schema)
    return [json.loads(ln) for ln in lines]


def test_seq_flat(capsys):
    status, out, _ = run(capsys, "seq", "--A", "1,1", "--B", "2,2", "--n", "14")
    assert status == 0
    assert out.strip() == "1,1,2,2,1,1,2,2,2,2,1,1,2,2,2,2"


def test_seq_round_trip(capsys):
    _, out, _ = run(capsys, "seq", "--A", "1,2,1", "--B", "3", "--n", "9")
    assert parse_word(out.strip()) == tuple([1, 2, 1] * 4 + [3])


def test_seq_blocks(capsys):
    status, out, _ = run(capsys, "seq", "--n", "14", "--blocks")
    assert status == 0
    assert out.strip() == "ABABBABB"


def test_seq_builds_only_what_it_prints(capsys, monkeypatch):
    # one walk per word printed: S(n) on its seeds relabelled as bytes,
    # the label word on b"A", b"B"
    walked = []

    def counting(a, b, lo, hi):
        walked.append((a, b, lo, hi))
        return walk(a, b, lo, hi)

    monkeypatch.setattr("markovwords.tree.walk", counting)
    assert run(capsys, "seq", "--n", "5") == (0, "1,1,1,1,1,1,2,2\n", "")
    assert walked == [(b"\x01\x01", b"\x02\x02", 5, 5)]
    walked.clear()
    assert run(capsys, "seq", "--n", "5", "--blocks") == (0, "AAAB\n", "")
    assert walked == [(b"A", b"B", 5, 5)]
    walked.clear()
    assert run(capsys, "seq", "--n", "5", "--json")[0] == 0
    assert walked == [(b"\x01\x01", b"\x02\x02", 5, 5), (b"A", b"B", 5, 5)]


@pytest.mark.parametrize("n", [2 ** 40, 2 ** 62 - 2])
def test_seq_far_indices_match_the_graph_oracle(capsys, schema, n):
    # one root path each; the label word is the graph on the seeds (1), (2)
    # read as A, B
    word = s_graph((1, 1), (2, 2), n)
    labels = "".join("AB"[x - 1] for x in s_graph((1,), (2,), n))
    assert run(capsys, "seq", "--n", str(n)) == (0, format_word(word) + "\n", "")
    assert run(capsys, "seq", "--n", str(n), "--blocks") == (0, labels + "\n", "")
    status, out, _ = run(capsys, "seq", "--n", str(n), "--json")
    assert status == 0
    (rec,) = validate_lines(schema, out)
    assert rec == {"command": "seq", "n": n, "A": [1, 1], "B": [2, 2],
                   "sequence": list(word), "blocks": labels}


class _Built(Exception):
    """Raised by a stand-in walk: the cap let seq start building."""


# the one line for a table past memory or past sys.maxsize entries
TOO_LARGE = "the input is too large to hold in memory"

# indices whose label words have 2^23, 2^23 + 1, 2^24 and 2^24 + 1 letters
NEAR_CAP = (24584024747, 29600098987, 123904555691, 117293091499)
HUGE = 99999999999999999999999999999  # d(2n - 1) is about 2.9e13


@pytest.mark.parametrize("n, flags, per_label", [
    (NEAR_CAP[0], (), 2),
    (NEAR_CAP[0], ("--json",), 2),
    (NEAR_CAP[1], (), 2),
    (NEAR_CAP[1], ("--json",), 2),
    (NEAR_CAP[1], ("--blocks",), 1),
    (NEAR_CAP[2], ("--blocks",), 1),
    (NEAR_CAP[2], ("--A", "1", "--B", "2"), 1),
    (NEAR_CAP[2], ("--A", "1", "--B", "2,2"), 2),
    (NEAR_CAP[3], ("--blocks",), 1),
    (HUGE, (), 2),
    (HUGE, ("--blocks",), 1),
])
def test_seq_refuses_a_word_past_the_cap(capsys, monkeypatch, n, flags, per_label):
    # seq bounds the word it prints before building anything: d(2n-1)
    # letters for the label word, at most d(2n-1) * max(|A|, |B|) for S(n);
    # up to 2^24 letters it builds, past that it exits 2 with one line
    assert [stern_by_bits(2 * m - 1) for m in NEAR_CAP] == [
        2 ** 23, 2 ** 23 + 1, 2 ** 24, 2 ** 24 + 1]
    letters = stern_by_bits(2 * n - 1) * per_label

    def starts_building(*args):
        raise _Built

    monkeypatch.setattr("markovwords.tree.walk", starts_building)
    argv = ["seq", "--n", str(n), *flags]
    if letters <= 2 ** 24:
        with pytest.raises(_Built):
            main(argv)
    else:
        assert run(capsys, *argv) == (
            2, "", f"error: --n {n} gives a word of up to {letters} letters; "
                   f"seq builds at most {2 ** 24}\n")


# runs the CLI on its arguments, then writes on stderr the peak resident set
# of this process since it started (Linux VmHWM, in kB)
SEQ_PEAK = """
import sys
from markovwords.cli import main
status = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status_file:
    peak = next(ln for ln in status_file if ln.startswith("VmHWM:"))
sys.stderr.write(peak.split()[1])
sys.exit(status)
"""


def seq_peak_kb(*flags):
    """The peak resident set of ``seq`` on a word of 11,405,774 letters, in kB."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", SEQ_PEAK, "seq", "--n", "2863311531", *flags],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr)


def test_seq_long_word_peak_memory_is_bounded():
    # the whole text, joined from every slice at once, peaked near 62 MB;
    # written slice by slice, the command peaks near 41 MB, most of it the
    # bytes word and its walk
    assert seq_peak_kb() < 48 * 1024


def test_seq_json_long_word_peak_memory_is_bounded():
    # the sequence as one string of 3 bytes per letter peaked near 95 MB;
    # written slice by slice, the record peaks near 41 MB
    assert seq_peak_kb("--json") < 48 * 1024


@pytest.mark.parametrize("flags", [
    ["--n", "3"],
    ["--A", "300,2", "--B", "1000", "--n", "33"],
    ["--A", format_word(range(1, 201)), "--B", format_word(range(1000, 1100)), "--n", "11"],
])
def test_seq_json_writes_one_json_dumps_record(capsys, flags):
    # the record is written in pieces, byte for byte as json.dumps writes it
    status, out, err = run(capsys, "seq", *flags, "--json")
    rec = json.loads(out)
    assert (status, out, err) == (0, json.dumps(rec) + "\n", "")
    assert rec["sequence"] == list(s_graph(tuple(rec["A"]), tuple(rec["B"]), rec["n"]))


def test_seq_decodes_more_than_255_letters(capsys, schema):
    # 300 distinct letters relabel to tuples, not bytes
    wa, wb = tuple(range(1, 201)), tuple(range(1000, 1100))
    flags = ["seq", "--A", format_word(wa), "--B", format_word(wb), "--n", "11"]
    word = s_graph(wa, wb, 11)
    assert run(capsys, *flags) == (0, format_word(word) + "\n", "")
    status, out, _ = run(capsys, *flags, "--json")
    assert status == 0
    (rec,) = validate_lines(schema, out)
    assert rec["sequence"] == list(word)


def test_seq_json(capsys, schema):
    status, out, _ = run(capsys, "seq", "--n", "3", "--json")
    assert status == 0
    (rec,) = validate_lines(schema, out)
    assert rec["sequence"] == [1, 1, 1, 1, 2, 2]
    assert rec["blocks"] == "AAB"


def test_stern_csv(capsys):
    status, out, _ = run(capsys, "stern", "--upto", "9")
    assert status == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()]
    assert [int(v) for _, v in rows] == [0, 1, 1, 2, 1, 3, 2, 3, 1, 4]
    assert [int(n) for n, _ in rows] == list(range(10))


def test_stern_json(capsys, schema):
    _, out, _ = run(capsys, "stern", "--upto", "4", "--json")
    recs = validate_lines(schema, out)
    assert [r["value"] for r in recs] == [0, 1, 1, 2, 1]


def test_verify_prop_main_small(capsys):
    status, out, err = run(capsys, "verify", "prop-main", "--n-max", "3")
    assert status == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(ln.startswith("PASS") for ln in lines)
    assert "3/3 passed" in err


class _Writes:
    """A stdout that records each write call."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)


@pytest.mark.parametrize("argv, expected", [
    (("stern", "--upto", "2099"),
     [f"{n},{stern_by_bits(n)}" for n in range(2100)]),
    (("verify", "prop-main", "--n-max", "2500"),
     [f"PASS shift-palindromic n={n} witness={stern_by_bits(n)}" for n in range(1, 2501)]),
    (("scan", "--n-max", "2", "--digits", "10"),
     ["n=1 period=2,2 surd=(0,1,2,32) decimal=2.8284271247 markov=true",
      "n=2 period=1,1,2,2 surd=(0,1,5,221) decimal=2.9732137494 markov=true"]),
])
def test_long_listings_write_whole_batches(monkeypatch, argv, expected):
    out = _Writes()
    monkeypatch.setattr(cli.sys, "stdout", out)
    assert main(list(argv)) == 0
    assert "".join(out.calls) == "".join(f"{ln}\n" for ln in expected)
    assert [c.count("\n") for c in out.calls] == [
        min(cli.WRITE_LINES, len(expected) - i) for i in range(0, len(expected), cli.WRITE_LINES)]


def test_verify_prop_main_json(capsys, schema):
    status, out, _ = run(capsys, "verify", "prop-main", "--n-max", "5", "--json")
    assert status == 0
    recs = validate_lines(schema, out)
    assert all(r["passed"] for r in recs)
    assert [r["n"] for r in recs] == [1, 2, 3, 4, 5]


def prop_main_oracle(n_max, a_sym, b_sym, as_json):
    """stdout, stderr and exit status of prop-main as every index's report
    printed by _report_line."""
    failures = []
    reports = shift_reports(n_max, a_sym, b_sym)
    out = "".join(f"{cli._report_line(rep, 'prop-main', as_json, failures)}\n" for rep in reports)
    return int(bool(failures)), out, f"prop-main: {n_max - len(failures)}/{n_max} passed\n"


def counting_reports(monkeypatch):
    """Patch the report type the sweep builds; return the list each build appends to."""
    built, real = [], theorems.VerificationReport

    def report(*args):
        built.append(args[1])
        return real(*args)
    monkeypatch.setattr(theorems, "VerificationReport", report)
    return built


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("n_max", [1, 1023, 1024, 1025, 3000])
def test_prop_main_pieces_match_the_report_path(capsys, monkeypatch, n_max, as_json):
    flags = ["--json"] if as_json else []
    expected = prop_main_oracle(n_max, 3, 7, as_json)
    built = counting_reports(monkeypatch)
    got = run(capsys, "verify", "prop-main", "--n-max", str(n_max), "--a", "3", "--b", "7",
              *flags)
    assert got == expected
    assert built == []  # a passing index builds no report


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_prop_main_failing_pieces_print_through_the_report_path(capsys, monkeypatch, as_json):
    # the claim holds everywhere, so the walked label words of chosen indices
    # get one letter flipped off their mirror axis: on both sides of the
    # 1024-line write batches, and twice inside one batch. Index 3 is the
    # first whose label word has a letter off its axis (L(1), L(2) have none)
    failing = [3, 1023, 1024, 1025, 2048, 5000, 5003, 32768]
    monkeypatch.setattr(theorems, "walk", walk_off_axis(theorems.walk, failing))
    expected = prop_main_oracle(32768, 3, 7, as_json)
    assert expected[1].count("counterexample") == len(failing)
    assert expected[0::2] == (1, f"prop-main: {32768 - len(failing)}/32768 passed\n")
    built = counting_reports(monkeypatch)
    got = run(capsys, "verify", "prop-main", "--n-max", "32768", "--a", "3", "--b", "7",
              *(["--json"] if as_json else []))
    assert got == expected
    # only the failing indices build reports, one each, in index order
    assert built == failing


def test_prop_main_failing_piece_reuses_its_verdicts(capsys, monkeypatch):
    # a failing index builds its report from the verdict already read:
    # 2048 label words drawn from one walk of the range, each tested once,
    # and one walk of the failing index for its counterexample
    drawn, walks = [], []
    broken = walk_off_axis(theorems.walk, [1025])

    def counted_walk(*args):
        walks.append(args[2:])
        for w in broken(*args):
            if args[:2] == theorems.LABEL_SEEDS:
                drawn.append(w)
            yield w
    monkeypatch.setattr(theorems, "walk", counted_walk)
    status, out, err = run(capsys, "verify", "prop-main", "--n-max", "2048",
                           "--a", "3", "--b", "7")
    assert (status, err) == (1, "prop-main: 2047/2048 passed\n")
    assert out.count("FAIL") == 1
    assert len(drawn) == 2048
    assert walks == [(1, 2048), (1025, 1025)]


def test_verify_equivalence(capsys, schema):
    status, out, _ = run(capsys, "verify", "equivalence", "--levels", "5",
                         "--pairs", "3", "--json")
    assert status == 0
    recs = validate_lines(schema, out)
    assert len(recs) == 4  # canonical pair + 3 random pairs
    assert all(r["passed"] for r in recs)


def test_verify_lemmas(capsys, schema):
    status, out, _ = run(capsys, "verify", "lemmas", "--k-max", "128", "--json")
    assert status == 0
    recs = validate_lines(schema, out)
    assert all(r["passed"] for r in recs)


def _perfbench_oracles():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_lemmas_prints_nine_pass_lines_at_class_edges(capsys):
    # bounds on both sides of powers of two end the 2-adic class slices of
    # the one shared table at different places
    expected = _perfbench_oracles().lemmas_expected
    for k_max in (8, 9, 15, 16, 17, 4095, 4096, 4097, 262145):
        status, out, _ = run(capsys, "verify", "lemmas", "--k-max", str(k_max))
        assert (status, out.encode()) == (0, expected(k_max)), k_max


def test_verify_theorem_reports_and_exit_status(capsys, schema):
    # random seeds of lengths 1-8 include odd lengths, for which the stated
    # rearrangement genuinely fails at some index; exit must be nonzero
    status, out, _ = run(capsys, "verify", "theorem", "--trials", "8",
                         "--seed", "42", "--n-max", "16", "--json")
    recs = validate_lines(schema, out)
    assert len(recs) == 8
    assert (status == 0) == all(r["passed"] for r in recs)


def test_sweeps_reject_workers(capsys):
    # every sweep runs as one serial stream; --workers is no flag of any
    for argv in (["verify", "prop-main"], ["verify", "theorem"], ["verify", "equivalence"],
                 ["verify", "lemmas"], ["scan"]):
        assert run(capsys, *argv, "--workers", "2") == (
            2, "", "error: unrecognized arguments: --workers 2\n")


def test_stern_reads_a_table_not_the_memo(capsys):
    before = stern.cache_info()
    status, out, _ = run(capsys, "stern", "--upto", "5000")
    assert stern.cache_info() == before
    assert status == 0
    assert out.splitlines() == [f"{n},{stern_by_bits(n)}" for n in range(5001)]


def test_spectrum_digits(capsys):
    status, out, _ = run(capsys, "spectrum", "--period", "1,1", "--digits", "12")
    assert status == 0
    assert "decimal=2.236067977499" in out
    assert "surd=(0,1,1,5)" in out
    assert "markov=true" in out


def test_spectrum_json(capsys, schema):
    _, out, _ = run(capsys, "spectrum", "--period", "2,2,1,1", "--digits", "12",
                    "--json")
    (rec,) = validate_lines(schema, out)
    assert rec["surd"] == {"p": 0, "q": 1, "r": 5, "D": 221}
    assert rec["decimal"] == "2.973213749463"
    assert rec["is_markov"] is True
    assert rec["argmin"] == 0


def test_scan(capsys, schema):
    status, out, _ = run(capsys, "scan", "--n-max", "6", "--digits", "10", "--json")
    assert status == 0
    recs = validate_lines(schema, out)
    assert [r["n"] for r in recs] == [1, 2, 3, 4, 5, 6]
    assert all(r["is_markov"] for r in recs)
    assert recs[0]["period"] == [2, 2]
    assert recs[0]["decimal"] == "2.8284271247"


def test_spectrum_text_evaluates_once(capsys, monkeypatch):
    calls = []
    original = spectrum.markov_value

    def counted(period):
        calls.append(period)
        return original(period)

    monkeypatch.setattr(spectrum, "markov_value", counted)
    status, out, _ = run(capsys, "spectrum", "--period", "2,2,1,1", "--digits", "12")
    assert status == 0
    assert out == ("period=2,2,1,1 surd=(0,1,5,221) decimal=2.973213749463 "
                   "argmin=0 markov=true\n")
    assert calls == [(2, 2, 1, 1)]


def test_scan_text(capsys):
    status, out, _ = run(capsys, "scan", "--n-max", "2", "--digits", "10")
    assert status == 0
    assert out == (
        "n=1 period=2,2 surd=(0,1,2,32) decimal=2.8284271247 markov=true\n"
        "n=2 period=1,1,2,2 surd=(0,1,5,221) decimal=2.9732137494 markov=true\n"
    )


def test_decimals_past_the_int_to_str_limit(capsys, schema):
    # 5000 digits is past the interpreter's default int-to-str limit of 4300
    status, out, _ = run(capsys, "spectrum", "--period", "1,2", "--digits", "4299")
    assert status == 0
    short = out.split(" decimal=")[1].split()[0]
    status, out, _ = run(capsys, "spectrum", "--period", "1,2", "--digits", "5000")
    assert status == 0
    decimal = out.split(" decimal=")[1].split()[0]
    assert decimal == decimal_truncated(*markov_value_by_tails((1, 2)).value.as_tuple(), 5000)
    assert decimal[:4301] == short
    # scan and bqf render their values the same way
    for argv, field in ((("scan", "--n-max", "2"), "surd"),
                        (("bqf", "--form", "1,1,-1"), "normalized")):
        status, out, _ = run(capsys, *argv, "--digits", "5000", "--json")
        assert status == 0
        for rec in validate_lines(schema, out):
            surd = rec[field]
            assert rec["decimal"] == decimal_truncated(
                surd["p"], surd["q"], surd["r"], surd["D"], 5000)


@pytest.fixture
def any_int_digits():
    """Lifts the interpreter's int-to-str digit limit for a test's own parsing,
    and puts it back; a test runs the command before it parses."""
    limit = sys.get_int_max_str_digits()
    yield lambda: sys.set_int_max_str_digits(0)
    sys.set_int_max_str_digits(limit)


def test_spectrum_prints_a_radicand_past_the_int_to_str_limit(capsys, any_int_digits):
    # S(87382) on (1,1),(2,2) has 8,362 letters and a D of 4,573 digits,
    # past the default limit of 4300; the value is sqrt(9m^2 - 4)/m for the
    # Markov number m = trace/3 of its convergent matrix
    period = next(walk((1, 1), (2, 2), 87382, 87382))
    text = run(capsys, "spectrum", "--period", format_word(period))
    line = run(capsys, "spectrum", "--period", format_word(period), "--json")
    assert (text[0], text[2], line[0], line[2]) == (0, "", 0, "")
    any_int_digits()
    oracles = _perfbench_oracles()
    assert oracles.check_spectrum(text[1].encode(), period) is None
    m, argmin = oracles.perron(period)
    rec = json.loads(line[1])
    surd = rec.pop("surd")
    assert len(str(surd["D"])) == 4573
    assert oracles.surd_is_markov_value(surd["p"], surd["q"], surd["r"], surd["D"], m)
    assert rec == {"command": "spectrum", "period": list(period),
                   "decimal": oracles.markov_decimal(m), "argmin": argmin, "is_markov": True}
    # the same bytes json.dumps writes
    assert line[1] == json.dumps({"command": "spectrum", "period": list(period), "surd": surd,
                                  **{k: rec[k] for k in ("decimal", "argmin", "is_markov")}}) + "\n"


def test_scan_writes_every_row_past_the_int_to_str_limit(capsys, any_int_digits):
    # with A = 1200 nines, row 3 (A, A, B: 2,401 letters) is the first whose
    # radicand has more than 4300 digits; the rows before it and after it
    # are written too, in text and in JSON
    nines = ",".join(["9"] * 1200)
    text = run(capsys, "scan", "--A", nines, "--B", "8", "--n-max", "4")
    line = run(capsys, "scan", "--A", nines, "--B", "8", "--n-max", "4", "--json")
    assert (text[0], text[2], line[0], line[2]) == (0, "", 0, "")
    any_int_digits()
    words = list(walk(parse_word(nines), (8,), 1, 4))
    recs = [json.loads(ln) for ln in line[1].splitlines()]
    assert [r["n"] for r in recs] == [1, 2, 3, 4]
    digits = [len(str(r["surd"]["D"])) for r in recs]
    assert digits[1] <= 4300 < digits[2]
    for n, (w, rec, row) in enumerate(zip(words, recs, text[1].splitlines()), 1):
        mv = spectrum.markov_value(w)
        p, q, r, d = mv.value.as_tuple()
        assert rec == {"command": "scan", "n": n, "period": list(w),
                       "surd": {"p": p, "q": q, "r": r, "D": d},
                       "decimal": mv.value.to_decimal(30), "argmin": mv.argmin,
                       "is_markov": False}, n
        assert row == (f"n={n} period={format_word(w)} surd=({p},{q},{r},{d}) "
                       f"decimal={mv.value.to_decimal(30)} markov=false"), n
        # r is the lower-left entry of the convergent matrix at the argmin, and
        # D the radicand trace^2 - 4*det every rotation shares
        (m11, m12), (m21, m22) = spectrum.cf_matrix(w[mv.argmin:] + w[:mv.argmin])
        assert (p, q, r, d) == (0, 1, m21, (m11 + m22) ** 2 - 4 * (m11 * m22 - m12 * m21)), n


def test_bqf_prints_integers_past_the_int_to_str_limit(capsys, any_int_digits):
    # a form with 2200-digit coefficients has a discriminant of about 4400
    # digits, which bqf prints as the normalized surd's r and D
    a = 10 ** 2200 + 1
    form = f"{a},1,-{a}"
    text = run(capsys, "bqf", "--form", form, "--radius", "2")
    line = run(capsys, "bqf", "--form", form, "--radius", "2", "--json")
    assert (text[0], text[2], line[0], line[2]) == (0, "", 0, "")
    any_int_digits()
    result = spectrum.bqf_min(spectrum.BQForm(a, 1, -a), 2)
    p, q, r, d = result.normalized.as_tuple()
    assert len(str(d)) > 4300
    decimal = result.normalized.to_decimal(30)
    assert text[1] == (f"form={a},1,-{a} radius=2 min_abs={result.min_abs} "
                       f"point=({result.point[0]},{result.point[1]}) "
                       f"normalized=({p},{q},{r},{d}) decimal={decimal}\n")
    assert line[1] == json.dumps({
        "command": "bqf", "form": [a, 1, -a], "radius": 2, "min_abs": result.min_abs,
        "point": list(result.point), "normalized": {"p": p, "q": q, "r": r, "D": d},
        "decimal": decimal}) + "\n"


def test_scan_rows_match_tail_oracle(capsys, schema):
    status, out, _ = run(capsys, "scan", "--n-max", "40", "--json")
    assert status == 0
    recs = validate_lines(schema, out)
    assert [r["n"] for r in recs] == list(range(1, 41))
    for rec in recs:
        expected = markov_value_by_tails(rec["period"])
        p, q, r, d = expected.value.as_tuple()
        assert rec["surd"] == {"p": p, "q": q, "r": r, "D": d}, rec["n"]
        assert rec["argmin"] == expected.argmin, rec["n"]
        # value sqrt(D)/r lies below 3 exactly when D < 9 r^2
        assert rec["is_markov"] == (d < 9 * r * r), rec["n"]


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--period", "1,2", "--digits", "-1"], "--digits must be >= 0"),
    (["scan", "--n-max", "3", "--digits", "-1"], "--digits must be >= 0"),
    (["bqf", "--form", "1,1,-1", "--digits", "-2"], "--digits must be >= 0"),
    # bqf checks its radius and form itself, after the flag minima
    (["bqf", "--form", "1,1,-1", "--radius", "0"], "radius must be >= 1"),
    (["bqf", "--form", "1,1,-1", "--radius", "-3"], "radius must be >= 1"),
    (["bqf", "--form", "1,0,1"], "form must be indefinite, discriminant is -4"),
    (["bqf", "--form", "0,0,0"], "form must be indefinite, discriminant is 0"),
    (["seq", "--n", "-1"], "--n must be >= 0"),
    (["stern", "--upto", "-1"], "--upto must be >= 0"),
    (["verify", "prop-main", "--n-max", "0"], "--n-max must be >= 1"),
    (["verify", "theorem", "--n-max", "-4"], "--n-max must be >= 1"),
    (["scan", "--n-max", "0"], "--n-max must be >= 1"),
    (["verify", "lemmas", "--k-max", "-5"], "--k-max must be >= 8"),
    (["verify", "lemmas", "--k-max", "7"], "--k-max must be >= 8"),
    (["verify", "equivalence", "--levels", "-2", "--pairs", "1"], "--levels must be >= 0"),
    (["verify", "equivalence", "--pairs", "-1"], "--pairs must be >= 0"),
    (["verify", "theorem", "--trials", "0"], "--trials must be >= 1"),
    (["verify", "prop-main", "--n-max", "3", "--a", "0"], "--a must be >= 1"),
    (["verify", "prop-main", "--n-max", "3", "--b", "-1"], "--b must be >= 1"),
    (["verify", "prop-main", "--n-max", "3", "--a", "1", "--b", "1"],
     "--a and --b must differ"),
    # a table of 2^63 + 1 entries cannot be indexed; it raises before allocating
    (["stern", "--upto", str(2 ** 63)], TOO_LARGE),
    (["verify", "prop-main", "--n-max", str(2 ** 63)], TOO_LARGE),
    (["verify", "theorem", "--trials", "1", "--n-max", str(2 ** 63)], TOO_LARGE),
    (["verify", "lemmas", "--k-max", str(2 ** 63)], TOO_LARGE),
])
def test_out_of_range_flag_exits_2_with_one_line(capsys, argv, message):
    status, out, err = run(capsys, *argv)
    assert status == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_a_table_past_memory_exits_2_with_one_line(capsys, monkeypatch):
    # a size between RAM and sys.maxsize might be allocated lazily and
    # exhaust the machine, so the MemoryError is raised by a stand-in
    def past_memory(n):
        raise MemoryError

    monkeypatch.setattr("markovwords.diatomic.stern_table", past_memory)
    assert run(capsys, "stern", "--upto", "5") == (2, "", f"error: {TOO_LARGE}\n")


def test_bqf(capsys, schema):
    status, out, _ = run(capsys, "bqf", "--form", "1,1,-1", "--radius", "50",
                         "--digits", "12", "--json")
    assert status == 0
    (rec,) = validate_lines(schema, out)
    assert rec["min_abs"] == 1
    assert rec["normalized"] == {"p": 0, "q": 1, "r": 5, "D": 5}
    assert rec["point"] == [1, 0]
    assert rec["decimal"] == "0.447213595499"


def test_bqf_rejects_definite_form(capsys):
    status, _, err = run(capsys, "bqf", "--form", "1,0,1")
    assert status == 2
    assert "discriminant" in err


def test_malformed_word_literal(capsys):
    assert run(capsys, "seq", "--A", "1,x,1", "--B", "2,2", "--n", "3") == (
        2, "", "error: argument --A: invalid word letter 'x' at position 2\n")


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--period", "\u0661,\u0662"], "invalid word letter '\u0661'"),
    (["spectrum", "--period", "1,\u00b2"], "invalid word letter '\u00b2'"),
    (["seq", "--n", "3", "--A", "1,+1"], "invalid word letter '+1'"),
    (["bqf", "--form", " 1,1_0,-1"], "non-integer coefficient ' 1' at position 1"),
    (["bqf", "--form", "\u0661,1,-1"], "non-integer coefficient"),
    (["bqf", "--form", "1,--1,-1"], "non-integer coefficient"),
])
def test_literals_are_ascii_decimals(capsys, argv, message):
    # one line: the flag, the converter's message, and the position it refused
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.startswith(f"error: argument {argv[-2]}: {message}")
    assert re.search(r" at position [12]\n\Z", err) and err.count("\n") == 1


def test_form_coefficients_take_a_sign(capsys):
    status, out, _ = run(capsys, "bqf", "--form", "+1,+1,-1", "--radius", "5")
    assert status == 0
    assert out.startswith("form=1,1,-1 radius=5 ")


# the usage line of each command path, as its --help prints it
USAGE = {
    (): "[-h] {seq,stern,verify,spectrum,scan,bqf} ...",
    ("seq",): "seq [-h] [--A WORD] [--B WORD] --n N [--blocks] [--json]",
    ("stern",): "stern [-h] --upto N [--json]",
    ("verify",): "verify [-h] {prop-main,theorem,equivalence,lemmas} ...",
    ("verify", "prop-main"): "verify prop-main [-h] [--n-max N_MAX] [--a A] [--b B] [--json]",
    ("verify", "theorem"): "verify theorem [-h] [--trials TRIALS] [--seed SEED] [--n-max N_MAX] "
                           "[--json]",
    ("verify", "equivalence"): "verify equivalence [-h] [--levels LEVELS] [--pairs PAIRS] "
                               "[--seed SEED] [--json]",
    ("verify", "lemmas"): "verify lemmas [-h] [--k-max K_MAX] [--json]",
    ("spectrum",): "spectrum [-h] --period WORD [--digits DIGITS] [--json]",
    ("scan",): "scan [-h] [--n-max N_MAX] [--A WORD] [--B WORD] [--digits DIGITS] [--json]",
    ("bqf",): "bqf [-h] --form A,B,C [--radius RADIUS] [--digits DIGITS] [--json]",
}


@pytest.mark.parametrize("words", list(USAGE), ids=lambda w: " ".join(w) or "top")
def test_each_subcommand_parses_its_own_arguments(capsys, monkeypatch, words):
    status, out, err = run(capsys, *words, "--help")
    assert (status, err) == (0, "")
    assert out.splitlines()[0] == "usage: markovwords " + USAGE[words]
    # argparse, the parser's oracle, prints the same usage on a line wide enough for it
    monkeypatch.setenv("COLUMNS", "300")
    with pytest.raises(SystemExit):
        build_parser(words[0] if words else None).parse_args([*words, "--help"])
    assert capsys.readouterr().out.splitlines()[0] == out.splitlines()[0]


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate") == (
        2, "", "error: argument command: invalid choice: 'frobnicate' "
               "(choose from 'seq', 'stern', 'verify', 'spectrum', 'scan', 'bqf')\n")


def test_unknown_flag(capsys):
    assert run(capsys, "stern", "--upto", "3", "--bogus") == (
        2, "", "error: unrecognized arguments: --bogus\n")


# one command per exit status: the lemma suite passes, six random seed pairs
# hold cases the theorem does not cover, and a definite form is rejected
BY_STATUS = {0: ["verify", "lemmas", "--k-max", "8"],
             1: ["verify", "theorem", "--trials", "6", "--n-max", "24"],
             2: ["bqf", "--form", "1,1,1"]}
CLOSED_PIPE = ["verify", "prop-main", "--n-max", "32768", "--a", "3", "--b", "7"]


@pytest.fixture
def unfreeze():
    yield
    gc.unfreeze()


@pytest.mark.parametrize("status", list(BY_STATUS))
def test_entrypoint_exits_with_main_status_and_a_frozen_collector(
        capsys, monkeypatch, unfreeze, status):
    exits = []
    monkeypatch.setattr(sys, "argv", ["markovwords", *BY_STATUS[status]])
    monkeypatch.setattr(sys, "exit", exits.append)
    cli.entrypoint()
    assert exits == [status]
    assert gc.get_freeze_count() > 0


def test_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    for argv in BY_STATUS.values():
        main(argv)
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def launch_cli(*argv, stdout=subprocess.PIPE):
    return subprocess.Popen([sys.executable, "-m", "markovwords.cli", *argv],
                            env={**os.environ, "PYTHONPATH": SRC},
                            stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("status", list(BY_STATUS))
def test_a_launch_prints_and_exits_as_main_does_in_process(capsys, status):
    proc = launch_cli(*BY_STATUS[status])
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out.decode(), err.decode()) == run(capsys, *BY_STATUS[status])
    assert proc.returncode == status


def test_the_shutdown_sees_a_frozen_collector():
    # an atexit handler registered before entrypoint runs after the freeze
    probe = ("import atexit, gc, sys\n"
             "atexit.register(lambda: sys.stderr.write(f'frozen={gc.get_freeze_count()}'))\n"
             "from markovwords.cli import entrypoint\n"
             "entrypoint()\n")
    proc = subprocess.run([sys.executable, "-c", probe, "bqf", "--form", "1,1,-1"],
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("form=1,1,-1 radius=50 ")
    assert proc.stderr.startswith("frozen=") and int(proc.stderr.split("=")[1]) > 0


def test_a_closed_stdout_pipe_ends_with_status_1_and_no_traceback():
    # the reader takes 40 bytes of about 1.2 MB and closes the pipe
    proc = launch_cli(*CLOSED_PIPE)
    head = proc.stdout.read(40)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""
    assert head == b"PASS shift-palindromic n=1 witness=1\nPAS"
