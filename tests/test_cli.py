import json
import os
from importlib import resources

import jsonschema
import pytest

from oracles import markov_value_by_tails, stern_by_bits

from markovwords import cli
from markovwords.cli import main
from markovwords.diatomic import stern
from markovwords.words import parse_word


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


def test_verify_prop_main_json(capsys, schema):
    status, out, _ = run(capsys, "verify", "prop-main", "--n-max", "5", "--json")
    assert status == 0
    recs = validate_lines(schema, out)
    assert all(r["passed"] for r in recs)
    assert [r["n"] for r in recs] == [1, 2, 3, 4, 5]


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


def test_verify_theorem_reports_and_exit_status(capsys, schema):
    # random seeds of lengths 1-8 include odd lengths, for which the stated
    # rearrangement genuinely fails at some index; exit must be nonzero
    status, out, _ = run(capsys, "verify", "theorem", "--trials", "8",
                         "--seed", "42", "--n-max", "16", "--json")
    recs = validate_lines(schema, out)
    assert len(recs) == 8
    assert (status == 0) == all(r["passed"] for r in recs)


@pytest.mark.parametrize("argv, expected", [
    (["verify", "prop-main", "--n-max", "40"], 0),
    # odd-length random seeds fail the unscoped claim, so both sides exit 1
    (["verify", "theorem", "--trials", "6", "--n-max", "24"], 1),
    (["verify", "equivalence", "--levels", "5", "--pairs", "4"], 0),
    (["scan", "--n-max", "12", "--json"], 0),
    (["verify", "lemmas", "--k-max", "300"], 0),
], ids=["prop-main", "theorem", "equivalence", "scan", "lemmas"])
def test_verify_workers_match_serial(capsys, argv, expected):
    status1, out1, _ = run(capsys, *argv)
    status2, out2, _ = run(capsys, *argv, "--workers", "2")
    assert status1 == status2 == expected
    assert out1 == out2


def test_verify_workers_capped_at_cpu_count(capsys, monkeypatch, stub_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = run(capsys, "verify", "prop-main", "--n-max", "40")
    assert run(capsys, "verify", "prop-main", "--n-max", "40", "--workers", "64") == serial
    assert run(capsys, "verify", "lemmas", "--k-max", "64", "--workers", "5")[0] == 0
    assert stub_pool == [2, 2]


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
    original = cli.markov_value

    def counted(period):
        calls.append(period)
        return original(period)

    monkeypatch.setattr(cli, "markov_value", counted)
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
    (["scan", "--n-max", "3", "--workers", "0"], "--workers must be >= 1"),
    (["scan", "--n-max", "3", "--workers", "-3"], "--workers must be >= 1"),
    (["verify", "prop-main", "--n-max", "3", "--workers", "0"], "--workers must be >= 1"),
    (["verify", "lemmas", "--k-max", "8", "--workers", "-3"], "--workers must be >= 1"),
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
])
def test_out_of_range_flag_exits_2_with_one_line(capsys, argv, message):
    status, out, err = run(capsys, *argv)
    assert status == 2
    assert out == ""
    assert err == f"error: {message}\n"


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
    with pytest.raises(SystemExit) as exc:
        main(["seq", "--A", "1,x,1", "--B", "2,2", "--n", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'x'" in err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stern", "--upto", "3", "--bogus"])
    assert exc.value.code == 2
