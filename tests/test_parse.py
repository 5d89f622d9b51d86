"""The command line's parser: its flag table against the argparse oracle,
and the one line each rejected command line gets."""
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import build_parser

from markovwords import cli
from markovwords.cli import main, parse

# the command paths that take flags: every path but the two groups
LEAVES = [path for path, (_, flags) in cli._COMMANDS.items() if flags]


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def oracle(argv):
    """The argparse oracle's values for ``argv``, as a dict."""
    return vars(build_parser(argv[0]).parse_args(argv))


def values(spec):
    """Text values the flag ``spec`` of the table accepts, at or above its least value."""
    _, convert, _, least, _ = spec
    if convert is cli._word:
        return st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=5).map(
            lambda w: ",".join(map(str, w)))
    if convert is cli._form:
        coefficient = st.tuples(st.sampled_from(["", "+"]), st.integers(0, 10 ** 6)).map(
            lambda t: f"{t[0]}{t[1]}") | st.integers(-10 ** 6, -1).map(str)
        return st.lists(coefficient, min_size=3, max_size=3).map(",".join)
    low = -10 ** 30 if least is None else least
    return st.tuples(st.sampled_from(["", "+"]), st.integers(low, 10 ** 30)).map(
        lambda t: f"{t[0] if t[1] >= 0 else ''}{t[1]}")


@st.composite
def command_lines(draw):
    """A valid command line of some path: its required flags and a few more,
    some repeated, in any order, each as ``--name value`` or ``--name=value``."""
    path = draw(st.sampled_from(LEAVES))
    flags = cli._COMMANDS[path][1]
    names = [name for name, spec in flags.items() if spec[2] is ...]
    names = draw(st.permutations(names + draw(st.lists(st.sampled_from(list(flags)), max_size=8))))
    argv = list(path)
    for name in names:
        if flags[name][0] is None:  # a switch
            argv.append(name)
            continue
        value = draw(values(flags[name]))
        # argparse reads a word such as -7,-7,6 after a space as a flag
        if draw(st.booleans()) or (value.startswith("-") and "," in value):
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    return argv


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_valid_lines_parse_as_the_argparse_oracle_does(argv):
    expected = oracle(argv)
    assume(expected.get("check") != "prop-main" or expected["a"] != expected["b"])
    assert vars(parse(argv)) == expected


def test_every_path_and_flag_is_drawn():
    # the draws reach every command path, and each path's flags are the oracle's
    assert {path[-1] for path in LEAVES} == {
        "seq", "stern", "prop-main", "theorem", "equivalence", "lemmas", "spectrum", "scan", "bqf"}
    for path in LEAVES:
        required = [f"{name}={'1' if spec[1] is not cli._form else '1,1,-1'}"
                    for name, spec in cli._COMMANDS[path][1].items() if spec[2] is ...]
        names = {name.lstrip("-").replace("-", "_") for name in cli._COMMANDS[path][1]}
        assert set(oracle([*path, *required])) - {"command", "check"} == names


def test_a_repeated_flag_keeps_its_last_value():
    assert parse(["seq", "--n", "5", "--A", "3", "--n=3"]).n == 3
    assert parse(["seq", "--n", "5", "--A", "3", "--n=3"]).A == (3,)


def test_a_negative_form_parses_after_a_space(capsys):
    # argparse took -7,-7,6 after a space for a flag; the table reads it as the value
    assert parse(["bqf", "--form", "-7,-7,6"]).form == parse(["bqf", "--form=-7,-7,6"]).form
    assert parse(["bqf", "--form", "-7,-7,6"]).form == (-7, -7, 6)
    with pytest.raises(SystemExit):
        oracle(["bqf", "--form", "-7,-7,6"])
    capsys.readouterr()
    status, out, _ = run(capsys, "bqf", "--form", "-7,-7,6", "--radius", "2")
    assert status == 0
    assert out.startswith("form=-7,-7,6 radius=2 min_abs=3 point=(1,2) ")


def test_flag_names_are_not_abbreviated(capsys):
    # argparse read --n as --n-max; the table takes each name in full only
    assert oracle(["verify", "prop-main", "--n", "5"])["n_max"] == 5
    assert run(capsys, "verify", "prop-main", "--n", "5") == (
        2, "", "error: unrecognized arguments: --n 5\n")


# one command line of each kind that is rejected, and its one line on stderr
REJECTIONS = {
    "unknown subcommand": (["frobnicate", "--n", "3"],
                           "argument command: invalid choice: 'frobnicate' (choose from 'seq', "
                           "'stern', 'verify', 'spectrum', 'scan', 'bqf')"),
    "unknown check": (["verify", "sweep"],
                      "argument check: invalid choice: 'sweep' (choose from 'prop-main', "
                      "'theorem', 'equivalence', 'lemmas')"),
    "no subcommand": ([], "the following arguments are required: command"),
    "no check": (["verify", "--json"], "the following arguments are required: check"),
    "unknown flag": (["verify", "lemmas", "--workers", "2"], "unrecognized arguments: --workers 2"),
    "stray word": (["seq", "--n", "3", "4"], "unrecognized arguments: 4"),
    "missing required flag": (["bqf", "--radius", "5"],
                              "the following arguments are required: --form"),
    "missing value": (["seq", "--n"], "argument --n: expected one argument"),
    "flag for a value": (["spectrum", "--period", "--json"],
                         "argument --period: expected one argument"),
    "value given to a switch": (["seq", "--n", "3", "--blocks=yes"],
                                "argument --blocks: ignored explicit argument 'yes'"),
    "bad int": (["stern", "--upto", "ten"], "argument --upto: invalid int value: 'ten'"),
    "bad word": (["scan", "--B", "2,0"], "argument --B: invalid word letter '0' in '2,0'"),
    "bad form": (["bqf", "--form", "1,1"],
                 "argument --form: form needs three coefficients, got '1,1'"),
    "bad form coefficient": (["bqf", "--form", "1,x,1"],
                             "argument --form: non-integer coefficient in '1,x,1'"),
    "below minimum": (["verify", "theorem", "--trials", "0"], "--trials must be >= 1"),
    "equal seed letters": (["verify", "prop-main", "--a", "3", "--b=3"],
                           "--a and --b must differ"),
}


@pytest.mark.parametrize("argv, message", list(REJECTIONS.values()), ids=list(REJECTIONS))
def test_each_rejection_is_one_error_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# one literal past the interpreter's int-to-str digit limit per kind of flag
LONG = "7" * 5000


@pytest.mark.parametrize("argv, flag", [
    (["verify", "prop-main", "--n-max", LONG], "--n-max"),
    (["seq", "--n", "3", "--A", f"1,{LONG}"], "--A"),
    (["spectrum", "--period", f"1,{LONG}"], "--period"),
    (["bqf", f"--form={LONG},1,-1"], "--form"),
], ids=["int", "seed word", "period", "form"])
def test_a_literal_past_the_digit_limit_names_the_flag_and_the_limit(capsys, argv, flag):
    limit = sys.get_int_max_str_digits()
    assert run(capsys, *argv) == (
        2, "", f"error: argument {flag}: an integer literal has more than {limit} digits\n")
    assert sys.get_int_max_str_digits() == limit


def test_a_literal_at_the_digit_limit_parses():
    digits = "7" * sys.get_int_max_str_digits()
    assert parse(["verify", "theorem", "--seed", f"-{digits}"]).seed == -int(digits)
    assert parse(["spectrum", "--period", f"1,{digits}"]).period == (1, int(digits))
    assert parse(["bqf", "--form", f"+{digits},1,-1"]).form == (int(digits), 1, -1)


@pytest.mark.parametrize("argv, usage", [
    (["-h", "seq"], "usage: markovwords [-h] {"),
    (["seq", "--help", "--n", "x"], "usage: markovwords seq [-h] "),
    (["verify", "--bogus", "-h"], "usage: markovwords verify [-h] {"),
    (["verify", "prop-main", "--n-max", "5", "-h"], "usage: markovwords verify prop-main [-h] "),
])
def test_help_is_that_of_the_command_words_before_it(capsys, argv, usage):
    status, out, err = run(capsys, *argv)
    assert (status, err) == (0, "")
    assert out.startswith(usage)


def test_help_lists_each_member_and_flag(capsys):
    for path, (text, flags) in cli._COMMANDS.items():
        out = run(capsys, *path, "--help")[1]
        assert out.split("\n")[2] == text
        rows = [line.split()[0] for line in out.split("\n")[4:] if line]
        members = [p[-1] for p in cli._COMMANDS if p[:-1] == path and p]
        assert rows == ["-h,", *members, *flags]
