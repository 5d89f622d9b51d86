"""Command-line front end: seq, stern, verify (prop-main | theorem |
equivalence | lemmas), spectrum, scan, bqf. Results go to stdout, diagnostics
to stderr; ``--json`` switches to one JSON object per line. The exit status is
0 exactly when every requested check passed, so verify sweeps can gate CI; a
rejected input exits 2 with one ``error:`` line on stderr, written only by
:func:`main`.

:func:`parse` reads a command line by one table, ``_COMMANDS``: first the
command words, then flags ``--name value`` or ``--name=value``, each name in
full (no abbreviation), and switches ``--name``. A value is the next word
unless that starts with ``--``, so ``--form -7,-7,6`` parses; a repeated flag
keeps its last value; ``-h`` or ``--help`` prints the help of the command
words read so far. A refusal quotes a token by ten characters. Each handler
imports only the modules it reads (prop-main ``theorems`` only for a failing
index) and writes JSON rows as text, only a ``verify`` report via :mod:`json`.
"""
from __future__ import annotations

import gc
import os
import sys
from itertools import count, islice
from types import SimpleNamespace
from typing import Iterator, Sequence


def _word(text: str):
    from .words import parse_word

    return parse_word(text)


def _quote(token: str, show=repr) -> str:
    """``token`` by its first ten characters, or by ``repr`` of its first three
    if one of those is not printable, then ``...`` if it is longer."""
    k = 10 if (printable := token[:10].isprintable()) else 3
    return (show if printable else repr)(token[:k]) + "..." * (len(token) > k)


def _form(text: str):
    from .spectrum import BQForm

    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"form needs three coefficients, got {len(parts)}")
    for i, part in enumerate(parts, 1):
        digits = part[1:] if part.startswith(("+", "-")) else part  # an optional sign
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"non-integer coefficient {_quote(part)} at position {i}")
    return BQForm(*map(int, parts))


_SEEDS = {"--A": ("WORD", _word, (1, 1), None, "first seed"),
          "--B": ("WORD", _word, (2, 2), None, "second seed")}
_SEED, _DIGITS = ("SEED", int, 42, None, "random seed"), ("DIGITS", int, 30, 0, "decimal digits")
_JSON = {"--json": (None, None, False, None, "one JSON object per line")}

# each command path with its help line and flags, in the order --help lists
# them; a group (the top level, verify) has no flags and names a member. A
# flag is (metavar, converter, default, least value, help): a switch has no
# metavar, a required flag the default ``...``, and None is no least value
_COMMANDS = {
    (): ("Ordered Markov words, palindromic shifts, exact spectrum values.", {}),
    ("seq",): ("print the word with index n", {
        **_SEEDS, "--n": ("N", int, ..., 0, "index of the word"),
        "--blocks": (None, None, False, None, "print the block word instead"), **_JSON}),
    ("stern",): ("emit the diatomic sequence as index,value CSV",
                 {"--upto": ("N", int, ..., 0, "last index"), **_JSON}),
    ("verify",): ("run a verification sweep", {}),
    ("verify", "prop-main"): ("d(n)-shift palindromicity sweep", {
        "--n-max": ("N_MAX", int, 4096, 1, "last index"),
        "--a": ("A", int, 1, 1, "first seed (a,a)"), "--b": ("B", int, 2, 1, "second seed (b,b)"),
        **_JSON}),
    ("verify", "theorem"): ("block-rearrangement sweep over random seeds", {
        "--trials": ("TRIALS", int, 200, 1, "random seed pairs"), "--seed": _SEED,
        "--n-max": ("N_MAX", int, 512, 1, "last index"), **_JSON}),
    ("verify", "equivalence"): ("graph builder vs index recursion", {
        "--levels": ("LEVELS", int, 10, 0, "tree levels"),
        "--pairs": ("PAIRS", int, 20, 0, "random seed pairs"), "--seed": _SEED, **_JSON}),
    ("verify", "lemmas"): ("supporting identity suite", {  # below 8, some identity has no level
        "--k-max": ("K_MAX", int, 4096, 8, "last index"), **_JSON}),
    ("spectrum",): ("exact Perron value of a period", {
        "--period": ("WORD", _word, ..., None, "the period"), "--digits": _DIGITS, **_JSON}),
    ("scan",): ("tabulate spectrum values of S(1..n)", {
        "--n-max": ("N_MAX", int, 64, 1, "last index"), **_SEEDS, "--digits": _DIGITS, **_JSON}),
    ("bqf",): ("bounded lattice minimum of an indefinite form", {
        "--form": ("A,B,C", _form, ..., None, "the coefficients"),
        "--radius": ("RADIUS", int, 50, None, "half the side of the box"),
        "--digits": _DIGITS, **_JSON}),
}
_MEMBERS = {path: [p[-1] for p in _COMMANDS if p and p[:-1] == path] for path in _COMMANDS}
_MEMBER = ("command", "check")  # what the member of the top level and of verify is


def _help(path: tuple) -> str:
    """The help of ``path``: its usage line, help line, and members or flags."""
    text, flags = _COMMANDS[path]
    members = {m: _COMMANDS[(*path, m)][0] for m in _MEMBERS[path]}
    usage = [f"{{{','.join(members)}}}", "..."] if members else []
    rows = {"-h, --help": "show this help and exit", **members}
    for name, (metavar, _, default, _, line) in flags.items():
        given = f"{name} {metavar}" if metavar else name
        usage.append(given if default is ... else f"[{given}]")
        rows[given] = line
    width = max(map(len, rows)) + 2
    return (" ".join(["usage: markovwords", *path, "[-h]", *usage]) + f"\n\n{text}\n\n"
            + "".join(f"  {key:<{width}}{line}\n" for key, line in rows.items()))


def _convert(name: str, convert, text: str):
    # int() refuses a literal past the interpreter's digit limit with a hint
    # at sys.set_int_max_str_digits(); name the flag and the limit instead
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and any(sum(map(str.isdigit, piece)) > limit for piece in text.split(",")):
        raise ValueError(f"argument {name}: an integer literal has more than {limit} digits")
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"argument {name}: "
                         + (f"invalid int value: {_quote(text)}" if convert is int else str(exc)))


def parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The arguments of a command line, by the rules of the module docstring,
    or None once its help is printed; a rejected line raises ValueError."""
    path, given, extras, tokens = (), {}, [], iter(argv)
    for token in tokens:
        flags, (name, eq, value) = _COMMANDS[path][1], token.partition("=")
        if token in ("-h", "--help"):
            sys.stdout.write(_help(path))
            return None
        if not flags and not token.startswith("-"):
            if token not in (members := _MEMBERS[path]):
                raise ValueError(f"argument {_MEMBER[len(path)]}: invalid choice: {_quote(token)} "
                                 f"(choose from {', '.join(map(repr, members))})")
            path += (token,)
        elif name not in flags:
            extras.append(token)
        elif flags[name][0] is None:
            if eq:
                raise ValueError(f"argument {name}: ignored explicit argument {_quote(value)}")
            given[name] = True
        elif not eq and ((value := next(tokens, None)) is None or value.startswith("--")):
            raise ValueError(f"argument {name}: expected one argument")
        else:
            given[name] = _convert(name, flags[name][1], value)
    if not (flags := _COMMANDS[path][1]):
        raise ValueError(f"the following arguments are required: {_MEMBER[len(path)]}")
    if missing := [name for name, spec in flags.items() if spec[2] is ... and name not in given]:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extras:  # the first three words, and how many more
        more = f" and {len(extras) - 3} more" * (len(extras) > 3)
        raise ValueError(f"unrecognized arguments: "
                         f"{' '.join(_quote(word, str) for word in extras[:3])}{more}")
    args = SimpleNamespace(**dict(zip(_MEMBER, path)))
    for name, (_, _, default, least, _) in flags.items():
        if least is not None and given.get(name, default) < least:
            raise ValueError(f"{name} must be >= {least}")
        setattr(args, name[2:].replace("-", "_"), given.get(name, default))
    if path == ("verify", "prop-main") and args.a == args.b:
        raise ValueError("--a and --b must differ")
    return args


WRITE_LINES = 1024  # per stdout write; under ``python -u`` each print is a write


def _write_lines(lines: Iterator[str]) -> int:
    """Write the lines to stdout in order, WRITE_LINES per write (fewer at
    the end), and return how many there were."""
    written = 0
    while batch := list(islice(lines, WRITE_LINES)):
        sys.stdout.write("\n".join(batch) + "\n")
        written += len(batch)
    return written


def _report_line(rep, check: str, as_json: bool, failures: list[int]) -> str:
    """The line of one VerificationReport; ``failures`` collects the n of each failing one."""
    if not rep.passed:
        failures.append(rep.n)
    if as_json:
        import json
        return json.dumps({"command": "verify", "check": check, **rep.to_json()})
    extra = "" if rep.witness is None else f" witness={rep.witness}"
    counter = "" if rep.counterexample is None else f" counterexample={rep.counterexample}"
    return f"{'PASS' if rep.passed else 'FAIL'} {rep.claim} n={rep.n}{extra}{counter}"


# the longest word seq builds: S(n) has at most d(2n-1) * max(|A|, |B|)
# letters and its label word d(2n-1), read before either word is built
SEQ_MAX_LETTERS = 1 << 24


def _cmd_seq(args) -> int:
    """Print S(n), its label word L(n) with ``--blocks``, or their JSON record,
    as text. L(n) is walked once, on b"A", b"B"; the text of S(n) is
    ``str.translate`` of L(n), each label to the separator and its seed's text,
    the first separator dropped, a piece of at most FORMAT_SLICE letters at a time."""
    from .diatomic import stern
    from .tree import walk
    from .words import FORMAT_SLICE, format_word

    n, longest = args.n, max(len(args.A), len(args.B))
    length = stern(2 * n - 1) if n else 1  # of L(n)
    letters = length if args.blocks and not args.json else length * longest
    if letters > SEQ_MAX_LETTERS:
        raise ValueError("--n %s gives a word of up to %s letters; seq builds at most %d" % (
            _quote(str(n), str), _quote(str(letters), str), SEQ_MAX_LETTERS))
    labels = next(walk(b"A", b"B", n, n)).decode()
    if args.blocks and not args.json:
        print(labels)
        return 0
    sep = ", " if args.json else ","
    a, b = format_word(args.A, sep), format_word(args.B, sep)
    seeds, step = {ord("A"): sep + a, ord("B"): sep + b}, max(FORMAT_SLICE // longest, 1)
    pieces = (labels[i:i + step].translate(seeds) for i in range(0, len(labels), step))
    if args.json:
        sys.stdout.write(f'{{"command": "seq", "n": {n}, "A": [{a}], "B": [{b}], "sequence": [')
    sys.stdout.write(next(pieces)[len(sep):])
    sys.stdout.writelines(pieces)
    print(f'], "blocks": "{labels}"}}' if args.json else "")
    return 0


def _cmd_stern(args) -> int:
    from .diatomic import stern_table

    table = enumerate(stern_table(args.upto))
    if args.json:
        _write_lines(f'{{"command": "stern", "n": {n}, "value": {value}}}' for n, value in table)
    else:
        _write_lines(f"{n},{value}" for n, value in table)
    return 0


def _write_shifts(args, failures: list[int]) -> int:
    """Write prop-main's lines, WRITE_LINES per write, and return how many.
    An all-pass piece is one %-format of the line :func:`_report_line` writes
    for a passing report; only a failing index builds one, from ``theorems``."""
    from .diatomic import stern_table
    from .tree import _shift_verdicts

    verdicts = _shift_verdicts(1, shifts := stern_table(args.n_max)[1:])
    line = ('{"command": "verify", "check": "prop-main", "claim": "shift-palindromic", '
            '"n": %s, "passed": true, "witness": %s}\n' if args.json else
            "PASS shift-palindromic n=%s witness=%s\n")
    for lo in range(0, len(shifts), WRITE_LINES):
        ds, oks = shifts[lo:lo + WRITE_LINES], list(islice(verdicts, WRITE_LINES))
        rows = [0, 0] * len(ds)  # n and d(n) of each index, in turn
        rows[0::2], rows[1::2] = range(lo + 1, lo + len(ds) + 1), ds
        if all(oks):
            sys.stdout.write(line * len(ds) % tuple(rows))
            continue
        from .theorems import _shift_report
        sys.stdout.write("".join(line % (n, d) if ok else _report_line(_shift_report(
            args.a, args.b, n, d, ok), "prop-main", args.json, failures) + "\n"
            for n, d, ok in zip(count(lo + 1), ds, oks)))
    return len(shifts)


def _cmd_verify(args) -> int:
    failures: list[int] = []
    if args.check == "prop-main":
        written = _write_shifts(args, failures)
    else:  # the package imports each sweep from its home module on first use
        package = sys.modules[__package__]
        if args.check == "theorem":
            reports = package.iter_block_rearrangement(args.n_max, args.trials, args.seed)
        elif args.check == "equivalence":
            reports = package.iter_equivalence(args.levels, args.pairs, args.seed)
        else:
            reports = package.iter_lemma_checks(args.k_max)
        written = _write_lines(_report_line(r, args.check, args.json, failures) for r in reports)
    print(f"{args.check}: {written - len(failures)}/{written} passed", file=sys.stderr)
    return 1 if failures else 0


def _spectrum_lines(command: str, rows, digits: int, as_json: bool) -> Iterator[str]:
    """The line of each row (n, period text, MarkovValue) of ``spectrum`` or
    ``scan``; in text, only scan prints n and only spectrum the argmin. A JSON
    line is the text ``json.dumps`` gives the row's record, its period joined
    by ``", "``. Every integer prints through ``spectrum._int_text``, at any size."""
    from .spectrum import _int_text

    for n, period, (value, argmin) in rows:
        p, q, r, d = map(_int_text, value.as_tuple())
        decimal, markov = value.to_decimal(digits), "true" if value.compare(3) < 0 else "false"
        if as_json:
            head = f'"n": {_int_text(n)}, ' if command == "scan" else ""
            yield (f'{{"command": "{command}", {head}"period": [{period}], '
                   f'"surd": {{"p": {p}, "q": {q}, "r": {r}, "D": {d}}}, '
                   f'"decimal": "{decimal}", "argmin": {_int_text(argmin)}, '
                   f'"is_markov": {markov}}}')
        else:
            head = f"n={_int_text(n)} " if command == "scan" else ""
            tail = f" argmin={_int_text(argmin)}" if command == "spectrum" else ""
            yield (f"{head}period={period} surd=({p},{q},{r},{d}) "
                   f"decimal={decimal}{tail} markov={markov}")


def _cmd_spectrum(args) -> int:
    from .spectrum import markov_value
    from .words import format_word

    text = format_word(args.period, ", " if args.json else ",")
    rows = [(None, text, markov_value(args.period))]
    _write_lines(_spectrum_lines("spectrum", rows, args.digits, args.json))
    return 0


def _cmd_scan(args) -> int:
    from .spectrum import _join_convergents, _markov_value_from, cf_matrix
    from .tree import walk
    from .words import format_word

    # each walked word comes with its convergent matrix, one 2x2 product per
    # join; its text is walked beside it, one concatenation per join
    sep = ", " if args.json else ","
    seeds = [(w, cf_matrix(w)) for w in (args.A, args.B)]
    pairs = walk(*seeds, 1, args.n_max, join=_join_convergents)
    texts = walk(format_word(args.A, sep), format_word(args.B, sep), 1, args.n_max,
                 join=f"{{}}{sep}{{}}".format)
    rows = ((n, text, _markov_value_from(w, m))
            for n, (w, m), text in zip(count(1), pairs, texts))
    _write_lines(_spectrum_lines("scan", rows, args.digits, args.json))
    return 0


def _cmd_bqf(args) -> int:
    """The form's bounded minimum as one line, in JSON the text ``json.dumps``
    gives its record; every integer prints through ``spectrum._int_text``."""
    from .spectrum import _int_text, bqf_min

    result = bqf_min(args.form, args.radius)
    (a, b, c), (x, y) = map(_int_text, args.form), map(_int_text, result.point)
    radius, low = _int_text(args.radius), _int_text(result.min_abs)
    p, q, r, d = map(_int_text, result.normalized.as_tuple())
    decimal = result.normalized.to_decimal(args.digits)
    if args.json:
        print(f'{{"command": "bqf", "form": [{a}, {b}, {c}], "radius": {radius}, '
              f'"min_abs": {low}, "point": [{x}, {y}], '
              f'"normalized": {{"p": {p}, "q": {q}, "r": {r}, "D": {d}}}, "decimal": "{decimal}"}}')
    else:
        print(f"form={a},{b},{c} radius={radius} min_abs={low} point=({x},{y}) "
              f"normalized=({p},{q},{r},{d}) decimal={decimal}")
    return 0


_HANDLERS = {"seq": _cmd_seq, "stern": _cmd_stern, "verify": _cmd_verify,
             "spectrum": _cmd_spectrum, "scan": _cmd_scan, "bqf": _cmd_bqf}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
        return 0 if args is None else _HANDLERS[args.command](args)
    except ValueError as exc:
        message = str(exc)
    except (MemoryError, OverflowError):  # a table past RAM, or past sys.maxsize entries
        message = "the input is too large to hold in memory"
    print(f"error: {message}", file=sys.stderr)
    return 2


def entrypoint() -> None:
    """The console script and ``python -m``: run :func:`main` on ``sys.argv``
    and exit with its status. A reader that closes stdout early (``| head``)
    ends the launch with status 1 and nothing on stderr: what stdout still
    holds goes to ``os.devnull``, as the SIGPIPE note of the ``signal`` docs
    does. The collector is frozen before the exit, so the interpreter's
    shutdown collections skip every object the launch still holds;
    :func:`main` leaves it alone, because tests and in-process callers share it.
    """
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entrypoint()
