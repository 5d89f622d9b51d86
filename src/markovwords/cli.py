"""Command-line front end.

Subcommands: seq, stern, verify (prop-main | theorem | equivalence | lemmas),
spectrum, scan, bqf. Results go to stdout, diagnostics to stderr; ``--json``
switches to one JSON object per line. The exit status is 0 exactly when
every requested check passed, so verify sweeps can gate CI; a rejected
input exits 2 with one ``error:`` line on stderr, written only by :func:`main`.
Each handler imports the layers it reads, so a launch compiles only those:
only the handlers that walk or tabulate import :mod:`~markovwords.tree` and
:mod:`~markovwords.diatomic`, so ``bqf`` and ``spectrum`` load neither; only
``spectrum``, ``scan`` and ``bqf`` import :mod:`~markovwords.spectrum`, so
``verify``, ``seq`` and ``stern`` never compile it; and only the commands that
read or print a word import :mod:`~markovwords.words`, so ``bqf`` never
compiles it. Only ``seq``, ``stern`` and ``verify`` import :mod:`json`, in
their JSON branches; ``spectrum``, ``scan`` and ``bqf`` write their JSON rows
as text.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import partial
from itertools import count, islice
from typing import Iterator, Sequence


def _word_arg(text: str):
    from .words import parse_word

    try:
        return parse_word(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _form_arg(text: str):
    from .spectrum import BQForm

    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"form needs three coefficients, got {text!r}")
    # each coefficient is an optional sign, then ASCII digits
    digits = [p[1:] if p.startswith(("+", "-")) else p for p in parts]
    if not all(d.isascii() and d.isdigit() for d in digits):
        raise argparse.ArgumentTypeError(f"non-integer coefficient in {text!r}")
    return BQForm(*map(int, parts))


# each subcommand and its help line, in the order --help lists them
_COMMANDS = {
    "seq": "print the word with index n",
    "stern": "emit the diatomic sequence as index,value CSV",
    "verify": "run a verification sweep",
    "spectrum": "exact Perron value of a period",
    "scan": "tabulate spectrum values of S(1..n)",
    "bqf": "bounded lattice minimum of an indefinite form",
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of a command line whose subcommand is ``command``.

    Every subcommand is listed, so usage, ``--help`` and a wrong subcommand
    read as with a full parser; only ``command``'s own arguments are added,
    since the subcommand is the only one a command line reaches. Adding an
    argument costs argparse a help formatter, so a launch builds few.
    """
    parser = argparse.ArgumentParser(
        prog="markovwords",
        description="Ordered Markov words, palindromic shifts, exact spectrum values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=text) for name, text in _COMMANDS.items()}

    if command == "seq":
        p["seq"].add_argument("--A", type=_word_arg, default=(1, 1), metavar="WORD")
        p["seq"].add_argument("--B", type=_word_arg, default=(2, 2), metavar="WORD")
        p["seq"].add_argument("--n", type=int, required=True)
        p["seq"].add_argument("--blocks", action="store_true", help="print the block word instead")
    elif command == "stern":
        p["stern"].add_argument("--upto", type=int, required=True, metavar="N")
    elif command == "verify":
        vsub = p["verify"].add_subparsers(dest="check", required=True)

        p_prop = vsub.add_parser("prop-main", help="d(n)-shift palindromicity sweep")
        p_prop.add_argument("--n-max", type=int, default=4096)
        p_prop.add_argument("--a", type=int, default=1, help="letter of the first seed (a,a)")
        p_prop.add_argument("--b", type=int, default=2, help="letter of the second seed (b,b)")

        p_thm = vsub.add_parser("theorem", help="block-rearrangement sweep over random seeds")
        p_thm.add_argument("--trials", type=int, default=200)
        p_thm.add_argument("--seed", type=int, default=42)
        p_thm.add_argument("--n-max", type=int, default=512)

        p_eq = vsub.add_parser("equivalence", help="graph builder vs index recursion")
        p_eq.add_argument("--levels", type=int, default=10)
        p_eq.add_argument("--pairs", type=int, default=20)
        p_eq.add_argument("--seed", type=int, default=42)

        p_lem = vsub.add_parser("lemmas", help="supporting identity suite")
        p_lem.add_argument("--k-max", type=int, default=4096)

        for check in (p_prop, p_thm, p_eq, p_lem):
            check.add_argument("--json", action="store_true")
    elif command == "spectrum":
        p["spectrum"].add_argument("--period", type=_word_arg, required=True, metavar="WORD")
        p["spectrum"].add_argument("--digits", type=int, default=30)
    elif command == "scan":
        p["scan"].add_argument("--n-max", type=int, default=64)
        p["scan"].add_argument("--A", type=_word_arg, default=(1, 1), metavar="WORD")
        p["scan"].add_argument("--B", type=_word_arg, default=(2, 2), metavar="WORD")
        p["scan"].add_argument("--digits", type=int, default=30)
    elif command == "bqf":
        p["bqf"].add_argument("--form", type=_form_arg, required=True, metavar="A,B,C")
        p["bqf"].add_argument("--radius", type=int, default=50)
        p["bqf"].add_argument("--digits", type=int, default=30)
    if command in ("seq", "stern", "spectrum", "scan", "bqf"):
        p[command].add_argument("--json", action="store_true")
    return parser


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
    status = "PASS" if rep.passed else "FAIL"
    extra = f" witness={rep.witness}" if rep.witness is not None else ""
    counter = "" if rep.counterexample is None else f" counterexample={rep.counterexample}"
    return f"{status} {rep.claim} n={rep.n}{extra}{counter}"


# the longest word seq builds: S(n) has at most d(2n-1) * max(|A|, |B|)
# letters and its label word d(2n-1), read before either word is built
SEQ_MAX_LETTERS = 1 << 24


def _cmd_seq(args) -> int:
    from .diatomic import stern
    from .tree import relabel, walk
    from .words import format_pieces

    n = args.n
    labels = stern(2 * n - 1) if n else 1
    letters = labels if args.blocks and not args.json else labels * max(len(args.A), len(args.B))
    if letters > SEQ_MAX_LETTERS:
        raise ValueError(f"--n {n} gives a word of up to {letters} letters; "
                         f"seq builds at most {SEQ_MAX_LETTERS}")
    # S(n) is walked on bytes seeds and decoded through the letter table as it is written
    letters, a, b = relabel(args.A, args.B)
    if args.json:
        import json
        # json.dumps of the whole record, written in pieces
        head = json.dumps({"command": "seq", "n": n, "A": list(args.A), "B": list(args.B)})
        sys.stdout.write(head[:-1] + ', "sequence": [')
        sys.stdout.writelines(
            format_pieces(map(letters.__getitem__, next(walk(a, b, n, n))), ", "))
        print('], "blocks": ' + json.dumps(next(walk(b"A", b"B", n, n)).decode()) + "}")
    elif args.blocks:
        print(next(walk(b"A", b"B", n, n)).decode())
    else:
        sys.stdout.writelines(format_pieces(map(letters.__getitem__, next(walk(a, b, n, n)))))
        print()
    return 0


def _cmd_stern(args) -> int:
    from .diatomic import stern_table

    table = enumerate(stern_table(args.upto))
    if args.json:
        import json
        _write_lines(json.dumps({"command": "stern", "n": n, "value": value}) for n, value in table)
    else:
        _write_lines(f"{n},{value}" for n, value in table)
    return 0


def _shift_lines(shifts, verdicts: Iterator[bool], report, as_json: bool,
                 failures: list[int]) -> Iterator[str]:
    """prop-main's line of each index n = 1, ..., len(shifts), from its verdict.
    A passing index is one f-string, the line :func:`_report_line` writes
    for its report, in JSON as ``json.dumps`` gives it; only a failing index
    builds its report, ``report(n, d(n), False)``."""
    rows = zip(count(1), shifts, verdicts)
    if as_json:
        return (f'{{"command": "verify", "check": "prop-main", "claim": "shift-palindromic", '
                f'"n": {n}, "passed": true, "witness": {d}}}' if ok else
                _report_line(report(n, d, ok), "prop-main", True, failures) for n, d, ok in rows)
    return (f"PASS shift-palindromic n={n} witness={d}" if ok else
            _report_line(report(n, d, ok), "prop-main", False, failures) for n, d, ok in rows)


def _cmd_verify(args) -> int:
    from . import theorems  # only verify reads the claims
    from .diatomic import stern_table

    failures: list[int] = []
    if args.check == "prop-main":
        shifts = stern_table(args.n_max)[1:]
        lines = _shift_lines(shifts, theorems._shift_verdicts(args.a, args.b, 1, shifts),
                             partial(theorems._shift_report, args.a, args.b), args.json, failures)
    else:
        if args.check == "theorem":
            reports = theorems.iter_block_rearrangement(args.n_max, args.trials, args.seed)
        elif args.check == "equivalence":
            reports = theorems.iter_equivalence(args.levels, args.pairs, args.seed)
        else:
            reports = theorems.iter_lemma_checks(args.k_max)
        lines = (_report_line(rep, args.check, args.json, failures) for rep in reports)
    written = _write_lines(lines)
    print(f"{args.check}: {written - len(failures)}/{written} passed", file=sys.stderr)
    return 1 if failures else 0


def _spectrum_lines(command: str, rows, digits: int, as_json: bool) -> Iterator[str]:
    """The line of each row (n, period text, MarkovValue) of ``spectrum`` or
    ``scan``; in text, only scan prints n and only spectrum the argmin. The
    period's text is :func:`~markovwords.words.format_word`'s, with the
    separator ``", "`` in JSON.

    A JSON line is the text ``json.dumps`` gives the row's record, written
    directly. Every integer of the row is printed through
    ``spectrum._int_text``, so a value of any size prints.
    """
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
    """The form's bounded minimum as one line; in JSON, the text ``json.dumps``
    gives its record, written directly, with every integer printed through
    ``spectrum._int_text``."""
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


_HANDLERS = {
    "seq": _cmd_seq,
    "stern": _cmd_stern,
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "scan": _cmd_scan,
    "bqf": _cmd_bqf,
}


# smallest accepted value of each integer flag checked before dispatch; below
# k_max = 8 the lemma suite has too few levels to check every identity
_MINIMA = {"n": 0, "upto": 0, "digits": 0, "n_max": 1, "k_max": 8,
           "levels": 0, "pairs": 0, "trials": 1, "a": 1, "b": 1}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the subcommand is the first word that names one: the top-level
    # options take no value, so every word before it is an option
    args = build_parser(next((a for a in argv if a in _COMMANDS), None)).parse_args(argv)
    try:
        for name, low in _MINIMA.items():
            value = getattr(args, name, None)
            if value is not None and value < low:
                raise ValueError(f"--{name.replace('_', '-')} must be >= {low}")
        if getattr(args, "check", None) == "prop-main" and args.a == args.b:
            raise ValueError("--a and --b must differ")
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        message = str(exc)
    except (MemoryError, OverflowError):  # a table past RAM, or past sys.maxsize entries
        message = "the input is too large to hold in memory"
    print(f"error: {message}", file=sys.stderr)
    return 2


def entrypoint() -> None:
    """The console script and ``python -m``: run :func:`main` on ``sys.argv``
    and exit with its status.

    A reader that closes stdout early (``| head``) ends the launch with status
    1 and nothing on stderr: what stdout still holds goes to ``os.devnull``,
    as the SIGPIPE note of the ``signal`` docs does. The collector is frozen
    before the exit, so the interpreter's shutdown collections skip every
    object the launch still holds. :func:`main` leaves the collector alone,
    because tests and in-process callers share it.
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
