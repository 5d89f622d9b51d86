"""Command-line front end.

Subcommands: seq, stern, verify (prop-main | theorem | equivalence | lemmas),
spectrum, scan, bqf. Results go to stdout, diagnostics to stderr; ``--json``
switches to one JSON object per line. The exit status is 0 exactly when
every requested check passed, so verify sweeps can gate CI.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Sequence

from . import theorems
from .diatomic import stern_table
from .spectrum import BQForm, bqf_min, markov_value
from .theorems import VerificationReport
from .tree import block_labels, s_rec
from .words import format_word, parse_word


def _word_arg(text: str):
    try:
        return parse_word(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _form_arg(text: str) -> BQForm:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"form needs three coefficients, got {text!r}")
    try:
        a, b, c = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer coefficient in {text!r}")
    return BQForm(a, b, c)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovwords",
        description="Ordered Markov words, palindromic shifts, exact spectrum values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="print the word with index n")
    p_seq.add_argument("--A", type=_word_arg, default=(1, 1), metavar="WORD")
    p_seq.add_argument("--B", type=_word_arg, default=(2, 2), metavar="WORD")
    p_seq.add_argument("--n", type=int, required=True)
    p_seq.add_argument("--blocks", action="store_true", help="print the block word instead")
    p_seq.add_argument("--json", action="store_true")

    p_stern = sub.add_parser("stern", help="emit the diatomic sequence as index,value CSV")
    p_stern.add_argument("--upto", type=int, required=True, metavar="N")
    p_stern.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    vsub = p_verify.add_subparsers(dest="check", required=True)

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

    for p in (p_prop, p_thm, p_eq, p_lem):
        p.add_argument("--json", action="store_true")
        p.add_argument("--workers", type=int, default=1)

    p_spec = sub.add_parser("spectrum", help="exact Perron value of a period")
    p_spec.add_argument("--period", type=_word_arg, required=True, metavar="WORD")
    p_spec.add_argument("--digits", type=int, default=30)
    p_spec.add_argument("--json", action="store_true")

    p_scan = sub.add_parser("scan", help="tabulate spectrum values of S(1..n)")
    p_scan.add_argument("--n-max", type=int, default=64)
    p_scan.add_argument("--A", type=_word_arg, default=(1, 1), metavar="WORD")
    p_scan.add_argument("--B", type=_word_arg, default=(2, 2), metavar="WORD")
    p_scan.add_argument("--digits", type=int, default=30)
    p_scan.add_argument("--json", action="store_true")
    p_scan.add_argument("--workers", type=int, default=1)

    p_bqf = sub.add_parser("bqf", help="bounded lattice minimum of an indefinite form")
    p_bqf.add_argument("--form", type=_form_arg, required=True, metavar="A,B,C")
    p_bqf.add_argument("--radius", type=int, default=50)
    p_bqf.add_argument("--digits", type=int, default=30)
    p_bqf.add_argument("--json", action="store_true")

    return parser


def _emit(line: str) -> None:
    print(line)


def _surd_json(surd) -> dict:
    p, q, r, d = surd.as_tuple()
    return {"p": p, "q": q, "r": r, "D": d}


def _surd_text(fields: dict) -> str:
    return "({p},{q},{r},{D})".format(**fields)


def _report_lines(reports: Iterable[VerificationReport], check: str, as_json: bool):
    """Yield (passed, line) pairs for a stream of reports."""
    for rep in reports:
        if as_json:
            payload = {"command": "verify", "check": check}
            payload.update(rep.to_json())
            yield rep.passed, json.dumps(payload)
        else:
            status = "PASS" if rep.passed else "FAIL"
            extra = f" witness={rep.witness}" if rep.witness is not None else ""
            counter = (
                f" counterexample={rep.counterexample}"
                if rep.counterexample is not None
                else ""
            )
            yield rep.passed, f"{status} {rep.claim} n={rep.n}{extra}{counter}"


def _spectrum_payload(period, digits: int) -> dict:
    mv = markov_value(period)
    return {
        "period": list(period),
        "surd": _surd_json(mv.value),
        "decimal": mv.value.to_decimal(digits),
        "argmin": mv.argmin,
        "is_markov": mv.value.compare(3) < 0,
    }


def _scan_row(a, b, n: int, digits: int) -> dict:
    return {"n": n, **_spectrum_payload(s_rec(a, b, n), digits)}


def _cmd_seq(args) -> int:
    seq = s_rec(args.A, args.B, args.n)
    labels = "".join(block_labels(args.n))
    if args.json:
        _emit(json.dumps({
            "command": "seq",
            "n": args.n,
            "A": list(args.A),
            "B": list(args.B),
            "sequence": list(seq),
            "blocks": labels,
        }))
    elif args.blocks:
        _emit(labels)
    else:
        _emit(format_word(seq))
    return 0


def _cmd_stern(args) -> int:
    for n, value in enumerate(stern_table(args.upto)):
        if args.json:
            _emit(json.dumps({"command": "stern", "n": n, "value": value}))
        else:
            _emit(f"{n},{value}")
    return 0


def _cmd_verify(args) -> int:
    if args.check == "prop-main":
        reports = theorems.iter_shift_palindromic(args.n_max, args.a, args.b, args.workers)
    elif args.check == "theorem":
        reports = theorems.iter_block_rearrangement(
            args.n_max, args.trials, args.seed, workers=args.workers)
    elif args.check == "equivalence":
        reports = theorems.iter_equivalence(args.levels, args.pairs, args.seed, args.workers)
    else:
        reports = theorems.iter_lemma_checks(args.k_max, args.workers)

    failed = 0
    total = 0
    for passed, line in _report_lines(reports, args.check, args.json):
        _emit(line)
        total += 1
        failed += not passed
    print(f"{args.check}: {total - failed}/{total} passed", file=sys.stderr)
    return 0 if failed == 0 else 1


def _cmd_spectrum(args) -> int:
    payload = _spectrum_payload(args.period, args.digits)
    if args.json:
        _emit(json.dumps({"command": "spectrum", **payload}))
    else:
        _emit(
            f"period={format_word(payload['period'])} surd={_surd_text(payload['surd'])} "
            f"decimal={payload['decimal']} argmin={payload['argmin']} "
            f"markov={str(payload['is_markov']).lower()}"
        )
    return 0


def _cmd_scan(args) -> int:
    cases = [(args.A, args.B, n, args.digits) for n in range(1, args.n_max + 1)]
    for row in theorems.sweep(_scan_row, cases, args.workers):
        if args.json:
            _emit(json.dumps({"command": "scan", **row}))
        else:
            _emit(
                f"n={row['n']} period={format_word(row['period'])} "
                f"surd={_surd_text(row['surd'])} decimal={row['decimal']} "
                f"markov={str(row['is_markov']).lower()}"
            )
    return 0


def _cmd_bqf(args) -> int:
    try:
        result = bqf_min(args.form, args.radius)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    normalized = _surd_json(result.normalized)
    decimal = result.normalized.to_decimal(args.digits)
    if args.json:
        _emit(json.dumps({
            "command": "bqf",
            "form": [args.form.a, args.form.b, args.form.c],
            "radius": args.radius,
            "min_abs": result.min_abs,
            "point": list(result.point),
            "normalized": normalized,
            "decimal": decimal,
        }))
    else:
        _emit(
            f"form={args.form.a},{args.form.b},{args.form.c} radius={args.radius} "
            f"min_abs={result.min_abs} point=({result.point[0]},{result.point[1]}) "
            f"normalized={_surd_text(normalized)} decimal={decimal}"
        )
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
_MINIMA = {"n": 0, "upto": 0, "digits": 0, "workers": 1, "n_max": 1, "k_max": 8,
           "levels": 0, "pairs": 0, "trials": 1, "a": 1, "b": 1}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, low in _MINIMA.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            print(f"error: --{name.replace('_', '-')} must be >= {low}", file=sys.stderr)
            return 2
    if getattr(args, "check", None) == "prop-main" and args.a == args.b:
        print("error: --a and --b must differ", file=sys.stderr)
        return 2
    return _HANDLERS[args.command](args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
