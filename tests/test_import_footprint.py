"""What each command imports: every launch compiles the modules it loads,
so a command must load only the layers it runs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import markovwords

SRC = str(Path(markovwords.__file__).parents[1])

# runs the CLI on its arguments, then writes on stderr, as its last line, the
# modules that importing and running it added to sys.modules
DRIVER = """
import sys
before = set(sys.modules)
from markovwords.cli import main
status = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write("\\n" + " ".join(sorted(set(sys.modules) - before)) + "\\n")
sys.exit(status)
"""


def added_modules(*code_and_args: str) -> set[str]:
    """Run python -c in a fresh interpreter; return the names on its last stderr line."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", *code_and_args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_import_markovwords_loads_no_layer():
    added = added_modules("import sys; before = set(sys.modules); import markovwords; "
                          "sys.stderr.write(' '.join(set(sys.modules) - before))")
    assert {m for m in added if m.startswith("markovwords")} == {"markovwords"}
    assert "dataclasses" not in added


# the index layer: tree walks the words, diatomic tabulates d(n); tree
# imports diatomic, so a command that walks loads both
WALKS = {"markovwords.tree", "markovwords.diatomic"}
TABULATES = {"markovwords.diatomic"}
# argparse and the modules it loads to translate its messages
ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    "argv, index_layer, loads_theorems, loads_spectrum, loads_words, loads_json", [
    (["bqf", "--form", "5,11,-5", "--radius", "20"], set(), False, True, False, False),
    (["bqf", "--form", "5,11,-5", "--radius", "20", "--json"], set(), False, True, False, False),
    (["spectrum", "--period", "1,1,2,2"], set(), False, True, True, False),
    (["spectrum", "--period", "1,1,2,2", "--json"], set(), False, True, True, False),
    (["scan", "--n-max", "8", "--json"], WALKS, False, True, True, False),
    (["seq", "--n", "14", "--blocks"], WALKS, False, False, True, False),
    (["seq", "--n", "14", "--json"], WALKS, False, False, True, True),
    (["stern", "--upto", "20"], TABULATES, False, False, False, False),
    (["verify", "lemmas", "--k-max", "8"], WALKS, True, False, True, False),
    (["verify", "prop-main", "--n-max", "40"], WALKS, True, False, True, False),
    (["verify", "prop-main", "--help"], set(), False, False, False, False),
], ids=["bqf", "bqf-json", "spectrum", "spectrum-json", "scan", "seq", "seq-json", "stern",
        "verify-lemmas", "verify-prop-main", "help"])
def test_each_command_loads_only_what_it_runs(argv, index_layer, loads_theorems, loads_spectrum,
                                               loads_words, loads_json):
    added = added_modules(DRIVER, *argv)
    assert "markovwords.cli" in added
    # bqf and spectrum neither walk the tree nor read d(n)
    assert added & WALKS == index_layer
    assert ("markovwords.theorems" in added) == loads_theorems
    # only the commands that print spectrum values or form minima compile spectrum
    assert ("markovwords.spectrum" in added) == loads_spectrum
    # bqf and stern read and print no word
    assert ("markovwords.words" in added) == loads_words
    # spectrum, scan and bqf write their JSON rows as text; no command reads a Fraction
    assert ("json" in added) == loads_json
    assert not added & {"dataclasses", "fractions", "decimal"}
    # the flags are read from cli's own table, not by argparse and its translations
    assert not added & ARGPARSE


def test_import_markovwords_cli_loads_no_argparse():
    added = added_modules("import sys; before = set(sys.modules); import markovwords.cli; "
                          "sys.stderr.write(' '.join(set(sys.modules) - before))")
    assert "markovwords.cli" in added
    assert not added & ARGPARSE
