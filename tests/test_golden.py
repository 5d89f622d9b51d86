"""Pinned stdout of small CLI commands.

Each case runs ``main`` in-process and compares the sha256 of everything it
printed on stdout, and its exit status, with the values recorded before the
index recursion and the sweeps were unified. A refactor that changes any
byte of the output fails here; a deliberate output change must update the
digest and say why.

To print the current digests: ``python tests/test_golden.py`` with src on
PYTHONPATH.
"""
import hashlib

import pytest

from markovwords import tree
from markovwords.cli import main

GOLDEN = [
    (("seq", "--n", "14"), 0,
     "f4e7ae853cee4456a23d4fff17750e5fb0adad8d12f2ab562ef1eec6c1159651"),
    (("seq", "--n", "21", "--blocks"), 0,
     "9f2c34549a4176eac064fa84df19b2a6286dc929b8bd93802637bbfa7349100a"),
    (("seq", "--A", "1,2,1", "--B", "3", "--n", "9", "--json"), 0,
     "7406e198e35880d4f4d7712aafb5d72bba09d8868faca749783defe9941c5613"),
    (("stern", "--upto", "40"), 0,
     "48bf12248e94a46b8c2c01c267dc8eb40a64d71457ce073263d1d313422088ee"),
    (("verify", "prop-main", "--n-max", "64"), 0,
     "923542d2dfd2b7929eac3ebd847d2e8add0fddeaefe0acf0fbf86c822c0099c7"),
    (("verify", "prop-main", "--n-max", "40", "--a", "3", "--b", "5", "--json"), 0,
     "eea0e729d6e3eb31634c9dd540f33aef21170613593b7a2b030c09d638090c57"),
    (("verify", "theorem", "--trials", "6", "--n-max", "24"), 1,
     "7a8fffc0deb6226cc351fc9822b97dd1f2c217480251347a3c0749c531c0ff19"),
    (("verify", "theorem", "--trials", "5", "--seed", "7", "--n-max", "16", "--json"), 1,
     "dded13ab4b1d98af1fae0c2e67474b3bb0d64ca05fcba238e6cfddabddc9b28b"),
    (("verify", "equivalence", "--levels", "5", "--pairs", "3"), 0,
     "8e55980a8ded2cd4132d14dd411579316a21ad393948a5fe194da440c5eda67a"),
    (("verify", "equivalence", "--levels", "4", "--pairs", "2", "--json"), 0,
     "3a0233ffbe07fb46911775a6c2e7c543fc3fb654c0ac2137c93f01c8310a4c52"),
    (("verify", "lemmas", "--k-max", "256"), 0,
     "283c6c0365145e8b86aa79c83c4c31f94816fd3daeb11d10c3d9140adab46352"),
    (("verify", "lemmas", "--k-max", "64", "--json"), 0,
     "a783febe8d09ad5e37f2a45701b90d7dbc56b4517cf1f3c254cceabb01a3b6f6"),
    (("scan", "--n-max", "12", "--digits", "20"), 0,
     "6b7ada5ff4d921deb66c203ec3a8aab1ae9469f7db46f5b62a2358f2a415fe44"),
    (("scan", "--n-max", "10", "--A", "1,2,1", "--B", "3", "--json"), 0,
     "ec0ea754de1cef0cfc35252ba2e10691f9eaf24ae5b8a80bb95ab6c8718a574d"),
    (("spectrum", "--period", "2,2,1,1,2,2,2,2,1,1", "--digits", "25"), 0,
     "24f0cb3f3750dcb17f648199c6a3d69306dbb73bb507b84456753c2dfd417e64"),
    (("spectrum", "--period", "1,2,1,3", "--json"), 0,
     "d8f30f8d5f5d7b5409437e99253eb84bc21a43501fe5b6b9df017cac282567f6"),
    (("bqf", "--form", "5,11,-5", "--radius", "40"), 0,
     "2884f225b3a1dab6d2b9b28dca2d8e5ec75d0717199415565a54ee54d59df6ab"),
    (("bqf", "--form", "1,1,-1", "--radius", "30", "--digits", "12", "--json"), 0,
     "0d5c8ae39ba740f9a929a6a4bf649b8e7e15d5bb8dfd834dc398fecbd2dbd442"),
]


def _digest(capsys, argv) -> tuple[int, str]:
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv, status, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_stdout(capsys, argv, status, digest):
    assert _digest(capsys, argv) == (status, digest)


def test_scan_builds_no_word_by_the_index_recursion(capsys, monkeypatch):
    # scan reads its words from one walk, never from the index recursion
    def s_rec_cached(*args):
        raise AssertionError("scan called s_rec")
    monkeypatch.setattr(tree, "_s_rec_cached", s_rec_cached)
    argv = ("scan", "--n-max", "12", "--digits", "20")
    (status, digest), = [g[1:] for g in GOLDEN if g[0] == argv]
    assert _digest(capsys, argv) == (status, digest)


if __name__ == "__main__":
    import contextlib
    import io

    for argv, _, _ in GOLDEN:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            status = main(list(argv))
        print(argv, status, hashlib.sha256(buf.getvalue().encode()).hexdigest())
