"""The contracts of the three value types a caller holds: a surd, a form and a report.

They are immutable and print as constructor calls. The library's surd holds
what the commands print; the surd oracle of the tests adds its field
arithmetic, hash and pickling on the same fields.
"""
import pickle

import pytest

from oracles import Surd

from markovwords.spectrum import BQForm, QuadraticSurd
from markovwords.theorems import VerificationReport

SURD = QuadraticSurd(-2, 4, -6, 5)  # normalises to (1 - 2*sqrt(5))/3
FORM = BQForm(1, 1, -1)
REPORT = VerificationReport("demo", 3, False, 2, "1,2")


@pytest.mark.parametrize("value, field", [
    (SURD, "p"), (SURD, "d"), (FORM, "b"), (REPORT, "passed"), (REPORT, "witness"),
])
def test_fields_cannot_be_assigned_or_deleted(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 7)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before


@pytest.mark.parametrize("value, text", [
    (QuadraticSurd(0, 1, 2, 32), "QuadraticSurd(p=0, q=1, r=2, d=32)"),
    (SURD, "QuadraticSurd(p=1, q=-2, r=3, d=5)"),
    (FORM, "BQForm(a=1, b=1, c=-1)"),
    (REPORT, "VerificationReport(claim='demo', n=3, passed=False, witness=2, "
             "counterexample='1,2')"),
    (VerificationReport("x", 1, True),
     "VerificationReport(claim='x', n=1, passed=True, witness=None, counterexample=None)"),
])
def test_repr(value, text):
    assert repr(value) == text


def test_surd_pickles_hashes_and_multiplies_as_a_number():
    surd = Surd.of(SURD)
    back = pickle.loads(pickle.dumps(surd))
    assert type(back) is Surd and back.as_tuple() == SURD.as_tuple()
    assert hash(Surd(3, 0, 1, 0)) == hash(3)
    assert hash(back) == hash(surd)
    tripled = 3 * surd
    assert type(tripled) is Surd
    assert tripled.as_tuple() == (1, -2, 1, 5)
    assert surd * 3 == tripled
    # the library's surd compares equal to its lift, but neither hashes nor adds
    assert SURD == surd and surd == SURD
    with pytest.raises(TypeError):
        hash(SURD)
    with pytest.raises(TypeError):
        SURD + 1
