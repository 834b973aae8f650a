"""Records: immutable, slotted, equal by class and fields, with the dataclass repr."""

from fractions import Fraction as F
from inspect import signature

import pytest

from umbra.catalog import FamilySpec, IdentityResult, Report
from umbra.expr import BinOp, Call, Neg, Node, Num, Pow, Token, Var
from umbra.fps import Poly, Series
from umbra.operators import DeltaOp, ShiftOp
from umbra.umbral import Triangle


def _delta(t):
    return DeltaOp(Series(2, (F(0), F(1), F(0))))


def _form(n):
    return [[0] * m + [1] for m in range(n + 1)], [1] * (n + 1)


# one builder per record class; each call builds a new record with the same fields
BUILDERS = {
    Series: lambda: Series(2, (F(0), F(1), F(1, 2))),
    Poly: lambda: Poly((F(1), F(2))),
    ShiftOp: lambda: ShiftOp(Series(1, (F(1), F(1)))),
    DeltaOp: lambda: DeltaOp(Series(1, (F(0), F(1)))),
    Triangle: lambda: Triangle(((F(1),), (F(0), F(1)))),
    Node: lambda: Node(0),
    Num: lambda: Num(0, F(3)),
    Var: lambda: Var(0, "x"),
    Neg: lambda: Neg(0, Var(1, "x")),
    BinOp: lambda: BinOp(0, "+", Var(0, "x"), Num(2, F(1))),
    Pow: lambda: Pow(1, Var(0, "x"), F(2)),
    Call: lambda: Call(0, "exp", Var(4, "x")),
    Token: lambda: Token("int", "12", 0),
    FamilySpec: lambda: FamilySpec("derivative", {}, _delta, _form),
    IdentityResult: lambda: IdentityResult("touchard", "spivey", {"n": 3}),
    Report: lambda: Report(),
}


@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda cls: cls.__name__)
def test_record_fields_can_be_neither_assigned_nor_deleted(cls):
    record = BUILDERS[cls]()
    assert not hasattr(record, "__dict__")
    for name in signature(cls).parameters:  # each record's constructor takes its fields
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda cls: cls.__name__)
def test_records_with_equal_fields_are_equal_and_hash_alike(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert a is not b and a == b and not a != b
    try:
        assert hash(a) == hash(b)
    except TypeError:  # a dict or list field: then neither record hashes
        with pytest.raises(TypeError):
            hash(b)
    assert a != "not a record"


def test_records_of_different_classes_are_unequal():
    f = Series(1, (F(0), F(1)))
    assert ShiftOp(f) != DeltaOp(f) and DeltaOp(f) != ShiftOp(f)
    assert Num(0, "x") != Var(0, "x") and Var(0, "x") != Num(0, "x")
    assert Num(0, F(1)) != Num(0, F(2)) and Num(0, F(1)) != Num(1, F(1))
    with pytest.raises(TypeError):
        DeltaOp(f, F(1))


def test_record_defaults():
    result = IdentityResult("abel", "abel_identity", {})
    assert result.counterexample is None and result.passed and result.status == "pass"
    one, two = Report(), Report()
    assert one.results == [] and one.results is not two.results
    one.record("abel", "abel_identity", {}, {"n": 2})
    assert two.results == [] and not one.all_passed and two.all_passed


def test_record_repr_has_the_dataclass_form():
    assert repr(Series(1, (F(1), F(1, 2)))) == "Series(trunc=1, coeffs=(Fraction(1, 1), Fraction(1, 2)))"
    assert repr(Num(3, F(2))) == "Num(pos=3, value=Fraction(2, 1))"
    assert repr(BinOp(1, "*", Var(0, "x"), Var(2, "y"))) == (
        "BinOp(pos=1, op='*', left=Var(pos=0, name='x'), right=Var(pos=2, name='y'))"
    )
    assert repr(Token("end", "", 4)) == "Token(kind='end', text='', pos=4)"
    assert repr(Report()) == "Report(results=[])"
