"""The twelve value classes share one immutable-value base: equality and hash
on the fields (or, for Surd and Slope, on the number they denote), the field
repr in slot order, no assignment or deletion, pickling and copying through
the constructor, one setter that takes exactly the slots in slot order, and
nothing of it costs the CLI an import of dataclasses or inspect."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tiltwall
from tiltwall import (ChargeValue, CheckReport, CollectionSpec, CurveCE,
                      DomainError, InputError, NumClass, ParamPoint, Region,
                      Slope, Surd, Wall, class_of_line_bundle)
from tiltwall._record import Record
from tiltwall.heartgate import Condition
from tiltwall.numclass import rational
from tiltwall.tiltcalc import ReduceResult

Q = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


def _lines():
    return CollectionSpec.builtin_by_name("lines")


# each class with two argument tuples that give different values
CASES = {
    NumClass: ((1, Q(-1, 2), Q(3, 4), 0), (1, Q(-1, 2), Q(3, 4), 1)),
    ParamPoint: ((Q(-1, 4), Q(1, 8)), (0, 1)),
    ChargeValue: ((1, 2), (1, 3)),
    CurveCE: (("vertical", None, None, None, Q(1, 2)), ("empty",)),
    ReduceResult: ((ParamPoint(0, 1),), (ParamPoint(0, 1), ("dual",))),
    CollectionSpec: ((_lines().names, _lines().classes),
                     (_lines().names, _lines().classes, "lines")),
    Condition: (("x", True, Q(1, 3)), ("x", True, Q(1, 3), False)),
    CheckReport: (((Condition("x", True, Q(1)),),), ((), ("a note",))),
    Wall: ((1, -2, 3), (0, 1, 3)),
    Region: ((-2, 0, 2), (Q(-1, 3), Q(1, 2), Q(5, 7))),
    Surd: ((Q(-1, 2), Q(1, 3), 13), (Q(-1, 2), Q(1, 3), 5)),
    Slope: ((Q(1, 2),), (None,)),
}

ROUND_TRIPS = (copy.copy, copy.deepcopy,
               lambda value: pickle.loads(pickle.dumps(value)))

# each class with a derived slot: its name and its value for CASES[cls][0]
DERIVED = {
    ParamPoint: ("_omega_sq", Q(3, 16)),
    Region: ("_ends", ((-2, 1), (0, 1), (2, 1))),
    CollectionSpec: ("_mu", (-3, -2, -1, 0)),
}


class Single(Record):
    """A record of one slot, with the base's equality and hash (Slope, the
    library's one record of one slot, has its own)."""

    __slots__ = ("x",)

    def __init__(self, x):
        self._set(x)


class Octet(Record):
    """A record of eight slots, more than any library class has: seven
    fields and their sum, a derived slot."""

    __slots__ = ("a", "b", "c", "d", "e", "f", "g", "_sum")

    def __init__(self, a, b, c, d, e, f, g):
        self._set(a, b, c, d, e, f, g, a + b + c + d + e + f + g)


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_values_and_hashes(cls):
    first, second = CASES[cls]
    a, b, c = cls(*first), cls(*first), cls(*second)
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    for round_trip in ROUND_TRIPS:
        copied = round_trip(a)
        assert copied == a and copied.__class__ is cls
        assert repr(copied) == repr(a) and hash(copied) == hash(a)


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    value = cls(*CASES[cls][0])
    for name in cls.__match_args__:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_set_takes_exactly_one_value_per_slot_in_slot_order(cls):
    n = len(cls.__slots__)
    for count in (n - 1, n + 1):
        with pytest.raises(TypeError):
            object.__new__(cls)._set(*range(count))
    value = object.__new__(cls)
    value._set(*range(n))
    assert [getattr(value, name) for name in cls.__slots__] == list(range(n))
    assert vars(cls)["_set"].__qualname__ == f"{cls.__qualname__}._set"
    if cls in DERIVED:
        name, derived = DERIVED[cls]
        assert getattr(cls(*CASES[cls][0]), name) == derived


@pytest.mark.parametrize("cls, first, second", [
    (Single, (1,), (2,)),
    (Octet, tuple(range(7)), tuple(range(1, 8)))], ids=["1-slot", "8-slots"])
def test_records_of_other_slot_counts(cls, first, second):
    a, b, c = cls(*first), cls(*first), cls(*second)
    assert a == b and hash(a) == hash(b) and a != c
    assert hash(a) == hash(first) and a.__match_args__ == tuple(
        name for name in cls.__slots__ if name != "_sum")
    for round_trip in ROUND_TRIPS:
        copied = round_trip(a)
        assert copied == a and copied.__class__ is cls
        assert [getattr(copied, s) for s in cls.__slots__] == [
            getattr(a, s) for s in cls.__slots__]
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    if "_sum" in cls.__slots__:
        assert a._sum == sum(first) and c._sum == sum(second)
    with pytest.raises(TypeError):
        cls(*first, 0)


def test_surd_residual_report_pickles_and_copies():
    residual = Surd.sqrt(Q(13, 4)) - 1
    report = CheckReport((Condition("beta < mu1(E)", True, residual),),
                         ("a note",))
    for round_trip in ROUND_TRIPS:
        copied = round_trip(report)
        assert copied == report
        assert copied.conditions[0].residual == residual
        assert repr(copied.conditions[0].residual) == "-1 + 1/2*sqrt(13)"


def test_every_exported_value_class_is_a_record():
    classes = [value for value in vars(tiltwall).values()
               if isinstance(value, type) and "__slots__" in vars(value)]
    assert set(classes) == set(CASES) - {Condition, ReduceResult}
    assert all(issubclass(c, Record) for c in CASES)
    assert "__setattr__" not in vars(Surd) and "__setattr__" not in vars(Slope)


def test_slope_infinity_cannot_be_changed():
    with pytest.raises(AttributeError):
        Slope.INFINITY.value = 0
    assert Slope.INFINITY.is_infinite


def test_equality_is_per_class():
    assert ChargeValue(1, 2) != ParamPoint(1, 2)
    assert ParamPoint(1, 2) != ChargeValue(1, 2)
    assert Region(0, 1, 2) != Wall(0, 1, 2) and Wall(0, 1, 2) != Region(0, 1, 2)
    assert NumClass(1, 0, 0, 0) != (1, 0, 0, 0)
    assert CurveCE("empty") != "empty"


def test_defaults():
    assert CollectionSpec(_lines().names, _lines().classes).builtin == "custom"
    assert Condition("x", True, Q(0)).strict is True
    assert CheckReport(()).notes == () and ReduceResult(ParamPoint(0, 1)).log == ()


def test_constructors_validate():
    names, (F0, F1, F2, E) = _lines().names, _lines().classes
    for classes, message in (
            ((F0, F1, F2, NumClass(0, 1, 0, 0)), "nonzero rank"),
            ((F1, F0, F2, E), "strictly increase"),
            ((F0, F1, F2, NumClass(1, 0, Q(1, 3), 0)), "not integral"),
            ((F0, F1, F2, NumClass(2, 0, 0, 0)), "not Euler-exceptional"),
            # O(5) in the slot named O: chi(O(5), O(-3)) = chi(O(-8)) = -35
            ((F0, F1, F2, class_of_line_bundle(5)),
             r"^chi\(O, O\(-3\)\) = -35, not 0: the collection is not "
             "semiorthogonal$")):
        with pytest.raises(DomainError, match=message):
            CollectionSpec(names, classes)
    with pytest.raises(DomainError, match="degenerate wall"):
        Wall(0, 0, 0)
    with pytest.raises(InputError, match="empty beta range"):
        Region(1, 0, 2)
    with pytest.raises(DomainError, match="not in U"):
        ParamPoint(0, 0)


def test_pinned_reprs():
    assert repr(NumClass(1, Q(-1, 2), 0, 2)) == (
        "NumClass(v0=Fraction(1, 1), v1=Fraction(-1, 2), v2=Fraction(0, 1), "
        "v3=Fraction(2, 1))")
    assert repr(CurveCE("parabola", lin=Q(1), const=Q(-1, 2))) == (
        "CurveCE(kind='parabola', lin=Fraction(1, 1), "
        "const=Fraction(-1, 2), direction=None, beta0=None)")
    assert repr(CurveCE("empty")) == (
        "CurveCE(kind='empty', lin=None, const=None, direction=None, beta0=None)")
    assert repr(ReduceResult(ParamPoint(Q(-1, 3), Q(1, 3)), ("shift:-2", "dual"))) == (
        "ReduceResult(point=ParamPoint(beta=Fraction(-1, 3), alpha=Fraction(1, 3)), "
        "log=('shift:-2', 'dual'))")


def test_param_point_keeps_omega_sq():
    # omega^2 is derived once, by the U check, and read back as that object;
    # the fields alone make the repr, equality, hash and the round trips,
    # which derive it again, as they do a Region's integer ends
    p = ParamPoint(Q(-1, 4), Q(1, 8))
    assert p.omega_sq is p.omega_sq and p.omega_sq == Q(3, 16)
    assert p.__match_args__ == ("beta", "alpha")
    assert repr(p) == "ParamPoint(beta=Fraction(-1, 4), alpha=Fraction(1, 8))"
    assert hash(p) == hash((p.beta, p.alpha))
    region = Region(Q(-1, 3), Q(1, 2), Q(5, 7))
    for round_trip in ROUND_TRIPS:
        copied = round_trip(p)
        assert copied == p and copied.omega_sq == Q(3, 16)
        assert round_trip(region)._ends == ((-1, 3), (1, 2), (5, 7))
    with pytest.raises(AttributeError):
        p._omega_sq = Q(1)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, tiltwall.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# each record field that takes one rational handed in, read back
RATIONAL_FIELDS = {
    "ParamPoint.beta": lambda x: ParamPoint(x, 2).beta,
    "ParamPoint.alpha": lambda x: ParamPoint(0, x).alpha,
    "ChargeValue.re": lambda x: ChargeValue(x, 0).re,
    "ChargeValue.im": lambda x: ChargeValue(0, x).im,
    "Slope.value": lambda x: Slope(x).value,
    "Surd.a": lambda x: Surd(x, 1, 2).a,
    "Surd.b": lambda x: Surd(0, x, 2).b,
    "NumClass.v0": lambda x: NumClass(x, 0, 0, 0).v0,
    "Region.beta_min": lambda x: Region(x, 1, 1).beta_min,
}


@pytest.mark.parametrize("field", RATIONAL_FIELDS)
def test_a_fraction_handed_in_is_kept_as_the_same_object(field):
    q = Q(1, 2)
    assert rational(q) is q
    assert RATIONAL_FIELDS[field](q) is q


@pytest.mark.parametrize("field", RATIONAL_FIELDS)
@pytest.mark.parametrize("x", [1, True, "1/2", "3/4"])
def test_other_rational_inputs_are_converted_once(field, x):
    value = RATIONAL_FIELDS[field](x)
    assert type(value) is Fraction and value == Fraction(x)
    assert type(rational(x)) is Fraction and rational(x) == Fraction(x)
