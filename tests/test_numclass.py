from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tiltwall import (NumClass, POINT, chi_p3, class_of_line_bundle,
                      class_of_named, dual_shifted, is_integral_class, shift,
                      tensor_line)
from tiltwall.errors import InputError
from tiltwall.numclass import (_NAMED, DIGIT_BUDGET, dual, parse_rational,
                               twist_components)

from conftest import integral_classes
from oracles import parse_rational_by_fraction, tensor_line_rat

Q = Fraction


def test_line_bundle_classes():
    assert class_of_line_bundle(0) == NumClass(1, 0, 0, 0)
    assert class_of_line_bundle(1) == NumClass(1, 1, Q(1, 2), Q(1, 6))
    assert class_of_line_bundle(-1) == NumClass(1, -1, Q(1, 2), Q(-1, 6))


def test_named_classes():
    assert class_of_named("T(-2)") == NumClass(3, -2, 0, Q(2, 3))
    assert class_of_named("Omega(1)") == NumClass(3, -1, Q(-1, 2), Q(-1, 6))
    assert class_of_named("point") == NumClass(0, 0, 0, 1)
    assert class_of_named("Omega2(2)") == class_of_named("T(-2)")
    assert class_of_named("O^x") == class_of_line_bundle(0) - POINT
    assert class_of_named("O^x") == NumClass(1, 0, 0, -1)
    assert class_of_named("O(-3)") == NumClass(1, -3, Q(9, 2), Q(-9, 2))
    with pytest.raises(InputError):
        class_of_named("F(7)")


def test_named_table_matches_euler_sequence():
    # each named class written out on line bundles from its defining
    # sequence: the Euler sequence twisted by -2 for T(-2), its dual
    # twisted by 1 for Omega(1), the Koszul complex for Omega2(2) and for
    # the point
    o = class_of_line_bundle
    derived = {
        "O": o(0),
        "T(-2)": 4 * o(-1) - o(-2),
        "Omega(1)": 4 * o(0) - o(1),
        "Omega2(2)": 6 * o(0) - 4 * o(1) + o(2),
        "point": o(0) - 3 * o(-1) + 3 * o(-2) - o(-3),
        "O^x": o(0) - (o(0) - 3 * o(-1) + 3 * o(-2) - o(-3)),
    }
    assert set(derived) == set(_NAMED)
    for name, v in derived.items():
        assert class_of_named(name) == v, name


def test_dual_examples():
    assert dual(class_of_line_bundle(2)) == class_of_line_bundle(-2)
    assert dual(POINT) == -POINT
    assert dual_shifted(class_of_line_bundle(2)) == -class_of_line_bundle(-2)


def test_shift_examples():
    o = NumClass(1, 0, 0, 0)
    assert shift(o, 1) == NumClass(-1, 0, 0, 0)
    assert shift(o, 2) == o
    assert shift(NumClass(3, -2, 0, Q(2, 3)), 3) == NumClass(-3, 2, 0, Q(-2, 3))


def test_tensor_line_examples():
    assert tensor_line(class_of_line_bundle(0), 1) == class_of_line_bundle(1)
    assert tensor_line(class_of_line_bundle(-1), 1) == NumClass(1, 0, 0, 0)
    assert tensor_line(class_of_named("T(-2)"), 0) == NumClass(3, -2, 0, Q(2, 3))


def test_dual_shifted_examples():
    assert dual_shifted(class_of_line_bundle(2)) == NumClass(-1, 2, -2, Q(8, 6))
    assert dual_shifted(POINT) == POINT
    assert dual_shifted(NumClass(3, -2, 0, Q(2, 3))) == NumClass(-3, -2, 0, Q(2, 3))


def test_group_examples():
    o = class_of_line_bundle(0)
    assert o + o == NumClass(2, 0, 0, 0)
    assert o - POINT == class_of_named("O^x")
    assert o - o == NumClass(0, 0, 0, 0)


def test_integrality_examples():
    for d in range(-5, 6):
        assert is_integral_class(class_of_line_bundle(d))
    assert not is_integral_class(NumClass(0, 0, Q(1, 2), 0))
    # a line class: chi of twists is m + 1
    assert is_integral_class(NumClass(0, 0, 1, -1))
    # not integral: chi of twists is m + 3/2
    assert not is_integral_class(NumClass(0, 0, 1, Q(-1, 2)))


def test_parse_format_roundtrip():
    text = "3,-2,0,2/3"
    assert str(NumClass.parse(text)) == text
    with pytest.raises(InputError):
        NumClass.parse("1,2,3")
    with pytest.raises(InputError):
        NumClass.parse("1,2,3,x")


def test_parse_rational_digit_budget():
    B = DIGIT_BUDGET
    # mantissa digits plus |exponent|, counted on the text
    for tok in ("9" * B, "1/" + "9" * (B - 1), "1e499", "-1.5e-498"):
        assert parse_rational(tok) == Fraction(tok)
    # an underscore is read by the running Python's Fraction, and Python
    # 3.10's accepts none; the budget is counted before Fraction runs, so
    # "1e+0_500" is over it on every version
    try:
        want = Fraction("1e+0_499")
    except ValueError:
        with pytest.raises(InputError, match="bad rational literal"):
            parse_rational("1e+0_499")
    else:
        assert parse_rational("1e+0_499") == want
    for tok in ("9" * (B + 1), "1/" + "9" * B, "1e500", "-1.5e-499",
                "1e+0_500", "1e999999999", "1e-" + "9" * 5000):
        with pytest.raises(InputError, match=f"budget of {B} digits"):
            parse_rational(tok)
    for tok in ("1e5e5", "1e", "e5", "1ex"):
        with pytest.raises(InputError, match="bad rational literal"):
            parse_rational(tok)


def _parse_outcome(parse, tok):
    """A parse's value, or the message of the InputError it raised."""
    try:
        value = parse(tok)
    except InputError as exc:
        return "error", str(exc)
    assert type(value) is Fraction
    return "value", value


_DIGITS = "0123456789"


@st.composite
def plain_literals(draw):
    """[+-]?D+(/D+)? with ASCII digits: leading zeros, zero denominators,
    and B and B + 1 digits split between numerator and denominator."""
    B = DIGIT_BUDGET
    size = draw(st.one_of(st.integers(1, 12), st.sampled_from([B, B + 1])))
    den_size = draw(st.integers(0, size - 1))

    def digits(n):
        # a run of one drawn digit, then a short drawn tail: a run of "0"
        # gives leading zeros, and zeros throughout give the value 0
        tail = draw(st.text(_DIGITS, min_size=1, max_size=min(n, 6)))
        return draw(st.sampled_from(_DIGITS)) * (n - len(tail)) + tail

    tok = draw(st.sampled_from(["", "+", "-"])) + digits(size - den_size)
    if den_size:
        den = "0" * den_size if draw(st.booleans()) else digits(den_size)
        tok += "/" + den
    return tok


@given(plain_literals())
def test_plain_literals_match_the_fraction_rule(tok):
    assert (_parse_outcome(parse_rational, tok)
            == _parse_outcome(parse_rational_by_fraction, tok))


@pytest.mark.parametrize("tok", [
    " 1/2", "1_000", "\u0663/\u0664", "\u00b2", "1/-2", "1/+2", "+3", "-0",
    "1.5e-3", "1e5e5", "1/0", "-00/000", "007/010", "", "/", "1/", "/2",
    "+", "-/1", "1/2/3", "+-1", "3\n", "1" + "\u00b2" * DIGIT_BUDGET])
def test_other_literals_match_the_fraction_rule(tok):
    assert (_parse_outcome(parse_rational, tok)
            == _parse_outcome(parse_rational_by_fraction, tok))


@given(integral_classes)
def test_integral_lattice_members_are_integral(v):
    assert is_integral_class(v)


@given(integral_classes, st.integers(-3, 3), st.integers(-3, 3))
def test_tensor_line_is_an_action(v, m, n):
    assert tensor_line(tensor_line(v, m), n) == tensor_line(v, m + n)


# rational classes at the scale of the large benchmark classes: numerators
# up to 10^4 over denominators 1-12, rank 0 included
rationals_1e4 = st.builds(Fraction, st.integers(-10 ** 4, 10 ** 4), st.integers(1, 12))
rational_classes = st.builds(
    NumClass, st.one_of(st.just(0), rationals_1e4), rationals_1e4, rationals_1e4,
    rationals_1e4)
twist_amounts = st.one_of(st.just(0), st.integers(-50, 50),
                          st.builds(Fraction, st.integers(-200, 200), st.integers(1, 24)))


@given(rational_classes, twist_amounts)
def test_twist_components_match_termwise_oracle(v, x):
    got = twist_components(v, x)
    assert got == tensor_line_rat(v, Fraction(x)).components()
    assert all(type(c) is Fraction for c in got)


@given(rational_classes, st.integers(-50, 50))
def test_tensor_line_inverse_twist(v, m):
    assert tensor_line(tensor_line(v, m), -m) == v


@given(integral_classes)
def test_dual_shifted_involution(v):
    assert dual_shifted(dual_shifted(v)) == v


@given(integral_classes, st.integers(-3, 3))
def test_dual_shifted_twist_compatibility(v, m):
    assert dual_shifted(tensor_line(v, m)) == tensor_line(dual_shifted(v), -m)


def chi_twists_integral(v: NumClass) -> bool:
    """Integrality oracle: chi(v tensor O(m)) is an integer for m = 0..3.
    chi of a twist is a cubic polynomial in m, so four samples decide
    integrality at every integer twist."""
    return all(chi_p3(tensor_line(v, m)).denominator == 1 for m in range(4))


def test_integrality_matches_chi_oracle_on_a_grid():
    verdicts = set()
    for v0 in (0, Q(1, 2), 1):
        for v1 in (-1, 0, 1, Q(1, 3)):
            for j in range(-2, 3):
                for k in range(-6, 7):
                    v = NumClass(v0, v1, Q(j, 2), Q(k, 6))
                    verdict = is_integral_class(v)
                    assert verdict == chi_twists_integral(v), v
                    verdicts.add(verdict)
    assert verdicts == {True, False}


denominators = st.integers(min_value=1, max_value=12)


@st.composite
def rational_classes(draw):
    """A lattice point, moved by some k/d (d in 1..12) in each component
    with probability 1/2; many draws stay integral, most do not."""
    v = draw(integral_classes)
    moves = [Q(draw(st.integers(-12, 12)), draw(denominators))
             if draw(st.booleans()) else 0 for _ in range(4)]
    return v + NumClass(*moves)


@given(rational_classes())
def test_integrality_matches_chi_oracle(v):
    assert is_integral_class(v) == chi_twists_integral(v)
