import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
import hypothesis.strategies as st

from tiltwall import (NumClass, ParamPoint, Slope, alpha_E_beta, bg_margin,
                      central_charge_2, central_charge_3, class_of_line_bundle,
                      class_of_named, curve_CE, curve_endpoint, discriminant,
                      dual_shifted, dual_transform, mu12,
                      quadratic_form_Q, reduce_to_fundamental, shift,
                      shift_transform, slope_mu, tensor_line, tilt_slope_nu,
                      twisted_v)
from tiltwall.errors import DomainError
from tiltwall.surd import Surd

from conftest import integral_classes, points_in_U, small_rationals
from oracles import tensor_line_rat

Q = Fraction


def test_twisted_v_examples():
    o1 = class_of_line_bundle(1)
    assert twisted_v(o1, 0) == (1, 1, Q(1, 2), Q(1, 6))
    assert twisted_v(o1, Q(-1, 4)) == (1, Q(5, 4), Q(25, 32), Q(125, 384))
    t = class_of_named("T(-2)")
    assert twisted_v(t, Q(-1, 2)) == (3, Q(-1, 2), Q(-5, 8), Q(23, 48))


@given(integral_classes, small_rationals)
def test_twisted_v_matches_polynomial_multiply(v, beta):
    assert twisted_v(v, beta) == tensor_line_rat(v, -beta).components()


def test_slope_examples():
    assert slope_mu(class_of_line_bundle(3)) == Slope(3)
    assert slope_mu(class_of_named("T(-2)")) == Slope(Q(-2, 3))
    assert slope_mu(class_of_named("point")).is_infinite


@pytest.mark.parametrize("beta, alpha", [(0, -1), (Q(-1, 2), Q(1, 8))])
def test_param_point_off_U_raises(beta, alpha):
    # (-1/2, 1/8) is on the boundary: omega^2 = 0
    with pytest.raises(DomainError) as exc:
        ParamPoint(beta, alpha)
    assert str(exc.value) == f"({beta}, {alpha}) is not in U"


def test_slope_order():
    assert Slope(None) > Slope(10 ** 9)
    assert Slope(Q(1, 2)) < Slope(1) < Slope.INFINITY
    assert Slope(Q(1, 2)) == Q(1, 2)
    # <= and >= between slopes, against infinity, and against rationals
    assert Slope(Q(1, 2)) <= Slope(Q(1, 2)) <= Slope(1)
    assert Slope(1) >= Slope(1) >= Slope(Q(1, 2))
    assert not Slope(1) <= Slope(Q(1, 2)) and not Slope(Q(1, 2)) >= Slope(1)
    assert Slope(10 ** 9) <= Slope.INFINITY <= Slope.INFINITY
    assert Slope.INFINITY >= Slope.INFINITY >= Slope(10 ** 9)
    assert not Slope.INFINITY <= Slope(10 ** 9)
    assert not Slope(10 ** 9) >= Slope.INFINITY
    assert Slope(2) <= 2 <= Slope(3) and Slope(2) >= 2 >= Slope(1)
    assert Slope(Q(1, 3)) <= Q(1, 2) <= Slope(Q(1, 2))
    assert Slope(Q(1, 2)) >= Q(1, 2) >= Slope(Q(1, 3))
    assert not Slope.INFINITY <= 10 ** 9 and Slope.INFINITY >= Q(10 ** 9, 7)


def test_slope_hash_agrees_with_equality():
    assert len({Slope(Q(1, 2)), Q(1, 2)}) == 1
    assert len({Slope(3), 3, Q(3)}) == 1
    assert hash(Slope(Q(-5, 7))) == hash(Q(-5, 7))
    assert {Slope(None), Slope.INFINITY} == {Slope.INFINITY}
    assert Slope.INFINITY != Slope(0)
    # a string, a float or None is not a rational: neither equal nor ordered
    assert Slope(Q(1, 2)) != "1/2" and Slope(1) != 1.0 and Slope.INFINITY != None
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(Slope(1), "2")


def test_tilt_slope_examples():
    p = ParamPoint(Q(-1, 3), Q(1, 2))
    assert tilt_slope_nu(class_of_line_bundle(0), p) == Slope(p.alpha / p.beta)
    o1 = class_of_line_bundle(1)
    assert tilt_slope_nu(o1, p) == Slope((1 - 2 * p.alpha) / (2 - 2 * p.beta))
    ts = shift(class_of_named("T(-2)"), 1)
    assert tilt_slope_nu(ts, p) == Slope(3 * p.alpha / (2 + 3 * p.beta))
    assert tilt_slope_nu(class_of_named("point"), p).is_infinite


def test_discriminant_examples():
    for d in range(-5, 6):
        assert discriminant(class_of_line_bundle(d)) == 0
    assert discriminant(class_of_named("T(-2)")) == 4
    assert discriminant(class_of_named("Omega(1)")) == 4


@given(integral_classes, small_rationals)
def test_discriminant_is_twist_invariant(v, beta):
    v0b, v1b, v2b, _ = twisted_v(v, beta)
    assert v1b * v1b - 2 * v2b * v0b == discriminant(v)


def test_central_charges():
    p = ParamPoint(Q(-1, 2), Q(1, 4) + Q(1, 100))
    z = central_charge_2(class_of_line_bundle(0), p)
    assert (z.re, z.im) == (p.alpha, Q(1, 2))
    z = central_charge_2(class_of_line_bundle(1), ParamPoint(0, Q(1, 8)))
    assert (z.re, z.im) == (Q(-3, 8), 1)
    z = central_charge_2(class_of_named("point"), p)
    assert (z.re, z.im) == (0, 0)

    z = central_charge_3(class_of_line_bundle(1),
                         ParamPoint(Q(-1, 4), Q(1, 8)), Q(1, 32))
    assert (z.re, z.im) == (Q(-55, 192), Q(11, 16))
    z = central_charge_3(class_of_named("point"), p, 5)
    assert (z.re, z.im) == (-1, 0)


@given(st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(-1, 40),
                    max_denominator=40),
       small_rationals)
def test_charge_of_O_on_its_curve(beta, a):
    z = central_charge_3(class_of_line_bundle(0),
                         ParamPoint(beta, beta * beta), a)
    assert z.re == beta ** 3 / 6 - a * beta
    assert z.im == 0


def test_bg_margin_examples():
    beta = Q(-1, 3)
    assert bg_margin(class_of_line_bundle(0), ParamPoint(beta, beta * beta)) == 0
    assert bg_margin(class_of_line_bundle(1),
                     ParamPoint(Q(-1, 4), Q(1, 8))) == Q(-55, 192)
    assert bg_margin(NumClass(0, 0, 0, 0), ParamPoint(0, 1)) == 0


@given(st.builds(NumClass, small_rationals, small_rationals, small_rationals,
                 small_rationals), points_in_U())
def test_bg_margin_is_re_Z_at_a_omega_sq_over_6(v, p):
    # bg_margin keeps its own formula: through central_charge_3 it costs
    # about twice as much per call
    assert bg_margin(v, p) == central_charge_3(v, p, p.omega_sq / 6).re


def test_quadratic_form_examples():
    p = ParamPoint(Q(-1, 3), Q(1, 2))
    assert quadratic_form_Q(class_of_named("point"), p) == 0
    for d in range(-5, 6):
        assert quadratic_form_Q(class_of_line_bundle(d), p) == 0
    assert quadratic_form_Q(class_of_named("T(-2)"), ParamPoint(0, Q(1, 8))) == 9


def test_curve_CE_cases():
    c = curve_CE(class_of_line_bundle(0))
    assert c.kind == "parabola" and c.lin == 0 and c.const == 0
    assert alpha_E_beta(class_of_line_bundle(0), Q(-1, 2)) == Q(1, 4)
    assert curve_CE(class_of_named("point")).is_empty()
    c = curve_CE(NumClass(0, 1, 0, 0))
    assert c.kind == "vertical" and c.beta0 == 0
    assert curve_CE(NumClass(2, 0, 1, 0)).is_empty()  # negative discriminant
    assert curve_CE(NumClass(0, -1, 0, 0)).is_empty()


def test_curve_endpoint():
    assert curve_endpoint(class_of_line_bundle(0)) == 0
    assert curve_endpoint(class_of_named("T(-2)")) == Q(-4, 3)
    assert curve_endpoint(NumClass(0, 1, 0, 0)) == 0
    # irrational endpoint: (0 - sqrt(2))/1, by sympy
    end = curve_endpoint(NumClass(1, 0, -1, 0))
    assert isinstance(end, Surd)
    assert sympy.Rational(end.a) + sympy.Rational(end.b) * sympy.sqrt(end.d) == -sympy.sqrt(2)
    with pytest.raises(DomainError):
        curve_endpoint(class_of_named("point"))


def test_alpha_E_beta_and_mu12():
    o = class_of_line_bundle(0)
    assert alpha_E_beta(o, Q(-2, 5)) == Q(4, 25)
    assert mu12(o) == (0, 0)
    t = class_of_named("T(-2)")
    assert alpha_E_beta(t, -1) == Q(1, 3)
    assert mu12(t) == (Q(-4, 3), 0)
    with pytest.raises(DomainError):
        mu12(class_of_named("point"))


def test_transform_examples():
    assert shift_transform(ParamPoint(0, 1), 1) == ParamPoint(1, Q(3, 2))
    assert shift_transform(ParamPoint(Q(7, 3), 3), -2) == ParamPoint(Q(1, 3), Q(1, 3))
    p = ParamPoint(Q(1, 3), Q(1, 3))
    assert shift_transform(p, 0) == p
    assert dual_transform(ParamPoint(0, 1)) == ParamPoint(0, 1)
    assert dual_transform(p) == ParamPoint(Q(-1, 3), Q(1, 3))


@given(points_in_U(), st.integers(-5, 5))
def test_transforms_preserve_omega_sq(p, n):
    assert shift_transform(p, n).omega_sq == p.omega_sq
    assert dual_transform(p).omega_sq == p.omega_sq


def test_reduce_examples():
    res = reduce_to_fundamental(ParamPoint(Q(7, 3), 3))
    assert res.point == ParamPoint(Q(-1, 3), Q(1, 3))
    assert res.log == ("shift:-2", "dual")
    assert reduce_to_fundamental(ParamPoint(0, 1)).log == ()
    res = reduce_to_fundamental(ParamPoint(Q(-1, 2), Q(1, 2)))
    assert res.point == ParamPoint(Q(-1, 2), Q(1, 2)) and res.log == ()


@given(points_in_U())
def test_reduce_lands_in_fundamental_strip(p):
    res = reduce_to_fundamental(p)
    assert Q(-1, 2) <= res.point.beta <= 0
    assert res.point.omega_sq == p.omega_sq


def test_min_positive_examples():
    # the minimum of v1 - beta*v0 > 0 over integers is 1/q for beta = p/q,
    # and at beta = -1/2 Omega(1) attains it
    om = class_of_named("Omega(1)")
    assert twisted_v(om, Q(-1, 2))[1] == Q(1, 2)


def test_kernel_restriction_identity():
    # on the line (x, beta x, alpha x) the discriminant is (beta^2-2alpha)x^2
    for beta, alpha in ((Q(-1, 3), Q(1, 2)), (Q(1, 5), Q(2, 3))):
        for x in (Q(1), Q(-2), Q(3, 7)):
            v = NumClass(x, beta * x, alpha * x, 0)
            assert discriminant(v) == (beta * beta - 2 * alpha) * x * x


@given(integral_classes)
def test_omega_sq_decreases_toward_curve_exit(v):
    # Along the parabola of v, omega^2 vanishes where the curve leaves U;
    # walking toward that exit point from the valid side, omega^2 strictly
    # decreases.  The exit root adjacent to the valid branch is
    # (v1 - sqrt(disc))/v0 for either sign of v0.
    c = curve_CE(v)
    if c.kind != "parabola":
        return
    root = (sympy.Rational(v.v1) - sympy.sqrt(sympy.Rational(discriminant(v)))) / v.v0
    if root.is_rational:
        rb = Fraction(int(root.p), int(root.q))
    else:  # within 1/64 below the root
        rb = Fraction(int(sympy.floor(64 * root)), 64)
    if c.direction == 1:  # valid branch is to the left of the root
        b1, b2 = rb - 2, rb - 1
    else:  # valid branch is to the right
        b1, b2 = rb + 3, rb + 2
    w1 = 2 * alpha_E_beta(v, b1) - b1 * b1
    w2 = 2 * alpha_E_beta(v, b2) - b2 * b2
    assert w1 > w2 > 0


def test_alpha_E_beta_and_mu12_domain_errors():
    with pytest.raises(DomainError, match="^alpha_E_beta needs nonzero rank$"):
        alpha_E_beta(class_of_named("point"), 0)
    v = NumClass(1, 0, 1, 0)
    assert discriminant(v) == -2
    with pytest.raises(DomainError, match="^mu12 needs nonnegative discriminant$"):
        mu12(v)
