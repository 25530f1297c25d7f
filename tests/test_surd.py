import math
import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
import hypothesis.strategies as st

from tiltwall import (DomainError, NumClass, Slope, class_of_line_bundle,
                      class_of_named, discriminant, mu12)
from tiltwall import surd
from tiltwall.surd import Surd, _squarefree_split

from conftest import lattice_class

nonneg = st.fractions(min_value=0, max_value=1000, max_denominator=60)
rats = st.fractions(min_value=-30, max_value=30, max_denominator=60)


def test_sqrt_of_square_is_rational():
    for x, root in ((Fraction(9, 4), Fraction(3, 2)), (0, 0), (Fraction(49), 7)):
        s = Surd.sqrt(x)
        assert s.is_rational and s.a == root


def test_sqrt_normalizes_radicand():
    s = Surd.sqrt(8)  # 2*sqrt(2)
    assert s.d == 2 and s.b == 2 and s.a == 0


def test_sqrt_two_comparisons():
    r = Surd.sqrt(2)
    assert Fraction(7, 5) < r < Fraction(3, 2)
    assert r > 1 and r < 2
    assert not r == Fraction(3, 2)


def test_mixed_sign_comparison():
    # 3 - 2*sqrt(2) > 0 but 3 - sqrt(10) < 0
    assert Surd(3, -2, 2) > 0 and 0 < Surd(3, -2, 2)
    assert Surd(3, -1, 10) < 0 and 0 > Surd(3, -1, 10)
    assert Surd(3, -1, 9) == 0  # 3 - 3


def test_only_an_int_or_fraction_is_subtracted():
    # the one arithmetic: s - q keeps b and d; nothing else is defined, a
    # difference of surds included, whatever their radicands
    operations = [lambda s: s - Surd.sqrt(3), lambda s: s - Surd.sqrt(2),
                  lambda s: 1 - s, lambda s: Fraction(1, 2) - s,
                  lambda s: s + 1, lambda s: s * 2, lambda s: s / 2,
                  lambda s: -s, float, lambda s: s - "1/2", lambda s: s - 0.5]
    for x in (Surd(1), Surd.sqrt(2), Surd(0, 1, 8)):
        for q in (1, Fraction(1, 2), True):
            r = x - q
            assert type(r) is Surd and (r.a, r.b, r.d) == (x.a - q, x.b, x.d)
        for operation in operations:
            with pytest.raises(TypeError):
                operation(x)


def test_different_radicands_are_unequal():
    # 1, sqrt(2) and sqrt(3) are linearly independent over Q
    assert Surd.sqrt(2) != Surd.sqrt(3)
    assert not Surd(1, 1, 2) == Surd(1, 1, 3)
    assert Surd.sqrt(8) != Surd.sqrt(12)


def test_unreduced_radicands_are_exact():
    assert Surd(0, 1, 8) == Surd.sqrt(8)
    assert hash(Surd(0, 1, 8)) == hash(Surd.sqrt(8))
    assert Surd(0, 1, 8) - 1 == Surd(-1, 2, 2) and Surd(0, 1, 8) - 1 > Surd.sqrt(2)
    assert Surd(0, 1, 9) == 3 and Surd(0, 1, 9).is_rational
    assert Surd(0, 1, 8) > Surd.sqrt(3)


@given(rats, rats, st.integers(1, 12), st.sampled_from([2, 3, 5, 6, 7, 10]))
def test_square_factor_in_the_radicand(a, b, k, d):
    # a + b*sqrt(k^2 d) is a + b*k*sqrt(d), whichever way it is written
    s, t = Surd(a, b, k * k * d), Surd(a, b * k, d)
    assert s == t and t == s and hash(s) == hash(t)
    assert not s < t and not s > t and s <= t and t >= s


def test_different_radicands_are_ordered():
    assert Surd.sqrt(2) < Surd.sqrt(3) and Surd.sqrt(3) > Surd.sqrt(2)
    # 1 + sqrt(2) = 2.414... against sqrt(5) = 2.236... and sqrt(6) = 2.449...
    assert Surd(1, 1, 2) > Surd.sqrt(5) and Surd(1, 1, 2) < Surd.sqrt(6)
    # both sides negative: -1 - sqrt(2) = -2.414... < -sqrt(5)
    assert Surd(-1, -1, 2) < Surd(0, -1, 5) and Surd(-1, -1, 2) <= Surd(0, -1, 5)
    # opposite signs: sqrt(2) - 1 > 0 > -sqrt(3)/100
    assert Surd(-1, 1, 2) > Surd(0, Fraction(-1, 100), 3)
    assert sorted([Surd.sqrt(7), Surd.sqrt(2), Fraction(2), Surd(1, 1, 3)]) == [
        Surd.sqrt(2), Fraction(2), Surd.sqrt(7), Surd(1, 1, 3)]


SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 15)


@pytest.mark.parametrize("x", [Surd(1), Surd.sqrt(2)])
@pytest.mark.parametrize("other", [1.0, 1.5, "1", None])
def test_ordering_rejects_what_equality_rejects(x, other):
    # Surd(1) == 1.0 is False, so a surd is not ordered against a float,
    # nor against a str coerced through Fraction
    assert x != other and other != x
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(x, other)
        with pytest.raises(TypeError):
            compare(other, x)


def exact(x):
    if isinstance(x, Surd):
        return sympy.Rational(x.a) + sympy.Rational(x.b) * sympy.sqrt(x.d)
    return sympy.Rational(x)


mixed = st.one_of(st.integers(-30, 30), rats,
                  st.builds(Surd, rats, rats, st.sampled_from(SQUAREFREE)))


@given(st.lists(mixed, max_size=6))
def test_mixed_sorting_follows_the_exact_order(xs):
    ys = sorted(xs)
    assert all(sympy.sign(exact(y) - exact(x)) >= 0 for x, y in zip(ys, ys[1:]))


@given(rats, rats.filter(bool), st.sampled_from(SQUAREFREE),
       rats, rats.filter(bool), st.sampled_from(SQUAREFREE))
def test_ordering_matches_sympy(a, b, d, c, f, e):
    x, y = Surd(a, b, d), Surd(c, f, e)
    diff = (sympy.Rational(a) + sympy.Rational(b) * sympy.sqrt(d)
            - sympy.Rational(c) - sympy.Rational(f) * sympy.sqrt(e))
    want = int(sympy.sign(diff))
    assert (x < y, x == y, x > y) == (want < 0, want == 0, want > 0)
    assert (x <= y, x >= y, x != y) == (want <= 0, want >= 0, want != 0)


COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge,
               operator.eq, operator.ne)


def as_float(x):
    if isinstance(x, Slope):
        return math.inf if x.is_infinite else float(x.value)
    if isinstance(x, Surd):
        return float(x.a) + float(x.b) * math.sqrt(x.d)
    return float(x)


@pytest.mark.parametrize("x, other", [
    pytest.param(Surd.sqrt(2), 1, id="int"),
    pytest.param(Surd.sqrt(2), Fraction(3, 2), id="Fraction"),
    pytest.param(Surd.sqrt(2), Surd.sqrt(3), id="sqrt3"),
    pytest.param(Slope(Fraction(3, 2)), Slope(2), id="slope-slope"),
    pytest.param(Slope(Fraction(3, 2)), 1, id="slope-int"),
    pytest.param(Slope(Fraction(3, 2)), Fraction(3, 2), id="slope-Fraction"),
    pytest.param(Slope(Fraction(3, 2)), Slope.INFINITY, id="slope-infinity"),
])
def test_each_comparison_makes_one_exact_comparison(monkeypatch, x, other):
    # sqrt(2) = 1.414... lies apart from 1, 3/2 and sqrt(3) = 1.732..., and
    # a slope holds a rational or +infinity, so the float order is the exact
    # one; both operand orders are checked
    calls = []
    cls = type(x)
    cmp = cls._cmp

    def counting(self, other):
        calls.append(other)
        return cmp(self, other)

    monkeypatch.setattr(cls, "_cmp", counting)
    for compare in COMPARISONS:
        for left, right in ((x, other), (other, x)):
            calls.clear()
            assert compare(left, right) == compare(as_float(left), as_float(right))
            assert len(calls) == 1, (compare.__name__, left, right)


@pytest.mark.parametrize("other", [
    1, Fraction(3, 2), Surd(1, -1, 2), Surd.sqrt(3), Surd(0, 1, 8)],
    ids=["int", "Fraction", "same-radicand", "other-radicand", "unreduced"])
def test_a_comparison_builds_no_surd(monkeypatch, other):
    x, want = Surd.sqrt(2), sympy.sign(exact(Surd.sqrt(2)) - exact(other))
    builds, set_slots = [], Surd._set

    def counting(self, *values):
        builds.append(values)
        set_slots(self, *values)

    monkeypatch.setattr(Surd, "_set", counting)
    for compare in COMPARISONS:
        assert compare(x, other) == compare(want, 0)
        assert compare(other, x) == compare(0, want)
    assert builds == []


@given(nonneg, rats)
def test_arithmetic_keeps_the_radicand(x, q):
    # s - q for an int or Fraction q, the one arithmetic a surd has
    s = Surd.sqrt(x)
    for q in (q, int(q)):
        r = s - q
        assert (r.b, r.d) == (s.b, s.d)
        assert sympy.expand(exact(r) - exact(s) + exact(q)) == 0
        assert hash(r) == hash(Surd(r.a, r.b, r.d))
        assert r == Surd(r.a, r.b, r.d)


def test_mu12_factors_the_radicand_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return _squarefree_split(n)

    monkeypatch.setattr(surd, "_squarefree_split", counting)
    p, q = 10**9 + 7, 10**9 + 9
    for disc in (2, 12, p * q):
        calls.clear()
        mu1, mu2 = mu12(NumClass(2, 0, Fraction(-disc, 4), 0))
        assert calls == [disc]
        assert (mu1.b, mu2.b) == (-mu2.b, mu2.b) and mu2.b > 0


# v0 != 0 and disc >= 0, both signs of v0, radicands up to about 10^5
mu12_classes = st.tuples(*[st.integers(-60, 60)] * 4).map(lattice_class).filter(
    lambda v: v.v0 != 0 and discriminant(v) >= 0)

T_MINUS_2 = class_of_named("T(-2)")
SQRT7_CLASS = NumClass.parse("2,-1,-3/2,1/6")
NEGATIVE_RANK_CLASS = NumClass.parse("-1195,-8954,-9502,-17773/3")


@settings(deadline=None)
@given(mu12_classes)
@example(T_MINUS_2)
@example(SQRT7_CLASS)
@example(class_of_line_bundle(1))
@example(NEGATIVE_RANK_CLASS)
def test_mu12_matches_sympy(v):
    # the ends are sympy's (v1 -+ sqrt(disc))/v0 in increasing order; they
    # are Fractions exactly when disc is a rational square
    v0, v1 = sympy.Rational(v.v0), sympy.Rational(v.v1)
    root = sympy.sqrt(sympy.Rational(discriminant(v)))
    want = sorted([(v1 - root) / v0, (v1 + root) / v0])
    ends = mu12(v)
    kind = Fraction if root.is_rational else Surd
    for end, w in zip(ends, want):
        assert type(end) is kind
        assert sympy.simplify(exact(end) - w) == 0


def test_mu12_examples():
    assert mu12(T_MINUS_2) == (Fraction(-4, 3), 0)
    lo, hi = mu12(SQRT7_CLASS)  # -1/2 -+ sqrt(7)/2
    assert (lo.a, lo.b, lo.d) == (Fraction(-1, 2), Fraction(-1, 2), 7)
    assert (hi.a, hi.b, hi.d) == (Fraction(-1, 2), Fraction(1, 2), 7)
    lo, hi = mu12(class_of_line_bundle(1))  # disc 0: one double end
    assert type(lo) is type(hi) is Fraction and lo == hi == 1
    # v0 < 0: disc = 57,464,336 = 4^2 * 3,591,521
    v = NEGATIVE_RANK_CLASS
    assert discriminant(v) == 57464336
    lo, hi = mu12(v)
    c = Fraction(4, 1195)
    assert (lo.a, lo.b, lo.d) == (Fraction(8954, 1195), -c, 3591521)
    assert (hi.a, hi.b, hi.d) == (Fraction(8954, 1195), c, 3591521)


@pytest.mark.parametrize("v", [T_MINUS_2, SQRT7_CLASS, class_of_line_bundle(1),
                               NEGATIVE_RANK_CLASS, NumClass(-2, 1, 3, 0)],
                         ids=["T(-2)", "sqrt7", "O(1)", "negative-rank",
                              "negative-rank-sqrt"])
def test_mu12_takes_one_root_and_builds_at_most_two_surds(monkeypatch, v):
    # the closed form: one Surd.sqrt, then the two ends built directly;
    # generic surd arithmetic (division, then a sum and a difference)
    # builds several more surds per end.  The root that Surd.sqrt builds
    # is its own and not counted.
    calls = []
    in_sqrt = []
    sqrt, init = Surd.sqrt, Surd.__init__

    def counting_sqrt(x):
        calls.append("sqrt")
        in_sqrt.append(x)
        try:
            return sqrt(x)
        finally:
            in_sqrt.pop()

    def counting_init(self, *args):
        if not in_sqrt:
            calls.append("init")
        init(self, *args)

    monkeypatch.setattr(Surd, "sqrt", staticmethod(counting_sqrt))
    monkeypatch.setattr(Surd, "__init__", counting_init)
    mu12(v)
    assert calls.count("sqrt") == 1
    assert calls.count("init") <= 2


def test_radicand_budget():
    # NumClass(2, 0, -disc/4, 0) has discriminant v1^2 - 2*v0*v2 = disc
    budget = surd.RADICAND_BUDGET
    assert budget == 10**20
    mu1, mu2 = mu12(NumClass(2, 0, Fraction(-budget, 4), 0))
    assert (mu1, mu2) == (-5 * 10**9, 5 * 10**9)
    for disc in (budget + 39, 10**24 + 7):
        with pytest.raises(DomainError, match="10\\^20"):
            mu12(NumClass(2, 0, Fraction(-disc, 4), 0))
    # p*q counts the denominator too: sqrt(10^20/3) factors 3 * 10^20
    with pytest.raises(DomainError):
        Surd.sqrt(Fraction(budget, 3))


def test_negative_radicand_raises():
    with pytest.raises(ValueError):
        Surd.sqrt(-1)


@given(nonneg)
def test_sqrt_square_roundtrip(x):
    s = Surd.sqrt(x)
    # (b*sqrt(d))^2 = b^2 * d must reproduce x
    assert s.a == 0 or s.is_rational
    if s.is_rational:
        assert s.a * s.a == x
    else:
        assert s.b * s.b * s.d == x


@given(nonneg, st.fractions(min_value=0, max_value=8, max_denominator=12))
def test_sqrt_is_monotone_against_rationals(x, r):
    # exact comparison against rational probes: r < sqrt(x) iff r^2 < x
    s = Surd.sqrt(x)
    if r * r < x:
        assert r < s
    elif r * r > x:
        assert r > s
    else:
        assert s == r


@given(nonneg, st.integers(min_value=1, max_value=6))
def test_sqrt_is_monotone_same_radicand(x, k):
    # sqrt(k^2 x) = k sqrt(x) shares a radicand, so compares exactly
    if x > 0 and k > 1:
        assert Surd.sqrt(x) < Surd.sqrt(k * k * x)
    s = Surd.sqrt(x)
    assert Surd.sqrt(k * k * x) == Surd(k * s.a, k * s.b, s.d)


@given(rats)
def test_comparison_against_rational_consistent(q):
    r = Surd.sqrt(2)
    assert (r < q) == (2 ** 0.5 < float(q))
    assert (r > q) == (2 ** 0.5 > float(q))


def squarefree_split_oracle(n: int) -> tuple[int, int]:
    """(s, d) with n = s^2 * d, d square-free, by trial division up to
    sqrt(n)."""
    if n in (0, 1):
        return 1, n
    s, d = 1, 1
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * m


@given(st.integers(min_value=0, max_value=10**9 - 1))
def test_squarefree_split_matches_oracle(n):
    assert _squarefree_split(n) == squarefree_split_oracle(n)


PRIMES = (2, 3, 5, 7, 11, 101, 1009, 10007, 10009)


def test_squarefree_split_crafted_cases():
    # p^2 and p^2*q leave a square or a two-prime cofactor after the
    # cube-root trial division
    for p in PRIMES:
        for k in (1, 2, 6, 30):
            assert _squarefree_split(k * p * p) == squarefree_split_oracle(k * p * p)
        for q in PRIMES:
            n = p * p * q
            assert _squarefree_split(n) == squarefree_split_oracle(n)
            assert _squarefree_split(n * q) == (p * q, 1)


def test_squarefree_split_large_radicands():
    p, q = 10**9 + 7, 10**9 + 9  # twin primes
    assert _squarefree_split(2 * p * p) == (p, 2)
    assert _squarefree_split(p * q) == (1, p * q)
    assert _squarefree_split(12 * p * p) == (2 * p, 3)
    s = Surd.sqrt(Fraction(12 * p * p, 5))
    assert (s.b, s.d) == (Fraction(2 * p, 5), 15)


def test_str_of_a_rational_and_of_a_pure_surd():
    assert str(Surd(3)) == "3"
    assert str(Surd(0, 2, 3)) == "2*sqrt(3)"


@given(rats, rats, st.integers(min_value=0, max_value=200))
def test_irrational_sign_is_never_zero(a, b, d):
    # b != 0 keeps d no perfect square, so a + b*sqrt(d) = 0 has no solution
    s = Surd(a, b, d)
    if s.is_rational:
        return
    positive = sympy.Rational(a) + sympy.Rational(b) * sympy.sqrt(d) > 0
    assert s != 0 and (s > 0) == positive and (s < 0) != positive
