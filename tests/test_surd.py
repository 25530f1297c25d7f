from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tiltwall import NumClass, mu12
from tiltwall import surd
from tiltwall.surd import Surd, _squarefree_split

nonneg = st.fractions(min_value=0, max_value=1000, max_denominator=60)
rats = st.fractions(min_value=-30, max_value=30, max_denominator=60)


def test_sqrt_of_square_is_rational():
    assert Surd.sqrt(Fraction(9, 4)).as_fraction() == Fraction(3, 2)
    assert Surd.sqrt(0).as_fraction() == 0
    assert Surd.sqrt(Fraction(49)).as_fraction() == 7


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
    assert Surd(3, -2, 2).sign() == 1
    assert Surd(3, -1, 10).sign() == -1
    assert Surd(3, -1, 9).sign() == 0  # 3 - 3


def test_different_radicands_raise():
    with pytest.raises(ValueError):
        Surd.sqrt(2) < Surd.sqrt(3)


def test_different_radicands_are_unequal():
    # 1, sqrt(2) and sqrt(3) are linearly independent over Q
    assert Surd.sqrt(2) != Surd.sqrt(3)
    assert not Surd(1, 1, 2) == Surd(1, 1, 3)
    assert Surd.sqrt(8) != Surd.sqrt(12)


def test_unreduced_radicands_are_exact():
    assert Surd(0, 1, 8) == Surd.sqrt(8)
    assert hash(Surd(0, 1, 8)) == hash(Surd.sqrt(8))
    assert Surd(0, 1, 8) - Surd.sqrt(2) == Surd.sqrt(2)
    assert Surd(0, 1, 9) == 3 and Surd(0, 1, 9).is_rational
    with pytest.raises(ValueError):
        Surd(0, 1, 8) < Surd.sqrt(3)


@given(rats, rats, st.integers(1, 12), st.sampled_from([2, 3, 5, 6, 7, 10]))
def test_square_factor_in_the_radicand(a, b, k, d):
    # a + b*sqrt(k^2 d) is a + b*k*sqrt(d), whichever way it is written
    s, t = Surd(a, b, k * k * d), Surd(a, b * k, d)
    assert s == t and t == s and hash(s) == hash(t)
    assert (s - t).is_rational and (t - s).is_rational


def test_difference_of_surds():
    assert Surd.sqrt(8) - Surd.sqrt(2) == Surd.sqrt(2)
    assert (Surd.sqrt(2) - Surd.sqrt(2)).is_rational
    assert Surd(1, 0, 0) - Surd.sqrt(3) == 1 - Surd.sqrt(3)


@given(nonneg, rats)
def test_arithmetic_keeps_the_radicand(x, q):
    s = Surd.sqrt(x)
    results = [s + q, q + s, s - q, q - s, s * q, q * s, -s]
    if q != 0:
        results.append(s / q)
    for r in results:
        assert r.d == s.d or r.is_rational
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
    assert Surd.sqrt(k * k * x) == Surd.sqrt(x) * k


@given(rats, rats)
def test_affine_arithmetic_matches_float(p, q):
    s = (Surd.sqrt(2) * p + q) / 3 - 1
    expected = (float(p) * 2 ** 0.5 + float(q)) / 3 - 1
    assert abs(float(s) - expected) < 1e-9


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
