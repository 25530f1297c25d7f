"""Exact values of the form a + b*sqrt(d).

Curve endpoints and the slope bounds mu1/mu2 involve square roots of the
discriminant, which is rational but rarely a perfect square.  Rather than
fall back to floats, values are kept as quadratic surds with rational a, b
and a nonnegative integer radicand d, so every comparison in the library is
exact.  ``Surd.sqrt`` is the one place a new radicand enters: it factors it
once into a square-free d, and arithmetic keeps that d.  Surds with radicands
d != e combine when d*e = s^2, since then sqrt(e) = (s/d)*sqrt(d); otherwise
they are never equal (1, sqrt(d) and sqrt(e) are linearly independent over
Q), and ordering them raises instead of silently approximating.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

Rational = Union[int, Fraction]


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s^2 * d and d square-free (n >= 0).

    Trial division stops once p^3 > m: the cofactor m then has at most two
    prime factors, so it is square-free unless it is a perfect square."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1):
        return 1, n
    s, d = 1, 1
    p = 2
    m = n
    while p * p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = isqrt(m)
    if r * r == m:
        return s * r, d
    return s, d * m


class Surd:
    """Immutable exact value a + b*sqrt(d), totally ordered against rationals."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rational, b: Rational = 0, d: int = 0):
        """a + b*sqrt(d) for an integer d >= 0; ``Surd.sqrt`` builds one
        with square-free d from any rational.  b = 0 or a perfect square
        d = r^2 gives the rational a + b*r."""
        a = Fraction(a)
        b = Fraction(b)
        r = isqrt(d)
        if b == 0 or r * r == d:
            a, b, d = a + b * r, Fraction(0), 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *_):
        raise AttributeError("Surd is immutable")

    @staticmethod
    def sqrt(x: Rational) -> "Surd":
        """Exact square root of a nonnegative rational."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("square root of a negative rational")
        # sqrt(p/q) = sqrt(p*q)/q = s*sqrt(d)/q
        s, d = _squarefree_split(x.numerator * x.denominator)
        return Surd(0, Fraction(s, x.denominator), d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: compare a^2 with b^2 d
        t = a * a - b * b * self.d
        if t == 0:
            return 0
        return (1 if t > 0 else -1) * (1 if a > 0 else -1)

    # arithmetic with rationals, and differences of surds (enough for this
    # library); the radicand d is kept as it is
    def __add__(self, other: Rational) -> "Surd":
        return Surd(self.a + Fraction(other), self.b, self.d)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other) -> "Surd":
        """Difference with a rational or a surd.  A surd c + f*sqrt(e) with
        e != d is rewritten over d, f*sqrt(e) = (f*s/d)*sqrt(d), when
        d*e = s^2; otherwise the two cannot combine and ValueError is
        raised."""
        if not isinstance(other, Surd):
            return Surd(self.a - Fraction(other), self.b, self.d)
        if self.b == 0 or other.b == 0 or self.d == other.d:
            d = self.d if self.b != 0 else other.d
            return Surd(self.a - other.a, self.b - other.b, d)
        s = isqrt(self.d * other.d)
        if s * s != self.d * other.d:
            raise ValueError("cannot combine surds with different radicands")
        return Surd(self.a - other.a, self.b - other.b * s / self.d, self.d)

    def __rsub__(self, other: Rational) -> "Surd":
        return -(self - other)

    def __mul__(self, other: Rational) -> "Surd":
        q = Fraction(other)
        return Surd(self.a * q, self.b * q, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other: Rational) -> "Surd":
        return self * (1 / Fraction(other))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (int, Fraction, Surd)):
            return NotImplemented
        try:
            return (self - other).sign() == 0
        except ValueError:
            # d*e is not a square, so 1, sqrt(d), sqrt(e) are independent over Q
            return False

    def __lt__(self, other) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - other).sign() >= 0

    def __hash__(self):
        # equal irrational surds share a, b^2*d and the sign of b
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b * self.b * self.d, self.b > 0))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * self.d ** 0.5

    def __repr__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        return f"{self.a} + {self.b}*sqrt({self.d})"
