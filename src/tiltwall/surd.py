"""Exact values of the form a + b*sqrt(d).

Curve endpoints and the slope bounds mu1/mu2 involve square roots of the
discriminant, which is rational but rarely a perfect square.  Rather than
fall back to floats, values are kept as quadratic surds with rational a, b
and a nonnegative integer radicand d, so every comparison in the library is
exact.  ``Surd.sqrt`` is the one place a new radicand enters: it factors it
once into a square-free d.  The one arithmetic is subtracting an int or a
Fraction, which keeps b and d.  A comparison builds no surd: it applies
one sign rule to the fields of both operands, comparing squares when the
radicands differ.

The ends of ``mu12`` are built in closed form from one ``Surd.sqrt``:
sqrt(disc) = s*sqrt(d)/q gives mu -+ (s/(q*|v0|))*sqrt(d), two surds of the
square-free radicand d, or two rationals when the root is rational, with no
surd arithmetic in between.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional, Union

from ._record import Record
from .errors import DomainError
from .numclass import rational

Rational = Union[int, Fraction]

# Largest radicand p*q that Surd.sqrt factors for a rational p/q: the split
# trial-divides up to the cube root, some 2.3 million odd divisors at 10^20.
RADICAND_BUDGET = 10**20

_ZERO = Fraction(0)


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s^2 * d and d square-free (n >= 0).

    Trial division stops once p^3 > m: the cofactor m then has at most two
    prime factors, so it is square-free unless it is a perfect square.
    No sign check: ``Surd.sqrt``, the one caller, rejects x < 0 first, and
    a negative n would still raise ValueError from ``isqrt``."""
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


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d) for rationals a, b and an integer d >= 0 that is
    no perfect square unless b = 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    # mixed signs: compare a^2 with b^2 d, never equal, since (a/b)^2 = d has
    # no rational solution when d is no perfect square
    t = a * a - b * b * d
    return (1 if t > 0 else -1) * (1 if a > 0 else -1)


class Surd(Record):
    """Immutable exact value a + b*sqrt(d), totally ordered against rationals.

    A record ordered through the base's ``_cmp`` rule, whose equality, hash
    and repr are those of the number it denotes rather than of its fields."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rational, b: Rational = 0, d: int = 0):
        """a + b*sqrt(d) for an integer d >= 0; ``Surd.sqrt`` builds one
        with square-free d from any rational.  b = 0 or a perfect square
        d = r^2 gives the rational a + b*r."""
        a = rational(a)
        b = rational(b)
        r = isqrt(d)
        if b == 0 or r * r == d:
            a, b, d = a + b * r, _ZERO, 0
        self._set(a, b, d)

    @staticmethod
    def sqrt(x: Rational) -> "Surd":
        """Exact square root of a nonnegative rational p/q; DomainError when
        p*q exceeds RADICAND_BUDGET."""
        x = rational(x)
        if x < 0:
            raise ValueError("square root of a negative rational")
        # sqrt(p/q) = sqrt(p*q)/q = s*sqrt(d)/q
        n = x.numerator * x.denominator
        if n > RADICAND_BUDGET:
            raise DomainError("square root of a rational p/q with p*q over "
                              "the radicand budget of 10^20")
        s, d = _squarefree_split(n)
        return Surd(_ZERO, Fraction(s, x.denominator), d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __sub__(self, other) -> "Surd":
        """a - q + b*sqrt(d) for an int or Fraction q, the radicand kept;
        NotImplemented for any other operand, surds included."""
        if isinstance(other, (int, Fraction)):
            return Surd(self.a - other, self.b, self.d)
        return NotImplemented

    def _cmp(self, other) -> Optional[int]:
        """Sign of self - other, for an int, a Fraction or a surd of any
        radicand; None for any other operand, which is not compared.  No
        surd is built.

        With other = c + f*sqrt(e): when f = 0 or e = d, self - other is
        (a - c) + (b - f)*sqrt(d).  Otherwise it is X - Y with
        X = (a - c) + b*sqrt(d) and Y = f*sqrt(e), f != 0.  X - Y has the
        sign of X when the signs of X and Y differ; otherwise it has that
        common sign times the sign of X^2 - Y^2, which is
        (p^2 + b^2 d - f^2 e) + 2pb*sqrt(d) for p = a - c."""
        if isinstance(other, Surd):
            c, f, e = other.a, other.b, other.d
        elif isinstance(other, (int, Fraction)):
            c, f, e = other, 0, 0
        else:
            return None
        p, b, d = self.a - c, self.b, self.d
        if f == 0 or e == d:
            return _sign(p, b - f, d)
        sx, sy = _sign(p, b, d), (1 if f > 0 else -1)
        if sx != sy:
            return 1 if sx > sy else -1
        return sx * _sign(p * p + b * b * d - f * f * e, 2 * p * b, d)

    def __hash__(self):
        # equal irrational surds share a, b^2*d and the sign of b
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b * self.b * self.d, self.b > 0))

    def __repr__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        return f"{self.a} + {self.b}*sqrt({self.d})"
