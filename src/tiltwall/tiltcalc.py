"""Slopes, twisted characters, central charges, the generalized discriminant,
the Bogomolov-Gieseker margin and quadratic form, the slope-beta curve of a
class, and the parameter-plane reduction transforms.

Everything is exact: parameters are rational, the only irrationalities are
square roots of the discriminant, kept as quadratic surds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .errors import DomainError
from .numclass import NumClass, twist_components
from .surd import Surd


@dataclass(frozen=True)
class ParamPoint:
    """Point (beta, alpha) of the half-plane U = {alpha > beta^2/2}.

    Every ParamPoint is in U: the constructor raises DomainError when
    omega^2 = 2*alpha - beta^2 <= 0, so no function taking one checks
    again."""

    beta: Fraction
    alpha: Fraction

    def __init__(self, beta, alpha):
        beta, alpha = Fraction(beta), Fraction(alpha)
        if 2 * alpha - beta * beta <= 0:
            raise DomainError(f"({beta}, {alpha}) is not in U")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)

    @property
    def omega_sq(self) -> Fraction:
        """2*alpha - beta^2, positive."""
        return 2 * self.alpha - self.beta * self.beta


class Slope:
    """A finite rational slope or the distinguished +infinity."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[Fraction]):
        self.value = None if value is None else Fraction(value)

    INFINITY: "Slope"

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def _key(self):
        return (1,) if self.is_infinite else (0, self.value)

    def __eq__(self, other):
        other = other if isinstance(other, Slope) else Slope(other)
        return self._key() == other._key()

    def __lt__(self, other):
        other = other if isinstance(other, Slope) else Slope(other)
        return self._key() < other._key()

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "oo" if self.is_infinite else str(self.value)


Slope.INFINITY = Slope(None)


@dataclass(frozen=True)
class ChargeValue:
    """Exact (Re, Im) of a central-charge evaluation."""

    re: Fraction
    im: Fraction

    def __init__(self, re, im):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))


def twisted_v(v: NumClass, beta) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Twisted components (v0^b, v1^b, v2^b, v3^b): pairings of ch * e^{-beta H}."""
    return twist_components(v, -Fraction(beta))


def slope_mu(v: NumClass) -> Slope:
    """Classical slope v1/v0, infinite in rank zero."""
    if v.v0 == 0:
        return Slope.INFINITY
    return Slope(v.v1 / v.v0)


def tilt_slope_nu(v: NumClass, p: ParamPoint) -> Slope:
    """Tilt slope (v2 - alpha v0)/(v1 - beta v0); +infinity when the
    denominator vanishes (the Im Z = 0 convention, including 0/0)."""
    den = v.v1 - p.beta * v.v0
    if den == 0:
        return Slope.INFINITY
    return Slope((v.v2 - p.alpha * v.v0) / den)


def discriminant(v: NumClass) -> Fraction:
    """Generalized discriminant v1^2 - 2 v0 v2 (twist-invariant)."""
    return v.v1 * v.v1 - 2 * v.v0 * v.v2


def central_charge_2(v: NumClass, p: ParamPoint) -> ChargeValue:
    """Rank-two charge -v2 + alpha v0 + i (v1 - beta v0)."""
    return ChargeValue(-v.v2 + p.alpha * v.v0, v.v1 - p.beta * v.v0)


def central_charge_3(v: NumClass, p: ParamPoint, a) -> ChargeValue:
    """Degree-three charge -v3^b + a v1^b + i (v2^b - (alpha - beta^2/2) v0^b)."""
    a = Fraction(a)
    _, v1b, v2b, v3b = twisted_v(v, p.beta)
    return ChargeValue(-v3b + a * v1b, v2b - (p.alpha - p.beta * p.beta / 2) * v.v0)


def bg_margin(v: NumClass, p: ParamPoint) -> Fraction:
    """((2 alpha - beta^2)/6) v1^b - v3^b.

    The numerical Bogomolov-Gieseker inequality for a slope-beta
    tilt-semistable class holds iff this is >= 0.  Whether nu(v) actually
    equals beta at p is reported by bg_margin_meaningful, not enforced.
    """
    _, v1b, _, v3b = twisted_v(v, p.beta)
    return p.omega_sq / 6 * v1b - v3b


def bg_margin_meaningful(v: NumClass, p: ParamPoint) -> bool:
    """True iff nu(v) = beta at p, the hypothesis under which the margin
    expresses the conjectural inequality."""
    return tilt_slope_nu(v, p) == Slope(p.beta)


def quadratic_form_Q(v: NumClass, p: ParamPoint) -> Fraction:
    """omega^2 * disc + 4 (v2^b)^2 - 6 v3^b v1^b."""
    _, v1b, v2b, v3b = twisted_v(v, p.beta)
    return p.omega_sq * discriminant(v) + 4 * v2b * v2b - 6 * v3b * v1b


# --- the curve where nu = beta ------------------------------------------------

@dataclass(frozen=True)
class CurveCE:
    """The locus nu^{beta,alpha} = beta inside U for a fixed class.

    kind "parabola": alpha = beta^2 - (v1/v0) beta + v2/v0, restricted to
    v1 > beta v0; kind "vertical": the line beta = v2/v1; kind "empty".
    """

    kind: str  # "parabola" | "vertical" | "empty"
    # parabola: alpha = beta^2 + lin*beta + const
    lin: Optional[Fraction] = None
    const: Optional[Fraction] = None
    # +1 when the constraint is beta < v1/v0 (v0 > 0), -1 for beta > v1/v0
    direction: Optional[int] = None
    beta0: Optional[Fraction] = None  # vertical line abscissa

    def alpha_at(self, beta) -> Fraction:
        if self.kind != "parabola":
            raise DomainError("alpha_at is defined for parabola curves only")
        b = Fraction(beta)
        return b * b + self.lin * b + self.const

    def is_empty(self) -> bool:
        return self.kind == "empty"


def curve_CE(v: NumClass) -> CurveCE:
    if v.v0 == 0:
        if v.v1 <= 0:
            return CurveCE("empty")
        return CurveCE("vertical", beta0=v.v2 / v.v1)
    if discriminant(v) < 0:
        return CurveCE("empty")
    return CurveCE(
        "parabola",
        lin=-v.v1 / v.v0,
        const=v.v2 / v.v0,
        direction=1 if v.v0 > 0 else -1,
    )


def curve_endpoint(v: NumClass) -> Union[Fraction, Surd]:
    """Boundary abscissa of the curve: mu1 of ``mu12``, (v1 -+ sqrt(disc))/v0,
    or v2/v1 in rank zero; exact, a surd when the discriminant is not a
    square."""
    c = curve_CE(v)
    if c.is_empty():
        raise DomainError("class has an empty curve")
    if c.kind == "vertical":
        return c.beta0
    return mu12(v)[0]


def alpha_E_beta(v: NumClass, beta) -> Fraction:
    """alpha on the class's parabola at the given beta."""
    if v.v0 == 0:
        raise DomainError("alpha_E_beta needs nonzero rank")
    b = Fraction(beta)
    return b * b - v.v1 / v.v0 * b + v.v2 / v.v0


def mu12(v: NumClass) -> tuple[Union[Fraction, Surd], Union[Fraction, Surd]]:
    """(mu1, mu2) = mu -+ sqrt(disc)/v0, exact."""
    if v.v0 == 0:
        raise DomainError("mu12 needs nonzero rank")
    disc = discriminant(v)
    if disc < 0:
        raise DomainError("mu12 needs nonnegative discriminant")
    mu = Fraction(v.v1, 1) / v.v0
    root = Surd.sqrt(disc) / v.v0
    lo, hi = mu - root, mu + root
    if v.v0 < 0:
        lo, hi = hi, lo
    lo = lo.as_fraction() if lo.is_rational else lo
    hi = hi.as_fraction() if hi.is_rational else hi
    return lo, hi


# --- parameter-plane transforms ----------------------------------------------

def shift_transform(p: ParamPoint, n: int) -> ParamPoint:
    """(beta, alpha) -> (beta + n, alpha + n beta + n^2/2); preserves omega^2."""
    n = Fraction(n)
    return ParamPoint(p.beta + n, p.alpha + n * p.beta + n * n / 2)


def dual_transform(p: ParamPoint) -> ParamPoint:
    """(beta, alpha) -> (-beta, alpha)."""
    return ParamPoint(-p.beta, p.alpha)


@dataclass(frozen=True)
class ReduceResult:
    point: ParamPoint
    log: tuple[str, ...] = field(default_factory=tuple)


def reduce_to_fundamental(p: ParamPoint) -> ReduceResult:
    """Move p to the fundamental strip beta in [-1/2, 0] by a line-bundle
    twist and, if needed, the dual transform; the log replays the steps."""
    log: list[str] = []
    # unique n with beta + n in [-1/2, 1/2)
    n = math.ceil(Fraction(-1, 2) - p.beta)
    q = p
    if n != 0:
        q = shift_transform(q, n)
        log.append(f"shift:{n}")
    if q.beta > 0:
        q = dual_transform(q)
        log.append("dual")
    return ReduceResult(q, tuple(log))


def min_positive_v1beta(beta) -> Fraction:
    """Minimum of {v1 - beta v0 > 0 | (v0, v1) integers} = 1/q for beta = p/q."""
    b = Fraction(beta)
    return Fraction(1, b.denominator)
