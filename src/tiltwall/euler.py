"""Euler pairings via Hirzebruch-Riemann-Roch on P^3, the induced symmetric
pairing on the local Calabi-Yau fourfold, and the spherical-twist action on
classes.

chi(v, w) on P^3 is one bilinear form, the degree-3 part of
dual(v) * w * td(P^3), written out degree by degree.  The pairing on the
total space is its symmetrization chi(v, w) + chi(w, v); the antisymmetric
parts of chi cancel in it, which leaves 4(v0 w2 - v1 w1 + v2 w0) + 2 v0 w0,
with no v3 and no Todd 11/6 term.  The tests check both against
independent oracles (tests/oracles.py): chi through the ring product of
characters, and the two-term sum coming from restriction of the
pushforward (the wedge powers of the conormal bundle contribute the
identity class and -O(4)).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .numclass import NumClass

# Todd class of P^3 against (1, H, H^2, H^3).
TODD = (Fraction(1), Fraction(2), Fraction(11, 6), Fraction(1))


def chi_p3(v: NumClass) -> Fraction:
    """Euler characteristic: v3 + 2 v2 + (11/6) v1 + v0."""
    return v.v3 + TODD[1] * v.v2 + TODD[2] * v.v1 + TODD[0] * v.v0


def chi_pair_p3(v: NumClass, w: NumClass) -> Fraction:
    """chi(E, F) on P^3: sum over k of td_{3-k} * sum_i (-1)^i v_i w_{k-i},
    the degree-3 part of dual(E) * F * td."""
    v0, v1, v2, v3 = v.v0, v.v1, v.v2, v.v3
    w0, w1, w2, w3 = w.v0, w.v1, w.v2, w.v3
    return (v0 * w3 - v1 * w2 + v2 * w1 - v3 * w0
            + TODD[1] * (v0 * w2 - v1 * w1 + v2 * w0)
            + TODD[2] * (v0 * w1 - v1 * w0)
            + TODD[3] * v0 * w0)


def chi_local(v: NumClass, w: NumClass) -> Fraction:
    """Symmetric Euler pairing on the local P^3: chi(v, w) + chi(w, v).

    The terms of chi_pair_p3 odd under v <-> w (the degree-3 part and the
    Todd 11/6 term) cancel and the rest doubles: 4(v0 w2 - v1 w1 + v2 w0)
    + 2 v0 w0, which tests/oracles.py checks."""
    return chi_pair_p3(v, w) + chi_pair_p3(w, v)


def spherical_twist_class(s: NumClass, v: NumClass) -> NumClass:
    """Spherical-twist action on classes: v -> v - chi_local(s, v) * s.

    Requires s numerically spherical (symmetric Euler square 2).
    """
    if chi_local(s, s) != 2:
        raise DomainError(f"class {s} is not numerically spherical")
    return v - chi_local(s, v) * s
