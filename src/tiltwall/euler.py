"""Euler pairings via Hirzebruch-Riemann-Roch on P^3, the induced symmetric
pairing on the local Calabi-Yau fourfold, and the spherical-twist action on
classes.

The pairing on the total space is obtained from the P^3 pairing in two
independent ways that are cross-checked in the tests: the symmetric closed
form chi(v, w) + chi(w, v), and the two-term sum coming from restriction of
the pushforward (the wedge powers of the conormal bundle contribute the
identity class and -O(4)).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .numclass import NumClass, dual, tensor_line

# Todd class of P^3 against (1, H, H^2, H^3).
TODD = (Fraction(1), Fraction(2), Fraction(11, 6), Fraction(1))


def chi_p3(v: NumClass) -> Fraction:
    """Euler characteristic: v3 + 2 v2 + (11/6) v1 + v0."""
    return v.v3 + TODD[1] * v.v2 + TODD[2] * v.v1 + TODD[0] * v.v0


def product(v: NumClass, w: NumClass) -> NumClass:
    """Truncated ring product of characters (Picard rank 1)."""
    a, b = v.components(), w.components()
    return NumClass(
        a[0] * b[0],
        a[0] * b[1] + a[1] * b[0],
        a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
        a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0],
    )


def chi_pair_p3(v: NumClass, w: NumClass) -> Fraction:
    """chi(E, F) on P^3 computed as chi of dual(E) * F."""
    return chi_p3(product(dual(v), w))


def chi_local(v: NumClass, w: NumClass) -> Fraction:
    """Symmetric Euler pairing on the local P^3: chi(v, w) + chi(w, v)."""
    return chi_pair_p3(v, w) + chi_pair_p3(w, v)


def chi_local_restriction_form(v: NumClass, w: NumClass) -> Fraction:
    """Independent form of chi_local from the pushforward restriction:
    chi(v, w) - chi(v tensor O(4), w)."""
    return chi_pair_p3(v, w) - chi_pair_p3(tensor_line(v, 4), w)


def spherical_twist_class(s: NumClass, v: NumClass) -> NumClass:
    """Spherical-twist action on classes: v -> v - chi_local(s, v) * s.

    Requires s numerically spherical (symmetric Euler square 2).
    """
    if chi_local(s, s) != 2:
        raise DomainError(f"class {s} is not numerically spherical")
    return v - chi_local(s, v) * s
