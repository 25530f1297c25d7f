"""Independent second implementations that the tests check the library
against.  They are not part of the library: each one computes a result the
library computes by a different route."""

from fractions import Fraction
from typing import Optional

from tiltwall import (ChargeValue, NumClass, Region, Wall, chi_p3, chi_pair_p3,
                      tensor_line)
from tiltwall.numclass import dual
from tiltwall.walls import _clip, _wall_window

Q = Fraction


def wall_between_fraction(v: NumClass, w: NumClass) -> Optional[Wall]:
    """The wall nu(v) = nu(w) from its rational coefficients
    A = w0 v1 - v0 w1, B = w2 v0 - v2 w0, C = v2 w1 - w2 v1, made integral
    by the lcm of their denominators and normalized by ``Wall``'s rules;
    None when all three vanish."""
    A = w.v0 * v.v1 - v.v0 * w.v1
    B = w.v2 * v.v0 - v.v2 * w.v0
    C = v.v2 * w.v1 - w.v2 * v.v1
    if A == 0 and B == 0 and C == 0:
        return None
    return Wall.from_coefficients(A, B, C)


def product(v: NumClass, w: NumClass) -> NumClass:
    """Truncated ring product of characters (Picard rank 1)."""
    a, b = v.components(), w.components()
    return NumClass(
        a[0] * b[0],
        a[0] * b[1] + a[1] * b[0],
        a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
        a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0],
    )


def chi_pair_ring_product(v: NumClass, w: NumClass) -> Fraction:
    """chi(E, F) on P^3 computed as chi of dual(E) * F in the character ring."""
    return chi_p3(product(dual(v), w))


def chi_local_restriction_form(v: NumClass, w: NumClass) -> Fraction:
    """Independent form of chi_local from the pushforward restriction:
    chi(v, w) - chi(v tensor O(4), w)."""
    return chi_pair_p3(v, w) - chi_pair_p3(tensor_line(v, 4), w)


def simplecase_z_oracle(beta, a) -> tuple[ChargeValue, ...]:
    """Closed forms of the four simples' charges for the standard
    cotangent-type collection at alpha = beta^2; an independent oracle for
    the central-charge path."""
    b = Fraction(beta)
    a = Fraction(a)
    z0 = ChargeValue(b ** 3 / 6 - a * b, 0)
    z1 = ChargeValue(
        -b ** 3 / 2 - b ** 2 / 2 + b / 2 - Q(1, 6) + a * (3 * b + 1),
        -b + Q(1, 2),
    )
    z2 = ChargeValue(b ** 3 / 2 + b ** 2 - Q(2, 3) - a * (3 * b + 2), 2 * b)
    z3 = ChargeValue(
        -b ** 3 / 6 - b ** 2 / 2 - b / 2 - Q(1, 6) + a * (b + 1),
        -b - Q(1, 2),
    )
    return (z0, z1, z2, z3)


def wall_feasible(wall: Wall, v: NumClass, w: NumClass, region: Region) -> bool:
    """Does the wall meet region /\\ U at a point with 0 < Im Z(w) < Im Z(v)?

    Exact and rational: the wall's window, cut by the two strict Im-window
    constraints w1 - beta*w0 > 0 and (v1 - w1) - beta*(v0 - w0) > 0.
    """
    A, B, C = wall.A, wall.B, wall.C
    window = _wall_window(A, B, C, region)
    return window is not None and _clip(
        A, B, C, window, ((-w.v0, w.v1, True),
                          (w.v0 - v.v0, v.v1 - w.v1, True))) is not None
