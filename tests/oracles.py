"""Independent second implementations that the tests check the library
against.  They are not part of the library: each one computes a result the
library computes by a different route."""

from fractions import Fraction
from typing import Optional

from tiltwall import (ChargeValue, NumClass, Region, Wall, chi_p3, chi_pair_p3,
                      tensor_line)
from tiltwall.numclass import dual
from tiltwall.walls import _clip, _region_ends, _wall_window

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


def tensor_line_rat(v: NumClass, m: Fraction) -> NumClass:
    """Multiply the character polynomial by the degree-3 truncation of
    e^{m*H}, term by term in Fraction arithmetic."""
    return NumClass(
        v.v0,
        v.v1 + m * v.v0,
        v.v2 + m * v.v1 + m * m / 2 * v.v0,
        v.v3 + m * v.v2 + m * m / 2 * v.v1 + m ** 3 / 6 * v.v0,
    )


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
    window = _wall_window(A, B, C, _region_ends(region))
    return window is not None and _clip(
        A, B, C, window, ((-w.v0, w.v1, True),
                          (w.v0 - v.v0, v.v1 - w.v1, True))) is not None


def scan_candidates_exhaustive(P0: int, P1: int, T2: int, R: int, DS: int,
                    w0_lo: int, w0_hi: int,
                    bln: int, bld: int, bhn: int, bhd: int) -> list[tuple[int, int, int]]:
    """The integer scan with no row filter: every w1 of the Im-window
    range of each w0 is visited, and its t-interval taken exactly.  The
    library's scan must return this list, order included."""
    out: list[tuple[int, int, int]] = []
    R2 = R * R
    Dd = bld * bhd
    DD = R * Dd
    for w0 in range(w0_lo, w0_hi + 1):
        if w0 == 0 and P0 == 0:
            continue
        Rw0 = R * w0
        # w1 window from the Im prefilter, evaluated at the beta endpoints
        m1 = bln * w0 * bhd
        m2 = bhn * w0 * bld
        mmin = m1 if m1 < m2 else m2
        w1_lo = mmin // Dd + 1
        u1 = bln * bhd * (Rw0 - P0)
        u2 = bhn * bld * (Rw0 - P0)
        umax = u1 if u1 > u2 else u2
        Uv = P1 * Dd + umax
        w1_hi = (Uv - 1) // DD
        M = P0 - Rw0
        MT2 = M * T2
        # t is bounded by c*t <= b for (c, b) = (w0, w1^2) (disc(w) >= 0),
        # (c2, b2) (disc(v-w) >= 0) and (c3, b3) (the DS budget); the c
        # are fixed for this w0, and w1^2 >= 0 makes w0 = 0 no constraint.
        # c2 + c3 = -R^2 w0 has the sign of -w0, and c3 = -c2 when w0 = 0
        # (then P0 != 0), so there is always an upper and a lower bound.
        c2 = -M * R
        c3 = -c2 - R2 * w0
        for w1 in range(w1_lo, w1_hi + 1):
            N = P1 - R * w1
            b1 = w1 * w1
            b2 = N * N - MT2
            b3 = DS - R2 * b1 - b2
            tlo = thi = None
            if w0 > 0:
                thi = b1 // w0
            elif w0 < 0:
                tlo = -(b1 // -w0)
            if c2 > 0:
                q = b2 // c2
                if thi is None or q < thi:
                    thi = q
            elif c2 < 0:
                q = -(b2 // -c2)
                if tlo is None or q > tlo:
                    tlo = q
            elif b2 < 0:
                continue
            if c3 > 0:
                q = b3 // c3
                if thi is None or q < thi:
                    thi = q
            elif c3 < 0:
                q = -(b3 // -c3)
                if tlo is None or q > tlo:
                    tlo = q
            elif b3 < 0:
                continue
            # the run of t = w1 (mod 2) in [tlo, thi], in increasing order
            t = tlo + ((w1 - tlo) % 2)
            while t <= thi:
                out.append((w0, w1, t))
                t += 2
    return out
