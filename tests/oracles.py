"""Independent second implementations that the tests check the library
against.  They are not part of the library: each one computes a result the
library computes by a different route."""

from fractions import Fraction
from typing import Optional

from tiltwall import (ChargeValue, CheckReport, CollectionSpec, NumClass,
                      ParamPoint, Region, Wall, alpha_E_beta, central_charge_3,
                      chi_p3, chi_pair_p3, cone_check, mu12, simples_classes,
                      slope_mu, tensor_line, tilt_slope_nu, twisted_v)
from tiltwall.heartgate import Condition
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


def chi_local_hrr_sum(v: NumClass, w: NumClass) -> Fraction:
    """chi_local as the symmetrized HRR pairing chi(v, w) + chi(w, v), two
    full chi_pair_p3 evaluations: the sum its closed form is derived from."""
    return chi_pair_p3(v, w) + chi_pair_p3(w, v)


def chi_local_closed_form(v: NumClass, w: NumClass) -> Fraction:
    """chi_local without chi: in chi(v, w) + chi(w, v) the antisymmetric
    terms cancel, so there is no v3 and no Todd 11/6 term."""
    return 4 * (v.v0 * w.v2 - v.v1 * w.v1 + v.v2 * w.v0) + 2 * v.v0 * w.v0


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


def _verdict(name, residual, strict=True) -> Condition:
    return Condition(name, bool(residual > 0 if strict else residual >= 0),
                     residual, strict)


def _static_conditions_by_charges(spec: CollectionSpec, beta: Fraction):
    """Conditions (1)-(3) with nu from ``tilt_slope_nu`` and each member
    twisted where it is used, and the point and the gate value t."""
    E = spec.distinguished
    point = ParamPoint(beta, alpha_E_beta(E, beta))
    F0, F1, F2, _ = spec.classes
    mu = [slope_mu(c).value for c in spec.classes]
    conds = [_verdict("(1) beta < mu1(E)", mu12(E)[0] - beta),
             _verdict("(1) beta > mu(F0)", beta - mu[0])]
    nu0 = tilt_slope_nu(F0, point)
    if nu0.is_infinite:
        conds.append(Condition("(1) F0 slope inequality", False, Q(0)))
    else:
        conds.append(_verdict("(1) (v2(F0)-alpha*v0(F0))/v1^b(F0) < beta",
                              beta - nu0.value))
    if mu[0] < beta < mu[1]:
        conds.append(_verdict("(2) mu(F0)<beta<mu(F1) and F1 inequality",
                              beta - tilt_slope_nu(F1, point).value))
    elif mu[1] <= beta <= mu[2]:
        conds.append(Condition("(2) mu(F1)<=beta<=mu(F2)", True, Q(0), False))
    elif mu[2] < beta < mu[3]:
        conds.append(_verdict("(2) mu(F2)<beta<mu(F3) and F2 inequality",
                              tilt_slope_nu(F2, point).value - beta))
    else:
        conds.append(Condition("(2) beta outside (mu(F0), mu(F3))", False, Q(0)))
    _, e_v1b, _, e_v3b = twisted_v(E, beta)
    t = e_v3b / e_v1b
    for name, F, want_less in (("F0", F0, True), ("F1", F1, False), ("F2", F2, True)):
        _, v1b, _, v3b = twisted_v(F, beta)
        resid = t * v1b - v3b if want_less else v3b - t * v1b
        op = "<" if want_less else ">"
        conds.append(_verdict(f"(3) v3^b({name}) {op} t*v1^b({name})", resid))
    return point, conds, t


def condition_check_by_charges(spec: CollectionSpec, beta, a0) -> CheckReport:
    """``general_condition_check`` with condition (4) on the charges
    ``central_charge_3`` gives the classes of ``simples_classes``."""
    beta, a0 = Fraction(beta), Fraction(a0)
    point, conds, t = _static_conditions_by_charges(spec, beta)
    charges = [central_charge_3(s, point, a0) for s in simples_classes(spec)]
    conds.append(Condition("(4) simples charges strictly left",
                           cone_check(charges, mode="strict-left"), Q(0)))
    conds.append(_verdict("gate a0 < v3^b(E)/v1^b(E)", t - a0))
    notes = ()
    if spec.builtin == "custom":
        notes = ("categorical exceptionality of a custom collection is not verified",)
    return CheckReport(tuple(conds), notes=notes)


def interval_by_charges(spec: CollectionSpec, beta) -> Optional[tuple[Fraction, Fraction]]:
    """``admissible_a_interval`` with each simple's bound -Re Z_0(s)/v1^b(s)
    from ``central_charge_3`` of its class."""
    beta = Fraction(beta)
    point, conds, upper = _static_conditions_by_charges(spec, beta)
    if not all(c.passed for c in conds):
        return None
    lower = None
    for s in simples_classes(spec):
        z = central_charge_3(s, point, 0)
        v1b = s.v1 - beta * s.v0
        if v1b < 0:
            bound = -z.re / v1b
            lower = bound if lower is None else max(lower, bound)
        elif v1b == 0 and not cone_check((z,), mode="strict-left"):
            return None
    if lower is None or lower >= upper:
        return None
    return lower, upper


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
