"""Independent second implementations that the tests check the library
against.  They are not part of the library: each one computes a result the
library computes by a different route."""

from fractions import Fraction
from math import lcm
from typing import Optional

from tiltwall import (ChargeValue, CheckReport, CollectionSpec, NumClass,
                      ParamPoint, Region, Wall, alpha_E_beta, central_charge_3,
                      chi_p3, chi_pair_p3, mu12, simples_classes, slope_mu,
                      tensor_line, tilt_slope_nu, twisted_v)
from tiltwall.errors import InputError, quote_token
from tiltwall.heartgate import Condition
from tiltwall.numclass import DIGIT_BUDGET, dual

Q = Fraction


def wall_between_fraction(v: NumClass, w: NumClass) -> Optional[Wall]:
    """The wall nu(v) = nu(w) from its rational coefficients
    A = w0 v1 - v0 w1, B = w2 v0 - v2 w0, C = v2 w1 - w2 v1, made integral
    by the lcm of their denominators and normalized by ``Wall``'s rules;
    None when A and B vanish, where C = 0 holds everywhere or nowhere."""
    A = w.v0 * v.v1 - v.v0 * w.v1
    B = w.v2 * v.v0 - v.v2 * w.v0
    C = v.v2 * w.v1 - w.v2 * v.v1
    if A == 0 and B == 0:
        return None
    return wall_from_coefficients(A, B, C)


def delta_pairing(a: NumClass, b: NumClass) -> Fraction:
    """The bilinear form of Delta = ch1^2 - 2*ch0*ch2, a1*b1 - a0*b2 -
    a2*b0, so that Delta(a + b) = Delta(a) + Delta(b) + 2*Delta(a, b)."""
    return a.v1 * b.v1 - a.v0 * b.v2 - a.v2 * b.v0


def delta_zero_class(k, x, y) -> NumClass:
    """k*(1, x, x^2/2, y), of Delta = k^2*(x^2 - 2*x^2/2) = 0: for y = x^3/6
    the character of k*O(x)."""
    x, y = Fraction(x), Fraction(y)
    return NumClass(k, k * x, k * x * x / 2, k * y)


def wall_from_coefficients(A, B, C) -> Wall:
    """The wall A*alpha + B*beta + C = 0 of rational coefficients, made
    integral by the lcm of their denominators."""
    A, B, C = Fraction(A), Fraction(B), Fraction(C)
    scale = lcm(A.denominator, B.denominator, C.denominator)
    return Wall(int(A * scale), int(B * scale), int(C * scale))


def collection_json(spec: CollectionSpec) -> dict:
    """The JSON object that ``CollectionSpec.from_json_dict`` reads back as
    spec: its names, and each class's components as strings."""
    return {"names": list(spec.names),
            "classes": [[str(c) for c in v.components()] for v in spec.classes]}


def parse_rational_by_fraction(tok: str) -> Fraction:
    """Every literal through ``Fraction(str)``: the digit budget counted on
    the text (mantissa digits plus |exponent|), then the string parsed by
    the running Python's own grammar, and a ValueError or
    ZeroDivisionError reported as a bad literal."""
    mantissa, _, exponent = tok.lower().partition("e")
    size = sum(map(str.isdecimal, mantissa))
    if exponent:
        try:
            size += abs(int(exponent))
        except ValueError:
            size += len(exponent)
    if size > DIGIT_BUDGET:
        raise InputError(f"rational literal over the budget of {DIGIT_BUDGET} "
                         "digits (mantissa digits plus |exponent|)")
    try:
        return Fraction(tok.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {quote_token(tok)}") from exc


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


def _left_of_origin(z: ChargeValue) -> bool:
    """Condition (4) on one charge, written apart from the library's
    ``strictly_left``: Re < 0, or Re = 0 and Im < 0."""
    return z.re < 0 or (z.re == 0 and z.im < 0)


def condition_check_by_charges(spec: CollectionSpec, beta, a0) -> CheckReport:
    """``general_condition_check`` with condition (4) on the charges
    ``central_charge_3`` gives the classes of ``simples_classes``."""
    beta, a0 = Fraction(beta), Fraction(a0)
    point, conds, t = _static_conditions_by_charges(spec, beta)
    charges = [central_charge_3(s, point, a0) for s in simples_classes(spec)]
    conds.append(Condition("(4) simples charges strictly left",
                           all(map(_left_of_origin, charges)), Q(0)))
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
        elif v1b == 0 and not _left_of_origin(z):
            return None
    if lower is None or lower >= upper:
        return None
    return lower, upper


def _clip_interval(A, B, C, window, constraints):
    """Cut the beta interval ``window`` = (lo, lo_strict, hi, hi_strict) by
    linear constraints (c, d, strict), each meaning c*beta + d > 0 (>= 0 if
    not strict), and return the result, or None when it is empty or, on a
    non-vertical wall, q = A beta^2 + 2B beta + 2C >= 0 on all of it.  An
    end is a pair (n, m) for n/m with m > 0.  q is convex, so it is
    negative somewhere on a nonempty interval iff it is negative at the
    vertex -B/A clamped into the interval's closure."""
    (ln, ld), lo_strict, (hn, hd), hi_strict = window
    for c, d, strict in constraints:
        if c == 0:
            if d < 0 or (strict and d == 0):
                return None
            continue
        if c > 0:  # beta > -d/c
            s = ln * c + d * ld  # sign of lo - (-d/c)
            if s < 0:
                ln, ld, lo_strict = -d, c, strict
            elif s == 0:
                lo_strict = lo_strict or strict
        else:  # beta < d/(-c)
            s = hn * c + d * hd  # sign of (-d/c) - hi
            if s < 0:
                hn, hd, hi_strict = d, -c, strict
            elif s == 0:
                hi_strict = hi_strict or strict
    s = ln * hd - hn * ld  # sign of lo - hi
    if s > 0 or (s == 0 and (lo_strict or hi_strict)):
        return None
    if A != 0:
        # the vertex -B/A clamped into [lo, hi], and the sign of m^2 q(n/m)
        n, m = -B, A
        if n * ld < ln * m:
            n, m = ln, ld
        elif n * hd > hn * m:
            n, m = hn, hd
        if (A * n + 2 * B * m) * n + 2 * C * m * m >= 0:
            return None
    return (ln, ld), lo_strict, (hn, hd), hi_strict


def wall_feasible(wall: Wall, v: NumClass, w: NumClass, region: Region) -> bool:
    """Does the wall meet region /\\ U at a point with 0 < Im Z(w) < Im Z(v)?

    Exact and rational, for any wall, v and w: the closed beta range of the
    region, cut by the alpha cap (on a vertical wall beta = beta0, by
    beta0 itself and by U under the cap), then by the two strict Im-window
    constraints w1 - beta*w0 > 0 and (v1 - w1) - beta*(v0 - w0) > 0, one
    interval of beta throughout.
    """
    A, B, C = wall.A, wall.B, wall.C
    lo, hi = region.beta_min, region.beta_max
    n, m = region.alpha_max.as_integer_ratio()
    if A == 0:
        constraints = ((B, C, False), (-B, -C, False),
                       (0, 2 * n * B * B - m * C * C, True))
    else:  # alpha(beta) <= alpha_max, times m
        constraints = ((B * m, C * m + A * n, False),)
    window = _clip_interval(A, B, C, (lo.as_integer_ratio(), False,
                                      hi.as_integer_ratio(), False), constraints)
    return window is not None and _clip_interval(
        A, B, C, window, ((-w.v0, w.v1, True),
                          (w.v0 - v.v0, v.v1 - w.v1, True))) is not None


def scan_candidates_exhaustive(P0: int, P1: int, T2: int, R: int, DS: int,
                    w0_lo: int, w0_hi: int,
                    bln: int, bld: int, bhn: int, bhd: int) -> list[tuple[int, int, int]]:
    """The integer scan with no row filter: every w1 of the Im-window
    range of each w0 is visited, and its t-interval taken exactly.  The
    library's scan must return this list, order included.  The Im
    prefilter takes a min and a max over both beta ends, and b2 < 0 is
    checked, so the loop shares neither of the scan's shortcuts."""
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
