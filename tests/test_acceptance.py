"""Acceptance gate: one test per criterion, each emitting a single
pass/fail line with its stated tolerance (exact arithmetic everywhere, so
every tolerance is 0; timed criteria also report runtime)."""

import random
import sys
import time
from fractions import Fraction
from math import gcd, isqrt

import sympy

from tiltwall import (ChargeValue, CollectionSpec, NumClass, ParamPoint,
                      admissible_a_interval, bg_margin, central_charge_3,
                      chi_local, chi_p3, class_of_line_bundle, class_of_named,
                      curve_CE, discriminant, dual_shifted, dual_transform,
                      min_positive_v1beta, pi_point, quadratic_form_Q,
                      shift, shift_transform, simples_classes, slope_mu,
                      spherical_twist_class, tensor_line, tilt_slope_nu,
                      twisted_v, wall_between, passes_through)
from tiltwall import thm_region_check
from tiltwall.cli import run as cli_run

from conftest import lattice_class
from oracles import simplecase_z_oracle

Q = Fraction
POINT = NumClass(0, 0, 0, 1)


def report(number: int, name: str, passed: bool, tolerance="0", runtime=None):
    extra = f", runtime {runtime:.3f}s" if runtime is not None else ""
    line = (f"[ACCEPTANCE {number}] {name}: "
            f"{'PASS' if passed else 'FAIL'} (tolerance {tolerance}{extra})")
    print(line, file=sys.stderr)
    assert passed, line


def random_integral_class(rng) -> NumClass:
    while True:
        coeffs = tuple(rng.randint(-4, 4) for _ in range(4))
        if any(coeffs):
            return lattice_class(coeffs)


def random_point_in_U(rng) -> ParamPoint:
    beta = Q(rng.randint(-30, 30), rng.randint(1, 10))
    alpha = beta * beta / 2 + Q(rng.randint(1, 40), rng.randint(1, 10))
    return ParamPoint(beta, alpha)


def test_criterion_1_first_collection_closed_form_charges():
    start = time.perf_counter()
    rng = random.Random(101)
    spec = CollectionSpec.builtin_by_name("beilinson4")
    simples = simples_classes(spec)
    ok = True
    done = 0
    while done < 50:
        b = Q(-rng.randint(0, 50), 100)
        w2 = Q(rng.randint(1, 24), 100)  # omega^2 in (0, 1/4)
        a_param = (w2 + b * b) / 2
        p = ParamPoint(b, a_param)
        if not thm_region_check(b, a_param).passed:
            continue
        done += 1
        a0 = w2 / 6
        got = tuple(central_charge_3(s, p, a0) for s in simples)
        f0 = (2 * b * b - 2 * b + 1 - 2 * a_param) / 2
        f3 = (2 * b * b + 2 * b + 1 - 2 * a_param) / 2
        want = (
            ChargeValue(f0 * (b - 1) / 3, f0),
            ChargeValue((a_param - b * b) * b / 3, a_param - b * b),
            ChargeValue(b ** 3 / 2 + b * b - Q(2, 3) - a0 * (3 * b + 2),
                        3 * b * b + 2 * b - 3 * a_param),
            ChargeValue(-f3 * (b + 1) / 3, -f3),
        )
        ok = ok and got == want
    runtime = time.perf_counter() - start
    report(1, "closed-form charges of the first collection's simples",
           ok and runtime < 1.0, runtime=runtime)


def test_criterion_2_second_collection_closed_form_charges():
    start = time.perf_counter()
    rng = random.Random(102)
    spec = CollectionSpec.builtin_by_name("omega")
    simples = simples_classes(spec)
    ok = True
    for _ in range(100):
        b = Q(-rng.randint(1, 49), 100)
        a = Q(rng.randint(-40, 40), rng.randint(1, 12))
        p = ParamPoint(b, b * b)
        got = tuple(central_charge_3(s, p, a) for s in simples)
        ok = ok and got == simplecase_z_oracle(b, a)
        a0 = (3 * b ** 3 + 6 * b * b - 4) / (6 * (3 * b + 2))
        z = simplecase_z_oracle(b, a0)
        ok = ok and z[2].re == 0
        ok = ok and z[1].re == \
            (b + 2) * (b - 1) * (2 * b + 1) / (2 * (3 * b + 2))
    runtime = time.perf_counter() - start
    report(2, "closed-form charges of the second collection's simples",
           ok and runtime < 1.0, runtime=runtime)


def _symbolic_margin(v0, v1, v2, v3, b, al):
    w2 = 2 * al - b ** 2
    v1b = v1 - b * v0
    v3b = v3 - b * v2 + b ** 2 / 2 * v1 - b ** 3 / 6 * v0
    return w2 / 6 * v1b - v3b


def test_criterion_3_reduction_equivariance():
    # symbolic pre-verification of both identities
    v0, v1, v2, v3, b, al = sympy.symbols("v0 v1 v2 v3 b al")
    base = _symbolic_margin(v0, v1, v2, v3, b, al)
    dual = _symbolic_margin(-v0, v1, -v2, v3, -b, al)
    shifted = _symbolic_margin(
        v0, v1 + v0, v2 + v1 + v0 / 2, v3 + v2 + v1 / 2 + v0 / 6,
        b + 1, al + b + sympy.Rational(1, 2))
    symbolic_ok = (sympy.simplify(dual - base) == 0
                   and sympy.simplify(shifted - base) == 0)

    rng = random.Random(103)
    ok = symbolic_ok
    for _ in range(100):
        v = random_integral_class(rng)
        p = random_point_in_U(rng)
        m = bg_margin(v, p)
        ok = ok and bg_margin(tensor_line(v, 1), shift_transform(p, 1)) == m
        ok = ok and bg_margin(dual_shifted(v), dual_transform(p)) == m
    report(3, "margin equivariance under twist-shift and dual transforms", ok)


def test_criterion_4_curve_inequality_equivalence():
    rng = random.Random(104)
    ok = True
    checked = 0
    while checked < 100:
        v = random_integral_class(rng)
        c = curve_CE(v)
        if c.is_empty():
            continue
        if c.kind == "vertical":
            beta = c.beta0
            alpha = beta * beta / 2 + Q(rng.randint(1, 9), 10)
            lhs = v.v3 - v.v2 * v.v2 / (2 * v.v1)
            rhs = (2 * alpha - beta * beta) / 6 * v.v1
        else:
            # pick beta safely inside the branch: beyond both roots of
            # omega^2 along the curve, which are bounded by |v1|+isqrt(disc)+1
            d = discriminant(v)
            bound = abs(v.v1) + isqrt(d.numerator // d.denominator + 1) + 2
            step = Q(rng.randint(1, 30), 7)
            beta = -bound - step if c.direction == 1 else bound + step
            alpha = c.alpha_at(beta)
            if 2 * alpha <= beta * beta:
                continue
            lhs = beta * discriminant(v) / v.v0
            rhs = v.v2 * v.v1 / v.v0 - 3 * v.v3
        margin = bg_margin(v, ParamPoint(beta, alpha))
        # the case-split inequality lhs <= rhs must hold iff margin >= 0,
        # with equality matching exactly
        ok = ok and ((margin >= 0) == (lhs <= rhs))
        ok = ok and ((margin == 0) == (lhs == rhs))
        checked += 1
    report(4, "curve-restricted inequality matches the margin sign", ok)


def test_criterion_5_wall_geometry():
    rng = random.Random(105)
    ok = True
    done_pi = done_flat = 0
    while done_pi < 200:
        v = random_integral_class(rng)
        w = random_integral_class(rng)
        wall = wall_between(v, w)
        if wall is None or v.v0 == 0:
            continue
        ok = ok and passes_through(wall, pi_point(v))
        done_pi += 1
    while done_flat < 200:
        v = random_integral_class(rng)
        v = NumClass(0, v.v1, v.v2, v.v3)
        if v.v1 == 0:
            continue
        wall = wall_between(v, random_integral_class(rng))
        if wall is None:
            continue
        if wall.A != 0:
            ok = ok and wall.slope() == v.v2 / v.v1
        done_flat += 1
    # three-point collinearity oracle
    done = 0
    while done < 50:
        v = random_integral_class(rng)
        w = random_integral_class(rng)
        wall = wall_between(v, w)
        if wall is None or wall.A == 0:
            continue
        pts = []
        for k in range(-40, 41):
            beta = Q(k, 7)
            coeff = w.v0 * v.v1 - v.v0 * w.v1
            if coeff == 0:
                break
            alpha = (w.v2 * (v.v1 - beta * v.v0)
                     - v.v2 * (w.v1 - beta * w.v0)) / coeff
            if (alpha > beta * beta / 2
                    and v.v1 - beta * v.v0 != 0
                    and w.v1 - beta * w.v0 != 0):
                pts.append((beta, alpha))
            if len(pts) == 3:
                break
        if len(pts) < 3:
            continue
        for beta, alpha in pts:
            p = ParamPoint(beta, alpha)
            ok = ok and tilt_slope_nu(v, p) == tilt_slope_nu(w, p)
            ok = ok and passes_through(wall, (beta, alpha))
        (b1, a1), (b2, a2), (b3, a3) = pts
        ok = ok and (b2 - b1) * (a3 - a1) == (b3 - b1) * (a2 - a1)
        done += 1
    report(5, "wall concurrency, parallelism, and collinearity oracle", ok)


def test_criterion_6_boundary_interval_examples():
    omega = CollectionSpec.builtin_by_name("omega")
    lines = CollectionSpec.builtin_by_name("lines")
    ok = True
    for k in range(1, 21):
        beta = Q(-k, 42)
        a0 = (3 * beta ** 3 + 6 * beta ** 2 - 4) / (6 * (3 * beta + 2))
        ok = ok and admissible_a_interval(omega, beta) == (a0, beta ** 2 / 6)
    for k in range(1, 21):
        beta = -1 - Q(k, 42)
        ok = ok and admissible_a_interval(lines, beta) == \
            ((beta + 2) ** 2 / 6, beta ** 2 / 6)
    # outside the working ranges the CLI check must exit 1
    ok = ok and cli_run(["collection-check", "lines", "--beta", "-1/2"]) == 1
    ok = ok and cli_run(["collection-check", "lines", "--beta", "-7/4"]) == 1
    ok = ok and cli_run(["collection-check", "omega", "--beta", "-3/4"]) == 1
    ok = ok and cli_run(["collection-check", "omega", "--beta", "1/4"]) == 1
    report(6, "admissible charge intervals for both worked collections", ok)


def test_criterion_7_euler_and_twist():
    ok = True
    for d in range(-5, 6):
        ok = ok and chi_p3(class_of_line_bundle(d)) == \
            Q((d + 1) * (d + 2) * (d + 3), 6)
    rng = random.Random(107)
    for _ in range(100):
        v = random_integral_class(rng)
        w = random_integral_class(rng)
        ok = ok and chi_local(v, w) == chi_local(w, v)
    o = class_of_line_bundle(0)
    ok = ok and chi_local(o, o) == 2
    ok = ok and chi_local(o, POINT) == 0
    ok = ok and spherical_twist_class(o, o) == shift(o, 3)
    ok = ok and spherical_twist_class(o, POINT) == POINT
    ok = ok and spherical_twist_class(o, class_of_named("O^x")) == \
        NumClass(-1, 0, 0, -1)
    report(7, "Euler pairings and the spherical-twist action", ok)


def test_criterion_8_minimal_twisted_degree():
    start = time.perf_counter()
    rng = random.Random(108)
    ok = True
    for _ in range(30):
        q = rng.randint(1, 50)
        p = rng.randint(-2 * q, 2 * q)
        g = gcd(p, q)
        p, q = p // g, q // g
        beta = Q(p, q)
        # brute force over |v0|,|v1| <= 50 in integers: v1 - beta v0 = t/q
        # with t = v1 q - v0 p
        best_t = min(
            t
            for v0 in range(-50, 51) for v1 in range(-50, 51)
            if (t := v1 * q - v0 * p) > 0
        )
        ok = ok and min_positive_v1beta(beta) == Q(1, q) == Q(best_t, q)
    om = class_of_named("Omega(1)")
    ok = ok and twisted_v(om, Q(-1, 2))[1] == min_positive_v1beta(Q(-1, 2))
    runtime = time.perf_counter() - start
    report(8, "minimal positive twisted degree vs brute force",
           ok and runtime < 1.0, runtime=runtime)


def test_criterion_9_saturation_and_kernel_restriction():
    rng = random.Random(109)
    ok = True
    for _ in range(20):
        p = random_point_in_U(rng)
        for d in range(-5, 6):
            od = class_of_line_bundle(d)
            ok = ok and quadratic_form_Q(od, p) == 0
            ok = ok and discriminant(od) == 0
    # symbolic kernel restriction: disc on the ray (x, beta x, alpha x)
    x, b, al = sympy.symbols("x b al")
    expr = (b * x) ** 2 - 2 * x * (al * x)
    ok = ok and sympy.simplify(expr - (b ** 2 - 2 * al) * x ** 2) == 0
    for _ in range(20):
        p = random_point_in_U(rng)
        xq = Q(rng.randint(1, 9), rng.randint(1, 5))
        v = NumClass(xq, p.beta * xq, p.alpha * xq, 0)
        ok = ok and discriminant(v) == (p.beta ** 2 - 2 * p.alpha) * xq * xq
        ok = ok and discriminant(v) < 0
    report(9, "line-bundle saturation and kernel-restricted discriminant", ok)


def test_acceptance_summary():
    print("[ACCEPTANCE] all 9 criteria executed with tolerance 0",
          file=sys.stderr)
