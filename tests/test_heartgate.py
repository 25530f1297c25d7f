import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tiltwall import (ChargeValue, CollectionSpec, NumClass, ParamPoint,
                      admissible_a_interval, central_charge_3, class_of_named,
                      cone_check, general_condition_check, simples_classes,
                      tensor_line, thm_region_check, twisted_v)
from tiltwall.errors import DomainError, InputError

from oracles import simplecase_z_oracle

Q = Fraction

BEILINSON = CollectionSpec.builtin_by_name("beilinson4")
OMEGA = CollectionSpec.builtin_by_name("omega")
LINES = CollectionSpec.builtin_by_name("lines")


def omega_lower_bound(beta: Fraction) -> Fraction:
    return (3 * beta ** 3 + 6 * beta ** 2 - 4) / (6 * (3 * beta + 2))


def test_builtin_collections_valid():
    assert BEILINSON.names == ("O(-1)", "T(-2)", "O", "O(1)")
    assert OMEGA.names == ("O(-1)", "Omega2(2)", "Omega(1)", "O")
    assert LINES.names == ("O(-3)", "O(-2)", "O(-1)", "O")
    with pytest.raises(InputError):
        CollectionSpec.builtin_by_name("nope")


def test_builtins_are_built_once():
    for name in ("beilinson4", "omega", "lines"):
        assert CollectionSpec.builtin_by_name(name) is CollectionSpec.builtin_by_name(name)
    # an unknown name is not cached: it raises on every call
    for _ in range(2):
        with pytest.raises(InputError):
            CollectionSpec.builtin_by_name("nope")


def test_simples_classes_examples():
    s = simples_classes(BEILINSON)
    assert s[0] == NumClass(1, 1, Q(1, 2), Q(1, 6))
    assert s[1] == NumClass(-1, 0, 0, 0)
    assert s[2] == NumClass(3, -2, 0, Q(2, 3))
    assert s[3] == NumClass(-1, 1, Q(-1, 2), Q(1, 6))

    s = simples_classes(OMEGA)
    assert s[0] == class_of_named("O")
    assert s[1] == -class_of_named("Omega(1)")
    assert s[2] == class_of_named("Omega2(2)")
    assert s[3] == -class_of_named("O(-1)")

    s = simples_classes(LINES)
    assert s[1] == -class_of_named("O(-1)")
    assert s[3] == -class_of_named("O(-3)")


def test_cone_check_modes():
    assert not cone_check([ChargeValue(1, 0)], mode="strict-left")
    assert cone_check([ChargeValue(-1, 0), ChargeValue(0, -1)],
                      mode="strict-left")
    assert not cone_check([ChargeValue(0, 1)], mode="strict-left")
    # half-plane: anything except a positive-real-axis charge alone is fine
    assert cone_check([ChargeValue(0, 1), ChargeValue(0, -1)])
    assert not cone_check([ChargeValue(1, 0)])
    assert cone_check([ChargeValue(-1, 0)])
    # opposite pairs are on one closed half-turn; adding a third that
    # forces more than a half-turn fails
    assert cone_check([ChargeValue(1, 1), ChargeValue(-1, -1)])
    assert not cone_check([ChargeValue(1, 1), ChargeValue(-1, -1),
                           ChargeValue(1, 0)])
    with pytest.raises(InputError):
        cone_check([], mode="wat")


def test_zero_charge_fails_strict_left():
    # a stability function sends no nonzero object to 0; half-plane mode
    # still skips a zero charge
    assert not cone_check([ChargeValue(0, 0)], mode="strict-left")
    assert not cone_check([ChargeValue(-1, 0), ChargeValue(0, 0)],
                          mode="strict-left")
    assert cone_check([ChargeValue(0, 0), ChargeValue(-1, 0)])


def test_gate_value_zeroes_the_distinguished_charge():
    # on E's parabola Im Z(E) = 0, and a0 = v3^b(E)/v1^b(E) makes Re Z(E) = 0
    _, upper = admissible_a_interval(LINES, Q(-5, 4))
    assert upper == Q(25, 96)
    report = general_condition_check(LINES, Q(-5, 4), upper)
    rows = {c.name: c.passed for c in report.conditions}
    assert not rows["(4) simples charges strictly left"]
    assert not rows["gate a0 < v3^b(E)/v1^b(E)"]


def test_cone_check_on_beilinson_simples():
    p = ParamPoint(Q(-1, 4), Q(1, 8))
    a0 = p.omega_sq / 6
    charges = [central_charge_3(s, p, a0) for s in simples_classes(BEILINSON)]
    assert cone_check(charges, mode="half-plane")


def test_cone_check_omega_boundary():
    beta = Q(-1, 4)
    a0 = omega_lower_bound(beta)
    z = simplecase_z_oracle(beta, a0)
    assert z[2].re == 0 and z[2].im == 2 * beta < 0
    assert cone_check(z, mode="strict-left")


def test_thm_region_examples():
    assert thm_region_check(Q(-1, 4), Q(1, 8)).passed
    assert not thm_region_check(0, 1).passed
    assert not thm_region_check(Q(-1, 2), Q(1, 8)).passed


def test_thm_region_reports_residuals():
    rep = thm_region_check(Q(-1, 4), Q(1, 8))
    assert all(c.passed for c in rep.conditions)
    names = [c.name for c in rep.conditions]
    assert "omega^2 < 1/4" in names
    data = rep.to_json_dict()
    assert data["passed"] and len(data["conditions"]) == 7


def test_general_condition_examples():
    beta = Q(-1, 4)
    rep = general_condition_check(OMEGA, beta, omega_lower_bound(beta))
    assert rep.passed

    beta = Q(-5, 4)
    rep = general_condition_check(LINES, beta, (beta + 2) ** 2 / 6)
    assert rep.passed

    rep = general_condition_check(LINES, Q(-1, 2), Q(0))
    assert not rep.passed


def test_general_condition_domain_errors():
    rank0 = CollectionSpec.builtin_by_name("lines")
    bad = NumClass(0, 1, 0, 0)
    with pytest.raises(DomainError):
        CollectionSpec(("a", "b", "c", "d"),
                       (rank0.classes[0], rank0.classes[1], rank0.classes[2],
                        bad))


def test_mu1_gating():
    # condition (1) requires beta < mu1(E) = 0 for E = O
    rep = general_condition_check(OMEGA, Q(1, 4), 0)
    assert not rep.passed
    assert any(c.name.startswith("(1) beta < mu1") and not c.passed
               for c in rep.conditions)


def test_slot_and_zero_denominator_rows_frozen():
    # golden reports: the F2 and F1 slot cases of (2), and the v1^b(F0) = 0
    # row of (1) at beta = mu(F0)
    rep = general_condition_check(LINES, Q(-1, 4), Q(1, 4))
    assert [c.describe() for c in rep.conditions] == [
        "(1) beta < mu1(E): residual 1/4 > 0 -> pass",
        "(1) beta > mu(F0): residual 11/4 > 0 -> pass",
        "(1) (v2(F0)-alpha*v0(F0))/v1^b(F0) < beta: residual 15/11 > 0 -> pass",
        "(2) mu(F2)<beta<mu(F3) and F2 inequality: residual -1/3 > 0 -> FAIL",
        "(3) v3^b(F0) < t*v1^b(F0): residual 55/16 > 0 -> pass",
        "(3) v3^b(F1) > t*v1^b(F1): residual -7/8 > 0 -> FAIL",
        "(3) v3^b(F2) < t*v1^b(F2): residual 1/16 > 0 -> pass",
        "(4) simples charges strictly left: residual 0 > 0 -> FAIL",
        "gate a0 < v3^b(E)/v1^b(E): residual -23/96 > 0 -> FAIL",
    ]
    rep = general_condition_check(LINES, Q(-9, 4), Q(1, 8))
    assert [c.describe() for c in rep.conditions] == [
        "(1) beta < mu1(E): residual 9/4 > 0 -> pass",
        "(1) beta > mu(F0): residual 3/4 > 0 -> pass",
        "(1) (v2(F0)-alpha*v0(F0))/v1^b(F0) < beta: residual -3 > 0 -> FAIL",
        "(2) mu(F0)<beta<mu(F1) and F1 inequality: residual 10 > 0 -> pass",
        "(3) v3^b(F0) < t*v1^b(F0): residual -9/16 > 0 -> FAIL",
        "(3) v3^b(F1) > t*v1^b(F1): residual -5/24 > 0 -> FAIL",
        "(3) v3^b(F2) < t*v1^b(F2): residual 35/48 > 0 -> pass",
        "(4) simples charges strictly left: residual 0 > 0 -> FAIL",
        "gate a0 < v3^b(E)/v1^b(E): residual 23/32 > 0 -> pass",
    ]
    rep = general_condition_check(LINES, Q(-3), Q(0))
    assert [c.describe() for c in rep.conditions] == [
        "(1) beta < mu1(E): residual 3 > 0 -> pass",
        "(1) beta > mu(F0): residual 0 > 0 -> FAIL",
        "(1) F0 slope inequality: residual 0 > 0 -> FAIL",
        "(2) beta outside (mu(F0), mu(F3)): residual 0 > 0 -> FAIL",
        "(3) v3^b(F0) < t*v1^b(F0): residual 0 > 0 -> FAIL",
        "(3) v3^b(F1) > t*v1^b(F1): residual -4/3 > 0 -> FAIL",
        "(3) v3^b(F2) < t*v1^b(F2): residual 5/3 > 0 -> pass",
        "(4) simples charges strictly left: residual 0 > 0 -> FAIL",
        "gate a0 < v3^b(E)/v1^b(E): residual 3/2 > 0 -> pass",
    ]


def test_off_U_raises_domain_error():
    # beta = 1 puts O(1) on its own parabola at alpha = 1/2 = beta^2/2
    with pytest.raises(DomainError) as exc:
        general_condition_check(BEILINSON, 1, 0)
    assert str(exc.value) == "(1, 1/2) is not in U"
    with pytest.raises(DomainError) as exc:
        admissible_a_interval(BEILINSON, 1)
    assert str(exc.value) == "(1, 1/2) is not in U"


def _dual_collection(spec: CollectionSpec) -> CollectionSpec:
    # (E0, .., E3) -> (E3^v, .., E0^v): odd components change sign
    classes = tuple(NumClass(c.v0, -c.v1, c.v2, -c.v3)
                    for c in reversed(spec.classes))
    return CollectionSpec(tuple(n + "^v" for n in reversed(spec.names)), classes)


@st.composite
def collections_and_betas(draw):
    """A built-in collection, its twist by O(m) and possibly its dual, with
    beta on a 1/24 grid in a window around the built-in's admissible betas
    (omega: (-1/2, 0), lines: (-3/2, -1), beilinson4: none); twisting
    shifts the window by m and dualizing reflects it."""
    spec, lo, hi = draw(st.sampled_from([(BEILINSON, -2, 1),
                                         (OMEGA, -1, 1),
                                         (LINES, -2, 0)]))
    beta = lo + Q(draw(st.integers(0, 24 * (hi - lo))), 24)
    m = draw(st.integers(-3, 3))
    if m:
        spec = CollectionSpec(spec.names,
                              tuple(tensor_line(c, m) for c in spec.classes))
        beta += m
    if draw(st.booleans()):
        spec, beta = _dual_collection(spec), -beta
    return spec, beta


def _charge_breakpoints(spec: CollectionSpec, beta: Fraction) -> list[Fraction]:
    """Every a at which some condition of the system can change verdict:
    the zero of Re Z_a of each simple.  The first simple is E itself, so
    the gate value v3^b(E)/v1^b(E) is among them."""
    pts = set()
    for v in simples_classes(spec):
        _, v1b, _, v3b = twisted_v(v, beta)
        if v1b != 0:
            pts.add(v3b / v1b)
    return sorted(pts)


@settings(max_examples=300, deadline=None)
@given(collections_and_betas())
def test_interval_agrees_with_condition_system(spec_beta):
    spec, beta = spec_beta
    try:
        iv = admissible_a_interval(spec, beta)
    except DomainError:
        return
    # the verdict is constant between consecutive breakpoints, so the
    # breakpoints, the midpoints between them and one point beyond each
    # end probe every a that can behave differently
    pts = _charge_breakpoints(spec, beta)
    probes = pts + [(x + y) / 2 for x, y in zip(pts, pts[1:])] + \
        [pts[0] - 1, pts[-1] + 1]
    if iv is None:
        assert not any(general_condition_check(spec, beta, a).passed
                       for a in probes)
        return
    lo, hi = iv
    probes += [(lo + hi) / 2, lo + (hi - lo) / 7, hi - (hi - lo) / 7]
    for a in probes:
        passed = general_condition_check(spec, beta, a).passed
        if lo < a < hi:
            assert passed, a
        elif a < lo or a > hi:
            assert not passed, a


def test_admissible_intervals_frozen():
    assert admissible_a_interval(OMEGA, Q(-1, 4)) == (Q(-47, 96), Q(1, 96))
    assert admissible_a_interval(LINES, Q(-5, 4)) == (Q(3, 32), Q(25, 96))
    assert admissible_a_interval(OMEGA, Q(-1, 3)) == (Q(-31, 54), Q(1, 54))
    assert admissible_a_interval(LINES, Q(-1, 2)) is None


def test_admissible_interval_grid_matches_closed_forms():
    for k in range(1, 20):
        beta = Q(-k, 40)
        assert admissible_a_interval(OMEGA, beta) == \
            (omega_lower_bound(beta), beta * beta / 6)
    for k in range(1, 20):
        beta = Q(-1, 1) - Q(k, 40)
        assert admissible_a_interval(LINES, beta) == \
            ((beta + 2) ** 2 / 6, beta * beta / 6)


def test_simplecase_oracle_frozen_values():
    z = simplecase_z_oracle(Q(-1, 4), 0)
    assert z[0].re == Q(-1, 384) and z[0].im == 0
    a0 = omega_lower_bound(Q(-1, 4))
    z = simplecase_z_oracle(Q(-1, 4), a0)
    assert z[2].re == 0
    beta = Q(-1, 4)
    assert z[1].re == (beta + 2) * (beta - 1) * (2 * beta + 1) / (2 * (3 * beta + 2))
    assert z[1].re == Q(-7, 16)


@given(st.fractions(min_value=Fraction(-7, 15), max_value=Fraction(-1, 30),
                    max_denominator=30),
       st.fractions(min_value=-2, max_value=2, max_denominator=24))
def test_simplecase_oracle_matches_central_charge(beta, a):
    p = ParamPoint(beta, beta * beta)
    zs = [central_charge_3(s, p, a) for s in simples_classes(OMEGA)]
    assert tuple(zs) == simplecase_z_oracle(beta, a)


def test_sign_fact_grid():
    # (1/2) b^3 + b^2 - 2/3 < 0 throughout the fundamental strip
    for k in range(0, 81):
        b = Q(-k, 160)
        assert b ** 3 / 2 + b ** 2 - Q(2, 3) < 0


def test_custom_collection_json_roundtrip(tmp_path):
    data = BEILINSON.to_json_dict()
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(data))
    spec = CollectionSpec.from_json_file(str(path))
    assert spec.classes == BEILINSON.classes
    assert spec.builtin == "custom"
    rep = general_condition_check(spec, Q(-1, 4), Q(1, 32))
    assert any("custom" in n for n in rep.notes)


def test_custom_collection_validation():
    # decreasing slopes rejected
    bad = {"names": ["O(1)", "O", "O(-1)", "O(-2)"],
           "classes": [["1", "1", "1/2", "1/6"], ["1", "0", "0", "0"],
                       ["1", "-1", "1/2", "-1/6"], ["1", "-2", "2", "-4/3"]]}
    with pytest.raises(InputError):
        CollectionSpec.from_json_dict(bad)
    with pytest.raises(InputError):
        CollectionSpec.from_json_dict({"names": ["x"], "classes": []})
