import copy
import itertools
import json
import pickle
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
import hypothesis.strategies as st

from tiltwall import (ChargeValue, CollectionSpec, NumClass, ParamPoint, Surd,
                      admissible_a_interval, alpha_E_beta, central_charge_3,
                      chi_pair_p3, class_of_named, cone_check, discriminant,
                      general_condition_check,
                      mu12, simples_classes, slope_mu, strictly_left,
                      tensor_line, thm_region_check, twisted_v)
from tiltwall import heartgate, tiltcalc
from tiltwall.cli import run as cli_run
from tiltwall.errors import DomainError, InputError

from conftest import integral_classes
from oracles import (collection_json, condition_check_by_charges,
                     interval_by_charges, simplecase_z_oracle)

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
    # strictly_left: condition (4) on one charge
    assert not strictly_left(1, 0)
    assert strictly_left(-1, 0) and strictly_left(0, -1)
    assert not strictly_left(0, 1)
    assert strictly_left(Q(-1, 3), Q(5)) and not strictly_left(Q(1, 3), Q(-5))
    # cone_check: anything except a positive-real-axis charge alone is fine
    assert cone_check([ChargeValue(0, 1), ChargeValue(0, -1)])
    assert not cone_check([ChargeValue(1, 0)])
    assert cone_check([ChargeValue(-1, 0)])
    # opposite pairs are on one closed half-turn; adding a third that
    # forces more than a half-turn fails
    assert cone_check([ChargeValue(1, 1), ChargeValue(-1, -1)])
    assert not cone_check([ChargeValue(1, 1), ChargeValue(-1, -1),
                           ChargeValue(1, 0)])


def test_zero_charge_fails_strict_left():
    # a stability function sends no nonzero object to 0; the half-turn
    # cone test still skips a zero charge
    assert not strictly_left(0, 0)
    assert not strictly_left(Q(0), Q(0))
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
    assert cone_check(charges)


def test_cone_check_omega_boundary():
    beta = Q(-1, 4)
    a0 = omega_lower_bound(beta)
    z = simplecase_z_oracle(beta, a0)
    assert z[2].re == 0 and z[2].im == 2 * beta < 0
    assert all(strictly_left(c.re, c.im) for c in z)


def test_interval_lower_end_passes_and_upper_end_fails():
    # beta on the 1/48 grid in [-25/6, 25/6]: at the lower end every simple
    # with Re Z = 0 binds, and its Im Z < 0 lets strictly_left accept it;
    # the upper end zeroes Re Z(E) and fails the gate
    found = {}
    for spec in (BEILINSON, OMEGA, LINES):
        found[spec.builtin] = 0
        for k in range(-200, 201):
            beta = Q(k, 48)
            try:
                iv = admissible_a_interval(spec, beta)
            except DomainError:
                continue
            if iv is None:
                continue
            found[spec.builtin] += 1
            lo, hi = iv
            point = ParamPoint(beta, alpha_E_beta(spec.distinguished, beta))
            z = [central_charge_3(s, point, lo) for s in simples_classes(spec)]
            binding = [c for c in z if c.re == 0]
            assert binding and all(c.im < 0 for c in binding)
            assert general_condition_check(spec, beta, lo).passed
            assert not general_condition_check(spec, beta, hi).passed
    assert found == {"beilinson4": 0, "omega": 23, "lines": 23}


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


@st.composite
def collections_betas_a0(draw):
    """A built-in collection, or its members each twisted by O(k) as a
    custom collection, with a0 rational and beta either rational around the
    members' slopes or one of mu(F0), mu(F1), mu(F2), where v1^b vanishes."""
    spec = draw(st.sampled_from([BEILINSON, OMEGA, LINES]))
    if draw(st.booleans()):
        k = draw(st.integers(-3, 3))
        spec = CollectionSpec(spec.names,
                              tuple(tensor_line(c, k) for c in spec.classes))
    mu = [slope_mu(c).value for c in spec.classes]
    beta = draw(st.one_of(
        st.sampled_from(mu[:3]),
        st.fractions(min_value=mu[0] - 1, max_value=mu[3] + 1,
                     max_denominator=48)))
    a0 = draw(st.fractions(min_value=-2, max_value=2, max_denominator=96))
    return spec, beta, a0


def _outcome(fn, *args):
    """What a call reports: every condition's name, verdict, residual (its
    type and string too) and strictness with the notes, or the interval,
    or the DomainError message."""
    try:
        out = fn(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"
    if out is None or isinstance(out, tuple):
        return out
    return ([(c.name, c.passed, c.residual, type(c.residual), str(c.residual),
              c.strict) for c in out.conditions], out.notes)


@settings(max_examples=400, deadline=None)
@given(collections_betas_a0())
def test_member_table_matches_charges_of_simples(case):
    # the library twists each member once and reads the simples and nu
    # from that table; the oracle twists each simple again and takes nu
    # from tilt_slope_nu
    spec, beta, a0 = case
    iv = _outcome(interval_by_charges, spec, beta)
    assert _outcome(admissible_a_interval, spec, beta) == iv
    # a0 inside and at the ends of an interval, where every condition passes
    # or the first binding one is exactly 0
    for a in [a0] + (list(iv) + [(iv[0] + iv[1]) / 2] if isinstance(iv, tuple) else []):
        assert (_outcome(general_condition_check, spec, beta, a)
                == _outcome(condition_check_by_charges, spec, beta, a))


def test_each_call_twists_each_member_once(monkeypatch):
    twisted = []
    kernel = tiltcalc.twist_components

    def counting(v, x):
        twisted.append(v)
        return kernel(v, x)

    monkeypatch.setattr(tiltcalc, "twist_components", counting)
    for spec, beta in ((OMEGA, Q(-1, 4)), (LINES, Q(-5, 4)), (LINES, Q(-1, 2)),
                       (BEILINSON, Q(-1, 4))):
        for call in (lambda: general_condition_check(spec, beta, Q(1, 32)),
                     lambda: admissible_a_interval(spec, beta)):
            twisted.clear()
            call()
            assert twisted == list(spec.classes)


def _builtins_and_twists():
    """The built-ins, and their members each twisted by O(k), k in -3..3,
    as custom collections."""
    for spec in (BEILINSON, OMEGA, LINES):
        yield spec
        for k in range(-3, 4):
            yield CollectionSpec(spec.names,
                                 tuple(tensor_line(c, k) for c in spec.classes))


def test_collection_keeps_its_slopes_and_mu1():
    for spec in _builtins_and_twists():
        assert spec._mu == tuple(slope_mu(c).value for c in spec.classes)
        assert all(type(m) is Fraction for m in spec._mu)
        mu1 = mu12(spec.distinguished)[0]
        assert spec._mu1_E == mu1 and type(spec._mu1_E) is type(mu1)


def _counted(calls: list, name: str, fn):
    """fn, appending name to calls on each call."""
    def counted(*args):
        calls.append(name)
        return fn(*args)
    return counted


def test_checks_read_the_collection_constants(monkeypatch):
    # once a collection is built, a check computes no slope and no root;
    # it still twists each member once
    specs = list(_builtins_and_twists())
    calls = []
    for module in (heartgate, tiltcalc):
        monkeypatch.setattr(module, "mu12", _counted(calls, "mu12", tiltcalc.mu12))
        monkeypatch.setattr(module, "slope_mu",
                            _counted(calls, "slope_mu", tiltcalc.slope_mu))
    monkeypatch.setattr(Surd, "sqrt", staticmethod(_counted(calls, "sqrt", Surd.sqrt)))
    monkeypatch.setattr(tiltcalc, "twist_components",
                        _counted(calls, "twist", tiltcalc.twist_components))
    for spec in specs:
        beta = spec._mu[1] - Q(1, 4)
        for call in (lambda: general_condition_check(spec, beta, Q(1, 32)),
                     lambda: admissible_a_interval(spec, beta)):
            calls.clear()
            call()
            assert calls == ["twist"] * 4


def test_copied_collection_gives_the_same_verdicts():
    for spec in _builtins_and_twists():
        beta = spec._mu[1] - Q(1, 4)
        report = general_condition_check(spec, beta, Q(1, 32))
        iv = admissible_a_interval(spec, beta)
        for round_trip in (copy.copy, copy.deepcopy,
                           lambda s: pickle.loads(pickle.dumps(s))):
            copied = round_trip(spec)
            assert ((copied._mu, copied._mu1_E, copied._disc_v0sq_E)
                    == (spec._mu, spec._mu1_E, spec._disc_v0sq_E))
            assert general_condition_check(copied, beta, Q(1, 32)) == report
            assert admissible_a_interval(copied, beta) == iv


# beta on a 1/12 grid over [-5, 5]
BETA_GRID = [Q(k, 12) for k in range(-60, 61)]


def _parabola_omega_sq(E: NumClass, beta: Fraction) -> Fraction:
    """omega^2 = 2*alpha - beta^2 at alpha on E's parabola over beta."""
    return 2 * alpha_E_beta(E, beta) - beta * beta


def test_parabola_omega_sq_closed_form_on_collections():
    # (beta - mu(E))^2 - disc(E)/v0(E)^2, from the collection's constants
    for spec in _builtins_and_twists():
        E = spec.distinguished
        assert spec._disc_v0sq_E == discriminant(E) / (E.v0 * E.v0)
        for beta in BETA_GRID:
            w2 = (beta - spec._mu[3]) ** 2 - spec._disc_v0sq_E
            assert w2 == _parabola_omega_sq(E, beta)
            if w2 > 0:
                assert ParamPoint(beta, alpha_E_beta(E, beta)).omega_sq == w2


@given(integral_classes.filter(lambda v: v.v0 != 0))
def test_parabola_omega_sq_closed_form_on_integral_classes(E):
    mu, disc_v0sq = E.v1 / E.v0, discriminant(E) / (E.v0 * E.v0)
    for beta in BETA_GRID:
        w2 = (beta - mu) ** 2 - disc_v0sq
        assert w2 == _parabola_omega_sq(E, beta)
        if w2 > 0:
            assert ParamPoint(beta, alpha_E_beta(E, beta)).omega_sq == w2


def _off_U_betas(spec: CollectionSpec) -> list[Fraction]:
    """mu(E), where omega^2 = -disc(E)/v0(E)^2, and the grid points off U."""
    E = spec.distinguished
    return [spec._mu[3]] + [b for b in BETA_GRID if _parabola_omega_sq(E, b) <= 0]


def test_off_U_message_names_the_parabola_point():
    for spec in _builtins_and_twists():
        for beta in _off_U_betas(spec):
            alpha = alpha_E_beta(spec.distinguished, beta)
            message = f"({beta}, {alpha}) is not in U"
            for call in (lambda: general_condition_check(spec, beta, Q(1, 32)),
                         lambda: admissible_a_interval(spec, beta)):
                with pytest.raises(DomainError) as exc:
                    call()
                assert str(exc.value) == message


def test_in_U_calls_build_no_point(monkeypatch):
    # omega^2 comes from the collection's constants; only an off-U beta
    # builds the point, for its DomainError
    calls = []
    monkeypatch.setattr(heartgate, "ParamPoint",
                        _counted(calls, "ParamPoint", tiltcalc.ParamPoint))
    monkeypatch.setattr(heartgate, "alpha_E_beta",
                        _counted(calls, "alpha_E_beta", tiltcalc.alpha_E_beta))
    for spec in _builtins_and_twists():
        off_U = _off_U_betas(spec)
        for beta in BETA_GRID[::6] + off_U:
            for call in (lambda: general_condition_check(spec, beta, Q(1, 32)),
                         lambda: admissible_a_interval(spec, beta)):
                calls.clear()
                try:
                    call()
                except DomainError:
                    assert beta in off_U
                    assert calls == ["alpha_E_beta", "ParamPoint"]
                else:
                    assert beta not in off_U
                    assert calls == []


def test_mu1_over_the_radicand_budget_rejects_the_collection():
    # an integral class with chi(E, E) = 1 of rank 20000000089 > 1.4*10^10:
    # disc(E) = (v0^2 - 1)/2 is over the radicand budget, so mu1(E) cannot
    # be computed and the collection is rejected when it is built
    data = collection_json(LINES)
    data["names"][3] = "E"
    data["classes"][3] = ["20000000089", "2725463363", "-9628592519/2",
                          "23434850831/6"]
    with pytest.raises(InputError, match="^invalid collection: square root "
                                         ".* over the radicand budget"):
        CollectionSpec.from_json_dict(data)


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
    data = collection_json(BEILINSON)
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


def _mutations(classes):
    """The classes of each collection one mutation away: at each adjacent
    pair (E, F), L_E F makes it (F - chi(E, F)*E, E) and R_F E makes it
    (F, E - chi(E, F)*F), each class up to the sign of a shift."""
    for i in range(3):
        E, F = classes[i], classes[i + 1]
        c = chi_pair_p3(E, F)
        for pair in ((F - c * E, E), (F, E - c * F)):
            yield classes[:i] + pair + classes[i + 2:]


def test_one_or_two_mutations_of_a_builtin_are_accepted():
    # mutations keep a collection exceptional, so semiorthogonal: each of
    # the 3 * (6 + 6 * 6) collections builds
    built = 0
    for spec in (BEILINSON, OMEGA, LINES):
        for once in _mutations(spec.classes):
            for classes in (once, *_mutations(once)):
                CollectionSpec(("F0", "F1", "F2", "E"), classes)
                built += 1
    assert built == 126


# beilinson4 with O and O(1) shifted: (O(-1), T(-2), O[1], O(1)[1])
SHIFTED_BEILINSON = {"names": ["O(-1)", "T(-2)", "O[1]", "O(1)[1]"],
                     "classes": [["1", "-1", "1/2", "-1/6"],
                                 ["3", "-2", "0", "2/3"],
                                 ["-1", "0", "0", "0"],
                                 ["-1", "-1", "-1/2", "-1/6"]]}


def test_interval_is_empty_where_the_lower_end_meets_the_gate(tmp_path, capsys):
    spec = CollectionSpec.from_json_dict(SHIFTED_BEILINSON)
    for beta, gate in ((Q(1, 48), Q(2209, 13824)), (Q(1, 8), Q(49, 384))):
        table, conds, upper = heartgate._static_conditions(spec, beta)
        assert all(c.passed for c in conds) and upper == gate
        lower = max(v3b / v1b for v1b, v3b, _ in heartgate._simple_rows(table)
                    if v1b < 0)
        assert lower == upper
        assert admissible_a_interval(spec, beta) is None
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(SHIFTED_BEILINSON))
    assert cli_run(["interval", f"@{path}", "--beta", "1/48"]) == 1
    assert capsys.readouterr().out == "no admissible interval\n"


# lines after three right mutations (of the pairs at positions 1, 1, 2):
# (O(-3), T(-2)[1], O, E) with E = (9, 7, 1/2, -17/6),
# integral and semiorthogonal, with chi(E, E) = 1 and disc(E) = 40, so
# mu1(E) = 7/9 - (2/9)*sqrt(10) is irrational and condition (1)'s residual
# mu1(E) - beta is a surd minus a rational
IRRATIONAL_MU1 = {"names": ["O(-3)", "T(-2)[1]", "O", "E"],
                  "classes": [["1", "-3", "9/2", "-9/2"], ["-3", "2", "0", "-2/3"],
                              ["1", "0", "0", "0"], ["9", "7", "1/2", "-17/6"]]}


def test_condition_1_against_an_irrational_mu1(tmp_path, capsys):
    spec = CollectionSpec.from_json_dict(IRRATIONAL_MU1)
    E = spec.distinguished
    assert discriminant(E) == 40
    v0, v1, v2 = (sympy.Rational(x) for x in (E.v0, E.v1, E.v2))
    mu1 = (v1 - sympy.sqrt(v1 * v1 - 2 * v0 * v2)) / v0
    for beta, a0, passed in ((Q(-9, 8), Q(1, 4), True), (Q(2), Q(0), False)):
        cond = general_condition_check(spec, beta, a0).conditions[0]
        assert (cond.name, cond.passed) == ("(1) beta < mu1(E)", passed)
        r = cond.residual
        assert isinstance(r, Surd) and r.d == 10
        exact = sympy.Rational(r.a) + sympy.Rational(r.b) * sympy.sqrt(r.d)
        assert sympy.expand(exact - (mu1 - sympy.Rational(beta))) == 0
    path = tmp_path / "irrational.json"
    path.write_text(json.dumps(IRRATIONAL_MU1))
    spec_arg = f"@{path}"
    assert cli_run(["collection-check", spec_arg, "--beta", "-9/8", "--a0", "1/4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        "(1) beta < mu1(E): residual 137/72 + -2/9*sqrt(10) > 0 -> pass"
    assert cli_run(["interval", spec_arg, "--beta", "-9/8"]) == 0
    assert capsys.readouterr().out == "(27/128, 13193/52608)\n"
    assert cli_run(["collection-check", spec_arg, "--beta", "2", "--a0", "0",
                    "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["conditions"][0] == {"name": "(1) beta < mu1(E)", "passed": False,
                                       "residual": "-11/9 + -2/9*sqrt(10)",
                                       "strict": True}


def _member_sign_patterns():
    """Each built-in with each of the 16 sign patterns of its members."""
    for spec in (BEILINSON, OMEGA, LINES):
        for signs in itertools.product((1, -1), repeat=4):
            yield spec, CollectionSpec(
                spec.names, tuple(s * c for s, c in zip(signs, spec.classes)))


def test_simples_with_zero_twisted_degree_are_strictly_left():
    # where (1)-(3) pass, a simple with v1^b(s) = 0 has Re Z_a(s) < 0 for
    # every a, so it cannot empty the interval
    grid = [Q(k, 48) for k in range(-200, 201)]
    seen = set()
    for builtin, spec in _member_sign_patterns():
        for beta in grid + list(spec._mu):
            try:
                table, conds, _ = heartgate._static_conditions(spec, beta)
            except DomainError:  # off U
                continue
            if not all(c.passed for c in conds):
                continue
            for v1b, v3b, im in heartgate._simple_rows(table):
                if v1b == 0:
                    assert strictly_left(-v3b, im)
                    seen.add((builtin.builtin, beta, (v1b, v3b, im)))
    assert ("omega", Q(-1, 3), (0, Q(10, 27), Q(5, 6))) in seen
