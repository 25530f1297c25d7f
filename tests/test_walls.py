import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
import hypothesis.strategies as st
from sympy.solvers.inequalities import solve_poly_inequality

from tiltwall import (NumClass, ParamPoint, Region, Wall, class_of_line_bundle,
                      class_of_named, common_slope, discriminant, dual_shifted,
                      enumerate_candidate_walls, is_integral_class,
                      passes_through, pi_point, plot_scene, scene_svg,
                      shift, tilt_slope_nu, wall_between)
from tiltwall.errors import DomainError, InputError
from tiltwall import _wallscan_py, walls as walls_module
from tiltwall._wallscan_py import _quadratic_interval, _row_interval
from tiltwall.walls import (_scaled, _scan_inputs, _wall_window,
                            _witness_class, plot_frame, search_box)

from conftest import integral_classes, lattice_class
from oracles import (delta_pairing, delta_zero_class, scan_candidates_exhaustive,
                     wall_between_fraction, wall_feasible as _wall_feasible,
                     wall_from_coefficients)

Q = Fraction


def test_wall_between_examples():
    o = class_of_line_bundle(0)
    w = wall_between(o, class_of_line_bundle(1))
    assert (w.A, w.B, w.C) == (2, -1, 0)  # alpha = beta/2
    w = wall_between(o, class_of_line_bundle(-1))
    assert (w.A, w.B, w.C) == (2, 1, 0)   # alpha = -beta/2
    assert wall_between(o, shift(o, 1)) is None
    assert wall_between(o, class_of_named("point")) is None


def test_wall_normalization():
    w = wall_from_coefficients(Q(-1), Q(1, 2), 0)
    assert (w.A, w.B, w.C) == (2, -1, 0)
    w = wall_from_coefficients(0, Q(-3), Q(6))
    assert (w.A, w.B, w.C) == (0, 1, -2)
    with pytest.raises(DomainError):
        wall_from_coefficients(0, 0, 0)


def test_wall_constructor_normalizes():
    # equal lines are equal walls with one hash, whatever multiple is given
    assert Wall(2, 4, 6) == Wall(1, 2, 3) == Wall(-3, -6, -9)
    assert len({Wall(2, 4, 6), Wall(1, 2, 3), Wall(-3, -6, -9)}) == 1
    assert Wall(1, 2, 3) != Wall(1, 2, 4)
    # the first nonzero coefficient is made positive
    for given_, normal in (((-1, 2, 3), (1, -2, -3)), ((0, -4, 2), (0, 2, -1)),
                           ((0, 0, -5), (0, 0, 1)), ((6, 0, -4), (3, 0, -2))):
        w = Wall(*given_)
        assert (w.A, w.B, w.C) == normal and w == wall_from_coefficients(*given_)
    with pytest.raises(DomainError, match="degenerate wall"):
        Wall(0, 0, 0)


def test_pi_point_examples():
    assert pi_point(class_of_line_bundle(0)) == (0, 0)
    assert pi_point(class_of_named("T(-2)")) == (Q(-2, 3), 0)
    assert pi_point(class_of_named("point")) is None


def test_common_slope_examples():
    assert common_slope(NumClass(0, 1, 0, 0)) == 0
    assert common_slope(NumClass(0, 2, 1, 0)) == Q(1, 2)
    assert common_slope(NumClass(0, 0, 1, 0)) is None
    with pytest.raises(DomainError):
        common_slope(class_of_line_bundle(0))


def test_passes_through_examples():
    w = wall_from_coefficients(2, -1, 0)  # alpha = beta/2
    assert passes_through(w, (0, 0))
    assert passes_through(w, (1, Q(1, 2)))
    assert not passes_through(w, (1, 1))


@given(integral_classes, integral_classes)
def test_concurrency_at_pi(v, w):
    wall = wall_between(v, w)
    if wall is None or v.v0 == 0:
        return
    beta, alpha = pi_point(v)
    assert passes_through(wall, (beta, alpha))


@given(integral_classes, integral_classes)
def test_parallelism_for_rank_zero(v, w):
    if v.v0 != 0 or v.v1 == 0:
        return
    wall = wall_between(v, w)
    if wall is None:
        return
    if wall.A != 0:
        assert Q(-wall.B, wall.A) == common_slope(v)


@given(integral_classes, integral_classes)
@settings(max_examples=60)
def test_three_point_collinearity_oracle(v, w):
    """Independent linearity check: solve the equal-nu equation for alpha
    at three beta values, confirm equal tilt slopes there, collinearity,
    and membership on the wall_between line."""
    wall = wall_between(v, w)
    if wall is None or wall.A == 0:
        return
    pts = []
    for k in range(-12, 13):
        beta = Q(k, 5)
        # solve the cross-multiplied equal-nu equation, linear in alpha:
        # alpha*(w0 v1 - v0 w1) = w2(v1 - beta v0) - v2(w1 - beta w0)
        coeff = w.v0 * v.v1 - v.v0 * w.v1
        if coeff == 0:
            return
        alpha = (w.v2 * (v.v1 - beta * v.v0)
                 - v.v2 * (w.v1 - beta * w.v0)) / coeff
        # both tilt slopes must be finite for the equal-nu comparison
        if (alpha > beta * beta / 2
                and v.v1 - beta * v.v0 != 0 and w.v1 - beta * w.v0 != 0):
            pts.append((beta, alpha))
        if len(pts) == 3:
            break
    if len(pts) < 3:
        return
    for beta, alpha in pts:
        p = ParamPoint(beta, alpha)
        assert tilt_slope_nu(v, p) == tilt_slope_nu(w, p)
        assert passes_through(wall, (beta, alpha))
    (b1, a1), (b2, a2), (b3, a3) = pts
    det = (b2 - b1) * (a3 - a1) - (b3 - b1) * (a2 - a1)
    assert det == 0


# --- enumeration -------------------------------------------------------------

REGION = Region(-2, 0, 2)


def test_enumeration_rejects_bad_input():
    # search_box rejects what enumeration rejects: both read _scan_inputs
    for scan in (lambda v, disc: enumerate_candidate_walls(v, REGION, disc),
                 search_box):
        with pytest.raises(InputError):
            scan(class_of_line_bundle(0), -1)
        with pytest.raises(DomainError):
            scan(NumClass(2, 0, 1, 0), 0)


def test_search_box_over_the_w0_budget_is_rejected_before_the_scan(monkeypatch):
    v = NumClass(1, 0, -1, 0)
    box = search_box(v, 40)
    width = box["w0_max"] - box["w0_min"] + 1
    scans = []
    monkeypatch.setattr(_wallscan_py, "scan_candidates",
                        lambda *args: scans.append(args) or [])
    monkeypatch.setattr(walls_module, "SCAN_W0_BUDGET", width)
    assert enumerate_candidate_walls(v, REGION, 40) == [] and len(scans) == 1
    monkeypatch.setattr(walls_module, "SCAN_W0_BUDGET", width - 1)
    with pytest.raises(InputError, match=rf"search box \|w0\| <= {box['w0_max']} "
                       rf"holds {width} values of w0, over the scan budget "
                       rf"of {width - 1}$"):
        enumerate_candidate_walls(v, REGION, 40)
    assert len(scans) == 1
    # a class with v0 = v1 = 0 has no wall and needs no scan, whatever its box
    assert enumerate_candidate_walls(NumClass(0, 0, 1, 0), REGION, 10**400) == []


def test_enumeration_for_O_concurrent_at_origin():
    walls = enumerate_candidate_walls(class_of_line_bundle(0), REGION, 0)
    for wall, wit in walls:
        assert passes_through(wall, (0, 0))
        assert is_integral_class(wit)


def test_enumeration_rank_zero_all_walls_flat():
    v = NumClass(0, 1, Q(-1, 2), Q(1, 6))  # plane-supported sheaf class
    walls = enumerate_candidate_walls(v, Region(-2, 2, 3), 2)
    assert walls
    for wall, _ in walls:
        assert wall.A != 0 and Q(-wall.B, wall.A) == common_slope(v) == Q(-1, 2)


def test_enumeration_filters_and_determinism():
    v = NumClass(1, 0, -1, 0)
    bound = Q(1)
    walls = enumerate_candidate_walls(v, REGION, bound)
    assert walls
    dv = discriminant(v)
    for wall, wit in walls:
        assert is_integral_class(wit)
        assert discriminant(wit) >= 0
        assert discriminant(v - wit) >= 0
        assert discriminant(wit) + discriminant(v - wit) <= dv + bound
        assert wall_between(v, wit) == wall
        assert passes_through(wall, pi_point(v))
    again = enumerate_candidate_walls(v, REGION, bound)
    assert again == walls
    keys = [(w.A, w.B, w.C) for w, _ in walls]
    assert keys == sorted(keys)


def test_enumeration_known_wall_present():
    # the ideal-sheaf-like class (1,0,-1,0) is destabilized by O(-1)
    # along the line alpha + (3/2) beta + 1 = 0 near beta = -1.2
    v = NumClass(1, 0, -1, 0)
    walls = enumerate_candidate_walls(v, REGION, 0)
    expected = wall_between(v, class_of_line_bundle(-1))
    assert expected in [w for w, _ in walls]


# Exact walls and witnesses recorded from the reference implementation; a
# change in any wall triple or in the witness chosen for it fails here.
GOLDEN_WALLS = [
    ("1,0,-1,0", Region(-2, 0, 2), 0,
     [(2, 3, 2, "-1,2,-2,-8/3"), (12, 17, 12, "-8,12,-9,-13")]),
    ("1,0,-1,0", Region(-2, 0, 2), 1,
     [(2, 3, 2, "-1,2,-2,-8/3"), (12, 17, 12, "-8,12,-9,-13")]),
    ("2,-1,-3/2,1/6", Region(-4, 2, 6), 40,
     [(2, 5, 4, "0,1,-5/2,-17/6"), (6, 11, 10, "-7,14,-14,-56/3")]),
    ("T(-2)", Region(-2, 2, 3), 2, [(2, 3, 2, "-1,2,-2,-8/3")]),
    ("0,1,-1/2,1/6", Region(-2, 2, 3), 2, [(2, 1, 0, "-1,1,-1/2,-5/6")]),
]


@pytest.mark.parametrize("text, region, disc, expected", GOLDEN_WALLS)
def test_enumeration_golden_walls(text, region, disc, expected):
    v = NumClass.parse(text) if "," in text else class_of_named(text)
    walls = enumerate_candidate_walls(v, region, disc)
    assert [(w.A, w.B, w.C, str(wit)) for w, wit in walls] == expected


small_lattice = st.integers(min_value=-2, max_value=2)
# integral classes of every rank sign, rank 0 and negative rank included,
# and their halves and thirds, whose scan runs at scale R > 1
enumeration_classes = st.builds(
    lambda coeffs, k: Q(1, k) * lattice_class(coeffs),
    st.tuples(small_lattice, small_lattice, small_lattice,
              small_lattice).filter(any),
    st.sampled_from([1, 2, 3])).filter(lambda v: discriminant(v) >= 0)


@st.composite
def enumeration_regions(draw):
    """Regions with a one-point beta range now and then, and alpha caps at
    or below beta_min^2/2 (a region that U barely meets, or misses)."""
    lo = draw(st.fractions(min_value=-4, max_value=2, max_denominator=4))
    width = draw(st.fractions(min_value=Q(1, 4), max_value=4,
                              max_denominator=4))
    cap = draw(st.fractions(min_value=-1, max_value=8, max_denominator=4))
    shape = draw(st.integers(min_value=0, max_value=5))
    if shape == 1:
        width = Q(0)
    elif shape == 2:
        cap = lo * lo / 2 - draw(st.fractions(min_value=0, max_value=1,
                                              max_denominator=4))
    return Region(lo, lo + width, cap)


enumeration_cases = st.tuples(enumeration_classes, enumeration_regions(),
                              st.integers(min_value=0, max_value=20))


def test_witness_class_is_the_line_bundle_sum():
    # the witness of a scanned (w0, w1, t), t = w1 (mod 2), written on line
    # bundles: b*O(2) + c*O(1) + (w0 - b - c)*O with b = (t - w1)/2 and
    # c = 2*w1 - t
    o = class_of_line_bundle
    for w0 in range(-3, 4):
        for w1 in range(-6, 7):
            for t in range(w1 - 12, w1 + 13, 2):
                b, c = (t - w1) // 2, 2 * w1 - t
                w = _witness_class(w0, w1, t)
                assert w == b * o(2) + c * o(1) + (w0 - b - c) * o(0)
                assert is_integral_class(w)


def _scan_args(v, region, disc, w0_box=None):
    """scan_candidates' arguments for v, as enumerate_candidate_walls makes
    them, with the search box's w0 range or [-w0_box, w0_box]."""
    (bln, bld), (bhn, bhd), _ = region._ends
    P0, P1, T2, R, _, DS, w0_max = _scan_inputs(v, disc)
    w0 = w0_max if w0_box is None else w0_box
    return P0, P1, T2, R, DS, -w0, w0, bln, bld, bhn, bhd


def _scanned(v, region, disc):
    """The scan's candidates (w0, w1, t), exactly as enumerate_candidate_walls
    scans them."""
    return _wallscan_py.scan_candidates(*_scan_args(v, region, disc))


def _reference_walls(v, region, disc):
    """The enumeration spelled out on the public pieces: every candidate
    becomes a witness class and a wall through wall_between, and the first
    witness (in scan order) that passes _wall_feasible wins its wall."""
    found = {}
    for w0, w1, t in _scanned(v, region, disc):
        w = _witness_class(w0, w1, t)
        wall = wall_between(v, w)
        if wall is None:
            continue
        key = (wall.A, wall.B, wall.C)
        if key not in found and _wall_feasible(wall, v, w, region):
            found[key] = str(w)
    return [key + (found[key],) for key in sorted(found)]


def _meets_drawing_box(wall, region):
    """Does the wall line meet [beta_min, beta_max] x (-inf, alpha_max]?"""
    if wall.A == 0:
        return region.beta_min <= Q(-wall.C, wall.B) <= region.beta_max
    return min(-(wall.B * b + wall.C) / wall.A
               for b in (region.beta_min, region.beta_max)) <= region.alpha_max


@given(enumeration_cases)
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_reference(case):
    v, region, disc = case
    walls = enumerate_candidate_walls(v, region, disc)
    assert ([(w.A, w.B, w.C, str(wit)) for w, wit in walls]
            == _reference_walls(v, region, disc))
    assert all(_meets_drawing_box(w, region) for w, _ in walls)
    # Delta shrinks along walls, strictly, as the Delta(v) = 0 rule's proof has it
    for _, w in walls:
        assert discriminant(w) + discriminant(v - w) < discriminant(v)
        assert delta_pairing(w, v - w) > 0


@pytest.mark.parametrize("v", [class_of_named("point"), NumClass(0, 0, 1, 0),
                               NumClass(0, 0, -2, Q(1, 3))])
def test_class_without_rank_or_degree_has_no_wall(v):
    # Im Z(v) = 0, so the window 0 < Im Z(w) < Im Z(v) is empty: the scan
    # has candidates, and the reference enumeration accepts none of them
    region = Region(-3, 1, 4)
    assert _scanned(v, region, 20)
    assert _reference_walls(v, region, 20) == []
    assert enumerate_candidate_walls(v, region, 20) == []


# Regions with no point where Im Z(v) > 0 (the first and the last), or whose
# cap lies at or below U: without the region rule, the first two outgrow a
# 400 MB address space, the third gives no answer in 20 s and the last is
# over the w0 budget
NO_WINDOW_INPUTS = [
    ("0,-1000,0,0", Region(-1, 1, 2), 0),
    ("6/7,699870,693553,193926", Region(-2, 3, -2), 34),
    ("863513/4790,780711,23/8,260399/2379", Region(4, 6, 2), 40),
    ("0,-1e100,0,0", Region(-1, 1, 2), 0),
]


class _Scanned(Exception):
    pass


def _no_scan(*args):
    raise _Scanned


@pytest.mark.parametrize("text, region, disc", NO_WINDOW_INPUTS)
def test_a_region_without_a_window_is_answered_before_the_scan(
        monkeypatch, text, region, disc):
    monkeypatch.setattr(_wallscan_py, "scan_candidates", _no_scan)
    assert enumerate_candidate_walls(NumClass.parse(text), region, disc) == []


def _region_rule_fires(v, region) -> bool:
    """The region rule in Fraction: Im Z(v) = v1 - beta*v0 <= 0 at both
    ends of the beta range, or the cap at or below beta^2/2 at the beta of
    the range nearest 0."""
    nearest = min(max(Q(0), region.beta_min), region.beta_max)
    return (all(v.v1 - beta * v.v0 <= 0
                for beta in (region.beta_min, region.beta_max))
            or region.alpha_max <= nearest * nearest / 2)


@given(enumeration_cases)
@settings(max_examples=150, deadline=None)
def test_region_rule_only_drops_regions_without_a_wall(case):
    """Enumeration skips the scan exactly when a pre-scan rule fires, the
    region rule or the Delta(v) = 0 rule, and then the reference
    enumeration finds no wall either."""
    v, region, disc = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_wallscan_py, "scan_candidates", _no_scan)
        try:
            fired = enumerate_candidate_walls(v, region, disc) == []
        except _Scanned:
            fired = False
    assert fired == (_region_rule_fires(v, region) or discriminant(v) == 0)
    if fired:
        assert _reference_walls(v, region, disc) == []


# Classes of Delta = 0: k*(1, x, x^2/2, y), line bundles and their
# multiples among them, and the rank-0 classes (0, 0, c, d)
delta_zero_classes = st.one_of(
    st.builds(delta_zero_class, st.sampled_from([-3, -2, -1, 1, 2, 3]),
              st.fractions(-3, 3, max_denominator=3),
              st.fractions(-3, 3, max_denominator=6)),
    st.builds(lambda c, d: NumClass(0, 0, c, d),
              st.fractions(-3, 3, max_denominator=6).filter(bool),
              st.fractions(-3, 3, max_denominator=6)))


@given(delta_zero_classes, enumeration_regions(),
       st.integers(min_value=0, max_value=400))
@settings(max_examples=40, deadline=None)
def test_a_class_of_delta_zero_has_no_wall(v, region, disc):
    """The Delta(v) = 0 rule answers without a scan, and the reference
    enumeration, which has no pre-scan rule, finds no wall in the scan."""
    assert discriminant(v) == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_wallscan_py, "scan_candidates", _no_scan)
        assert enumerate_candidate_walls(v, region, disc) == []
    assert _reference_walls(v, region, disc) == []


# The walls-sweep pool of the benchmark (perfbench/workloads.py): six
# classes, three regions and four discriminant bounds.
SWEEP_CLASSES = ("O", "1,0,-1,0", "T(-2)", "2,-1,-3/2,1/6", "3,-1,-5/2,1/6",
                 "0,1,-1/2,1/6")
SWEEP_REGIONS = (Region(-2, 0, 2), Region(-4, 2, 6), Region(-3, -1, 4))
SWEEP_DISCS = (0, 5, 20, 40)


def test_wall_between_runs_once_per_distinct_scanned_key(monkeypatch):
    """The benchmark counts distinct wall keys as calls of wall_between and
    candidates as the scan's list: on each walls-sweep input, enumeration
    calls wall_between exactly once per distinct wall of the scanned
    candidates, 2,920 calls for the 15,825 candidates of one pass.  The 12
    inputs of class O, of Delta = 0, make no scan and no call.  Every other
    input scans once, over the box that search_box reports, with the budget
    DS = floor(R^2 * disc_budget)."""
    calls, scans = [], []

    def counting(v, w):
        calls.append(wall_between(v, w))
        return calls[-1]

    scan = _wallscan_py.scan_candidates
    monkeypatch.setattr(walls_module, "wall_between", counting)
    monkeypatch.setattr(_wallscan_py, "scan_candidates",
                        lambda *args: scans.append(args) or scan(*args))
    total_calls = total_candidates = 0
    for token in SWEEP_CLASSES:
        v = NumClass.parse(token) if "," in token else class_of_named(token)
        for region in SWEEP_REGIONS:
            for disc in SWEEP_DISCS:
                calls.clear()
                scans.clear()
                enumerate_candidate_walls(v, region, disc)
                if discriminant(v) == 0:
                    assert calls == [] and scans == []
                    continue
                (args,) = scans
                box = search_box(v, disc)
                assert args[5:7] == (box["w0_min"], box["w0_max"])
                R = _scaled(v)[3]
                assert args[4] == math.floor(R * R * Q(box["disc_budget"]))
                scanned = _scanned(v, region, disc)
                keys = {wall_between_fraction(v, _witness_class(*c))
                        for c in scanned} - {None}
                assert len(calls) == len(keys) and set(calls) == keys
                total_calls += len(calls)
                total_candidates += len(scanned)
    assert (total_calls, total_candidates) == (2920, 15825)


def _sweep_inputs():
    """The 72 (v, region, disc) inputs of the walls-sweep pool."""
    for token in SWEEP_CLASSES:
        v = NumClass.parse(token) if "," in token else class_of_named(token)
        for region in SWEEP_REGIONS:
            for disc in SWEEP_DISCS:
                yield v, region, disc


def test_enumeration_builds_one_witness_class_per_wall(monkeypatch):
    """Only the first feasible candidate of a wall becomes a NumClass: one
    walls-sweep pass builds 146 witness classes for its 146 walls, not one
    per distinct key."""
    built = []

    def counting(w0, w1, t):
        built.append(_witness_class(w0, w1, t))
        return built[-1]

    monkeypatch.setattr(walls_module, "_witness_class", counting)
    total_walls = 0
    for v, region, disc in _sweep_inputs():
        built.clear()
        walls = enumerate_candidate_walls(v, region, disc)
        assert len(built) == len(walls) and set(built) == {w for _, w in walls}
        for _, w in walls:  # Delta shrinks along walls
            assert discriminant(w) + discriminant(v - w) < discriminant(v)
            assert delta_pairing(w, v - w) > 0
        total_walls += len(walls)
    assert total_walls == 146


def test_enumeration_commutes_with_the_dual():
    """The shifted dual v -> -v^vee sends (beta, alpha) to (-beta, alpha):
    on the walls-sweep inputs, the walls of dual_shifted(v) over the
    mirrored beta range are exactly the walls of v with B negated."""
    total = 0
    for v, region, disc in _sweep_inputs():
        mirrored = Region(-region.beta_max, -region.beta_min, region.alpha_max)
        walls = [w for w, _ in enumerate_candidate_walls(v, region, disc)]
        dual = [w for w, _ in
                enumerate_candidate_walls(dual_shifted(v), mirrored, disc)]
        assert len(dual) == len(walls)
        assert set(dual) == {Wall(w.A, -w.B, w.C) for w in walls}
        total += len(walls)
    assert total == 146


@given(enumeration_cases)
@settings(max_examples=80, deadline=None)
def test_wall_between_scanned_witnesses_matches_fraction_oracle(case):
    v, region, disc = case
    for w0, w1, t in _scanned(v, region, disc):
        w = _witness_class(w0, w1, t)
        assert wall_between(v, w) == wall_between_fraction(v, w)


rationals_to_12 = st.fractions(min_value=-6, max_value=6, max_denominator=12)
rational_classes = st.builds(NumClass, rationals_to_12, rationals_to_12,
                             rationals_to_12, rationals_to_12)


@st.composite
def wall_pairs(draw):
    """(v, w) with denominators up to 12: unrelated classes, rank-zero
    ones, w = v, and w a rational multiple of v (no wall)."""
    v = draw(rational_classes)
    if draw(st.booleans()):
        v = NumClass(0, v.v1, v.v2, v.v3)
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape == 0:
        return v, v
    if shape == 1:
        return v, draw(rationals_to_12) * v
    w = draw(rational_classes)
    if shape == 2:
        w = NumClass(0, w.v1, w.v2, w.v3)
    return v, w


@given(wall_pairs())
def test_wall_between_matches_fraction_oracle(pair):
    v, w = pair
    assert wall_between(v, w) == wall_between_fraction(v, w)


def test_wall_between_without_a_line_is_none():
    # two rank-zero classes whose tilt slopes never agree: A = B = 0 and
    # C = 2, so the locus C = 0 has no point; as a class or as its triple
    v, w = NumClass(0, 1, 0, 0), NumClass(0, 0, 1, 0)
    assert wall_between(v, w) is None
    assert wall_between(v, (0, 0, 2)) is None
    assert wall_between_fraction(v, w) is None


lattice_triples = st.builds(lambda w0, w1, b: (w0, w1, w1 + 2 * b),
                            st.integers(-12, 12), st.integers(-12, 12),
                            st.integers(-12, 12))


@st.composite
def triple_cases(draw):
    """(v, triples): v of every rank sign, made rank zero half the time,
    with the triples (w0, w1, t) that the scan yields for v in a drawn
    region, or with random lattice points."""
    v = draw(enumeration_classes)
    if draw(st.booleans()):
        v = NumClass(0, v.v1, v.v2, v.v3)
    if draw(st.booleans()):
        region, disc = draw(enumeration_regions()), draw(st.integers(0, 20))
        return v, _scanned(v, region, disc)
    return v, draw(st.lists(lattice_triples, min_size=1, max_size=20))


@given(triple_cases(), st.integers(min_value=1, max_value=6))
@example((NumClass(0, 1, 0, 0), [(0, 0, 2), (0, 1, 1), (1, 0, 0)]), 2)
@example((class_of_named("T(-2)"), [(1, 0, 0), (-1, 1, 1), (3, -2, 0)]), 1)
@settings(max_examples=100, deadline=None)
def test_wall_between_of_a_triple_matches_its_class(case, k):
    """wall_between reads (w0, w1, t) as the class _witness_class builds
    from it, and as any positive multiple of that triple."""
    v, triples = case
    for w0, w1, t in triples:
        w = _witness_class(w0, w1, t)
        wall = wall_between(v, (w0, w1, t))
        assert wall == wall_between(v, w) == wall_between_fraction(v, w)
        assert wall_between(v, (k * w0, k * w1, k * t)) == wall


def _brute_force_scan(P0, P1, T2, R, DS, w0_lo, w0_hi, beta_lo, beta_hi,
                      w1_box, t_box):
    """Every (w0, w1, t) of the box with t = w1 (mod 2) that passes the
    filters of the scan kernel's docstring, each evaluated in Fraction."""
    v0, v1, v2 = Q(P0, R), Q(P1, R), Q(T2, 2 * R)
    budget = Q(DS, R * R)
    found = set()
    for w0 in range(w0_lo, w0_hi + 1):
        if w0 == 0 and P0 == 0:
            continue
        for w1 in range(-w1_box, w1_box + 1):
            # Im window: each inequality holds at some beta of the interval
            if not any(w1 - b * w0 > 0 for b in (beta_lo, beta_hi)):
                continue
            if not any(w1 - b * w0 < v1 - b * v0 for b in (beta_lo, beta_hi)):
                continue
            for t in range(-t_box + (t_box - w1) % 2, t_box + 1, 2):
                w2 = Q(t, 2)
                disc_w = w1 * w1 - 2 * w0 * w2
                if disc_w < 0 or disc_w > budget:
                    continue
                disc_rest = (v1 - w1) ** 2 - 2 * (v0 - w0) * (v2 - w2)
                if disc_rest >= 0 and disc_w + disc_rest <= budget:
                    found.add((w0, w1, t))
    return found


def test_scan_matches_brute_force_lattice_search():
    rng = random.Random(20240824)
    w1_box, t_box = 24, 200
    for i in range(40):
        R = rng.choice([1, 2, 3])
        # every fourth case has rank 0
        P0 = 0 if i % 4 == 0 else rng.randint(-2 * R, 2 * R)
        P1 = rng.randint(-3, 3)
        T2 = rng.randint(-4, 4)
        DS = (P1 * P1 - P0 * T2) + rng.randint(0, 4) * R * R
        lo = Q(rng.randint(-4, 2), rng.choice([1, 2]))
        hi = Q(rng.randint(0, 4), rng.choice([1, 2]))
        lo, hi = min(lo, hi), max(lo, hi)
        args = (P0, P1, T2, R, DS, -3, 3, lo.numerator, lo.denominator,
                hi.numerator, hi.denominator)
        scanned = _wallscan_py.scan_candidates(*args)
        # sorted and duplicate-free, so with the set equality below the
        # brute force fixes the whole list, order included
        assert scanned == sorted(scanned)
        assert len(scanned) == len(set(scanned))
        assert all(abs(w1) < w1_box and abs(t) < t_box
                   for _, w1, t in scanned)
        assert set(scanned) == _brute_force_scan(
            P0, P1, T2, R, DS, -3, 3, lo, hi, w1_box, t_box)


# --- the scan's row filter ---------------------------------------------------

@st.composite
def scan_inputs(draw):
    """Raw scan arguments: scales 1, 2, 3 and 8, rank 0 (with P1 = 0 now
    and then) and negative ranks, budgets DS from 0 (tangency: the row
    filter's square root is exact) up, and beta ranges with unequal
    denominators."""
    R = draw(st.sampled_from([1, 2, 3, 8]))
    P0 = draw(st.one_of(st.just(0), st.integers(-3 * R, 3 * R)))
    P1 = draw(st.one_of(st.just(0), st.integers(-4 * R, 4 * R)))
    T2 = draw(st.integers(-6 * R, 6 * R))
    DS = draw(st.one_of(st.integers(0, 4),
                        st.integers(0, 6).map(
                            lambda k: P1 * P1 - P0 * T2 + k * R * R)))
    lo = draw(st.fractions(-6, 4, max_denominator=3))
    hi = lo + draw(st.fractions(0, 8, max_denominator=3))
    w0_lo = draw(st.integers(-8, 8))
    w0_hi = draw(st.integers(w0_lo - 1, 8))
    return (P0, P1, T2, R, DS, w0_lo, w0_hi,
            lo.numerator, lo.denominator, hi.numerator, hi.denominator)


@given(scan_inputs())
@settings(max_examples=400, deadline=None)
@example(_scan_args(NumClass(Q(1, 3), Q(1, 2), Q(1, 8), 0), Region(-2, 1, 3), 5))
@example(_scan_args(class_of_line_bundle(7), Region(-1, 1, 2), 0, 8))
@example(_scan_args(class_of_line_bundle(-3), Region(-5, 0, 9), 4))
@example(_scan_args(-1 * class_of_named("T(-2)"), Region(-3, -1, 4), 20))
@example(_scan_args(NumClass(0, 0, 1, 0), Region(-2, 0, 2), 3))
@example(_scan_args(NumClass(0, 1, Q(-1, 2), Q(1, 6)), Region(-4, 2, 6), 40))
# c3 = 0 with b3 < 0 at w0 = -1, where P0 = 2*R*w0: DS < 0 lets the row
# filter keep the row w1 = 0, whose t = 0 only the b3 check drops
@example((-2, 0, 0, 1, -1, -1, 1, 0, 1, 1, 1))
# beta_min = beta_max, then beta_min < 0 < beta_max with unequal
# denominators: the prefilter's two ends coincide, then differ in sign
@example(_scan_args(NumClass(2, -1, Q(-3, 2), Q(1, 6)), Region(Q(-5, 3), Q(-5, 3), 4), 20))
@example(_scan_args(class_of_named("T(-2)"), Region(Q(-3, 2), Q(2, 3), 4), 20))
# lattice classes, whose rows (a, top] of mirror_rows are mirrored, on w0
# boxes that are not symmetric: a box above P0 // 2 has no mirrored row,
# and a last scanned block started at P0 // 2 + 1 would scan rows below it
@example((-7, 5, -1, 1, 78, -1, 12, -11, 2, 5, 2))
# even P0, whose row P0/2 is its own mirror and is scanned
@example((4, 1, -3, 1, 20, -3, 6, -2, 1, 1, 1))
# odd P0
@example((3, -1, -5, 1, 30, -6, 6, -3, 1, 1, 1))
# rank 0
@example((0, 1, -1, 1, 20, -4, 5, -2, 1, 1, 2))
# negative rank
@example((-3, 1, 3, 1, 25, -5, 4, -2, 1, 1, 1))
# R = 1 with T2 - P1 odd: no mirrored row
@example((2, -1, -2, 1, 30, -6, 6, -4, 1, 2, 1))
# P0 - w0_lo < w0_hi: the rows above top are scanned
@example((-2, 1, 3, 1, 20, -3, 6, -2, 1, 2, 1))
def test_scan_matches_exhaustive_loop(args):
    """The row filter only skips rows without a real t: the scan's list is
    the exhaustive loop's, order included."""
    assert _wallscan_py.scan_candidates(*args) == scan_candidates_exhaustive(*args)


def _has_real_t(P0, P1, T2, R, DS, w0, w1):
    """Does some real t satisfy the scan's three linear constraints?"""
    M, N = P0 - R * w0, P1 - R * w1
    # each constraint as c*t <= b
    rows = ((R * R * w0, R * R * w1 * w1), (-M * R, N * N - M * T2),
            (M * R - R * R * w0, DS - R * R * w1 * w1 - N * N + M * T2))
    lo, hi = None, None
    for c, b in rows:
        if c == 0:
            if b < 0:
                return False
        elif c > 0:
            hi = Q(b, c) if hi is None else min(hi, Q(b, c))
        else:
            lo = Q(b, c) if lo is None else max(lo, Q(b, c))
    return lo is None or hi is None or lo <= hi


@given(scan_inputs())
@settings(max_examples=150, deadline=None)
def test_row_interval_keeps_every_row_with_a_real_t(args):
    """Every row with a real t is kept; in rank 0 (G linear in w1) the
    interval holds exactly those rows."""
    P0, P1, T2, R, DS, w0_lo, w0_hi = args[:7]
    for w0 in range(w0_lo, w0_hi + 1):
        if w0 == 0 and P0 == 0:
            continue
        lo, hi = _row_interval(P0, P1, T2, R, DS, w0, -60, 60)
        for w1 in range(-60, 61):
            if _has_real_t(P0, P1, T2, R, DS, w0, w1):
                assert lo <= w1 <= hi
            elif P0 == 0:
                assert not lo <= w1 <= hi


def test_quadratic_interval_is_exact():
    for a in range(1, 5):
        for b in range(-12, 13):
            for c in range(-12, 13):
                lo, hi = _quadratic_interval(a, b, c)
                # the square root is exact at tangency (D a square) only
                assert [x for x in range(-30, 31) if a * x * x + b * x + c <= 0
                        ] == list(range(lo, hi + 1))


# --- exact feasibility against a sympy oracle --------------------------------

def _sympy_feasible(wall, v, w, region) -> bool:
    """Independent oracle: parametrize the wall line by s (beta for a
    non-vertical wall, alpha for a vertical one), solve every constraint
    as a polynomial inequality in s with sympy, and test whether the
    intersection of the solution sets is empty."""
    s = sympy.Symbol("s", real=True)
    rat = lambda q: sympy.Rational(q.numerator, q.denominator)
    A, B, C = (sympy.Integer(c) for c in (wall.A, wall.B, wall.C))
    beta, alpha = (-C / B, s) if wall.A == 0 else (s, -(B * s + C) / A)
    constraints = [  # (p, op) stands for p(s) op 0
        (beta - rat(region.beta_min), ">="), (rat(region.beta_max) - beta, ">="),
        (rat(region.alpha_max) - alpha, ">="), (alpha - beta ** 2 / 2, ">"),
        (rat(w.v1) - beta * rat(w.v0), ">"),
        (rat(v.v1 - w.v1) - beta * rat(v.v0 - w.v0), ">"),
    ]
    feasible = sympy.S.Reals
    for p, op in constraints:
        pieces = solve_poly_inequality(sympy.Poly(p, s), op)
        feasible = feasible.intersect(sympy.Union(*pieces))
    return feasible != sympy.S.EmptySet


rank_zero_window = (NumClass(0, 2, 0, 0), NumClass(0, 1, 0, 0))  # Im Z = 1 > 0


@pytest.mark.parametrize("coeffs, v_w, region, expected", [
    # tangency B^2 = 2AC: alpha = 2 beta - 2 touches alpha = beta^2/2 at 2
    ((2, -4, 4), rank_zero_window, Region(-4, 4, 10), False),
    # region collapsed to the closed point beta = 1, where alpha = 3/2 > 1/2
    ((2, 0, -3), rank_zero_window, Region(1, 1, 10), True),
    # the alpha cap alpha = beta + 1 <= 1 leaves the closed point beta = 0
    ((1, -1, -1), rank_zero_window, Region(0, 2, 1), True),
    # the closed region end beta = 1 meets the open window end beta < 1 of
    # w = (1, 1): an empty interval, though q(1) < 0
    ((2, 0, -3), (NumClass(1, 2, 0, 0), NumClass(1, 1, 0, 0)),
     Region(1, 3, 10), False),
    # vertex 1/2 of q = 2 beta (beta - 1) clamped to the open Im-window end
    # beta > 1 of w = (-1, -1), where q = 0
    ((2, -1, 0), (NumClass(-1, 0, 0, 0), NumClass(-1, -1, 0, 0)),
     Region(-2, 3, 10), False),
    # the same window end beta > 0 leaves the vertex inside
    ((2, -1, 0), (NumClass(-1, 1, 0, 0), NumClass(-1, 0, 0, 0)),
     Region(-2, 3, 10), True),
    # closed region end at the root beta = 1 of q
    ((2, -1, 0), rank_zero_window, Region(1, 3, 10), False),
    # vertical walls beta = -1: alpha in (1/2, 1], then a cap at 1/2
    ((0, 1, 1), rank_zero_window, Region(-2, 0, 1), True),
    ((0, 1, 1), rank_zero_window, Region(-2, 0, Q(1, 2)), False),
    ((0, 1, 1), rank_zero_window, Region(0, 2, 1), False),
    # vertical wall beta = -1 on the Im-window boundary 1 + beta*1 > 0
    ((0, 1, 1), (NumClass(1, 2, 0, 0), NumClass(-1, 1, 0, 0)),
     Region(-2, 0, 3), False),
])
def test_wall_feasible_edge_cases(coeffs, v_w, region, expected):
    wall = wall_from_coefficients(*coeffs)
    v, w = v_w
    assert _wall_feasible(wall, v, w, region) is expected
    assert _sympy_feasible(wall, v, w, region) is expected


coefficient = st.integers(min_value=-6, max_value=6)
small_rank = st.integers(min_value=-3, max_value=3)
regions = st.builds(
    lambda lo, width, cap: Region(lo, lo + width, cap),
    st.fractions(min_value=-4, max_value=3, max_denominator=4),
    st.fractions(min_value=0, max_value=4, max_denominator=4),
    st.fractions(min_value=-1, max_value=8, max_denominator=4))


@st.composite
def wall_feasibility_cases(draw):
    """(wall, v, w, region): either an arbitrary line with arbitrary
    classes, or a line through a point (beta, alpha) of U near the alpha
    cap, with an Im window that opens or closes near that beta.  Only v0,
    v1, w0, w1 enter the feasibility test, so the higher components stay
    zero."""
    region = draw(regions)
    if draw(st.booleans()):
        # A = B = 0 is no line at all: wall_between gives None there
        coeffs = draw(st.tuples(coefficient, coefficient, coefficient).filter(
            lambda c: c[0] or c[1]))
        w = NumClass(draw(small_rank), draw(coefficient), 0, 0)
        v = NumClass(draw(small_rank), draw(coefficient), 0, 0)
        return wall_from_coefficients(*coeffs), v, w, region
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=4))
    beta = region.beta_min + t * (region.beta_max - region.beta_min)
    alpha = beta * beta / 2 + draw(st.fractions(min_value=Q(1, 8), max_value=2,
                                                max_denominator=8))
    cap = alpha + draw(st.fractions(min_value=-1, max_value=2, max_denominator=8))
    region = Region(region.beta_min, region.beta_max, cap)
    A, B = draw(st.tuples(coefficient, coefficient).filter(any))
    # Im Z(w) and Im Z(v - w) at beta are k/2 and m/2
    w0, u0 = draw(small_rank), draw(small_rank)
    k, m = draw(st.integers(-2, 4)), draw(st.integers(-2, 4))
    w = NumClass(w0, beta * w0 + Q(k, 2), 0, 0)
    v = w + NumClass(u0, beta * u0 + Q(m, 2), 0, 0)
    return wall_from_coefficients(A, B, -(A * alpha + B * beta)), v, w, region


@given(wall_feasibility_cases())
@settings(max_examples=150, deadline=None)
def test_wall_feasible_matches_sympy(case):
    assert _wall_feasible(*case) == _sympy_feasible(*case)


def _im_v_vanishes_on_wall(wall, v, region) -> bool:
    """Does Im Z(v) = v1 - beta*v0 vanish at a point of the non-vertical
    wall in region /\\ cap /\\ U?  Never on a wall of v (Delta(v) >= 0
    puts Pi(v) outside U), but the drawn lines are not all walls of v."""
    if v.v0 == 0:
        return v.v1 == 0
    mu = v.v1 / v.v0
    alpha = -(wall.B * mu + wall.C) / wall.A
    return (region.beta_min <= mu <= region.beta_max
            and mu * mu / 2 < alpha <= region.alpha_max)


@given(wall_feasibility_cases())
@settings(max_examples=150, deadline=None)
def test_wall_window_matches_sympy(case):
    """A point is a point of the wall in region /\\ cap /\\ U where
    Im Z(v) > 0.  There is none exactly when the sympy oracle with
    w = v/2, whose window 0 < Im Z(w) < Im Z(v) reads Im Z(v) > 0, finds no
    such point, whenever Im Z(v) has no zero on the wall there, as on
    every wall of v; a vertical wall never has one."""
    wall, v, _, region = case
    P0, P1 = _scaled(v)[:2]
    point = _wall_window(wall.A, wall.B, wall.C, region._ends, P0, P1)
    if point is not None:
        _assert_point_of_wall(wall, point, v, region)
    elif wall.A == 0 or _im_v_vanishes_on_wall(wall, v, region):
        return
    assert (point is not None) == _sympy_feasible(wall, v, Q(1, 2) * v, region)


def _assert_point_of_wall(wall, point, v, region):
    """The point (n, m, S) of ``_wall_window``, checked in Fraction: beta
    = n/m on the wall, which is not vertical, in the closed beta range of
    the region, under its cap and in U, with S = m*R*Im Z(v) > 0 there."""
    n, m, S = point
    assert m > 0 and wall.A != 0
    beta = Q(n, m)
    alpha = -(wall.B * beta + wall.C) / wall.A
    assert passes_through(wall, (beta, alpha))
    assert region.beta_min <= beta <= region.beta_max
    assert beta * beta / 2 < alpha <= region.alpha_max
    R = _scaled(v)[3]
    assert S == m * R * (v.v1 - beta * v.v0) > 0


def _points(v, region, disc):
    """{wall: point} for every distinct wall of the scanned candidates."""
    ends = region._ends
    P0, P1 = _scaled(v)[:2]
    walls = {wall_between(v, c) for c in _scanned(v, region, disc)} - {None}
    return {w: _wall_window(w.A, w.B, w.C, ends, P0, P1) for w in walls}


def test_every_wall_of_the_sweep_pool_has_its_point():
    """Each distinct key of the 72 walls-sweep inputs: its point lies on
    it inside region /\\ cap /\\ U where Im Z(v) > 0, and every returned
    wall has one; 1,073 of the 3,360 keys have a point, and 146 of those
    become walls."""
    with_point = 0
    for v, region, disc in _sweep_inputs():
        points = _points(v, region, disc)
        for wall, point in points.items():
            if point is not None:
                _assert_point_of_wall(wall, point, v, region)
                with_point += 1
        assert all(points[w] is not None
                   for w, _ in enumerate_candidate_walls(v, region, disc))
    assert with_point == 1073


@pytest.mark.parametrize("text, region, disc, wall, point, returned", [
    # the vertical wall beta = mu(O) = 0, where Im Z(O) = 0: no point
    ("O", Region(-4, 2, 6), 20, Wall(0, 1, 0), None, False),
    # 2*alpha = 5*beta: the vertex 5/2 is clamped onto beta_max = 2, where
    # Im Z(O) = -2 < 0: no point
    ("O", Region(-4, 2, 6), 20, Wall(2, -5, 0), None, False),
    # rank 0: the wall 2*alpha + beta = 0 at its vertex -1/2, Im Z = 1
    ("0,1,-1/2,1/6", Region(-2, 2, 3), 2, Wall(2, 1, 0), (-1, 2, 2), True),
])
def test_named_wall_points(text, region, disc, wall, point, returned):
    v = NumClass.parse(text) if "," in text else class_of_named(text)
    assert _points(v, region, disc)[wall] == point
    if point is not None:
        _assert_point_of_wall(wall, point, v, region)
    walls = [w for w, _ in enumerate_candidate_walls(v, region, disc)]
    assert (wall in walls) is returned


def _mirror(args, c):
    """iota(c) = (P0 - w0, P1 - w1, T2 - t), the triple of v - w, for the
    scan arguments of a lattice class."""
    P0, P1, T2 = args[:3]
    return P0 - c[0], P1 - c[1], T2 - c[2]


def _assert_sign_tests_match_oracle(v, region, disc) -> int:
    """Enumeration's two sign tests on every scanned candidate: with
    ``_witness_class`` made to return None, no witness slot ever fills, so
    enumeration tests each candidate it visits of every wall that has a
    point and records those that pass.  They must be exactly the visited
    candidates that the interval oracle ``wall_feasible`` accepts; a wall
    without a point must have none.  A candidate that enumeration skips
    (a mirrored row of a lattice class) must have its mirror iota(c)
    earlier in the scan, with the same ``wall_between_fraction`` wall and
    the same ``wall_feasible`` verdict.  On a wall with a point, neither
    Im Z(w) nor Im Z(v - w) is zero there, as enumeration's proof has it
    (so a test >= 0 in place of > 0 would give the same verdicts there).
    Returns the number of scanned candidates."""
    passed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walls_module, "_witness_class",
                   lambda *c: passed.append(c))
        assert enumerate_candidate_walls(v, region, disc) == []
    args = _scan_args(v, region, disc)
    scanned = _wallscan_py.scan_candidates(*args)
    visited = list(_wallscan_py.unmirrored_candidates(*args))
    points = _points(v, region, disc)
    feasible = {}
    for c in scanned:
        wall = wall_between(v, c)
        if wall is None:
            continue
        w = _witness_class(*c)
        if points[wall] is not None:
            beta = Q(*points[wall][:2])
            assert w.v1 - beta * w.v0 != 0 != v.v1 - w.v1 - beta * (v.v0 - w.v0)
        feasible[c] = _wall_feasible(wall, v, w, region)
    assert passed == [c for c in visited if feasible.get(c)]
    position = {c: i for i, c in enumerate(scanned)}
    for c in set(scanned).difference(visited):
        m = _mirror(args, c)
        assert position[m] < position[c]
        assert (wall_between_fraction(v, _witness_class(*m))
                == wall_between_fraction(v, _witness_class(*c)))
        assert feasible.get(m) == feasible.get(c)
    return len(scanned)


def test_sign_tests_match_the_interval_oracle_on_every_candidate():
    """Every candidate of the walls-sweep pool and of the disc-400 probe."""
    total = sum(_assert_sign_tests_match_oracle(*case) for case in _sweep_inputs())
    assert total == 18629
    probe = (NumClass(2, -1, Q(-3, 2), Q(1, 6)), Region(-4, 2, 6), 400)
    assert _assert_sign_tests_match_oracle(*probe) == 40261


@given(enumeration_cases, st.booleans())
@settings(max_examples=150, deadline=None)
def test_sign_tests_match_the_interval_oracle(case, rank_zero):
    """The same over v of every rank sign, made rank zero half the time,
    and random regions."""
    v, region, disc = case
    if rank_zero:  # disc(v) = v1^2 >= 0 holds for every rank-0 class
        v = NumClass(0, v.v1, v.v2, v.v3)
    _assert_sign_tests_match_oracle(v, region, disc)


def _assert_scan_mirrors(v, region, disc) -> int:
    """The scan of a lattice class is closed under iota inside its w0 box,
    and iota keeps each candidate's ``wall_between_fraction`` wall and its
    ``wall_feasible`` verdict.  Enumeration visits the scan less the rows
    of ``mirror_rows``, and none of the candidates it skips is the first
    of its wall key.  Returns the number of candidates it visits."""
    args = _scan_args(v, region, disc)
    P0, P1, T2, R, _, w0_lo, w0_hi = args[:7]
    assert R == 1 and (T2 - P1) % 2 == 0
    scanned = _wallscan_py.scan_candidates(*args)
    verdict = {}  # candidate -> (wall, feasible)
    first = {}  # wall -> the position of its first candidate
    for i, c in enumerate(scanned):
        w = _witness_class(*c)
        wall = wall_between_fraction(v, w)
        verdict[c] = wall, wall is not None and _wall_feasible(wall, v, w, region)
        first.setdefault(wall, i)
    for c in scanned:
        m = _mirror(args, c)
        if w0_lo <= m[0] <= w0_hi:
            assert m in verdict and verdict[m] == verdict[c]
    a, top = _wallscan_py.mirror_rows(P0, P1, T2, R, w0_lo, w0_hi)
    visited = list(_wallscan_py.unmirrored_candidates(*args))
    assert visited == [c for c in scanned if not a < c[0] <= top]
    for i, c in enumerate(scanned):
        if a < c[0] <= top and verdict[c][0] is not None:
            assert first[verdict[c][0]] < i
    return len(visited)


def test_enumeration_skips_the_mirrored_rows_of_the_sweep_pool():
    """Every walls-sweep class is a lattice class: one pass visits 9,684 of
    its 18,629 scanned candidates."""
    assert sum(_assert_scan_mirrors(*case) for case in _sweep_inputs()) == 9684


@given(st.tuples(small_lattice, small_lattice, small_lattice,
                 small_lattice).filter(any).map(lattice_class),
       enumeration_regions(), st.integers(min_value=0, max_value=20),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_scan_mirrors_on_lattice_classes(v, region, disc, rank_zero):
    if rank_zero:  # still a lattice class, and disc(v) = v1^2 >= 0
        v = NumClass(0, v.v1, v.v2, v.v3)
    if discriminant(v) >= 0:
        _assert_scan_mirrors(v, region, disc)


def test_search_box_reported():
    box = search_box(NumClass(1, 0, -1, 0), Q(1, 2))
    assert box["w0_min"] == -box["w0_max"] < 0
    assert "disc_budget" in box and "note" in box


# --- scene -------------------------------------------------------------------

def test_scene_for_O():
    region = Region(-1, 0, 1)
    scene = plot_scene(class_of_line_bundle(0), region)
    kinds = [c["kind"] for c in scene["curves"]]
    assert "boundary-parabola" in kinds
    ce = next(c for c in scene["curves"] if c["kind"] == "curve-CE")
    assert ce["lin"] == "0" and ce["const"] == "0"
    assert any(p["label"] == "Pi" and p["beta"] == "0" and p["alpha"] == "0"
               for p in scene["points"])


def test_scene_for_point_class():
    scene = plot_scene(class_of_named("point"), Region(-1, 0, 1))
    assert [c["kind"] for c in scene["curves"]] == ["boundary-parabola"]
    assert scene["points"] == []


def test_scene_marks_pi_of_tangent():
    scene = plot_scene(class_of_named("T(-2)"), Region(-1, 0, 1))
    assert any(p["label"] == "Pi" and Fraction(p["beta"]) == Q(-2, 3)
               and Fraction(p["alpha"]) == 0 for p in scene["points"])


def test_scene_serialization():
    v = NumClass(1, 0, -1, 0)
    region = Region(-2, 0, 2)
    walls = [w for w, _ in enumerate_candidate_walls(v, region, 0)]
    scene = plot_scene(v, region, walls)
    assert scene["schema"] == "tiltwall/scene-v1"
    assert any(c["kind"] == "wall" for c in scene["curves"])
    svg = scene_svg(scene, precision=3)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "polyline" in svg


def test_scene_svg_draws_a_vertical_wall_as_a_line():
    scene = {"schema": "tiltwall/scene-v1",
             "region": {"beta_min": "-2", "beta_max": "0", "alpha_max": "2"},
             "curves": [{"kind": "wall", "A": 0, "B": 1, "C": 1}],  # beta = -1
             "points": []}
    assert ('<line x1="240.0000" y1="20.0000" x2="240.0000" y2="340.0000" '
            'stroke="red"/>') in scene_svg(scene).splitlines()


def test_plot_frame_widens_a_side_of_width_zero():
    assert plot_frame(Q(1, 3), Q(1, 3), 1) == (1 / 3, 1 / 3 + 1.0, 0.0, 1.0)
    # alpha_max - 1 rounds to alpha_max = -2^53, and the cap moves up by 1
    assert plot_frame(-1, 1, -2 ** 53) == (-1.0, 1.0, -2.0 ** 53, 1 - 2.0 ** 53)


@pytest.mark.parametrize("region", [
    (10 ** 20, 10 ** 20, 10 ** 40),  # beta + 1 rounds back to beta
    (-1, 1, -2 ** 54),               # alpha_max - 1 rounds back to alpha_max
])
def test_a_frame_that_stays_of_width_zero_is_input_error(region):
    with pytest.raises(InputError, match="^scene too large to draw"):
        plot_frame(*region)
    scene = {"schema": "tiltwall/scene-v1",
             "region": dict(zip(("beta_min", "beta_max", "alpha_max"),
                                map(str, region))),
             "curves": [{"kind": "boundary-parabola", "eq": "alpha = beta^2/2"}],
             "points": []}
    with pytest.raises(InputError, match="^scene too large to draw"):
        scene_svg(scene)


def test_scene_svg_turns_a_float_overflow_into_input_error():
    # the region is drawable, but the curve's coefficient 10^400 is no float
    scene = plot_scene(NumClass(1, 10 ** 400, 0, 0), Region(-1, 0, 1), [])
    with pytest.raises(InputError, match="^scene too large to draw: a value "
                       "is beyond the float range$"):
        scene_svg(scene)


def test_scene_svg_turns_a_wall_that_is_no_line_into_input_error():
    # Wall(0, 0, 1) is a valid Wall, but 0*alpha + 0*beta + 1 = 0 has no point
    scene = plot_scene(NumClass(1, 0, -1, 0), Region(-2, 0, 2), [Wall(0, 0, 1)])
    with pytest.raises(InputError, match="^scene has a wall with A = B = 0, "
                       "which is no line$"):
        scene_svg(scene)


@pytest.mark.parametrize("where, value", [
    ("region", "1/0"), ("parabola", "1/0"), ("vertical", "abc"), ("point", "x")])
def test_scene_svg_turns_a_malformed_rational_into_input_error(where, value):
    # a hand-built scene: the region's beta_min, a curve-CE's lin or beta,
    # or a point's beta is no rational
    scene = plot_scene(NumClass(1, 0, -1, 0), Region(-2, 0, 2), [])
    if where == "region":
        scene["region"]["beta_min"] = value
    elif where == "point":
        scene["points"] = [{"label": "Pi", "beta": value, "alpha": "1"}]
    elif where == "parabola":
        scene["curves"].append({"kind": "curve-CE", "shape": "parabola",
                                "lin": value, "const": "0"})
    else:
        scene["curves"].append({"kind": "curve-CE", "shape": "vertical",
                                "beta": value})
    with pytest.raises(InputError, match=f"^scene value '{value}' is not a "
                       "rational number$"):
        scene_svg(scene)
