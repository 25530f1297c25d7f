"""Numerical wall-and-chamber computation in the (beta, alpha)-plane for a
fixed class: pairwise walls, the concurrency/parallelism structure,
candidate enumeration over integral classes, and plot-scene construction.

Walls are lines A*alpha + B*beta + C = 0 in ``Wall``'s integer normal
form.  ``wall_between`` gives the wall of two classes, and
``enumerate_candidate_walls`` the walls of one class in a region, from the
integer scan of ``_wallscan_py``; their docstrings state the rules and
prove them.  Every verdict is exact, in integers and ``Fraction`` only;
floats appear only in the SVG renderer (``plot_frame``, ``scene_svg``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from ._record import Record
from .errors import DomainError, InputError
from .numclass import NumClass, rational
from .tiltcalc import curve_CE

from . import _wallscan_py


class Wall(Record):
    """Line A*alpha + B*beta + C = 0, canonically normalized: integer
    coprime coefficients with the first nonzero one positive."""

    __slots__ = ("A", "B", "C")

    def __init__(self, A: int, B: int, C: int):
        """The line of the integer coefficients (A, B, C), divided by their
        gcd with the first nonzero one made positive; DomainError for
        (0, 0, 0)."""
        g = math.gcd(A, B, C)
        if g == 0:
            raise DomainError("degenerate wall (0, 0, 0)")
        if (A or B or C) < 0:
            g = -g
        self._set(A // g, B // g, C // g)

    def __str__(self) -> str:
        return f"{self.A}*alpha + {self.B}*beta + {self.C} = 0"


def wall_between(v: NumClass | tuple[int, int, int],
                 w: NumClass | tuple[int, int, int]) -> Optional[Wall]:
    """The locus nu(v) = nu(w): the line with A = w0 v1 - v0 w1,
    B = w2 v0 - v2 w0, C = v2 w1 - w2 v1.  Each of ``v`` and ``w`` is a
    ``NumClass`` or the integer triple (ch0, ch1, 2*ch2) of a class up to a
    positive factor, as the wall scan yields w as (w0, w1, t) and
    enumeration passes v as (P0, P1, T2).  A class is scaled to integers by
    the least positive factor that makes them so (``_scaled``); positive
    factors R and S scale the coefficients by 2RS > 0 and leave the wall as
    it is.  None when A = B = 0: the locus is then C = 0, all of the plane
    for proportional truncations (C = 0 too) and no point at all otherwise,
    as for two rank-zero classes whose tilt slopes never agree."""
    P0, P1, T2 = v if isinstance(v, tuple) else _scaled(v)[:3]
    w0, w1, t = w if isinstance(w, tuple) else _scaled(w)[:3]
    A, B = 2 * (w0 * P1 - P0 * w1), t * P0 - T2 * w0
    return None if A == B == 0 else Wall(A, B, T2 * w1 - t * P1)


def pi_point(v: NumClass) -> Optional[tuple[Fraction, Fraction]]:
    """Common point (v1/v0, v2/v0) of all walls of v; None in rank zero."""
    if v.v0 == 0:
        return None
    return (v.v1 / v.v0, v.v2 / v.v0)


def common_slope(v: NumClass) -> Optional[Fraction]:
    """Shared slope v2/v1 of the (mutually parallel) walls of a rank-zero
    class; None when v1 = 0."""
    if v.v0 != 0:
        raise DomainError("common_slope needs a rank-zero class")
    if v.v1 == 0:
        return None
    return v.v2 / v.v1


def passes_through(wall: Wall, q: tuple) -> bool:
    """Exact incidence of the point q = (beta, alpha) on the wall."""
    beta, alpha = rational(q[0]), rational(q[1])
    return wall.A * alpha + wall.B * beta + wall.C == 0


class Region(Record):
    """Rational box of parameters: beta in [beta_min, beta_max], alpha up
    to alpha_max, always intersected with the open half-plane U.  The
    derived slot ``_ends`` holds, for enumeration, the ends of the beta
    range (the scan's beta integers) and the cap, each n/m as (n, m) with
    m > 0; ``_wall_window`` takes the triple."""

    __slots__ = ("beta_min", "beta_max", "alpha_max", "_ends")

    def __init__(self, beta_min, beta_max, alpha_max):
        beta_min, beta_max = rational(beta_min), rational(beta_max)
        alpha_max = rational(alpha_max)
        if beta_min > beta_max:
            raise InputError("empty beta range")
        self._set(beta_min, beta_max, alpha_max,
                  (beta_min.as_integer_ratio(), beta_max.as_integer_ratio(),
                   alpha_max.as_integer_ratio()))

    def to_json_dict(self) -> dict:
        return {"beta_min": str(self.beta_min), "beta_max": str(self.beta_max),
                "alpha_max": str(self.alpha_max)}


# --- a point of one wall ----------------------------------------------------
#
# Along a non-vertical wall (A > 0) everything is a function of beta.  The
# region and the alpha cap cut out a closed interval of beta, and with
# alpha = -(B beta + C)/A the U condition alpha > beta^2/2 reads
# q(beta) = A beta^2 + 2B beta + 2C < 0.  q is convex, so it is negative
# somewhere on a nonempty interval iff it is negative at the vertex -B/A
# clamped into the interval, and that clamped vertex is the wall's point.

def _wall_window(A: int, B: int, C: int, ends, P0: int, P1: int):
    """The point where enumeration tests the candidates of the wall
    A*alpha + B*beta + C = 0 (``Wall``'s normal form), as (n, m, S): beta
    n/m with m > 0 in the region's closed beta range (``ends``), under its
    cap and in U, and S = P1*m - P0*n = m*R*Im Z(v) > 0 there; None when
    there is none.  A vertical wall is beta = mu(v), where Im Z(v) = 0."""
    if A == 0:
        return None
    (ln, ld), (hn, hd), (cn, cd) = ends
    # the cap alpha(beta) <= cn/cd, times cd: c*beta + d >= 0
    c, d = B * cd, C * cd + A * cn
    if c > 0:  # beta >= -d/c
        if ln * c + d * ld < 0:  # lo < -d/c
            ln, ld = -d, c
    elif c < 0:  # beta <= d/(-c)
        if hn * c + d * hd < 0:  # -d/c < hi
            hn, hd = d, -c
    elif d < 0:
        return None
    if ln * hd > hn * ld:
        return None
    n, m = -B, A
    if n * ld < ln * m:
        n, m = ln, ld
    elif n * hd > hn * m:
        n, m = hn, hd
    S = P1 * m - P0 * n
    # the sign of m^2 q(n/m), then Im Z(v) > 0
    if (A * n + 2 * B * m) * n + 2 * C * m * m >= 0 or S <= 0:
        return None
    return n, m, S


# --- candidate enumeration ---------------------------------------------------

def _witness_class(w0: int, w1: int, t: int) -> NumClass:
    """Integral class with rank w0, degree w1 and 2*ch2 = t, for t = w1
    (mod 2): the lattice point w0*O + w1*O_H + (t + w1)/2*O_L + t*O_pt."""
    return NumClass(w0, w1, Fraction(t, 2), Fraction(3 * t - 2 * w1, 6))


# Values of w0 a scan may visit, over the box |w0| <= w0_max of
# ``_scan_inputs``.  A scanned row costs at least about 1.5 us, and a
# mirrored row (a lattice class, ``_wallscan_py.mirror_rows``) about a
# fifteenth of a scanned one, its candidates included: 1.6-1.8 us against
# 0.11-0.12 us for 200000,0,-1,0 (Delta = 400,000) in Region(-1/10^6, 0, 1)
# at disc 0, whose box of 800,005 rows has 500,003 scanned, with 200,000
# candidates, and 300,002 mirrored, with 199,998; a scanned row without a
# candidate costs 1.5-2.1 us (best of 7, 2-vCPU Intel Xeon, Python 3.11.7,
# varying with the host's load).  A lattice class still scans more than
# half of the rows of its box, which is symmetric, and any other class all
# of them, so a search box over this many values would scan for 7 s or more
# and is rejected before the scan.
SCAN_W0_BUDGET = 10**7


def _digits(n: int) -> str:
    """n > 0 in full up to 15 digits, else cut to d.dd followed by e and
    its exponent, so that a message stays short."""
    s = str(n)
    return s if len(s) <= 15 else f"{s[0]}.{s[1:3]}e{len(s) - 1}"


def _scaled(v: NumClass) -> tuple[int, int, int, int]:
    """(R*v0, R*v1, 2R*v2, R) for the least R > 0 that makes the first
    three integers, from each component's integer ratio read once: the
    denominator of 2*v2 is d2 // gcd(2, d2)."""
    n0, d0 = v.v0.as_integer_ratio()
    n1, d1 = v.v1.as_integer_ratio()
    n2, d2 = v.v2.as_integer_ratio()
    R = math.lcm(d0, d1, d2 // math.gcd(2, d2))
    return n0 * (R // d0), n1 * (R // d1), n2 * (2 * R // d2), R


def _scan_inputs(v: NumClass, slack):
    """The class's side of the scan, derived once for enumeration and
    ``search_box``: ``_scaled``'s P0, P1, T2 and R,
    disc = R^2 * disc(v), the budget DS = floor(R^2 * (disc(v) + slack))
    and the search box's bound w0_max on |w0|.  That bound is a heuristic:
    the larger of 2*ceil(|v0|) + 2, 2*(isqrt(ceil(disc(v) + slack)) + 1) + 2
    and 8.  InputError for a negative slack, DomainError when
    disc(v) < 0."""
    n, d = rational(slack).as_integer_ratio()
    if n < 0:
        raise InputError("disc_bound must be nonnegative")
    P0, P1, T2, R = _scaled(v)
    disc = P1 * P1 - P0 * T2  # R^2 * disc(v)
    if disc < 0:
        raise DomainError("class has negative discriminant; no walls")
    R2 = R * R
    top = -(-(disc * d + n * R2) // (R2 * d))  # ceil(disc(v) + slack)
    w0_max = max(2 * -(-abs(P0) // R) + 2, 2 * math.isqrt(top) + 4, 8)
    return P0, P1, T2, R, disc, disc + R2 * n // d, w0_max


def search_box(v: NumClass, disc_bound) -> dict:
    """The finite lattice box that a scan for v covers, as ``_scan_inputs``
    derives it, reported for reproducibility; a request that the region
    rule or the Delta(v) = 0 rule of ``enumerate_candidate_walls`` answers
    scans none of it.  The rank bound is ``_scan_inputs``' heuristic;
    completeness relative to all numerical walls is not claimed."""
    _, _, _, R, disc, _, w0_max = _scan_inputs(v, disc_bound)
    return {"w0_min": -w0_max, "w0_max": w0_max,
            "disc_budget": str(Fraction(disc, R * R) + rational(disc_bound)),
            "note": "heuristic rank bound; numerical walls only"}


def enumerate_candidate_walls(v: NumClass, region: Region,
                              disc_bound) -> list[tuple[Wall, NumClass]]:
    """Deduplicated, canonically sorted numerical walls for v inside the
    region, each with one integral witness class w satisfying the
    discriminant filters and the Im Z window on the wall.

    The Im Z window is one rule: the wall of w is a wall of v when some
    point of it in region /\\ cap /\\ U has 0 < Im Z(w) < Im Z(v), where
    Im Z = ch1^b = ch1 - beta*ch0.  Enumeration applies it at three levels,
    in integers.
      * The region, before the w0 budget and the scan: [] when
        Im Z(v) <= 0 at both ends n/d of the closed beta range
        (P1*d - P0*n <= 0), so on all of it, being linear in beta, or when
        the cap cn/cd lies at or below U over the range (2*cn*y^2 <=
        cd*x^2, x/y the beta of the range nearest 0).
      * The wall: its first candidate builds it with ``wall_between`` on
        the triples (P0, P1, T2) and (w0, w1, t), and its point (n, m, S)
        with ``_wall_window`` from the ``Wall``'s fields, where
        S = m*R*Im Z(v) > 0, or None, which ends the key's tests.
      * The candidate (w0, w1, t): with k = w1*m - w0*n = m*Im Z(w) at n/m,
        it passes iff 0 < k and R*k < S, that is iff Im Z(w) > 0 and
        Im Z(v - w) > 0 there.
    Beside the region rule, the Delta(v) = 0 rule answers [] before the w0
    budget and the scan when R^2 * disc(v) = P1^2 - P0*T2 is 0, as for a
    line bundle O(n), its multiples and every class with v0 = v1 = 0: such
    a class has no wall at all (why below).

    The scan skips every row (w0, w1) that admits no real t, by a
    discriminant bound (see ``_wallscan_py``), so its work follows the rows
    that do, not the width of the region's Im window.  A search box of
    more than SCAN_W0_BUDGET values of w0 (``_scan_inputs``, in integers)
    raises InputError before the scan.  A scanned candidate's wall key is
    the wall's direction through Pi(v): (A, B)/g with g = gcd(A, B) when
    P0 != 0, and (A, C)/g with g = gcd(A, C) in rank 0, its first nonzero
    entry positive.  It names the line, because every line
    A*alpha + B*beta + C = 0 through [v] = [P0 : P1 : T2/2] has
    A*T2 + 2B*P1 + 2C*P0 = 0: when P0 != 0, (A, B) fixes C, and in rank 0,
    where P1 != 0 (the Delta(v) = 0 rule has run) and A = 2*w0*P1 != 0,
    (A, C) fixes B.  So g = 0 exactly when A = B = C = 0, and such a
    candidate is skipped.  One table of this call maps the key to
    [wall, point, witness], or to None when the wall has no point, so that
    its later candidates cost one lookup.  Candidates are taken in scan
    order, and the first one that passes fills the witness slot
    (``_witness_class``, the one ``Fraction`` step), after which its
    wall's later candidates are skipped.  For a lattice class the rows
    a < w0 <= top of ``_wallscan_py.mirror_rows`` are not visited at all
    (``_wallscan_py.unmirrored_candidates``; why below).

    Why one point decides the window.  Write X = -Re Z = ch2^b -
    (omega^2/2)*ch0, with omega^2 = 2*alpha - beta^2 > 0 in U.  The wall of
    w is the locus X(w)*ch1^b(v) = X(v)*ch1^b(w), which expands to
    A*alpha + B*beta + C, and v - w has the same wall.  Let I be the set of
    beta of the wall's points in region /\\ cap /\\ U: the wall's closed
    window under the region and the cap, cut by the open interval q < 0,
    so an interval, and it holds n/m.
      * A vertical wall is beta = mu(v), where Im Z(v) = 0, so it has no
        point.  For v0 != 0 every wall of v passes through
        Pi(v) = (v1/v0, v2/v0); in rank 0, A = 2*w0*P1 with P1 != 0 (else
        Delta(v) = 0, and that rule fires) and w0 != 0 (the scan skips
        w0 = P0 = 0).
      * On a non-vertical wall, ch1^b(v) has no zero on I.  Delta(v) >= 0,
        checked first, puts Pi(v) on or below alpha = beta^2/2, outside U,
        and the wall meets beta = mu(v), the one zero of ch1^b(v), only at
        Pi.  In rank 0, ch1^b(v) = v1 != 0.  So S <= 0 at n/m means
        Im Z(v) < 0 on all of I, and no w has a window there.
      * ch1^b(w) = 0 at a beta of I would force X(w) = 0 there, that is
        Z(w) = 0, and then Delta(w) = (ch1^b)^2 - 2*ch0*ch2^b =
        -omega^2*w0^2.  The scan keeps only Delta(w) >= 0, so w0 = 0, and
        Z(w) = 0 then reads w1 = w2 = 0: w = 0, so A = B = C = 0, g = 0
        and the candidate is skipped.  The same holds for v - w, with
        Delta(v - w) >= 0 and v - w = 0 again giving g = 0.
      * So Im Z(w) and Im Z(v - w) keep their signs on I, and the test at
        n/m gives the verdict on the whole wall, which is whether some
        point of it in region /\\ cap /\\ U has 0 < Im Z(w) < Im Z(v).

    Why a class with Delta(v) = 0 has no wall.  Delta is negative definite
    on ker Z at each point of U, the support property of Bayer-Macri-
    Stellari (The space of stability conditions on abelian threefolds, and
    on some Calabi-Yau threefolds); Macri-Schmidt (Lectures on Bridgeland
    stability) use it to show that Delta shrinks along walls.  Write
    Delta(a, b) = a1*b1 - a0*b2 - a2*b0 for the bilinear form of
    Delta = ch1^2 - 2*ch0*ch2, so that Delta(v) = Delta(w) +
    Delta(v - w) + 2*Delta(w, v - w).  Take a scanned w that passes the
    window at the wall's point n/m.
      * There nu(w) = nu(v) and Im Z(v) > 0, so Z(w) = mu*Z(v) with
        mu = Im Z(w)/Im Z(v), and 0 < mu < 1 by the window.
      * So Z(v - w) = lambda*Z(w) with lambda = (1 - mu)/mu > 0: write
        v - w = lambda*w + k with k in ker Z.  Then
        2*lambda*Delta(w, v - w) = lambda^2*Delta(w) + Delta(v - w) -
        Delta(k), by expanding Delta(v - w).
      * Delta(k) = -omega^2*k0^2, as shown above for Z(w) = 0, and k0 = 0
        forces k1 = k2 = 0.  So Delta(k) < 0 unless k = 0, and with the
        scan's Delta(w) >= 0 and Delta(v - w) >= 0, Delta(w, v - w) > 0.
      * k = 0 means v - w = lambda*w, so w is proportional to v, A = B =
        C = 0, g = 0 and the candidate is skipped.
    So every witness has Delta(w) + Delta(v - w) < Delta(v), strictly.
    When Delta(v) = 0 no w meets that with both terms >= 0: the scan's
    candidates hold no witness, and the rule answers without them.

    Why the mirrored rows need no visit.  For a lattice class (R = 1 and
    T2 = P1 (mod 2)), iota(w0, w1, t) = (P0 - w0, P1 - w1, T2 - t), that is
    w -> v - w, maps the scanned candidates of the rows a < w0 <= top onto
    scanned candidates of rows at most a, which come earlier in the list
    (``_wallscan_py``'s docstring).  Take c in such a row.
      * iota(c) has the key of c: it negates A, B and C (A of iota(c) is
        2*((P0 - w0)*P1 - P0*(P1 - w1)) = -A, and so on), so A and the
        key's second coordinate, and the key forgets the sign; g = 0 for
        both or for neither.
      * iota(c) has the verdict of c: with R = 1 it maps k to S - k at the
        key's point, so 0 < k < S holds for both or for neither.
    So c is never its key's first candidate, which builds the wall with
    ``wall_between`` and the point, and never the first candidate of its
    key that passes, since iota(c), earlier, passes with it.  Leaving
    those rows out keeps every ``wall_between`` call, its arguments and
    their order, and every witness.
    """
    P0, P1, T2, R, disc, DS, w0_max = _scan_inputs(v, disc_bound)
    if disc == 0:  # the Delta(v) = 0 rule
        return []
    (bln, bld), (bhn, bhd), (cn, cd) = ends = region._ends
    # x/y: the beta of the range nearest 0, where U reaches lowest
    x, y = (bln, bld) if bln > 0 else (bhn, bhd) if bhn < 0 else (0, 1)
    if (P1 * bld - P0 * bln <= 0 and P1 * bhd - P0 * bhn <= 0
            or 2 * cn * y * y <= cd * x * x):
        return []
    width = 2 * w0_max + 1
    if width > SCAN_W0_BUDGET:
        raise InputError(f"search box |w0| <= {_digits(w0_max)} holds "
                         f"{_digits(width)} values of w0, over the scan budget "
                         f"of {SCAN_W0_BUDGET}")
    vt = (P0, P1, T2)
    # key -> [wall, point, witness], or None for a wall without a point
    table: dict[tuple[int, int], Optional[list]] = {}
    for w0, w1, t in _wallscan_py.unmirrored_candidates(
            P0, P1, T2, R, DS, -w0_max, w0_max, bln, bld, bhn, bhd):
        # the key: the wall's direction through Pi(v), (A, B) or in rank 0 (A, C)
        A = 2 * (w0 * P1 - P0 * w1)
        Y = t * P0 - T2 * w0 if P0 else T2 * w1 - t * P1
        g = math.gcd(A, Y)
        if g == 0:
            continue
        if (A or Y) < 0:
            g = -g
        key = A // g, Y // g
        entry = table.get(key, False)
        if entry is False:  # the wall's first candidate; perfbench counts keys here
            wall = wall_between(vt, (w0, w1, t))
            point = _wall_window(wall.A, wall.B, wall.C, ends, P0, P1)
            entry = table[key] = None if point is None else [wall, point, None]
        if entry is not None and entry[2] is None:
            n, m, S = entry[1]
            k = w1 * m - w0 * n  # m * Im Z(w) at beta = n/m
            if 0 < k and R * k < S:
                entry[2] = _witness_class(w0, w1, t)
    found = [(wall, w) for wall, _, w in filter(None, table.values())
             if w is not None]
    return sorted(found, key=lambda pair: (pair[0].A, pair[0].B, pair[0].C))


# --- plot scene --------------------------------------------------------------

def plot_scene(v: NumClass, region: Region, walls: Sequence[Wall] = ()) -> dict:
    """The ``tiltwall/scene-v1`` document of the region: the boundary
    parabola, the class's curve, the given walls and the point Pi.  The
    walls are drawn as given; those of ``enumerate_candidate_walls`` all
    meet the region under its alpha cap."""
    curves: list[dict] = [{"kind": "boundary-parabola", "eq": "alpha = beta^2/2"}]
    ce = curve_CE(v)
    if ce.kind == "parabola":
        curves.append({"kind": "curve-CE", "shape": "parabola",
                       "lin": str(ce.lin), "const": str(ce.const)})
    elif ce.kind == "vertical" and region.beta_min <= ce.beta0 <= region.beta_max:
        curves.append({"kind": "curve-CE", "shape": "vertical",
                       "beta": str(ce.beta0)})
    curves += [{"kind": "wall", "A": w.A, "B": w.B, "C": w.C} for w in walls]
    points: list[dict] = []
    pi = pi_point(v)
    if pi is not None and (region.beta_min <= pi[0] <= region.beta_max
                           and pi[1] <= region.alpha_max):
        points.append({"label": "Pi", "beta": str(pi[0]), "alpha": str(pi[1])})
    return {"schema": "tiltwall/scene-v1", "region": region.to_json_dict(),
            "curves": curves, "points": points}


_TOO_LARGE = "scene too large to draw: a value is beyond the float range"


def _scene_float(x) -> float:
    """A rational value of a scene (a ``Fraction``, an int or a string
    such as "-3/2") as a float; InputError naming it when it is no
    rational, and OverflowError when floats cannot hold it."""
    try:
        q = Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InputError(f"scene value {x!r} is not a rational number") from None
    return float(q)


def plot_frame(beta_min, beta_max, alpha_max) -> tuple[float, float, float, float]:
    """The float frame (bmin, bmax, amin, amax) in which ``scene_svg`` draws
    a region, alpha from 0 or from 1 below a cap that is not positive, and a
    side of width 0 widened to 1; InputError when a value is no rational
    (``_scene_float``), or a side is beyond the float range or still of
    width 0, as past 2^53, where adding 1 can leave a float as it is."""
    try:
        bmin, bmax, amax = map(_scene_float, (beta_min, beta_max, alpha_max))
        amin = 0.0 if amax > 0 else amax - 1.0
        if bmax == bmin:
            bmax = bmin + 1.0
        if amax == amin:
            amax = amin + 1.0
        if all(w != 0 and math.isfinite(w) for w in (bmax - bmin, amax - amin)):
            return bmin, bmax, amin, amax
    except OverflowError:
        pass
    raise InputError(_TOO_LARGE)


def scene_svg(scene: dict, precision: int = 4) -> str:
    """SVG drawing of a ``plot_scene`` document with ``precision`` decimals:
    write-only float rendering, every geometric decision has already been
    made exactly upstream.  InputError for a scene that cannot be drawn: a
    value that is no rational or that floats cannot hold, the sides of its
    region included (``plot_frame``), or a wall with A = B = 0, which is no
    line."""
    width, height, pad = 480, 360, 20.0
    bmin, bmax, amin, amax = plot_frame(
        *(scene["region"][k] for k in ("beta_min", "beta_max", "alpha_max")))

    def fmt(x: float) -> str:
        return f"{x:.{precision}f}"

    def to_x(beta: float) -> float:
        return pad + (beta - bmin) / (bmax - bmin) * (width - 2 * pad)

    def to_y(alpha: float) -> float:
        return height - pad - (alpha - amin) / (amax - amin) * (height - 2 * pad)

    def vline(beta: float, color: str) -> str:
        x = fmt(to_x(beta))
        return (f'<line x1="{x}" y1="{fmt(pad)}" x2="{x}" '
                f'y2="{fmt(height - pad)}" stroke="{color}"/>')

    def polyline(fn, color: str) -> str:
        n = 64
        pts = []
        for i in range(n + 1):
            b = bmin + (bmax - bmin) * i / n
            a = fn(b)
            if amin - 1e9 < a < amax + 1e9:
                pts.append(f"{fmt(to_x(b))},{fmt(to_y(a))}")
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1" '
                f'points="{" ".join(pts)}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="{fmt(pad)}" y="{fmt(pad)}" width="{fmt(width - 2 * pad)}" '
        f'height="{fmt(height - 2 * pad)}" fill="white" stroke="black"/>',
    ]
    try:
        for cv in scene["curves"]:
            if cv["kind"] == "boundary-parabola":
                parts.append(polyline(lambda b: b * b / 2, "gray"))
            elif cv["kind"] == "curve-CE" and cv.get("shape") == "parabola":
                lin, const = _scene_float(cv["lin"]), _scene_float(cv["const"])
                parts.append(polyline(lambda b, l=lin, c=const: b * b + l * b + c, "blue"))
            elif cv["kind"] == "curve-CE" and cv.get("shape") == "vertical":
                parts.append(vline(_scene_float(cv["beta"]), "blue"))
            elif cv["kind"] == "wall":
                A, B, C = cv["A"], cv["B"], cv["C"]
                if A == B == 0:
                    raise InputError("scene has a wall with A = B = 0, which is no line")
                parts.append(vline(-C / B, "red") if A == 0 else
                             polyline(lambda b, A=A, B=B, C=C: -(B * b + C) / A, "red"))
        for pt in scene["points"]:
            x = fmt(to_x(_scene_float(pt["beta"])))
            y = fmt(to_y(_scene_float(pt["alpha"])))
            parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="black"/>')
            parts.append(f'<text x="{x}" y="{y}" dx="5" dy="-5" '
                         f'font-size="10">{pt["label"]}</text>')
    except OverflowError:
        raise InputError(_TOO_LARGE) from None
    parts.append("</svg>")
    return "\n".join(parts)
