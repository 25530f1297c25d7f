"""Numerical wall-and-chamber computation in the (beta, alpha)-plane for a
fixed class: pairwise walls, the concurrency/parallelism structure,
candidate enumeration over integral classes, and plot-scene construction.

Walls are lines A*alpha + B*beta + C = 0, which ``Wall`` puts in a
canonical integer normal form.  One integer scaling of a class
(``_scaled``) and one cross product give every wall key: ``wall_between``
scales both classes, and enumeration scales v once and runs the integer
candidate scan of ``_wallscan_py``, which visits only the (w0, w1) rows
that admit a real t, taking its candidates in scan order and computing
each key inline.
The per-key work is integers: the first candidate of a key builds its
``Wall`` through ``wall_between`` and its window, the beta interval where
it meets the region, the alpha cap and U (``_wall_window``, on the
region's integers read once by ``_region_ends``); both are cached for the
call, rejections included.  Per witness only the two strict Im Z window
constraints are added.  The first feasible witness of a wall wins.  Every
verdict is exact, in integers and ``Fraction`` only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from ._record import Record
from .errors import DomainError, InputError
from .numclass import NumClass
from .tiltcalc import curve_CE, discriminant

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

    @staticmethod
    def from_coefficients(A, B, C) -> "Wall":
        A, B, C = Fraction(A), Fraction(B), Fraction(C)
        scale = math.lcm(A.denominator, B.denominator, C.denominator)
        return Wall(int(A * scale), int(B * scale), int(C * scale))

    def slope(self) -> Optional[Fraction]:
        """d alpha / d beta, None for a vertical wall (A = 0)."""
        if self.A == 0:
            return None
        return Fraction(-self.B, self.A)

    def __str__(self) -> str:
        return f"{self.A}*alpha + {self.B}*beta + {self.C} = 0"


def wall_between(v: NumClass, w: NumClass) -> Optional[Wall]:
    """The locus nu(v) = nu(w): the line with A = w0 v1 - v0 w1,
    B = w2 v0 - v2 w0, C = v2 w1 - w2 v1; None for proportional
    truncations (A = B = C = 0).  Both classes are scaled to integers by
    positive factors R and S (``_scaled``), which scales the coefficients
    by 2RS > 0 and leaves the wall as it is."""
    P0, P1, T2, _ = _scaled(v)
    w0, w1, t, _ = _scaled(w)
    A, B, C = 2 * (w0 * P1 - P0 * w1), t * P0 - T2 * w0, T2 * w1 - t * P1
    return None if A == B == C == 0 else Wall(A, B, C)


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
    beta, alpha = Fraction(q[0]), Fraction(q[1])
    return wall.A * alpha + wall.B * beta + wall.C == 0


class Region(Record):
    """Rational box of parameters: beta in [beta_min, beta_max], alpha up
    to alpha_max, always intersected with the open half-plane U."""

    __slots__ = ("beta_min", "beta_max", "alpha_max")

    def __init__(self, beta_min, beta_max, alpha_max):
        beta_min, beta_max = Fraction(beta_min), Fraction(beta_max)
        alpha_max = Fraction(alpha_max)
        if beta_min > beta_max:
            raise InputError("empty beta range")
        self._set(beta_min, beta_max, alpha_max)

    def to_json_dict(self) -> dict:
        return {"beta_min": str(self.beta_min), "beta_max": str(self.beta_max),
                "alpha_max": str(self.alpha_max)}


# --- exact feasibility of one wall -------------------------------------------
#
# Along a non-vertical wall (A > 0) everything is a function of beta.  The
# region, the alpha cap and the Im window cut out an interval of beta, and
# with alpha = -(B beta + C)/A the U condition alpha > beta^2/2 reads
# q(beta) = A beta^2 + 2B beta + 2C < 0.  q is convex, so it is negative
# somewhere on a nonempty interval iff it is negative at the vertex -B/A
# clamped into the interval's closure.  The region and the cap depend only
# on the wall (``_wall_window``); the Im window depends on the witness too.

def _clip(A, B, C, window, constraints):
    """Cut the beta interval ``window`` = (lo, lo_strict, hi, hi_strict) by
    linear constraints (c, d, strict), each meaning c*beta + d > 0 (>= 0 if
    not strict), and return the result, or None when it is empty or, on a
    non-vertical wall, q >= 0 on all of it.  An end is a pair (n, m) for
    n/m with m > 0, so that every comparison is one cross-multiplication
    and nothing is reduced; with integer c and d it is all integers."""
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


def _region_ends(region: Region):
    """The region in integers, as ``_wall_window`` takes it: its closed
    beta range as a ``_clip`` window, and its alpha cap n/m as (n, m)."""
    lo, hi = region.beta_min, region.beta_max
    return ((lo.as_integer_ratio(), False, hi.as_integer_ratio(), False),
            region.alpha_max.as_integer_ratio())


def _wall_window(A: int, B: int, C: int, ends):
    """The beta interval of the wall A*alpha + B*beta + C = 0 inside the
    region's beta range and under its alpha cap (both non-strict), or None
    when the wall misses region /\\ cap /\\ U; ``ends`` is the region's
    ``_region_ends``.  It depends only on the wall, so enumeration computes
    it once per wall.  A vertical wall beta = -C/B pins the interval to
    [beta0, beta0]; U holds at some alpha under the cap n/m iff
    n/m > beta0^2/2, that is 2*n*B^2 - m*C^2 > 0."""
    beta_range, (n, m) = ends
    if A == 0:
        constraints = ((B, C, False), (-B, -C, False),
                       (0, 2 * n * B * B - m * C * C, True))
    else:  # alpha(beta) <= alpha_max, times m
        constraints = ((B * m, C * m + A * n, False),)
    return _clip(A, B, C, beta_range, constraints)


# --- candidate enumeration ---------------------------------------------------

def _witness_class(w0: int, w1: int, t: int) -> NumClass:
    """Integral class with rank w0, degree w1 and 2*ch2 = t, for t = w1
    (mod 2): the lattice point w0*O + w1*O_H + (t + w1)/2*O_L + t*O_pt."""
    return NumClass(w0, w1, Fraction(t, 2), Fraction(3 * t - 2 * w1, 6))


# Values of w0 a scan may visit.  Each costs at least about 1.6 us, for a
# row that admits no w1 (3000000,0,0,0 near its bound; 2-vCPU Intel Xeon,
# Python 3.11.7), so a search box over this many values would scan for 16 s
# or more and is rejected before the scan.
SCAN_W0_BUDGET = 10**7


def _digits(n: int) -> str:
    """n > 0 in full up to 15 digits, else cut to d.dd followed by e and
    its exponent, so that a message stays short."""
    s = str(n)
    return s if len(s) <= 15 else f"{s[0]}.{s[1:3]}e{len(s) - 1}"


def search_box(v: NumClass, disc_bound) -> dict:
    """The finite lattice box actually scanned, reported for
    reproducibility.  The rank bound is a heuristic: twice the rank of v
    and twice sqrt of the discriminant budget, with a floor of 8;
    completeness relative to all numerical walls is not claimed."""
    slack = Fraction(disc_bound)
    budget = discriminant(v) + slack
    root = math.isqrt(math.ceil(budget)) + 1 if budget > 0 else 0
    bound = max(2 * math.ceil(abs(v.v0)) + 2, 2 * root + 2, 8)
    return {"w0_min": -bound, "w0_max": bound,
            "disc_budget": str(budget),
            "note": "heuristic rank bound; numerical walls only"}


def _scaled(v: NumClass) -> tuple[int, int, int, int]:
    """(R*v0, R*v1, 2R*v2, R) for the least R > 0 that makes the first
    three integers, from each component's integer ratio read once: the
    denominator of 2*v2 is d2 // gcd(2, d2)."""
    n0, d0 = v.v0.as_integer_ratio()
    n1, d1 = v.v1.as_integer_ratio()
    n2, d2 = v.v2.as_integer_ratio()
    R = math.lcm(d0, d1, d2 // math.gcd(2, d2))
    return n0 * (R // d0), n1 * (R // d1), n2 * (2 * R // d2), R


def _scaled_inputs(v: NumClass, region: Region, disc_bound: Fraction):
    P0, P1, T2, R = _scaled(v)
    DS = (P1 * P1 - P0 * T2) + (R * R * disc_bound.numerator
                                // disc_bound.denominator)
    bl, bh = region.beta_min, region.beta_max
    return (P0, P1, T2, R, DS,
            bl.numerator, bl.denominator, bh.numerator, bh.denominator)


def enumerate_candidate_walls(v: NumClass, region: Region,
                              disc_bound) -> list[tuple[Wall, NumClass]]:
    """Deduplicated, canonically sorted numerical walls for v inside the
    region, each with one integral witness class w satisfying the
    discriminant filters and the Im Z window on the wall.

    The scan skips every row (w0, w1) that admits no real t, by a
    discriminant bound (see ``_wallscan_py``), so its work follows the rows
    that do, not the width of the region's Im window: a line bundle of huge
    index or a region reaching far in beta costs few rows.  A class with
    v0 = v1 = 0 has Im Z(v) = 0, so no w has 0 < Im Z(w) < Im Z(v): it has
    no wall, and [] is returned without the scan (every w1 of its rows
    would have a real t).  A search box of more than SCAN_W0_BUDGET values
    of w0 raises InputError before the scan.  A scanned candidate
    (w0, w1, t) whose wall is already known costs a few integer operations:
    its wall key is ``wall_between``'s coefficients in ``Wall``'s normal
    form, computed inline.  The first candidate of each key builds the wall
    with ``wall_between`` and its window with ``_wall_window``, both in
    integers, and both are cached for this call, rejections included, so a
    wall that misses region /\\ U is never looked at again.  That first
    candidate also builds its witness ``NumClass``, in ``Fraction``,
    because ``wall_between`` takes classes; building it only for accepted
    walls waits for a way to count keys other than calls of
    ``wall_between``.  Per witness only the two Im-window constraints are
    added.  Candidates are taken in scan order and the first feasible
    witness of a wall wins.
    """
    disc_bound = Fraction(disc_bound)
    if disc_bound < 0:
        raise InputError("disc_bound must be nonnegative")
    if discriminant(v) < 0:
        raise DomainError("class has negative discriminant; no walls")
    if v.v0 == 0 and v.v1 == 0:  # Im Z(v) = 0: an empty Im window
        return []
    P0, P1, T2, R, DS, bln, bld, bhn, bhd = _scaled_inputs(v, region, disc_bound)
    box = search_box(v, disc_bound)
    width = box["w0_max"] - box["w0_min"] + 1
    if width > SCAN_W0_BUDGET:
        raise InputError(f"search box |w0| <= {_digits(box['w0_max'])} holds "
                         f"{_digits(width)} values of w0, over the scan budget "
                         f"of {SCAN_W0_BUDGET}")
    ends = _region_ends(region)
    seen: dict[tuple[int, int, int], tuple[Wall, Optional[tuple]]] = {}
    found: dict[tuple[int, int, int], tuple[Wall, NumClass]] = {}
    for w0, w1, t in _wallscan_py.scan_candidates(
            P0, P1, T2, R, DS, box["w0_min"], box["w0_max"], bln, bld, bhn, bhd):
        # the wall key: wall_between's coefficients, as Wall normalizes them
        A = 2 * (w0 * P1 - P0 * w1)
        B = t * P0 - T2 * w0
        C = T2 * w1 - t * P1
        g = math.gcd(A, B, C)
        if g == 0:
            continue
        if (A or B or C) < 0:
            g = -g
        A, B, C = key = A // g, B // g, C // g
        if key in found:
            continue
        w = None
        entry = seen.get(key)
        if entry is None:  # the wall's first candidate; perfbench counts keys here
            w = _witness_class(w0, w1, t)
            entry = seen[key] = wall_between(v, w), _wall_window(A, B, C, ends)
        wall, window = entry
        # Im Z(w) > 0 and R * Im Z(v - w) > 0 along the wall
        if window is not None and _clip(
                A, B, C, window, ((-w0, w1, True),
                                  (R * w0 - P0, P1 - R * w1, True))) is not None:
            if w is None:
                w = _witness_class(w0, w1, t)
            found[key] = wall, w
    return [found[k] for k in sorted(found)]


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


def plot_frame(beta_min, beta_max, alpha_max) -> tuple[float, float, float, float]:
    """The float frame (bmin, bmax, amin, amax) in which ``scene_svg`` draws
    a region, alpha from 0 or from 1 below a cap that is not positive;
    InputError when a side of it is beyond the float range."""
    try:
        bmin, bmax, amax = (float(Fraction(x)) for x in (beta_min, beta_max, alpha_max))
        amin = 0.0 if amax > 0 else amax - 1.0
        if math.isfinite(bmax - bmin) and math.isfinite(amax - amin):
            return bmin, bmax, amin, amax
    except OverflowError:
        pass
    raise InputError(_TOO_LARGE)


def scene_svg(scene: dict, precision: int = 4) -> str:
    """SVG drawing of a ``plot_scene`` document with ``precision`` decimals:
    write-only float rendering, every geometric decision has already been
    made exactly upstream.  A scene with a value that floats cannot hold,
    the sides of its region included (``plot_frame``), raises InputError."""
    try:
        return _svg_text(scene, precision)
    except OverflowError:
        raise InputError(_TOO_LARGE) from None


def _svg_text(scene: dict, precision: int) -> str:
    width, height = 480, 360
    bmin, bmax, amin, amax = plot_frame(
        *(scene["region"][k] for k in ("beta_min", "beta_max", "alpha_max")))
    if bmax == bmin:
        bmax = bmin + 1.0
    if amax == amin:
        amax = amin + 1.0
    pad = 20.0

    def fmt(x: float) -> str:
        return f"{x:.{precision}f}"

    def to_x(beta: float) -> float:
        return pad + (beta - bmin) / (bmax - bmin) * (width - 2 * pad)

    def to_y(alpha: float) -> float:
        return height - pad - (alpha - amin) / (amax - amin) * (height - 2 * pad)

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
    for cv in scene["curves"]:
        if cv["kind"] == "boundary-parabola":
            parts.append(polyline(lambda b: b * b / 2, "gray"))
        elif cv["kind"] == "curve-CE" and cv.get("shape") == "parabola":
            lin, const = float(Fraction(cv["lin"])), float(Fraction(cv["const"]))
            parts.append(polyline(lambda b, l=lin, c=const: b * b + l * b + c, "blue"))
        elif cv["kind"] == "curve-CE" and cv.get("shape") == "vertical":
            x = fmt(to_x(float(Fraction(cv["beta"]))))
            parts.append(f'<line x1="{x}" y1="{fmt(pad)}" x2="{x}" '
                         f'y2="{fmt(height - pad)}" stroke="blue"/>')
        elif cv["kind"] == "wall":
            A, B, C = cv["A"], cv["B"], cv["C"]
            if A == 0:
                x = fmt(to_x(-C / B))
                parts.append(f'<line x1="{x}" y1="{fmt(pad)}" x2="{x}" '
                             f'y2="{fmt(height - pad)}" stroke="red"/>')
            else:
                parts.append(polyline(lambda b, A=A, B=B, C=C: -(B * b + C) / A,
                                      "red"))
    for pt in scene["points"]:
        x = fmt(to_x(float(Fraction(pt["beta"]))))
        y = fmt(to_y(float(Fraction(pt["alpha"]))))
        parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="black"/>')
        parts.append(f'<text x="{x}" y="{y}" dx="5" dy="-5" '
                     f'font-size="10">{pt["label"]}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
