"""Integer candidate scan for wall enumeration: the one scan kernel behind
``tiltwall.walls.enumerate_candidate_walls``, in plain Python integers with
no overflow limit on the inputs.

The scan works entirely in scaled integers.  The fixed class v is given by
P0 = R*v0, P1 = R*v1, T2 = 2*R*v2 (all integers, R > 0) and candidates are
triples (w0, w1, t) with t = 2*w2 and t = w1 (mod 2), the lattice's
condition that w2 + w1/2 is an integer (see ``numclass``).  Filters
applied, all exact:

  * disc(w) = w1^2 - w0*t >= 0
  * R^2 * disc(v-w) = (P1-R*w1)^2 - (P0-R*w0)*(T2-R*t) >= 0
  * R^2 * (disc(w) + disc(v-w)) <= DS   (DS encodes disc(v) + slack)
  * the Im-window prefilter: each of 0 < w1 - beta*w0 and
    w1 - beta*w0 < v1 - beta*v0 holds at some beta (not necessarily the
    same one) of the closed interval [bln/bld, bhn/bhd] (bld, bhd > 0 and
    the ends in order, as a ``Region`` has them); both are linear in beta,
    so it suffices to test the endpoint that the sign of the slope picks.
    This is a necessary condition only; the caller re-checks the window
    exactly on the wall.

The three disc constraints are linear in t, and their coefficient signs
guarantee a bounded t-interval for every (w0, w1) except w0 = v0 = 0,
which can produce no wall and is skipped.

Row filter.  With M = P0 - R*w0 and N = P1 - R*w1 the three constraints
are slacks affine in t that sum to DS:

    s1 = R^2 (w1^2 - w0*t) >= 0,   s2 = N^2 - M (T2 - R*t) >= 0,
    s3 = DS - s1 - s2 >= 0.

The point (s1(t), s2(t)) runs along a line (its direction (-R^2 w0, R M)
vanishes only for w0 = P0 = 0) on which M*s1 + R*w0*s2 is constant:

    G(w1) = M*s1 + R*w0*s2 = R^2 P0 w1^2 - 2 R^2 w0 P1 w1
            + R w0 (P1^2 - M*T2).

So a real t exists iff that line meets the triangle s1, s2 >= 0,
s1 + s2 <= DS, that is (for DS >= 0, as enumeration makes it) iff G(w1)
lies between the least and the greatest of M*s1 + R*w0*s2 at its
corners: 0, M*DS and R*w0*DS.  For P0 != 0 the side of this inequality
on which G is bounded by its leading term gives a closed interval of w1,
whose integer ends come exactly from ``math.isqrt``.  For P0 = 0 (so
w0 != 0), G is -R*w0*(2R*P1*w1 - P1^2 - R*w0*T2) and the corner values
are 0 and +-R*w0*DS, so the condition is
|2R*P1*w1 - P1^2 - R*w0*T2| <= DS: an interval holding exactly the rows
with a real t, or, when P1 = 0, every row or none.  The scan visits only
the w1 of that interval inside the Im-window range, so a row it skips
has no real t, and the candidate list is that of the whole range.

Mirror.  For a lattice class, R = 1 and T2 = P1 (mod 2), v is itself the
lattice point (P0, P1, T2), and

    iota(w0, w1, t) = (P0 - w0, P1 - w1, T2 - t),   that is w -> v - w,

is an involution of the triples with t = w1 (mod 2).  It keeps every
filter: it swaps disc(w) >= 0 with disc(v - w) >= 0 and keeps their sum,
so the DS budget; it swaps the two Im-window inequalities, since
w1 - beta*w0 of iota(w) is (v1 - beta*v0) - (w1 - beta*w0); and it keeps
the skip of w0 = P0 = 0.  The filters are exact, so the candidate set of
the rows [w0_lo, w0_hi] holds iota(c) with each c whose image row P0 - w0
lies in [w0_lo, w0_hi] too.  iota negates each coordinate up to a
constant, so it reverses the order of triples: the candidates of a block
of rows are those of the mirror block, mapped by iota, in reverse order.
``mirror_rows`` names the rows a < w0 <= top, with a = max(P0 // 2,
w0_lo - 1) and top = min(w0_hi, P0 - w0_lo).  Each has its mirror row
P0 - w0 in [w0_lo, a]: P0 - w0 >= P0 - top >= w0_lo, and w0 > P0 // 2
gives P0 - w0 < P0 - P0 // 2, so P0 - w0 <= P0 // 2 <= a.  So the scan
builds the rows up to a, then the rows (a, top] as iota of the block
[P0 - top, P0 - a), reversed, then scans the rows above top: the list of
scanning every row, order included, with a mirrored row costing only its
candidates.  Any other class has no mirrored row (a = top = w0_hi).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, islice
from math import isqrt
from typing import Iterator


def _quadratic_interval(a: int, b: int, c: int) -> tuple[int, int]:
    """[lo, hi] of the integers x with a*x^2 + b*x + c <= 0 (a > 0), that
    is |2a*x + b| <= sqrt(D): exact with s = isqrt(D), since 2a*x + b is an
    integer.  Empty (lo > hi) when there is none."""
    D = b * b - 4 * a * c
    if D < 0:
        return 1, 0
    s = isqrt(D)
    a2 = 2 * a
    return -((b + s) // a2), (s - b) // a2


def _row_interval(P0: int, P1: int, T2: int, R: int, DS: int, w0: int,
                  lo: int, hi: int) -> tuple[int, int]:
    """[lo, hi] cut to an interval holding every w1 of the row w0 that
    admits a real t (the row filter of the module docstring)."""
    Rw0 = R * w0
    if P0 == 0:
        # G = -R*w0*(e*w1 - k) and the corner values are 0 and +-R*w0*DS
        e, k = 2 * R * P1, P1 * P1 + Rw0 * T2
        if e < 0:
            e, k = -e, -k
        if e == 0:
            return (lo, hi) if abs(k) <= DS else (1, 0)
        r_lo, r_hi = -((DS - k) // e), (k + DS) // e
    else:
        M = P0 - Rw0
        # G = a*w1^2 + b*w1 + c
        a, b, c = R * R * P0, -2 * R * Rw0 * P1, Rw0 * (P1 * P1 - M * T2)
        if P0 > 0:  # G <= the greatest corner value
            r_lo, r_hi = _quadratic_interval(a, b, c - max(0, M * DS, Rw0 * DS))
        else:  # G >= the least
            r_lo, r_hi = _quadratic_interval(-a, -b, min(0, M * DS, Rw0 * DS) - c)
    return max(lo, r_lo), min(hi, r_hi)


def mirror_rows(P0: int, P1: int, T2: int, R: int,
                w0_lo: int, w0_hi: int) -> tuple[int, int]:
    """(a, top) with w0_lo - 1 <= a <= top <= w0_hi: each row a < w0 <= top
    of [w0_lo, w0_hi] is the image under iota of the row P0 - w0, which
    lies in [w0_lo, a] (the module docstring).  Only a lattice class
    (R = 1 and T2 = P1 (mod 2)) has mirrored rows; for any other class
    a = top = w0_hi."""
    if R != 1 or (T2 - P1) % 2:
        return w0_hi, w0_hi
    a = min(max(P0 // 2, w0_lo - 1), w0_hi)
    return a, max(a, min(w0_hi, P0 - w0_lo))


def scan_candidates(P0: int, P1: int, T2: int, R: int, DS: int,
                    w0_lo: int, w0_hi: int,
                    bln: int, bld: int, bhn: int, bhd: int) -> list[tuple[int, int, int]]:
    """The candidates (w0, w1, t) of the rows w0_lo <= w0 <= w0_hi, in
    increasing order: the rows up to a and above top scanned, the rows
    a < w0 <= top of ``mirror_rows`` taken as iota of rows already built
    (the module docstring).  A MemoryError empties the list before it
    leaves, so that the frames it unwinds through can be freed: with the
    list still full, CPython can lose the error there and raise a
    SystemError in its place."""
    out: list[tuple[int, int, int]] = []
    a, top = mirror_rows(P0, P1, T2, R, w0_lo, w0_hi)
    try:
        _scan_rows(out, P0, P1, T2, R, DS, w0_lo, a, bln, bld, bhn, bhd)
        # iota of the rows [P0 - top, P0 - a), read backwards; each w0 and
        # each w1 is one int for its run, as in a scanned row
        x0 = x1 = None
        for y0, y1, y in map(out.__getitem__,
                             range(bisect_left(out, (P0 - a,)) - 1,
                                   bisect_left(out, (P0 - top,)) - 1, -1)):
            if y0 != x0:
                x0, w0 = y0, P0 - y0
            if y1 != x1:
                x1, w1 = y1, P1 - y1
            out.append((w0, w1, T2 - y))
        _scan_rows(out, P0, P1, T2, R, DS, top + 1, w0_hi, bln, bld, bhn, bhd)
    except MemoryError:
        out.clear()
        raise
    return out


def unmirrored_candidates(P0: int, P1: int, T2: int, R: int, DS: int,
                          w0_lo: int, w0_hi: int, bln: int, bld: int,
                          bhn: int, bhd: int) -> Iterator[tuple[int, int, int]]:
    """The list of ``scan_candidates`` less its mirrored rows
    a < w0 <= top, in order, iterated in place: each candidate left out is
    iota of an earlier one (``enumerate_candidate_walls`` says why it
    needs no visit)."""
    out = scan_candidates(P0, P1, T2, R, DS, w0_lo, w0_hi, bln, bld, bhn, bhd)
    a, top = mirror_rows(P0, P1, T2, R, w0_lo, w0_hi)
    return chain(islice(out, bisect_left(out, (a + 1,))),
                 islice(out, bisect_left(out, (top + 1,)), None))


def _scan_rows(out: list, P0: int, P1: int, T2: int, R: int, DS: int,
               w0_lo: int, w0_hi: int, bln: int, bld: int, bhn: int, bhd: int) -> None:
    """Append the candidates of the rows w0_lo <= w0 <= w0_hi to out, in
    increasing order."""
    R2 = R * R
    Dd = bld * bhd
    DD = R * Dd
    # the beta ends times Dd, in order: lo_D = beta_min*Dd <= hi_D = beta_max*Dd
    lo_D, hi_D = bln * bhd, bhn * bld
    for w0 in range(w0_lo, w0_hi + 1):
        if w0 == 0 and P0 == 0:
            continue
        Rw0 = R * w0
        M = P0 - Rw0
        # w1 window from the Im prefilter: w1 > beta*w0 and (times R)
        # R*w1 < P1 - beta*M, each at some beta end; since lo_D <= hi_D,
        # the sign of w0 (of M) picks the end, one product per bound
        w1_lo = w0 * (lo_D if w0 > 0 else hi_D) // Dd + 1
        w1_hi = (P1 * Dd - M * (lo_D if M > 0 else hi_D) - 1) // DD
        # ... cut to the rows that admit a real t
        w1_lo, w1_hi = _row_interval(P0, P1, T2, R, DS, w0, w1_lo, w1_hi)
        MT2 = M * T2
        # t is bounded by c*t <= b for (c, b) = (w0, w1^2) (disc(w) >= 0),
        # (c2, b2) (disc(v-w) >= 0) and (c3, b3) (the DS budget); the c
        # are fixed for this w0, and w1^2 >= 0 makes w0 = 0 no constraint.
        # c2 + c3 = -R^2 w0 has the sign of -w0, and c3 = -c2 when w0 = 0
        # (then P0 != 0), so there is always an upper and a lower bound.
        # c2 = 0 needs no check of b2: it forces M = 0, so b2 = N^2 >= 0.
        # c3 = 0 does need b3 >= 0: a row the row filter keeps has a real t
        # when DS >= 0, but a DS < 0 (never made by enumeration, whose DS
        # is at least R^2 * disc(v) >= 0) can leave b3 < 0 there.
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
