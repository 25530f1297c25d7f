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
    same one) of the closed interval [bln/bld, bhn/bhd]; both are linear
    in beta, so it suffices to test the endpoints.  This is a necessary
    condition only; the caller re-checks the window exactly on the wall.

The three disc constraints are linear in t, and their coefficient signs
guarantee a bounded t-interval for every (w0, w1) except w0 = v0 = 0,
which can produce no wall and is skipped.
"""

from __future__ import annotations


def scan_candidates(P0: int, P1: int, T2: int, R: int, DS: int,
                    w0_lo: int, w0_hi: int,
                    bln: int, bld: int, bhn: int, bhd: int) -> list[tuple[int, int, int]]:
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
