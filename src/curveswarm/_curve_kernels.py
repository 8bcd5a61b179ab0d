"""Closed-form curve-family kernels.

Every family maps a parameter s (period 2*pi) to a plane point and its first
and second parameter derivatives.  The point and derivative kernels accept
scalar floats and float64 arrays alike (plain vectorized numpy); frame_raw
takes arrays only.  Family parameters arrive as a flat float64 vector
(layout documented in curves.py); the integer kind code selects the family.
"""

import numpy as np

TWO_PI = 2.0 * np.pi

KIND_ELLIPSE = 0       # par = [a, b]
KIND_DELTOID = 1       # par = [a]
KIND_ROSE = 2          # par = [a, k]
KIND_LISSAJOUS = 3     # par = [A, B, p, q, delta]
KIND_SUPERELLIPSE = 4  # par = [a, b, m], m even >= 4
KIND_CASSINI = 5       # par = [a, b], b > a
KIND_LEMNISCATE = 6    # par = [a]
KIND_FOURIER = 7       # par = [c0, A1, B1, A2, B2, ...]
KIND_PEANUT = 8        # par = [a, e], 0 <= e < 1
KIND_NEPHROID = 9      # par = [a]
KIND_SPIROGRAPH = 10   # par = [R, r, d], (R - r)/r a nonzero integer
KIND_GEAR = 11         # par = [teeth, R_outer, R_inner]

POLAR_KINDS = (KIND_SUPERELLIPSE, KIND_CASSINI, KIND_FOURIER, KIND_PEANUT)


def _polar_terms(kind, par, s):
    """Radius r(s) and its first two derivatives for the polar families."""
    if kind == KIND_SUPERELLIPSE:
        a = par[0]
        b = par[1]
        m = par[2]
        c = np.cos(s)
        sn = np.sin(s)
        am = a ** m
        bm = b ** m
        q = np.abs(c) ** m / am + np.abs(sn) ** m / bm
        g = np.abs(sn) ** (m - 2.0) / bm - np.abs(c) ** (m - 2.0) / am
        qp = m * sn * c * g
        qpp = m * (c * c - sn * sn) * g + m * (m - 2.0) * sn * sn * c * c * (
            np.abs(sn) ** (m - 4.0) / bm + np.abs(c) ** (m - 4.0) / am
        )
        r = q ** (-1.0 / m)
        rp = -(1.0 / m) * q ** (-1.0 / m - 1.0) * qp
        rpp = (1.0 / m) * (1.0 / m + 1.0) * q ** (-1.0 / m - 2.0) * qp * qp - (
            1.0 / m
        ) * q ** (-1.0 / m - 1.0) * qpp
        return r, rp, rpp
    elif kind == KIND_CASSINI:
        a = par[0]
        b = par[1]
        u = a * a * np.cos(2.0 * s)
        up = -2.0 * a * a * np.sin(2.0 * s)
        upp = -4.0 * a * a * np.cos(2.0 * s)
        disc = np.sqrt(u * u + (b ** 4 - a ** 4))
        r2 = u + disc
        r2p = up * (1.0 + u / disc)
        r2pp = upp * (1.0 + u / disc) + up * up * (disc * disc - u * u) / disc ** 3
        r = np.sqrt(r2)
        rp = r2p / (2.0 * r)
        rpp = r2pp / (2.0 * r) - r2p * r2p / (4.0 * r2 * r)
        return r, rp, rpp
    elif kind == KIND_PEANUT:
        a = par[0]
        e = par[1]
        r2 = a * a * (1.0 - e * np.cos(2.0 * s))
        r2p = 2.0 * a * a * e * np.sin(2.0 * s)
        r2pp = 4.0 * a * a * e * np.cos(2.0 * s)
        r = np.sqrt(r2)
        rp = r2p / (2.0 * r)
        rpp = r2pp / (2.0 * r) - r2p * r2p / (4.0 * r2 * r)
        return r, rp, rpp
    else:  # KIND_FOURIER
        r = par[0] + 0.0 * s
        rp = 0.0 * s
        rpp = 0.0 * s
        nh = (par.shape[0] - 1) // 2
        for j in range(1, nh + 1):
            aj = par[2 * j - 1]
            bj = par[2 * j]
            cj = np.cos(j * s)
            sj = np.sin(j * s)
            r = r + aj * cj + bj * sj
            rp = rp + j * (bj * cj - aj * sj)
            rpp = rpp - j * j * (aj * cj + bj * sj)
        return r, rp, rpp


def _gear_terms(par, s):
    """Segment endpoints and eased local coordinate for the gear family.

    The curve is a ring of 2*teeth corners with radius alternating between
    R_outer and R_inner, each straight edge traced with a cubic Hermite ease
    so the velocity vanishes at the corners (piecewise C1).
    """
    teeth = par[0]
    r1 = par[1]
    r2 = par[2]
    m = 2.0 * teeth
    delta = TWO_PI / m
    sm = s % TWO_PI
    k = np.floor(sm / delta)
    u = sm / delta - k
    parity = k - 2.0 * np.floor(k / 2.0)  # 0 on even corners, 1 on odd
    ra = r1 + (r2 - r1) * parity
    rb = r1 + (r2 - r1) * (1.0 - parity)
    pa = k * delta
    pb = (k + 1.0) * delta
    ax = ra * np.cos(pa)
    ay = ra * np.sin(pa)
    bx = rb * np.cos(pb)
    by = rb * np.sin(pb)
    return ax, ay, bx, by, u, delta


def curve_point(kind, par, s):
    """gamma(s) -> (x, y) for the family selected by kind."""
    if kind == KIND_ELLIPSE:
        return par[0] * np.cos(s), par[1] * np.sin(s)
    elif kind == KIND_DELTOID:
        a = par[0]
        return a * (2.0 * np.cos(s) + np.cos(2.0 * s)), a * (
            2.0 * np.sin(s) - np.sin(2.0 * s)
        )
    elif kind == KIND_ROSE:
        a = par[0]
        k = par[1]
        return a * np.cos(k * s) * np.cos(s), a * np.cos(k * s) * np.sin(s)
    elif kind == KIND_LISSAJOUS:
        return par[0] * np.sin(par[2] * s + par[4]), par[1] * np.sin(par[3] * s)
    elif kind == KIND_LEMNISCATE:
        a = par[0]
        sn = np.sin(s)
        c = np.cos(s)
        d = 1.0 + sn * sn
        return a * c / d, a * sn * c / d
    elif kind == KIND_NEPHROID:
        a = par[0]
        return a * (3.0 * np.cos(s) - np.cos(3.0 * s)), a * (
            3.0 * np.sin(s) - np.sin(3.0 * s)
        )
    elif kind == KIND_SPIROGRAPH:
        rr = par[0] - par[1]
        d = par[2]
        q = rr / par[1]
        return rr * np.cos(s) + d * np.cos(q * s), rr * np.sin(s) - d * np.sin(q * s)
    elif kind == KIND_GEAR:
        ax, ay, bx, by, u, delta = _gear_terms(par, s)
        w = u * u * (3.0 - 2.0 * u)
        return ax + (bx - ax) * w, ay + (by - ay) * w
    else:
        r, rp, rpp = _polar_terms(kind, par, s)
        return r * np.cos(s), r * np.sin(s)


def curve_d1(kind, par, s):
    """dgamma/ds -> (x', y')."""
    if kind == KIND_ELLIPSE:
        return -par[0] * np.sin(s), par[1] * np.cos(s)
    elif kind == KIND_DELTOID:
        a = par[0]
        return a * (-2.0 * np.sin(s) - 2.0 * np.sin(2.0 * s)), a * (
            2.0 * np.cos(s) - 2.0 * np.cos(2.0 * s)
        )
    elif kind == KIND_ROSE:
        a = par[0]
        k = par[1]
        ck = np.cos(k * s)
        sk = np.sin(k * s)
        return a * (-k * sk * np.cos(s) - ck * np.sin(s)), a * (
            -k * sk * np.sin(s) + ck * np.cos(s)
        )
    elif kind == KIND_LISSAJOUS:
        return par[0] * par[2] * np.cos(par[2] * s + par[4]), par[1] * par[3] * np.cos(
            par[3] * s
        )
    elif kind == KIND_LEMNISCATE:
        a = par[0]
        sn = np.sin(s)
        c = np.cos(s)
        d = 1.0 + sn * sn
        d2 = d * d
        return -a * sn * (3.0 - sn * sn) / d2, a * (c ** 4 - sn * sn - sn ** 4) / d2
    elif kind == KIND_NEPHROID:
        a = par[0]
        return a * (-3.0 * np.sin(s) + 3.0 * np.sin(3.0 * s)), a * (
            3.0 * np.cos(s) - 3.0 * np.cos(3.0 * s)
        )
    elif kind == KIND_SPIROGRAPH:
        rr = par[0] - par[1]
        d = par[2]
        q = rr / par[1]
        return -rr * np.sin(s) - d * q * np.sin(q * s), rr * np.cos(s) - d * q * np.cos(
            q * s
        )
    elif kind == KIND_GEAR:
        ax, ay, bx, by, u, delta = _gear_terms(par, s)
        wp = 6.0 * u * (1.0 - u) / delta
        return (bx - ax) * wp, (by - ay) * wp
    else:
        r, rp, rpp = _polar_terms(kind, par, s)
        c = np.cos(s)
        sn = np.sin(s)
        return rp * c - r * sn, rp * sn + r * c


def curve_d2(kind, par, s):
    """d2gamma/ds2 -> (x'', y'')."""
    if kind == KIND_ELLIPSE:
        return -par[0] * np.cos(s), -par[1] * np.sin(s)
    elif kind == KIND_DELTOID:
        a = par[0]
        return a * (-2.0 * np.cos(s) - 4.0 * np.cos(2.0 * s)), a * (
            -2.0 * np.sin(s) + 4.0 * np.sin(2.0 * s)
        )
    elif kind == KIND_ROSE:
        a = par[0]
        k = par[1]
        ck = np.cos(k * s)
        sk = np.sin(k * s)
        kk1 = k * k + 1.0
        return a * (-kk1 * ck * np.cos(s) + 2.0 * k * sk * np.sin(s)), a * (
            -kk1 * ck * np.sin(s) - 2.0 * k * sk * np.cos(s)
        )
    elif kind == KIND_LISSAJOUS:
        return -par[0] * par[2] * par[2] * np.sin(par[2] * s + par[4]), -par[1] * par[
            3
        ] * par[3] * np.sin(par[3] * s)
    elif kind == KIND_LEMNISCATE:
        a = par[0]
        sn = np.sin(s)
        c = np.cos(s)
        d = 1.0 + sn * sn
        d3 = d * d * d
        return -a * c * (3.0 - 12.0 * sn * sn + sn ** 4) / d3, -2.0 * a * sn * c * (
            5.0 - 3.0 * sn * sn
        ) / d3
    elif kind == KIND_NEPHROID:
        a = par[0]
        return a * (-3.0 * np.cos(s) + 9.0 * np.cos(3.0 * s)), a * (
            -3.0 * np.sin(s) + 9.0 * np.sin(3.0 * s)
        )
    elif kind == KIND_SPIROGRAPH:
        rr = par[0] - par[1]
        d = par[2]
        q = rr / par[1]
        q2 = q * q
        return -rr * np.cos(s) - d * q2 * np.cos(q * s), -rr * np.sin(
            s
        ) + d * q2 * np.sin(q * s)
    elif kind == KIND_GEAR:
        ax, ay, bx, by, u, delta = _gear_terms(par, s)
        wpp = (6.0 - 12.0 * u) / (delta * delta)
        return (bx - ax) * wpp, (by - ay) * wpp
    else:
        r, rp, rpp = _polar_terms(kind, par, s)
        c = np.cos(s)
        sn = np.sin(s)
        return (rpp - r) * c - 2.0 * rp * sn, (rpp - r) * sn + 2.0 * rp * c


# cusp search offsets: +/-1e-4 j for j = 1..10, the positive side first
_CUSP_STEPS = np.array([sign * 1e-4 * j for j in range(1, 11) for sign in (1.0, -1.0)])


def frame_raw(kind, par, s, eps_sing):
    """Frenet data at every entry of the parameter array s, with the cusp fallback.

    An entry below eps_sing tangent speed takes its frame from the first
    regular parameter among s + 1e-4, s - 1e-4, s + 2e-4, ... s - 1e-3.
    Returns arrays shaped like s: (tx, ty, nx, ny, psi_t, speed,
    speed_rate, kappa_signed, turn_rate, ok).  speed = ||gamma'(s)|| and
    speed_rate = gamma'.gamma'' / max(speed, eps_sing) (its parameter
    derivative) belong to the query point; direction, curvature and
    turn_rate = d(psi_t)/ds come from the fallback point; the normal is
    the tangent rotated a quarter turn counterclockwise.  An entry with
    no regular neighbour has zeros there and ok False.
    """
    dx, dy = curve_d1(kind, par, s)
    ddx, ddy = curve_d2(kind, par, s)
    speed = np.hypot(dx, dy)
    sing = speed < eps_sing
    speed_rate = (dx * ddx + dy * ddy) / np.where(sing, eps_sing, speed)
    ok = ~sing
    bad = None
    if sing.any():
        idx = np.flatnonzero(sing)
        cand = s[idx, None] + _CUSP_STEPS
        cx, cy = curve_d1(kind, par, cand)
        regular = np.hypot(cx, cy) >= eps_sing
        hit = regular.any(axis=1)
        ok[idx] = hit
        sf = cand[hit, np.argmax(regular[hit], axis=1)]
        dx[idx[hit]], dy[idx[hit]] = curve_d1(kind, par, sf)
        ddx[idx[hit]], ddy[idx[hit]] = curve_d2(kind, par, sf)
        # a placeholder unit tangent keeps the arithmetic below quiet;
        # these entries are zeroed afterwards
        bad = ~ok
        dx[bad], dy[bad], ddx[bad], ddy[bad] = 1.0, 0.0, 0.0, 0.0
    mf = np.hypot(dx, dy)
    tx = dx / mf
    ty = dy / mf
    cross = dx * ddy - dy * ddx
    kappa = cross / (mf * mf * mf)
    turn = cross / (dx * dx + dy * dy)
    psi_t = np.arctan2(ty, tx)
    if bad is not None:
        for out in (tx, ty, psi_t, kappa, turn):
            out[bad] = 0.0
    return tx, ty, -ty, tx, psi_t, speed, speed_rate, kappa, turn, ok
