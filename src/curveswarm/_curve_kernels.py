"""Closed-form curve-family kernels.

Every family maps a parameter s (period 2*pi) to a plane point and its first
three parameter derivatives.  curve_jet evaluates them in one pass:
each trig value, gear segment and polar radius term is computed once, and only
as far as the asked-for order needs it.  curve_point, curve_d1 and curve_d2 are
its one-order entry points.  The kind code selects the family, whose parameter
layout its KIND_* comment below gives.  Seven families (ellipse, deltoid, rose,
lissajous, nephroid, spirograph, fourier-sum) are trigonometric polynomials and
share KIND_TRIG.

One kernel source serves two paths, chosen by the type of the parameters.  A
float64 array par runs numpy: s may be a scalar or an array, and the results
are numpy's (the finder, projection and adherence paths).  A tuple of
par.tolist() runs the math module on a float s, which is what a mission tick
calls per agent: at one point a numpy call costs about a microsecond, against
tens of nanoseconds for a float operation.  sin, cos, sqrt and floor give the
same bits either way; the families that raise an array to a power
(superellipse, cassini, lemniscate) take libm pow on floats against numpy's
vectorized power on arrays, a few ulps apart.

curve_frame is the one Frenet frame, with the one cusp fallback, and runs on
the float path: the mission tick takes it per agent and Curve.frenet per
query.  Its third derivative gives the turn rate's parameter derivative in
closed form, which the drift of the path-following law needs.
"""

import math

import numpy as np

TWO_PI = 2.0 * np.pi

KIND_TRIG = 0          # par = rows [k, k^2, k^3, a, b, c, d], integer k ascending
KIND_SUPERELLIPSE = 1  # par = [a, b, m], m even >= 4
KIND_CASSINI = 2       # par = [a, b], b > a
KIND_LEMNISCATE = 3    # par = [a]
KIND_PEANUT = 4        # par = [a, e], 0 <= e < 1
KIND_GEAR = 5          # par = [teeth, R_outer, R_inner]


def _polar_terms(xp, kind, par, s, c, sn, order):
    """Radius r(s) and its derivatives up to `order` for the polar families.

    c and sn are cos(s) and sin(s).  Returns (r,), (r, r'), (r, r', r'')
    or (r, r', r'', r''').
    """
    if kind == KIND_SUPERELLIPSE:
        a = par[0]
        b = par[1]
        m = par[2]
        am = a ** m
        bm = b ** m
        q = abs(c) ** m / am + abs(sn) ** m / bm
        r = q ** (-1.0 / m)
        if order == 0:
            return (r,)
        g = abs(sn) ** (m - 2.0) / bm - abs(c) ** (m - 2.0) / am
        qp = m * sn * c * g
        rp = -(1.0 / m) * q ** (-1.0 / m - 1.0) * qp
        if order == 1:
            return r, rp
        qpp = m * (c * c - sn * sn) * g + m * (m - 2.0) * sn * sn * c * c * (
            abs(sn) ** (m - 4.0) / bm + abs(c) ** (m - 4.0) / am
        )
        rpp = (1.0 / m) * (1.0 / m + 1.0) * q ** (-1.0 / m - 2.0) * qp * qp - (
            1.0 / m
        ) * q ** (-1.0 / m - 1.0) * qpp
        if order == 2:
            return r, rp, rpp
        # every power of |sin| and |cos| keeps a nonnegative exponent, so
        # m = 4 at sin s = 0 or cos s = 0 meets no 0 * inf
        c2 = c * c
        sn2 = sn * sn
        ps = abs(sn) ** (m - 4.0) / bm
        pc = abs(c) ** (m - 4.0) / am
        qppp = m * sn * c * (
            -4.0 * g
            + 3.0 * (m - 2.0) * (c2 - sn2) * (ps + pc)
            + (m - 2.0) * (m - 4.0) * (ps * c2 - pc * sn2)
        )
        rppp = (
            -(1.0 / m) * (1.0 / m + 1.0) * (1.0 / m + 2.0) * q ** (-1.0 / m - 3.0) * qp * qp * qp
            + 3.0 * (1.0 / m) * (1.0 / m + 1.0) * q ** (-1.0 / m - 2.0) * qp * qpp
            - (1.0 / m) * q ** (-1.0 / m - 1.0) * qppp
        )
        return r, rp, rpp, rppp
    elif kind == KIND_CASSINI:
        a = par[0]
        b = par[1]
        s_2 = 2.0 * s
        c2 = xp.cos(s_2)
        u = a * a * c2
        disc = xp.sqrt(u * u + (b ** 4 - a ** 4))
        r2 = u + disc
        r = xp.sqrt(r2)
        if order == 0:
            return (r,)
        up = -2.0 * a * a * xp.sin(s_2)
        lift = 1.0 + u / disc
        r2p = up * lift
        rp = r2p / (2.0 * r)
        if order == 1:
            return r, rp
        upp = -4.0 * a * a * c2
        r2pp = upp * lift + up * up * (disc * disc - u * u) / disc ** 3
        rpp = r2pp / (2.0 * r) - r2p * r2p / (4.0 * r2 * r)
        if order == 2:
            return r, rp, rpp
        # u''' = -4 u', the lift's rate is u' (disc^2 - u^2) / disc^3, and
        # disc^2 - u^2 is the constant b^4 - a^4
        bend = (b ** 4 - a ** 4) / disc ** 3
        r2ppp = -4.0 * up * lift + 3.0 * bend * up * (upp - u * up * up / (disc * disc))
        return r, rp, rpp, (r2ppp - 6.0 * rp * rpp) / (2.0 * r)
    else:  # KIND_PEANUT
        a = par[0]
        e = par[1]
        s_2 = 2.0 * s
        c2 = xp.cos(s_2)
        r2 = a * a * (1.0 - e * c2)
        r = xp.sqrt(r2)
        if order == 0:
            return (r,)
        r2p = 2.0 * a * a * e * xp.sin(s_2)
        rp = r2p / (2.0 * r)
        if order == 1:
            return r, rp
        r2pp = 4.0 * a * a * e * c2
        rpp = r2pp / (2.0 * r) - r2p * r2p / (4.0 * r2 * r)
        if order == 2:
            return r, rp, rpp
        # (r^2)''' = -4 (r^2)' and (r^2)''' = 2 r r''' + 6 r' r''
        return r, rp, rpp, (-4.0 * r2p - 6.0 * rp * rpp) / (2.0 * r)


def _gear_terms(xp, par, s):
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
    k = xp.floor(sm / delta)
    u = sm / delta - k
    parity = k - 2.0 * xp.floor(k / 2.0)  # 0 on even corners, 1 on odd
    ra = r1 + (r2 - r1) * parity
    rb = r1 + (r2 - r1) * (1.0 - parity)
    pa = k * delta
    pb = (k + 1.0) * delta
    ax = ra * xp.cos(pa)
    ay = ra * xp.sin(pa)
    bx = rb * xp.cos(pb)
    by = rb * xp.sin(pb)
    return ax, ay, bx, by, u, delta


def curve_jet(kind, par, s, order):
    """gamma(s) and its parameter derivatives up to `order` (0 to 3).

    Returns (x, y), then x', y', x'', y'' and x''', y''' as far as order
    asks, for the family selected by kind.  Each output is the same
    expression, in the same operation order, whatever the order asked for.
    A tuple par selects the math namespace (s a float, Python float
    results), any other par numpy's.
    """
    xp = math if type(par) is tuple else np
    if kind == KIND_TRIG:
        # x = sum a cos ks + b sin ks, y = sum c cos ks + d sin ks over the rows;
        # per coordinate f = a cos ks + b sin ks, g = b cos ks - a sin ks,
        # f' = k g, f'' = -k^2 f, f''' = -k^3 g.  Skipping zero coefficients
        # rounds a one-term coordinate as that term, signed zeros included
        # (-0.0 + v is v for every v), and a row with no term in a coordinate
        # (a lissajous row holds x or y) adds nothing to it.  Order 0 takes no
        # g and no unread trig.
        cos, sin = xp.cos, xp.sin
        third = order > 2  # the mission tick's order, tested first
        x = y = dx = dy = ddx = ddy = d3x = d3y = -0.0
        for k, k2, k3, a, b, c, d in par if xp is math else par.tolist():
            ks = k * s
            cs = cos(ks) if order or a or c else 0.0 * ks
            sn = sin(ks) if order or b or d else 0.0 * ks
            if a or b:
                if not b:
                    fx, gx = a * cs, -(a * sn) if order else 0.0
                elif not a:
                    fx, gx = b * sn, b * cs if order else 0.0
                else:
                    fx, gx = a * cs + b * sn, b * cs - a * sn if order else 0.0
                x += fx
                if third:
                    dx += k * gx
                    ddx -= k2 * fx
                    d3x -= k3 * gx
                elif order:
                    dx += k * gx
                    if order > 1:
                        ddx -= k2 * fx
            if d or c:
                if not c:
                    fy, gy = d * sn, d * cs if order else 0.0
                elif not d:
                    fy, gy = c * cs, -(c * sn) if order else 0.0
                else:
                    fy, gy = c * cs + d * sn, d * cs - c * sn if order else 0.0
                y += fy
                if third:
                    dy += k * gy
                    ddy -= k2 * fy
                    d3y -= k3 * gy
                elif order:
                    dy += k * gy
                    if order > 1:
                        ddy -= k2 * fy
        return (x, y, dx, dy, ddx, ddy, d3x, d3y)[: 2 * order + 2]
    elif kind == KIND_LEMNISCATE:
        a = par[0]
        sn = xp.sin(s)
        c = xp.cos(s)
        d = 1.0 + sn * sn
        x, y = a * c / d, a * sn * c / d
        if order == 0:
            return x, y
        sn4 = sn ** 4
        d2 = d * d
        dx, dy = -a * sn * (3.0 - sn * sn) / d2, a * (c ** 4 - sn * sn - sn4) / d2
        if order == 1:
            return x, y, dx, dy
        d3 = d * d * d
        ddx = -a * c * (3.0 - 12.0 * sn * sn + sn4) / d3
        ddy = -2.0 * a * sn * c * (5.0 - 3.0 * sn * sn) / d3
        if order == 2:
            return x, y, dx, dy, ddx, ddy
        sn2 = sn * sn
        sn6 = sn2 * sn4
        d4 = d2 * d2
        return x, y, dx, dy, ddx, ddy, a * sn * (45.0 - 103.0 * sn2 + 43.0 * sn4 - sn6) / d4, (
            2.0 * a * (6.0 * sn6 - 41.0 * sn4 + 44.0 * sn2 - 5.0) / d4
        )
    elif kind == KIND_GEAR:
        ax, ay, bx, by, u, delta = _gear_terms(xp, par, s)
        ex = bx - ax
        ey = by - ay
        w = u * u * (3.0 - 2.0 * u)
        x, y = ax + ex * w, ay + ey * w
        if order == 0:
            return x, y
        wp = 6.0 * u * (1.0 - u) / delta
        dx, dy = ex * wp, ey * wp
        if order == 1:
            return x, y, dx, dy
        wpp = (6.0 - 12.0 * u) / (delta * delta)
        if order == 2:
            return x, y, dx, dy, ex * wpp, ey * wpp
        wppp = -12.0 / (delta * delta * delta)
        return x, y, dx, dy, ex * wpp, ey * wpp, ex * wppp, ey * wppp
    else:
        c = xp.cos(s)
        sn = xp.sin(s)
        radial = _polar_terms(xp, kind, par, s, c, sn, order)
        r = radial[0]
        x, y = r * c, r * sn
        if order == 0:
            return x, y
        rp = radial[1]
        dx, dy = rp * c - r * sn, rp * sn + r * c
        if order == 1:
            return x, y, dx, dy
        rpp = radial[2]
        ddx, ddy = (rpp - r) * c - 2.0 * rp * sn, (rpp - r) * sn + 2.0 * rp * c
        if order == 2:
            return x, y, dx, dy, ddx, ddy
        # gamma = r e^{is}: gamma''' = ((r''' - 3 r') + i (3 r'' - r)) e^{is}
        tan3 = radial[3] - 3.0 * rp
        nor3 = 3.0 * rpp - r
        return x, y, dx, dy, ddx, ddy, tan3 * c - nor3 * sn, tan3 * sn + nor3 * c


def curve_point(kind, par, s):
    """gamma(s) -> (x, y) for the family selected by kind."""
    return curve_jet(kind, par, s, 0)


def curve_d1(kind, par, s):
    """dgamma/ds -> (x', y')."""
    return curve_jet(kind, par, s, 1)[2:]


def curve_d2(kind, par, s):
    """d2gamma/ds2 -> (x'', y'')."""
    return curve_jet(kind, par, s, 2)[4:]


def curve_frame(kind, par, s, eps_sing):
    """Point, Frenet frame and turn data at the float s, with the cusp fallback.

    par is the tuple of family parameters, so every result is a Python
    float.  One order-3 curve_jet call gives the point and three
    derivatives.  Below eps_sing tangent speed (not at a NaN speed) the
    frame comes from the first regular parameter among s + 1e-4,
    s - 1e-4, s + 2e-4, ... s - 1e-3, one order-3 call each.  Returns
    (gx, gy, tx, ty, speed, turn, turn_deriv, speed_rate, kappa, ok).
    The point, speed = |gamma'| and its parameter derivative speed_rate =
    gamma'.gamma'' / max(speed, eps_sing) belong to s.  The fallback
    point gives the rest: the unit tangent, the signed turn rate
    turn = (x'y'' - y'x'') / |gamma'|^2 (the tangent angle's derivative),
    its derivative turn_deriv = (x'y''' - y'x''') / |gamma'|^2 -
    2 turn gamma'.gamma'' / |gamma'|^2, and the signed curvature
    kappa = (x'y'' - y'x'') / |gamma'|^3.  With no regular parameter in
    reach those are all zero and ok is False.
    """
    gx, gy, dx, dy, ddx, ddy, d3x, d3y = curve_jet(kind, par, s, 3)
    # complex abs is libm hypot, as np.hypot is
    speed = abs(complex(dx, dy))
    dot = dx * ddx + dy * ddy
    mf = speed
    if speed < eps_sing:
        speed_rate = dot / eps_sing
        for step in (sign * 1e-4 * j for j in range(1, 11) for sign in (1.0, -1.0)):
            _x, _y, dx, dy, ddx, ddy, d3x, d3y = curve_jet(kind, par, s + step, 3)
            mf = abs(complex(dx, dy))
            if mf >= eps_sing:
                break
        else:
            return gx, gy, 0.0, 0.0, speed, 0.0, 0.0, speed_rate, 0.0, False
        dot = dx * ddx + dy * ddy
    else:
        speed_rate = dot / speed
    cross = dx * ddy - dy * ddx
    m2 = dx * dx + dy * dy
    turn = cross / m2
    turn_deriv = (dx * d3y - dy * d3x) / m2 - 2.0 * turn * dot / m2
    kappa = cross / (mf * mf * mf)
    return gx, gy, dx / mf, dy / mf, speed, turn, turn_deriv, speed_rate, kappa, True
