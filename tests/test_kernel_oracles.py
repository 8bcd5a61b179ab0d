"""Kernels against the code they replaced.

The functions below are copies of earlier kernels, kept as reference
implementations: the per-order curve kernels (one function each for the
point, the first and the second derivative), the per-agent control tick
that evaluated the curve for each agent on numpy scalars, the scalar
march of the lifted reference (which the block-array march_profile must
match bit for bit), the scalar frame, the array RK4 step, the scalar nearest-point query, the
brute-force nearest-sample argmin, and the per-start Gauss-Newton finder
with its numpy-scalar residual and Jacobian.  The fused curve_jet and
the pruned nearest-sample search must match their copies exactly.  Random snapshots (hypothesis) cover the
deltoid cusps, the gear corners, the lissajous-32 crossings, a lone
sweep-only agent, two agents close enough for the avoidance law to
engage, twelve agents, and a cusp search that finds no regular parameter.

The seven trigonometric families (ellipse, deltoid, rose, lissajous,
nephroid, spirograph, fourier-sum) share one row-sum branch.  Its oracle
is old_trig_jet, a copy of the per-family order-0..3 branches it
replaced, read through old_layout's parameter vectors.  Deltoid,
nephroid, circle, ellipse and spirograph-3 keep those branches' bits;
the presets where a product, a phase or a polar radius became a sum of
rows (DRIFTING) are held to TRIG_DRIFT of the curve's scale, on 10k
parameters per preset and on drawn family parameters.

curve_jet's float path (a tuple of parameters, a float s) must equal its
array path bit for bit, except on the three families that raise an
array to a power (superellipse, cassini, lemniscate): numpy's vectorized
power and libm pow differ there by a few ulps, so those are held to 4
ulps of each column's largest magnitude (16 for the third derivative).

The float frame, curve_frame, must equal the scalar frame (the numpy-
scalar copy of the array frame it replaced) bit for bit, cusp fallback
included.  Its turn derivative is the closed form from the order-3 jet;
the tick took a central difference of turn rates at s +/- 1e-5 before,
kept here as the three-jet geometry oracle.  The two agree within the
central difference's own error: its truncation, estimated from steps h
and 2h, plus the rounding that near a cusp dominates both.  On the power
families every other column of the geometry gets 32 ulps.  The avoidance
law runs only on ticks that need it; the tick must equal, bit for bit,
its run with an engaged pair added far off, which forces the blend.

The float tick is expected to match its oracle exactly on hosts where
math.sin/cos agree with numpy's, but it is checked within 1e-12 (relative
above 1), since the two libraries may round differently by an ulp
elsewhere.

The batched nearest-point query is not bit-identical to its scalar
copy.  It shares ternary steps with the copy's 64-step search only
where a cusp or corner is in the bracket, and a Newton method polishes
the parameter.  The scalar code also squares
numpy float64 scalars with `**2`, which goes through libm `pow` and
differs from `x*x` in about 0.1% of cases; the array code squares with
`x*x`, which is correctly rounded.  So distances agree within 1e-12 of
the scale, and the parameters agree only through the distance at the
point they name: the minimum is flat, and the ternary search leaves the
parameter up to about 1e-8 from it.

The lockstep finder squares with `np.float_power`, which goes through
the same libm `pow` as the scalar `**2` of its oracle, so every start it
does not retire takes the oracle's iterates; on this code's reference
host they agree to the bit.  The test holds it to the winner's index
and flags and to theta within 1e-10.  The finder's verdicts over the
whole start stack (vertices, centers, mean sides and the feasible,
converged and convex flags, with the demotion of a converged non-convex
polygon) must equal the per-start helpers and the demoting selection
they replaced, bit for bit.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveswarm import _curve_kernels as kernels
from curveswarm import _finder_kernels as fk
from curveswarm import _sim_kernels as sk
from curveswarm import control, finder
from curveswarm._curve_kernels import curve_d1, curve_d2, curve_frame, curve_jet, curve_point
from curveswarm.control import make_params
from curveswarm.curves import catalog_names, make_curve

TWO_PI = 2.0 * np.pi
DELTOID = make_curve("deltoid")
GEAR = make_curve("gear-hermite")
ELLIPSE = make_curve("ellipse")
LISSAJOUS = make_curve("lissajous-32")
DELTOID_CUSPS = (0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0)
GEAR_CORNERS = tuple(k * np.pi / GEAR.par[0] for k in range(int(2 * GEAR.par[0])))
# the seven self-crossings of lissajous-32, (2 cos 3s, 1.5 sin 2s)
LISSAJOUS_CROSSINGS = tuple((0.0, 1.5 * np.sin(k * np.pi / 3)) for k in (-1, 0, 1)) + tuple(
    (sx * np.sqrt(2.0), sy * 0.75) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)
)
# the two parameters of each crossing: k pi / 12 for these k
LISSAJOUS_CROSSING_S = tuple(
    k * np.pi / 12.0 for k in (1, 2, 5, 6, 7, 10, 11, 13, 14, 17, 18, 19, 22, 23)
)


# -- scalar reference implementations ---------------------------------------

# The kind codes and parameter layouts from before the seven
# trigonometric-polynomial families shared one row-sum branch.  Every
# curve oracle below dispatches on these codes and reads these layouts;
# old_layout maps a curve onto them.
(
    OLD_ELLIPSE,
    OLD_DELTOID,
    OLD_ROSE,
    OLD_LISSAJOUS,
    OLD_SUPERELLIPSE,
    OLD_CASSINI,
    OLD_LEMNISCATE,
    OLD_FOURIER,
    OLD_PEANUT,
    OLD_NEPHROID,
    OLD_SPIROGRAPH,
    OLD_GEAR,
) = range(12)
OLD_KINDS = {
    "ellipse": OLD_ELLIPSE,
    "deltoid": OLD_DELTOID,
    "rose": OLD_ROSE,
    "lissajous": OLD_LISSAJOUS,
    "superellipse": OLD_SUPERELLIPSE,
    "cassini": OLD_CASSINI,
    "lemniscate": OLD_LEMNISCATE,
    "fourier-sum": OLD_FOURIER,
    "peanut": OLD_PEANUT,
    "nephroid": OLD_NEPHROID,
    "spirograph": OLD_SPIROGRAPH,
    "gear-hermite": OLD_GEAR,
}


def old_layout(curve):
    """(old kind code, old parameter vector) of curve, as the old packers wrote them.

    The five families outside the trigonometric row sum kept their
    layouts, so their vector is curve.par.
    """
    p = curve.params
    family = curve.family
    if family == "ellipse":
        par = [p["a"], p["b"]]
    elif family in ("deltoid", "nephroid"):
        par = [p["a"]]
    elif family == "rose":
        par = [p["a"], float(round(p["k"]))]
    elif family == "lissajous":
        fx = float(round(p["freq_x"]))
        fy = float(round(p["freq_y"]))
        par = [p["amp_x"], p["amp_y"], fx, fy, p["phase"]]
    elif family == "fourier-sum":
        par = np.concatenate(([float(p["c0"])], np.atleast_1d(np.asarray(p["coeffs"], float))))
    elif family == "spirograph":
        par = [p["R"], p["r"], p["d"]]
    else:
        par = curve.par
    return OLD_KINDS[family], np.array(par, float)


def old_trig_jet(kind, par, s, order):
    """The per-family order-0..3 curve_jet branches that the row sum replaced.

    Ellipse, deltoid, rose, lissajous, nephroid and spirograph each had a
    hand-derived branch, and fourier-sum a polar radius loop; kind and
    par are old_layout's.  A tuple par runs the math module on a float s,
    any other par numpy's, as curve_jet does.
    """
    xp = math if type(par) is tuple else np
    if kind == OLD_ELLIPSE:
        c = xp.cos(s)
        sn = xp.sin(s)
        x, y = par[0] * c, par[1] * sn
        if order == 0:
            return x, y
        dx, dy = -par[0] * sn, par[1] * c
        if order == 1:
            return x, y, dx, dy
        ddx, ddy = -par[0] * c, -par[1] * sn
        if order == 2:
            return x, y, dx, dy, ddx, ddy
        return x, y, dx, dy, ddx, ddy, par[0] * sn, -par[1] * c
    elif kind == OLD_DELTOID:
        a = par[0]
        c = xp.cos(s)
        sn = xp.sin(s)
        s_2 = 2.0 * s
        c2 = xp.cos(s_2)
        s2 = xp.sin(s_2)
        x, y = a * (2.0 * c + c2), a * (2.0 * sn - s2)
        if order == 0:
            return x, y
        dx, dy = a * (-2.0 * sn - 2.0 * s2), a * (2.0 * c - 2.0 * c2)
        if order == 1:
            return x, y, dx, dy
        ddx, ddy = a * (-2.0 * c - 4.0 * c2), a * (-2.0 * sn + 4.0 * s2)
        if order == 2:
            return x, y, dx, dy, ddx, ddy
        return x, y, dx, dy, ddx, ddy, a * (2.0 * sn + 8.0 * s2), a * (-2.0 * c + 8.0 * c2)
    elif kind == OLD_ROSE:
        a = par[0]
        k = par[1]
        c = xp.cos(s)
        sn = xp.sin(s)
        s_k = k * s
        ck = xp.cos(s_k)
        x, y = a * ck * c, a * ck * sn
        if order == 0:
            return x, y
        sk = xp.sin(s_k)
        dx, dy = a * (-k * sk * c - ck * sn), a * (-k * sk * sn + ck * c)
        if order == 1:
            return x, y, dx, dy
        kk1 = k * k + 1.0
        ddx, ddy = a * (-kk1 * ck * c + 2.0 * k * sk * sn), a * (-kk1 * ck * sn - 2.0 * k * sk * c)
        if order == 2:
            return x, y, dx, dy, ddx, ddy
        k3 = k * (k * k + 3.0)
        kk3 = 3.0 * k * k + 1.0
        return x, y, dx, dy, ddx, ddy, a * (k3 * sk * c + kk3 * ck * sn), a * (
            k3 * sk * sn - kk3 * ck * c
        )
    elif kind == OLD_LISSAJOUS:
        phase_x = par[2] * s + par[4]
        phase_y = par[3] * s
        sx = xp.sin(phase_x)
        sy = xp.sin(phase_y)
        x, y = par[0] * sx, par[1] * sy
        if order == 0:
            return x, y
        cx = xp.cos(phase_x)
        cy = xp.cos(phase_y)
        dx, dy = par[0] * par[2] * cx, par[1] * par[3] * cy
        if order == 1:
            return x, y, dx, dy
        ddx, ddy = -par[0] * par[2] * par[2] * sx, -par[1] * par[3] * par[3] * sy
        if order == 2:
            return x, y, dx, dy, ddx, ddy
        return x, y, dx, dy, ddx, ddy, -par[0] * par[2] * par[2] * par[2] * cx, (
            -par[1] * par[3] * par[3] * par[3] * cy
        )
    elif kind == OLD_NEPHROID:
        a = par[0]
        c = xp.cos(s)
        sn = xp.sin(s)
        s_3 = 3.0 * s
        c3 = xp.cos(s_3)
        s3 = xp.sin(s_3)
        x, y = a * (3.0 * c - c3), a * (3.0 * sn - s3)
        if order == 0:
            return x, y
        dx, dy = a * (-3.0 * sn + 3.0 * s3), a * (3.0 * c - 3.0 * c3)
        if order == 1:
            return x, y, dx, dy
        ddx, ddy = a * (-3.0 * c + 9.0 * c3), a * (-3.0 * sn + 9.0 * s3)
        if order == 2:
            return x, y, dx, dy, ddx, ddy
        return x, y, dx, dy, ddx, ddy, a * (3.0 * sn - 27.0 * s3), a * (-3.0 * c + 27.0 * c3)
    elif kind == OLD_SPIROGRAPH:
        rr = par[0] - par[1]
        d = par[2]
        q = rr / par[1]
        c = xp.cos(s)
        sn = xp.sin(s)
        s_q = q * s
        cq = xp.cos(s_q)
        sq = xp.sin(s_q)
        x, y = rr * c + d * cq, rr * sn - d * sq
        if order == 0:
            return x, y
        dx, dy = -rr * sn - d * q * sq, rr * c - d * q * cq
        if order == 1:
            return x, y, dx, dy
        q2 = q * q
        ddx, ddy = -rr * c - d * q2 * cq, -rr * sn + d * q2 * sq
        if order == 2:
            return x, y, dx, dy, ddx, ddy
        q3 = q2 * q
        return x, y, dx, dy, ddx, ddy, rr * sn + d * q3 * sq, -rr * c + d * q3 * cq
    assert kind == OLD_FOURIER
    # gamma = r e^{is} with the trigonometric radius r
    c = xp.cos(s)
    sn = xp.sin(s)
    r = par[0] + 0.0 * s
    rp = 0.0 * s
    rpp = 0.0 * s
    rppp = 0.0 * s
    nh = (len(par) - 1) // 2
    for j in range(1, nh + 1):
        aj = par[2 * j - 1]
        bj = par[2 * j]
        s_j = j * s
        cj = xp.cos(s_j)
        sj = xp.sin(s_j)
        r = r + aj * cj + bj * sj
        if order >= 1:
            rp = rp + j * (bj * cj - aj * sj)
        if order >= 2:
            rpp = rpp - j * j * (aj * cj + bj * sj)
        if order >= 3:
            rppp = rppp + j * j * j * (aj * sj - bj * cj)
    x, y = r * c, r * sn
    if order == 0:
        return x, y
    dx, dy = rp * c - r * sn, rp * sn + r * c
    if order == 1:
        return x, y, dx, dy
    ddx, ddy = (rpp - r) * c - 2.0 * rp * sn, (rpp - r) * sn + 2.0 * rp * c
    if order == 2:
        return x, y, dx, dy, ddx, ddy
    tan3 = rppp - 3.0 * rp
    nor3 = 3.0 * rpp - r
    return x, y, dx, dy, ddx, ddy, tan3 * c - nor3 * sn, tan3 * sn + nor3 * c


# The per-order curve kernels that curve_jet replaced: one function per
# derivative order, each computing its own trig and polar radius terms.


def old_polar_terms(kind, par, s):
    """Radius r(s) and its first two derivatives for the polar families."""
    if kind == OLD_SUPERELLIPSE:
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
    elif kind == OLD_CASSINI:
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
    elif kind == OLD_PEANUT:
        a = par[0]
        e = par[1]
        r2 = a * a * (1.0 - e * np.cos(2.0 * s))
        r2p = 2.0 * a * a * e * np.sin(2.0 * s)
        r2pp = 4.0 * a * a * e * np.cos(2.0 * s)
        r = np.sqrt(r2)
        rp = r2p / (2.0 * r)
        rpp = r2pp / (2.0 * r) - r2p * r2p / (4.0 * r2 * r)
        return r, rp, rpp
    else:  # OLD_FOURIER
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


def old_gear_terms(par, s):
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


def old_curve_point(kind, par, s):
    """gamma(s) -> (x, y) for the family selected by kind."""
    if kind == OLD_ELLIPSE:
        return par[0] * np.cos(s), par[1] * np.sin(s)
    elif kind == OLD_DELTOID:
        a = par[0]
        return a * (2.0 * np.cos(s) + np.cos(2.0 * s)), a * (
            2.0 * np.sin(s) - np.sin(2.0 * s)
        )
    elif kind == OLD_ROSE:
        a = par[0]
        k = par[1]
        return a * np.cos(k * s) * np.cos(s), a * np.cos(k * s) * np.sin(s)
    elif kind == OLD_LISSAJOUS:
        return par[0] * np.sin(par[2] * s + par[4]), par[1] * np.sin(par[3] * s)
    elif kind == OLD_LEMNISCATE:
        a = par[0]
        sn = np.sin(s)
        c = np.cos(s)
        d = 1.0 + sn * sn
        return a * c / d, a * sn * c / d
    elif kind == OLD_NEPHROID:
        a = par[0]
        return a * (3.0 * np.cos(s) - np.cos(3.0 * s)), a * (
            3.0 * np.sin(s) - np.sin(3.0 * s)
        )
    elif kind == OLD_SPIROGRAPH:
        rr = par[0] - par[1]
        d = par[2]
        q = rr / par[1]
        return rr * np.cos(s) + d * np.cos(q * s), rr * np.sin(s) - d * np.sin(q * s)
    elif kind == OLD_GEAR:
        ax, ay, bx, by, u, delta = old_gear_terms(par, s)
        w = u * u * (3.0 - 2.0 * u)
        return ax + (bx - ax) * w, ay + (by - ay) * w
    else:
        r, rp, rpp = old_polar_terms(kind, par, s)
        return r * np.cos(s), r * np.sin(s)


def old_curve_d1(kind, par, s):
    """dgamma/ds -> (x', y')."""
    if kind == OLD_ELLIPSE:
        return -par[0] * np.sin(s), par[1] * np.cos(s)
    elif kind == OLD_DELTOID:
        a = par[0]
        return a * (-2.0 * np.sin(s) - 2.0 * np.sin(2.0 * s)), a * (
            2.0 * np.cos(s) - 2.0 * np.cos(2.0 * s)
        )
    elif kind == OLD_ROSE:
        a = par[0]
        k = par[1]
        ck = np.cos(k * s)
        sk = np.sin(k * s)
        return a * (-k * sk * np.cos(s) - ck * np.sin(s)), a * (
            -k * sk * np.sin(s) + ck * np.cos(s)
        )
    elif kind == OLD_LISSAJOUS:
        return par[0] * par[2] * np.cos(par[2] * s + par[4]), par[1] * par[3] * np.cos(
            par[3] * s
        )
    elif kind == OLD_LEMNISCATE:
        a = par[0]
        sn = np.sin(s)
        c = np.cos(s)
        d = 1.0 + sn * sn
        d2 = d * d
        return -a * sn * (3.0 - sn * sn) / d2, a * (c ** 4 - sn * sn - sn ** 4) / d2
    elif kind == OLD_NEPHROID:
        a = par[0]
        return a * (-3.0 * np.sin(s) + 3.0 * np.sin(3.0 * s)), a * (
            3.0 * np.cos(s) - 3.0 * np.cos(3.0 * s)
        )
    elif kind == OLD_SPIROGRAPH:
        rr = par[0] - par[1]
        d = par[2]
        q = rr / par[1]
        return -rr * np.sin(s) - d * q * np.sin(q * s), rr * np.cos(s) - d * q * np.cos(
            q * s
        )
    elif kind == OLD_GEAR:
        ax, ay, bx, by, u, delta = old_gear_terms(par, s)
        wp = 6.0 * u * (1.0 - u) / delta
        return (bx - ax) * wp, (by - ay) * wp
    else:
        r, rp, rpp = old_polar_terms(kind, par, s)
        c = np.cos(s)
        sn = np.sin(s)
        return rp * c - r * sn, rp * sn + r * c


def old_curve_d2(kind, par, s):
    """d2gamma/ds2 -> (x'', y'')."""
    if kind == OLD_ELLIPSE:
        return -par[0] * np.cos(s), -par[1] * np.sin(s)
    elif kind == OLD_DELTOID:
        a = par[0]
        return a * (-2.0 * np.cos(s) - 4.0 * np.cos(2.0 * s)), a * (
            -2.0 * np.sin(s) + 4.0 * np.sin(2.0 * s)
        )
    elif kind == OLD_ROSE:
        a = par[0]
        k = par[1]
        ck = np.cos(k * s)
        sk = np.sin(k * s)
        kk1 = k * k + 1.0
        return a * (-kk1 * ck * np.cos(s) + 2.0 * k * sk * np.sin(s)), a * (
            -kk1 * ck * np.sin(s) - 2.0 * k * sk * np.cos(s)
        )
    elif kind == OLD_LISSAJOUS:
        return -par[0] * par[2] * par[2] * np.sin(par[2] * s + par[4]), -par[1] * par[
            3
        ] * par[3] * np.sin(par[3] * s)
    elif kind == OLD_LEMNISCATE:
        a = par[0]
        sn = np.sin(s)
        c = np.cos(s)
        d = 1.0 + sn * sn
        d3 = d * d * d
        return -a * c * (3.0 - 12.0 * sn * sn + sn ** 4) / d3, -2.0 * a * sn * c * (
            5.0 - 3.0 * sn * sn
        ) / d3
    elif kind == OLD_NEPHROID:
        a = par[0]
        return a * (-3.0 * np.cos(s) + 9.0 * np.cos(3.0 * s)), a * (
            -3.0 * np.sin(s) + 9.0 * np.sin(3.0 * s)
        )
    elif kind == OLD_SPIROGRAPH:
        rr = par[0] - par[1]
        d = par[2]
        q = rr / par[1]
        q2 = q * q
        return -rr * np.cos(s) - d * q2 * np.cos(q * s), -rr * np.sin(
            s
        ) + d * q2 * np.sin(q * s)
    elif kind == OLD_GEAR:
        ax, ay, bx, by, u, delta = old_gear_terms(par, s)
        wpp = (6.0 - 12.0 * u) / (delta * delta)
        return (bx - ax) * wpp, (by - ay) * wpp
    else:
        r, rp, rpp = old_polar_terms(kind, par, s)
        c = np.cos(s)
        sn = np.sin(s)
        return (rpp - r) * c - 2.0 * rp * sn, (rpp - r) * sn + 2.0 * rp * c


def old_turn_rate(kind, par, s, eps_sing):
    """d(psi_t)/ds = (x'y'' - y'x'') / ||gamma'||^2 with the cusp fallback."""
    dx, dy = curve_d1(kind, par, s)
    m = np.hypot(dx, dy)
    sf = s
    if m < eps_sing:
        for j in range(1, 11):
            step = 1e-4 * j
            dxp, dyp = curve_d1(kind, par, s + step)
            if np.hypot(dxp, dyp) >= eps_sing:
                sf = s + step
                break
            dxm, dym = curve_d1(kind, par, s - step)
            if np.hypot(dxm, dym) >= eps_sing:
                sf = s - step
                break
        dx, dy = curve_d1(kind, par, sf)
    ddx, ddy = curve_d2(kind, par, sf)
    m2 = dx * dx + dy * dy
    return (dx * ddy - dy * ddx) / m2


def scalar_frame_raw(kind, par, s, eps_sing):
    """Frenet data at scalar s with the cusp fallback."""
    dx, dy = curve_d1(kind, par, s)
    m = np.hypot(dx, dy)
    sf = s
    ok = True
    if m < eps_sing:
        ok = False
        for j in range(1, 11):
            step = 1e-4 * j
            dxp, dyp = curve_d1(kind, par, s + step)
            if np.hypot(dxp, dyp) >= eps_sing:
                sf = s + step
                ok = True
                break
            dxm, dym = curve_d1(kind, par, s - step)
            if np.hypot(dxm, dym) >= eps_sing:
                sf = s - step
                ok = True
                break
        if not ok:
            return 0.0, 0.0, 0.0, 0.0, 0.0, m, 0.0, 0.0, False
        dx, dy = curve_d1(kind, par, sf)
    mf = np.hypot(dx, dy)
    ddx, ddy = curve_d2(kind, par, sf)
    tx = dx / mf
    ty = dy / mf
    cross = dx * ddy - dy * ddx
    kappa = cross / (mf * mf * mf)
    turn = cross / (dx * dx + dy * dy)
    return tx, ty, -ty, tx, np.arctan2(ty, tx), m, kappa, turn, True


def scalar_turn_deriv(kind, par, s, eps_sing):
    """d(turn)/ds in closed form at the cusp fallback point of scalar_frame_raw.

    (x'y''' - y'x''') / |gamma'|^2 - 2 turn gamma'.gamma'' / |gamma'|^2 on
    numpy scalars, the third derivative from the array curve_jet; 0 where
    the cusp search fails.
    """
    sf = s
    if np.hypot(*curve_d1(kind, par, s)) < eps_sing:
        for j in range(1, 11):
            step = 1e-4 * j
            if np.hypot(*curve_d1(kind, par, s + step)) >= eps_sing:
                sf = s + step
                break
            if np.hypot(*curve_d1(kind, par, s - step)) >= eps_sing:
                sf = s - step
                break
        else:
            return 0.0
    dx, dy = curve_d1(kind, par, sf)
    ddx, ddy = curve_d2(kind, par, sf)
    d3x, d3y = curve_jet(kind, par, sf, 3)[6:]
    m2 = dx * dx + dy * dy
    turn = (dx * ddy - dy * ddx) / m2
    return (dx * d3y - dy * d3x) / m2 - 2.0 * turn * (dx * ddx + dy * ddy) / m2


def scalar_transverse_terms(kind, par, eps_sing, x, y, psi, v, z, vz, lift_gain, z_ref, z_ref_rate):
    """Outputs, their rates, and the geometry needed by the path law."""
    s = z / lift_gain
    tx, ty, nx, ny, _psi_t, speed, _kappa, turn, _ok = scalar_frame_raw(
        kind, par, s, eps_sing
    )
    gx, gy = curve_point(kind, par, s)
    dx = x - gx
    dy = y - gy
    e_n = nx * dx + ny * dy
    e_t = tx * dx + ty * dy
    # sin and cos of psi - psi_t from the unit tangent (cos psi_t, sin psi_t)
    sin_dpsi = np.sin(psi) * tx - np.cos(psi) * ty
    cos_dpsi = np.cos(psi) * tx + np.sin(psi) * ty
    s_rate = vz / lift_gain
    e_n_dot = -turn * s_rate * e_t + v * sin_dpsi
    e_t_dot = turn * s_rate * e_n + v * cos_dpsi - speed * s_rate
    h3 = z - z_ref
    h3_dot = vz - z_ref_rate
    d1x, d1y = curve_d1(kind, par, s)
    d2x, d2y = curve_d2(kind, par, s)
    denom = speed
    if denom < eps_sing:
        denom = eps_sing
    speed_deriv = (d1x * d2x + d1y * d2y) / denom
    turn_deriv = scalar_turn_deriv(kind, par, s, eps_sing)
    return (
        e_n,
        e_t,
        h3,
        e_n_dot,
        e_t_dot,
        h3_dot,
        sin_dpsi,
        cos_dpsi,
        speed,
        turn,
        turn_deriv,
        speed_deriv,
        s_rate,
    )


def scalar_path_following_control(kind, par, eps_sing, x, y, psi, v, z, vz, z_ref, z_ref_rate, cp):
    """Feedback-linearizing PD law tracking the lifted curve."""
    (
        e_n,
        e_t,
        h3,
        e_n_dot,
        e_t_dot,
        h3_dot,
        sin_dpsi,
        cos_dpsi,
        speed,
        turn,
        turn_deriv,
        speed_deriv,
        s_rate,
    ) = scalar_transverse_terms(
        kind, par, eps_sing, x, y, psi, v, z, vz, cp.lift_gain, z_ref, z_ref_rate
    )
    lf1 = -turn_deriv * s_rate * s_rate * e_t - turn * s_rate * (
        turn * s_rate * e_n + 2.0 * v * cos_dpsi - speed * s_rate
    )
    lf2 = (
        turn_deriv * s_rate * s_rate * e_n
        + turn * s_rate * (-turn * s_rate * e_t + 2.0 * v * sin_dpsi)
        - speed_deriv * s_rate * s_rate
    )
    rhs1 = -cp.kp_n * e_n - cp.kd_n * e_n_dot - lf1
    rhs2 = -cp.kp_t * e_t - cp.kd_t * e_t_dot - lf2
    a_z = -cp.kp_lift * h3 - cp.kd_lift * h3_dot
    v_reg = v
    if abs(v_reg) < cp.v_min:
        v_reg = cp.v_min if v_reg >= 0.0 else -cp.v_min
    b1 = -turn * e_t / cp.lift_gain
    b2 = (turn * e_n - speed) / cp.lift_gain
    r1 = rhs1 - b1 * a_z
    r2 = rhs2 - b2 * a_z
    # closed-form inverse of [[sin, v cos], [cos, -v sin]]
    a = sin_dpsi * r1 + cos_dpsi * r2
    omega = (cos_dpsi * r1 - sin_dpsi * r2) / v_reg
    return a, omega, a_z


def scalar_pose_control_law(x, y, psi, v, vz, target_x, target_y, target_psi, cp):
    """Damped regulator parking the agent at its assigned vertex pose."""
    hx = np.cos(psi)
    hy = np.sin(psi)
    a = -cp.kv_pose * v - cp.kp_pose * ((x - target_x) * hx + (y - target_y) * hy)
    omega = -cp.kpsi_pose * control.wrap_angle(psi - target_psi)
    a_z = -cp.kz_pose * vz
    return a, omega, a_z


def scalar_repulsion_sum(idx, px, py, psi, d_act, cp):
    """Raw repulsive field on agent idx plus the worst proximity gate."""
    n = px.shape[0]
    fx = 0.0
    fy = 0.0
    prox = 0.0
    min_sep = np.inf
    ramp_lo = 0.5 * np.pi - 0.5 * cp.codir_ramp
    for j in range(n):
        if j == idx:
            continue
        dx = px[idx] - px[j]
        dy = py[idx] - py[j]
        r = np.sqrt(dx * dx + dy * dy)
        if r < min_sep:
            min_sep = r
        if r >= cp.sense_radius or r >= d_act:
            continue
        if r <= 0.0:
            continue
        strength = cp.k_avoid * (1.0 / r - 1.0 / d_act) / (r * r)
        # softened co-directional modulation: same-way neighbors repel
        # at codir_factor strength, ramping back to full over codir_ramp
        # radians around a pi/2 heading difference
        heading_gap = control.wrap_angle(psi[idx] - psi[j])
        if heading_gap < 0.0:
            heading_gap = -heading_gap
        mod = cp.codir_factor + (1.0 - cp.codir_factor) * control.beta_smooth(
            (heading_gap - ramp_lo) / cp.codir_ramp
        )
        fx += strength * dx * mod
        fy += strength * dy * mod
        p = control.beta_smooth((d_act - r) / (d_act - cp.d_safe))
        if p > prox:
            prox = p
    return fx, fy, prox, min_sep


def scalar_avoidance_control_law(psi_i, v, vz, fx, fy, cp):
    """Steer along the repulsive field, modulating speed by alignment."""
    psi_des = np.arctan2(fy, fx)
    err = control.wrap_angle(psi_des - psi_i)
    v_des = cp.v_max * np.cos(err)
    a = cp.kv_avoid * (v_des - v)
    omega = cp.komega_avoid * err
    a_z = -cp.kz_avoid * vz
    return a, omega, a_z


def scalar_agent_control(
    idx,
    px,
    py,
    psi,
    v,
    z,
    vz,
    revs_i,
    kind,
    par,
    eps_sing,
    target_x,
    target_y,
    target_psi,
    z_ref,
    z_ref_rate,
    cp,
):
    """Full blended control for one agent given the team snapshot."""
    dx = px[idx] - target_x
    dy = py[idx] - target_y
    dist = np.sqrt(dx * dx + dy * dy)
    sigma = control.blend_weight(revs_i, dist, cp.revs_star, cp.d_sw)
    a_tfl, om_tfl, az_tfl = scalar_path_following_control(
        kind,
        par,
        eps_sing,
        px[idx],
        py[idx],
        psi[idx],
        v[idx],
        z[idx],
        vz[idx],
        z_ref,
        z_ref_rate,
        cp,
    )
    a_pose, om_pose, az_pose = scalar_pose_control_law(
        px[idx], py[idx], psi[idx], v[idx], vz[idx], target_x, target_y, target_psi, cp
    )
    a_nom = (1.0 - sigma) * a_tfl + sigma * a_pose
    om_nom = (1.0 - sigma) * om_tfl + sigma * om_pose
    az_nom = (1.0 - sigma) * az_tfl + sigma * az_pose
    duty = control.beta_smooth((cp.sigma_accept - sigma) / cp.delta_sigma)
    d_act = cp.d_ao
    if sigma > cp.shrink_sigma:
        d_act = cp.shrink_factor * cp.d_safe
    fx_raw, fy_raw, prox, _min_sep = scalar_repulsion_sum(idx, px, py, psi, d_act, cp)
    fx = duty * fx_raw
    fy = duty * fy_raw
    alpha = duty * prox
    a_av, om_av, az_av = scalar_avoidance_control_law(psi[idx], v[idx], vz[idx], fx, fy, cp)
    a = (1.0 - alpha) * a_nom + alpha * a_av
    omega = (1.0 - alpha) * om_nom + alpha * om_av
    a_z = (1.0 - alpha) * az_nom + alpha * az_av
    return a, omega, a_z, sigma, alpha, duty


def scalar_march_profile(z0, z_cap, t, rate, width):
    """Lifted reference position and rate of one agent at time t."""
    linear = z0 + rate * t
    if linear <= z_cap - width:
        return linear, rate
    gap0 = z_cap - z0
    if gap0 > width:
        t_ramp = t - (gap0 - width) / rate
        gap = width * float(np.exp(-rate * t_ramp / width))
    else:
        gap = gap0 * float(np.exp(-rate * t / width))
    return z_cap - gap, rate * gap / width


def march_row(z0, z_cap, t, cp):
    """The (z_ref, z_ref_rate) lists that team_controls takes at time t."""
    z_ref, rate = sk.march_profile(
        np.asarray(z0, dtype=float), np.asarray(z_cap, dtype=float), np.array([t]),
        cp.lift_gain * cp.v_ref, cp.lift_gain * cp.brake_width,
    )
    return z_ref[0].tolist(), rate[0].tolist()


def tick_controls(rows, states, cp):
    """The tick's record rows as the oracle's (a, omega, a_z, sigma, alpha, duty) rows.

    Every row must carry its agent's state bit for bit.  The record has
    no duty factor; it is recomputed from the row's sigma.
    """
    col = sk.TRAJECTORY_COLUMNS.index
    rows = np.array(rows)
    assert rows.shape == (len(states), len(sk.TRAJECTORY_COLUMNS))
    assert rows[:, :6].tobytes() == np.asarray(states, dtype=float).tobytes()
    sigma = rows[:, col("sigma")]
    duty = [control.beta_smooth((cp.sigma_accept - sg) / cp.delta_sigma) for sg in sigma.tolist()]
    controls = rows[:, [col("accel"), col("turn_rate"), col("lift_accel")]]
    return np.column_stack((controls, sigma, rows[:, col("alpha")], duty))


def scalar_team_controls(
    states,
    z0,
    z_cap,
    t,
    kind,
    par,
    eps_sing,
    target_x,
    target_y,
    target_psi,
    has_targets,
    ref_rate,
    cp,
):
    """Controls plus (sigma, alpha, duty) for every agent at one instant."""
    n = states.shape[0]
    out = np.empty((n, 6))
    px, py, psi, v, z, vz = states.T
    width = cp.lift_gain * cp.brake_width
    lead = cp.lift_gain * cp.lead_width
    vz_max = 2.0 * ref_rate
    for i in range(n):
        z_ref, rate_i = scalar_march_profile(z0[i], z_cap[i], t, ref_rate, width)
        # leash: a blocked agent's reference waits just ahead of it
        if z_ref > z[i] + lead:
            z_ref = z[i] + lead
            rate_i = 0.0
        # a sweep-only mission has done no revolutions toward a target,
        # which pins sigma at zero
        revs = 0.0
        if has_targets:
            revs = (z[i] - z0[i]) / (TWO_PI * cp.lift_gain)
            if revs < 0.0:
                revs = 0.0
        a, om, az, sg, al, du = scalar_agent_control(
            i,
            px,
            py,
            psi,
            v,
            z,
            vz,
            revs,
            kind,
            par,
            eps_sing,
            target_x[i],
            target_y[i],
            target_psi[i],
            z_ref,
            rate_i,
            cp,
        )
        # speed envelope: restrict acceleration toward high |v|, |vz|
        hi = cp.kv_limit * (cp.v_max - v[i])
        lo = cp.kv_limit * (-cp.v_max - v[i])
        if a > hi:
            a = hi
        if a < lo:
            a = lo
        hi = cp.kv_limit * (vz_max - vz[i])
        lo = cp.kv_limit * (-vz_max - vz[i])
        if az > hi:
            az = hi
        if az < lo:
            az = lo
        # turn-rate saturation: near standstill the regularized inversion
        # emits demand/v_min noise that would thrash the heading
        if om > cp.omega_max:
            om = cp.omega_max
        if om < -cp.omega_max:
            om = -cp.omega_max
        out[i, 0] = a
        out[i, 1] = om
        out[i, 2] = az
        out[i, 3] = sg
        out[i, 4] = al
        out[i, 5] = du
    return out


def array_rk4_step_team(states, controls, dt):
    """One classical Runge-Kutta step of every agent's 6-state dynamics."""
    x, y, psi, v, z, vz = states.T
    a, om, az = controls.T
    # stage 1
    k1x = v * np.cos(psi)
    k1y = v * np.sin(psi)
    # stage 2
    psi2 = psi + 0.5 * dt * om
    v2 = v + 0.5 * dt * a
    k2x = v2 * np.cos(psi2)
    k2y = v2 * np.sin(psi2)
    # stage 3 sees the same midpoint rates for psi and v
    k3x = k2x
    k3y = k2y
    # stage 4
    psi4 = psi + dt * om
    v4 = v + dt * a
    k4x = v4 * np.cos(psi4)
    k4y = v4 * np.sin(psi4)
    out = np.empty_like(states)
    out[:, 0] = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    out[:, 1] = y + (dt / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    out[:, 2] = psi + dt * om
    out[:, 3] = v + dt * a
    out[:, 4] = z + dt * vz + 0.5 * dt * dt * az
    out[:, 5] = vz + dt * az
    return out


def old_rk4_step_team(states, controls, dt):
    n = states.shape[0]
    out = np.empty_like(states)
    for i in range(n):
        x, y, psi, v, z, vz = states[i]
        a, om, az = controls[i]
        k1x = v * np.cos(psi)
        k1y = v * np.sin(psi)
        psi2 = psi + 0.5 * dt * om
        v2 = v + 0.5 * dt * a
        k2x = v2 * np.cos(psi2)
        k2y = v2 * np.sin(psi2)
        k3x = v2 * np.cos(psi2)
        k3y = v2 * np.sin(psi2)
        psi4 = psi + dt * om
        v4 = v + dt * a
        k4x = v4 * np.cos(psi4)
        k4y = v4 * np.sin(psi4)
        out[i, 0] = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        out[i, 1] = y + (dt / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        out[i, 2] = psi + dt * om
        out[i, 3] = v + dt * a
        out[i, 4] = z + dt * vz + 0.5 * dt * dt * az
        out[i, 5] = vz + dt * az
    return out


def old_nearest_on_curve(kind, par, px, py, sample_s, sample_x, sample_y):
    """One point at a time: sample argmin, then a 64-step ternary search."""
    d2 = (sample_x - px) ** 2 + (sample_y - py) ** 2
    best = int(np.argmin(d2))
    step = TWO_PI / sample_s.shape[0]
    lo = sample_s[best] - step
    hi = sample_s[best] + step
    for _ in range(64):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        x1, y1 = curve_point(kind, par, m1)
        x2, y2 = curve_point(kind, par, m2)
        f1 = (x1 - px) ** 2 + (y1 - py) ** 2
        f2 = (x2 - px) ** 2 + (y2 - py) ** 2
        if f1 < f2:
            hi = m2
        else:
            lo = m1
    s_at = 0.5 * (lo + hi)
    gx, gy = curve_point(kind, par, s_at)
    dist = np.sqrt((gx - px) ** 2 + (gy - py) ** 2)
    return dist, s_at % TWO_PI


def old_nearest_sample(px, py, sample_x, sample_y):
    """The coarse argmin the pruned search replaced: every sample, 32 points at a time."""
    best = np.empty(px.shape[0], dtype=np.intp)
    for b in range(0, px.shape[0], 32):
        dx = sample_x - px[b : b + 32, None]
        dy = sample_y - py[b : b + 32, None]
        best[b : b + 32] = np.argmin(dx * dx + dy * dy, axis=1)
    return best


def old_min_pair_distance(px, py):
    n = px.shape[0]
    best = np.inf
    for i in range(n):
        for j in range(i + 1, n):
            d = np.sqrt((px[i] - px[j]) ** 2 + (py[i] - py[j]) ** 2)
            if d < best:
                best = d
    return best


def old_sweep_only_controls(states, z0, z_cap, t, curve, ref_rate, cp):
    """The sweep-only branch of team_controls: its own avoidance blend."""
    n = states.shape[0]
    out = np.empty((n, 6))
    px, py, psi, v, z, vz = (np.ascontiguousarray(states[:, c]) for c in range(6))
    width = cp.lift_gain * cp.brake_width
    lead = cp.lift_gain * cp.lead_width
    vz_max = 2.0 * ref_rate
    for i in range(n):
        z_ref, rate_i = scalar_march_profile(z0[i], z_cap[i], t, ref_rate, width)
        if z_ref > z[i] + lead:
            z_ref = z[i] + lead
            rate_i = 0.0
        a, om, az = scalar_path_following_control(
            curve.kind, curve.par, curve.eps_sing, px[i], py[i], psi[i], v[i],
            z[i], vz[i], z_ref, rate_i, cp,
        )
        sg = 0.0
        du = control.beta_smooth(cp.sigma_accept / cp.delta_sigma)
        fx_raw, fy_raw, prox, _ms = scalar_repulsion_sum(i, px, py, psi, cp.d_ao, cp)
        al = du * prox
        if al > 0.0:
            aa, oma, aza = scalar_avoidance_control_law(
                psi[i], v[i], vz[i], du * fx_raw, du * fy_raw, cp
            )
            a = (1.0 - al) * a + al * aa
            om = (1.0 - al) * om + al * oma
            az = (1.0 - al) * az + al * aza
        hi = cp.kv_limit * (cp.v_max - v[i])
        lo = cp.kv_limit * (-cp.v_max - v[i])
        if a > hi:
            a = hi
        if a < lo:
            a = lo
        hi = cp.kv_limit * (vz_max - vz[i])
        lo = cp.kv_limit * (-vz_max - vz[i])
        if az > hi:
            az = hi
        if az < lo:
            az = lo
        if om > cp.omega_max:
            om = cp.omega_max
        if om < -cp.omega_max:
            om = -cp.omega_max
        out[i] = (a, om, az, sg, al, du)
    return out


# -- snapshot strategies -----------------------------------------------------

unit = st.floats(-1.0, 1.0)


# the step of the central difference that gave the tick's turn derivative
# before the closed form
H_FD = 1e-5


def old_curve_geometry(curve, s):
    """The tick's curve geometry with the turn derivative by central difference.

    One row per entry of s, laid out as curve_frame's: the frame of
    scalar_frame_raw at s, and (turn(s + H_FD) - turn(s - H_FD)) / (2 H_FD)
    with each turn rate from scalar_frame_raw's own cusp fallback.
    """
    kind, par, eps_sing = curve.kind, curve.par, curve.eps_sing
    rows = []
    for si in s:
        tx, ty, _nx, _ny, _psi_t, speed, kappa, turn, ok = scalar_frame_raw(kind, par, si, eps_sing)
        turn_plus = scalar_frame_raw(kind, par, si + H_FD, eps_sing)[7]
        turn_minus = scalar_frame_raw(kind, par, si - H_FD, eps_sing)[7]
        gx, gy = curve_point(kind, par, si)
        d1x, d1y = curve_d1(kind, par, si)
        d2x, d2y = curve_d2(kind, par, si)
        speed_rate = (d1x * d2x + d1y * d2y) / max(speed, eps_sing)
        turn_deriv = (turn_plus - turn_minus) / (2.0 * H_FD)
        rows.append((gx, gy, tx, ty, speed, turn, turn_deriv, speed_rate, kappa, ok))
    return rows


@st.composite
def curve_parameter(draw, curve):
    """A parameter anywhere, or within 2e-3 of a cusp, gear corner or crossing."""
    specials = {
        "deltoid": DELTOID_CUSPS,
        "gear-hermite": GEAR_CORNERS,
        "lissajous-32": LISSAJOUS_CROSSING_S,
    }.get(curve.family, ())
    if specials and draw(st.booleans()):
        return draw(st.sampled_from(specials)) + 2e-3 * draw(unit)
    return draw(st.floats(0.0, TWO_PI))


@st.composite
def agent_state(draw, curve, cp, s):
    """Agent near the curve point at s, lifted coordinate addressing s."""
    p = curve.point(s)
    r = 0.1 * curve.scale
    return [
        p[0] + r * draw(unit),
        p[1] + r * draw(unit),
        np.pi * draw(unit),
        cp.v_max * draw(unit),
        cp.lift_gain * s + 0.05 * cp.lift_gain * draw(unit),
        cp.lift_gain * cp.v_ref * (1.0 + draw(unit)),
    ]


@st.composite
def team_snapshot(draw, curve, close_pair=False, sizes=(1, 2, 3, 4, 5)):
    """(states, z0) for a team of one of sizes; close_pair puts two agents inside d_ao."""
    cp = make_params(curve)
    if close_pair:
        s = draw(curve_parameter(curve))
        first = draw(agent_state(curve, cp, s))
        gap = cp.d_safe + (0.9 * cp.d_ao - cp.d_safe) * draw(st.floats(0.0, 1.0))
        ang = np.pi * draw(unit)
        second = list(first)
        second[0] += gap * np.cos(ang)
        second[1] += gap * np.sin(ang)
        second[2] = np.pi * draw(unit)
        rows = [first, second]
    else:
        n = draw(st.sampled_from(sizes))
        rows = [draw(agent_state(curve, cp, draw(curve_parameter(curve)))) for _ in range(n)]
    states = np.array(rows)
    z0 = states[:, 4] - cp.lift_gain * draw(st.floats(0.0, 2.0 * TWO_PI))
    return states, z0


CURVES = st.sampled_from((DELTOID, GEAR, ELLIPSE))
TICK_CURVES = st.sampled_from((DELTOID, GEAR, ELLIPSE, LISSAJOUS))


def assert_close(got, ref, tol=1e-12):
    """Equal within tol, relative to |ref| where that exceeds 1.

    Non-finite entries must match exactly: the same infinity, or nan in
    both (agents a hair apart overflow the repulsion in both codes).
    """
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    same = (got == ref) | (np.isnan(got) & np.isnan(ref))
    with np.errstate(invalid="ignore"):
        near = np.abs(got - ref) <= tol * np.maximum(1.0, np.abs(ref))
    assert np.all(same | near)


def quiet(oracle, *args):
    """Run a numpy-scalar oracle without its overflow warnings."""
    with np.errstate(all="ignore"):
        return oracle(*args)


# -- oracle comparisons ------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 40))
def test_curve_frame_matches_scalar_oracle(data, m):
    curve = data.draw(TICK_CURVES)
    eps_sing = curve.eps_sing
    if curve is DELTOID and data.draw(st.booleans()):
        # a cusp search that fails: within about 6e-4 of a cusp no
        # parameter in the +/-1e-3 window reaches this speed
        eps_sing = 1e-2
    s = np.array([data.draw(curve_parameter(curve)) for _ in range(m)])
    if data.draw(st.booleans()):
        s[data.draw(st.integers(0, m - 1))] = data.draw(
            st.sampled_from(DELTOID_CUSPS + GEAR_CORNERS + LISSAJOUS_CROSSING_S)
        )
    par = tuple(curve.par.tolist())
    d1x, d1y = curve_d1(curve.kind, curve.par, s)
    d2x, d2y = curve_d2(curve.kind, curve.par, s)
    for k in range(m):
        got = curve_frame(curve.kind, par, float(s[k]), eps_sing)
        assert all(type(v) is float for v in got[:9]) and type(got[9]) is bool
        gx, gy, tx, ty, speed, turn, turn_deriv, speed_rate, kappa, ok = got
        assert (gx, gy) == curve_point(curve.kind, curve.par, s[k])
        ref = scalar_frame_raw(curve.kind, curve.par, s[k], eps_sing)
        # Curve.frenet takes the tangent angle as np.arctan2 of the tangent
        assert (tx, ty, -ty, tx, np.arctan2(ty, tx), speed, kappa, turn, ok) == ref
        # the speed derivative of the path law, d1 . d2 / max(speed, eps)
        denom = max(ref[5], eps_sing)
        assert speed_rate == (d1x[k] * d2x[k] + d1y[k] * d2y[k]) / denom
        assert turn_deriv == scalar_turn_deriv(curve.kind, curve.par, s[k], eps_sing)
        if eps_sing == 1e-2 and abs(np.angle(np.exp(3j * s[k]))) < 1.5e-3:
            assert not ok and (tx, ty, turn, turn_deriv, kappa) == (0.0,) * 5


@st.composite
def tick_case(draw):
    """One team snapshot with its references, targets and lap caps.

    Covers a lone sweep-only agent (infinite caps, no targets), two agents
    inside the avoidance radius, teams of 1-5 and a crowd of 12, with or
    without targets, and on the deltoid a cusp search that fails.
    """
    curve = draw(TICK_CURVES)
    cp = make_params(curve)
    case = draw(st.sampled_from(("sweep-1", "pair", "team", "crowd")))
    close_pair = case == "pair"
    sizes = {"sweep-1": (1,), "crowd": (12,)}.get(case, (1, 2, 3, 4, 5))
    states, z0 = draw(team_snapshot(curve, close_pair=close_pair, sizes=sizes))
    n = states.shape[0]
    has_targets = case != "sweep-1" and draw(st.booleans())
    if has_targets:
        theta = np.array([draw(st.floats(0.0, TWO_PI)) for _ in range(n)])
        pos = curve.point(theta)
        heading = np.array([curve.frenet(float(t)).tangent_angle for t in theta])
        laps = np.array([draw(st.integers(0, 2)) for _ in range(n)])
        z_cap = z0 + cp.lift_gain * (np.mod(theta - z0 / cp.lift_gain, TWO_PI) + TWO_PI * laps)
        targets = np.column_stack((pos, heading))
    else:
        z_cap = np.full(n, np.inf)
        targets = np.zeros((n, 3))
    eps_sing = 1e-2 if curve is DELTOID and draw(st.booleans()) else curve.eps_sing
    t = draw(st.floats(0.0, 60.0))
    # the kernel reads only kind, par and eps_sing of its curve
    tick_curve = SimpleNamespace(kind=curve.kind, par=curve.par, eps_sing=eps_sing)
    args = (states, z0, z_cap, t, tick_curve, targets if has_targets else None, cp)
    oracle_args = (
        states, z0, z_cap, t, curve.kind, curve.par, eps_sing, *targets.T,
        has_targets, cp.lift_gain * cp.v_ref, cp,
    )
    return case, args, oracle_args


@settings(max_examples=200, deadline=None)
@given(case_args=tick_case())
def test_team_controls_match_scalar_oracle(case_args):
    case, args, oracle_args = case_args
    states, z0, z_cap, t, tick_curve, targets, cp = args
    got, md = sk.team_controls(
        states.tolist(), z0.tolist(), *march_row(z0, z_cap, t, cp), tick_curve,
        None if targets is None else targets.tolist(), cp,
    )
    got = tick_controls(got, states, cp)
    assert_close(got, quiet(scalar_team_controls, *oracle_args))
    # the tick's minimum separation
    ref_md = sk.min_pair_distance(states[:, 0], states[:, 1])
    if states.shape[0] == 1:
        assert md == ref_md == np.inf
    else:
        assert_close(md, ref_md)
    if case == "pair":
        assert md < args[-1].d_ao


@pytest.mark.parametrize("gap", [2.9e-113, 1e-160, 1e-170])
def test_team_controls_match_scalar_oracle_for_agents_a_hair_apart(gap):
    # the repulsion overflows to inf or nan in both codes (float division
    # overflows to inf without raising); at 1e-170 the squared gap
    # underflows, so r = 0 and the pair counts as an exact overlap
    cp = make_params(DELTOID)
    states = np.array([[3.0, 0.0, 0.0, 0.0, 0.0, 0.27], [3.0, gap, 0.5, 0.0, 0.0, 0.27]])
    zeros = np.zeros(2)
    caps = np.full(2, np.inf)
    got, md = sk.team_controls(
        states.tolist(), zeros.tolist(), *march_row(zeros, caps, 0.0, cp), DELTOID, None, cp
    )
    got = tick_controls(got, states, cp)
    ref = quiet(
        scalar_team_controls, states, zeros, caps, 0.0, DELTOID.kind, DELTOID.par,
        DELTOID.eps_sing, zeros, zeros, zeros, False, cp.lift_gain * cp.v_ref, cp,
    )
    assert_close(got, ref)
    assert md == sk.min_pair_distance(states[:, 0], states[:, 1])


def with_engaged_pair(states, z0, z_ref, z_ref_rate, targets, cp):
    """The tick's inputs plus two agents a million units off, inside each other's d_ao.

    Their avoidance engages, so the tick blends every agent's controls
    with its avoidance law, alpha = 0 or not; the other agents are far
    outside the pair's sensing radius and it outside theirs, so nothing
    else about them changes.
    """
    far = 1e6
    pair = [(far, far, 0.0, 0.0, 0.0, 0.0), (far + 0.5 * cp.d_ao, far, 0.0, 0.0, 0.0, 0.0)]
    # no laps done and far from their targets: sigma = 0 and full duty
    pair_targets = None if targets is None else targets + [(0.0, 0.0, 0.0)] * 2
    return (
        states + pair, z0 + [0.0, 0.0], z_ref + [0.0, 0.0], z_ref_rate + [0.0, 0.0], pair_targets
    )


def assert_skip_matches_blend(states, z0, z_ref, z_ref_rate, curve, targets, cp):
    """team_controls equals, bit for bit, its run with an engaged pair added."""
    got, _md = sk.team_controls(states, z0, z_ref, z_ref_rate, curve, targets, cp)
    *inputs, pair_targets = with_engaged_pair(states, z0, z_ref, z_ref_rate, targets, cp)
    ref, _md = sk.team_controls(*inputs, curve, pair_targets, cp)
    alpha = sk.TRAJECTORY_COLUMNS.index("alpha")
    assert ref[-2][alpha] > 0.0 and ref[-1][alpha] > 0.0
    assert np.array(got).tobytes() == np.array(ref[:-2]).tobytes()
    return got


@settings(max_examples=150, deadline=None)
@given(case_args=tick_case())
def test_avoidance_skip_matches_always_blend(case_args):
    _case, args, _oracle_args = case_args
    states, z0, z_cap, t, tick_curve, targets, cp = args
    assert_skip_matches_blend(
        states.tolist(), z0.tolist(), *march_row(z0, z_cap, t, cp), tick_curve,
        None if targets is None else targets.tolist(), cp,
    )


def test_avoidance_skip_blends_a_negative_zero_nominal_control():
    # a settled agent (sigma = 1, so duty = alpha = 0) at rest on its
    # target: the pose law's acceleration -kv v - kp 0 is -0.0, and with a
    # negative path-law acceleration 0 * a_tfl is -0.0 too, so the nominal
    # acceleration is -0.0.  The blend (1 - 0) (-0.0) + 0 * a_av with
    # a_av > 0 gives +0.0, so the tick must run it even though alpha = 0.
    curve = DELTOID
    cp = make_params(curve)
    lap = TWO_PI * cp.lift_gain
    for psi in np.linspace(-1.4, 1.4, 15).tolist():
        x, y = curve.point(0.5).tolist()
        state = (x + 0.01, y, psi, 0.0, cp.lift_gain * 0.5, 0.1)
        z0 = state[4] - lap
        a_tfl = scalar_path_following_control(
            curve.kind, curve.par, curve.eps_sing, *state, state[4], 0.2, cp
        )[0]
        if a_tfl < 0.0:
            break
    else:
        pytest.fail("no negative path-law acceleration found")
    targets = [(state[0], state[1], psi)]
    got = assert_skip_matches_blend([state], [z0], [state[4]], [0.2], curve, targets, cp)
    a, _om, _az, sigma, alpha, duty = tick_controls(got, [state], cp)[0].tolist()
    assert (sigma, alpha, duty) == (1.0, 0.0, 0.0)
    a_pose = scalar_pose_control_law(*state[:4], state[5], *targets[0], cp)[0]
    assert np.signbit(0.0 * a_tfl + a_pose)  # the nominal acceleration is -0.0
    assert a == 0.0 and not np.signbit(a)


@st.composite
def march_case(draw):
    """Starts, caps and times for march_profile: every agent's cap lies
    further than the ease width ahead of its start, within it, or at
    infinity (a sweep-only mission); the times reach far into the ease."""
    rate = draw(st.floats(0.01, 2.0))
    width = draw(st.floats(0.05, 5.0))
    z0 = [draw(st.floats(-50.0, 50.0)) for _ in range(draw(st.integers(1, 5)))]
    caps = []
    for z in z0:
        kind = draw(st.sampled_from(("long", "short", "sweep")))
        if kind == "sweep":
            caps.append(np.inf)
        elif kind == "long":
            caps.append(z + width * (1.0 + draw(st.floats(1e-9, 20.0))))
        else:
            caps.append(z + width * draw(st.floats(0.0, 1.0)))
    times = [draw(st.floats(0.0, 400.0)) for _ in range(draw(st.integers(1, 40)))]
    return np.array(z0), np.array(caps), np.array(times), rate, width


@settings(max_examples=200, deadline=None)
@given(case=march_case())
def test_march_profile_matches_scalar_expression(case):
    z0, caps, times, rate, width = case
    z_ref, z_rate = sk.march_profile(z0, caps, times, rate, width)
    assert z_ref.shape == z_rate.shape == (times.shape[0], z0.shape[0])
    for k, t in enumerate(times.tolist()):
        for i in range(z0.shape[0]):
            ref = scalar_march_profile(float(z0[i]), float(caps[i]), t, rate, width)
            got = np.array((z_ref[k, i], z_rate[k, i]))
            assert got.tobytes() == np.array(ref).tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_turn_rate_from_frame_matches_scalar_turn_rate(data):
    curve = data.draw(CURVES)
    s = data.draw(curve_parameter(curve))
    turn = curve_frame(curve.kind, tuple(curve.par.tolist()), s, curve.eps_sing)[5]
    ref = old_turn_rate(curve.kind, curve.par, s, curve.eps_sing)
    assert turn == ref


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_transverse_terms_match_scalar_oracle(data):
    curve = data.draw(CURVES)
    cp = make_params(curve)
    s = data.draw(curve_parameter(curve))
    x, y, psi, v, z, vz = data.draw(agent_state(curve, cp, s))
    z_ref = z + cp.lift_gain * 0.1 * data.draw(unit)
    args = (x, y, psi, v, z, vz, cp.lift_gain, z_ref, cp.lift_gain * cp.v_ref)
    frame = control._geometry(curve, z, cp.lift_gain)
    terms = control.transverse_terms(frame, *args)
    # laid out as the oracle's: the outputs and heading terms, the frame's
    # speed, turn rate and their derivatives, then the parameter rate
    got = np.array(terms[:8] + frame[4:8] + terms[8:])
    ref = np.array(
        quiet(scalar_transverse_terms, curve.kind, curve.par, curve.eps_sing, *args)
    )
    assert_close(got, ref)
    assert np.max(np.abs(got - ref)) <= 1e-11
    # every output but the heading terms (3, 4, 6, 7: math.sin/cos) is
    # numpy's and float arithmetic in the same order, so it is exact; the
    # turn-rate derivative (10) is the closed form at the cusp fallback
    # point, from the order-3 jet
    exact = [0, 1, 2, 5, 8, 9, 10, 11, 12]
    assert np.array_equal(got[exact], ref[exact])
    assert np.all(np.isfinite(got))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    dt=st.floats(1e-4, 0.02),
)
def test_rk4_step_team_matches_scalar_loop(data, dt):
    curve = data.draw(CURVES)
    states, _z0 = data.draw(team_snapshot(curve))
    controls = np.array(
        [[5.0 * data.draw(unit) for _ in range(3)] for _ in range(states.shape[0])]
    )
    # record rows, with a sigma and an alpha that must not enter the step
    rows = [
        (*state, data.draw(unit), data.draw(unit), *u)
        for state, u in zip(states.tolist(), controls.tolist())
    ]
    got = np.array(sk.rk4_step_team(rows, dt))
    assert got.shape == states.shape
    assert_close(got, array_rk4_step_team(states, controls, dt))
    assert_close(got, old_rk4_step_team(states, controls, dt))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_min_pair_distance_matches_scalar_loop(data):
    curve = data.draw(CURVES)
    states, _z0 = data.draw(team_snapshot(curve, close_pair=data.draw(st.booleans())))
    got = sk.min_pair_distance(states[:, 0], states[:, 1])
    ref = old_min_pair_distance(states[:, 0], states[:, 1])
    if states.shape[0] == 1:
        assert got == ref == np.inf
    else:
        assert abs(got - ref) <= np.spacing(ref)
        i, j = sk.closest_pair(states[:, 0], states[:, 1])
        assert 0 <= i < j < states.shape[0]
        assert np.hypot(*(states[i, 0:2] - states[j, 0:2])) == pytest.approx(got, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    close_pair=st.booleans(),
    t=st.floats(0.0, 60.0),
)
def test_sweep_only_controls_match_their_own_blend(data, close_pair, t):
    curve = data.draw(CURVES)
    cp = make_params(curve)
    states, z0 = data.draw(team_snapshot(curve, close_pair=close_pair))
    n = states.shape[0]
    z_cap = np.full(n, np.inf)
    ref_rate = cp.lift_gain * cp.v_ref
    got, _md = sk.team_controls(
        states.tolist(), z0.tolist(), *march_row(z0, z_cap, t, cp), curve, None, cp
    )
    got = tick_controls(got, states, cp)
    ref = quiet(old_sweep_only_controls, states, z0, z_cap, t, curve, ref_rate, cp)
    assert_close(got, ref)
    assert np.all(got[:, 3] == 0.0)
    if close_pair:
        assert np.all(got[:, 4] > 0.0)  # avoidance engaged on both agents


@st.composite
def query_point(draw, curve):
    """A point on the curve, near it, near a cusp, corner or crossing, or anywhere."""
    kind = draw(st.sampled_from(("on", "near", "special", "far")))
    if kind == "special" and curve is LISSAJOUS:
        x, y = draw(st.sampled_from(LISSAJOUS_CROSSINGS))
        return x + 1e-3 * draw(unit), y + 1e-3 * draw(unit)
    if kind == "far":
        return 1.5 * curve.scale * draw(unit), 1.5 * curve.scale * draw(unit)
    s = draw(curve_parameter(curve)) if kind == "special" else draw(st.floats(0.0, TWO_PI))
    x, y = curve.point(s)
    if kind == "on":
        return x, y
    return x + 0.1 * curve.scale * draw(unit), y + 0.1 * curve.scale * draw(unit)


def assert_nearest_matches(curve, px, py, dist, s_at):
    """dist and s_at agree with the scalar oracle at every point."""
    sv, xs, ys = curve.sample_cache()
    tol = 1e-12 * curve.scale
    for k in range(px.shape[0]):
        ref_d, ref_s = old_nearest_on_curve(curve.kind, curve.par, px[k], py[k], sv, xs, ys)
        assert abs(dist[k] - ref_d) <= tol
        assert 0.0 <= s_at[k] < TWO_PI
        gx, gy = curve_point(curve.kind, curve.par, s_at[k])
        assert abs(np.hypot(gx - px[k], gy - py[k]) - ref_d) <= tol


NEAREST_CURVES = st.sampled_from((DELTOID, GEAR, LISSAJOUS))
# either side of a sample chunk; the point blocks of the pruned search
# (hundreds of points) are covered by the deterministic tests below
POINT_COUNTS = (0, 1, sk.SAMPLE_CHUNK - 1, sk.SAMPLE_CHUNK, sk.SAMPLE_CHUNK + 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nearest_on_curve_matches_scalar_oracle(data):
    curve = data.draw(NEAREST_CURVES)
    m = data.draw(st.sampled_from(POINT_COUNTS))
    pts = np.array([data.draw(query_point(curve)) for _ in range(m)]).reshape(m, 2)
    dist, s_at = sk.nearest_on_curve(curve, pts[:, 0], pts[:, 1])
    assert dist.shape == s_at.shape == (m,)
    assert_nearest_matches(curve, pts[:, 0], pts[:, 1], dist, s_at)


@settings(max_examples=3, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_mean_adherence_matches_scalar_per_tick_sum(data, n):
    # one tick past a block, so the last block holds a single tick
    curve = data.draw(NEAREST_CURVES)
    ticks = sk.TICK_BLOCK + 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    s = rng.uniform(0.0, TWO_PI, size=(ticks, n))
    xy = curve.point(s) + 0.1 * curve.scale * rng.uniform(-1.0, 1.0, size=(ticks, n, 2))
    sv, xs, ys = curve.sample_cache()
    got = sk.mean_adherence(curve, xy)
    assert got.shape == (ticks,)
    for k in range(ticks):
        acc = 0.0
        for i in range(n):
            acc += old_nearest_on_curve(curve.kind, curve.par, xy[k, i, 0], xy[k, i, 1], sv, xs, ys)[0]
        assert abs(got[k] - acc / n) <= 1e-12 * curve.scale


# points where a Newton polish without its safeguards leaves the oracle
PROJECTION_TRAPS = {
    # the cusp sample s = 0 has g = 0 at a local maximum of the distance
    "deltoid-cusp": (DELTOID, (2.999988555919117, 7.4505734914964705e-09)),
    # the parameter lands a hair below 0, and s % 2pi rounds to 2pi
    "lissajous-wrap": (LISSAJOUS, (2.0, -7.347880794884119e-16)),
    # on the curve just past a corner: the other side of the corner holds
    # a second local minimum, 4.6e-9 and 4.4e-9 off the curve
    "gear-past-corner-0": (GEAR, tuple(GEAR.point(GEAR_CORNERS[0] + 2.1244543613712e-05))),
    "gear-past-corner-3": (GEAR, tuple(GEAR.point(GEAR_CORNERS[3] + 2.095035e-05))),
    # on a corner, where the distance grows like s^4
    "gear-corner": (GEAR, tuple(GEAR.point(GEAR_CORNERS[4]))),
    **{f"lissajous-crossing-{k}": (LISSAJOUS, xy) for k, xy in enumerate(LISSAJOUS_CROSSINGS)},
}


@pytest.mark.parametrize("curve, point", list(PROJECTION_TRAPS.values()), ids=list(PROJECTION_TRAPS))
def test_nearest_on_curve_traps_match_scalar_oracle(curve, point):
    px = np.array([point[0]])
    py = np.array([point[1]])
    dist, s_at = sk.nearest_on_curve(curve, px, py)
    assert_nearest_matches(curve, px, py, dist, s_at)


def test_nearest_on_curve_skips_non_finite_points(monkeypatch):
    # non-finite points take no Newton round, so the polish ends well
    # inside its cap, and nothing on their way raises a RuntimeWarning
    rounds = []

    def counted(kind, par, s, order):
        if order == 2:
            rounds.append(s.shape[0])
        return curve_jet(kind, par, s, order)

    monkeypatch.setattr(sk, "curve_jet", counted)
    px = np.array([np.nan, 1.0, np.inf, 0.3])
    py = np.array([0.0, np.nan, 0.0, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist, s_at = sk.nearest_on_curve(DELTOID, px, py)
    assert np.isnan(dist[0]) and np.isnan(dist[1]) and dist[2] == np.inf
    assert np.all((0.0 <= s_at) & (s_at < TWO_PI))
    assert_nearest_matches(DELTOID, px[3:], py[3:], dist[3:], s_at[3:])
    assert 0 < len(rounds) < sk.NEWTON_CAP
    assert set(rounds) == {1}


def test_nearest_on_curve_steps_ternary_only_where_the_bracket_turns(monkeypatch):
    # Newton alone polishes a bracket on a regular arc; next to a cusp
    # the ternary search still picks the branch
    steps = []
    real = sk._ternary_step

    def counted(kind, par, px, py, lo, hi):
        steps.append(px.shape[0])
        return real(kind, par, px, py, lo, hi)

    monkeypatch.setattr(sk, "_ternary_step", counted)
    rng = np.random.default_rng(11)
    s_ellipse = rng.uniform(0.0, TWO_PI, 400)
    # at least 0.2 from each deltoid cusp
    s_deltoid = rng.uniform(0.2, TWO_PI / 3.0 - 0.2, 400) + rng.integers(0, 3, 400) * TWO_PI / 3.0
    for curve, s in ((ELLIPSE, s_ellipse), (DELTOID, s_deltoid)):
        off = rng.choice((0.0, 1e-3, 1e-2), size=s.shape[0]) * curve.scale
        pts = curve.point(s) + off[:, None] * rng.uniform(-1.0, 1.0, (s.shape[0], 2))
        dist, s_at = sk.nearest_on_curve(curve, pts[:, 0], pts[:, 1])
        assert steps == []
        assert_nearest_matches(curve, pts[:, 0], pts[:, 1], dist, s_at)
    near_cusp = np.array(DELTOID_CUSPS) + np.array([1e-4, -3e-4, 5e-4])
    pts = np.vstack((DELTOID.point(near_cusp), [PROJECTION_TRAPS["deltoid-cusp"][1]]))
    dist, s_at = sk.nearest_on_curve(DELTOID, pts[:, 0], pts[:, 1])
    assert 0 < len(steps) <= sk.TERNARY_STEPS
    assert_nearest_matches(DELTOID, pts[:, 0], pts[:, 1], dist, s_at)


@pytest.mark.parametrize("name", catalog_names())
def test_nearest_on_curve_batch_equals_one_point_calls(name):
    # each point's projection is its own: a batch of m points gives what m
    # one-point calls give, bit for bit.  The power families are held to
    # the oracle tests' tolerance instead, since a vectorized power may
    # round the elements of a long array differently from a one-element one
    curve = make_curve(name)
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    m = 200
    off = rng.choice((0.0, 1e-3, 0.1, 1.5), size=m) * curve.scale
    pts = curve.point(rng.uniform(0.0, TWO_PI, m)) + off[:, None] * rng.uniform(-1.0, 1.0, (m, 2))
    dist, s_at = sk.nearest_on_curve(curve, pts[:, 0], pts[:, 1])
    one = np.array([sk.nearest_on_curve(curve, pts[k : k + 1, 0], pts[k : k + 1, 1]) for k in range(m)])
    if curve.kind in POW_KINDS:
        tol = 1e-12 * curve.scale
        assert np.all(np.abs(dist - one[:, 0, 0]) <= tol)
        gx, gy = curve_point(curve.kind, curve.par, s_at)
        assert np.all(np.abs(np.hypot(gx - pts[:, 0], gy - pts[:, 1]) - one[:, 0, 0]) <= tol)
    else:
        assert same_bits(dist, one[:, 0, 0]) and same_bits(s_at, one[:, 1, 0])


NEAREST_SAMPLE_COUNTS = POINT_COUNTS + (sk.POINT_BLOCK - 1, sk.POINT_BLOCK, sk.POINT_BLOCK + 1)


@pytest.mark.parametrize("name", catalog_names())
def test_nearest_sample_matches_brute_force(name):
    curve = make_curve(name)
    _sv, xs, ys = curve.sample_cache()
    rng = np.random.default_rng(sum(map(ord, name)))
    for m in NEAREST_SAMPLE_COUNTS:
        # on the curve, near it, a third of the scale off it, far outside
        off = rng.choice((0.0, 0.01, 0.3, 3.0), size=m) * curve.scale
        pts = curve.point(rng.uniform(0.0, TWO_PI, m)) + off[:, None] * rng.uniform(-1.0, 1.0, (m, 2))
        # the origin (the centre of the symmetric curves), and a point so far
        # away that every squared distance rounds to 1e40, a tie won by index 0
        pts[:2] = np.array([(0.0, 0.0), (1e20, 0.0)])[: min(m, 2)]
        got = sk.nearest_sample(pts[:, 0], pts[:, 1], curve.sample_chunks())
        assert got.dtype == np.intp
        assert np.array_equal(got, old_nearest_sample(pts[:, 0], pts[:, 1], xs, ys))
        if m >= 2:
            assert got[1] == 0


def test_nearest_sample_prunes_nothing_when_every_sample_ties():
    # no chunk can be pruned for these points, so their (point, chunk)
    # pairs fill several PAIR_BLOCK passes.  At the circle's centre the
    # squared distances round to four values, so the first minimum is not
    # index 0 (it is 182): the search must match the brute force, not 0.
    circle = make_curve("circle")
    _sv, xs, ys = circle.sample_cache()
    m = sk.POINT_BLOCK + 1
    assert m * (2048 // sk.SAMPLE_CHUNK) > 2 * sk.PAIR_BLOCK
    for x in (0.0, 1e20):
        px = np.full(m, x)
        py = np.zeros(m)
        got = sk.nearest_sample(px, py, circle.sample_chunks())
        ref = old_nearest_sample(px, py, xs, ys)
        assert np.array_equal(got, ref)
        assert np.all(ref == ref[0])
    assert ref[0] == 0


def same_bits(got, ref):
    """Same type and the same float64 bytes (so -0.0 differs from 0.0)."""
    return type(got) is type(ref) and np.asarray(got).tobytes() == np.asarray(ref).tobytes()


# catalog curves whose jet rounds otherwise than the per-family branch it
# replaced: a product (rose), a phase (lissajous) or a polar radius
# (fourier-sum) became a sum of trigonometric rows, and spirograph-4's
# (d q) sin qs became q (d sin qs).  Their jets stay within TRIG_DRIFT of
# the curve's scale; every other curve keeps the old bits.
DRIFTING = (
    "lissajous-32",
    "lissajous-54",
    "lissajous",
    "rose-3",
    "rose-2",
    "rose",
    "fourier-blob",
    "fourier-sum",
    "spirograph-4",
)
TRIG_DRIFT = 1e-12


def within_drift(got, ref, scale):
    """Same type, and |got - ref| <= TRIG_DRIFT * scale."""
    return type(got) is type(ref) and np.all(np.abs(np.asarray(got) - np.asarray(ref)) <= TRIG_DRIFT * scale)


@pytest.mark.parametrize("name", catalog_names())
def test_curve_jet_matches_per_order_kernels(name):
    curve = make_curve(name)
    kind, par = curve.kind, curve.par
    old_kind, old_par = old_layout(curve)
    if name in DRIFTING:
        match = lambda got, ref: within_drift(got, ref, curve.scale)  # noqa: E731
    else:
        match = same_bits
    # deltoid cusps, gear corners, parameters outside [0, 2 pi), then random
    special = np.array(DELTOID_CUSPS + GEAR_CORNERS + (-1.0, 7.0, 13.0))
    s_all = np.concatenate((special, np.random.default_rng(3).uniform(0.0, TWO_PI, 129)))
    cases = [float(s) for s in s_all[:8]] + [s_all[:m] for m in (1, 4, 12, 129)]
    for s in cases:
        ref = (
            old_curve_point(old_kind, old_par, s)
            + old_curve_d1(old_kind, old_par, s)
            + old_curve_d2(old_kind, old_par, s)
        )
        # order 3 appends the third derivative to the same six outputs
        for order in (0, 1, 2, 3):
            got = curve_jet(kind, par, s, order)
            assert len(got) == 2 * order + 2
            assert all(match(g, r) for g, r in zip(got, ref)), (name, order, s)
        entry = curve_point(kind, par, s) + curve_d1(kind, par, s) + curve_d2(kind, par, s)
        assert all(match(g, r) for g, r in zip(entry, ref)), (name, s)
        # whatever the order asked for, the same bits
        full = curve_jet(kind, par, s, 3)
        assert all(same_bits(g, r) for g, r in zip(entry, full)), (name, s)


TRIG_PRESETS = [name for name in catalog_names() if make_curve(name).kind == kernels.KIND_TRIG]


def assert_trig_jet_matches_old_branches(curve, s_all, bit_stable):
    """curve's jets, orders 0..3, against old_trig_jet on the array and float paths.

    The float path runs the first 2000 entries of s_all.  bit_stable asks
    for the same bits, otherwise TRIG_DRIFT of the scale.
    """
    old_kind, old_par = old_layout(curve)
    par = tuple(curve.par.tolist())
    old_tuple = tuple(old_par.tolist())
    bound = 0.0 if bit_stable else TRIG_DRIFT * curve.scale
    for order in (0, 1, 2, 3):
        got = np.array(curve_jet(curve.kind, curve.par, s_all, order))
        ref = np.array(old_trig_jet(old_kind, old_par, s_all, order))
        rows = [curve_jet(curve.kind, par, s, order) for s in s_all[:2000].tolist()]
        got_float = np.array(rows).T
        ref_float = np.array([old_trig_jet(old_kind, old_tuple, s, order) for s in s_all[:2000].tolist()]).T
        if bit_stable:
            assert got.tobytes() == ref.tobytes(), (curve, order)
            assert got_float.tobytes() == ref_float.tobytes(), (curve, order)
        else:
            assert np.max(np.abs(got - ref)) <= bound, (curve, order)
            assert np.max(np.abs(got_float - ref_float)) <= bound, (curve, order)


@pytest.mark.parametrize("name", TRIG_PRESETS)
def test_trig_jet_matches_old_branches(name):
    # the cusps of deltoid and nephroid (signed zeros included), parameters
    # outside [0, 2 pi), then 10k random ones
    special = np.array(DELTOID_CUSPS + (0.0, -0.0, np.pi, -1.0, 7.0, 13.0))
    s_all = np.concatenate((special, np.random.default_rng(17).uniform(0.0, TWO_PI, 10_000)))
    assert_trig_jet_matches_old_branches(make_curve(name), s_all, name not in DRIFTING)


positive = st.floats(0.2, 5.0)
# in-range parameters of the trigonometric families: frequencies and
# windings up to 5 or 6, as in the presets, and fourier radii whose
# harmonics take at most half of c0
TRIG_FAMILY_PARAMS = {
    "ellipse": st.fixed_dictionaries({"a": positive, "b": positive}),
    "deltoid": st.fixed_dictionaries({"a": positive}),
    "nephroid": st.fixed_dictionaries({"a": positive}),
    "rose": st.fixed_dictionaries({"a": positive, "k": st.integers(1, 5)}),
    "lissajous": st.fixed_dictionaries(
        {
            "amp_x": positive,
            "amp_y": positive,
            "freq_x": st.integers(1, 5),
            "freq_y": st.integers(1, 5),
            "phase": st.floats(-np.pi, np.pi),
        }
    ),
    # a dyadic r keeps (R - r) / r an exact integer, as the old branch's
    # unrounded winding needs to stay within TRIG_DRIFT of the rounded one
    "spirograph": st.builds(
        lambda r, q, d: {"R": r * (q + 1), "r": r, "d": d},
        st.sampled_from((0.25, 0.5, 0.75, 1.0, 1.5, -0.25, -0.5, -1.0)),
        st.sampled_from((-6, -5, -4, -3, -2, 1, 2, 3, 4, 5)),
        st.floats(-3.0, 3.0),
    ).filter(lambda p: p["R"] > 0),
    "fourier-sum": st.builds(
        lambda c0, unit: {"c0": c0, "coeffs": tuple(0.5 * c0 * u / len(unit) for u in unit)},
        st.floats(0.5, 3.0),
        st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=10).filter(lambda u: len(u) % 2 == 0),
    ),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), family=st.sampled_from(sorted(TRIG_FAMILY_PARAMS)))
def test_trig_jet_matches_old_branches_on_drawn_parameters(data, family):
    curve = make_curve(family, **data.draw(TRIG_FAMILY_PARAMS[family]))
    s_all = np.concatenate((np.array((0.0, -0.0)), np.random.default_rng(5).uniform(0.0, TWO_PI, 62)))
    assert_trig_jet_matches_old_branches(curve, s_all, bit_stable=False)


# the families whose jet raises an array to a power: numpy's vectorized
# power on arrays, libm pow on floats
POW_KINDS = (kernels.KIND_SUPERELLIPSE, kernels.KIND_CASSINI, kernels.KIND_LEMNISCATE)


def within_ulps(got, ref, ulps, scale=None):
    """|got - ref| within `ulps` ulps of each column's largest |ref| (or of scale)."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if scale is None:
        scale = np.max(np.abs(ref), axis=0)
    return np.all(np.abs(got - ref) <= ulps * np.spacing(scale))


@pytest.mark.parametrize("name", catalog_names())
def test_float_jet_matches_array_jet(name):
    curve = make_curve(name)
    kind, par = curve.kind, tuple(curve.par.tolist())
    special = np.array(DELTOID_CUSPS + GEAR_CORNERS + (-1.0, 7.0, 13.0))
    s_all = np.concatenate((special, np.random.default_rng(5).uniform(0.0, TWO_PI, 400)))
    for order in (0, 1, 2, 3):
        ref = np.array(curve_jet(kind, curve.par, s_all, order)).T
        rows = [curve_jet(kind, par, s, order) for s in s_all.tolist()]
        assert all(type(v) is float for row in rows for v in row)
        got = np.array(rows)
        if kind in POW_KINDS:
            # the third derivative stacks more powers: 16 ulps
            ulps = np.array([4.0] * 6 + [16.0] * 2)[: 2 * order + 2]
            assert within_ulps(got, ref, ulps), (name, order)
        else:
            assert np.array_equal(got, ref), (name, order)


def turn_deriv_tolerance(curve, s, cd, d1max, d2max):
    """How far the closed-form turn derivative at s may sit from the central difference cd.

    The central difference's truncation error, estimated as its change
    from step H_FD to 2 H_FD (Richardson), plus the rounding of both
    codes.  A turn rate (x'y'' - y'x'') / |gamma'|^2 carries about
    eps d1max d2max / |gamma'|^2 of it (d1max, d2max: the curve's largest
    |gamma'| and |gamma''|); the central difference divides that by
    H_FD, and the closed form's term 2 turn gamma'.gamma'' / |gamma'|^2
    multiplies it by up to 2 d2max / |gamma'|.  |gamma'| is the slowest
    speed at s and s +/- 2 H_FD, but at least eps_sing.  Near a cusp the
    rounding terms dominate the bound.
    """
    kind, par, eps_sing = curve.kind, curve.par, curve.eps_sing
    turn_plus, turn_minus = (
        scalar_frame_raw(kind, par, s + step, eps_sing)[7] for step in (2.0 * H_FD, -2.0 * H_FD)
    )
    cd2 = (turn_plus - turn_minus) / (4.0 * H_FD)
    speed = min(np.hypot(*curve_d1(kind, par, x)) for x in (s, s + 2.0 * H_FD, s - 2.0 * H_FD))
    speed = max(speed, eps_sing)
    turn_err = 8.0 * np.finfo(float).eps * d1max * d2max / (speed * speed)
    return 1e-9 * (1.0 + abs(cd)) + abs(cd - cd2) + turn_err * (d2max / speed + 1.0 / H_FD)


# the oracle here is the three-jet geometry, which fell back to the array
# frame near a cusp; the test keeps its name from then.  The tick takes
# one curve_frame tuple per agent, as below
@pytest.mark.parametrize("name", catalog_names())
def test_curve_geometry_matches_array_oracle(name):
    curve = make_curve(name)
    samples = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    d1max = np.max(np.hypot(*curve_d1(curve.kind, curve.par, samples)))
    d2max = np.max(np.hypot(*curve_d2(curve.kind, curve.par, samples)))
    rng = np.random.default_rng(7)
    cases = [(curve, rng.uniform(0.0, TWO_PI, 4)) for _ in range(100)]
    # a cusp or corner at s, or at s + h or s - h only
    for special in (DELTOID_CUSPS, GEAR_CORNERS):
        cases += [(curve, np.array(special) + h) for h in (0.0, -H_FD, H_FD)]
    # an eps_sing above the slowest of four speeds forces the cusp fallback
    s = cases[0][1]
    speeds = np.hypot(*curve_d1(curve.kind, curve.par, s))
    cases.append((SimpleNamespace(kind=curve.kind, par=curve.par, eps_sing=1.5 * float(speeds.min())), s))
    for tick_curve, s in cases:
        par = tuple(tick_curve.par.tolist())
        got = [curve_frame(tick_curve.kind, par, si, tick_curve.eps_sing) for si in s.tolist()]
        assert all(type(v) is float for row in got for v in row[:9])
        got = np.array(got)
        ref = np.array(old_curve_geometry(tick_curve, s))
        # every column but the turn derivative (6)
        direct = [0, 1, 2, 3, 4, 5, 7, 8, 9]
        if curve.kind in POW_KINDS:
            # jet errors of a few ulps
            assert within_ulps(got[:, direct], ref[:, direct], 32), (name, s)
        else:
            assert np.array_equal(got[:, direct], ref[:, direct]), (name, s)
        for k in range(s.shape[0]):
            tol = turn_deriv_tolerance(tick_curve, s[k], ref[k, 6], d1max, d2max)
            assert abs(got[k, 6] - ref[k, 6]) <= tol, (name, s[k])


# -- the formation finder ----------------------------------------------------
#
# The per-start Gauss-Newton loop and the numpy-scalar residual and
# Jacobian kernels that the lockstep finder replaced.  The lockstep
# solve adds one rule the loop did not have: a start whose mean side is
# below MIN_SIDE_FRAC * scale at iteration RETIRE_ITER stops as
# "collapsed".  Every other start must take the same iterates.

SQRT2 = np.sqrt(2.0)


def old_edges(kind, par, theta):
    """Vertex coordinates and cyclic edge vectors e_i = p_i - p_{i-1}."""
    x, y = curve_point(kind, par, theta)
    prev = np.arange(theta.shape[0]) - 1  # index -1 wraps to the last vertex
    return x, y, x - x[prev], y - y[prev]


def old_residual_vector(kind, par, theta, square_mode):
    n = theta.shape[0]
    if square_mode:
        m = 2 * n + 2
    else:
        m = 2 * n
    x, y, ex, ey = old_edges(kind, par, theta)
    r = np.empty(m)
    for i in range(n):
        i1 = (i + 1) % n
        i2 = (i + 2) % n
        r[i] = (ex[i1] ** 2 + ey[i1] ** 2) - (ex[i] ** 2 + ey[i] ** 2)
        r[n + i] = (ex[i1] * ex[i] + ey[i1] * ey[i]) - (
            ex[i2] * ex[i1] + ey[i2] * ey[i1]
        )
    if square_mode:
        lbar = 0.0
        for i in range(n):
            lbar += np.sqrt(ex[i] ** 2 + ey[i] ** 2)
        lbar /= n
        d02 = np.sqrt((x[0] - x[2]) ** 2 + (y[0] - y[2]) ** 2)
        d13 = np.sqrt((x[1] - x[3]) ** 2 + (y[1] - y[3]) ** 2)
        r[2 * n] = d02 - SQRT2 * lbar
        r[2 * n + 1] = d13 - SQRT2 * lbar
    return r


def old_jacobian_matrix(kind, par, theta, square_mode):
    """Sparse-stencil Jacobian of residual_vector, assembled dense.

    Length rows touch columns {i-1, i, i+1}; angle rows touch
    {i-1, i, i+1, i+2}.  Contributions are accumulated so wrapped
    column collisions (n = 3) pick up both chain-rule terms.
    """
    n = theta.shape[0]
    if square_mode:
        m = 2 * n + 2
    else:
        m = 2 * n
    x, y, ex, ey = old_edges(kind, par, theta)
    gx, gy = curve_d1(kind, par, theta)
    J = np.zeros((m, n))
    for i in range(n):
        im = (i - 1) % n
        i1 = (i + 1) % n
        i2 = (i + 2) % n
        J[i, im] += 2.0 * (ex[i] * gx[im] + ey[i] * gy[im])
        J[i, i] += -2.0 * ((ex[i1] + ex[i]) * gx[i] + (ey[i1] + ey[i]) * gy[i])
        J[i, i1] += 2.0 * (ex[i1] * gx[i1] + ey[i1] * gy[i1])
        J[n + i, im] += -(ex[i1] * gx[im] + ey[i1] * gy[im])
        J[n + i, i] += (ex[i1] - ex[i] + ex[i2]) * gx[i] + (
            ey[i1] - ey[i] + ey[i2]
        ) * gy[i]
        J[n + i, i1] += (ex[i] + ex[i1] - ex[i2]) * gx[i1] + (
            ey[i] + ey[i1] - ey[i2]
        ) * gy[i1]
        J[n + i, i2] += -(ex[i1] * gx[i2] + ey[i1] * gy[i2])
    if square_mode:
        # unit edge directions, zero where an edge degenerates
        ux = np.zeros(n)
        uy = np.zeros(n)
        for i in range(n):
            el = np.sqrt(ex[i] ** 2 + ey[i] ** 2)
            if el > 1e-300:
                ux[i] = ex[i] / el
                uy[i] = ey[i] / el
        d02 = np.sqrt((x[0] - x[2]) ** 2 + (y[0] - y[2]) ** 2)
        d13 = np.sqrt((x[1] - x[3]) ** 2 + (y[1] - y[3]) ** 2)
        for j in range(n):
            j1 = (j + 1) % n
            dl = ((ux[j] - ux[j1]) * gx[j] + (uy[j] - uy[j1]) * gy[j]) / n
            J[2 * n, j] = -SQRT2 * dl
            J[2 * n + 1, j] = -SQRT2 * dl
        if d02 > 1e-300:
            J[2 * n, 0] += ((x[0] - x[2]) * gx[0] + (y[0] - y[2]) * gy[0]) / d02
            J[2 * n, 2] += -((x[0] - x[2]) * gx[2] + (y[0] - y[2]) * gy[2]) / d02
        if d13 > 1e-300:
            J[2 * n + 1, 1] += ((x[1] - x[3]) * gx[1] + (y[1] - y[3]) * gy[1]) / d13
            J[2 * n + 1, 3] += -((x[1] - x[3]) * gx[3] + (y[1] - y[3]) * gy[3]) / d13
    return J


def old_cost_value(r, w):
    return 0.5 * np.sum(w * r * r)


def old_gn_solve(
    kind,
    par,
    theta0,
    square_mode,
    w_len,
    w_ang,
    w_diag,
    k_max,
    tol_step,
    tol_cost_rel,
    armijo_c1,
    backtrack,
    lm_lambda0,
    cost_trace,
):
    """The per-start damped Gauss-Newton loop the lockstep solve replaced.

    Normal equations are regularized with an adaptive Levenberg term
    (x10 on a rejected step or an exactly singular system, /10 on an
    accepted one) so degenerate starts, where the plain system is
    singular, still produce descent directions.  cost_trace must hold k_max + 1 entries; the filled
    prefix length is returned.

    Returns (theta, cost, iterations, status, trace_len).
    """
    n = theta0.shape[0]
    theta = theta0.copy()
    w = np.repeat([w_len, w_ang, w_diag], (n, n, 2 if square_mode else 0))
    r = old_residual_vector(kind, par, theta, square_mode)
    cost = old_cost_value(r, w)
    cost_trace[0] = cost
    trace_len = 1
    lam = lm_lambda0
    if lam < fk._LM_MIN:
        lam = fk._LM_MIN
    status = fk.STATUS_MAXITER
    iters = 0
    eye = np.eye(n)
    for k in range(k_max):
        J = old_jacobian_matrix(kind, par, theta, square_mode)
        # a C-ordered copy: BLAS rounds the product with a transposed view
        # differently, and the finder's outputs are reproducible to the bit
        JT = np.ascontiguousarray(J.T)
        grad = JT @ (w * r)
        M = JT @ (w.reshape((-1, 1)) * J)
        accepted = False
        step_norm = 0.0
        cost_new = cost
        while lam <= fk._LM_MAX:
            A = M + lam * eye
            try:
                dtheta = np.linalg.solve(A, -grad)
            except np.linalg.LinAlgError:
                # an exactly singular system is a rejected solve
                lam *= 10.0
                continue
            slope = np.sum(grad * dtheta)
            if not np.all(np.isfinite(dtheta)) or slope > 0.0:
                lam *= 10.0
                continue
            eta = 1.0
            for _bt in range(60):
                theta_try = theta + eta * dtheta
                r_try = old_residual_vector(kind, par, theta_try, square_mode)
                c_try = old_cost_value(r_try, w)
                if np.isfinite(c_try) and c_try <= cost + armijo_c1 * eta * slope:
                    theta = theta_try
                    r = r_try
                    cost_new = c_try
                    step_norm = eta * np.sqrt(np.sum(dtheta * dtheta))
                    accepted = True
                    break
                eta *= backtrack
            if accepted:
                break
            lam *= 10.0
        if not accepted:
            status = fk.STATUS_STALLED
            break
        iters = k + 1
        denom = cost
        if denom < 1e-300:
            denom = 1e-300
        rel_drop = (cost - cost_new) / denom
        cost = cost_new
        cost_trace[trace_len] = cost
        trace_len += 1
        lam *= 0.1
        if lam < fk._LM_MIN:
            lam = fk._LM_MIN
        if step_norm < tol_step:
            status = fk.STATUS_STEP
            break
        if rel_drop < tol_cost_rel:
            status = fk.STATUS_COST
            break
    return theta, cost, iters, status, trace_len


def old_polygon_stats(curve, theta):
    pts = curve.point(theta)
    center = pts.mean(axis=0)
    edges = pts - np.roll(pts, 1, axis=0)
    sides = np.hypot(edges[:, 0], edges[:, 1])
    return pts, center, float(sides.mean()), edges


def old_is_convex(edges):
    nxt = np.roll(edges, -1, axis=0)
    cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    return bool(np.all(cross > 0.0) or np.all(cross < 0.0))


def old_is_geometric_feasible(theta, pts, mean_side, scale):
    if mean_side < fk.MIN_SIDE_FRAC * scale:
        return False
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    iu = np.triu_indices(len(theta), k=1)
    if dist[iu].min() < finder.MIN_VERTEX_SEP_FRAC * scale:
        return False
    wrapped = np.sort(np.mod(theta, TWO_PI))
    gaps = np.diff(wrapped, append=wrapped[0] + TWO_PI)
    return bool(gaps.min() >= finder.MIN_THETA_SEP)


def old_select(solutions, curve, config):
    tie = finder.TIE_TOL_FRAC * curve.scale
    candidates = [s for s in solutions if s.converged and s.feasible]
    if candidates:
        convex_ones = [s for s in candidates if s.convex]
        if convex_ones:
            # demote star/crossed polygons when a convex formation exists
            for s in candidates:
                if not s.convex:
                    s.feasible = False
            candidates = convex_ones
        if config.c_target is not None:
            target = np.asarray(config.c_target, dtype=float)
            dists = [float(np.linalg.norm(s.center - target)) for s in candidates]
            dmin = min(dists)
            near = [s for s, d in zip(candidates, dists) if d <= dmin + tie]
        else:
            near = candidates
        lmax = max(s.mean_side for s in near)
        best = [s for s in near if s.mean_side >= lmax - tie]
        return min(best, key=finder._rank_key)
    # Nothing both converged and feasible.  Hand back the cheapest
    # geometrically sound run (the best-fit polygon) so callers are not
    # given a collapsed all-coincident solution, which always reaches
    # zero residual but is useless.
    pool = [s for s in solutions if s.feasible]
    if not pool:
        pool = solutions
    return min(pool, key=finder._rank_key)


def old_solution(curve, theta_w, cost, **run):
    """A FormationSolution whose polygon and flags come from the per-start helpers."""
    pts, center, mean_side, edges = old_polygon_stats(curve, theta_w)
    return finder.FormationSolution(
        theta=theta_w, vertices=pts, center=center, mean_side=mean_side, cost=cost,
        feasible=old_is_geometric_feasible(theta_w, pts, mean_side, curve.scale),
        converged=cost <= 1e-9, convex=old_is_convex(edges), **run,
    )


def oracle_multistart(curve, config):
    """multistart's selection over per-start runs of old_gn_solve.

    The loop runs with unit weights and the solver constants written out,
    and a run is converged at a cost of at most 1e-9.
    """
    w = np.ones(2 * config.n + (2 if config.square_mode else 0))
    starts = [finder.init_curvature_weighted(curve, config.n)]
    rng = np.random.default_rng(config.seed)
    for _ in range(1, config.n_init):
        starts.append(finder.init_random(curve, config.n, rng, 1)[0])
    runs = []
    for idx, theta0 in enumerate(starts):
        trace = np.empty(config.k_max + 1)
        theta, _, iters, status, trace_len = old_gn_solve(
            curve.kind, curve.par, theta0, config.square_mode, 1.0, 1.0, 1.0, config.k_max,
            1e-10, 1e-12, 1e-4, 0.5, 1e-8, trace,
        )
        theta_w = np.mod(theta, TWO_PI)
        r = old_residual_vector(curve.kind, curve.par, theta_w, config.square_mode)
        cost = float(old_cost_value(r, w))
        runs.append(
            old_solution(
                curve, theta_w, cost, residual_norm=float(np.linalg.norm(r)), iterations=iters,
                status=finder.STATUS_LABELS[status],
                init_kind="curvature-weighted" if idx == 0 else "random",
                init_index=idx, cost_trace=trace[:trace_len].copy(),
            )
        )
    return old_select(runs, curve, config), runs


def assert_finder_matches_oracle(curve, config):
    """Same winner, flags and theta (1e-10); collapsed starts were no loss."""
    best, runs = finder.multistart(curve, config, return_all=True)
    ref_best, ref_runs = oracle_multistart(curve, config)
    assert best.init_index == ref_best.init_index
    assert (best.feasible, best.converged, best.convex) == (
        ref_best.feasible, ref_best.converged, ref_best.convex
    )
    assert np.max(np.abs(best.theta - ref_best.theta)) <= 1e-10
    for run, ref in zip(runs, ref_runs):
        if run.status == "collapsed":
            assert run.iterations == fk.RETIRE_ITER
            assert not (ref.converged and ref.feasible), run.init_index
        else:
            assert (run.status, run.iterations) == (ref.status, ref.iterations), run.init_index
            assert np.max(np.abs(run.theta - ref.theta)) <= 1e-10, run.init_index


@pytest.mark.parametrize(
    "name, kw",
    [
        ("deltoid", dict(n=3)),
        ("deltoid", dict(n=5)),
        ("circle", dict(n=3)),
        ("fourier-blob", dict(n=4, square_mode=True, seed=9)),
        ("nephroid", dict(n=3)),
        # a power-family kernel, and a curve with corners
        ("superellipse", dict(n=4, square_mode=True, seed=9)),
        ("gear-hermite", dict(n=4)),
        # numpy sums 8 values or more pairwise, as in each mean side
        ("circle", dict(n=8)),
    ],
)
def test_lockstep_finder_matches_per_start_oracle(name, kw):
    assert_finder_matches_oracle(make_curve(name), finder.FinderConfig(n_init=8, **kw))


def verdict_stack(rng, n):
    """Up to 32 starts: random sorted rows, a regular-in-parameter row and
    rows that each fail a feasibility test or cross themselves."""
    base = TWO_PI * np.arange(n) / n
    collapsed = rng.uniform(0.0, 6.0) + 0.02 * np.arange(n) / n
    coincident = base.copy()
    coincident[1] = base[0] + 2e-3
    close = base.copy()
    close[1] = base[0] + 5e-4
    wrapped = base.copy()
    wrapped[0], wrapped[-1] = 1e-4, TWO_PI - 2e-4
    crossed = base.copy()
    crossed[[0, 1]] = crossed[[1, 0]]
    special = np.vstack((base, crossed, collapsed, coincident, close, wrapped))
    drawn = np.sort(rng.uniform(0.0, TWO_PI, (int(rng.integers(1, 27)), n)), axis=1)
    return np.vstack((special, drawn))


@pytest.mark.parametrize("branch", ["demote", "keep"])
@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
@pytest.mark.parametrize(
    "name", ["circle", "deltoid", "superellipse", "cassini-pinched", "lemniscate", "gear-hermite"]
)
def test_stacked_verdicts_match_per_start_oracle(name, n, branch):
    curve = make_curve(name)
    rng = np.random.default_rng([n, len(name), branch == "demote"])
    stack = verdict_stack(rng, n)
    convex_before = [old_is_convex(old_polygon_stats(curve, row)[3]) for row in stack]
    costs = rng.choice([0.0, 1e-9, 2e-9], len(stack))
    if branch == "demote":
        costs[:2] = 0.0
    else:
        costs[np.array(convex_before)] = 1.0
    runs = [
        old_solution(
            curve, row, float(c), residual_norm=0.0, iterations=0, status="step-converged",
            init_kind="random", init_index=i, cost_trace=np.zeros(1),
        )
        for i, (row, c) in enumerate(zip(stack, costs))
    ]
    # the collapsed, coincident, close and wrapped rows each fail a test
    assert not any(run.feasible for run in runs[2:6])
    feasible_before = [run.feasible for run in runs]
    old_select(runs, curve, finder.FinderConfig(n=n))
    pts, center, mean_side, feasible, converged, convex = finder._verdicts(curve, stack, costs)
    for i, ref in enumerate(runs):
        assert np.array_equal(pts[i], ref.vertices), i
        assert np.array_equal(center[i], ref.center), i
        assert float(mean_side[i]) == ref.mean_side, i
        assert (feasible[i], converged[i], convex[i]) == (ref.feasible, ref.converged, ref.convex), i
    demoted = np.array(feasible_before) & ~feasible
    if branch == "keep":
        assert not demoted.any()
    elif name == "circle" and n >= 4:
        # the regular polygon is convex and the crossed one is not
        assert demoted[1]


@pytest.mark.parametrize("case", ["nan-vertex", "fast"])
def test_stacked_verdicts_match_per_start_oracle_on_stub_curves(case):
    # stub curves reach what the catalog cannot: a NaN vertex, whose NaN side
    # and separation fail neither test, and a curve fast enough that two
    # parameters under MIN_THETA_SEP apart give well separated vertices
    circle = make_curve("circle")
    if case == "nan-vertex":
        def point(theta):
            pts = circle.point(theta)
            pts[theta == 0.0] = np.nan
            return pts

        stack = TWO_PI * np.arange(4) / 4 + np.array([[0.0], [0.1]])
    else:
        def point(theta):
            return circle.point(100.0 * theta)

        # a 5e-4 gap; and a parameter of 2 pi, which wraps to 0 next to one
        # a hair under 1e-3, while 2 pi + 1e-3 - ulp less 2 pi is over it
        stack = np.array([[0.5, 0.5005, 2.0, 4.0], [TWO_PI, np.nextafter(1e-3, 0.0), 2.0, 4.0]])
    curve = SimpleNamespace(point=point, scale=circle.scale)
    costs = np.array([1.0, 0.0])
    runs = [
        old_solution(
            curve, row, float(c), residual_norm=0.0, iterations=0, status="step-converged",
            init_kind="random", init_index=i, cost_trace=np.zeros(1),
        )
        for i, (row, c) in enumerate(zip(stack, costs))
    ]
    old_select(runs, curve, finder.FinderConfig(n=4))
    pts, center, mean_side, feasible, converged, convex = finder._verdicts(curve, stack, costs)
    for i, ref in enumerate(runs):
        assert np.array_equal(pts[i], ref.vertices, equal_nan=True), i
        assert np.array_equal(center[i], ref.center, equal_nan=True), i
        assert np.array_equal(mean_side[i], ref.mean_side, equal_nan=True), i
        assert (feasible[i], converged[i], convex[i]) == (ref.feasible, ref.converged, ref.convex), i
    assert feasible.tolist() == ([True, True] if case == "nan-vertex" else [False, False])
