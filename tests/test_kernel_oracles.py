"""Array kernels against the scalar code they replaced.

The scalar functions below are copies of earlier per-index kernels, kept
as reference implementations.  Random snapshots (hypothesis) cover the
deltoid cusps, the gear corners, a lone agent and two agents close
enough for the avoidance law to engage.

The batched nearest-point query is not bit-identical to its scalar
copy.  The scalar code squares numpy float64 scalars with `**2`, which
goes through libm `pow` and differs from `x*x` in about 0.1% of cases;
the array code squares with `x*x`, which is correctly rounded.  A flipped
comparison moves the ternary bracket, so distances agree to an ulp or
two of the scale and the parameters agree only through the distance at
the point they name: the minimum is flat, and the parameter itself can
move by 1e-8 far from the curve.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curveswarm import _control_kernels as kk
from curveswarm import _sim_kernels as sk
from curveswarm._curve_kernels import curve_d1, curve_d2, curve_point, frame_raw
from curveswarm.control import make_params
from curveswarm.curves import make_curve

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


# -- scalar reference implementations ---------------------------------------


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


def old_frame_raw(kind, par, s, eps_sing):
    """Frenet data with the cusp fallback; turn rate over hypot(x', y')**2."""
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
    return tx, ty, -ty, tx, np.arctan2(ty, tx), m, kappa, cross / (mf * mf), True


def old_transverse_terms(kind, par, eps_sing, x, y, psi, v, z, vz, lift_gain, z_ref, z_ref_rate):
    s = z / lift_gain
    tx, ty, nx, ny, psi_t, speed, _kappa, turn, _ok = old_frame_raw(
        kind, par, s, eps_sing
    )
    gx, gy = curve_point(kind, par, s)
    dx = x - gx
    dy = y - gy
    e_n = nx * dx + ny * dy
    e_t = tx * dx + ty * dy
    dpsi = kk.wrap_angle(psi - psi_t)
    sin_dpsi = np.sin(dpsi)
    cos_dpsi = np.cos(dpsi)
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
    turn_plus = old_turn_rate(kind, par, s + kk._W_FD_STEP, eps_sing)
    turn_minus = old_turn_rate(kind, par, s - kk._W_FD_STEP, eps_sing)
    turn_deriv = (turn_plus - turn_minus) / (2.0 * kk._W_FD_STEP)
    return (
        e_n, e_t, h3, e_n_dot, e_t_dot, h3_dot, sin_dpsi, cos_dpsi,
        speed, turn, turn_deriv, speed_deriv, s_rate,
    )


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
        z_ref, rate_i = sk.march_profile(z0[i], z_cap[i], t, ref_rate, width)
        if z_ref > z[i] + lead:
            z_ref = z[i] + lead
            rate_i = 0.0
        a, om, az = kk.path_following_control(
            curve.kind, curve.par, curve.eps_sing, px[i], py[i], psi[i], v[i],
            z[i], vz[i], z_ref, rate_i, cp,
        )
        sg = 0.0
        du = kk.beta_smooth(cp.sigma_accept / cp.delta_sigma)
        fx_raw, fy_raw, prox, _ms = kk.repulsion_sum(i, px, py, psi, cp.d_ao, cp)
        al = du * prox
        if al > 0.0:
            aa, oma, aza = kk.avoidance_control_law(
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


@st.composite
def curve_parameter(draw, curve):
    """A parameter anywhere, or within 2e-3 of a cusp or gear corner."""
    specials = {"deltoid": DELTOID_CUSPS, "gear-hermite": GEAR_CORNERS}.get(
        curve.family, ()
    )
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
def team_snapshot(draw, curve, close_pair=False):
    """(states, z0) for 1-5 agents; close_pair puts two agents inside d_ao."""
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
        n = draw(st.integers(1, 5))
        rows = [draw(agent_state(curve, cp, draw(curve_parameter(curve)))) for _ in range(n)]
    states = np.array(rows)
    z0 = states[:, 4] - cp.lift_gain * draw(st.floats(0.0, 2.0 * TWO_PI))
    return states, z0


CURVES = st.sampled_from((DELTOID, GEAR, ELLIPSE))


# -- oracle comparisons ------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_turn_rate_from_frame_matches_scalar_turn_rate(data):
    curve = data.draw(CURVES)
    s = data.draw(curve_parameter(curve))
    turn = frame_raw(curve.kind, curve.par, s, curve.eps_sing)[7]
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
    args = (
        curve.kind, curve.par, curve.eps_sing, x, y, psi, v, z, vz,
        cp.lift_gain, z_ref, cp.lift_gain * cp.v_ref,
    )
    got = np.array(kk.transverse_terms(*args))
    ref = np.array(old_transverse_terms(*args))
    assert np.max(np.abs(got - ref)) <= 1e-11
    # the turn-rate derivative uses the same formula at s +/- h as before
    assert got[10] == ref[10]
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
    got = sk.rk4_step_team(states, controls, dt)
    assert np.array_equal(got, old_rk4_step_team(states, controls, dt))


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
    zeros = np.zeros(n)
    got = sk.team_controls(
        states, z0, z_cap, t, curve.kind, curve.par, curve.eps_sing,
        zeros, zeros, zeros, False, ref_rate, cp,
    )
    ref = old_sweep_only_controls(states, z0, z_cap, t, curve, ref_rate, cp)
    assert np.array_equal(got, ref)
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
    sv, xs, ys = curve.sample_cache(2048)
    tol = 1e-12 * curve.scale
    for k in range(px.shape[0]):
        ref_d, ref_s = old_nearest_on_curve(curve.kind, curve.par, px[k], py[k], sv, xs, ys)
        assert abs(dist[k] - ref_d) <= tol
        assert 0.0 <= s_at[k] < TWO_PI
        gx, gy = curve_point(curve.kind, curve.par, s_at[k])
        assert abs(np.hypot(gx - px[k], gy - py[k]) - ref_d) <= tol


NEAREST_CURVES = st.sampled_from((DELTOID, GEAR, LISSAJOUS))
POINT_COUNTS = (0, 1, sk.POINT_BLOCK - 1, sk.POINT_BLOCK, sk.POINT_BLOCK + 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nearest_on_curve_matches_scalar_oracle(data):
    curve = data.draw(NEAREST_CURVES)
    m = data.draw(st.sampled_from(POINT_COUNTS))
    pts = np.array([data.draw(query_point(curve)) for _ in range(m)]).reshape(m, 2)
    sv, xs, ys = curve.sample_cache(2048)
    dist, s_at = sk.nearest_on_curve(curve.kind, curve.par, pts[:, 0], pts[:, 1], sv, xs, ys)
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
    sv, xs, ys = curve.sample_cache(2048)
    got = sk.mean_adherence(curve.kind, curve.par, xy, sv, xs, ys)
    assert got.shape == (ticks,)
    for k in range(ticks):
        acc = 0.0
        for i in range(n):
            acc += old_nearest_on_curve(curve.kind, curve.par, xy[k, i, 0], xy[k, i, 1], sv, xs, ys)[0]
        assert abs(got[k] - acc / n) <= 1e-12 * curve.scale
