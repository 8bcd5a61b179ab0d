"""Per-agent feedback kernels: path following, pose regulation, blending,
and collision avoidance.

State convention everywhere: an agent is (x, y, psi, v, z, vz) where
(x, y) is planar position, psi heading, v forward speed, and (z, vz) a
lifted coordinate pair addressing the curve through s = z / lift_gain.
Controls are (a, omega, a_z): longitudinal accel, turn rate, lifted
accel.

The curve frame convention matches the curve kernels: the normal is the
tangent rotated by +pi/2 and the turn rate w(s) = d(tangent angle)/ds
is signed, which is what makes the decoupling determinant exactly -v.

Only curve_geometry touches the curve: one array call per team snapshot
returns each agent's geometry as a tuple of Python floats, and the laws
below run per agent on those floats.  At n = 4 a float operation costs a
few tens of nanoseconds against about a microsecond for any numpy call,
so the laws use math.sin, math.cos and math.sqrt, which matched numpy on
200k of 200k random arguments on an x86-64 (AVX-512) host; arctan2 and
exp stay numpy's, whose math counterparts differed there in thousands.
"""

import math

import numpy as np

from ._curve_kernels import curve_point, frame_raw

TWO_PI = 2.0 * np.pi
_W_FD_STEP = 1e-5


def curve_geometry(kind, par, s, eps_sing):
    """What the path law needs of the curve at every entry of the array s.

    One frame_raw call on the stacked parameters (s, s + h, s - h) gives
    the frame and speed at s and the turn rate on both sides for its
    central difference; one curve_point call gives the point.  Returns
    one tuple per entry, (gx, gy, tx, ty, psi_t, speed, turn, turn_deriv,
    speed_deriv), all Python floats.
    """
    m = s.shape[0]
    tx, ty, _nx, _ny, psi_t, speed, speed_rate, _kappa, turn, _ok = frame_raw(
        kind, par, np.concatenate((s, s + _W_FD_STEP, s - _W_FD_STEP)), eps_sing
    )
    gx, gy = curve_point(kind, par, s)
    turn_deriv = (turn[m : 2 * m] - turn[2 * m :]) / (2.0 * _W_FD_STEP)
    return list(
        zip(
            gx.tolist(),
            gy.tolist(),
            tx[:m].tolist(),
            ty[:m].tolist(),
            psi_t[:m].tolist(),
            speed[:m].tolist(),
            turn[:m].tolist(),
            turn_deriv.tolist(),
            speed_rate[:m].tolist(),
        )
    )


def wrap_angle(x):
    """Wrap an angle to (-pi, pi]."""
    w = (x + math.pi) % TWO_PI - math.pi
    if w == -math.pi:
        w = math.pi
    return w


def beta_smooth(xi):
    """Smoothstep 3 xi^2 - 2 xi^3 with clamping, C1 at both ends."""
    if xi <= 0.0:
        return 0.0
    if xi >= 1.0:
        return 1.0
    return xi * xi * (3.0 - 2.0 * xi)


def blend_weight(revs, dist, revs_star, d_sw, blend_mode):
    """Authority handover weight in [0, 1].

    Product form gates on completed revolutions AND proximity to the
    assigned vertex.  The anti-deadlock form (blend_mode >= 0.5) slides
    toward min(revolution gate, proximity gate) as the two gates
    diverge, so an agent pushed off its vertex after finishing its laps
    still hands authority to the pose regulator.
    """
    br = beta_smooth(revs / revs_star)
    near = 1.0 - beta_smooth(dist / d_sw)
    prod = br * near
    if blend_mode < 0.5:
        return prod
    w = beta_smooth(abs(br - near))
    lo = br if br < near else near
    return (1.0 - w) * prod + w * lo


def transverse_terms(geo, x, y, psi, v, z, vz, lift_gain, z_ref, z_ref_rate):
    """Outputs, their rates, and the geometry needed by the path law.

    geo is one entry of curve_geometry at s = z / lift_gain.  Returns
    (e_n, e_t, h3, e_n_dot, e_t_dot, h3_dot, sin_dpsi, cos_dpsi, speed,
    turn, turn_rate_deriv, speed_deriv, s_rate).
    """
    gx, gy, tx, ty, psi_t, speed, turn, turn_deriv, speed_deriv = geo
    dx = x - gx
    dy = y - gy
    e_n = -ty * dx + tx * dy  # normal (-ty, tx)
    e_t = tx * dx + ty * dy
    dpsi = wrap_angle(psi - psi_t)
    sin_dpsi = math.sin(dpsi)
    cos_dpsi = math.cos(dpsi)
    s_rate = vz / lift_gain
    e_n_dot = -turn * s_rate * e_t + v * sin_dpsi
    e_t_dot = turn * s_rate * e_n + v * cos_dpsi - speed * s_rate
    h3 = z - z_ref
    h3_dot = vz - z_ref_rate
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


def decoupling_entries(sin_dpsi, cos_dpsi, v, e_n, e_t, speed, turn, lift_gain):
    """Rows of the input-to-output-acceleration matrix (unregularized)."""
    b1 = -turn * e_t / lift_gain
    b2 = (turn * e_n - speed) / lift_gain
    return (
        sin_dpsi,
        v * cos_dpsi,
        b1,
        cos_dpsi,
        -v * sin_dpsi,
        b2,
        0.0,
        0.0,
        1.0,
    )


def drift_acceleration(e_n, e_t, v, sin_dpsi, cos_dpsi, speed, turn, turn_deriv, speed_deriv, s_rate):
    """Output accelerations with zero input (the feedforward term)."""
    lf1 = -turn_deriv * s_rate * s_rate * e_t - turn * s_rate * (
        turn * s_rate * e_n + 2.0 * v * cos_dpsi - speed * s_rate
    )
    lf2 = (
        turn_deriv * s_rate * s_rate * e_n
        + turn * s_rate * (-turn * s_rate * e_t + 2.0 * v * sin_dpsi)
        - speed_deriv * s_rate * s_rate
    )
    return lf1, lf2, 0.0


def path_following_control(geo, x, y, psi, v, z, vz, z_ref, z_ref_rate, cp):
    """Feedback-linearizing PD law tracking the lifted curve.

    geo is the agent's entry of curve_geometry.  Solves the 3x3
    decoupling system in closed form; the forward speed is floored at
    v_min inside the matrix (only there) so the law stays defined
    through v = 0.
    """
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
    ) = transverse_terms(geo, x, y, psi, v, z, vz, cp.lift_gain, z_ref, z_ref_rate)
    lf1, lf2, _ = drift_acceleration(
        e_n, e_t, v, sin_dpsi, cos_dpsi, speed, turn, turn_deriv, speed_deriv, s_rate
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


def pose_control_law(x, y, psi, v, vz, target_x, target_y, target_psi, cp):
    """Damped regulator parking the agent at its assigned vertex pose."""
    hx = math.cos(psi)
    hy = math.sin(psi)
    a = -cp.kv_pose * v - cp.kp_pose * ((x - target_x) * hx + (y - target_y) * hy)
    omega = -cp.kpsi_pose * wrap_angle(psi - target_psi)
    a_z = -cp.kz_pose * vz
    return a, omega, a_z


def repulsion_sum(idx, px, py, psi, d_act, cp):
    """Raw repulsive field on agent idx plus the worst proximity gate.

    px, py, psi are sequences over the team.  Returns (fx, fy, proximity,
    min_sep): field before the duty factor, max over neighbors of the
    closeness smoothstep, and the smallest separation seen (inf when
    alone).
    """
    fx = 0.0
    fy = 0.0
    prox = 0.0
    min_sep = math.inf
    ramp_lo = 0.5 * math.pi - 0.5 * cp.codir_ramp
    for j in range(len(px)):
        if j == idx:
            continue
        dx = px[idx] - px[j]
        dy = py[idx] - py[j]
        r = math.sqrt(dx * dx + dy * dy)
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
        heading_gap = wrap_angle(psi[idx] - psi[j])
        if heading_gap < 0.0:
            heading_gap = -heading_gap
        mod = cp.codir_factor + (1.0 - cp.codir_factor) * beta_smooth(
            (heading_gap - ramp_lo) / cp.codir_ramp
        )
        fx += strength * dx * mod
        fy += strength * dy * mod
        p = beta_smooth((d_act - r) / (d_act - cp.d_safe))
        if p > prox:
            prox = p
    return fx, fy, prox, min_sep


def avoidance_control_law(psi_i, v, vz, fx, fy, cp):
    """Steer along the repulsive field, modulating speed by alignment."""
    psi_des = float(np.arctan2(fy, fx))
    err = wrap_angle(psi_des - psi_i)
    v_des = cp.v_max * math.cos(err)
    a = cp.kv_avoid * (v_des - v)
    omega = cp.komega_avoid * err
    a_z = -cp.kz_avoid * vz
    return a, omega, a_z


def agent_control(
    idx,
    px,
    py,
    psi,
    v,
    z,
    vz,
    revs_i,
    geo,
    target_x,
    target_y,
    target_psi,
    z_ref,
    z_ref_rate,
    cp,
):
    """Full blended control for one agent given the team snapshot.

    The team columns px ... vz are sequences of floats and geo is the
    agent's entry of curve_geometry.  Returns (a, omega, a_z, sigma,
    alpha, duty, min_sep).  Path following and pose regulation
    mix through sigma; the avoidance law overrides through alpha, which
    is gated by the duty factor so settled agents (sigma >= sigma_accept)
    ignore traffic.  min_sep is repulsion_sum's.
    """
    dx = px[idx] - target_x
    dy = py[idx] - target_y
    dist = math.sqrt(dx * dx + dy * dy)
    sigma = blend_weight(revs_i, dist, cp.revs_star, cp.d_sw, cp.blend_mode)
    a_tfl, om_tfl, az_tfl = path_following_control(
        geo, px[idx], py[idx], psi[idx], v[idx], z[idx], vz[idx], z_ref, z_ref_rate, cp
    )
    a_pose, om_pose, az_pose = pose_control_law(
        px[idx], py[idx], psi[idx], v[idx], vz[idx], target_x, target_y, target_psi, cp
    )
    a_nom = (1.0 - sigma) * a_tfl + sigma * a_pose
    om_nom = (1.0 - sigma) * om_tfl + sigma * om_pose
    az_nom = (1.0 - sigma) * az_tfl + sigma * az_pose
    duty = beta_smooth((cp.sigma_accept - sigma) / cp.delta_sigma)
    d_act = cp.d_ao
    if sigma > cp.shrink_sigma:
        d_act = cp.shrink_factor * cp.d_safe
    fx_raw, fy_raw, prox, min_sep = repulsion_sum(idx, px, py, psi, d_act, cp)
    fx = duty * fx_raw
    fy = duty * fy_raw
    alpha = duty * prox
    a_av, om_av, az_av = avoidance_control_law(psi[idx], v[idx], vz[idx], fx, fy, cp)
    a = (1.0 - alpha) * a_nom + alpha * a_av
    omega = (1.0 - alpha) * om_nom + alpha * om_av
    a_z = (1.0 - alpha) * az_nom + alpha * az_av
    return a, omega, a_z, sigma, alpha, duty, min_sep
