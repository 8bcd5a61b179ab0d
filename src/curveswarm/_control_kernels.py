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
"""

import numpy as np

from ._curve_kernels import curve_d1, curve_d2, curve_point, frame_raw

TWO_PI = 2.0 * np.pi
_W_FD_STEP = 1e-5


def wrap_angle(x):
    """Wrap an angle to (-pi, pi]."""
    w = (x + np.pi) % TWO_PI - np.pi
    if w == -np.pi:
        w = np.pi
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


def transverse_terms(kind, par, eps_sing, x, y, psi, v, z, vz, lift_gain, z_ref, z_ref_rate):
    """Outputs, their rates, and the geometry needed by the path law.

    Returns (e_n, e_t, h3, e_n_dot, e_t_dot, h3_dot, sin_dpsi, cos_dpsi,
    speed, turn, turn_rate_deriv, speed_deriv, s_rate).
    """
    s = z / lift_gain
    tx, ty, nx, ny, psi_t, speed, _kappa, turn, _ok = frame_raw(
        kind, par, s, eps_sing
    )
    gx, gy = curve_point(kind, par, s)
    dx = x - gx
    dy = y - gy
    e_n = nx * dx + ny * dy
    e_t = tx * dx + ty * dy
    dpsi = wrap_angle(psi - psi_t)
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
    turn_plus = frame_raw(kind, par, s + _W_FD_STEP, eps_sing)[7]
    turn_minus = frame_raw(kind, par, s - _W_FD_STEP, eps_sing)[7]
    turn_deriv = (turn_plus - turn_minus) / (2.0 * _W_FD_STEP)
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


def path_following_control(kind, par, eps_sing, x, y, psi, v, z, vz, z_ref, z_ref_rate, cp):
    """Feedback-linearizing PD law tracking the lifted curve.

    Solves the 3x3 decoupling system in closed form; the forward speed
    is floored at v_min inside the matrix (only there) so the law stays
    defined through v = 0.
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
    ) = transverse_terms(
        kind, par, eps_sing, x, y, psi, v, z, vz, cp.lift_gain, z_ref, z_ref_rate
    )
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
    hx = np.cos(psi)
    hy = np.sin(psi)
    a = -cp.kv_pose * v - cp.kp_pose * ((x - target_x) * hx + (y - target_y) * hy)
    omega = -cp.kpsi_pose * wrap_angle(psi - target_psi)
    a_z = -cp.kz_pose * vz
    return a, omega, a_z


def repulsion_sum(idx, px, py, psi, d_act, cp):
    """Raw repulsive field on agent idx plus the worst proximity gate.

    Returns (fx, fy, proximity, min_sep): field before the duty factor,
    max over neighbors of the closeness smoothstep, and the smallest
    separation seen (for collision diagnostics; inf when alone).
    """
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
    psi_des = np.arctan2(fy, fx)
    err = wrap_angle(psi_des - psi_i)
    v_des = cp.v_max * np.cos(err)
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
    """Full blended control for one agent given the team snapshot.

    Returns (a, omega, a_z, sigma, alpha, duty).  Path following and
    pose regulation mix through sigma; the avoidance law overrides
    through alpha, which is gated by the duty factor so settled agents
    (sigma >= sigma_accept) ignore traffic.
    """
    dx = px[idx] - target_x
    dy = py[idx] - target_y
    dist = np.sqrt(dx * dx + dy * dy)
    sigma = blend_weight(revs_i, dist, cp.revs_star, cp.d_sw, cp.blend_mode)
    a_tfl, om_tfl, az_tfl = path_following_control(
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
    fx_raw, fy_raw, prox, _min_sep = repulsion_sum(idx, px, py, psi, d_act, cp)
    fx = duty * fx_raw
    fy = duty * fy_raw
    alpha = duty * prox
    a_av, om_av, az_av = avoidance_control_law(psi[idx], v[idx], vz[idx], fx, fy, cp)
    a = (1.0 - alpha) * a_nom + alpha * a_av
    omega = (1.0 - alpha) * om_nom + alpha * om_av
    a_z = (1.0 - alpha) * az_nom + alpha * az_av
    return a, omega, a_z, sigma, alpha, duty
