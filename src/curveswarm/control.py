"""Agent feedback laws: lifted path following, vertex pose regulation,
smooth authority blending, and distributed collision avoidance.

This module holds the laws and the transverse outputs they act on;
`_sim_kernels.team_controls` is their caller.  Per agent and tick it
takes the curve frame from one curve_frame call, runs the
feedback-linearizing path-following law inline on transverse_terms,
blends it with pose_control_law and avoidance_control_law through
blend_weight and the duty factor, and adds the reference leash, the
speed envelope and the turn-rate clamp.  decoupling_matrix is the
matrix that the path law inverts.

An agent state is (x, y, psi, v, z, vz): planar pose and forward speed
plus a lifted coordinate pair.  The lifted coordinate addresses the
curve through s = z / lift_gain, so driving z forward sweeps the agent
along the curve; h3 = z - z_ref measures progress against an externally
supplied reference (the mission marches z_ref at a constant rate and
this module treats it as given).  Controls are (a, omega, a_z):
longitudinal accel, turn rate, lifted accel.  All angles wrap to
(-pi, pi].

The curve frame convention matches the curve kernels: the normal is the
tangent rotated by +pi/2 and the turn rate w(s) = d(tangent angle)/ds
is signed, which is what makes the decoupling determinant exactly -v.

The laws touch the curve only through curve_frame's tuple of Python
floats, (gx, gy, tx, ty, speed, turn, turn_deriv, speed_rate, kappa,
ok): one order-3 float curve_jet call per agent, whose third derivative
gives the turn rate's parameter derivative in closed form.  The laws
run per agent on those floats.  At n = 4 a float operation costs a few
tens of nanoseconds against about a microsecond for any numpy call.
The tick keeps the bits of numpy's array code, measured on an x86-64
(AVX-512) host with numpy 2.4:
- math.sin, math.cos and math.sqrt matched numpy on 200k of 200k random
  arguments;
- a speed is abs(complex(dx, dy)), which calls libm hypot as np.hypot
  does (0 of 300k random pairs differed); math.hypot differed on 1,725
  of the same 300k;
- the tick takes no tangent angle: the heading error enters through its
  sine and cosine, products of the unit tangent and the heading's own
  cosine and sine;
- the avoidance law's steering angles come from one np.arctan2 call,
  on the ticks where some agent has a neighbor in range (or a nominal
  control of zero); its bits are the same at length 4, at length 200k
  and on scalars; math.atan2 differed on 14,664 of 200k;
- exp stays numpy's, in the array march_profile that the mission calls
  once per block of ticks; math.exp differed on 9,282 of 200k.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._curve_kernels import curve_frame
from .curves import Curve
from .finder import FormationSolution

TWO_PI = 2.0 * np.pi

_BLEND_MODES = {"product": 0.0, "anti-deadlock": 1.0}


class ControlError(ValueError):
    """Invalid controller parameters or inconsistent control inputs."""


class ControllerParams(NamedTuple):
    """Gains and geometry for the blended controller, all float64.

    The first seven fields scale with the curve and have no default:
    make_params(curve) derives them.  Every other field's default is
    declared here; the class is a flat numeric record the laws read by
    attribute.
    """

    # lifted coordinate s = z / lift_gain, and the speed envelope
    lift_gain: float
    v_min: float
    v_max: float
    # blend switch, avoidance and safety distances, sensing range
    d_sw: float
    d_ao: float
    d_safe: float
    sense_radius: float
    # PD gains on (normal error, tangential error, lifted progress error)
    kp_n: float = 15.0
    kp_t: float = 15.0
    kp_lift: float = 3.0
    kd_n: float = 10.0
    kd_t: float = 10.0
    kd_lift: float = 3.0
    # vertex pose regulator
    kp_pose: float = 3.0
    kv_pose: float = 4.0
    kpsi_pose: float = 5.0
    kz_pose: float = 3.0
    # reference parameter rate (rad/s)
    v_ref: float = 0.5
    # blending
    revs_star: float = 1.0
    blend_mode: float = 1.0
    # avoidance
    k_avoid: float = 0.8
    kv_avoid: float = 2.0
    komega_avoid: float = 12.0
    kz_avoid: float = 2.0
    sigma_accept: float = 0.7
    delta_sigma: float = 0.2
    codir_factor: float = 0.3
    codir_ramp: float = 0.2
    shrink_sigma: float = 0.85
    shrink_factor: float = 1.5
    # width (in curve parameter, rad) of the smooth stop of the
    # marching reference as it reaches the assigned vertex address
    brake_width: float = 3.0
    # envelope stiffness: acceleration is capped at kv_limit*(bound-v)
    # so catch-up speeds stay within what avoidance can brake against
    kv_limit: float = 5.0
    # leash (in curve parameter, rad) from the agent's lifted coordinate
    # to the marching reference: a blocked agent's reference waits for it
    # instead of banking unbounded catch-up error
    lead_width: float = 0.75
    # turn-rate saturation: the regularized decoupling inversion scales
    # like 1/v_min near standstill, so raw turn demands there are noise
    omega_max: float = 8.0


def make_params(curve: Curve, **overrides) -> ControllerParams:
    """Derive the curve-scaled fields, then apply overrides to the record.

    v_ref is the reference parameter rate (rad/s); the lifted reference
    advances at lift_gain * v_ref, and v_min and v_max follow the
    effective v_ref unless set themselves.  blend_mode accepts
    "product", "anti-deadlock", or a numeric value.
    """
    values = {}
    for key, value in overrides.items():
        if key not in ControllerParams._fields:
            raise ControlError(f"unknown controller parameter '{key}'")
        if key == "blend_mode" and isinstance(value, str):
            if value not in _BLEND_MODES:
                raise ControlError(
                    f"blend_mode must be 'product' or 'anti-deadlock', got '{value}'"
                )
            value = _BLEND_MODES[value]
        values[key] = float(value)
    scale = curve.scale
    v_ref = values.get("v_ref", ControllerParams._field_defaults["v_ref"])
    derived = {
        "lift_gain": scale / TWO_PI,
        "v_min": 0.05 * v_ref,
        "v_max": 1.2 * v_ref * curve.speed_max,
        "d_sw": 0.15 * scale,
        "d_ao": 0.12 * scale,
        "d_safe": 0.06 * scale,
        "sense_radius": 0.24 * scale,
    }
    cp = ControllerParams(**{**derived, **values})
    _validate_params(cp)
    return cp


def _validate_params(cp: ControllerParams) -> None:
    # back to front, so a non-finite v_ref is named before the v_min and
    # v_max that make_params derived from it
    for name, value in reversed(tuple(zip(cp._fields, cp))):
        if not math.isfinite(value):
            raise ControlError(f"controller parameter '{name}' must be finite, got {value!r}")
    positive = (
        "kp_n", "kp_t", "kp_lift", "kd_n", "kd_t", "kd_lift",
        "kp_pose", "kv_pose", "kpsi_pose", "kz_pose",
        "lift_gain", "v_ref", "v_min", "v_max",
        "revs_star", "d_sw", "d_ao", "d_safe",
        "kv_avoid", "komega_avoid", "kz_avoid",
        "delta_sigma", "codir_ramp", "sense_radius", "brake_width",
        "kv_limit", "lead_width", "omega_max",
    )
    for name in positive:
        if not getattr(cp, name) > 0.0:
            raise ControlError(f"controller parameter '{name}' must be positive")
    if cp.k_avoid < 0.0:
        raise ControlError("controller parameter 'k_avoid' must be nonnegative")
    if not 0.0 < cp.sigma_accept < 1.0:
        raise ControlError("controller parameter 'sigma_accept' must be in (0, 1)")
    if not 0.0 <= cp.codir_factor <= 1.0:
        raise ControlError("controller parameter 'codir_factor' must be in [0, 1]")
    if cp.d_safe >= cp.d_ao:
        raise ControlError("'d_safe' must be smaller than 'd_ao'")
    if cp.blend_mode not in (0.0, 1.0):
        raise ControlError("'blend_mode' must be 0 (product) or 1 (anti-deadlock)")
    if cp.shrink_factor * cp.d_safe >= cp.d_ao:
        raise ControlError("shrunken avoidance radius must stay below 'd_ao'")
    if cp.shrink_factor <= 1.0:
        # the proximity gate ramps from the shrunken radius down to d_safe
        raise ControlError("shrunken avoidance radius must stay above 'd_safe'")


@dataclass
class FormationAssignment:
    """Per-agent vertex targets, bijective by construction.

    Row i holds agent i's target: curve parameter, planar vertex,
    tangent heading there, and the lifted address lift_gain * theta.
    offset records which cyclic shift won; total_arc its summed
    along-curve distance.
    """

    theta: np.ndarray
    position: np.ndarray
    heading: np.ndarray
    z_target: np.ndarray
    offset: int
    total_arc: float


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


def transverse_terms(frame, x, y, psi, v, z, vz, lift_gain, z_ref, z_ref_rate):
    """The path law's outputs and their rates.

    frame is curve_frame's tuple at s = z / lift_gain; the speed, turn
    rate and their parameter derivatives that the law also needs are
    read from it.  Returns (e_n, e_t, h3, e_n_dot, e_t_dot, h3_dot,
    sin_dpsi, cos_dpsi, s_rate).  The heading error psi - psi_t enters
    through its sine and cosine only, taken from the unit tangent (tx,
    ty) = (cos psi_t, sin psi_t) without the angle.
    """
    gx, gy, tx, ty, speed, turn, _turn_deriv, _speed_rate, _kappa, _ok = frame
    dx = x - gx
    dy = y - gy
    e_n = -ty * dx + tx * dy  # normal (-ty, tx)
    e_t = tx * dx + ty * dy
    hx = math.cos(psi)
    hy = math.sin(psi)
    sin_dpsi = hy * tx - hx * ty
    cos_dpsi = hx * tx + hy * ty
    s_rate = vz / lift_gain
    e_n_dot = -turn * s_rate * e_t + v * sin_dpsi
    e_t_dot = turn * s_rate * e_n + v * cos_dpsi - speed * s_rate
    h3 = z - z_ref
    h3_dot = vz - z_ref_rate
    return e_n, e_t, h3, e_n_dot, e_t_dot, h3_dot, sin_dpsi, cos_dpsi, s_rate


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


def avoidance_control_law(psi_des, psi_i, v, vz, cp):
    """Steer toward psi_des, the repulsive field's angle, modulating speed by alignment.

    team_controls takes psi_des for the whole team from one np.arctan2
    call on the duty-weighted fields (fy, fx), on the ticks that blend.
    """
    err = wrap_angle(psi_des - psi_i)
    v_des = cp.v_max * math.cos(err)
    a = cp.kv_avoid * (v_des - v)
    omega = cp.komega_avoid * err
    a_z = -cp.kz_avoid * vz
    return a, omega, a_z


def _state6(state) -> np.ndarray:
    arr = np.asarray(state, dtype=np.float64).reshape(-1)
    if arr.shape[0] != 6:
        raise ControlError("agent state must have 6 entries (x, y, psi, v, z, vz)")
    if not np.all(np.isfinite(arr)):
        # the laws run on Python floats, where math.cos(inf) raises
        raise ControlError("agent state must be finite")
    return arr


def _geometry(curve: Curve, z, lift_gain: float):
    """curve_frame's tuple at the curve parameter z / lift_gain."""
    return curve_frame(curve.kind, tuple(curve.par.tolist()), z / lift_gain, curve.eps_sing)


def decoupling_matrix(state, curve: Curve, lift_gain: float) -> np.ndarray:
    """Input-to-output-acceleration matrix, rows (e_n, e_t, h3) by (a, omega, a_z).

    Unregularized: its determinant is exactly -v, so it is singular at
    standstill.  The path-following law in team_controls inverts it in
    closed form at the speed floored at v_min.
    """
    x, y, psi, v, z, vz = _state6(state).tolist()
    lift_gain = float(lift_gain)
    frame = _geometry(curve, z, lift_gain)
    speed, turn = frame[4], frame[5]
    e_n, e_t, _h3, _edn, _edt, _dh3, sin_dpsi, cos_dpsi, _sr = transverse_terms(
        frame, x, y, psi, v, z, vz, lift_gain, 0.0, 0.0
    )
    return np.array(
        [
            [sin_dpsi, v * cos_dpsi, -turn * e_t / lift_gain],
            [cos_dpsi, -v * sin_dpsi, (turn * e_n - speed) / lift_gain],
            [0.0, 0.0, 1.0],
        ]
    )


def assign_vertices(states, solution: FormationSolution, curve: Curve, params: ControllerParams) -> FormationAssignment:
    """Match agents to formation vertices in cyclic order.

    Agents sort by current path parameter (from z), vertices by theta;
    the cyclic offset minimizing total along-curve distance wins (ties
    to the smallest offset).  Deterministic and bijective.
    """
    snap = np.asarray(states, dtype=np.float64)
    if snap.ndim != 2 or snap.shape[1] != 6:
        raise ControlError("states must be an (n, 6) array")
    theta = np.asarray(solution.theta, dtype=np.float64)
    n = snap.shape[0]
    if theta.shape[0] != n:
        raise ControlError(
            f"agent count {n} does not match vertex count {theta.shape[0]}"
        )
    s_vals = np.mod(snap[:, 4] / params.lift_gain, TWO_PI)
    theta = np.mod(theta, TWO_PI)
    agent_order = np.argsort(s_vals, kind="stable")
    vert_order = np.argsort(theta, kind="stable")
    total_len = curve.length
    arc_at = np.array([curve.arclength(0.0, float(t)) for t in theta])
    arc_agent = np.array([curve.arclength(0.0, float(s)) for s in s_vals])

    def circ_dist(a, b):
        d = abs(a - b)
        return min(d, total_len - d)

    best_offset = 0
    best_total = np.inf
    for k in range(n):
        total = 0.0
        for i in range(n):
            total += circ_dist(
                arc_agent[agent_order[i]], arc_at[vert_order[(i + k) % n]]
            )
        if total < best_total - 1e-12:
            best_total = total
            best_offset = k
    target_theta = np.empty(n)
    for i in range(n):
        target_theta[agent_order[i]] = theta[vert_order[(i + best_offset) % n]]
    position = curve.point(target_theta)
    heading = np.array([curve.frenet(float(t)).tangent_angle for t in target_theta])
    z_target = params.lift_gain * target_theta
    return FormationAssignment(
        theta=target_theta,
        position=position,
        heading=heading,
        z_target=z_target,
        offset=int(best_offset),
        total_arc=float(best_total),
    )
