"""Agent feedback laws: lifted path following, vertex pose regulation,
smooth authority blending, and distributed collision avoidance.

An agent state is a length-6 array (x, y, psi, v, z, vz): planar pose
and forward speed plus a lifted coordinate pair.  The lifted coordinate
addresses the curve through s = z / lift_gain, so driving z forward
sweeps the agent along the curve; h3 = z - z_ref measures progress
against an externally supplied reference (the mission marches z_ref at
a constant rate and this module treats it as given).

Control vectors are (accel, turn_rate, lift_accel).  All angles wrap to
(-pi, pi].
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _control_kernels as kk
from .curves import Curve
from .finder import FormationSolution

TWO_PI = 2.0 * np.pi

_BLEND_MODES = {"product": 0.0, "anti-deadlock": 1.0}


class ControlError(ValueError):
    """Invalid controller parameters or inconsistent control inputs."""


class ControllerParams(NamedTuple):
    """Gains and geometry for the blended controller, all float64.

    Scale-dependent fields (lift_gain, switch/avoidance distances,
    speed limits) come from make_params(curve); the class itself is a
    flat numeric record the kernels read by attribute.
    """

    # PD gains on (normal error, tangential error, lifted progress error)
    kp_n: float
    kp_t: float
    kp_lift: float
    kd_n: float
    kd_t: float
    kd_lift: float
    # vertex pose regulator
    kp_pose: float
    kv_pose: float
    kpsi_pose: float
    kz_pose: float
    # lifted-coordinate geometry
    lift_gain: float
    v_ref: float
    v_min: float
    v_max: float
    # blending
    revs_star: float
    d_sw: float
    blend_mode: float
    # avoidance
    d_ao: float
    d_safe: float
    k_avoid: float
    kv_avoid: float
    komega_avoid: float
    kz_avoid: float
    sigma_accept: float
    delta_sigma: float
    codir_factor: float
    codir_ramp: float
    sense_radius: float
    shrink_sigma: float
    shrink_factor: float
    # width (in curve parameter, rad) of the smooth stop of the
    # marching reference as it reaches the assigned vertex address
    brake_width: float
    # envelope stiffness: acceleration is capped at kv_limit*(bound-v)
    # so catch-up speeds stay within what avoidance can brake against
    kv_limit: float
    # leash (in curve parameter, rad) from the agent's lifted coordinate
    # to the marching reference: a blocked agent's reference waits for it
    # instead of banking unbounded catch-up error
    lead_width: float
    # turn-rate saturation: the regularized decoupling inversion scales
    # like 1/v_min near standstill, so raw turn demands there are noise
    omega_max: float


def make_params(curve: Curve, **overrides) -> ControllerParams:
    """Build defaults keyed to the curve's size, then apply overrides.

    v_ref is the reference parameter rate (rad/s); the lifted reference
    advances at lift_gain * v_ref.  blend_mode accepts "product",
    "anti-deadlock", or a numeric value.
    """
    scale = curve.scale
    lift_gain = scale / TWO_PI
    v_ref = 0.5
    defaults = {
        "kp_n": 15.0,
        "kp_t": 15.0,
        "kp_lift": 3.0,
        "kd_n": 10.0,
        "kd_t": 10.0,
        "kd_lift": 3.0,
        "kp_pose": 3.0,
        "kv_pose": 4.0,
        "kpsi_pose": 5.0,
        "kz_pose": 3.0,
        "lift_gain": lift_gain,
        "v_ref": v_ref,
        "v_min": 0.05 * v_ref,
        "v_max": 1.2 * v_ref * curve.speed_max,
        "revs_star": 1.0,
        "d_sw": 0.15 * scale,
        "blend_mode": 1.0,
        "d_ao": 0.12 * scale,
        "d_safe": 0.06 * scale,
        "k_avoid": 0.8,
        "kv_avoid": 2.0,
        "komega_avoid": 12.0,
        "kz_avoid": 2.0,
        "sigma_accept": 0.7,
        "delta_sigma": 0.2,
        "codir_factor": 0.3,
        "codir_ramp": 0.2,
        "sense_radius": 0.24 * scale,
        "shrink_sigma": 0.85,
        "shrink_factor": 1.5,
        "brake_width": 3.0,
        "kv_limit": 5.0,
        "lead_width": 0.75,
        "omega_max": 8.0,
    }
    if "v_ref" in overrides:
        # derived speeds follow the overridden rate unless set themselves
        vr = float(overrides["v_ref"])
        defaults["v_ref"] = vr
        defaults["v_min"] = 0.05 * vr
        defaults["v_max"] = 1.2 * vr * curve.speed_max
    for key, value in overrides.items():
        if key not in defaults:
            raise ControlError(f"unknown controller parameter '{key}'")
        if key == "blend_mode" and isinstance(value, str):
            if value not in _BLEND_MODES:
                raise ControlError(
                    f"blend_mode must be 'product' or 'anti-deadlock', got '{value}'"
                )
            value = _BLEND_MODES[value]
        defaults[key] = float(value)
    cp = ControllerParams(**defaults)
    _validate_params(cp)
    return cp


def _validate_params(cp: ControllerParams) -> None:
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
class ControlOutput:
    """One agent's control triple plus blending diagnostics."""

    accel: float
    turn_rate: float
    lift_accel: float
    sigma: float = 0.0
    alpha: float = 0.0
    alpha_duty: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.accel, self.turn_rate, self.lift_accel])


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

    @property
    def n(self) -> int:
        return self.theta.shape[0]


def _state6(state) -> np.ndarray:
    arr = np.asarray(state, dtype=np.float64).reshape(-1)
    if arr.shape[0] != 6:
        raise ControlError("agent state must have 6 entries (x, y, psi, v, z, vz)")
    if not np.all(np.isfinite(arr)):
        # the laws run on Python floats, where math.cos(inf) raises
        raise ControlError("agent state must be finite")
    return arr


def _snapshot(states) -> np.ndarray:
    snap = np.asarray(states, dtype=np.float64)
    if snap.ndim != 2 or snap.shape[1] != 6:
        raise ControlError("states must be an (n, 6) array")
    if not np.all(np.isfinite(snap)):
        raise ControlError("states must be finite")
    return snap


def wrap_angle(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return float(kk.wrap_angle(float(x)))


def beta(xi: float) -> float:
    """Smoothstep 3 xi^2 - 2 xi^3, clamped to [0, 1] outside the unit interval."""
    return float(kk.beta_smooth(float(xi)))


def blend_sigma(revs: float, dist: float, params: ControllerParams) -> float:
    """Authority blend in [0, 1] from revolutions done and target distance."""
    return float(
        kk.blend_weight(
            float(revs), float(dist), params.revs_star, params.d_sw, params.blend_mode
        )
    )


def _geometry(curve: Curve, z, lift_gain: float):
    """curve_geometry at the curve parameter z / lift_gain, as one tuple."""
    return kk.curve_geometry(
        curve.kind, curve.par, np.array([z / lift_gain]), curve.eps_sing
    )[0]


def transverse_outputs(state, curve: Curve, lift_gain: float, z_ref: float = 0.0, z_ref_rate: float = 0.0):
    """Tracking outputs and their rates at one state.

    Returns (e_n, e_t, h3, e_n_dot, e_t_dot, h3_dot): normal and
    tangential displacement from the curve point addressed by z, the
    lifted progress error against z_ref, and their time derivatives.
    """
    x, y, psi, v, z, vz = _state6(state).tolist()
    lift_gain = float(lift_gain)
    out = kk.transverse_terms(
        _geometry(curve, z, lift_gain),
        x,
        y,
        psi,
        v,
        z,
        vz,
        lift_gain,
        float(z_ref),
        float(z_ref_rate),
    )
    return tuple(float(t) for t in out[:6])


def decoupling_matrix(state, curve: Curve, lift_gain: float) -> np.ndarray:
    """Input-to-output-acceleration matrix, rows (e_n, e_t, h3) by (a, omega, a_z).

    Unregularized: its determinant is exactly -v, so it is singular at
    standstill (tfl_control owns the fix).
    """
    x, y, psi, v, z, vz = _state6(state).tolist()
    lift_gain = float(lift_gain)
    (
        e_n,
        e_t,
        _h3,
        _edn,
        _edt,
        _dh3,
        sin_dpsi,
        cos_dpsi,
        speed,
        turn,
        _wd,
        _md,
        _sr,
    ) = kk.transverse_terms(
        _geometry(curve, z, lift_gain), x, y, psi, v, z, vz, lift_gain, 0.0, 0.0
    )
    entries = kk.decoupling_entries(
        sin_dpsi, cos_dpsi, v, e_n, e_t, speed, turn, lift_gain
    )
    return np.array(entries).reshape(3, 3)


def tfl_control(state, curve: Curve, params: ControllerParams, z_ref: float, z_ref_rate: float = 0.0) -> ControlOutput:
    """Feedback-linearizing PD tracking of the lifted curve.

    Drives (e_n, e_t, h3) to zero; z_ref/z_ref_rate give the lifted
    reference and its rate at the current instant.  Forward speed is
    floored at v_min inside the matrix inversion only.
    """
    x, y, psi, v, z, vz = _state6(state).tolist()
    a, omega, a_z = kk.path_following_control(
        _geometry(curve, z, params.lift_gain),
        x,
        y,
        psi,
        v,
        z,
        vz,
        float(z_ref),
        float(z_ref_rate),
        params,
    )
    return ControlOutput(float(a), float(omega), float(a_z))


def pose_control(state, target_position, target_heading: float, params: ControllerParams) -> ControlOutput:
    """Damped regulator parking the agent at a vertex with a set heading."""
    x, y, psi, v, _z, vz = _state6(state)
    tx = float(target_position[0])
    ty = float(target_position[1])
    a, omega, a_z = kk.pose_control_law(
        x, y, psi, v, vz, tx, ty, float(target_heading), params
    )
    return ControlOutput(float(a), float(omega), float(a_z), sigma=1.0)


def avoidance_force(index: int, states, sigmas, params: ControllerParams):
    """Repulsive planar field on one agent plus its duty factor.

    states is (n, 6); sigmas the matching blend values.  The field
    already carries the duty factor, so settled agents
    (sigma >= sigma_accept) feel exactly zero.  Raises on an exact
    overlap, which means a collision already happened.
    """
    snap = _snapshot(states)
    sig = np.asarray(sigmas, dtype=np.float64).reshape(-1)
    if sig.shape[0] != snap.shape[0]:
        raise ControlError("sigmas length must match the number of agents")
    sigma_i = float(sig[index])
    d_act = params.d_ao
    if sigma_i > params.shrink_sigma:
        d_act = params.shrink_factor * params.d_safe
    fx, fy, _prox, min_sep = kk.repulsion_sum(
        int(index),
        snap[:, 0].tolist(),
        snap[:, 1].tolist(),
        snap[:, 2].tolist(),
        d_act,
        params,
    )
    if min_sep == 0.0:
        raise ControlError(f"agent {index} exactly overlaps a neighbor")
    duty = kk.beta_smooth((params.sigma_accept - sigma_i) / params.delta_sigma)
    return np.array([duty * fx, duty * fy]), float(duty)


def avoidance_control(state, repulsion, params: ControllerParams) -> ControlOutput:
    """Steer along the repulsive field, speed modulated by alignment."""
    _x, _y, psi, v, _z, vz = _state6(state)
    a, omega, a_z = kk.avoidance_control_law(
        psi, v, vz, float(repulsion[0]), float(repulsion[1]), params
    )
    return ControlOutput(float(a), float(omega), float(a_z), alpha=1.0)


def final_control(
    index: int,
    states,
    revs,
    curve: Curve,
    assignment: FormationAssignment,
    params: ControllerParams,
    z_ref: float = None,
    z_ref_rate: float = 0.0,
) -> ControlOutput:
    """Blended control for one agent from a synchronous team snapshot.

    Path following and pose regulation mix through sigma; avoidance
    overrides through alpha.  Without an explicit lifted reference the
    agent regulates toward its assigned vertex address at zero rate.
    """
    snap = _snapshot(states)
    rv = np.asarray(revs, dtype=np.float64).reshape(-1)
    if rv.shape[0] != snap.shape[0]:
        raise ControlError("revs length must match the number of agents")
    if assignment.n != snap.shape[0]:
        raise ControlError("assignment size must match the number of agents")
    if z_ref is None:
        z_ref = float(assignment.z_target[index])
        z_ref_rate = 0.0
    px, py, psi, v, z, vz = snap.T.tolist()
    index = int(index)
    a, omega, a_z, sigma, alpha, duty, _sep = kk.agent_control(
        index,
        px,
        py,
        psi,
        v,
        z,
        vz,
        float(rv[index]),
        _geometry(curve, z[index], params.lift_gain),
        float(assignment.position[index, 0]),
        float(assignment.position[index, 1]),
        float(assignment.heading[index]),
        float(z_ref),
        float(z_ref_rate),
        params,
    )
    return ControlOutput(
        float(a), float(omega), float(a_z), float(sigma), float(alpha), float(duty)
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
