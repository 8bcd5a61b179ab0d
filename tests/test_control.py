"""Tests for the blended agent controller."""

import numpy as np
import pytest

from curveswarm import _sim_kernels as sk
from curveswarm import control
from curveswarm.control import (
    ControlError,
    ControllerParams,
    assign_vertices,
    avoidance_control_law,
    beta_smooth,
    blend_weight,
    decoupling_matrix,
    make_params,
    pose_control_law,
    repulsion_sum,
    transverse_terms,
    wrap_angle,
)
from curveswarm.curves import make_curve
from curveswarm.finder import find_formation

TWO_PI = 2.0 * np.pi


def on_curve_state(curve, cp, s, s_rate=0.5):
    """Agent exactly on the curve at parameter s, moving along it."""
    fr = curve.frenet(s)
    p = curve.point(s)
    return np.array(
        [p[0], p[1], fr.tangent_angle, fr.speed * s_rate, cp.lift_gain * s, cp.lift_gain * s_rate]
    )


def random_lifted_state(curve, cp, rng):
    s = rng.uniform(0.0, TWO_PI)
    p = curve.point(s)
    scale = curve.scale
    return np.array(
        [
            p[0] + rng.uniform(-0.3, 0.3) * scale,
            p[1] + rng.uniform(-0.3, 0.3) * scale,
            rng.uniform(-np.pi, np.pi),
            rng.uniform(-2.0, 2.0),
            cp.lift_gain * (s + rng.uniform(-0.5, 0.5)),
            rng.uniform(-1.0, 1.0),
        ]
    )


def rk4_step(state, u, dt):
    def f(st):
        x, y, psi, v, z, vz = st
        return np.array(
            [v * np.cos(psi), v * np.sin(psi), u[1], u[0], vz, u[2]]
        )

    k1 = f(state)
    k2 = f(state + 0.5 * dt * k1)
    k3 = f(state + 0.5 * dt * k2)
    k4 = f(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def unclamped(cp):
    """cp with the tick's leash, speed envelope and turn clamp out of reach.

    The mission bounds what the path-following law asks for; these
    parameters let the law's own output through.
    """
    return cp._replace(v_max=1e9, v_ref=1e9, omega_max=1e9, lead_width=1e9)


def path_law(curve, cp, state, z_ref, z_ref_rate):
    """The tick's controls (a, omega, a_z) for a lone sweep-only agent.

    Alone and without a target, the agent has sigma = 0 and alpha = 0:
    team_controls gives it pure path following, then the leash, the
    speed envelope and the turn clamp of cp.
    """
    rows, _sep = sk.team_controls(
        [tuple(map(float, state))], [float(state[4])], [float(z_ref)], [float(z_ref_rate)],
        curve, None, cp,
    )
    return record_controls(rows[0])


def record_controls(row):
    """The controls (accel, turn_rate, lift_accel) of a tick's record row."""
    at = dict(zip(sk.TRAJECTORY_COLUMNS, row))
    return np.array([at["accel"], at["turn_rate"], at["lift_accel"]])


def run_path_following(curve, cp, state0, horizon, dt=0.01, record=None):
    """Closed loop under the path-following law alone, constant-rate reference."""
    free = unclamped(cp)
    rate = cp.lift_gain * cp.v_ref
    z_ref = state0[4]
    state = state0.copy()
    rows = []
    steps = int(round(horizon / dt))
    for k in range(steps):
        u = path_law(curve, free, state, z_ref, rate)
        if record is not None:
            rows.append(record(k * dt, state, z_ref, rate))
        state = rk4_step(state, u, dt)
        z_ref += rate * dt
    return state, rows


# -- transverse outputs ------------------------------------------------------


def test_outputs_zero_on_curve():
    curve = make_curve("ellipse")
    cp = make_params(curve)
    for s in (0.0, 0.7, 2.9, 5.5):
        st = on_curve_state(curve, cp, s)
        geo = control._geometry(curve, st[4], cp.lift_gain)
        out = transverse_terms(geo, *st, cp.lift_gain, st[4], st[5])[:6]
        assert max(abs(v) for v in out) <= 1e-12


def test_outputs_normal_displacement():
    curve = make_curve("deltoid")
    cp = make_params(curve)
    for s, delta in ((0.8, 0.3), (2.2, -0.15), (4.4, 0.05)):
        fr = curve.frenet(s)
        p = curve.point(s) + delta * fr.normal
        st = np.array([p[0], p[1], fr.tangent_angle, 0.4, cp.lift_gain * s, 0.1])
        geo = control._geometry(curve, st[4], cp.lift_gain)
        e_n, e_t, *_ = transverse_terms(geo, *st, cp.lift_gain, 0.0, 0.0)
        assert abs(e_n - delta) <= 1e-12
        assert abs(e_t) <= 1e-12


def test_output_rates_match_finite_differences_along_flow():
    # the first derivatives are control-independent, so the drift flow
    # (zero input: straight-line planar motion, linear z) is exact
    curve = make_curve("circle")
    cp = make_params(curve)
    rng = np.random.default_rng(11)
    h = 1e-6
    rate = cp.lift_gain * cp.v_ref
    for _ in range(100):
        st = random_lifted_state(curve, cp, rng)
        z_ref = st[4] + rng.uniform(-0.2, 0.2)

        def flowed(t):
            x, y, psi, v, z, vz = st
            moved = np.array(
                [x + t * v * np.cos(psi), y + t * v * np.sin(psi), psi, v, z + t * vz, vz]
            )
            geo = control._geometry(curve, moved[4], cp.lift_gain)
            return transverse_terms(geo, *moved, cp.lift_gain, z_ref + rate * t, rate)

        lo = flowed(-h)
        hi = flowed(h)
        mid = flowed(0.0)
        for i in range(3):
            fd = (hi[i] - lo[i]) / (2.0 * h)
            assert abs(fd - mid[3 + i]) <= 1e-4 * max(1.0, abs(mid[3 + i]))


def zero_input_accelerations(curve, cp, st, z_ref, rate, h=2e-4):
    """Second differences of (e_n, e_t, h3) along the zero-input flow.

    L_f^2 h, the output accelerations with zero input: planar motion on
    a straight line at constant speed, z linear, the reference marching
    at rate.
    """
    x, y, psi, v, z, vz = st

    def outputs_at(t):
        moved = np.array(
            [x + t * v * np.cos(psi), y + t * v * np.sin(psi), psi, v, z + t * vz, vz]
        )
        geo = control._geometry(curve, moved[4], cp.lift_gain)
        return transverse_terms(geo, *moved, cp.lift_gain, z_ref + rate * t, rate)

    lo = outputs_at(-h)
    mid = outputs_at(0.0)
    hi = outputs_at(h)
    return np.array([(hi[i] - 2.0 * mid[i] + lo[i]) / (h * h) for i in range(3)])


def pd_target(cp, terms):
    """The PD demand -kp e - kd e_dot on (e_n, e_t, h3)."""
    e_n, e_t, h3, den, det_, dh3 = terms[:6]
    return np.array(
        [
            -cp.kp_n * e_n - cp.kd_n * den,
            -cp.kp_t * e_t - cp.kd_t * det_,
            -cp.kp_lift * h3 - cp.kd_lift * dh3,
        ]
    )


def floored_speed(st, cp):
    """st with its forward speed floored at v_min, as inside the path law."""
    st_reg = st.copy()
    if abs(st[3]) < cp.v_min:
        st_reg[3] = cp.v_min if st[3] >= 0.0 else -cp.v_min
    return st_reg


def test_drift_acceleration_matches_second_differences():
    # L_f^2 h is the second time-derivative of the outputs under zero input;
    # the drift the tick subtracts is PD target - D(v_reg) u
    curves = [make_curve("circle"), make_curve("ellipse"), make_curve("lissajous-32")]
    rng = np.random.default_rng(23)
    for curve in curves:
        cp = make_params(curve)
        rate = cp.lift_gain * cp.v_ref
        for _ in range(40):
            st = random_lifted_state(curve, cp, rng)
            z_ref = st[4] + rng.uniform(-0.1, 0.1)
            u = path_law(curve, unclamped(cp), st, z_ref, rate)
            terms = transverse_terms(
                control._geometry(curve, st[4], cp.lift_gain), *st, cp.lift_gain, z_ref, rate
            )
            lf = pd_target(cp, terms) - decoupling_matrix(floored_speed(st, cp), curve, cp.lift_gain) @ u
            fd = zero_input_accelerations(curve, cp, st, z_ref, rate)
            for i in range(3):
                assert abs(fd[i] - lf[i]) <= 1e-4 * max(1.0, abs(lf[i]))


# -- decoupling matrix -------------------------------------------------------


def test_decoupling_determinant_identity():
    rng = np.random.default_rng(7)
    for name in ("circle", "deltoid", "lissajous-32"):
        curve = make_curve(name)
        cp = make_params(curve)
        for _ in range(1000):
            st = random_lifted_state(curve, cp, rng)
            D = decoupling_matrix(st, curve, cp.lift_gain)
            assert abs(np.linalg.det(D) + st[3]) <= 1e-10


def test_decoupling_rows_at_inflection_point():
    # on a curve point with zero curvature, on-curve and aligned:
    # rows reduce to (0, v, 0), (1, 0, -speed/lift_gain), (0, 0, 1)
    curve = make_curve("lissajous-32")
    cp = make_params(curve)
    grid = np.linspace(0.0, TWO_PI, 4001)
    w = np.array([curve.frenet(float(s)).turn_rate for s in grid])
    idx = int(np.argmin(np.abs(w)))
    lo, hi = grid[idx - 1], grid[idx + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if curve.frenet(float(lo)).turn_rate * curve.frenet(float(mid)).turn_rate <= 0:
            hi = mid
        else:
            lo = mid
    s0 = 0.5 * (lo + hi)
    fr = curve.frenet(float(s0))
    assert abs(fr.turn_rate) < 1e-9
    st = on_curve_state(curve, cp, float(s0), s_rate=0.4)
    D = decoupling_matrix(st, curve, cp.lift_gain)
    v = st[3]
    assert np.allclose(D[0], [0.0, v, 0.0], atol=1e-8)
    assert np.allclose(D[1], [1.0, 0.0, -fr.speed / cp.lift_gain], atol=1e-8)
    assert np.array_equal(D[2], [0.0, 0.0, 1.0])


def test_decoupling_third_row_always_unit():
    curve = make_curve("cassini-oval")
    cp = make_params(curve)
    rng = np.random.default_rng(3)
    for _ in range(50):
        D = decoupling_matrix(random_lifted_state(curve, cp, rng), curve, cp.lift_gain)
        assert np.array_equal(D[2], [0.0, 0.0, 1.0])


# -- path-following law ------------------------------------------------------


def test_tfl_solution_matches_dense_solve():
    # closed-form inversion vs numpy solve on the regularized matrix.  The
    # drift does not depend on the gains, so it cancels from the difference
    # of the tick's controls with and without them: u - u0 = D(v_reg)^-1 PD
    rng = np.random.default_rng(41)
    curve = make_curve("ellipse")
    cp = make_params(curve)
    free = unclamped(cp)
    gainless = free._replace(kp_n=0.0, kp_t=0.0, kp_lift=0.0, kd_n=0.0, kd_t=0.0, kd_lift=0.0)
    rate = cp.lift_gain * cp.v_ref
    for k in range(200):
        st = random_lifted_state(curve, cp, rng)
        if k % 4 == 0:
            st[3] = rng.uniform(-1.0, 1.0) * cp.v_min  # inside the floor
        z_ref = st[4] + rng.uniform(-0.2, 0.2)
        u = path_law(curve, free, st, z_ref, rate)
        u0 = path_law(curve, gainless, st, z_ref, rate)
        terms = transverse_terms(
            control._geometry(curve, st[4], cp.lift_gain), *st, cp.lift_gain, z_ref, rate
        )
        d_reg = decoupling_matrix(floored_speed(st, cp), curve, cp.lift_gain)
        expected = np.linalg.solve(d_reg, pd_target(cp, terms))
        assert np.allclose(u - u0, expected, rtol=1e-10, atol=1e-10)


def test_tfl_regularization_keeps_law_finite_at_standstill():
    curve = make_curve("circle")
    cp = make_params(curve)
    st = on_curve_state(curve, cp, 1.0, s_rate=0.5)
    st[3] = 0.0
    u = path_law(curve, unclamped(cp), st, st[4], cp.lift_gain * cp.v_ref)
    assert np.all(np.isfinite(u))


def test_tfl_on_manifold_invariance_one_revolution():
    # starting exactly on the lifted manifold, the loop stays there
    curve = make_curve("circle")
    cp = make_params(curve)
    st = on_curve_state(curve, cp, 0.0, s_rate=cp.v_ref)
    horizon = TWO_PI / cp.v_ref

    def record(t, state, z_ref, rate):
        geo = control._geometry(curve, state[4], cp.lift_gain)
        e_n, e_t, *_ = transverse_terms(geo, *state, cp.lift_gain, z_ref, rate)
        return max(abs(e_n), abs(e_t))

    _, rows = run_path_following(curve, cp, st, horizon, record=record)
    assert max(rows) <= 1e-6 * curve.scale


def test_tfl_normal_error_decays():
    curve = make_curve("circle")
    cp = make_params(curve)
    s0 = 0.4
    fr = curve.frenet(s0)
    p = curve.point(s0) + 0.5 * fr.normal
    st = np.array(
        [p[0], p[1], fr.tangent_angle, fr.speed * cp.v_ref, cp.lift_gain * s0, cp.lift_gain * cp.v_ref]
    )

    def record(t, state, z_ref, rate):
        geo = control._geometry(curve, state[4], cp.lift_gain)
        e_n, _e_t, _h3, den, *_ = transverse_terms(geo, *state, cp.lift_gain, z_ref, rate)
        return (t, np.hypot(e_n, den))

    _, rows = run_path_following(curve, cp, st, 5.0, record=record)
    norms = np.array([r[1] for r in rows])
    times = np.array([r[0] for r in rows])
    tail = norms[times >= 1.0]
    assert norms[-1] < 1e-3
    assert np.all(np.diff(tail) <= 1e-9)


# -- pose law ----------------------------------------------------------------


def test_pose_equilibrium_is_zero():
    curve = make_curve("deltoid")
    cp = make_params(curve)
    s = 1.3
    fr = curve.frenet(s)
    p = curve.point(s)
    st = np.array([p[0], p[1], fr.tangent_angle, 0.0, 0.7, 0.0])
    u = pose_control_law(*st[[0, 1, 2, 3, 5]], p[0], p[1], fr.tangent_angle, cp)
    assert np.array_equal(u, [0.0, 0.0, 0.0])


def test_pose_pure_damping_when_at_target():
    curve = make_curve("deltoid")
    cp = make_params(curve)
    s = 2.0
    fr = curve.frenet(s)
    p = curve.point(s)
    st = np.array([p[0], p[1], fr.tangent_angle, 0.8, 0.0, 0.2])
    a, omega, a_z = pose_control_law(*st[[0, 1, 2, 3, 5]], p[0], p[1], fr.tangent_angle, cp)
    assert a == pytest.approx(-cp.kv_pose * 0.8)
    assert omega == 0.0
    assert a_z == pytest.approx(-cp.kz_pose * 0.2)


def test_pose_heading_error_example():
    curve = make_curve("circle")
    cp = make_params(curve)
    p = curve.point(0.0)
    st = np.array([p[0], p[1], np.pi / 4, 0.0, 0.0, 0.0])
    _a, omega, _a_z = pose_control_law(*st[[0, 1, 2, 3, 5]], p[0], p[1], 0.0, cp)
    assert omega == pytest.approx(-5.0 * np.pi / 4.0)


def test_pose_accel_projects_position_error_on_heading():
    cp = make_params(make_curve("circle"))
    rng = np.random.default_rng(5)
    for _ in range(50):
        st = rng.normal(size=6)
        target = rng.normal(size=2)
        tpsi = rng.uniform(-np.pi, np.pi)
        a, omega, _a_z = pose_control_law(*st[[0, 1, 2, 3, 5]], *target, tpsi, cp)
        h = np.array([np.cos(st[2]), np.sin(st[2])])
        expected = -cp.kv_pose * st[3] - cp.kp_pose * np.dot(st[:2] - target, h)
        assert a == pytest.approx(expected, rel=1e-12)
        assert omega == pytest.approx(-cp.kpsi_pose * wrap_angle(st[2] - tpsi), rel=1e-12)


# -- smoothstep and blending -------------------------------------------------


def test_beta_values_and_clamping():
    assert beta_smooth(0.0) == 0.0
    assert beta_smooth(1.0) == 1.0
    assert beta_smooth(0.5) == 0.5
    assert beta_smooth(-0.3) == 0.0
    assert beta_smooth(1.7) == 1.0


def test_beta_flat_at_both_ends():
    h = 1e-7
    assert abs(beta_smooth(h) - beta_smooth(0.0)) / h <= 1e-5
    assert abs(beta_smooth(1.0) - beta_smooth(1.0 - h)) / h <= 1e-5


def test_blend_sigma_examples():
    cp = make_params(make_curve("circle"))
    for d in (0.0, 0.01, 10.0):
        assert blend_weight(0.0, d, cp.revs_star, cp.d_sw) == 0.0
    assert blend_weight(cp.revs_star, 0.0, cp.revs_star, cp.d_sw) == 1.0
    assert blend_weight(2.5 * cp.revs_star, 0.0, cp.revs_star, cp.d_sw) == 1.0
    assert blend_weight(0.5 * cp.revs_star, 2.0 * cp.d_sw, cp.revs_star, cp.d_sw) == 0.0


def test_blend_sigma_reduces_to_product_when_gates_agree():
    cp = make_params(make_curve("circle"))
    # choose (revs, d) so both gates are equal: w = 0, and the blend is
    # the product of the two gates
    rng = np.random.default_rng(9)
    for _ in range(50):
        g = rng.uniform(0.0, 1.0)
        revs = _invert_beta(g) * cp.revs_star
        d = _invert_beta(1.0 - g) * cp.d_sw
        prod = beta_smooth(revs / cp.revs_star) * (1.0 - beta_smooth(d / cp.d_sw))
        assert blend_weight(revs, d, cp.revs_star, cp.d_sw) == pytest.approx(prod, abs=1e-12)


def _invert_beta(target):
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if beta_smooth(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_blend_sigma_anti_deadlock_recovers_displaced_agent():
    # laps done but pushed far from the vertex: product stalls at 0,
    # min form also 0 -> path following resumes; pushed slightly off:
    # min form keeps sigma high
    cp = make_params(make_curve("circle"))
    far = blend_weight(2.0, 10.0 * cp.d_sw, cp.revs_star, cp.d_sw)
    assert far == 0.0
    near = blend_weight(2.0, 0.2 * cp.d_sw, cp.revs_star, cp.d_sw)
    assert near >= 0.8


def test_blend_sigma_continuous_in_both_arguments():
    cp = make_params(make_curve("circle"))
    revs = np.linspace(0.0, 1.5, 601)
    dist = np.linspace(0.0, 2.0 * cp.d_sw, 601)
    for d in (0.0, 0.4 * cp.d_sw, cp.d_sw):
        vals = np.array([blend_weight(r, d, cp.revs_star, cp.d_sw) for r in revs])
        assert np.max(np.abs(np.diff(vals))) <= 0.02
    for r in (0.2, 0.7, 1.0, 1.3):
        vals = np.array([blend_weight(r, d, cp.revs_star, cp.d_sw) for d in dist])
        assert np.max(np.abs(np.diff(vals))) <= 0.02


# -- avoidance ---------------------------------------------------------------


def two_agent_states(cp, r, psi_other=np.pi):
    states = np.zeros((2, 6))
    states[1, 0] = r
    states[1, 2] = psi_other
    return states


def blended(i, states, revs_i, target, curve, cp, z_ref, z_ref_rate=0.0):
    """team_controls for agent i of an (n, 6) snapshot.

    Every agent gets the target (x, y, heading), the reference (z_ref,
    z_ref_rate) and a start z0 that puts revs_i revolutions behind its
    lifted coordinate.  Returns agent i's (controls, sigma, alpha, duty)
    with the controls (a, omega, a_z) as an array.  The record row
    carries no duty factor: it is recomputed from the row's sigma.
    """
    n = states.shape[0]
    lap = 2.0 * np.pi * cp.lift_gain
    rows, _sep = sk.team_controls(
        list(map(tuple, states.tolist())),
        (states[:, 4] - lap * float(revs_i)).tolist(),
        [float(z_ref)] * n,
        [float(z_ref_rate)] * n,
        curve,
        [tuple(map(float, target))] * n,
        cp,
    )
    assert rows[i][:6] == tuple(states[i].tolist())
    at = dict(zip(sk.TRAJECTORY_COLUMNS, rows[i]))
    duty = beta_smooth((cp.sigma_accept - at["sigma"]) / cp.delta_sigma)
    return record_controls(rows[i]), at["sigma"], at["alpha"], duty


def test_avoidance_force_zero_at_activation_radius():
    curve = make_curve("circle")
    cp = make_params(curve)
    states = two_agent_states(cp, cp.d_ao)
    fx, fy, prox, _sep = repulsion_sum(0, *states[:, 0:3].T.tolist(), cp.d_ao, cp)
    assert (fx, fy, prox) == (0.0, 0.0, 0.0)
    # no laps done: sigma = 0, full duty, and no avoidance authority
    _u, sigma, alpha, duty = blended(0, states, 0.0, (0.0, 0.0, 0.0), curve, cp, 0.0)
    assert sigma == 0.0
    assert duty == 1.0
    assert alpha == 0.0


def test_avoidance_force_hand_evaluated_magnitude():
    cp = make_params(make_curve("circle"))
    # anti-directional headings keep the co-direction modulation at 1
    states = two_agent_states(cp, cp.d_ao / 2.0)
    fx, fy, _prox, _sep = repulsion_sum(0, *states[:, 0:3].T.tolist(), cp.d_ao, cp)
    expected = (
        cp.k_avoid
        * (2.0 / cp.d_ao - 1.0 / cp.d_ao)
        * (4.0 / cp.d_ao**2)
        * (cp.d_ao / 2.0)
    )
    assert np.hypot(fx, fy) == pytest.approx(expected, rel=1e-12)
    assert fx < 0.0  # pushes away from the neighbor at +x


def test_avoidance_force_codirectional_reduction():
    cp = make_params(make_curve("circle"))
    anti = two_agent_states(cp, cp.d_ao / 2, np.pi)
    same = two_agent_states(cp, cp.d_ao / 2, 0.0)
    f_anti = repulsion_sum(0, *anti[:, 0:3].T.tolist(), cp.d_ao, cp)
    f_same = repulsion_sum(0, *same[:, 0:3].T.tolist(), cp.d_ao, cp)
    ratio = np.hypot(f_same[0], f_same[1]) / np.hypot(f_anti[0], f_anti[1])
    assert ratio == pytest.approx(cp.codir_factor, rel=1e-12)


def test_avoidance_duty_nonincreasing_and_zero_when_settled():
    # laps done; moving the target from d_sw onto the agent sweeps sigma
    # from 0 to 1 while the neighbor stays inside the avoidance radius
    curve = make_curve("circle")
    cp = make_params(curve)
    states = two_agent_states(cp, cp.d_ao / 2)
    rows = []
    for lam in np.linspace(1.0, 0.0, 101):
        target = (0.0, lam * cp.d_sw, 0.0)
        _u, sigma, alpha, duty = blended(0, states, cp.revs_star, target, curve, cp, 0.0)
        rows.append((sigma, duty, alpha))
    sigmas, duties, alphas = np.array(sorted(rows)).T
    assert sigmas[0] == 0.0 and sigmas[-1] == 1.0
    assert np.all(np.diff(duties) <= 1e-15)
    settled = sigmas >= cp.sigma_accept
    assert np.any(settled)
    assert np.all(duties[settled] == 0.0)
    assert np.all(alphas[settled] == 0.0)


def test_avoidance_shrunken_radius_when_near_settled():
    # with the default acceptance threshold the duty factor dies before
    # the shrink threshold, so raise it to expose the radius switch
    curve = make_curve("circle")
    cp = make_params(curve, sigma_accept=0.95)
    # halfway between the shrunken and full radius: only the full one acts
    r = 0.5 * (cp.shrink_factor * cp.d_safe + cp.d_ao)
    states = two_agent_states(cp, r)
    alphas = []
    for want in (0.80, 0.86):
        # laps done, target placed where the proximity gate reads want
        target = (0.0, _invert_beta(1.0 - want) * cp.d_sw, 0.0)
        _u, sigma, alpha, duty = blended(0, states, cp.revs_star, target, curve, cp, 0.0)
        assert sigma == pytest.approx(want, abs=1e-9)
        assert duty > 0.0
        alphas.append(alpha)
    assert alphas[0] > 0.0
    assert alphas[1] == 0.0


def test_avoidance_control_alignment_cases():
    cp = make_params(make_curve("circle"))
    st = np.array([0.0, 0.0, 0.3, 1.0, 0.0, 0.4])
    along = np.array([np.cos(0.3), np.sin(0.3)])
    a, omega, a_z = avoidance_control_law(float(np.arctan2(along[1], along[0])), st[2], st[3], st[5], cp)
    assert omega == pytest.approx(0.0, abs=1e-12)
    assert a == pytest.approx(cp.kv_avoid * (cp.v_max - 1.0), rel=1e-12)
    a_back, _omega, _a_z = avoidance_control_law(
        float(np.arctan2(-along[1], -along[0])), st[2], st[3], st[5], cp
    )
    assert a_back == pytest.approx(cp.kv_avoid * (-cp.v_max - 1.0), rel=1e-12)
    assert a_z == pytest.approx(-cp.kz_avoid * 0.4, rel=1e-12)


def test_avoidance_control_expression_oracle():
    cp = make_params(make_curve("deltoid"))
    rng = np.random.default_rng(17)
    for _ in range(50):
        st = rng.normal(size=6)
        F = rng.normal(size=2)
        psi_des = np.arctan2(F[1], F[0])
        a, omega, _a_z = avoidance_control_law(float(psi_des), st[2], st[3], st[5], cp)
        err = wrap_angle(psi_des - st[2])
        assert a == pytest.approx(cp.kv_avoid * (cp.v_max * np.cos(err) - st[3]), rel=1e-12)
        assert omega == pytest.approx(cp.komega_avoid * err, rel=1e-12)


# -- final blended control ---------------------------------------------------


def formation_setup(name="circle", n=4):
    curve = make_curve(name)
    cp = make_params(curve)
    sol = find_formation(curve, n)
    states = np.zeros((n, 6))
    order = np.sort(sol.theta)
    for i, th in enumerate(order):
        fr = curve.frenet(float(th))
        p = curve.point(float(th))
        states[i] = [p[0], p[1], fr.tangent_angle, 0.3, cp.lift_gain * th, 0.1]
    asn = assign_vertices(states, sol, curve, cp)
    return curve, cp, sol, states, asn


def vertex(asn, i):
    """Agent i's assigned (x, y, heading)."""
    return float(asn.position[i, 0]), float(asn.position[i, 1]), float(asn.heading[i])


def test_final_control_isolated_sweeping_agent_is_pure_path_following():
    curve, cp, sol, states, asn = formation_setup()
    spread = states.copy()
    spread[:, 0] += np.arange(4) * 10.0 * curve.scale  # isolate everyone
    z_ref = spread[1, 4] + 0.3
    rate = cp.lift_gain * cp.v_ref
    u, sigma, alpha, _duty = blended(1, spread, 0.0, vertex(asn, 1), curve, cp, z_ref, rate)
    ref = path_law(curve, cp, spread[1], z_ref, rate)
    assert sigma == 0.0
    assert alpha == 0.0
    assert u == pytest.approx(ref, rel=1e-12)


def test_final_control_settled_agent_is_pure_pose():
    curve, cp, sol, states, asn = formation_setup()
    spread = states.copy()
    # push everyone except agent 2 far away; agent 2 sits exactly on its
    # vertex with laps done -> sigma = 1, isolated -> alpha = 0
    for i in (0, 1, 3):
        spread[i, 0] += (i + 1) * 10.0 * curve.scale
    spread[2, :2] = asn.position[2]
    u, sigma, alpha, _duty = blended(2, spread, 2.0, vertex(asn, 2), curve, cp, asn.z_target[2])
    ref = np.array(pose_control_law(*spread[2, [0, 1, 2, 3, 5]], *vertex(asn, 2), cp))
    assert sigma == 1.0
    assert alpha == 0.0
    assert u == pytest.approx(ref, rel=1e-12)


def test_control_entry_points_reject_non_finite_states():
    curve, cp, sol, states, asn = formation_setup()
    bad = states.copy()
    bad[1, 2] = np.inf
    with pytest.raises(ControlError, match="finite"):
        decoupling_matrix(bad[1], curve, cp.lift_gain)


def test_final_control_no_neighbors_alpha_zero():
    curve, cp, sol, states, asn = formation_setup()
    spread = states.copy()
    spread[:, 0] += np.arange(4) * 10.0 * curve.scale
    for i in range(4):
        _u, _sigma, alpha, _duty = blended(i, spread, 0.0, vertex(asn, i), curve, cp, asn.z_target[i])
        assert alpha == 0.0


def test_final_control_blend_convexity():
    curve, cp, sol, states, asn = formation_setup()
    # the speed envelope and turn clamp act after the blend
    cp = unclamped(cp)
    rng = np.random.default_rng(31)
    rate = cp.lift_gain * cp.v_ref
    for _ in range(30):
        states2 = states.copy()
        states2[:, :2] += rng.uniform(-0.3, 0.3, size=(4, 2)) * curve.scale
        states2[:, 2] = rng.uniform(-np.pi, np.pi, size=4)
        states2[:, 3] = rng.uniform(0.1, 1.0, size=4)
        revs = rng.uniform(0.0, 2.0, size=4)
        i = int(rng.integers(0, 4))
        z_ref = states2[i, 4] + rng.uniform(-0.1, 0.1)
        full, sigma, _alpha, duty = blended(i, states2, revs[i], vertex(asn, i), curve, cp, z_ref, rate)
        u_tfl = path_law(curve, cp, states2[i], z_ref, rate)
        u_pose = np.array(pose_control_law(*states2[i, [0, 1, 2, 3, 5]], *vertex(asn, i), cp))
        u_nom = (1.0 - sigma) * u_tfl + sigma * u_pose
        lo = np.minimum(u_tfl, u_pose) - 1e-9
        hi = np.maximum(u_tfl, u_pose) + 1e-9
        assert np.all(u_nom >= lo) and np.all(u_nom <= hi)
        # a positive duty means sigma < sigma_accept < shrink_sigma, so the
        # field acts out to the full radius d_ao
        fx, fy, _prox, _sep = repulsion_sum(i, *states2[:, 0:3].T.tolist(), cp.d_ao, cp)
        if duty > 0.0 and np.hypot(fx, fy) > 0.0:
            psi_des = float(np.arctan2(duty * fy, duty * fx))
            u_avoid = np.array(
                avoidance_control_law(psi_des, states2[i, 2], states2[i, 3], states2[i, 5], cp)
            )
            lo2 = np.minimum(u_nom, u_avoid) - 1e-9
            hi2 = np.maximum(u_nom, u_avoid) + 1e-9
            assert np.all(full >= lo2) and np.all(full <= hi2)


def test_final_control_continuous_across_activation_boundaries():
    # drag one agent along straight paths crossing d = d_sw, r = d_ao,
    # and sigma = sigma_accept; per-step control changes must show no
    # jump above 10x the neighboring steps' changes
    curve, cp, sol, states, asn = formation_setup()
    rate = cp.lift_gain * cp.v_ref

    def max_jump_ratio(path_states, revs):
        outs = []
        for snap in path_states:
            u, *_ = blended(0, snap, revs, vertex(asn, 0), curve, cp, snap[0, 4], rate)
            outs.append(u)
        diffs = np.array([np.linalg.norm(b - a) for a, b in zip(outs, outs[1:])])
        ratios = []
        for k in range(1, len(diffs) - 1):
            neighbors = max(diffs[k - 1], diffs[k + 1], 1e-12)
            ratios.append(diffs[k] / neighbors)
        return max(ratios)

    # path 1: approach the assigned vertex through d = d_sw (revs done)
    snaps = []
    fr = curve.frenet(float(asn.theta[0]))
    for lam in np.linspace(2.0, 0.1, 401):
        snap = states.copy()
        snap[:, 0] += 10.0 * curve.scale * np.arange(4)  # isolate others
        snap[0, :2] = asn.position[0] + lam * cp.d_sw * fr.normal
        snap[0, 4] = cp.lift_gain * asn.theta[0]
        snaps.append(snap)
    assert max_jump_ratio(snaps, 1.0) <= 10.0

    # path 2: a neighbor crossing r = d_ao while agent 0 sweeps
    snaps = []
    for lam in np.linspace(2.0, 0.5, 401):
        snap = states.copy()
        snap[2:, 0] += 10.0 * curve.scale * np.arange(2)
        snap[1, :2] = states[0, :2] + [lam * cp.d_ao, 0.0]
        snap[1, 2] = wrap_angle(states[0, 2] + np.pi)
        snaps.append(snap)
    assert max_jump_ratio(snaps, 0.0) <= 10.0

    # path 3: sigma sweeping through sigma_accept via distance change
    snaps = []
    fr0 = curve.frenet(float(asn.theta[0]))
    for lam in np.linspace(1.2, 0.0, 401):
        snap = states.copy()
        snap[2:, 0] += 10.0 * curve.scale * np.arange(2)
        snap[0, :2] = asn.position[0] + lam * cp.d_sw * fr0.normal
        snap[0, 4] = cp.lift_gain * asn.theta[0]
        snap[1, :2] = snap[0, :2] + [0.8 * cp.d_ao, 0.0]
        snap[1, 2] = wrap_angle(snap[0, 2] + np.pi)
        snaps.append(snap)
    assert max_jump_ratio(snaps, 1.0) <= 10.0


# -- vertex assignment -------------------------------------------------------


def test_assign_vertices_identity_when_on_vertices():
    curve, cp, sol, states, asn = formation_setup()
    assert np.allclose(np.sort(asn.theta), np.sort(sol.theta))
    for i in range(4):
        s_i = np.mod(states[i, 4] / cp.lift_gain, TWO_PI)
        assert asn.theta[i] == pytest.approx(s_i, abs=1e-9)
    assert asn.total_arc <= 1e-9


def test_assign_vertices_shift_equivariance():
    curve, cp, sol, states, asn = formation_setup()
    shifted = np.roll(states, -1, axis=0)
    asn2 = assign_vertices(shifted, sol, curve, cp)
    assert np.allclose(asn2.theta, np.roll(asn.theta, -1))


def test_assign_vertices_beats_every_other_offset():
    curve = make_curve("circle")
    cp = make_params(curve)
    sol = find_formation(curve, 4)
    rng = np.random.default_rng(13)
    L = curve.length
    for _ in range(10):
        s_agents = rng.uniform(0.0, TWO_PI, size=4)
        states = np.zeros((4, 6))
        states[:, 4] = cp.lift_gain * s_agents
        asn = assign_vertices(states, sol, curve, cp)
        arc = lambda a, b: min(abs(a - b), L - abs(a - b))
        a_arc = np.array([curve.arclength(0.0, float(s)) for s in np.mod(s_agents, TWO_PI)])
        v_arc = np.array([curve.arclength(0.0, float(t)) for t in np.mod(sol.theta, TWO_PI)])
        agent_order = np.argsort(np.mod(s_agents, TWO_PI), kind="stable")
        vert_order = np.argsort(np.mod(sol.theta, TWO_PI), kind="stable")
        totals = []
        for k in range(4):
            totals.append(
                sum(
                    arc(a_arc[agent_order[i]], v_arc[vert_order[(i + k) % 4]])
                    for i in range(4)
                )
            )
        assert asn.total_arc <= min(totals) + 1e-9


def test_assign_vertices_count_mismatch():
    curve = make_curve("circle")
    cp = make_params(curve)
    sol = find_formation(curve, 4)
    with pytest.raises(ControlError):
        assign_vertices(np.zeros((3, 6)), sol, curve, cp)


# -- parameters --------------------------------------------------------------


def test_make_params_scale_derived_defaults():
    curve = make_curve("deltoid")
    cp = make_params(curve)
    scale = curve.scale
    assert cp.lift_gain == pytest.approx(scale / TWO_PI)
    assert cp.d_sw == pytest.approx(0.15 * scale)
    assert cp.d_ao == pytest.approx(0.12 * scale)
    assert cp.d_safe == pytest.approx(0.06 * scale)
    assert cp.sense_radius == pytest.approx(2.0 * cp.d_ao)
    assert cp.v_min == pytest.approx(0.05 * cp.v_ref)
    assert cp.v_max == pytest.approx(1.2 * cp.v_ref * curve.speed_max)


def test_make_params_rejects_unknown_and_invalid():
    curve = make_curve("circle")
    with pytest.raises(ControlError, match="no_such_gain"):
        make_params(curve, no_such_gain=1.0)
    with pytest.raises(ControlError, match="d_safe"):
        make_params(curve, d_safe=1.0, d_ao=0.5)
    with pytest.raises(ControlError, match="sigma_accept"):
        make_params(curve, sigma_accept=1.5)
    with pytest.raises(ControlError, match="above 'd_safe'"):
        make_params(curve, shrink_factor=1.0)
    # every field, curve-scaled or not, must be finite; the name is given
    for name in ControllerParams._fields:
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ControlError, match=f"'{name}' must be finite"):
                make_params(curve, **{name: bad})


def test_wrap_angle_convention():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3.0 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.3 - TWO_PI) == pytest.approx(0.3)


# -- recorded values ---------------------------------------------------------


def test_control_laws_match_recorded_values():
    # the path-following law of the tick, decoupling_matrix and the
    # duty-weighted repulsion at fixed inputs, recorded from the per-agent
    # scalar kernels this package started with
    curve = make_curve("deltoid")
    cp = make_params(curve)
    st = np.array([1.0, -0.4, 0.7, 0.6, 0.9, 0.2])
    u = path_law(curve, unclamped(cp), st, 0.8, 0.1)
    D = decoupling_matrix(st, curve, cp.lift_gain)
    states = np.zeros((3, 6))
    states[1, 0] = 0.1
    states[2, 1] = -0.15
    # agent 0 at sigma = 0.2: below shrink_sigma, so the full radius d_ao
    duty = beta_smooth((cp.sigma_accept - 0.2) / cp.delta_sigma)
    fx, fy, _prox, _sep = repulsion_sum(0, *states[:, 0:3].T.tolist(), cp.d_ao, cp)
    F = [duty * fx, duty * fy]
    u_rec = [-10.648510911660587, 92.08507578597421, -0.6]
    D_rec = [
        [-0.9988417774654824, -0.02886931402465983, -3.0330532310747],
        [-0.048115523374433054, 0.5993050664792894, -4.7105868011004155],
        [0.0, 0.0, 1.0],
    ]
    F_rec = [-18.180855173647984, 6.787236782431994]
    # the recording took dturn/ds by a central difference with step 1e-5,
    # -1.9e-11 here where the deltoid's is exactly 0; the tick's closed
    # form gives 2e-16, which moves u[0] by 8.6e-12
    assert np.allclose(u, u_rec, rtol=0, atol=2e-11)
    assert np.allclose(D, D_rec, rtol=0, atol=1e-13)
    assert np.allclose(F, F_rec, rtol=0, atol=1e-12)
    assert duty == pytest.approx(1.0, abs=1e-15)
