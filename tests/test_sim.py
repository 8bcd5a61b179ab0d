"""Tests for the mission simulator: integrator, helpers, closed loop."""

import re
import tracemalloc

import numpy as np
import pytest

from curveswarm import _sim_kernels as sk
from curveswarm import sim
from curveswarm.control import make_params
from curveswarm.curves import make_curve
from curveswarm.sim import (
    DT_MAX,
    MissionConfig,
    MissionError,
    TRAJECTORY_COLUMNS,
    initial_states,
    integrate_step,
    nearest_parameter,
    run_mission,
)

TWO_PI = 2.0 * np.pi


def run_recorded(config):
    """run_mission with every block of records copied: (metrics, pose, record)."""
    blocks = [np.empty((0, config.n, len(TRAJECTORY_COLUMNS)))]
    metrics, pose = run_mission(config, on_block=lambda records, *_: blocks.append(records.copy()))
    return metrics, pose, np.concatenate(blocks)


def curve_distance(p, curve):
    """Distance from the point p to the curve, by the adherence kernel."""
    dist, _s_at = sk.nearest_on_curve(curve, np.array([p[0]]), np.array([p[1]]))
    return float(dist[0])


# -- integrator ---------------------------------------------------------------


def test_integrate_step_straight_line_exact():
    # constant-derivative dynamics: RK4 reproduces them exactly
    states = np.array([[0.0, 0.0, 0.0, 1.0, 2.0, 0.5]])
    controls = np.zeros((1, 3))
    out = integrate_step(states, controls, 0.02)
    assert out[0, 0] == pytest.approx(0.02, abs=1e-15)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert out[0, 4] == pytest.approx(2.0 + 0.5 * 0.02, abs=1e-15)


def test_integrate_step_linear_channels_exact():
    # psi, v, z, vz under constant controls are polynomial in t (degree
    # <= 2), which classical RK4 integrates without error
    states = np.array([[0.0, 0.0, 0.3, 0.0, 1.0, 0.2]])
    controls = np.array([[0.7, -0.4, 0.9]])
    dt = 0.02
    out = integrate_step(states, controls, dt)
    assert out[0, 2] == pytest.approx(0.3 - 0.4 * dt, rel=1e-14)
    assert out[0, 3] == pytest.approx(0.7 * dt, rel=1e-14)
    assert out[0, 4] == pytest.approx(1.0 + 0.2 * dt + 0.5 * 0.9 * dt * dt, rel=1e-14)
    assert out[0, 5] == pytest.approx(0.2 + 0.9 * dt, rel=1e-14)


def test_integrate_step_matches_turning_arc():
    # constant speed and turn rate trace a circular arc
    v, om, dt = 1.3, 0.8, 0.02
    states = np.array([[0.0, 0.0, 0.0, v, 0.0, 0.0]])
    controls = np.array([[0.0, om, 0.0]])
    st = states
    for _ in range(50):
        st = integrate_step(st, controls, dt)
    t = 50 * dt
    assert st[0, 0] == pytest.approx(v / om * np.sin(om * t), abs=1e-9)
    assert st[0, 1] == pytest.approx(v / om * (1.0 - np.cos(om * t)), abs=1e-9)
    assert st[0, 2] == pytest.approx(om * t, abs=1e-12)


def test_integrate_step_validates_inputs():
    good = np.zeros((2, 6))
    with pytest.raises(MissionError):
        integrate_step(good, np.zeros((2, 3)), 0.0)
    with pytest.raises(MissionError):
        integrate_step(good, np.zeros((2, 3)), 2.0 * DT_MAX)
    with pytest.raises(MissionError):
        integrate_step(np.zeros((2, 5)), np.zeros((2, 3)), 0.01)
    with pytest.raises(MissionError):
        integrate_step(good, np.zeros((3, 3)), 0.01)
    bad = good.copy()
    bad[1, 2] = np.inf
    with pytest.raises(MissionError, match="finite"):
        integrate_step(bad, np.zeros((2, 3)), 0.01)


def test_rk4_fourth_order_convergence():
    # terminal-state error against a fine-step reference drops by about
    # 2^4 when the step is halved
    states = np.array([[0.1, -0.2, 0.4, 1.1, 0.0, 0.3]])
    controls = np.array([[0.6, 1.7, -0.4]])
    t_end = 0.64

    def terminal(dt):
        st = states
        for _ in range(int(round(t_end / dt))):
            st = integrate_step(st, controls, dt)
        return st[0]

    ref = terminal(0.0005)
    err_h = np.linalg.norm(terminal(0.016) - ref)
    err_h2 = np.linalg.norm(terminal(0.008) - ref)
    ratio = err_h / err_h2
    assert 12.0 <= ratio <= 20.0


# -- curve queries ------------------------------------------------------------


def test_distance_to_curve_brute_force_oracle():
    curve = make_curve("lissajous")
    scale = curve.scale
    dense = curve.point(np.linspace(0.0, TWO_PI, 200001))
    rng = np.random.default_rng(7)
    for _ in range(12):
        p = rng.uniform(-1.5, 1.5, size=2) * scale
        brute = float(np.min(np.hypot(dense[:, 0] - p[0], dense[:, 1] - p[1])))
        assert curve_distance(p, curve) == pytest.approx(brute, abs=1e-6 * scale)


def test_distance_to_curve_zero_on_curve():
    curve = make_curve("deltoid")
    for s in (0.1, 2.0, 4.4):
        p = curve.point(s)
        assert curve_distance(p, curve) <= 1e-9 * curve.scale


def test_nearest_parameter_recovers_on_curve_point():
    curve = make_curve("ellipse")
    for s in (0.3, 1.9, 5.5):
        p = curve.point(s)
        s_hat = nearest_parameter(p, curve)
        d = np.hypot(*(curve.point(s_hat) - p))
        assert d <= 1e-8 * curve.scale


@pytest.mark.parametrize("horizon, dt", [(1e300, 0.01), (120.0, 1e-300), (1e300, 1e-300)])
def test_mission_config_rejects_records_over_the_budget(horizon, dt):
    # checked before anything is allocated: 1e300 / 1e-300 overflows to inf
    config = MissionConfig(curve=make_curve("ellipse"), n=2, horizon=horizon, dt=dt)
    with pytest.raises(MissionError) as info:
        config.validate()
    message = str(info.value)
    for part in (f"horizon {horizon!r} s", f"dt {dt!r} s", "n = 2", f"{sim.RECORD_BUDGET} bytes"):
        assert part in message
    assert re.search(r"asks for (inf|[0-9.e+]+) bytes", message)


def test_mission_config_accepts_records_within_the_budget():
    per_tick = 8 * (3 + 4 * 12)
    horizon = 0.01 * (sim.RECORD_BUDGET // per_tick - 1)
    MissionConfig(curve=make_curve("ellipse"), n=12, horizon=horizon).validate()
    with pytest.raises(MissionError, match="budget"):
        MissionConfig(curve=make_curve("ellipse"), n=12, horizon=horizon + 0.02).validate()


@pytest.mark.parametrize("n", [1, 4, 12])
def test_record_budget_boundary(n):
    # validate alone: the mission keeps 8 bytes per tick of its times, its
    # min_distance and adherence series, and each agent's sigma, x, y and
    # psi.  dt = 2**-6 is exact in binary, so horizon / dt + 1 counts the
    # ticks exactly: the most ticks that fit pass, one more is refused
    dt = 2.0**-6
    ticks = sim.RECORD_BUDGET // (8 * (3 + 4 * n))
    MissionConfig(curve=make_curve("ellipse"), n=n, dt=dt, horizon=(ticks - 1) * dt).validate()
    with pytest.raises(MissionError, match="over the budget"):
        MissionConfig(curve=make_curve("ellipse"), n=n, dt=dt, horizon=ticks * dt).validate()


# -- reference march ----------------------------------------------------------


def march(z0, cap, t, rate, width):
    """march_profile for one agent: (z_ref, rate) arrays over the times t."""
    z, r = sk.march_profile(np.array([z0]), np.array([cap]), np.atleast_1d(t), rate, width)
    return z[:, 0], r[:, 0]


def test_march_profile_linear_then_eases_into_cap():
    z0, cap, rate, width = 0.0, 5.0, 0.5, 1.0
    z1, r1 = march(z0, cap, 2.0, rate, width)
    assert z1[0] == pytest.approx(1.0, rel=1e-12)
    assert r1[0] == pytest.approx(rate, rel=1e-12)
    t = np.linspace(0.0, 60.0, 1201)
    z, r = march(z0, cap, t, rate, width)
    assert z.shape == r.shape == t.shape
    assert np.all(z <= cap + 1e-12)
    assert np.all(np.diff(z) >= -1e-12)
    assert np.all(r >= -1e-12)
    assert z[-1] == pytest.approx(cap, abs=1e-8)
    assert r[-1] == pytest.approx(0.0, abs=1e-8)
    # one row per time, one column per agent: linear, easing from beyond
    # the width, easing from within it, and a sweep-only infinite cap
    starts = np.array([z0, z0, cap - 0.5 * width, z0])
    caps = np.array([cap, cap, cap, np.inf])
    times = np.array([2.0, 9.5, 1.0])
    z, r = sk.march_profile(starts, caps, times, rate, width)
    assert z.shape == r.shape == (3, 4)
    for k, t in enumerate(times):
        for i in range(4):
            zi, ri = march(starts[i], caps[i], t, rate, width)
            assert (z[k, i], r[k, i]) == (zi[0], ri[0])
    assert np.array_equal(z[:, 3], z0 + rate * times)
    assert np.all(r[:, 3] == rate)


def test_march_profile_c1_at_ease_junction():
    z0, cap, rate, width = 0.0, 5.0, 0.5, 1.0
    t_junction = (cap - z0 - width) / rate
    for eps in (1e-7, 1e-5):
        z, r = march(z0, cap, np.array([t_junction - eps, t_junction + eps]), rate, width)
        assert z[1] - z[0] == pytest.approx(2.0 * eps * rate, rel=1e-3)
        assert r[1] == pytest.approx(r[0], rel=1e-4)


# -- initial conditions -------------------------------------------------------


def test_initial_states_invariants():
    curve = make_curve("deltoid")
    cp = make_params(curve)
    config = MissionConfig(curve=curve, n=4, seed=3)
    rng = np.random.default_rng(config.seed)
    states, z0 = initial_states(config, cp, rng)
    assert states.shape == (4, 6)
    scale = curve.scale
    for i in range(4):
        # on the annulus around the curve
        assert curve_distance(states[i, 0:2], curve) <= config.annulus_frac * scale + 1e-9
        # heading near the local tangent
        s_near = nearest_parameter(states[i, 0:2], curve)
        fr = curve.frenet(s_near)
        dpsi = np.mod(states[i, 2] - fr.tangent_angle + np.pi, TWO_PI) - np.pi
        assert abs(dpsi) <= config.heading_spread + 1e-9
        # lifted coordinate consistent with the nearest parameter
        assert states[i, 4] == pytest.approx(z0[i], rel=1e-12)
        assert z0[i] / cp.lift_gain == pytest.approx(s_near, abs=1e-9)
        assert states[i, 3] >= cp.v_min - 1e-12
    for i in range(4):
        for j in range(i + 1, 4):
            gap = np.hypot(*(states[i, 0:2] - states[j, 0:2]))
            assert gap >= 2.0 * cp.d_ao - 1e-9


def test_initial_states_deterministic_per_seed():
    curve = make_curve("lissajous")
    cp = make_params(curve)
    config = MissionConfig(curve=curve, n=4, seed=11)
    a1, z1 = initial_states(config, cp, np.random.default_rng(11))
    a2, z2 = initial_states(config, cp, np.random.default_rng(11))
    assert np.array_equal(a1, a2)
    assert np.array_equal(z1, z2)


# -- mission configuration ----------------------------------------------------


def test_mission_config_validation():
    curve = make_curve("circle")
    with pytest.raises(MissionError):
        MissionConfig(curve=curve, n=0).validate()
    with pytest.raises(MissionError):
        MissionConfig(curve=curve, dt=0.05).validate()
    with pytest.raises(MissionError):
        MissionConfig(curve=curve, horizon=-1.0).validate()
    with pytest.raises(MissionError):
        MissionConfig(curve=curve, snapshot_times=(999.0,)).validate()
    with pytest.raises(MissionError):
        MissionConfig(curve="circle").validate()
    MissionConfig(curve=curve).validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("horizon", float("inf")),
        ("horizon", float("nan")),
        ("annulus_frac", float("nan")),
        ("annulus_frac", float("inf")),
        ("heading_spread", float("nan")),
        ("n", True),
        ("n", 4.0),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", False),
    ],
)
def test_mission_config_rejects_non_finite_and_non_integer_fields(field, value):
    # each of these used to pass validate and then fail inside run_mission
    # (OverflowError, TypeError or ValueError) instead of naming the field
    config = MissionConfig(curve=make_curve("ellipse"), **{"n": 2, field: value})
    with pytest.raises(MissionError, match=field):
        config.validate()
    with pytest.raises(MissionError, match=field):
        run_mission(config)


# -- closed loop --------------------------------------------------------------


def test_mission_deterministic_repeat():
    curve = make_curve("deltoid")
    config = MissionConfig(curve=curve, n=4, seed=0, horizon=12.0)
    m1, _, record1 = run_recorded(config)
    m2, _, record2 = run_recorded(config)
    assert np.array_equal(record1, record2)
    assert np.array_equal(m1.min_distance, m2.min_distance)
    assert np.array_equal(m1.sigma, m2.sigma)
    assert m1.final_vertex_errors is not None
    assert np.array_equal(m1.final_vertex_errors, m2.final_vertex_errors)


def test_mission_log_layout():
    curve = make_curve("ellipse")
    config = MissionConfig(curve=curve, n=2, seed=1, horizon=2.0, dt=0.01)
    metrics, pose, record = run_recorded(config)
    n_records = int(round(config.horizon / config.dt)) + 1
    assert record.shape == (n_records, 2, len(TRAJECTORY_COLUMNS))
    assert metrics.times.shape == (n_records,)
    assert np.allclose(np.diff(metrics.times), config.dt)
    # the mission keeps the pose columns, which lead the record
    assert TRAJECTORY_COLUMNS[:3] == ("x", "y", "psi")
    assert np.array_equal(pose, record[:, :, 0:3])
    assert metrics.sigma.shape == (n_records, 2)
    # sweep-only missions never blend
    assert float(np.max(metrics.sigma)) == 0.0
    assert metrics.final_vertex_errors is None


def test_mission_min_distance_is_the_closest_pair():
    # the tick's neighbor loop replaces a pairwise pass per tick: every
    # record must still hold the team's smallest separation, and the
    # reported closest pair must attain the run's minimum
    curve = make_curve("rose-3")
    config = MissionConfig(curve=curve, n=3, seed=2, horizon=8.0)
    metrics, pose = run_mission(config)
    xy = pose[:, :, 0:2]
    for k in range(xy.shape[0]):
        assert metrics.min_distance[k] == sk.min_pair_distance(xy[k, :, 0], xy[k, :, 1])
    i, j = metrics.closest_pair
    k = int(np.argmin(metrics.min_distance))
    assert 0 <= i < j < config.n
    assert np.hypot(*(xy[k, i] - xy[k, j])) == pytest.approx(metrics.min_distance[k], abs=1e-15)


def test_sweep_only_reference_keeps_marching():
    curve = make_curve("circle")
    config = MissionConfig(curve=curve, n=1, seed=0, horizon=20.0)
    cp = make_params(curve)
    _metrics, _pose, record = run_recorded(config)
    z = record[:, 0, TRAJECTORY_COLUMNS.index("z")]
    # one agent, no avoidance: lifted progress tracks the open-ended
    # reference rate over the whole run
    gained = z[-1] - z[0]
    assert gained == pytest.approx(cp.lift_gain * cp.v_ref * 20.0, rel=0.02)


def test_single_agent_circle_adherence():
    curve = make_curve("circle")
    config = MissionConfig(curve=curve, n=1, seed=0, horizon=30.0)
    metrics, _log = run_mission(config)
    after = metrics.times >= 10.0
    mean_adh = float(np.mean(metrics.mean_adherence[after]))
    assert mean_adh <= 1e-3 * curve.scale


def test_mission_practical_invariance_during_sweep():
    curve = make_curve("deltoid")
    config = MissionConfig(curve=curve, n=4, seed=0, horizon=16.0)
    metrics, _log = run_mission(config)
    window = (metrics.times >= 10.0) & (metrics.times <= 16.0)
    assert float(np.mean(metrics.mean_adherence[window])) <= 2e-2 * curve.scale


def test_mission_controls_stay_bounded():
    curve = make_curve("deltoid")
    config = MissionConfig(curve=curve, n=4, seed=0, horizon=40.0)
    _metrics, _pose, record = run_recorded(config)
    for name in ("accel", "turn_rate", "lift_accel"):
        col = TRAJECTORY_COLUMNS.index(name)
        assert float(np.max(np.abs(record[:, :, col]))) <= 1e3


def test_mission_vertex_errors_settle_monotonically():
    curve = make_curve("deltoid")
    config = MissionConfig(curve=curve, n=4, seed=0, horizon=100.0)
    metrics, pose = run_mission(config)
    assert metrics.completed
    pos = metrics.assignment.position
    errs = np.hypot(
        pose[:, :, 0] - pos[None, :, 0], pose[:, :, 1] - pos[None, :, 1]
    ).max(axis=1)
    tail = errs[int(0.9 * errs.shape[0]) :]
    slack = 1e-6 * curve.scale
    assert np.all(np.diff(tail) <= slack)
    assert metrics.final_vertex_errors is not None
    assert float(metrics.final_vertex_errors.max()) <= 0.02 * curve.scale
    k100 = min(int(round(100.0 / config.dt)), metrics.sigma.shape[0] - 1)
    assert float(metrics.sigma[k100].min()) >= 0.99


def test_mission_collision_flag_truncates():
    # two coincident agents trip the abort distance on the first record
    curve = make_curve("circle")
    cp = make_params(curve)
    p = curve.point(0.0)
    st = np.zeros((2, 6))
    st[:, 0] = p[0]
    st[:, 1] = p[1]
    st[:, 3] = cp.v_min
    min_dist, adh, sigma, pose, collision, nonfinite = sk.mission_core(
        curve, st, np.zeros(2), np.full(2, np.inf), None, cp, 0.01, 100
    )
    assert collision
    assert not nonfinite
    # the series hold the one record made
    assert pose.shape == (1, 2, 3)
    assert sigma.shape == (1, 2)
    assert min_dist.shape == adh.shape == (1,)
    assert float(min_dist[0]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "x0, filled, collision, nonfinite",
    [(np.nan, 0, False, True), (0.0, 1, True, False)],
    ids=["nonfinite-start", "collision-at-tick-0"],
)
def test_truncated_mission_adherence_has_one_value_per_record(
    monkeypatch, x0, filled, collision, nonfinite
):
    # two coincident agents on the circle; a NaN start records nothing
    curve = make_curve("circle")
    cp = make_params(curve)
    p = curve.point(0.0)
    st = np.zeros((2, 6))
    st[:, 0] = p[0] + x0
    st[:, 1] = p[1]
    st[:, 3] = cp.v_min
    monkeypatch.setattr("curveswarm.sim.initial_states", lambda *args: (st, np.zeros(2)))
    metrics, pose, record = run_recorded(MissionConfig(curve=curve, n=2, horizon=1.0))
    assert metrics.collision is collision
    assert metrics.nonfinite is nonfinite
    assert metrics.mean_adherence.shape == (filled,)
    assert record.shape[0] == pose.shape[0] == metrics.times.shape[0] == filled
    assert np.all(metrics.mean_adherence == pytest.approx(0.0, abs=1e-12))


def test_mission_finder_n_mismatch_rejected():
    from curveswarm.finder import FinderConfig

    curve = make_curve("ellipse")
    config = MissionConfig(curve=curve, n=4, finder=FinderConfig(n=5))
    with pytest.raises(MissionError):
        run_mission(config)


# -- streamed record ----------------------------------------------------------


def test_collected_record_is_the_whole_record(monkeypatch):
    # the loop reuses one block buffer: copied as each block arrives, the
    # record collected equals, bit for bit, the record made tick by tick
    # from the same start and kept whole, as the loop kept it before it
    # streamed; the kept series and poses are that record's columns
    calls = []
    real = sk.mission_core
    monkeypatch.setattr(sk, "mission_core", lambda *args: calls.append(args) or real(*args))
    config = MissionConfig(curve=make_curve("deltoid"), n=4, seed=0, horizon=12.0)
    metrics, pose, record = run_recorded(config)
    curve, states0, z0, z_cap, targets, cp, dt, n_steps, _keep = calls[0]
    states = list(map(tuple, states0.tolist()))
    whole = []
    for start in range(0, n_steps + 1, sk.TICK_BLOCK):
        t = np.arange(start, min(start + sk.TICK_BLOCK, n_steps + 1)) * dt
        z_ref, rate = sk.march_profile(
            z0, z_cap, t, cp.lift_gain * cp.v_ref, cp.lift_gain * cp.brake_width
        )
        for zr, rr in zip(z_ref.tolist(), rate.tolist()):
            rows, _sep = sk.team_controls(states, z0.tolist(), zr, rr, curve, targets.tolist(), cp)
            whole.append(rows)
            states = sk.rk4_step_team(rows, dt)
    whole = np.array(whole)
    assert n_steps + 1 > 2 * sk.TICK_BLOCK
    assert record.shape == whole.shape
    assert record.tobytes() == whole.tobytes()
    assert np.array_equal(pose, whole[:, :, 0:3])
    assert np.array_equal(metrics.sigma, whole[:, :, TRAJECTORY_COLUMNS.index("sigma")])


def _loop_peak(monkeypatch, horizon):
    """Traced peak from the mission loop's start to run_mission's return."""
    real = sk.mission_core

    def loop(*args):
        tracemalloc.reset_peak()
        return real(*args)

    monkeypatch.setattr(sk, "mission_core", loop)
    config = MissionConfig(curve=make_curve("deltoid"), n=4, seed=0, horizon=horizon)
    tracemalloc.start()
    try:
        run_mission(config, on_block=lambda *block: None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mission_memory_grows_by_the_kept_series_only(monkeypatch):
    # with an on_block that keeps nothing, 3000 more ticks cost what the
    # mission keeps per tick (times, min_distance, adherence, and each
    # agent's sigma, x, y, psi), not the 11-column record of each agent
    grown = _loop_peak(monkeypatch, 40.0) - _loop_peak(monkeypatch, 10.0)
    kept = 3000 * 8 * (3 + 4 * 4)
    assert grown <= 1.1 * kept
    assert 1.1 * kept < 3000 * 4 * len(TRAJECTORY_COLUMNS) * 8


def test_nearest_sample_temporaries_stay_small():
    # one 512-tick block of the deltoid reference mission, 2048 points:
    # at 256 points and 2048 pairs per pass the search peaked at 1.9 MiB
    curve = make_curve("deltoid")
    config = MissionConfig(curve=curve, n=4, seed=0, c_target=(0.0, 0.0), horizon=6.0)
    blocks = []
    run_mission(config, on_block=lambda records, *_: blocks.append(records[:, :, 0:2].copy()))
    xy = blocks[0].reshape(-1, 2)
    assert xy.shape == (4 * sk.TICK_BLOCK, 2)
    px, py = xy[:, 0].copy(), xy[:, 1].copy()
    chunks = curve.sample_chunks()
    tracemalloc.start()
    try:
        best = sk.nearest_sample(px, py, chunks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 2**20
    _s, sample_x, sample_y = curve.sample_cache()
    dx = sample_x - px[:, None]
    dy = sample_y - py[:, None]
    assert np.array_equal(best, np.argmin(dx * dx + dy * dy, axis=1))
