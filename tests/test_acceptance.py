"""Acceptance gate: the package's eleven headline requirements.

Each test prints one pass/fail line with the measured values next to
the required limits, then asserts.  Timed checks run after a warmup
fixture so kernel compilation never counts against wall limits.
"""

import time

import numpy as np
import pytest

from curveswarm import finder
from curveswarm.control import decoupling_matrix, make_params
from curveswarm.curves import SQUARE_SUITE, make_curve
from curveswarm.finder import FinderConfig, gauss_newton_solve, multistart
from curveswarm.output import write_metrics_csv
from curveswarm.sim import MissionConfig, integrate_step, run_mission

TWO_PI = 2.0 * np.pi


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nacceptance {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module", autouse=True)
def warmup():
    # run both halves once so first-call costs stay out of the timed checks
    multistart(make_curve("circle"), FinderConfig(n=4, seed=0))
    run_mission(
        MissionConfig(curve=make_curve("circle"), n=1, seed=0, horizon=0.5)
    )


def test_criterion_01_deltoid_square_residual_and_time():
    curve = make_curve("deltoid")
    config = FinderConfig(n=4, k_max=100, seed=0, c_target=(0.0, 0.0))
    t0 = time.perf_counter()
    best, runs = multistart(curve, config, return_all=True)
    wall = time.perf_counter() - t0
    iters = max(run.iterations for run in runs)
    ok = best.residual_norm <= 1e-8 and wall < 1.0 and iters <= 100
    _report(
        1,
        ok,
        f"deltoid n=4 residual {best.residual_norm:.3e} (<= 1e-8),"
        f" wall {wall:.3f} s (< 1 s), max iterations {iters} (<= 100)",
    )
    assert ok


def test_criterion_02_deltoid_triangle_on_cusps():
    curve = make_curve("deltoid")
    scale = curve.scale
    best = multistart(curve, FinderConfig(n=3, seed=0))
    # cusp parameters: the three zeros of the parameter speed
    cusp_s = np.array([0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0])
    cusps = curve.point(cusp_s)
    worst = 0.0
    for v in best.vertices:
        worst = max(worst, float(np.min(np.hypot(*(cusps - v).T))))
    # restarts from the solution rotated by the deltoid's symmetry land
    # on the same cusp set
    rot_ok = True
    for shift in (TWO_PI / 3.0, 2.0 * TWO_PI / 3.0):
        re = gauss_newton_solve(
            np.mod(best.theta + shift, TWO_PI), curve, FinderConfig(n=3, seed=0)
        )
        for v in re.vertices:
            if float(np.min(np.hypot(*(cusps - v).T))) > 1e-3 * scale:
                rot_ok = False
    ok = worst <= 1e-3 * scale and rot_ok
    _report(
        2,
        ok,
        f"deltoid n=3 vertex-to-cusp distance {worst:.2e}"
        f" (<= {1e-3 * scale:.2e}), rotated restarts on the cusp set: {rot_ok}",
    )
    assert ok


def test_criterion_03_deltoid_pentagon_best_fit():
    curve = make_curve("deltoid")
    best = multistart(curve, FinderConfig(n=5, seed=0))
    ok = 0.5 <= best.cost <= 1.2
    _report(
        3,
        ok,
        f"deltoid n=5 best-fit cost {best.cost:.4f} (in [0.5, 1.2]),"
        f" residual 2-norm {best.residual_norm:.4f}",
    )
    assert ok


def test_criterion_04_inscribed_square_suite():
    hits = 0
    slowest = 0.0
    worst_name = ""
    for name in SQUARE_SUITE:
        curve = make_curve(name)
        t0 = time.perf_counter()
        sol = multistart(
            curve, FinderConfig(n=4, square_mode=True, seed=9)
        )
        wall = time.perf_counter() - t0
        if wall > slowest:
            slowest, worst_name = wall, name
        assert wall < 5.0, f"{name} took {wall:.2f} s"
        if sol.residual_norm <= 1e-9:
            hits += 1
    ok = hits >= 12
    _report(
        4,
        ok,
        f"inscribed squares on {hits}/{len(SQUARE_SUITE)} catalog curves"
        f" (need >= 12), slowest {worst_name} {slowest:.2f} s (< 5 s)",
    )
    assert ok


def test_criterion_05_jacobian_vs_central_differences():
    rng = np.random.default_rng(3)
    h = 1e-6
    worst = 0.0
    for name in ("ellipse", "deltoid", "lissajous-32"):
        curve = make_curve(name)
        for _ in range(334):
            n = int(rng.integers(3, 7))
            theta = rng.uniform(0.0, TWO_PI, size=n)
            J = finder.jacobian(theta, curve)
            num = np.empty_like(J)
            for c in range(n):
                tp = theta.copy()
                tm = theta.copy()
                tp[c] += h
                tm[c] -= h
                num[:, c] = (
                    finder.residuals(tp, curve) - finder.residuals(tm, curve)
                ) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(J - num))))
    ok = worst <= 1e-5
    _report(
        5,
        ok,
        f"jacobian vs central differences, max abs error {worst:.2e}"
        " (<= 1e-5) over 1002 random vertex sets on 3 curves",
    )
    assert ok


def test_criterion_06_decoupling_determinant_identity():
    rng = np.random.default_rng(4)
    curves = [make_curve(n) for n in ("circle", "deltoid", "lissajous-32")]
    worst = 0.0
    for k in range(1000):
        curve = curves[k % 3]
        cp = make_params(curve)
        s = rng.uniform(0.0, TWO_PI)
        p = curve.point(s)
        state = np.array(
            [
                p[0] + rng.uniform(-0.3, 0.3) * curve.scale,
                p[1] + rng.uniform(-0.3, 0.3) * curve.scale,
                rng.uniform(-np.pi, np.pi),
                rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0),
                cp.lift_gain * rng.uniform(0.0, TWO_PI),
                rng.uniform(-1.0, 1.0),
            ]
        )
        D = decoupling_matrix(state, curve, cp.lift_gain)
        worst = max(worst, abs(float(np.linalg.det(D)) + state[3]))
    ok = worst <= 1e-10
    _report(
        6,
        ok,
        f"|det(D) + v| max {worst:.2e} (<= 1e-10) over 1000 lifted states",
    )
    assert ok


def test_criterion_07_circle_triangle_grid_oracle():
    curve = make_curve("circle")
    config = FinderConfig(n=3, seed=0)
    best = multistart(curve, config)

    grid = np.linspace(0.0, TWO_PI, 120, endpoint=False)
    cg, sg = np.cos(grid), np.sin(grid)
    j_min = np.inf
    arg = (0.0, 0.0, 0.0)
    # chunk over the first vertex; the remaining two broadcast.  The
    # literal global minimum of the cost is the coincident collapse
    # (J = 0 exactly), so the oracle applies the same geometric
    # feasibility predicate the finder uses before comparing.
    c2, s2 = cg[:, None], sg[:, None]
    c3, s3 = cg[None, :], sg[None, :]
    min_sep_sq = (0.01 * curve.scale) ** 2
    min_mean_side = 0.05 * curve.scale
    for i1 in range(grid.shape[0]):
        e1x, e1y = cg[i1] - c3, sg[i1] - s3  # gamma(t1) - gamma(t3)
        e2x, e2y = c2 - cg[i1], s2 - sg[i1]  # gamma(t2) - gamma(t1)
        e3x, e3y = c3 - c2, s3 - s2  # gamma(t3) - gamma(t2)
        q1 = e1x * e1x + e1y * e1y
        q2 = e2x * e2x + e2y * e2y
        q3 = e3x * e3x + e3y * e3y
        rl1 = q2 - q1
        rl2 = q3 - q2
        rl3 = q1 - q3
        a12 = e2x * e1x + e2y * e1y
        a23 = e3x * e2x + e3y * e2y
        a31 = e1x * e3x + e1y * e3y
        ra1 = a12 - a23
        ra2 = a23 - a31
        ra3 = a31 - a12
        J = 0.5 * (
            rl1 * rl1 + rl2 * rl2 + rl3 * rl3
            + ra1 * ra1 + ra2 * ra2 + ra3 * ra3
        )
        mean_side = (np.sqrt(q1) + np.sqrt(q2) + np.sqrt(q3)) / 3.0
        feasible = (
            (q1 >= min_sep_sq)
            & (q2 >= min_sep_sq)
            & (q3 >= min_sep_sq)
            & (mean_side >= min_mean_side)
        )
        J = np.where(feasible, J, np.inf)
        k = int(np.argmin(J))
        if float(J.flat[k]) < j_min:
            j_min = float(J.flat[k])
            arg = (grid[i1], grid[k // 120], grid[k % 120])

    refined = gauss_newton_solve(np.array(arg), curve, config)
    # align the rotational freedom of the circle by the first sorted
    # vertex parameter, then compare vertex positions
    ta = np.sort(np.mod(best.theta, TWO_PI))
    tb = np.sort(np.mod(refined.theta, TWO_PI))
    delta = tb[0] - ta[0]
    pa = curve.point(ta + delta)
    pb = curve.point(tb)
    pos_err = float(np.max(np.hypot(*(pa - pb).T)))
    ok = best.cost <= j_min + 1e-15 and pos_err <= 1e-6
    _report(
        7,
        ok,
        f"circle n=3: multistart J {best.cost:.3e} <= grid(120^3) min"
        f" {j_min:.3e}; refined-vs-multistart vertex agreement {pos_err:.2e}"
        " (<= 1e-6)",
    )
    assert ok


def _mission_criterion(name, c_target, seed):
    curve = make_curve(name)
    cp = make_params(curve)
    config = MissionConfig(
        curve=curve, n=4, seed=seed, c_target=c_target, dt=0.01, horizon=120.0
    )
    t0 = time.perf_counter()
    metrics, _log = run_mission(config)
    wall = time.perf_counter() - t0
    k100 = min(int(round(100.0 / config.dt)), metrics.sigma.shape[0] - 1)
    sigma100 = float(metrics.sigma[k100].min())
    err = float(metrics.final_vertex_errors.max())
    dmin = float(metrics.min_distance.min())
    scale = curve.scale
    ok = (
        sigma100 >= 0.99
        and err <= 0.02 * scale
        and not metrics.collision
        and dmin >= 0.95 * cp.d_safe
        and wall < 60.0
    )
    detail = (
        f"{name} n=4 seed={seed}: min sigma(100 s) {sigma100:.4f} (>= 0.99),"
        f" vertex error {err:.4f} (<= {0.02 * scale:.4f}),"
        f" min distance {dmin:.3f} (>= {0.95 * cp.d_safe:.3f}),"
        f" collision {metrics.collision}, wall {wall:.1f} s (< 60 s)"
    )
    return ok, detail


def test_criterion_08_mission_reproduction():
    ok_a, detail_a = _mission_criterion("deltoid", (0.0, 0.0), seed=0)
    ok_b, detail_b = _mission_criterion("lissajous-32", (0.5, 0.5), seed=1)
    _report(8, ok_a and ok_b, detail_a + "; " + detail_b)
    assert ok_a and ok_b


def test_criterion_09_single_agent_circle_adherence():
    curve = make_curve("circle")
    config = MissionConfig(curve=curve, n=1, seed=0, horizon=30.0)
    metrics, _log = run_mission(config)
    after = metrics.times >= 10.0
    mean_adh = float(np.mean(metrics.mean_adherence[after]))
    ok = mean_adh <= 1e-3 * curve.scale
    _report(
        9,
        ok,
        f"single-agent circle sweep, mean adherence after 10 s"
        f" {mean_adh:.2e} (<= {1e-3 * curve.scale:.2e})",
    )
    assert ok


def test_criterion_10_integrator_order():
    states = np.array([[0.1, -0.2, 0.4, 1.1, 0.0, 0.3]])
    controls = np.array([[0.6, 1.7, -0.4]])
    t_end = 0.64
    dt = 0.016

    def terminal(step):
        st = states
        for _ in range(int(round(t_end / step))):
            st = integrate_step(st, controls, step)
        return st[0]

    ref = terminal(dt / 10.0)
    err_h = float(np.linalg.norm(terminal(dt) - ref))
    err_h2 = float(np.linalg.norm(terminal(dt / 2.0) - ref))
    ratio = err_h / err_h2
    ok = 12.0 <= ratio <= 20.0
    _report(
        10,
        ok,
        f"halving dt shrinks terminal error by {ratio:.2f}x"
        f" (in [12, 20]; errors {err_h:.2e} -> {err_h2:.2e})",
    )
    assert ok


def test_criterion_11_deterministic_metrics_bytes(tmp_path):
    curve = make_curve("deltoid")
    config = MissionConfig(
        curve=curve, n=4, seed=0, c_target=(0.0, 0.0), horizon=20.0
    )
    p1 = tmp_path / "run1.csv"
    p2 = tmp_path / "run2.csv"
    m1, _ = run_mission(config)
    write_metrics_csv(p1, m1)
    m2, _ = run_mission(config)
    write_metrics_csv(p2, m2)
    same = p1.read_bytes() == p2.read_bytes()
    _report(
        11,
        same,
        f"identical seeds give byte-identical metrics CSV: {same}"
        f" ({p1.stat().st_size} bytes)",
    )
    assert same
