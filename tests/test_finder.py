"""Formation finder tests: residual oracles, Jacobian checks, solver behavior."""

import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from curveswarm import _finder_kernels as fk
from curveswarm import finder
from curveswarm.config import ConfigError, load_config
from curveswarm.curves import catalog_names, make_curve

TWO_PI = 2.0 * np.pi


def polygon_residual_oracle(pts, square_mode=False):
    """Direct substitution of the defect definitions from raw points."""
    n = len(pts)
    e = [pts[i] - pts[i - 1] for i in range(n)]
    r_len = [e[(i + 1) % n] @ e[(i + 1) % n] - e[i] @ e[i] for i in range(n)]
    r_ang = [
        e[(i + 1) % n] @ e[i] - e[(i + 2) % n] @ e[(i + 1) % n] for i in range(n)
    ]
    rows = r_len + r_ang
    if square_mode:
        lbar = np.mean([np.linalg.norm(v) for v in e])
        rows.append(np.linalg.norm(pts[0] - pts[2]) - np.sqrt(2.0) * lbar)
        rows.append(np.linalg.norm(pts[1] - pts[3]) - np.sqrt(2.0) * lbar)
    return np.array(rows)


def test_residuals_zero_on_uniform_circle_square():
    circ = make_curve("circle")
    r = finder.residuals(np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]), circ)
    assert r.shape == (8,)
    assert np.max(np.abs(r)) < 1e-14


def test_residuals_zero_on_uniform_circle_triangle():
    circ = make_curve("circle")
    r = finder.residuals(np.array([0.0, TWO_PI / 3, 2 * TWO_PI / 3]), circ)
    assert r.shape == (6,)
    assert np.max(np.abs(r)) < 1e-14


def test_residuals_match_direct_substitution_oracle():
    circ = make_curve("circle")
    theta = np.array([0.0, np.pi / 2 + 0.1, np.pi, 3 * np.pi / 2])
    r = finder.residuals(theta, circ)
    pts = circ.point(theta)
    assert np.max(np.abs(r - polygon_residual_oracle(pts))) < 1e-12


def test_residuals_square_mode_matches_oracle():
    ell = make_curve("ellipse")
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta = np.sort(rng.uniform(0, TWO_PI, 4))
        r = finder.residuals(theta, ell, square_mode=True)
        assert r.shape == (10,)
        pts = ell.point(theta)
        assert np.max(np.abs(r - polygon_residual_oracle(pts, True))) < 1e-12


def test_residuals_rejects_bad_inputs():
    circ = make_curve("circle")
    with pytest.raises(finder.FinderError):
        finder.residuals(np.array([0.0, 1.0]), circ)
    with pytest.raises(finder.FinderError):
        finder.residuals(np.array([0.0, 1.0, 2.0]), circ, square_mode=True)


def test_cost_is_half_sum_of_squares():
    ell = make_curve("ellipse")
    theta = np.array([0.1, 1.3, 2.9, 4.4])
    r = finder.residuals(theta, ell)
    expected = 0.5 * np.sum(r**2)
    got = finder.cost(theta, ell, finder.FinderConfig(n=4))
    assert abs(got - expected) < 1e-14 * max(1.0, expected)
    theta0 = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    circ = make_curve("circle")
    assert finder.cost(theta0, circ, finder.FinderConfig(n=4)) < 1e-28


def test_jacobian_stencil_zeros_exact():
    # n = 6 keeps both stencils proper subsets of the columns
    ell = make_curve("ellipse")
    rng = np.random.default_rng(11)
    n = 6
    for _ in range(200):
        theta = rng.uniform(0, TWO_PI, n)
        J = finder.jacobian(theta, ell)
        for i in range(n):
            len_cols = {(i - 1) % n, i, (i + 1) % n}
            ang_cols = len_cols | {(i + 2) % n}
            for j in range(n):
                if j not in len_cols:
                    assert J[i, j] == 0.0
                if j not in ang_cols:
                    assert J[n + i, j] == 0.0


def numeric_jacobian(theta, curve, square_mode, h=1e-6):
    cols = []
    for j in range(len(theta)):
        tp = theta.copy()
        tm = theta.copy()
        tp[j] += h
        tm[j] -= h
        rp = finder.residuals(tp, curve, square_mode)
        rm = finder.residuals(tm, curve, square_mode)
        cols.append((rp - rm) / (2 * h))
    return np.stack(cols, axis=1)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for name, count in [("ellipse", 334), ("deltoid", 333), ("lissajous-32", 333)]:
        curve = make_curve(name)
        for _ in range(count):
            theta = rng.uniform(0, TWO_PI, 5)
            J = finder.jacobian(theta, curve)
            Jfd = numeric_jacobian(theta, curve, False)
            worst = max(worst, np.max(np.abs(J - Jfd)))
    assert worst <= 1e-5


def test_jacobian_square_rows_match_finite_differences():
    ell = make_curve("ellipse")
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        theta = np.sort(rng.uniform(0, TWO_PI, 4))
        if np.min(np.diff(theta)) < 1e-2:
            continue  # keep away from coincident vertices where ||.|| kinks
        J = finder.jacobian(theta, ell, square_mode=True)
        Jfd = numeric_jacobian(theta, ell, True)
        worst = max(worst, np.max(np.abs(J - Jfd)))
    assert worst <= 1e-5


def test_gradient_matches_finite_differences_of_cost():
    delt = make_curve("deltoid")
    cfg = finder.FinderConfig(n=5)
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(50):
        theta = rng.uniform(0, TWO_PI, 5)
        r = finder.residuals(theta, delt)
        J = finder.jacobian(theta, delt)
        grad = J.T @ r
        for j in range(5):
            tp = theta.copy()
            tm = theta.copy()
            tp[j] += h
            tm[j] -= h
            g_fd = (finder.cost(tp, delt, cfg) - finder.cost(tm, delt, cfg)) / (2 * h)
            assert abs(grad[j] - g_fd) <= 1e-5


def test_gn_circle_square_from_noisy_uniform():
    circ = make_curve("circle")
    cfg = finder.FinderConfig(n=4)
    rng = np.random.default_rng(8)
    base = np.arange(4) * np.pi / 2
    for _ in range(10):
        theta0 = base + rng.normal(0, 0.05, 4)
        sol = finder.gauss_newton_solve(theta0, circ, cfg)
        assert sol.residual_norm <= 1e-10
        gaps = np.sort(np.mod(np.diff(np.sort(sol.theta), append=np.sort(sol.theta)[0] + TWO_PI), TWO_PI))
        assert np.max(np.abs(gaps - np.pi / 2)) < 1e-7


def test_gn_cost_trace_monotone_and_bounded_by_start():
    delt = make_curve("deltoid")
    cfg = finder.FinderConfig(n=5)
    rng = np.random.default_rng(13)
    for _ in range(20):
        theta0 = np.sort(rng.uniform(0, TWO_PI, 5))
        sol = finder.gauss_newton_solve(theta0, delt, cfg)
        trace = sol.cost_trace
        assert np.all(np.diff(trace) <= 0.0)
        assert sol.cost <= trace[0] + 1e-12 * (1.0 + trace[0])


def test_gn_survives_degenerate_start():
    # coincident vertices make the plain normal equations singular
    ell = make_curve("ellipse")
    cfg = finder.FinderConfig(n=4)
    sol = finder.gauss_newton_solve(np.full(4, 1.0), ell, cfg)
    assert np.all(np.isfinite(sol.theta))
    assert not sol.feasible


def test_gn_recoverability_of_residual_norm():
    delt = make_curve("deltoid")
    cfg = finder.FinderConfig(n=4)
    rng = np.random.default_rng(21)
    for _ in range(10):
        sol = finder.gauss_newton_solve(
            np.sort(rng.uniform(0, TWO_PI, 4)), delt, cfg
        )
        again = np.linalg.norm(finder.residuals(sol.theta, delt))
        assert abs(again - sol.residual_norm) <= 1e-12


def test_cyclic_shift_permutes_residuals_and_keeps_cost():
    liss = make_curve("lissajous-32")
    cfg = finder.FinderConfig(n=5)
    rng = np.random.default_rng(6)
    theta = rng.uniform(0, TWO_PI, 5)
    r = finder.residuals(theta, liss)
    J0 = finder.cost(theta, liss, cfg)
    for k in range(1, 5):
        shifted = np.roll(theta, k)
        rs = finder.residuals(shifted, liss)
        assert np.array_equal(rs[:5], np.roll(r[:5], k))
        assert np.array_equal(rs[5:], np.roll(r[5:], k))
        assert abs(finder.cost(shifted, liss, cfg) - J0) <= 1e-12 * (1.0 + J0)


def test_init_curvature_weighted_circle_exact_and_spacing():
    circ = make_curve("circle")
    theta = finder.init_curvature_weighted(circ, 5)
    assert np.max(np.abs(theta - np.arange(5) * TWO_PI / 5)) < 1e-9
    for name in ("deltoid", "lissajous-32"):
        curve = make_curve(name)
        t = finder.init_curvature_weighted(curve, 4)
        assert np.all(np.diff(t) > 0)
        total = curve.length
        arcs = [
            curve.arclength(t[i], t[i + 1]) for i in range(3)
        ] + [curve.arclength(t[3], t[0] + TWO_PI)]
        assert np.max(np.abs(np.array(arcs) - total / 4)) < 1e-6 * total


def test_init_curvature_weighted_deltoid_triangle_hits_cusps():
    # equal arclength thirds of the deltoid start at its cusps; the
    # parameter is soft there (speed -> 0) but the points are not
    delt = make_curve("deltoid")
    theta = finder.init_curvature_weighted(delt, 3)
    cusps = np.array([0.0, TWO_PI / 3, 2 * TWO_PI / 3])
    assert np.max(np.abs(theta - cusps)) < 1e-4
    gap = delt.point(theta) - delt.point(cusps)
    assert np.max(np.hypot(gap[:, 0], gap[:, 1])) < 1e-8 * delt.scale


def test_init_random_sorted_and_deterministic():
    circ = make_curve("circle")
    a = finder.init_random(circ, 6, np.random.default_rng(42), 1)[0]
    b = finder.init_random(circ, 6, np.random.default_rng(42), 1)[0]
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0)
    c = finder.init_random(circ, 6, np.random.default_rng(43), 1)[0]
    assert not np.array_equal(a, c)


def test_init_random_uniform_by_ks():
    # Kolmogorov-Smirnov against Unif(0, 2pi) at the 1% level
    circ = make_curve("circle")
    rng = np.random.default_rng(100)
    samples = np.concatenate(
        [finder.init_random(circ, 50, rng, 1)[0] for _ in range(2000)]
    )
    samples.sort()
    n = samples.size
    grid = np.arange(1, n + 1) / n
    cdf = samples / TWO_PI
    d_stat = max(np.max(np.abs(grid - cdf)), np.max(np.abs(grid - 1.0 / n - cdf)))
    assert d_stat < 1.628 / np.sqrt(n)


def test_multistart_circle_center_at_origin():
    circ = make_curve("circle")
    for n in (3, 4, 5):
        sol = finder.multistart(circ, finder.FinderConfig(n=n, seed=n))
        assert sol.converged and sol.feasible
        assert np.linalg.norm(sol.center) < 1e-8
        # uniform polygon up to rotation: equal parameter gaps
        gaps = np.diff(np.sort(sol.theta), append=np.sort(sol.theta)[0] + TWO_PI)
        assert np.max(np.abs(gaps - TWO_PI / n)) < 1e-6


def test_multistart_deltoid_square_tight_residual():
    delt = make_curve("deltoid")
    sol = finder.multistart(delt, finder.FinderConfig(n=4, seed=0))
    assert sol.residual_norm <= 1e-8
    assert sol.feasible and sol.converged


def test_multistart_deltoid_triangle_cusps_and_rotation():
    delt = make_curve("deltoid")
    cfg = finder.FinderConfig(n=3, seed=1, c_target=(0.0, 0.0))
    sol = finder.multistart(delt, cfg)
    cusp_pts = delt.point(np.array([0.0, TWO_PI / 3, 2 * TWO_PI / 3]))
    tol = 1e-3 * delt.scale
    dist = np.linalg.norm(sol.vertices[:, None, :] - cusp_pts[None, :, :], axis=2)
    assert np.max(np.min(dist, axis=1)) < tol
    assert np.max(np.min(dist, axis=0)) < tol
    # a start rotated by the curve's symmetry lands on the same vertex set
    rotated = np.mod(finder.init_curvature_weighted(delt, 3) + TWO_PI / 3, TWO_PI)
    sol2 = finder.gauss_newton_solve(rotated, delt, cfg)
    dist2 = np.linalg.norm(sol2.vertices[:, None, :] - cusp_pts[None, :, :], axis=2)
    assert np.max(np.min(dist2, axis=1)) < tol


def test_multistart_deltoid_pentagon_best_fit():
    delt = make_curve("deltoid")
    sol = finder.multistart(delt, finder.FinderConfig(n=5, seed=4))
    assert not sol.converged
    assert sol.feasible
    assert 0.5 <= sol.cost <= 1.2
    assert abs(sol.residual_norm - 1.317) < 0.01
    assert sol.mean_side > 0.3 * delt.scale / 3


def test_multistart_square_mode_examples():
    for name in ("ellipse", "lissajous-32", "rose-3", "deltoid"):
        curve = make_curve(name)
        sol = finder.multistart(
            curve, finder.FinderConfig(n=4, square_mode=True, seed=9)
        )
        assert sol.residual_norm <= 1e-9, name
        # a square: diagonals equal and sqrt(2) times the side
        d1 = np.linalg.norm(sol.vertices[0] - sol.vertices[2])
        d2 = np.linalg.norm(sol.vertices[1] - sol.vertices[3])
        assert abs(d1 - d2) < 1e-7 * curve.scale
        assert abs(d1 - np.sqrt(2) * sol.mean_side) < 1e-7 * curve.scale


def test_multistart_seed_determinism():
    liss = make_curve("lissajous-32")
    a = finder.multistart(liss, finder.FinderConfig(n=4, seed=5))
    b = finder.multistart(liss, finder.FinderConfig(n=4, seed=5))
    assert np.array_equal(a.theta, b.theta)
    assert a.cost == b.cost and a.init_index == b.init_index


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", catalog_names())
def test_multistart_triangle_on_every_catalog_curve(name, seed):
    # some of these searches stack a start whose damped system is exactly
    # singular (nephroid at seeds 0-2, lissajous-54 at 1-2, spirograph-4
    # at 2); that start must raise its own damping, not stop the search
    sol = finder.multistart(make_curve(name), finder.FinderConfig(n=3, seed=seed))
    assert np.all(np.isfinite(sol.theta))


def _fake_solution(center, side, convex, cost, idx):
    return finder.FormationSolution(
        theta=np.zeros(4),
        vertices=np.zeros((4, 2)),
        center=np.asarray(center, float),
        mean_side=side,
        residual_norm=np.sqrt(2 * cost),
        cost=cost,
        iterations=1,
        status="step-converged",
        init_kind="random",
        init_index=idx,
        feasible=True,
        converged=True,
        convex=convex,
        cost_trace=np.array([cost]),
    )


def _select_reading_only(solutions, curve, cfg):
    """finder._select's pick, checked to leave every field of its inputs unchanged."""
    before = copy.deepcopy([vars(s) for s in solutions])
    best = finder._select(solutions, curve, cfg)
    for s, old in zip(solutions, before):
        assert vars(s).keys() == old.keys()
        for name, value in vars(s).items():
            assert np.array_equal(value, old[name]), name
    return best


def test_selection_prefers_convex_and_demotes_stars():
    # the flags carry the preference: a converged polygon that is not
    # convex (here a crossed square) loses feasible only when another
    # start converged to a convex one
    circ = make_curve("circle")
    square = TWO_PI / 4 * np.arange(4)
    stack = np.vstack((square, square[[1, 0, 2, 3]]))
    for costs, feasible in (([0.0, 0.0], [True, False]), ([1.0, 0.0], [True, True]),
                            ([0.0, 1.0], [True, True])):
        _, _, _, flags, converged, convex = finder._verdicts(circ, stack, np.array(costs))
        assert convex.tolist() == [True, False]
        assert converged.tolist() == [c == 0.0 for c in costs]
        assert flags.tolist() == feasible, costs
    # _select reads those flags and writes no field of its inputs
    cfg = finder.FinderConfig(n=4)
    star = _fake_solution((0, 0), 2.0, False, 1e-20, 0)
    square = _fake_solution((0, 0), 1.0, True, 1e-18, 1)
    star.feasible = False
    assert _select_reading_only([star, square], circ, cfg) is square
    # with no convex one converged the star keeps feasible, and wins on side
    square.converged = False
    star.feasible = True
    assert _select_reading_only([star, square], circ, cfg) is star


def test_selection_near_tie_goes_to_larger_side():
    circ = make_curve("circle")
    cfg = finder.FinderConfig(n=4, c_target=(0.0, 0.0))
    small = _fake_solution((1e-9, 0), 1.0, True, 1e-20, 0)
    large = _fake_solution((2e-9, 0), 2.0, True, 1e-18, 1)
    assert _select_reading_only([small, large], circ, cfg) is large
    far = _fake_solution((0.5, 0), 3.0, True, 1e-20, 2)
    assert _select_reading_only([small, large, far], circ, cfg) is large


def test_config_validation_errors():
    with pytest.raises(finder.FinderError):
        finder.FinderConfig(n=2).validate()
    with pytest.raises(finder.FinderError):
        finder.FinderConfig(n=5, square_mode=True).validate()


def test_config_rejects_non_finite_floats():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(finder.FinderError, match="c_target"):
            finder.FinderConfig(c_target=(0.0, bad)).validate()


def test_config_rejects_non_integer_counts():
    for name, bad in (
        ("n", 4.0), ("n_init", 2.5), ("k_max", 1.5), ("n_init", True), ("seed", 1.5), ("seed", -1)
    ):
        with pytest.raises(finder.FinderError, match=name):
            replace(finder.FinderConfig(), **{name: bad}).validate()
    finder.FinderConfig(n=np.int64(4), n_init=np.int64(8), seed=np.int64(3)).validate()


@pytest.mark.parametrize(
    "overrides, parts",
    [
        (dict(k_max=10**15), ("n_init = 32 and k_max = 1000000000000000", "cost trace")),
        (dict(n_init=10**12), ("n_init = 1000000000000 and k_max = 100", "cost trace")),
        # numpy counts whose byte product overflows int64
        (dict(n_init=np.int64(2**40), k_max=np.int64(2**40)), ("k_max = 1099511627776", "cost trace")),
        (dict(n=6000), ("n_init = 32 and n = 6000", "Jacobian stack")),
        # a 512 MB Jacobian stack, under the budget alone: with its solve
        # copies it took about 2 GB
        (dict(n=1000), ("n_init = 32 and n = 1000, with k_max = 100,", "Jacobian stack")),
        # a Jacobian stack of exactly the budget, for one iteration
        (dict(n=3, n_init=5_592_405, k_max=1), ("n_init = 5592405 and n = 3, with k_max = 1,", "Jacobian stack")),
    ],
    ids=["k_max", "n_init", "int64", "n", "n1000", "n3"],
)
def test_config_rejects_finder_arrays_over_the_budget(monkeypatch, overrides, parts):
    # refused by validate, before a start is drawn or an array allocated
    def never(*_args, **_kwargs):
        raise AssertionError("the search ran past validation")

    for name in ("init_curvature_weighted", "init_random", "_solve_starts"):
        monkeypatch.setattr(finder, name, never)
    config = replace(finder.FinderConfig(), **overrides)
    with pytest.raises(finder.FinderError) as info:
        finder.multistart(make_curve("ellipse"), config)
    for part in parts + (f"over the budget of {finder.ARRAY_BUDGET} bytes",):
        assert part in str(info.value)


def test_config_accepts_finder_arrays_within_the_budget():
    # 8 bytes x 32 starts x (k_max + 1 trace entries + the solve's
    # per-start floats) is exactly the budget
    k_max = finder.ARRAY_BUDGET // (8 * 32) - 1 - fk.solve_floats(4, False)
    replace(finder.FinderConfig(), k_max=k_max).validate()
    with pytest.raises(finder.FinderError, match="budget"):
        replace(finder.FinderConfig(), k_max=k_max + 1).validate()
    # a 128 MB Jacobian stack: the solve peaked at 533 MB
    replace(finder.FinderConfig(), n=500).validate()


@pytest.mark.parametrize(
    "name, n, n_init, square_mode",
    [
        ("gear-hermite", 3, 256, False),
        ("fourier-blob", 4, 256, True),
        ("ellipse", 12, 64, False),
        ("deltoid", 60, 8, False),
    ],
)
def test_solve_floats_bound_the_measured_peak(name, n, n_init, square_mode):
    # validate charges solve_floats per start for what gn_solve holds
    # besides its cost trace; tracemalloc sees every numpy buffer
    curve = make_curve(name)
    config = finder.FinderConfig(n=n, n_init=n_init, k_max=30, square_mode=square_mode)
    rng = np.random.default_rng(5)
    theta0 = finder.init_random(curve, n, rng, n_init)
    tracemalloc.start()
    try:
        fk.gn_solve(curve, theta0, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trace = 8 * n_init * (config.k_max + 1)
    assert peak - trace <= 8 * n_init * fk.solve_floats(n, square_mode)
    # and the bound is not loose by more than half
    assert peak - trace >= 0.5 * 8 * n_init * fk.solve_floats(n, square_mode)


def test_config_file_nan_weight_is_rejected():
    # a NaN weight used to run to a NaN-cost winner that reported feasible;
    # the weights are constants now, and a file that sets one is refused
    with pytest.raises(ConfigError, match="weight_length"):
        load_config("[curve]\nname = circle\n[finder]\nweight_length = nan\n")


def _multistart_starts(curve, config):
    """The starts multistart draws, in its order."""
    starts = [finder.init_curvature_weighted(curve, config.n)]
    rng = np.random.default_rng(config.seed)
    for _ in range(1, config.n_init):
        starts.append(finder.init_random(curve, config.n, rng, 1)[0])
    return starts


@pytest.mark.parametrize(
    "name, kw",
    [
        ("deltoid", dict(n=3)),
        ("lissajous-32", dict(n=4, seed=1)),
        ("fourier-blob", dict(n=4, square_mode=True, seed=9, n_init=8)),
        # a power-family kernel, and a curve with corners
        ("superellipse", dict(n=4, square_mode=True, seed=9, n_init=8)),
        ("gear-hermite", dict(n=4, n_init=8)),
    ],
)
def test_single_start_reproduces_its_multistart_run(name, kw):
    # every row of the lockstep stack is computed as it would be alone,
    # so the one-start solve matches its multistart run to the bit
    curve = make_curve(name)
    config = finder.FinderConfig(**kw)
    _, runs = finder.multistart(curve, config, return_all=True)
    for i, theta0 in enumerate(_multistart_starts(curve, config)):
        kind = "curvature-weighted" if i == 0 else "random"
        sol = finder.gauss_newton_solve(theta0, curve, config, kind, i)
        run = runs[i]
        assert np.array_equal(sol.theta, run.theta), (name, i)
        assert np.array_equal(sol.cost_trace, run.cost_trace), (name, i)
        assert (sol.iterations, sol.status, sol.init_index) == (
            run.iterations, run.status, run.init_index
        )


def test_damped_step_raises_only_the_failing_rows_damping():
    # the second start has no finite direction: its damping climbs past
    # the ceiling while the first start steps at its own damping
    ell = make_curve("ellipse")
    theta = np.array([[0.1, 1.7, 3.3, 4.6], [0.2, 1.5, 3.0, 4.4]])
    r = fk.residual_vector(ell.kind, ell.par, theta, False)
    J = fk.jacobian_matrix(ell.kind, ell.par, theta, False)
    grad = np.einsum("smn,sm->sn", J, r)
    M = np.einsum("smn,smk->snk", J, J)
    grad[1, 0] = np.nan
    lam = np.full(2, 1e-8)
    ok, theta_new, _, cost_new, _ = fk._damped_step(
        ell.kind, ell.par, False, theta, fk.cost_value(r), grad, M, lam
    )
    assert ok.tolist() == [True, False]
    assert lam[0] == 1e-8 and lam[1] > fk._LM_MAX
    assert cost_new[0] < fk.cost_value(r)[0]
    assert np.array_equal(theta_new[1], theta[1])


def test_damped_step_survives_an_exactly_singular_row():
    # the second start's damped system M + lam*I is the zero matrix: the
    # stacked solve raises, and that row alone retries at ten times its
    # damping while the first row steps as it would alone
    ell = make_curve("ellipse")
    theta = np.array([[0.1, 1.7, 3.3, 4.6], [0.2, 1.5, 3.0, 4.4]])
    r = fk.residual_vector(ell.kind, ell.par, theta, False)
    J = fk.jacobian_matrix(ell.kind, ell.par, theta, False)
    grad = np.einsum("smn,sm->sn", J, r)
    M = np.einsum("smn,smk->snk", J, J)
    M[1] = -1e-8 * np.eye(4)
    cost = fk.cost_value(r)
    lam = np.full(2, 1e-8)
    ok, theta_new, _, cost_new, _ = fk._damped_step(
        ell.kind, ell.par, False, theta, cost, grad, M, lam
    )
    assert ok[0] and lam[0] == 1e-8
    assert lam[1] > 1e-8
    lam0 = np.full(1, 1e-8)
    alone = fk._damped_step(
        ell.kind, ell.par, False, theta[:1], cost[:1], grad[:1], M[:1], lam0
    )
    assert np.array_equal(theta_new[0], alone[1][0]) and cost_new[0] == alone[3][0]


def test_collapsing_start_is_retired_at_iteration_ten(monkeypatch):
    # three vertices bunched on the circle slide onto the zero-side
    # polygon, which has zero residual on every curve
    circ = make_curve("circle")
    cfg = finder.FinderConfig(n=3)
    sol = finder.gauss_newton_solve(np.array([1.0, 1.02, 1.05]), circ, cfg)
    assert sol.status == "collapsed"
    assert sol.iterations == fk.RETIRE_ITER == 10
    assert sol.cost_trace.shape == (11,)
    assert sol.mean_side < fk.MIN_SIDE_FRAC * circ.scale
    assert not sol.feasible
    # without the retirement threshold the same start runs on
    monkeypatch.setattr(fk, "MIN_SIDE_FRAC", 0.0)
    free = finder.gauss_newton_solve(np.array([1.0, 1.02, 1.05]), circ, cfg)
    assert free.status != "collapsed" and free.iterations > 10


def test_retirement_needs_ten_iterations():
    circ = make_curve("circle")
    cfg = finder.FinderConfig(n=3, k_max=9)
    sol = finder.gauss_newton_solve(np.array([1.0, 1.02, 1.05]), circ, cfg)
    assert sol.status == "max-iterations" and sol.iterations == 9


def test_finder_matches_recorded_values():
    # residuals and Jacobian at a fixed deltoid quadrilateral and the
    # multistart winner, recorded from the per-index scalar kernels
    delt = make_curve("deltoid")
    theta = np.array([0.3, 1.7, 3.1, 5.2])
    r = finder.residuals(theta, delt, square_mode=True)
    J = finder.jacobian(theta, delt, square_mode=True)
    sol = finder.multistart(delt, finder.FinderConfig(n=4, seed=0))
    r_rec = [
        14.079000573734497, -16.235187387207947, -1.2253426485194971,
        3.3815294619929466, -1.7426583870024084, -8.065700037598038,
        0.4135284264710406, 9.394829998129406, -0.1265722832194176,
        -0.308679881182929,
    ]
    J_rec = [
        [-7.159433224363074, 19.077458349903026, 0.0, 20.130070093412222],
        [14.77717622228131, -11.474507330439923, 16.58210804551599, 0.0],
        [0.0, -7.6029510194631, -25.634423470248294, 4.879289325697585],
        [-7.617742997918238, 0.0, 9.052315424732301, -25.009359419109813],
        [10.275356869061337, 11.483816779446094, 9.159553568387116, 8.999557757198374],
        [0.9221027410384373, -17.221070444666058, -5.394657257995271, 3.5051219523565305],
        [2.6576138711431, 3.8808657599829957, -7.422554477128876, -11.130512336213851],
        [-13.855073481242872, 1.8563879052369672, 3.6576581667370314, -1.3741673733410558],
        [-0.6248904980970706, -1.3881436067402229, -0.7324583937621233, 0.9072843529774388],
        [1.103953442121855, 0.7708819692183235, -0.5002611350339157, 0.6078453359008555],
    ]
    theta_rec = [1.021621497964609, 2.9340305399957103, 3.3491547671838764, 5.2615638092149775]
    assert np.allclose(r, r_rec, rtol=0, atol=1e-13)
    assert np.allclose(J, J_rec, rtol=0, atol=1e-13)
    assert np.allclose(sol.theta, theta_rec, rtol=0, atol=1e-10)
