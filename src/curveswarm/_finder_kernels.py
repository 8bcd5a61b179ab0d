"""Numerical kernels for the regular-polygon formation finder.

Every kernel works on a stack of S starts at once: theta is (S, n), one
row of n vertex parameters per start, and each row is computed exactly
as it would be alone, so a start's result does not depend on the other
rows of its stack.

Residual vector layout for n vertex parameters (cyclic index, edges
e_i = p_i - p_{i-1}):

    rows [0, n)     side-length defects   ||e_{i+1}||^2 - ||e_i||^2
    rows [n, 2n)    angle defects         e_{i+1}.e_i - e_{i+2}.e_{i+1}
    rows [2n, 2n+2) diagonal defects      ||p_0 - p_2|| - sqrt(2)*lbar,
                                          ||p_1 - p_3|| - sqrt(2)*lbar

where lbar is the mean side length.  The diagonal rows exist only in
square mode (n = 4), which biases the solver toward true squares.
"""

import numpy as np

from ._curve_kernels import curve_point, curve_d1

# gn_solve termination codes
STATUS_STEP = 0       # step norm below tolerance
STATUS_COST = 1       # relative cost drop below tolerance
STATUS_MAXITER = 2    # iteration budget exhausted
STATUS_STALLED = 3    # damping grew past its ceiling without an accepted step
STATUS_COLLAPSED = 4  # mean side still below min_side at RETIRE_ITER

# Armijo trial step lengths evaluated per residual call, of at most
# ARMIJO_TRIALS per damping value
LADDER = 8
ARMIJO_TRIALS = 60
# a start whose polygon has collapsed by this iteration is retired
RETIRE_ITER = 10

_LM_MIN = 1e-12
_LM_MAX = 1e6
_SQRT2 = np.sqrt(2.0)
_TINY = 1e-300


def _edges(kind, par, theta):
    """Vertex coordinates and cyclic edge vectors e_i = p_i - p_{i-1}."""
    x, y = curve_point(kind, par, theta.ravel())
    x = x.reshape(theta.shape)
    y = y.reshape(theta.shape)
    prev = np.arange(theta.shape[1]) - 1  # index -1 wraps to the last vertex
    return x, y, x - x[:, prev], y - y[:, prev]


def _sq(v):
    """v**2 through libm pow, as `**2` on numpy scalars computes it.

    v*v differs from it in the last bit for about 0.1% of inputs.  With
    pow the stacked kernels reproduce the per-start scalar oracle in
    tests/test_kernel_oracles.py to the bit.
    """
    return np.float_power(v, 2.0)


def _shifts(n):
    """Index arrays i - 1, i + 1 and i + 2 (cyclic) for i = 0..n-1."""
    i = np.arange(n)
    return (i - 1) % n, (i + 1) % n, (i + 2) % n


def _safe_div(num, den):
    """num / den where den > _TINY, else 0 (a degenerate edge or diagonal)."""
    ok = den > _TINY
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


def _diagonals(x, y):
    """Coordinate differences and lengths of the diagonals p0-p2 and p1-p3."""
    dx02 = x[:, 0] - x[:, 2]
    dy02 = y[:, 0] - y[:, 2]
    dx13 = x[:, 1] - x[:, 3]
    dy13 = y[:, 1] - y[:, 3]
    return (dx02, dy02, np.sqrt(_sq(dx02) + _sq(dy02)),
            dx13, dy13, np.sqrt(_sq(dx13) + _sq(dy13)))


def residual_vector(kind, par, theta, square_mode):
    """(S, m) residual rows of the (S, n) parameter stack theta."""
    n = theta.shape[1]
    _, i1, i2 = _shifts(n)
    x, y, ex, ey = _edges(kind, par, theta)
    sq = _sq(ex) + _sq(ey)
    dot = ex[:, i1] * ex + ey[:, i1] * ey  # e_{i+1} . e_i
    rows = [sq[:, i1] - sq, dot - dot[:, i1]]
    if square_mode:
        el = np.sqrt(sq)
        lbar = el[:, 0]
        for i in range(1, n):
            lbar = lbar + el[:, i]
        lbar = lbar / n
        _, _, d02, _, _, d13 = _diagonals(x, y)
        rows.append(np.stack([d02 - _SQRT2 * lbar, d13 - _SQRT2 * lbar], axis=1))
    return np.concatenate(rows, axis=1)


def jacobian_matrix(kind, par, theta, square_mode):
    """(S, m, n) Jacobian of residual_vector, sparse stencil assembled dense.

    Length rows touch columns {i-1, i, i+1}; angle rows touch
    {i-1, i, i+1, i+2}.  Contributions are accumulated term by term so
    wrapped column collisions (n = 3) pick up both chain-rule terms.
    """
    n = theta.shape[1]
    im, i1, i2 = _shifts(n)
    x, y, ex, ey = _edges(kind, par, theta)
    gx, gy = curve_d1(kind, par, theta.ravel())
    gx = gx.reshape(theta.shape)
    gy = gy.reshape(theta.shape)
    m = 2 * n + 2 if square_mode else 2 * n
    J = np.zeros((theta.shape[0], m, n))
    len_rows = np.arange(n)
    ang_rows = n + len_rows
    e1x, e1y = ex[:, i1], ey[:, i1]
    e2x, e2y = ex[:, i2], ey[:, i2]
    J[:, len_rows, im] += 2.0 * (ex * gx[:, im] + ey * gy[:, im])
    J[:, len_rows, len_rows] += -2.0 * ((e1x + ex) * gx + (e1y + ey) * gy)
    J[:, len_rows, i1] += 2.0 * (e1x * gx[:, i1] + e1y * gy[:, i1])
    J[:, ang_rows, im] += -(e1x * gx[:, im] + e1y * gy[:, im])
    J[:, ang_rows, len_rows] += (e1x - ex + e2x) * gx + (e1y - ey + e2y) * gy
    J[:, ang_rows, i1] += (ex + e1x - e2x) * gx[:, i1] + (ey + e1y - e2y) * gy[:, i1]
    J[:, ang_rows, i2] += -(e1x * gx[:, i2] + e1y * gy[:, i2])
    if square_mode:
        # unit edge directions, zero where an edge degenerates
        el = np.sqrt(_sq(ex) + _sq(ey))
        ux = _safe_div(ex, el)
        uy = _safe_div(ey, el)
        dl = ((ux - ux[:, i1]) * gx + (uy - uy[:, i1]) * gy) / n
        J[:, 2 * n, :] = -_SQRT2 * dl
        J[:, 2 * n + 1, :] = -_SQRT2 * dl
        dx02, dy02, d02, dx13, dy13, d13 = _diagonals(x, y)
        J[:, 2 * n, 0] += _safe_div(dx02 * gx[:, 0] + dy02 * gy[:, 0], d02)
        J[:, 2 * n, 2] += -_safe_div(dx02 * gx[:, 2] + dy02 * gy[:, 2], d02)
        J[:, 2 * n + 1, 1] += _safe_div(dx13 * gx[:, 1] + dy13 * gy[:, 1], d13)
        J[:, 2 * n + 1, 3] += -_safe_div(dx13 * gx[:, 3] + dy13 * gy[:, 3], d13)
    return J


def weight_vector(config):
    """Weights of the residual rows of a FinderConfig's formation."""
    counts = (config.n, config.n, 2 if config.square_mode else 0)
    weights = (config.weight_length, config.weight_angle, config.weight_diagonal)
    return np.repeat(np.array(weights, dtype=float), counts)


def cost_value(r, w):
    """Weighted half sum of squares over the last axis of r."""
    return 0.5 * np.sum(w * r * r, axis=-1)


def _armijo_ladder(kind, par, square_mode, w, theta, cost, dtheta, slope,
                   armijo_c1, etas):
    """First Armijo-passing step of each row along its direction dtheta.

    Trial k takes the step length etas[k]; LADDER trials of every row
    are evaluated per residual call, and a row leaves once one of them
    passes.  Returns (trial index or -1, residuals, cost) per row; the
    residual and cost rows of a row that found no step are unset.
    """
    s_count, n = theta.shape
    first = np.full(s_count, -1)
    r_acc = np.empty((s_count, w.shape[0]))
    c_acc = np.empty(s_count)
    live = np.arange(s_count)
    for t0 in range(0, etas.shape[0], LADDER):
        if live.shape[0] == 0:
            break
        eta = etas[t0:t0 + LADDER]
        trial = theta[live, None, :] + eta[:, None] * dtheta[live, None, :]
        r_try = residual_vector(kind, par, trial.reshape(-1, n), square_mode)
        r_try = r_try.reshape(live.shape[0], eta.shape[0], -1)
        c_try = cost_value(r_try, w)
        bound = cost[live, None] + armijo_c1 * eta * slope[live, None]
        passed = np.isfinite(c_try) & (c_try <= bound)
        hit = passed.any(axis=1)
        k = passed.argmax(axis=1)[hit]
        rows = live[hit]
        first[rows] = t0 + k
        r_acc[rows] = r_try[hit, k]
        c_acc[rows] = c_try[hit, k]
        live = live[~hit]
    return first, r_acc, c_acc


def _solve_rows(A, b):
    """x with A[i] x[i] = b[i] for every row; NaN rows where A[i] is singular.

    One stacked solve, unless some row is exactly singular: then every
    row is solved alone, the same LAPACK call on the same data.
    """
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for i in range(A.shape[0]):
            try:
                x[i] = np.linalg.solve(A[i : i + 1], b[i : i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return x


def _damped_step(kind, par, square_mode, w, theta, cost, grad, M, lam,
                 armijo_c1, etas):
    """One accepted damped Gauss-Newton step per row, where there is one.

    A row whose system is singular or gives no finite descent direction,
    or whose Armijo ladder finds no step, retries with ten times its damping
    until lam passes _LM_MAX.  lam is updated in place.  Returns
    (accepted mask, theta, residuals, cost, step norm) per row; rows
    without an accepted step keep their theta.
    """
    s_count, n = theta.shape
    ok = np.zeros(s_count, dtype=bool)
    theta_new = theta.copy()
    r_new = np.empty((s_count, w.shape[0]))
    cost_new = cost.copy()
    step_norm = np.zeros(s_count)
    eye = np.eye(n)
    pending = np.flatnonzero(lam <= _LM_MAX)
    while pending.shape[0]:
        A = M[pending] + lam[pending, None, None] * eye
        dtheta = _solve_rows(A, -grad[pending])
        slope = np.sum(grad[pending] * dtheta, axis=1)
        good = np.all(np.isfinite(dtheta), axis=1) & ~(slope > 0.0)
        rows = pending[good]
        dtheta = dtheta[good]
        first, r_acc, c_acc = _armijo_ladder(
            kind, par, square_mode, w, theta[rows], cost[rows], dtheta,
            slope[good], armijo_c1, etas,
        )
        hit = first >= 0
        done = rows[hit]
        eta = etas[first[hit]]
        d = dtheta[hit]
        theta_new[done] = theta[done] + eta[:, None] * d
        r_new[done] = r_acc[hit]
        cost_new[done] = c_acc[hit]
        step_norm[done] = eta * np.sqrt(np.sum(d * d, axis=1))
        ok[done] = True
        retry = np.concatenate([pending[~good], rows[~hit]])
        lam[retry] *= 10.0
        pending = retry[lam[retry] <= _LM_MAX]
    return ok, theta_new, r_new, cost_new, step_norm


def solve_floats(n, square_mode):
    """float64 values per start that gn_solve holds at most, cost trace aside.

    The Jacobian step holds the (m, n) stack J, its C-ordered transpose
    and w * J, with the normal matrix and a product temporary (n, n
    each); the Armijo ladder holds LADDER trial rows with their
    residuals and curve-kernel temporaries, under 20 * LADDER * n.  The
    two stages never overlap, so their sum bounds the peak: tracemalloc
    puts it at 8.0-8.2 n^2 per start for n >= 50, and at n = 3 at 463
    values (gear-hermite, the largest of ten families), where this gives
    552.
    """
    m = 2 * n + 2 if square_mode else 2 * n
    return 3 * m * n + 2 * n * n + 20 * LADDER * n


def gn_solve(curve, theta0, config):
    """Damped Gauss-Newton with Armijo backtracking, all starts in lockstep.

    theta0 is (S, n), one start per row.  Each iteration takes one
    Jacobian of every running start and solves their normal equations
    together.  The normal equations are regularized with a per-start
    Levenberg term (x10 on a rejected step, /10 on an accepted one) so
    degenerate starts, where the plain system is singular, still
    produce descent directions.  The Armijo search tries the step
    lengths 1, backtrack, backtrack^2, ... (at most ARMIJO_TRIALS per
    damping value), LADDER of them per residual call, and takes the
    first that passes: the same step the sequential search would take.
    A start leaves the stack when it converges, exhausts its damping,
    or, at iteration RETIRE_ITER, still has a mean side below min_side
    (it is collapsing toward the zero-side polygon, which has zero
    residual on every curve).

    curve supplies kind, par and scale; config is a FinderConfig for
    n-vertex starts, and min_side is its min_side_frac * scale.  Returns (theta, iterations,
    status, cost_trace): cost_trace is (S, k_max + 1), and row i's first
    iterations[i] + 1 entries are its initial cost plus one entry per
    iteration.
    """
    kind, par, square_mode = curve.kind, curve.par, config.square_mode
    s_count, n = theta0.shape
    theta = theta0.copy()
    w = weight_vector(config)
    r = residual_vector(kind, par, theta, square_mode)
    cost = cost_value(r, w)
    cost_trace = np.empty((s_count, config.k_max + 1))
    cost_trace[:, 0] = cost
    lam = np.full(s_count, max(config.lm_lambda0, _LM_MIN))
    status = np.full(s_count, STATUS_MAXITER)
    iters = np.zeros(s_count, dtype=np.int64)
    # step lengths built by repeated multiplication, as a sequential
    # backtracking loop builds them
    etas = np.empty(ARMIJO_TRIALS)
    eta = 1.0
    for t in range(ARMIJO_TRIALS):
        etas[t] = eta
        eta *= config.backtrack
    min_side = config.min_side_frac * curve.scale
    active = np.arange(s_count)
    for k in range(config.k_max):
        J = jacobian_matrix(kind, par, theta[active], square_mode)
        # a C-ordered copy: BLAS rounds the product with a transposed view
        # differently, and the finder's outputs are reproducible to the bit
        JT = np.ascontiguousarray(J.transpose(0, 2, 1))
        grad = (JT @ (w * r[active])[:, :, None])[:, :, 0]
        M = JT @ (w[:, None] * J)
        lam_a = lam[active]
        ok, theta_a, r_a, cost_a, step_norm = _damped_step(
            kind, par, square_mode, w, theta[active], cost[active], grad, M,
            lam_a, config.armijo_c1, etas,
        )
        lam[active] = lam_a
        status[active[~ok]] = STATUS_STALLED
        moved = active[ok]
        denom = np.maximum(cost[moved], _TINY)
        rel_drop = (cost[moved] - cost_a[ok]) / denom
        theta[moved] = theta_a[ok]
        r[moved] = r_a[ok]
        cost[moved] = cost_a[ok]
        iters[moved] = k + 1
        cost_trace[moved, k + 1] = cost[moved]
        lam[moved] = np.maximum(lam[moved] * 0.1, _LM_MIN)
        small_step = step_norm[ok] < config.tol_step
        small_drop = ~small_step & (rel_drop < config.tol_cost_rel)
        status[moved[small_step]] = STATUS_STEP
        status[moved[small_drop]] = STATUS_COST
        active = moved[~(small_step | small_drop)]
        if k + 1 == RETIRE_ITER and active.shape[0]:
            _, _, ex, ey = _edges(kind, par, theta[active])
            collapsed = np.hypot(ex, ey).mean(axis=1) < min_side
            status[active[collapsed]] = STATUS_COLLAPSED
            active = active[~collapsed]
        if active.shape[0] == 0:
            break
    return theta, iters, status, cost_trace
