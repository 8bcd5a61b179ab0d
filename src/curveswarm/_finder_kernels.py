"""Numerical kernels for the regular-polygon formation finder.

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
STATUS_STEP = 0      # step norm below tolerance
STATUS_COST = 1      # relative cost drop below tolerance
STATUS_MAXITER = 2   # iteration budget exhausted
STATUS_STALLED = 3   # damping grew past its ceiling without an accepted step

_LM_MIN = 1e-12
_LM_MAX = 1e6
_SQRT2 = np.sqrt(2.0)


def _edges(kind, par, theta):
    """Vertex coordinates and cyclic edge vectors e_i = p_i - p_{i-1}."""
    x, y = curve_point(kind, par, theta)
    prev = np.arange(theta.shape[0]) - 1  # index -1 wraps to the last vertex
    return x, y, x - x[prev], y - y[prev]


def residual_vector(kind, par, theta, square_mode):
    n = theta.shape[0]
    if square_mode:
        m = 2 * n + 2
    else:
        m = 2 * n
    x, y, ex, ey = _edges(kind, par, theta)
    r = np.empty(m)
    for i in range(n):
        i1 = (i + 1) % n
        i2 = (i + 2) % n
        r[i] = (ex[i1] ** 2 + ey[i1] ** 2) - (ex[i] ** 2 + ey[i] ** 2)
        r[n + i] = (ex[i1] * ex[i] + ey[i1] * ey[i]) - (
            ex[i2] * ex[i1] + ey[i2] * ey[i1]
        )
    if square_mode:
        lbar = 0.0
        for i in range(n):
            lbar += np.sqrt(ex[i] ** 2 + ey[i] ** 2)
        lbar /= n
        d02 = np.sqrt((x[0] - x[2]) ** 2 + (y[0] - y[2]) ** 2)
        d13 = np.sqrt((x[1] - x[3]) ** 2 + (y[1] - y[3]) ** 2)
        r[2 * n] = d02 - _SQRT2 * lbar
        r[2 * n + 1] = d13 - _SQRT2 * lbar
    return r


def jacobian_matrix(kind, par, theta, square_mode):
    """Sparse-stencil Jacobian of residual_vector, assembled dense.

    Length rows touch columns {i-1, i, i+1}; angle rows touch
    {i-1, i, i+1, i+2}.  Contributions are accumulated so wrapped
    column collisions (n = 3) pick up both chain-rule terms.
    """
    n = theta.shape[0]
    if square_mode:
        m = 2 * n + 2
    else:
        m = 2 * n
    x, y, ex, ey = _edges(kind, par, theta)
    gx, gy = curve_d1(kind, par, theta)
    J = np.zeros((m, n))
    for i in range(n):
        im = (i - 1) % n
        i1 = (i + 1) % n
        i2 = (i + 2) % n
        J[i, im] += 2.0 * (ex[i] * gx[im] + ey[i] * gy[im])
        J[i, i] += -2.0 * ((ex[i1] + ex[i]) * gx[i] + (ey[i1] + ey[i]) * gy[i])
        J[i, i1] += 2.0 * (ex[i1] * gx[i1] + ey[i1] * gy[i1])
        J[n + i, im] += -(ex[i1] * gx[im] + ey[i1] * gy[im])
        J[n + i, i] += (ex[i1] - ex[i] + ex[i2]) * gx[i] + (
            ey[i1] - ey[i] + ey[i2]
        ) * gy[i]
        J[n + i, i1] += (ex[i] + ex[i1] - ex[i2]) * gx[i1] + (
            ey[i] + ey[i1] - ey[i2]
        ) * gy[i1]
        J[n + i, i2] += -(ex[i1] * gx[i2] + ey[i1] * gy[i2])
    if square_mode:
        # unit edge directions, zero where an edge degenerates
        ux = np.zeros(n)
        uy = np.zeros(n)
        for i in range(n):
            el = np.sqrt(ex[i] ** 2 + ey[i] ** 2)
            if el > 1e-300:
                ux[i] = ex[i] / el
                uy[i] = ey[i] / el
        d02 = np.sqrt((x[0] - x[2]) ** 2 + (y[0] - y[2]) ** 2)
        d13 = np.sqrt((x[1] - x[3]) ** 2 + (y[1] - y[3]) ** 2)
        for j in range(n):
            j1 = (j + 1) % n
            dl = ((ux[j] - ux[j1]) * gx[j] + (uy[j] - uy[j1]) * gy[j]) / n
            J[2 * n, j] = -_SQRT2 * dl
            J[2 * n + 1, j] = -_SQRT2 * dl
        if d02 > 1e-300:
            J[2 * n, 0] += ((x[0] - x[2]) * gx[0] + (y[0] - y[2]) * gy[0]) / d02
            J[2 * n, 2] += -((x[0] - x[2]) * gx[2] + (y[0] - y[2]) * gy[2]) / d02
        if d13 > 1e-300:
            J[2 * n + 1, 1] += ((x[1] - x[3]) * gx[1] + (y[1] - y[3]) * gy[1]) / d13
            J[2 * n + 1, 3] += -((x[1] - x[3]) * gx[3] + (y[1] - y[3]) * gy[3]) / d13
    return J


def weight_vector(n, square_mode, w_len, w_ang, w_diag):
    counts = (n, n, 2 if square_mode else 0)
    return np.repeat(np.array([w_len, w_ang, w_diag], dtype=float), counts)


def cost_value(r, w):
    return 0.5 * np.sum(w * r * r)


def gn_solve(
    kind,
    par,
    theta0,
    square_mode,
    w_len,
    w_ang,
    w_diag,
    k_max,
    tol_step,
    tol_cost_rel,
    armijo_c1,
    backtrack,
    lm_lambda0,
    cost_trace,
):
    """Damped Gauss-Newton with Armijo backtracking from one start.

    Normal equations are regularized with an adaptive Levenberg term
    (x10 on a rejected step, /10 on an accepted one) so degenerate
    starts, where the plain system is singular, still produce descent
    directions.  cost_trace must hold k_max + 1 entries; the filled
    prefix length is returned.

    Returns (theta, cost, iterations, status, trace_len).
    """
    n = theta0.shape[0]
    theta = theta0.copy()
    w = weight_vector(n, square_mode, w_len, w_ang, w_diag)
    r = residual_vector(kind, par, theta, square_mode)
    cost = cost_value(r, w)
    cost_trace[0] = cost
    trace_len = 1
    lam = lm_lambda0
    if lam < _LM_MIN:
        lam = _LM_MIN
    status = STATUS_MAXITER
    iters = 0
    eye = np.eye(n)
    for k in range(k_max):
        J = jacobian_matrix(kind, par, theta, square_mode)
        # a C-ordered copy: BLAS rounds the product with a transposed view
        # differently, and the finder's outputs are reproducible to the bit
        JT = np.ascontiguousarray(J.T)
        grad = JT @ (w * r)
        M = JT @ (w.reshape((-1, 1)) * J)
        accepted = False
        step_norm = 0.0
        cost_new = cost
        while lam <= _LM_MAX:
            A = M + lam * eye
            dtheta = np.linalg.solve(A, -grad)
            slope = np.sum(grad * dtheta)
            if not np.all(np.isfinite(dtheta)) or slope > 0.0:
                lam *= 10.0
                continue
            eta = 1.0
            for _bt in range(60):
                theta_try = theta + eta * dtheta
                r_try = residual_vector(kind, par, theta_try, square_mode)
                c_try = cost_value(r_try, w)
                if np.isfinite(c_try) and c_try <= cost + armijo_c1 * eta * slope:
                    theta = theta_try
                    r = r_try
                    cost_new = c_try
                    step_norm = eta * np.sqrt(np.sum(dtheta * dtheta))
                    accepted = True
                    break
                eta *= backtrack
            if accepted:
                break
            lam *= 10.0
        if not accepted:
            status = STATUS_STALLED
            break
        iters = k + 1
        denom = cost
        if denom < 1e-300:
            denom = 1e-300
        rel_drop = (cost - cost_new) / denom
        cost = cost_new
        cost_trace[trace_len] = cost
        trace_len += 1
        lam *= 0.1
        if lam < _LM_MIN:
            lam = _LM_MIN
        if step_norm < tol_step:
            status = STATUS_STEP
            break
        if rel_drop < tol_cost_rel:
            status = STATUS_COST
            break
    return theta, cost, iters, status, trace_len
