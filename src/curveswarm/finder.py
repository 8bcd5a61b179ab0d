"""Multi-start search for regular polygons inscribed in a closed curve.

A formation is an ordered list of n curve parameters whose points form
a regular n-gon: all sides equal and all consecutive edge dot products
equal.  The finder minimizes a least-squares cost over those
defects with a damped Gauss-Newton iteration, run from one
curvature-weighted start (equal arclength spacing) plus a batch of
sorted random starts, then picks a winner by the selection rules
documented on multistart().
"""

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

import numpy as np

from . import _finder_kernels as fk
from ._stream import Stream
from .curves import Curve

TWO_PI = 2.0 * np.pi

STATUS_LABELS = {
    fk.STATUS_STEP: "step-converged",
    fk.STATUS_COST: "cost-converged",
    fk.STATUS_MAXITER: "max-iterations",
    fk.STATUS_STALLED: "damping-exhausted",
    fk.STATUS_COLLAPSED: "collapsed",
}


# a run counts as a true formation when its cost is at most ACCEPT_COST
ACCEPT_COST = 1e-9
# a feasible polygon's vertices are MIN_VERTEX_SEP_FRAC of the curve scale
# apart and its parameters MIN_THETA_SEP rad apart; its mean side is
# fk.MIN_SIDE_FRAC of the scale at least
MIN_VERTEX_SEP_FRAC = 0.01
MIN_THETA_SEP = 1e-3
# selection near-tie window, fraction of the curve scale
TIE_TOL_FRAC = 1e-6

# bytes of float64 the lockstep finder may hold at once: the cost trace
# (n_init, k_max + 1) plus fk.solve_floats(n, square_mode) per start,
# the Jacobian stack with its solve copies or the Armijo ladder
ARRAY_BUDGET = 1 << 30


class FinderError(ValueError):
    """Bad finder configuration or inputs."""


@dataclass(frozen=True)
class FinderConfig:
    """What a formation search is asked for.

    n vertices from n_init starts (one curvature-weighted, the rest drawn
    from seed), each run for at most k_max iterations.  c_target, when
    set, steers selection toward formations centered near that point.
    square_mode (n = 4 only) appends the two diagonal residuals that
    single out true squares.  The solver's tolerances and the selection
    thresholds are constants: _finder_kernels' TOL_STEP, TOL_COST_REL and
    MIN_SIDE_FRAC, and this module's ACCEPT_COST and its siblings.
    """

    n: int = 4
    square_mode: bool = False
    n_init: int = 32
    k_max: int = 100
    seed: int = 0
    c_target: Optional[Tuple[float, float]] = None

    def validate(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise FinderError(f"{name} must be an integer, got {value!r}")
        if self.c_target is not None and not np.all(np.isfinite(self.c_target)):
            raise FinderError(f"c_target must be finite, got {self.c_target!r}")
        if self.n < 3:
            raise FinderError("formation needs n >= 3 vertices")
        if self.square_mode and self.n != 4:
            raise FinderError("square mode requires n = 4")
        if self.n_init < 1:
            raise FinderError("need at least one start")
        if self.k_max < 1:
            raise FinderError("need at least one iteration")
        if self.seed < 0:
            raise FinderError(f"seed must be nonnegative, got {self.seed!r}")
        # Python ints: a numpy integer count could overflow the products
        n, n_init, k_max = int(self.n), int(self.n_init), int(self.k_max)
        trace = 8 * n_init * (k_max + 1)
        nbytes = trace + 8 * n_init * fk.solve_floats(n, self.square_mode)
        if nbytes > ARRAY_BUDGET:
            if trace > ARRAY_BUDGET:
                keys = f"n_init = {n_init} and k_max = {k_max}"
            else:
                keys = f"n_init = {n_init} and n = {n}, with k_max = {k_max},"
            raise FinderError(
                f"{keys} ask for {nbytes} bytes of finder arrays (cost trace,"
                f" Jacobian stack and its solve copies), over the budget of {ARRAY_BUDGET} bytes"
            )


# validate checks each field by the type of its default
_INT_FIELDS = tuple(f.name for f in fields(FinderConfig) if type(f.default) is int)


@dataclass
class FormationSolution:
    """One Gauss-Newton run's outcome, plus selection metadata.

    theta is wrapped to [0, 2pi) in solver (agent) order; feasible is
    the geometric predicate (solid side lengths, separated vertices,
    distinct parameters) and says nothing about residual size, which
    is what converged reports.  convex records whether all edge cross
    products share one sign.  multistart also clears feasible on a
    converged polygon that is not convex when another of its starts
    converged to a feasible convex one.
    """

    theta: np.ndarray
    vertices: np.ndarray
    center: np.ndarray
    mean_side: float
    residual_norm: float
    cost: float
    iterations: int
    status: str
    init_kind: str
    init_index: int
    feasible: bool
    converged: bool
    convex: bool
    cost_trace: np.ndarray

    @property
    def side_spread(self) -> float:
        """max |side - mean_side| / mean_side over the polygon's sides: 0 when equilateral."""
        edges = self.vertices - np.roll(self.vertices, 1, axis=0)
        sides = np.hypot(edges[:, 0], edges[:, 1])
        if not self.mean_side > 0.0:
            return float("nan")
        return float(np.max(np.abs(sides - self.mean_side))) / self.mean_side


def _as_theta(theta, n: int) -> np.ndarray:
    arr = np.asarray(theta, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise FinderError(f"expected {n} vertex parameters, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FinderError("vertex parameters must be finite")
    return arr


def _stack(theta, square_mode: bool) -> np.ndarray:
    arr = np.asarray(theta, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 3:
        raise FinderError("need at least 3 vertex parameters")
    if square_mode and arr.shape[0] != 4:
        raise FinderError("square mode requires n = 4")
    return arr[None, :]


def residuals(theta, curve: Curve, square_mode: bool = False) -> np.ndarray:
    """Stacked side-length and angle defects (plus diagonals in square mode)."""
    return fk.residual_vector(curve.kind, curve.par, _stack(theta, square_mode), square_mode)[0]


def cost(theta, curve: Curve, config: FinderConfig) -> float:
    """Half sum of squared residuals."""
    config.validate()
    arr = _as_theta(theta, config.n)[None, :]
    r = fk.residual_vector(curve.kind, curve.par, arr, config.square_mode)
    return float(fk.cost_value(r[0]))


def jacobian(theta, curve: Curve, square_mode: bool = False) -> np.ndarray:
    """Derivative of residuals() w.r.t. each vertex parameter."""
    return fk.jacobian_matrix(curve.kind, curve.par, _stack(theta, square_mode), square_mode)[0]


def _verdicts(curve: Curve, theta_w: np.ndarray, final_cost: np.ndarray):
    """Every start's polygon and flags from one curve pass over the (S, n) stack theta_w.

    Returns the (S, n, 2) vertices, (S, 2) centers and, per start, the
    mean side and the feasible, converged and convex flags.  When some
    start is converged, feasible and convex, the converged starts that
    are not convex lose their feasible flag.
    """
    pts = curve.point(theta_w)
    edges = pts - np.roll(pts, 1, axis=1)
    mean_side = np.hypot(edges[..., 0], edges[..., 1]).mean(axis=1)
    nxt = np.roll(edges, -1, axis=1)
    cross = edges[..., 0] * nxt[..., 1] - edges[..., 1] * nxt[..., 0]
    convex = np.all(cross > 0.0, axis=1) | np.all(cross < 0.0, axis=1)
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    upper = np.triu_indices(theta_w.shape[1], k=1)
    min_sep = np.hypot(diff[..., 0], diff[..., 1])[:, upper[0], upper[1]].min(axis=1)
    wrapped = np.sort(np.mod(theta_w, TWO_PI), axis=1)
    gaps = np.diff(wrapped, axis=1, append=wrapped[:, :1] + TWO_PI)
    # a NaN side or separation fails neither of its tests
    feasible = (
        ~(mean_side < fk.MIN_SIDE_FRAC * curve.scale)
        & ~(min_sep < MIN_VERTEX_SEP_FRAC * curve.scale)
        & (gaps.min(axis=1) >= MIN_THETA_SEP)
    )
    converged = final_cost <= ACCEPT_COST
    if np.any(converged & feasible & convex):
        feasible &= convex | ~converged
    return pts, pts.mean(axis=1), mean_side, feasible, converged, convex


def _solve_starts(theta0, curve: Curve, config: FinderConfig, init_kinds):
    """Run the lockstep Gauss-Newton kernel on the (S, n) starts theta0.

    Returns one FormationSolution per row, init_index being the row.
    """
    theta, iters, status, trace = fk.gn_solve(curve, theta0, config)
    theta_w = np.mod(theta, TWO_PI)
    r = fk.residual_vector(curve.kind, curve.par, theta_w, config.square_mode)
    final_cost = fk.cost_value(r)
    pts, center, mean_side, feasible, converged, convex = _verdicts(curve, theta_w, final_cost)
    return [
        FormationSolution(
            theta=theta_w[i],
            vertices=pts[i],
            center=center[i],
            mean_side=float(mean_side[i]),
            residual_norm=float(np.linalg.norm(r[i])),
            cost=float(final_cost[i]),
            iterations=int(iters[i]),
            status=STATUS_LABELS[int(status[i])],
            init_kind=init_kind,
            init_index=i,
            feasible=bool(feasible[i]),
            converged=bool(converged[i]),
            convex=bool(convex[i]),
            cost_trace=trace[i, : iters[i] + 1].copy(),
        )
        for i, init_kind in enumerate(init_kinds)
    ]


def gauss_newton_solve(
    theta0,
    curve: Curve,
    config: FinderConfig,
    init_kind: str = "random",
    init_index: int = 0,
) -> FormationSolution:
    """Run the damped Gauss-Newton iteration from one start.

    The one-start case of the lockstep kernel multistart runs, so it
    reproduces that start's run exactly.  Stops on small step, small
    relative cost drop, the iteration cap, exhausted damping, or a
    polygon still collapsed at iteration RETIRE_ITER; the accepted cost
    sequence is monotone nonincreasing and recorded in cost_trace.
    """
    config.validate()
    arr = _as_theta(theta0, config.n)
    sol = _solve_starts(arr[None, :], curve, config, (init_kind,))[0]
    sol.init_index = init_index
    return sol


def init_curvature_weighted(curve: Curve, n: int) -> np.ndarray:
    """Start with vertices spaced equally in arclength.

    Inverting the normalized arclength at fractions i/n concentrates
    parameters where the curve moves slowly, i.e. where curvature
    features like cusps sit.
    """
    if n < 3:
        raise FinderError("formation needs n >= 3 vertices")
    return np.array([curve.arclength_inverse(i / n) for i in range(n)])


def init_random(curve: Curve, n: int, rng, count: int) -> np.ndarray:
    """count starts of n parameters uniform on [0, 2pi), each sorted to keep agent order.

    One draw of count * n values fills the (count, n) array row by row,
    so the rows are the draws of n values that count calls would make.
    rng is anything with numpy's Generator.uniform: multistart passes a
    _stream.Stream, which draws the same values as default_rng(seed).
    """
    if n < 3:
        raise FinderError("formation needs n >= 3 vertices")
    theta = rng.uniform(0.0, TWO_PI, count * n).reshape(count, n)
    theta.sort()
    return theta


def _rank_key(sol: FormationSolution):
    return (sol.cost, sol.init_index)


def _select(solutions, curve: Curve, config: FinderConfig) -> FormationSolution:
    tie = TIE_TOL_FRAC * curve.scale
    candidates = [s for s in solutions if s.converged and s.feasible]
    if candidates:
        if config.c_target is not None:
            target = np.asarray(config.c_target, dtype=float)
            dists = [float(np.linalg.norm(s.center - target)) for s in candidates]
            dmin = min(dists)
            near = [s for s, d in zip(candidates, dists) if d <= dmin + tie]
        else:
            near = candidates
        lmax = max(s.mean_side for s in near)
        best = [s for s in near if s.mean_side >= lmax - tie]
        return min(best, key=_rank_key)
    # Nothing both converged and feasible.  Hand back the cheapest
    # geometrically sound run (the best-fit polygon) so callers are not
    # given a collapsed all-coincident solution, which always reaches
    # zero residual but is useless.
    pool = [s for s in solutions if s.feasible]
    if not pool:
        pool = solutions
    return min(pool, key=_rank_key)


def multistart(curve: Curve, config: FinderConfig, return_all: bool = False):
    """Search from one curvature-weighted start plus random restarts.

    Steps all n_init starts together in one lockstep Gauss-Newton
    solve (each start keeps its own damping, status, iteration count
    and cost trace; starts still collapsed at iteration RETIRE_ITER
    stop as "collapsed"), keeps runs that are converged (cost <=
    ACCEPT_COST) and geometrically feasible, prefers convex polygons
    over stars, then picks the center nearest c_target
    when given (near-ties go to the largest mean side, favoring
    non-degenerate formations) or simply the largest mean side.
    Remaining ties fall to lower cost, then lower start index.  If no
    run qualifies, the lowest-cost geometrically feasible run (the
    best-fit polygon) is returned, or the overall lowest-cost run when
    every start collapsed.

    The random starts come from one draw of _stream.Stream(config.seed),
    n values each in start order: the starts numpy's default_rng(seed)
    would give, bit for bit.
    """
    config.validate()
    drawn = init_random(curve, config.n, Stream(config.seed), config.n_init - 1)
    starts = np.vstack((init_curvature_weighted(curve, config.n), drawn))
    kinds = ["curvature-weighted"] + ["random"] * (config.n_init - 1)
    solutions = _solve_starts(starts, curve, config, kinds)
    best = _select(solutions, curve, config)
    if return_all:
        return best, solutions
    return best


def find_formation(
    curve: Curve,
    n: int,
    square_mode: bool = False,
    c_target: Optional[Tuple[float, float]] = None,
    seed: int = 0,
    **overrides,
) -> FormationSolution:
    """Convenience wrapper building a FinderConfig and running multistart."""
    config = FinderConfig(
        n=n, square_mode=square_mode, c_target=c_target, seed=seed
    )
    if overrides:
        config = replace(config, **overrides)
    return multistart(curve, config)
