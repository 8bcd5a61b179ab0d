"""Multi-start search for regular polygons inscribed in a closed curve.

A formation is an ordered list of n curve parameters whose points form
a regular n-gon: all sides equal and all consecutive edge dot products
equal.  The finder minimizes a weighted least-squares cost over those
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


# bytes of float64 the lockstep finder may hold at once: the cost trace
# (n_init, k_max + 1) plus fk.solve_floats(n, square_mode) per start,
# the Jacobian stack with its solve copies or the Armijo ladder
ARRAY_BUDGET = 1 << 30


class FinderError(ValueError):
    """Bad finder configuration or inputs."""


_NONNEGATIVE_FIELDS = (
    "min_side_frac", "min_vertex_sep_frac", "min_theta_sep", "tie_tol_frac"
)


@dataclass(frozen=True)
class FinderConfig:
    """Knobs for the Gauss-Newton formation search.

    accept_cost is the absolute cost below which a run counts as a
    true formation; tol_step / tol_cost_rel only stop the iteration.
    c_target, when set, steers selection toward formations centered
    near that point.  square_mode (n = 4 only) appends the two
    diagonal residuals that single out true squares.
    """

    n: int = 4
    square_mode: bool = False
    weight_length: float = 1.0
    weight_angle: float = 1.0
    weight_diagonal: float = 1.0
    n_init: int = 32
    k_max: int = 100
    tol_step: float = 1e-10
    tol_cost_rel: float = 1e-12
    accept_cost: float = 1e-9
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    lm_lambda0: float = 1e-8
    seed: int = 0
    c_target: Optional[Tuple[float, float]] = None
    # feasibility thresholds, fractions of curve scale where noted
    min_side_frac: float = 0.05
    min_vertex_sep_frac: float = 0.01
    min_theta_sep: float = 1e-3
    # selection near-tie window, fraction of curve scale
    tie_tol_frac: float = 1e-6

    def validate(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise FinderError(f"{name} must be an integer, got {value!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not np.isfinite(value):
                raise FinderError(f"{name} must be finite, got {value!r}")
            if name in _NONNEGATIVE_FIELDS and value < 0:
                raise FinderError(f"{name} must be nonnegative, got {value!r}")
        if self.c_target is not None and not np.all(np.isfinite(self.c_target)):
            raise FinderError(f"c_target must be finite, got {self.c_target!r}")
        if self.n < 3:
            raise FinderError("formation needs n >= 3 vertices")
        if self.square_mode and self.n != 4:
            raise FinderError("square mode requires n = 4")
        if self.weight_length <= 0 or self.weight_angle <= 0:
            raise FinderError("residual weights must be positive")
        if self.square_mode and self.weight_diagonal <= 0:
            raise FinderError("diagonal weight must be positive")
        if self.n_init < 1:
            raise FinderError("need at least one start")
        if self.k_max < 1:
            raise FinderError("need at least one iteration")
        if self.seed < 0:
            raise FinderError(f"seed must be nonnegative, got {self.seed!r}")
        for name in ("tol_step", "tol_cost_rel", "accept_cost"):
            if getattr(self, name) <= 0:
                raise FinderError(name + " must be positive")
        if not 0.0 < self.armijo_c1 < 1.0:
            raise FinderError("armijo_c1 must lie in (0, 1)")
        if not 0.0 < self.backtrack < 1.0:
            raise FinderError("backtrack factor must lie in (0, 1)")
        if self.lm_lambda0 <= 0:
            raise FinderError("lm_lambda0 must be positive")
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
_FLOAT_FIELDS = tuple(f.name for f in fields(FinderConfig) if type(f.default) is float)


@dataclass
class FormationSolution:
    """One Gauss-Newton run's outcome, plus selection metadata.

    theta is wrapped to [0, 2pi) in solver (agent) order; feasible is
    the geometric predicate (solid side lengths, separated vertices,
    distinct parameters) and says nothing about residual size, which
    is what converged reports.  convex records whether all edge cross
    products share one sign.
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
    """Weighted half sum of squared residuals."""
    config.validate()
    arr = _as_theta(theta, config.n)[None, :]
    r = fk.residual_vector(curve.kind, curve.par, arr, config.square_mode)
    return float(fk.cost_value(r[0], fk.weight_vector(config)))


def jacobian(theta, curve: Curve, square_mode: bool = False) -> np.ndarray:
    """Derivative of residuals() w.r.t. each vertex parameter."""
    return fk.jacobian_matrix(curve.kind, curve.par, _stack(theta, square_mode), square_mode)[0]


def _polygon_stats(curve: Curve, theta: np.ndarray):
    pts = curve.point(theta)
    center = pts.mean(axis=0)
    edges = pts - np.roll(pts, 1, axis=0)
    sides = np.hypot(edges[:, 0], edges[:, 1])
    return pts, center, float(sides.mean()), edges


def _is_convex(edges: np.ndarray) -> bool:
    nxt = np.roll(edges, -1, axis=0)
    cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    return bool(np.all(cross > 0.0) or np.all(cross < 0.0))


def _is_geometric_feasible(
    theta: np.ndarray, pts: np.ndarray, mean_side: float, scale: float, config: FinderConfig
) -> bool:
    if mean_side < config.min_side_frac * scale:
        return False
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    iu = np.triu_indices(len(theta), k=1)
    if dist[iu].min() < config.min_vertex_sep_frac * scale:
        return False
    wrapped = np.sort(np.mod(theta, TWO_PI))
    gaps = np.diff(wrapped, append=wrapped[0] + TWO_PI)
    return bool(gaps.min() >= config.min_theta_sep)


def _solve_starts(theta0, curve: Curve, config: FinderConfig, init_kinds):
    """Run the lockstep Gauss-Newton kernel on the (S, n) starts theta0.

    Returns one FormationSolution per row, init_index being the row.
    """
    theta, iters, status, trace = fk.gn_solve(curve, theta0, config)
    theta_w = np.mod(theta, TWO_PI)
    r = fk.residual_vector(curve.kind, curve.par, theta_w, config.square_mode)
    final_cost = fk.cost_value(r, fk.weight_vector(config))
    solutions = []
    for i, init_kind in enumerate(init_kinds):
        pts, center, mean_side, edges = _polygon_stats(curve, theta_w[i])
        solutions.append(
            FormationSolution(
                theta=theta_w[i],
                vertices=pts,
                center=center,
                mean_side=mean_side,
                residual_norm=float(np.linalg.norm(r[i])),
                cost=float(final_cost[i]),
                iterations=int(iters[i]),
                status=STATUS_LABELS[int(status[i])],
                init_kind=init_kind,
                init_index=i,
                feasible=_is_geometric_feasible(
                    theta_w[i], pts, mean_side, curve.scale, config
                ),
                converged=bool(final_cost[i] <= config.accept_cost),
                convex=_is_convex(edges),
                cost_trace=trace[i, : iters[i] + 1].copy(),
            )
        )
    return solutions


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
    tie = config.tie_tol_frac * curve.scale
    candidates = [s for s in solutions if s.converged and s.feasible]
    if candidates:
        convex_ones = [s for s in candidates if s.convex]
        if convex_ones:
            # demote star/crossed polygons when a convex formation exists
            for s in candidates:
                if not s.convex:
                    s.feasible = False
            candidates = convex_ones
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
    accept_cost) and geometrically feasible, prefers convex polygons
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
